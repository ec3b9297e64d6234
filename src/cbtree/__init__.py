"""Exact desk-scale solver for the spin model with competing nearest-neighbor
and same-level sibling couplings on the order-2 Cayley tree.

Finite-depth Gibbs measures by complete enumeration, the boundary-field
recursion with its constant fixed points and critical curve, the telescoped
free-energy recursion with zero-temperature asymptotics, and ground-state
scans -- every closed form cross-validated against the brute-force oracle.

Importing the package loads none of its modules: a name of ``_EXPORTS``
imports its module on first lookup (PEP 562), and each submodule resolves to
itself, so ``cbtree.free_energy`` is the module and the function is
``cbtree.free_energy.free_energy``.
"""

import importlib

# Each exported name and the submodule that defines it; a submodule's own
# name maps to itself.
_EXPORTS = {name: module for module, names in {
    "cli": "",
    "exact_oracle": "check_consistency log_partition log_weights marginal_prob measure_prob",
    "field_recursion": "FieldAssignment TIFixedPoints child_to_parent critical_curve "
                       "phase_predicate propagate_inward ti_fixed_points ti_map",
    "free_energy": "AsymptoteResult FreeEnergyReport asymptotic_field_slope level_log_factor "
                   "ln2cosh log_cosh_cross log_partition_recursive pair_log_weights "
                   "zero_temperature_limit",
    "ground_states": "GroundScanRow LemmaCheckResult exhaustive_lemma_check ground_state_scan "
                     "root_magnetization",
    "model": "ModelParams SpinConfig hamiltonian stat_maxima sufficient_stats "
             "sufficient_stats_batch",
    "parallel": "",
    "topology": "TreeIndex boundary_sets build_tree connected_subsets",
}.items() for name in (module, *names.split())}

__all__ = [name for name, module in _EXPORTS.items() if name != module]
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{_EXPORTS[name]}")
    value = module if name == _EXPORTS[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
