"""What a fresh interpreter loads: ``cbtree.cli`` alone, then per command only
the library modules that command calls; and the package root resolves its
names on first lookup.

Each case runs in a new interpreter, so ``sys.modules`` starts empty of
``cbtree``; nothing here is timed.
"""

import importlib

import pytest

import cbtree
from test_lazy_numpy import run_python

CLI_ONLY = ["cbtree", "cbtree._lazy", "cbtree.cli"]
RECURSION = [*CLI_ONLY, "cbtree.field_recursion", "cbtree.model"]
EXACT = [*RECURSION, "cbtree.exact_oracle", "cbtree.topology"]

# Runs argv through cli.main and records the cbtree modules, and whether
# dataclasses, were loaded at import and after the command.
_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m == "cbtree" or m.startswith("cbtree.")), \\
        "dataclasses" in sys.modules
from cbtree import cli
at_import = loaded()
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
out = {"at_import": at_import, "code": code, "loaded": loaded()}
"""

_POINT = ["--J", "0.7", "--J1", "1.1", "--beta", "2.3"]


CLI_ONLY_ARGVS = [
    ["--help"],
    ["fixed-points", "--help"],
    ["bogus"],
    ["fixed-points", "--theta", "5", "--theta1", "2", "--bogus"],
    ["fixed-points", "--J", "abc", "--J1", "1", "--beta", "1"],
    ["free-energy", *_POINT, "--branch", "u4"],
    ["fixed-points", "--J", "1", "--J1", "1"],
    ["fixed-points", *_POINT, "--theta", "5"],
    ["free-energy", "--J", "1", "--J1", "1"],
    ["free-energy", *_POINT, "--experimental-closed-form"],
]


@pytest.mark.parametrize("argv", CLI_ONLY_ARGVS, ids=map(" ".join, CLI_ONLY_ARGVS))
def test_import_help_and_usage_errors_load_the_cli_alone(argv):
    out = run_python(_PROBE, *argv)
    assert out["code"] in (0, 2)
    assert out["at_import"] == out["loaded"] == [CLI_ONLY, False]


COMMAND_MODULES = [
    (["fixed-points", *_POINT], RECURSION),
    (["fixed-points", "--theta", "5", "--theta1", "2", "--format", "json"], RECURSION),
    (["phase-diagram", "--grid", "theta1=1.8:4:5", "--grid", "theta=0.5:8:5"], RECURSION),
    (["free-energy", *_POINT], [*RECURSION, "cbtree.free_energy"]),
    (["ground-state", "--J", "-0.5", "--J1", "1", "--grid", "beta=1:2:2"],
     [*EXACT, "cbtree.ground_states"]),
    (["lemma-check", "--depth", "1"], [*EXACT, "cbtree.ground_states"]),
    (["beta-sweep", "--J", "1", "--J1", "1", "--grid", "beta=1:2:2"],
     [*EXACT, "cbtree.free_energy", "cbtree.ground_states"]),
    (["verify", "--seed", "0"], [*EXACT, "cbtree.free_energy"]),
]


@pytest.mark.parametrize("argv, modules", COMMAND_MODULES,
                         ids=[" ".join(argv) for argv, _ in COMMAND_MODULES])
def test_each_command_loads_the_modules_it_calls(argv, modules):
    out = run_python(_PROBE, *argv)
    assert out["at_import"] == [CLI_ONLY, False]
    assert out["code"] in (0, 1)
    assert out["loaded"] == [sorted(modules), True]


# The names the package root exported before it resolved them lazily; the
# function free_energy is now reached as cbtree.free_energy.free_energy.
ROOT_NAMES = {
    "check_consistency", "log_partition", "log_weights", "marginal_prob", "measure_prob",
    "FieldAssignment", "TIFixedPoints", "child_to_parent", "critical_curve",
    "phase_predicate", "propagate_inward", "ti_fixed_points", "ti_map",
    "AsymptoteResult", "FreeEnergyReport", "asymptotic_field_slope", "level_log_factor",
    "ln2cosh", "log_cosh_cross", "log_partition_recursive", "pair_log_weights",
    "zero_temperature_limit",
    "GroundScanRow", "LemmaCheckResult", "exhaustive_lemma_check", "ground_state_scan",
    "root_magnetization",
    "ModelParams", "SpinConfig", "hamiltonian", "stat_maxima", "sufficient_stats",
    "sufficient_stats_batch",
    "TreeIndex", "boundary_sets", "build_tree", "connected_subsets",
}


def test_free_energy_is_the_submodule_in_every_import_order():
    code = """
import json, sys, types
import cbtree
out = {"bare_import": sorted(m for m in sys.modules if m.startswith("cbtree"))}
before = cbtree.free_energy
import cbtree.free_energy
import cbtree.free_energy as fe
from cbtree import free_energy
out["modules"] = [isinstance(m, types.ModuleType) and m.__name__
                  for m in (before, cbtree.free_energy, fe, free_energy)]
out["function"] = cbtree.free_energy.free_energy.__module__
"""
    out = run_python(code)
    assert out["bare_import"] == ["cbtree"]
    assert out["modules"] == ["cbtree.free_energy"] * 4
    assert out["function"] == "cbtree.free_energy"
    out = run_python("import json, types\nimport cbtree.free_energy as fe\n"
                     "out = isinstance(fe, types.ModuleType) and fe.__name__")
    assert out == "cbtree.free_energy"


def test_root_names_are_their_module_attributes():
    assert set(cbtree.__all__) == ROOT_NAMES
    assert set(cbtree._EXPORTS) <= set(dir(cbtree))
    for name, module_name in cbtree._EXPORTS.items():
        module = importlib.import_module(f"cbtree.{module_name}")
        expected = module if name == module_name else getattr(module, name)
        assert getattr(cbtree, name) is expected, name
    with pytest.raises(AttributeError, match="no attribute 'free_energy_betas'"):
        cbtree.free_energy_betas
