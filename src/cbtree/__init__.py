"""Exact desk-scale solver for the spin model with competing nearest-neighbor
and same-level sibling couplings on the order-2 Cayley tree.

Finite-depth Gibbs measures by complete enumeration, the boundary-field
recursion with its constant fixed points and critical curve, the telescoped
free-energy recursion with zero-temperature asymptotics, and ground-state
scans -- every closed form cross-validated against the brute-force oracle.
"""

from .exact_oracle import (
    check_consistency,
    log_partition,
    log_weights,
    marginal_prob,
    measure_prob,
    plus_minus_mass,
)
from .field_recursion import (
    FieldAssignment,
    TIFixedPoints,
    child_to_parent,
    critical_curve,
    phase_predicate,
    propagate_inward,
    ti_fixed_points,
    ti_map,
)
from .free_energy import (
    AsymptoteResult,
    FreeEnergyReport,
    asymptotic_field_slope,
    effective_field,
    free_energy,
    level_log_factor,
    ln2cosh,
    log_cosh_cross,
    log_cosh_even,
    log_partition_recursive,
    pair_log_weights,
    zero_temperature_limit,
)
from .ground_states import (
    GroundScanRow,
    LemmaCheckResult,
    exhaustive_lemma_check,
    ground_state_scan,
    root_magnetization,
)
from .model import (
    ModelParams,
    SpinConfig,
    hamiltonian,
    stat_maxima,
    sufficient_stats,
    sufficient_stats_batch,
)
from .topology import (
    TreeIndex,
    boundary_sets,
    build_tree,
    connected_subsets,
)

__version__ = "0.1.0"
