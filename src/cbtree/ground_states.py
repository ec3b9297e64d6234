"""Low-temperature behavior: ground-state weights and the combinatorial bounds.

In the three-solution regime the two asymmetric branches concentrate, as
beta grows, on the all-plus and all-minus configurations; at fixed finite
depth that shows up as the single-configuration mass climbing to 1, which
is what ``ground_state_scan`` measures with the enumeration oracle.

``exhaustive_lemma_check`` sweeps the two inequalities behind that
argument: no configuration beats the all-plus edge-minus-sibling gap, and
no connected vertex set has a larger sibling boundary than edge boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import exact_oracle
from .field_recursion import REGIME_THREE, REGIMES, ti_fixed_points_betas
from .model import ModelParams, stat_maxima
from .topology import boundary_census, build_tree

# Non-decreasing mass along the in-regime beta tail, up to this slack.
MONOTONE_SLACK = 1e-9


@dataclass(frozen=True)
class GroundScanRow:
    """One beta point of a ground-state scan; masses only where three
    constant-field solutions exist."""

    beta: float
    regime: str
    u1: float
    u3: float
    root_prob: float
    mass_plus: float | None
    mass_minus: float | None


@dataclass(frozen=True)
class LemmaCheckResult:
    depth: int
    config_count: int
    config_violations: int
    config_witness: int | None
    max_stat_gap: int
    stat_gap_bound: int
    subset_count: int
    subset_violations: int
    subset_witness: frozenset | None

    @property
    def clean(self) -> bool:
        return self.config_violations == 0 and self.subset_violations == 0


def root_magnetization(u_star: float) -> float:
    """Single-site probability of spin up under a constant-field branch."""
    if u_star <= 0.0:
        raise ValueError("u_star must be positive")
    return u_star / (u_star + 1.0)


def ground_state_scan(J: float, J1: float, beta_grid, depth: int = 2) -> list[GroundScanRow]:
    """Extreme-configuration masses across a beta grid at fixed couplings.

    The mass under the upper branch goes to the all-plus configuration and
    the lower branch mirrors it onto all-minus.  Betas outside the
    three-solution regime produce rows with the regime tag and no masses;
    the scan refuses to extrapolate branches that do not exist there.
    """
    if depth > exact_oracle.FULL_ENUM_DEPTH_CAP:
        raise ValueError(f"mass columns need enumeration; depth capped at "
                         f"{exact_oracle.FULL_ENUM_DEPTH_CAP}")
    tree = build_tree(depth, "full")
    betas = np.asarray(beta_grid, dtype=np.float64)
    regime, u1, u3 = ti_fixed_points_betas(J, J1, betas)
    rows = []
    for beta, tag, u1_b, u3_b in zip(betas.tolist(), regime.tolist(), u1.tolist(), u3.tolist()):
        mass_plus = mass_minus = None
        if REGIMES[tag] == REGIME_THREE:
            params = ModelParams(J=J, J1=J1, beta=beta)
            mass_plus = exact_oracle.plus_minus_mass(tree, params, 0.5 * math.log(u3_b))[0]
            mass_minus = exact_oracle.plus_minus_mass(tree, params, 0.5 * math.log(u1_b))[1]
        rows.append(GroundScanRow(
            beta=beta,
            regime=REGIMES[tag],
            u1=u1_b,
            u3=u3_b,
            root_prob=root_magnetization(u3_b),
            mass_plus=mass_plus,
            mass_minus=mass_minus,
        ))

    in_regime = [r for r in rows if r.mass_plus is not None]
    for prev, cur in zip(in_regime, in_regime[1:]):
        if cur.mass_plus < prev.mass_plus - MONOTONE_SLACK:
            raise RuntimeError(
                f"mass_plus decreased along the in-regime tail: "
                f"beta {prev.beta} -> {cur.beta}"
            )
    return rows


def exhaustive_lemma_check(depth: int = 2) -> LemmaCheckResult:
    """Sweep both combinatorial bounds on the full tree.

    Configuration form: B(s) - A(s) <= B - A over every configuration
    (2**22 of them at depth 3), counted over the bins of
    ``exact_oracle.count_table``, which its tree DP builds without visiting
    a configuration; the witness is the smallest violating configuration
    id, from the doubling scan of ``first_config``.  Subset
    form: the sibling boundary of a connected vertex set never outnumbers
    its edge boundary, counted by the bitmask census ``boundary_census``
    (17687 sets at depth 3).  Returns zero violation counts when clean,
    otherwise the first witness of each kind.
    """
    cap = exact_oracle.FULL_ENUM_DEPTH_CAP
    if depth > cap:
        raise ValueError(f"configuration sweep capped at depth {cap}")
    tree = build_tree(depth, "full")
    a_max, b_max, _ = stat_maxima(tree)
    bound = b_max - a_max
    table = exact_oracle.count_table(tree)
    gap = table.b - table.a
    max_gap = int(gap.max())
    config_violations = int(table.count[gap > bound].sum())
    config_witness = None
    if config_violations:
        config_witness = exact_oracle.first_config(tree, lambda a, b, c: b - a > bound)

    subset_count, subset_violations, subset_witness = boundary_census(tree)
    return LemmaCheckResult(
        depth=depth,
        config_count=1 << tree.n_vertices,
        config_violations=config_violations,
        config_witness=config_witness,
        max_stat_gap=max_gap,
        stat_gap_bound=bound,
        subset_count=subset_count,
        subset_violations=subset_violations,
        subset_witness=subset_witness,
    )
