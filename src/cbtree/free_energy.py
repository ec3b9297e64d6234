"""Free energy via the level-by-level partition-function recursion.

Peeling the outermost level off a depth-n slice multiplies the partition
function by one factor per depth-(n-1) vertex.  The log of that factor,
``level_log_factor``, decomposes into three stable kernels built on
ln(2 cosh), whose two even kernels and two transmitted fields share four
ln(2 cosh) values.  It equals half the sum of the two conditional
child-pair log weights (``pair_log_weights``, defined next to the field
recursion that takes their half-difference and re-exported here), which
is the central identity the test suite hammers on.

With the base ln Z_1 enumerated directly (16 terms on the full tree, 8 on
the half tree), telescoping the factors reproduces ln Z_n exactly.  Under a
constant field h every parent contributes the same factor, the level rate,
so the free energy -lim ln Z_n / (3 * beta * 2**n) is -rate / (2 * beta) in
closed form.  That is the one value of F: ``free_energy`` reports it next
to the finite-depth record ln Z_n, and ``free_energy_betas`` evaluates it
over arrays of points (a beta axis, or points with their own couplings) in
the bits ``free_energy`` gives each point.

Everything beta-dependent flows through ``ln2cosh``; beta = 50 stays well
inside float range.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .field_recursion import (
    REGIME_THREE,
    FieldAssignment,
    _lse,
    pair_log_weights,  # re-exported
    ti_fixed_points,
)
from .model import ModelParams


def ln2cosh(x):
    """ln(2 cosh x) = |x| + log1p(exp(-2|x|)); exact and overflow-free."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax))


def log_cosh_even(shift, x):
    """(1/4) ln[4 cosh(x - shift) cosh(x + shift)]; even in both arguments."""
    return 0.25 * (ln2cosh(x - shift) + ln2cosh(x + shift))


def log_cosh_cross(shift, x, y):
    """(1/2) ln[4 cosh(x - shift) cosh(y + shift)].

    Swapping the arguments and negating both leaves the value unchanged.
    """
    return 0.5 * (ln2cosh(x - shift) + ln2cosh(y + shift))


def effective_field(x, params: ModelParams):
    """atanh(tanh(beta*J) * tanh(x)), the field transmitted through one edge.

    Computed as (1/2)[ln2cosh(x + beta*J) - ln2cosh(x - beta*J)], which is
    the same function without the tanh round trip; odd in x and bounded by
    min(|x|, |beta*J|).
    """
    bj = params.beta * params.J
    return 0.5 * (ln2cosh(x + bj) - ln2cosh(x - bj))


def _level_log_factor(bj, bj1, hy, hz):
    """``level_log_factor`` on broadcastable arrays of beta*J, beta*J1 and the
    two child fields; numpy on arrays gives the bits it gives on 0-d arrays.

    The two even kernels and the two fields transmitted to y share the four
    values ln2cosh(+-bj1 + hz +- bj), computed once each.
    """
    up, down = bj1 + hz, -bj1 + hz
    up_minus, up_plus = ln2cosh(up - bj), ln2cosh(up + bj)
    down_minus, down_plus = ln2cosh(down - bj), ln2cosh(down + bj)
    return (
        0.25 * (up_minus + up_plus)
        + 0.25 * (down_minus + down_plus)
        + log_cosh_cross(bj1, hy + 0.5 * (down_plus - down_minus),
                         hy + 0.5 * (up_plus - up_minus))
    )


def level_log_factor(params: ModelParams, h_y, h_z):
    """Log factor contributed by one parent when its level is peeled off.

    Kernel form; numerically identical to half the sum of the two
    conditional child-pair log weights.
    """
    return _level_log_factor(params.beta * params.J, params.beta * params.J1, h_y, h_z)


def _z1_terms(n_children: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sibling-pair sum, edge sum and child spins of each depth-1 term, root
    spin up first, children in ``itertools.product`` order."""
    terms = [(sum(a * b for a, b in itertools.combinations(spins, 2)), s_root * sum(spins), spins)
             for s_root in (1, -1) for spins in itertools.product((1, -1), repeat=n_children)]
    return tuple(np.array(column, dtype=np.float64) for column in zip(*terms))


_Z1_TERMS = {"full": _z1_terms(3), "half": _z1_terms(2)}


def _ln_z1(beta: float, J: float, J1: float, mode: str, child_fields) -> float:
    """Depth-1 log partition function by direct enumeration.

    The root of a full tree has three children, which the two-child
    recursion never touches; enumerating the 16 (full) or 8 (half) terms
    keeps the base exact.  The child fields are added one child at a time.
    """
    pair, edge, spins = _Z1_TERMS[mode]
    field = sum(h * s for h, s in zip(child_fields, spins.T))
    return _lse(beta * (J * pair + J1 * edge) + field)


def log_partition_recursive(params: ModelParams, fields: FieldAssignment, depth: int | None = None) -> float:
    """ln Z at the given depth from the telescoped level factors.

    Requires a recursion-consistent field family (from ``propagate_inward``);
    exact at every depth, with no enumeration beyond the depth-1 base.
    """
    tree = fields.tree
    n = tree.depth if depth is None else depth
    if not 1 <= n <= tree.depth:
        raise ValueError(f"depth must be in [1, {tree.depth}], got {n}")
    h = fields.h
    ln_z = _ln_z1(params.beta, params.J, params.J1, tree.mode, h[list(tree.vertices_at(1))])
    for m in range(1, n):
        kids = tree.level_start[m + 1]  # level m + 1 opens with each parent's first two children
        end = kids + 2 * tree.level_size(m)
        ln_z += float(np.sum(level_log_factor(params, h[kids:end:2], h[kids + 1:end:2])))
    return ln_z


@dataclass(frozen=True)
class FreeEnergyReport:
    """Free energy of one constant-field branch on the full tree.

    ``f_const_field = -level_rate / (2 beta)`` is the free energy.  ``ln_z``
    and ``f_n = -ln Z_n / (3 beta 2**n)`` for n = 1 .. n_max are the
    finite-depth record: ``ln_z[n-1]`` is ln Z of the depth-n full tree
    under the boundary field ``h_star``.  ln Z_n is affine in 2**n, so
    ``f_extrapolated = 2 f_n - f_{n-1}`` of the last two terms equals
    ``f_const_field`` up to rounding; it is part of the record, not a
    second value of F.  ``level_rate`` is the raw per-parent log factor.
    """

    branch: str
    u_star: float
    h_star: float
    beta: float
    level_rate: float
    ln_z: tuple[float, ...]  # n = 1 .. n_max
    f_n: tuple[float, ...]
    f_extrapolated: float
    f_const_field: float


N_MAX = 30  # default length of the finite-depth record


def free_energy(params: ModelParams, branch: str = "u3", n_max: int = N_MAX) -> FreeEnergyReport:
    """Free energy of one constant-field branch, with its finite-depth record.

    Refuses (ValueError) an ``n_max`` whose 2**n_max carries ln Z_n beyond
    the float range, and a beta that carries F or a record value beyond it.
    """
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    u = ti_fixed_points(params).branch(branch)
    h = 0.5 * math.log(u)
    beta, J, J1 = params.beta, params.J, params.J1
    rate = float(_level_log_factor(beta * J, beta * J1, h, h))
    # 2**n is inf from n = maxexp on, so a longer record is refused at maxexp.
    n = np.arange(1, min(n_max, np.finfo(np.float64).maxexp) + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        ln_z = _ln_z1(beta, J, J1, "full", (h, h, h)) + 3.0 * (np.ldexp(1.0, n - 1) - 1.0) * rate
        # Divided by beta last, so beta*2**n never has to fit a float.
        f_n = (-(ln_z / (3.0 * np.ldexp(1.0, n))) / beta).tolist()
    # rate >= ln 4 (each pair weight sums four exponentials whose exponents
    # sum to 0), so ln Z_n leaves the float range before 3*2**n does.
    if not math.isfinite(ln_z[-1]):
        raise ValueError(f"n_max={n_max} carries ln Z_n beyond the float range")
    f_extrapolated = 2.0 * f_n[-1] - f_n[-2]
    f_const_field = -rate / (2.0 * beta)
    if not all(map(math.isfinite, (*f_n, f_extrapolated, f_const_field))):
        raise ValueError(f"beta={beta!r} carries the free energy beyond the float range")
    return FreeEnergyReport(
        branch=branch,
        u_star=u,
        h_star=h,
        beta=beta,
        level_rate=rate,
        ln_z=tuple(ln_z.tolist()),
        f_n=tuple(f_n),
        f_extrapolated=f_extrapolated,
        f_const_field=f_const_field,
    )


def free_energy_betas(J, J1, betas, u) -> np.ndarray:
    """F = -level_rate / (2 beta) per point: ``free_energy(ModelParams(J, J1,
    beta), branch).f_const_field`` bit for bit, where ``u`` holds the
    branch's fixed point per point and ``J``, ``J1`` are floats or, like
    ``betas``, arrays of one per point.  Raises ValueError for the first
    point whose F leaves the float range."""
    h = np.array([0.5 * math.log(x) for x in np.asarray(u, dtype=np.float64).tolist()])
    betas = np.asarray(betas, dtype=np.float64)
    with np.errstate(over="ignore"):
        f = -_level_log_factor(betas * J, betas * J1, h, h) / (2.0 * betas)
    refused = np.flatnonzero(~np.isfinite(f))
    if refused.size:
        beta = float(betas.flat[refused[0]])
        raise ValueError(f"beta={beta!r} carries the free energy beyond the float range")
    return f


def asymptotic_field_slope(J: float, J1: float) -> float:
    """Zero-temperature growth rate of the upper constant log-field.

    Half the max of the candidate exponent rates of the quadratic's root
    sum.  Only the 4*J1 entry is ever maximal where the upper branch
    actually persists (J1 > 0, J + J1 > 0); the remaining entries are kept
    for fidelity to the source formula.
    """
    return 0.5 * max(2.0 * (J1 - J), 3.0 * J1 - J, 4.0 * J1, J1 - J, 0.0)


@dataclass(frozen=True)
class AsymptoteResult:
    """Zero-temperature free-energy limit of the upper branch.

    ``method`` records how ``limit`` was obtained; the closed forms are
    experimental readings of an ambiguous source display (see
    ``zero_temperature_limit``) and are never used as the primary value.
    """

    slope: float
    limit: float
    method: str
    stable: bool
    samples: tuple[tuple[float, float], ...]
    closed_form_verbatim: float
    closed_form_corrected: float


def _closed_form_limit(J: float, J1: float, slope: float, corrected: bool) -> float:
    # The printed display weights |d*J1 + beta*J + M| by eps and sums over
    # eps = +-1; read verbatim the summand is eps-independent and the term
    # cancels to zero.  The corrected reading substitutes eps*J and scopes
    # the signs as in the transmitted-field asymptotics, which reproduces
    # the numeric limit.
    total = 0.0
    for d in (1.0, -1.0):
        if corrected:
            inner = 0.5 * (abs(d * J1 - J + slope) - abs(d * J1 + J + slope))
        else:
            inner = 0.0
        total += 0.5 * abs(d * J1 + slope - inner)
        total += 0.25 * (abs(J1 + J + d * slope) + abs(J1 - J + d * slope))
    # Same normalization as the numeric limit: -1/(2 beta) per level rate.
    return -0.5 * total


def zero_temperature_limit(
    J: float,
    J1: float,
    beta_samples=(10.0, 20.0, 50.0),
) -> AsymptoteResult:
    """Numeric beta -> infinity limit of the upper-branch free energy.

    Requires J1 > 0 and J + J1 > 0 (where the upper branch persists).  The
    limit is taken as the value at the largest beta sample, flagged stable
    when the two largest samples agree to 1e-3.  The experimental closed
    forms are attached for comparison; they never replace the limit.
    """
    if not (J1 > 0.0 and J + J1 > 0.0):
        raise ValueError("requires J1 > 0 and J + J1 > 0")
    betas = sorted(float(b) for b in beta_samples)
    if len(betas) < 2:
        raise ValueError("need at least two beta samples")
    u3 = []
    for b in betas:
        fps = ti_fixed_points(ModelParams(J=J, J1=J1, beta=b))
        if fps.regime != REGIME_THREE:
            raise ValueError(f"beta={b} is outside the three-solution regime; raise the samples")
        u3.append(fps.u3)
    samples = tuple(zip(betas, free_energy_betas(J, J1, betas, u3).tolist()))
    limit = samples[-1][1]
    stable = abs(samples[-1][1] - samples[-2][1]) < 1e-3
    slope = asymptotic_field_slope(J, J1)
    return AsymptoteResult(
        slope=slope,
        limit=limit,
        method="numeric_limit",
        stable=stable,
        samples=samples,
        closed_form_verbatim=_closed_form_limit(J, J1, slope, corrected=False),
        closed_form_corrected=_closed_form_limit(J, J1, slope, corrected=True),
    )
