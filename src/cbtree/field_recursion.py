"""Boundary-field recursion on the binary tree and its constant solutions.

Summing out the two children of a vertex produces an effective boundary
field at the parent; a per-vertex field family is compatible with a single
Gibbs measure exactly when every parent's field is the two-child image of
its children's fields.  A field is a log-field h (u = exp(2h)): a scalar,
a float64 array over the boundary in id order, or a ``FieldAssignment``
with one read-only float64 array over every vertex.  ``child_to_parent``
and ``propagate_inward`` run on h and exponentiate only after shifting by
the largest term.  The constant solutions are still solved through
theta = exp(2*beta*J) and theta1 = exp(2*beta*J1), so ``ti_fixed_points``
raises once that arithmetic leaves the float range: ZeroDivisionError when
theta underflows to 0, and OverflowError when theta or theta1 overflows or
the root sum is +inf (theta1**2 overflows) or inf - inf (theta1**2 and
theta1/theta both do).  ``phase_predicate`` returns True at a root sum
of +inf and raises on the rest.  ``ti_fixed_points_grid`` (a theta grid) and
``ti_fixed_points_betas`` (a beta axis) equal ``ti_fixed_points`` bit for bit:
numpy's exp and log may differ from ``math`` in the last ulp, so they
exponentiate in ``math`` once per axis value and do the rest with correctly
rounded + - * / and sqrt, in order.

Constant fields u reduce the recursion to a scalar map whose fixed points
are u = 1 together with the roots of u**2 + (1 + alpha)u + 1 = 0 with
alpha = 2*theta1/theta - theta1**2.  Three positive fixed points exist
exactly when theta1 > sqrt(3) and theta > 2*theta1/(theta1**2 - 3); the
equality locus is the critical curve.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

from ._lazy import LazyModule
from .model import ModelParams

np = LazyModule(globals(), "np", "numpy")

# Reported as "degenerate" when the quadratic discriminant sits inside this
# band; avoids spurious twin roots from rounding on the critical curve.
DEGENERACY_TOL = 1e-12

# Internal guard: every returned fixed point must reproduce itself under the
# scalar map to this relative accuracy.
RESIDUAL_TOL = 1e-10

CURVE_POLE_TOL = 1e-9

REGIME_UNIQUE = "unique"
REGIME_DEGENERATE = "degenerate"
REGIME_THREE = "three"
REGIMES = (REGIME_UNIQUE, REGIME_DEGENERATE, REGIME_THREE)  # by _classify index


@dataclass(frozen=True, eq=False)
class FieldAssignment:
    """Log-field h per vertex, kept as a read-only float64 copy in id order.

    ``root_rule`` records how a degree-3 root was filled in (the two-child
    formula applied to its first two children by id); None on half trees.
    """

    tree: TreeIndex
    h: np.ndarray
    root_rule: str | None = None

    def __post_init__(self):
        h = np.array(self.h, dtype=np.float64)
        if h.shape != (self.tree.n_vertices,):
            raise ValueError("one field value per vertex required")
        if not np.all(np.isfinite(h)):
            raise ValueError("field values must be finite")
        h.flags.writeable = False
        object.__setattr__(self, "h", h)

    def level_values(self, m: int) -> np.ndarray:
        return self.h[list(self.tree.vertices_at(m))]

    def boundary_values(self) -> np.ndarray:
        return self.level_values(self.tree.depth)


@dataclass(frozen=True)
class TIFixedPoints:
    """Constant-field fixed points u1 <= u2 = 1 <= u3 with regime tag."""

    regime: str
    u1: float
    u2: float
    u3: float

    @property
    def h1(self) -> float:
        return 0.5 * math.log(self.u1)

    @property
    def h3(self) -> float:
        return 0.5 * math.log(self.u3)

    def branch(self, name: str) -> float:
        try:
            return {"u1": self.u1, "u2": self.u2, "u3": self.u3}[name]
        except KeyError:
            raise ValueError(f"branch must be u1, u2 or u3, got {name!r}") from None


def _lse4(a: float, b: float, c: float, d: float) -> float:
    m = max(a, b, c, d)
    return m + math.log(
        math.exp(a - m) + math.exp(b - m) + math.exp(c - m) + math.exp(d - m)
    )


def _lse4_array(a, b, c, d) -> np.ndarray:
    return np.logaddexp(np.logaddexp(np.logaddexp(a, b), c), d)


def _lse(values) -> float:
    """log(sum(exp(values))) of a 1-D input, shifted by its maximum; a
    non-finite maximum is returned as it is."""
    a = np.asarray(values, dtype=np.float64)
    m = a.max()
    return float(m + np.log(np.sum(np.exp(a - m)))) if math.isfinite(m) else float(m)


def _pair_log_weights(a1, aj, hy, hz, lse):
    """``pair_log_weights`` on a1 = 2*beta*J1 and aj = beta*J, through ``lse``."""
    up, down = a1 + aj, -a1 + aj
    mixed = (-aj - hy + hz, -aj + hy - hz)
    return lse(up + hy + hz, *mixed, down - hy - hz), lse(down + hy + hz, *mixed, up - hy - hz)


def pair_log_weights(params: ModelParams, h_y, h_z):
    """Log of the two conditional sums over a child pair, given the parent.

    Each is a four-term Boltzmann sum over the child spins; the first
    conditions on parent spin up, the second on parent spin down.  Their
    half-difference is the parent's effective field (``child_to_parent``),
    their half-sum the level log factor.  Scalar inputs take a ``math``
    branch and return floats (the constant-field solves call it once per
    point); broadcastable arrays are reduced with numpy.

    The error bound is absolute: on either branch, each weight is within
    2*eps*S of its exact value at the float products beta*J and
    2*beta*J1, with eps = 2**-52 and S = ln 4 + |2*beta*J1| + |beta*J| +
    |h_y| + |h_z|; so is their half-difference, ``child_to_parent``, whose
    relative error is unbounded.
    """
    a1, aj = 2.0 * params.beta * params.J1, params.beta * params.J
    if isinstance(h_y, float) and isinstance(h_z, float) or np.ndim(h_y) == np.ndim(h_z) == 0:
        return _pair_log_weights(a1, aj, float(h_y), float(h_z), _lse4)
    return _pair_log_weights(a1, aj, np.asarray(h_y, dtype=np.float64),
                             np.asarray(h_z, dtype=np.float64), _lse4_array)


def child_to_parent(params: ModelParams, h_y, h_z):
    """Effective parent field produced by two child fields.

    Half the difference of the two ``pair_log_weights``.  Accepts scalars or
    broadcastable arrays; returns a float for scalar input.

    Its absolute error is at most 2*eps*S, S = ln 4 + |2*beta*J1| +
    |beta*J| + |h_y| + |h_z| (see ``pair_log_weights``); its relative error
    is unbounded, since the two weights cancel where the field is small:
    beta*J = -9.11, beta*J1 = 3e-8 and h_y = h_z = -1.04e-4 give 0.0
    against -1.5e-19.
    """
    w_up, w_down = pair_log_weights(params, h_y, h_z)
    return 0.5 * (w_up - w_down)


def ti_map(params: ModelParams, u: float) -> float:
    """One application of the constant-field scalar map, in log space."""
    if u <= 0.0:
        raise ValueError("u must be positive")
    h = 0.5 * math.log(u)
    return math.exp(2.0 * child_to_parent(params, h, h))


def _boundary_array(tree: TreeIndex, h) -> np.ndarray:
    """A boundary field as a float64 array over the outermost level, in id order.

    ``h`` is a scalar, a boundary-length sequence, or a ``FieldAssignment``
    on ``tree`` (its outermost level is taken).
    """
    if isinstance(h, FieldAssignment):
        if h.tree != tree:
            raise ValueError("field assignment belongs to a different tree")
        return h.boundary_values()
    nb = tree.level_size(tree.depth)
    values = np.full(nb, float(h)) if np.ndim(h) == 0 else np.asarray(h, dtype=np.float64)
    if values.shape != (nb,):
        raise ValueError(f"one value per boundary vertex required, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("boundary field values must be finite")
    return values


def propagate_inward(tree: TreeIndex, params: ModelParams, boundary) -> FieldAssignment:
    """Fill fields on every vertex from values on the outermost level.

    ``boundary`` is a scalar, a sequence over the boundary in id order, or a
    ``FieldAssignment`` on ``tree``.  Interior values satisfy the two-child
    recursion; a degree-3 root gets the two-child formula applied to its
    first two children by id, recorded in ``root_rule``.
    """
    h = np.zeros(tree.n_vertices)
    h[list(tree.boundary)] = _boundary_array(tree, boundary)
    for m in range(tree.depth - 1, -1, -1):
        kids = tree.level_start[m + 1]  # level m + 1 opens with each parent's first two children
        end = kids + 2 * tree.level_size(m)
        h[tree.level_start[m]:kids] = child_to_parent(params, h[kids:end:2], h[kids + 1:end:2])
    root_rule = "first_child_pair" if tree.mode == "full" and tree.depth >= 1 else None
    return FieldAssignment(tree=tree, h=h, root_rule=root_rule)


def _classify(theta, theta1):
    """Index into REGIMES and root sum t = -(1 + alpha), for floats or arrays.

    The discriminant (t - 2)(t + 2), finite even where t*t overflows, decides:
    within DEGENERACY_TOL of zero the twin roots are degenerate, otherwise
    three solutions exist exactly when t > 2.  At t = inf - inf (theta1**2 and
    theta1/theta both overflow) no regime can be read: a float raises
    OverflowError rather than tagging the point, an array keeps the NaN.
    """
    t = theta1 * theta1 - 2.0 * theta1 / theta - 1.0
    if isinstance(t, float) and math.isnan(t):
        raise OverflowError("theta1**2 and theta1/theta both overflow a float")
    degenerate = (t > 0.0) & (abs((t - 2.0) * (t + 2.0)) <= DEGENERACY_TOL)
    return degenerate + 2 * (t > 2.0) * (1 - degenerate), t


def _larger_root(t, sqrt=math.sqrt):
    return 0.5 * t * (1.0 + sqrt(1.0 - 4.0 / (t * t)))  # finite even if t*t overflows


def _ti_fixed_points_checked(params: ModelParams) -> tuple[TIFixedPoints, tuple[float, float, float]]:
    """``ti_fixed_points`` and the residuals |ti_map(u) - u| it checked at u1, u2, u3."""
    index, t = _classify(params.theta_exp, params.theta1_exp)
    if REGIMES[index] == REGIME_THREE:
        u3 = _larger_root(t)
        if math.isinf(u3):
            raise OverflowError("theta1**2 overflows a float, so u3 is infinite")
        fps = TIFixedPoints(REGIME_THREE, 1.0 / u3, 1.0, u3)
    else:
        fps = TIFixedPoints(REGIMES[index], 1.0, 1.0, 1.0)

    residuals = []
    for u in (fps.u1, fps.u2, fps.u3):
        residuals.append(abs(ti_map(params, u) - u))
        if not (residuals[-1] <= RESIDUAL_TOL * max(1.0, u)):
            raise ArithmeticError(
                f"fixed point u={u!r} fails the self-consistency residual check"
            )
    return fps, tuple(residuals)


def ti_fixed_points(params: ModelParams) -> TIFixedPoints:
    """All positive constant-field fixed points, from the exact factorization.

    u = 1 always solves the scalar map; the remaining candidates are the
    roots of u**2 + (1 + alpha)u + 1 = 0.  The larger root is computed from
    the non-cancelling quadratic branch and the smaller as its reciprocal
    (the product of the two roots is exactly 1).  A root sum of +inf
    (theta1**2 overflows) leaves u3 infinite and raises OverflowError.
    """
    return _ti_fixed_points_checked(params)[0]


def _axis_terms(params_of, axis) -> np.ndarray:
    """theta_exp, theta1_exp, 2*beta*J1 and beta*J of ``params_of(x)`` per axis
    value x, in ``math`` as ``ti_fixed_points`` takes them; NaN where it raises."""
    out = np.full((4, len(axis)), np.nan)
    for k, x in enumerate(axis):
        with contextlib.suppress(ValueError, ArithmeticError):
            p = params_of(float(x))
            out[:, k] = p.theta_exp, p.theta1_exp, 2.0 * p.beta * p.J1, p.beta * p.J
    return out


def _solve_constant(theta, theta1, a1, aj):
    """Regime index into REGIMES, u1, u3 and a flag per cell over broadcast
    (theta, theta1, 2*beta*J1, beta*J) arrays.

    Unflagged cells equal ``ti_fixed_points`` bit for bit.  A cell is flagged
    when the scalar face could reject it: a NaN input or root sum, theta = 0,
    an infinite u3, or a failed u1, u2 or u3 residual check.
    """
    with np.errstate(all="ignore"):
        regime, t = _classify(theta, theta1)
        u3 = np.where(regime == 2, _larger_root(t, np.sqrt), 1.0)
        u1 = 1.0 / u3
        u = np.stack([u1, np.ones_like(u1), u3])
        h = 0.5 * np.log(u)
        w_up, w_down = _pair_log_weights(a1, aj, h, h, _lse4_array)
        ok = np.abs(np.exp(w_up - w_down) - u) <= RESIDUAL_TOL * np.maximum(1.0, u)
        bad = ~ok.all(axis=0) | np.isnan(t) | np.isinf(u3) | (theta == 0.0)
        return regime, u1, u3, bad


def ti_fixed_points_grid(theta1_grid, theta_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regime index into REGIMES, u1 and u3 per cell, theta1-major, each equal
    bit for bit to ``ti_fixed_points(ModelParams.from_thetas(theta, theta1))``.

    A flagged cell (see ``_solve_constant``; a rejected axis value is NaN) is
    solved again by that scalar face, in row-major order: it raises its error
    here or, accepting the cell, confirms the values already held.
    """
    def diagonal(x):
        return ModelParams.from_thetas(x, x)

    _, th1, a1, _ = _axis_terms(diagonal, theta1_grid)
    th, _, _, aj = _axis_terms(diagonal, theta_grid)
    regime = np.empty((len(th1), len(th)), dtype=np.int8)
    u1, u3 = np.empty((2, *regime.shape))
    step = max(1, 4096 // max(1, len(th)))  # rows per block of about 4096 cells
    for lo in range(0, len(th1), step):
        rows = slice(lo, lo + step)
        regime[rows], u1[rows], u3[rows], bad = _solve_constant(th, th1[rows, None],
                                                                a1[rows, None], aj)
        for i, j in np.argwhere(bad) + (lo, 0):
            ti_fixed_points(ModelParams.from_thetas(float(theta_grid[j]), float(theta1_grid[i])))
    return regime, u1, u3


def ti_fixed_points_betas(J: float, J1: float, betas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regime index into REGIMES, u1 and u3 per beta, each equal bit for bit to
    ``ti_fixed_points(ModelParams(J, J1, beta))``.

    A flagged beta (see ``_solve_constant``; one whose params or exps raise
    is NaN) is solved again by that scalar face, in grid order, so the first
    error is the one a per-beta loop raises.
    """
    theta, theta1, a1, aj = _axis_terms(lambda b: ModelParams(J=J, J1=J1, beta=b), betas)
    regime, u1, u3, bad = _solve_constant(theta, theta1, a1, aj)
    for k in np.flatnonzero(bad):
        ti_fixed_points(ModelParams(J=J, J1=J1, beta=float(betas[k])))
    return regime, u1, u3


def phase_predicate(params: ModelParams) -> bool:
    """True exactly when three constant-field solutions exist (strict).

    Shares ``ti_fixed_points``' classification, degeneracy band included,
    so the two never disagree near the critical curve.
    """
    return REGIMES[_classify(params.theta_exp, params.theta1_exp)[0]] == REGIME_THREE


def critical_curve(theta1_grid) -> list[tuple[float, float, float, float]]:
    """Critical theta per theta1 point, plus the (J1*beta, J*beta) coordinates.

    Returns rows (theta1, theta_c, j1_beta, j_beta) with theta_c =
    2*theta1/(theta1**2 - 3).  Grid points at or below the sqrt(3) pole are
    rejected.
    """
    rows = []
    pole = math.sqrt(3.0)
    for t1 in theta1_grid:
        t1 = float(t1)
        if t1 <= pole + CURVE_POLE_TOL:
            raise ValueError(f"theta1={t1!r} is within {CURVE_POLE_TOL} of the sqrt(3) pole")
        tc = 2.0 * t1 / (t1 * t1 - 3.0)
        rows.append((t1, tc, 0.5 * math.log(t1), 0.5 * math.log(tc)))
    return rows
