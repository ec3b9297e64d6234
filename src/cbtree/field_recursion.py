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
of +inf and raises on the rest.

Constant fields u reduce the recursion to a scalar map whose fixed points
are u = 1 together with the roots of u**2 + (1 + alpha)u + 1 = 0 with
alpha = 2*theta1/theta - theta1**2.  Three positive fixed points exist
exactly when theta1 > sqrt(3) and theta > 2*theta1/(theta1**2 - 3); the
equality locus is the critical curve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ModelParams
from .topology import TreeIndex

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


def _lse4_array(*terms) -> np.ndarray:
    return np.logaddexp.reduce(np.stack(np.broadcast_arrays(*terms)), axis=0)


def _lse(values) -> float:
    """log(sum(exp(values))) over a whole array, shifted by its maximum."""
    a = np.asarray(values, dtype=np.float64)
    m = float(np.max(a))
    if not math.isfinite(m):
        return m
    return m + float(np.log(np.sum(np.exp(a - m))))


def pair_log_weights(params: ModelParams, h_y, h_z):
    """Log of the two conditional sums over a child pair, given the parent.

    Each is a four-term Boltzmann sum over the child spins; the first
    conditions on parent spin up, the second on parent spin down.  Their
    half-difference is the parent's effective field (``child_to_parent``),
    their half-sum the level log factor.  Scalar inputs take a ``math``
    branch and return floats (the constant-field solves call it once per
    point); broadcastable arrays are reduced with numpy.
    """
    a1 = 2.0 * params.beta * params.J1
    aj = params.beta * params.J
    if np.ndim(h_y) == 0 and np.ndim(h_z) == 0:
        hy, hz, lse = float(h_y), float(h_z), _lse4
    else:
        hy = np.asarray(h_y, dtype=np.float64)
        hz = np.asarray(h_z, dtype=np.float64)
        lse = _lse4_array
    w_up = lse(a1 + aj + hy + hz, -aj - hy + hz, -aj + hy - hz, -a1 + aj - hy - hz)
    w_down = lse(-a1 + aj + hy + hz, -aj - hy + hz, -aj + hy - hz, a1 + aj - hy - hz)
    return w_up, w_down


def child_to_parent(params: ModelParams, h_y, h_z):
    """Effective parent field produced by two child fields.

    Half the difference of the two ``pair_log_weights``.  Accepts scalars or
    broadcastable arrays; returns a float for scalar input.
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
        xs = list(tree.vertices_at(m))
        first = np.array([tree.children[x][0] for x in xs])
        second = np.array([tree.children[x][1] for x in xs])
        h[xs] = child_to_parent(params, h[first], h[second])
    root_rule = "first_child_pair" if tree.mode == "full" and tree.depth >= 1 else None
    return FieldAssignment(tree=tree, h=h, root_rule=root_rule)


def _classify(params: ModelParams) -> tuple[str, float]:
    """Regime tag and root sum t = -(1 + alpha) of the non-trivial roots.

    The discriminant (t - 2)(t + 2) decides the regime: within
    DEGENERACY_TOL of zero the twin roots are reported as degenerate,
    otherwise three solutions exist exactly when t > 2.  That form stays
    finite even when t*t would overflow.  When theta1**2 and theta1/theta
    both overflow, t is inf - inf and no regime can be read off; that raises
    OverflowError rather than tagging the point.
    """
    theta1 = params.theta1_exp
    t = theta1 * theta1 - 2.0 * theta1 / params.theta_exp - 1.0
    if math.isnan(t):
        raise OverflowError("theta1**2 and theta1/theta both overflow a float")
    if t > 0.0 and abs((t - 2.0) * (t + 2.0)) <= DEGENERACY_TOL:
        return REGIME_DEGENERATE, t
    return (REGIME_THREE if t > 2.0 else REGIME_UNIQUE), t


def ti_fixed_points(params: ModelParams) -> TIFixedPoints:
    """All positive constant-field fixed points, from the exact factorization.

    u = 1 always solves the scalar map; the remaining candidates are the
    roots of u**2 + (1 + alpha)u + 1 = 0.  The larger root is computed from
    the non-cancelling quadratic branch and the smaller as its reciprocal
    (the product of the two roots is exactly 1).  A root sum of +inf
    (theta1**2 overflows) leaves u3 infinite and raises OverflowError.
    """
    regime, t = _classify(params)
    if regime == REGIME_THREE:
        # Stays finite even when t*t would overflow.
        u3 = 0.5 * t * (1.0 + math.sqrt(1.0 - 4.0 / (t * t)))
        if math.isinf(u3):
            raise OverflowError("theta1**2 overflows a float, so u3 is infinite")
        fps = TIFixedPoints(REGIME_THREE, 1.0 / u3, 1.0, u3)
    else:
        fps = TIFixedPoints(regime, 1.0, 1.0, 1.0)

    for u in (fps.u1, fps.u2, fps.u3):
        if abs(ti_map(params, u) - u) > RESIDUAL_TOL * max(1.0, u):
            raise ArithmeticError(
                f"fixed point u={u!r} fails the self-consistency residual check"
            )
    return fps


def phase_predicate(params: ModelParams) -> bool:
    """True exactly when three constant-field solutions exist (strict).

    Shares ``ti_fixed_points``' classification, degeneracy band included,
    so the two never disagree near the critical curve.
    """
    return _classify(params)[0] == REGIME_THREE


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
