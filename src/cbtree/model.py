"""Couplings, spin configurations, and exact energy bookkeeping.

The energy of a configuration is

    H(s) = -J * sum over sibling pairs of s_y s_z
           - J1 * sum over parent-child edges of s_x s_y

so J couples same-level distance-two vertices (competing with the edge
coupling J1 when their signs differ).  The three sufficient statistics

    A = sibling-pair correlation sum,
    B = edge correlation sum,
    C = net spin,

are kept as exact integers; couplings multiply in only afterwards, which
keeps oracle comparisons free of cancellation noise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ._lazy import LazyModule
from .topology import TreeIndex, edge_pairs, sibling_pairs

np = LazyModule(globals(), "np", "numpy")


@dataclass(frozen=True)
class ModelParams:
    """Couplings and inverse temperature.

    ``J`` couples sibling pairs, ``J1`` couples edges; both in energy units.
    ``beta`` must be positive (free-energy normalization divides by it),
    and 2*beta*J and 2*beta*J1 must be finite floats.
    """

    J: float
    J1: float
    beta: float

    def __post_init__(self):
        if not (self.beta > 0.0) or not math.isfinite(self.beta):
            raise ValueError(f"beta must be positive and finite, got {self.beta}")
        x = 2.0 * self.beta
        if not (math.isfinite(x * self.J) and math.isfinite(x * self.J1)):
            if not (math.isfinite(self.J) and math.isfinite(self.J1)):
                raise ValueError("couplings must be finite")
            name = "J1" if math.isfinite(x * self.J) else "J"
            raise ValueError(f"2*beta*{name} overflows a float")

    @classmethod
    def from_thetas(cls, theta: float, theta1: float) -> "ModelParams":
        """Build params with beta = 1 from the exponentiated couplings.

        Only the products beta*J and beta*J1 matter, so any point can be
        stated through theta = exp(2*beta*J) and theta1 = exp(2*beta*J1).
        """
        if theta <= 0.0 or theta1 <= 0.0:
            raise ValueError("theta and theta1 must be positive")
        return cls(J=0.5 * math.log(theta), J1=0.5 * math.log(theta1), beta=1.0)

    @property
    def theta_exp(self) -> float:
        """exp(2*beta*J), the sibling-coupling weight ratio; OverflowError
        naming the exponent when it does not fit a float."""
        return _exp_named(2.0 * self.beta * self.J, "J")

    @property
    def theta1_exp(self) -> float:
        """exp(2*beta*J1), the edge-coupling weight ratio; OverflowError
        naming the exponent when it does not fit a float."""
        return _exp_named(2.0 * self.beta * self.J1, "J1")


def _exp_named(x: float, name: str) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        raise OverflowError(f"exp(2*beta*{name}) overflows a float") from None


@dataclass(frozen=True)
class SpinConfig:
    """Bit-packed +-1 assignment on a tree; bit set means spin +1."""

    tree: TreeIndex
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.tree.n_vertices):
            raise ValueError("bit pattern does not fit the tree")

    @classmethod
    def all_plus(cls, tree: TreeIndex) -> "SpinConfig":
        return cls(tree, (1 << tree.n_vertices) - 1)

    @classmethod
    def all_minus(cls, tree: TreeIndex) -> "SpinConfig":
        return cls(tree, 0)

    @classmethod
    def from_spins(cls, tree: TreeIndex, spins) -> "SpinConfig":
        spins = list(spins)
        if len(spins) != tree.n_vertices or any(s not in (-1, 1) for s in spins):
            raise ValueError("spins must be +-1, one per vertex")
        bits = 0
        for v, s in enumerate(spins):
            if s == 1:
                bits |= 1 << v
        return cls(tree, bits)

    def spin(self, v: int) -> int:
        return 1 if (self.bits >> v) & 1 else -1

    def spins(self) -> tuple[int, ...]:
        return tuple(self.spin(v) for v in range(self.tree.n_vertices))

    def flipped(self) -> "SpinConfig":
        mask = (1 << self.tree.n_vertices) - 1
        return SpinConfig(self.tree, self.bits ^ mask)


def sufficient_stats(tree: TreeIndex, config: SpinConfig) -> tuple[int, int, int]:
    """Exact integer (A, B, C) for one configuration."""
    a = sum(config.spin(y) * config.spin(z) for y, z in sibling_pairs(tree))
    b = sum(config.spin(x) * config.spin(y) for x, y in edge_pairs(tree))
    c = sum(config.spin(v) for v in range(tree.n_vertices))
    return a, b, c


def spin_bits(tree: TreeIndex, configs) -> list[np.ndarray]:
    """One int8 array per vertex over bit-packed configurations: 1 for spin +1."""
    cfg = np.asarray(configs, dtype=np.int64)
    return [((cfg >> v) & 1).astype(np.int8) for v in range(tree.n_vertices)]


def unequal_counts(tree: TreeIndex, bits) -> tuple[np.ndarray, np.ndarray]:
    """Per-configuration int32 counts of unequal sibling pairs and unequal edges.

    A = len(sibling_pairs) - 2 * (first count), B = len(edge_pairs) - 2 * (second).
    """
    a_neq = np.zeros(bits[0].shape, dtype=np.int32)
    for y, z in sibling_pairs(tree):
        a_neq += bits[y] ^ bits[z]
    b_neq = np.zeros(bits[0].shape, dtype=np.int32)
    for x, y in edge_pairs(tree):
        b_neq += bits[x] ^ bits[y]
    return a_neq, b_neq


def sufficient_stats_batch(tree: TreeIndex, configs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (A, B, C) over an int64 array of bit-packed configurations.

    Counts unequal-spin pairs with int8 bit arithmetic, then converts; the
    result is identical to per-config ``sufficient_stats``.
    """
    bits = spin_bits(tree, configs)
    a_neq, b_neq = unequal_counts(tree, bits)
    ones = np.zeros(a_neq.shape, dtype=np.int32)
    for b in bits:
        ones += b

    a = len(sibling_pairs(tree)) - 2 * a_neq.astype(np.int64)
    b = len(edge_pairs(tree)) - 2 * b_neq.astype(np.int64)
    c = 2 * ones.astype(np.int64) - tree.n_vertices
    return a, b, c


def hamiltonian(tree: TreeIndex, params: ModelParams, config: SpinConfig) -> float:
    """H = -J*A - J1*B, exact up to the two final float multiplies."""
    a, b, _ = sufficient_stats(tree, config)
    return -params.J * a - params.J1 * b


def stat_maxima(tree: TreeIndex) -> tuple[int, int, int]:
    """(A, B, C) of the all-plus configuration on a full-mode tree.

    Closed forms at depth n >= 1: A = 3*2**(n-1), B = 3*(2**n - 1),
    C = 1 + 3*(2**n - 1).
    """
    if tree.mode != "full":
        raise ValueError("stat_maxima is defined for full-mode trees")
    n = tree.depth
    if n == 0:
        return 0, 0, 1
    return 3 * 2 ** (n - 1), 3 * (2**n - 1), 1 + 3 * (2**n - 1)
