"""Ground truth by complete configuration enumeration.

Everything here but ``count_table`` scales as 2**(vertex count) and is
meant for small depths: full trees to depth 3 (22 spins, ~4.2M
configurations), half trees to depth 4.  The recursion modules cover
anything larger and are validated against this one.

The finite-volume Gibbs weight of a configuration s is

    exp( -beta * H(s) + sum over boundary vertices of h_x * s_x )

with the boundary field h living on the outermost level only.  A field
argument h is a scalar, a sequence over the boundary in id order or a
``FieldAssignment`` on the same tree (its outermost level).  All
probability work happens in log space; log weights are combined by a block
log-sum-exp with fixed block boundaries, so results are independent of the
worker-thread count.  These block passes are the only work in the package
spread over threads (``parallel_map``, one block per item); everything else
is too small per item for a thread to pay for itself.

For a constant boundary field h the log weight is
beta*J*A + beta*J1*B + h*C_boundary, whose integer statistics do not depend
on (beta, h).  ``count_table`` therefore keeps the exact number of
configurations in each (A, B, C_boundary) bin, one table per enumerable tree
for the life of the process (built on first use under a lock, so that
concurrent first callers build it once).  It is built without touching a
configuration: all subtrees on one level are equal, so a DP from the
boundary inwards convolves the bin counts of a vertex's children, per spin
of the vertex.  ``enumerated_count_table`` builds the same table by one
block-wise pass over all configurations and is its oracle; ``verify``
reads its recursion check from that one.  ``log_partition`` with a
constant field is then a log-sum-exp over the bins (1340 at full depth 3)
instead of over 2**22 configurations, and ``plus_minus_masses`` does the
all-plus and all-minus masses of a whole beta axis in one pass over them.
Any other field, and ``measure_prob``, ``marginal_prob`` and
``check_consistency``, take the per-configuration ``log_weights`` route,
the independent reference.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, reduce

from . import model
from ._lazy import LazyModule
from .field_recursion import FieldAssignment, _boundary_array, _lse
from .model import ModelParams, SpinConfig
from .parallel import parallel_map
from .topology import TreeIndex, build_tree, edge_pairs, sibling_pairs

np = LazyModule(globals(), "np", "numpy")

FULL_ENUM_DEPTH_CAP = 3
HALF_ENUM_DEPTH_CAP = 4

_BLOCK = 1 << 16  # fixed chunking; never tied to the thread count


def _check_enum_cap(tree: TreeIndex) -> None:
    cap = FULL_ENUM_DEPTH_CAP if tree.mode == "full" else HALF_ENUM_DEPTH_CAP
    if tree.depth > cap:
        raise ValueError(
            f"enumeration capped at depth {cap} for {tree.mode} trees, got {tree.depth}"
        )


def log_weights(tree: TreeIndex, params: ModelParams, h, configs) -> np.ndarray:
    """Unnormalized log weight of each bit-packed configuration."""
    a, b, _ = model.sufficient_stats_batch(tree, configs)
    w = params.beta * params.J * a + params.beta * params.J1 * b
    cfg = np.asarray(configs, dtype=np.int64)
    for x, hx in zip(tree.boundary, _boundary_array(tree, h).tolist()):
        if hx != 0.0:
            w = w + hx * (2.0 * ((cfg >> x) & 1) - 1.0)
    return w


def _blocks(total: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + _BLOCK, total)) for lo in range(0, total, _BLOCK)]


# Bins are ordered by (unequal sibling pairs, unequal edges, boundary plus
# spins).  Only the two uniform configurations have no unequal pair or edge,
# so they take the first two bins, one configuration each.
MINUS_BIN = 0
PLUS_BIN = 1


@dataclass(frozen=True, eq=False)
class CountTable:
    """Exact number of configurations in each non-empty (A, B, C_boundary) bin.

    ``a``, ``b``, ``c`` and ``count`` are read-only int64 arrays, one entry
    per bin; ``c`` is the net spin of the boundary level.  Built with them,
    ``stats`` holds ``a``, ``b`` and ``c`` as float64 rows (exact: they are
    small integers) and ``ln_count`` holds ln(count), both read-only.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    count: np.ndarray
    stats: np.ndarray
    ln_count: np.ndarray

    def log_weights(self, bj, bj1, h) -> np.ndarray:
        """Log weight of one configuration of each bin under a constant field,
        bj*A + bj1*B + h*C with bj = beta*J and bj1 = beta*J1: one row per
        entry of equal-length 1-D arrays, or one 1-D row for floats."""
        a, b, c = self.stats
        return np.multiply.outer(bj, a) + np.multiply.outer(bj1, b) + np.multiply.outer(h, c)

    def log_partition(self, params: ModelParams, h: float) -> float:
        """ln Z as a log-sum-exp over bins.

        A bin of count 1 adds ln 1 = 0 exactly, so its term is bit-equal to
        its ``log_weights`` entry and exp(w - ln Z) <= 1 holds by
        construction.
        """
        w = self.log_weights(params.beta * params.J, params.beta * params.J1, h)
        return float(_lse_rows(w[None] + self.ln_count)[0])


def _lse_rows(w: np.ndarray) -> np.ndarray:
    """``_lse`` of each row of a 2-D array, bit for bit; overwrites ``w``."""
    m = w.max(axis=1)
    finite = np.isfinite(m)
    if not finite.all():  # such a row's value is its maximum, as in ``_lse``
        out = m.copy()
        out[finite] = _lse_rows(w[finite])
        return out
    w -= m[:, None]
    return m + np.log(np.sum(np.exp(w, out=w), axis=1))


def _count_block(tree: TreeIndex, shape: tuple[int, int, int], rng) -> np.ndarray:
    lo, hi = rng
    bits = model.spin_bits(tree, np.arange(lo, hi, dtype=np.int64))
    key, b_neq = model.unequal_counts(tree, bits)
    key *= shape[1]
    key += b_neq
    key *= shape[2]
    for x in tree.boundary:
        key += bits[x]
    return np.bincount(key, minlength=shape[0] * shape[1] * shape[2])


def _join_children(sub: list[np.ndarray], k: int, da: int, db: int) -> list[np.ndarray]:
    """Flat bin counts of the subtree of a vertex with ``k`` children, per
    spin s of the vertex (0 minus, 1 plus), from ``sub[t]``, those of one
    child's subtree with the child at spin t.

    Children with j plus spins occur in comb(k, j) orders; they add
    j*(k - j) unequal sibling pairs, and the children whose spin differs
    from s add one unequal edge each.
    """
    terms = [math.comb(k, j) * reduce(np.convolve, [sub[1]] * j + [sub[0]] * (k - j))
             for j in range(k + 1)]
    joined = []
    for s in (0, 1):
        out = np.zeros(0, dtype=np.int64)
        for j, term in enumerate(terms):
            shift = j * (k - j) * da + (k - j if s else j) * db
            if out.size < shift + term.size:
                out = np.pad(out, (0, shift + term.size - out.size))
            out[shift:shift + term.size] += term
        joined.append(out)
    return joined


def _table(counts: np.ndarray) -> CountTable:
    """The non-empty bins of a count array over (unequal sibling pairs,
    unequal edges, boundary plus spins), in ravelled order."""
    shape = counts.shape
    nb = shape[2] - 1
    nonzero = np.flatnonzero(counts)
    a_neq, b_neq, ones = np.unravel_index(nonzero, shape)
    arrays = (
        shape[0] - 1 - 2 * a_neq.astype(np.int64),
        shape[1] - 1 - 2 * b_neq.astype(np.int64),
        2 * ones.astype(np.int64) - nb,
        counts.ravel()[nonzero].astype(np.int64),
    )
    arrays += (np.array(arrays[:3], dtype=np.float64), np.log(arrays[3]))
    for arr in arrays:
        arr.flags.writeable = False
    return CountTable(*arrays)


def _table_shape(tree: TreeIndex) -> tuple[int, int, int]:
    return (len(sibling_pairs(tree)) + 1, len(edge_pairs(tree)) + 1,
            tree.level_size(tree.depth) + 1)


@lru_cache(maxsize=None)
def _build_count_table(tree: TreeIndex) -> CountTable:
    # The bin of (unequal sibling pairs p, unequal edges e, boundary plus
    # spins c) sits at flat index p*da + e*db + c.  A subtree's counts are at
    # most the whole tree's, so no axis carries into the next and a 1-D
    # convolution of flat arrays is the 3-D convolution of bins.
    shape = _table_shape(tree)
    da, db = shape[1] * shape[2], shape[2]
    sub = [np.array([1], dtype=np.int64), np.array([0, 1], dtype=np.int64)]  # a boundary vertex
    for m in reversed(range(tree.depth)):
        k = len(tree.children[tree.level_start[m]])
        sub = _join_children(sub, k, da, db)
    counts = np.zeros(math.prod(shape), dtype=np.int64)
    for flat in sub:
        counts[:flat.size] += flat
    return _table(counts.reshape(shape))


@lru_cache(maxsize=None)
def _enumerate_count_table(tree: TreeIndex) -> CountTable:
    shape = _table_shape(tree)
    partials = parallel_map(lambda rng: _count_block(tree, shape, rng),
                            _blocks(1 << tree.n_vertices))
    return _table(np.sum(partials, axis=0).reshape(shape))


_TABLE_LOCK = threading.Lock()


def count_table(tree: TreeIndex) -> CountTable:
    """The (A, B, C_boundary) count table of ``tree``.

    Built on first use by a tree DP over levels and cached per tree; the
    lock makes concurrent first callers build it only once.
    ``enumerated_count_table`` is its oracle.
    """
    _check_enum_cap(tree)
    with _TABLE_LOCK:
        return _build_count_table(tree)


def enumerated_count_table(tree: TreeIndex) -> CountTable:
    """``count_table`` built by binning every configuration instead.

    One block-wise enumeration pass over all 2**n configurations, spread
    over threads and cached per tree under the same lock; equal to
    ``count_table`` array for array.
    """
    _check_enum_cap(tree)
    with _TABLE_LOCK:
        return _enumerate_count_table(tree)


def _log_partition_enumerated(tree: TreeIndex, params: ModelParams, hb: np.ndarray) -> float:
    _check_enum_cap(tree)
    total = 1 << tree.n_vertices

    def one_block(rng):
        lo, hi = rng
        return _lse(log_weights(tree, params, hb, np.arange(lo, hi, dtype=np.int64)))

    partials = parallel_map(one_block, _blocks(total))
    return _lse(partials)


def log_partition(tree: TreeIndex, params: ModelParams, h) -> float:
    """ln Z over all 2**n configurations.

    A constant boundary field is served from ``count_table``; any other by
    a streamed block log-sum-exp over the configurations.
    """
    hb = _boundary_array(tree, h)
    if np.all(hb == hb[0]):
        return count_table(tree).log_partition(params, float(hb[0]))
    return _log_partition_enumerated(tree, params, hb)


def first_config(tree: TreeIndex, predicate) -> int | None:
    """Smallest configuration id whose (A, B, C) arrays satisfy ``predicate``.

    Ids are scanned in order in blocks of 2**10 configurations that double
    up to ``_BLOCK``, so an early match costs a few small blocks; None if
    no id matches.
    """
    _check_enum_cap(tree)
    total = 1 << tree.n_vertices
    lo, size = 0, 1 << 10
    while lo < total:
        hi = min(lo + size, total)
        stats = model.sufficient_stats_batch(tree, np.arange(lo, hi, dtype=np.int64))
        hits = np.flatnonzero(predicate(*stats))
        if hits.size:
            return lo + int(hits[0])
        lo, size = hi, min(2 * size, _BLOCK)
    return None


def measure_prob(tree: TreeIndex, params: ModelParams, h, config: SpinConfig) -> float:
    """Probability of one configuration under the finite-volume measure."""
    if config.tree != tree:
        raise ValueError("configuration belongs to a different tree")
    hb = _boundary_array(tree, h)
    w = log_weights(tree, params, hb, np.array([config.bits], dtype=np.int64))
    return float(np.exp(w[0] - _log_partition_enumerated(tree, params, hb)))


def marginal_prob(tree: TreeIndex, params: ModelParams, h, partial: SpinConfig) -> float:
    """Probability of a configuration on the depth-(N-1) sub-slice.

    Sums the full measure over all completions on the outermost level.
    """
    _check_enum_cap(tree)
    if tree.depth < 1:
        raise ValueError("marginal requires depth >= 1")
    if partial.tree.depth != tree.depth - 1 or partial.tree.mode != tree.mode:
        raise ValueError("partial configuration must live on the depth-(N-1) sub-slice")
    n_low = partial.tree.n_vertices
    nb = tree.level_size(tree.depth)
    completions = (np.arange(1 << nb, dtype=np.int64) << n_low) | partial.bits
    hb = _boundary_array(tree, h)
    w = log_weights(tree, params, hb, completions)
    return float(np.exp(_lse(w) - _log_partition_enumerated(tree, params, hb)))


def check_consistency(params: ModelParams, fields: FieldAssignment) -> float:
    """Max deviation between the marginalized depth-N measure and the
    depth-(N-1) measure built from the same field family.

    On full trees the step into the degree-3 root (depth 1 -> 0) is outside
    the two-child recursion and is rejected; on half trees every step is
    allowed.
    """
    tree = fields.tree
    _check_enum_cap(tree)
    n = tree.depth
    if tree.mode == "full" and n < 2:
        raise ValueError("full-tree consistency check requires depth >= 2")
    if tree.mode == "half" and n < 1:
        raise ValueError("consistency check requires depth >= 1")

    sub = build_tree(n - 1, tree.mode)
    n_low = sub.n_vertices
    low = np.arange(1 << n_low, dtype=np.int64)

    # Interior spins are the low n_low bits of a configuration id, so each
    # id block (a multiple of 2**n_low long) reshapes to one row per
    # boundary configuration; keep a running log-sum-exp per interior one.
    hb = fields.boundary_values()
    acc = np.full(1 << n_low, -np.inf)
    for lo, hi in _blocks(1 << tree.n_vertices):
        w = log_weights(tree, params, hb, np.arange(lo, hi, dtype=np.int64))
        acc = np.logaddexp(acc, np.logaddexp.reduce(w.reshape(-1, 1 << n_low), axis=0))
    marginal = np.exp(acc - _lse(acc))

    w_prev = log_weights(sub, params, fields.level_values(n - 1), low)
    prev = np.exp(w_prev - _lse(w_prev))
    return float(np.max(np.abs(marginal - prev)))


def plus_minus_masses(tree: TreeIndex, J: float, J1: float, betas, h) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities of the all-plus and all-minus configurations under the
    constant field h and ``ModelParams(J, J1, beta)``, per entry of the
    equal-length 1-D arrays ``betas`` and ``h``, as a plus and a minus array.
    The rows go in blocks of at most ``_BLOCK`` (row, bin) cells of the table."""
    table = count_table(tree)
    betas, h = np.asarray(betas, dtype=np.float64), np.asarray(h, dtype=np.float64)
    if betas.ndim != 1 or betas.shape != h.shape:
        raise ValueError("betas and h must be 1-D arrays of one length")
    plus, minus = np.empty((2, betas.size))
    step = max(1, _BLOCK // table.count.size)
    for lo in range(0, betas.size, step):
        rows = slice(lo, lo + step)
        w = table.log_weights(betas[rows] * J, betas[rows] * J1, h[rows])
        ends = w[:, [PLUS_BIN, MINUS_BIN]].T  # a copy: w is overwritten below
        w += table.ln_count
        plus[rows], minus[rows] = np.exp(ends - _lse_rows(w))
    return plus, minus
