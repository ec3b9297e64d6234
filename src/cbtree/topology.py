"""Finite slices of the order-2 Cayley tree.

Every vertex of the infinite tree lies on three edges.  A depth-``n`` slice
keeps all vertices within graph distance ``n`` of a chosen root.  Two
layouts are supported:

* ``"full"`` -- the root keeps all three neighbors as children, so level
  sizes run 1, 3, 6, 12, ...
* ``"half"`` -- the root keeps two children (a single branch of the full
  tree), so level sizes run 1, 2, 4, 8, ...

Vertices are numbered level by level and, within a level, by parent id.
This makes the depth ``n-1`` slice an id-prefix of the depth-``n`` slice,
which the enumeration oracle relies on.  A ``TreeIndex`` is immutable after
construction and safe to share between threads.

Connected vertex sets are enumerated as uint64 bitmask arrays, one per
top vertex: ``connected_subsets`` yields them as frozensets,
``boundary_census`` counts the boundaries of all of them in one numpy pass
and ``boundary_sets`` is the frozenset reference for one set.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator

from ._lazy import LazyModule

np = LazyModule(globals(), "np", "numpy")

# Trees are only meant for desk-scale exact work; depth 12 full already has
# 12286 vertices.
DEPTH_CAP = 12

# Connected-subset enumeration is exponential in depth (17687 subsets at
# full depth 3).
SUBSET_DEPTH_CAP = 3

MODES = ("full", "half")


@dataclass(frozen=True)
class TreeIndex:
    """Parent/children/level tables of one finite tree slice."""

    depth: int
    mode: str
    parent: tuple[int, ...]                 # -1 for the root
    children: tuple[tuple[int, ...], ...]   # ordered by id
    level: tuple[int, ...]
    level_start: tuple[int, ...]            # level m spans [level_start[m], level_start[m+1])

    @property
    def n_vertices(self) -> int:
        return len(self.parent)

    def level_size(self, m: int) -> int:
        return self.level_start[m + 1] - self.level_start[m]

    def vertices_at(self, m: int) -> range:
        if not 0 <= m <= self.depth:
            raise ValueError(f"level {m} outside tree of depth {self.depth}")
        return range(self.level_start[m], self.level_start[m + 1])

    @property
    def boundary(self) -> range:
        """Vertices of the outermost level."""
        return self.vertices_at(self.depth)

    def neighbors(self, v: int) -> tuple[int, ...]:
        p = self.parent[v]
        if p < 0:
            return self.children[v]
        return (p,) + self.children[v]

    def siblings(self, v: int) -> tuple[int, ...]:
        """Other children of v's parent (empty for the root)."""
        p = self.parent[v]
        if p < 0:
            return ()
        return tuple(c for c in self.children[p] if c != v)


@lru_cache(maxsize=None, typed=True)
def build_tree(depth: int, mode: str = "full") -> TreeIndex:
    """The depth-``depth`` slice, vertices numbered level by level; built once per argument tuple."""
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if depth < 0:
        raise ValueError(f"depth must be non-negative, got {depth}")
    if depth > DEPTH_CAP:
        raise ValueError(f"depth {depth} exceeds the enumeration cap {DEPTH_CAP}")

    root_degree = 3 if mode == "full" else 2
    parent = [-1]
    level = [0]
    level_start = [0, 1]
    prev_level = [0]
    for m in range(1, depth + 1):
        k = root_degree if m == 1 else 2
        this_level = []
        for p in prev_level:
            for _ in range(k):
                v = len(parent)
                parent.append(p)
                level.append(m)
                this_level.append(v)
        level_start.append(len(parent))
        prev_level = this_level

    children: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            children[p].append(v)
    return TreeIndex(
        depth=depth,
        mode=mode,
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        level=tuple(level),
        level_start=tuple(level_start),
    )


@lru_cache(maxsize=None)
def sibling_pairs(tree: TreeIndex) -> tuple[tuple[int, int], ...]:
    """Same-parent (same-level, distance-two) vertex pairs, by parent id.

    Each pair (y, z), y < z, with its common parent x is one ternary triple
    <y, x, z> of the sibling coupling.
    """
    return tuple(
        pair for x in range(tree.n_vertices)
        for pair in itertools.combinations(tree.children[x], 2)
    )


@lru_cache(maxsize=None)
def edge_pairs(tree: TreeIndex) -> tuple[tuple[int, int], ...]:
    """All nearest-neighbor (parent, child) edges, ordered by child id."""
    return tuple((tree.parent[v], v) for v in range(1, tree.n_vertices))


def _check_connected(tree: TreeIndex, k: frozenset[int]) -> None:
    seen = {next(iter(k))}
    stack = list(seen)
    while stack:
        v = stack.pop()
        for w in tree.neighbors(v):
            if w in k and w not in seen:
                seen.add(w)
                stack.append(w)
    if seen != k:
        raise ValueError("vertex set is not connected")


def boundary_sets(tree: TreeIndex, k: Iterable[int]) -> tuple[frozenset[int], frozenset[int]]:
    """Exterior edge boundary and exterior sibling boundary of a connected set.

    Returns ``(dk, d2k)`` where ``dk`` collects outside vertices adjacent to
    the set and ``d2k`` collects outside vertices that share a parent with a
    member of the set.
    """
    kset = frozenset(k)
    if not kset:
        raise ValueError("vertex set must be nonempty")
    if not all(0 <= v < tree.n_vertices for v in kset):
        raise ValueError("vertex set contains ids outside the tree")
    _check_connected(tree, kset)

    dk = set()
    d2k = set()
    for v in kset:
        for w in tree.neighbors(v):
            if w not in kset:
                dk.add(w)
        for w in tree.siblings(v):
            if w not in kset:
                d2k.add(w)
    return frozenset(dk), frozenset(d2k)


def _rooted_subtrees(tree: TreeIndex) -> list[np.ndarray]:
    """Per vertex v, every vertex set that contains v and stays inside v's subtree.

    Each entry is a ``(3, n_sets)`` uint64 array whose rows are int bitmasks:
    the members of each set, the union of their neighbors and the union of
    their siblings.  Sets come in ``itertools.product`` order over v's
    children in id order, each child offering "absent" first and then its
    own sets.
    """
    if tree.depth > SUBSET_DEPTH_CAP:
        raise ValueError(
            f"connected-subset enumeration capped at depth {SUBSET_DEPTH_CAP}, "
            f"got depth {tree.depth}"
        )
    n = tree.n_vertices
    rooted: list[np.ndarray] = [None] * n
    for v in reversed(range(n)):
        sets = np.array([[1 << v], [sum(1 << w for w in tree.neighbors(v))],
                         [sum(1 << w for w in tree.siblings(v))]], dtype=np.uint64)
        for c in tree.children[v]:
            opts = np.concatenate((np.zeros((3, 1), np.uint64), rooted[c]), axis=1)
            # Row-major reshape keeps v's sets outer and the child's options inner.
            sets = (sets[:, :, None] | opts[:, None, :]).reshape(3, -1)
        rooted[v] = sets
    return rooted


def _members(k: int) -> frozenset[int]:
    return frozenset(v for v in range(k.bit_length()) if k >> v & 1)


def connected_subsets(tree: TreeIndex, max_count: int) -> Iterator[frozenset[int]]:
    """Yield every nonempty connected vertex set exactly once, deterministically.

    Sets are grouped by their vertex of smallest level (the "top"), tops in
    id order.  Raises once the yield count would exceed ``max_count``.
    """
    count = 0
    for sets in _rooted_subtrees(tree):
        for k in sets[0].tolist():
            count += 1
            if count > max_count:
                raise ValueError(f"connected subset count exceeds cap {max_count}")
            yield _members(k)


def boundary_census(tree: TreeIndex) -> tuple[int, int, frozenset[int] | None]:
    """Count connected vertex sets whose sibling boundary outnumbers the edge boundary.

    Takes the sets of ``connected_subsets``, in the same order, as one array
    of member, neighbor and sibling masks and counts both boundaries of all
    sets at once with ``np.bitwise_count``.  Returns (set count, violating
    sets, first violating set or None).
    """
    k, d, s = np.concatenate(_rooted_subtrees(tree), axis=1)
    bad = np.flatnonzero(np.bitwise_count(s & ~k) > np.bitwise_count(d & ~k))
    return k.size, bad.size, _members(int(k[bad[0]])) if bad.size else None
