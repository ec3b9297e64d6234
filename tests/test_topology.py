import itertools

import pytest

from cbtree.topology import (
    MODES,
    TreeIndex,
    boundary_census,
    boundary_sets,
    build_tree,
    connected_subsets,
    edge_pairs,
    sibling_pairs,
)


def brute_force_connected_subsets(tree: TreeIndex) -> set[frozenset]:
    """Independent oracle: test all nonempty subsets for connectivity by BFS."""
    out = set()
    n = tree.n_vertices
    for bits in range(1, 1 << n):
        k = frozenset(v for v in range(n) if bits >> v & 1)
        start = next(iter(k))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in tree.neighbors(v):
                if w in k and w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen == k:
            out.add(k)
    return out


def product_order_subtrees(tree: TreeIndex, v: int) -> list[frozenset]:
    """Independent oracle of the enumeration order: the sets containing v
    inside v's subtree, in itertools.product order over v's children, each
    child offering "absent" first."""
    options = [[None] + product_order_subtrees(tree, c) for c in tree.children[v]]
    return [frozenset({v}).union(*(part for part in combo if part is not None))
            for combo in itertools.product(*options)]


def reference_boundary_census(tree: TreeIndex) -> tuple[int, int, frozenset | None]:
    """The census as Python int-triple lists: per vertex, (members, neighbor
    union, sibling union) of each rooted set in product order, and the
    boundaries counted with ``int.bit_count``."""
    n = tree.n_vertices
    nbr = [sum(1 << w for w in tree.neighbors(v)) for v in range(n)]
    sib = [sum(1 << w for w in tree.siblings(v)) for v in range(n)]
    rooted: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for v in reversed(range(n)):
        sets = [(1 << v, nbr[v], sib[v])]
        for c in tree.children[v]:
            opts = [(0, 0, 0)] + rooted[c]
            sets = [(k | kc, d | dc, s | sc) for k, d, s in sets for kc, dc, sc in opts]
        rooted[v] = sets
    bad = [k for sets in rooted for k, d, s in sets
           if (s & ~k).bit_count() > (d & ~k).bit_count()]
    witness = frozenset(v for v in range(n) if bad[0] >> v & 1) if bad else None
    return sum(map(len, rooted)), len(bad), witness


class TestBuildTree:
    @pytest.mark.parametrize(
        "depth,mode,expected",
        [(2, "full", 10), (1, "full", 4), (0, "full", 1), (2, "half", 7), (3, "full", 22)],
    )
    def test_vertex_counts(self, depth, mode, expected):
        assert build_tree(depth, mode).n_vertices == expected

    def test_full_level_sizes(self):
        tree = build_tree(4, "full")
        assert tree.level_size(0) == 1
        for m in range(1, 5):
            assert tree.level_size(m) == 3 * 2 ** (m - 1)

    def test_half_level_sizes(self):
        tree = build_tree(4, "half")
        for m in range(5):
            assert tree.level_size(m) == 2**m

    def test_child_counts(self):
        tree = build_tree(3, "full")
        assert len(tree.children[0]) == 3
        for v in range(1, tree.n_vertices):
            expected = 0 if tree.level[v] == tree.depth else 2
            assert len(tree.children[v]) == expected

    def test_parent_level_relation(self):
        tree = build_tree(3, "full")
        for v in range(1, tree.n_vertices):
            assert tree.level[tree.parent[v]] == tree.level[v] - 1

    def test_connected_and_acyclic(self):
        tree = build_tree(3, "half")
        # n-1 edges plus full reachability from the root means a tree.
        assert len(edge_pairs(tree)) == tree.n_vertices - 1
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for w in tree.children[v]:
                assert w not in seen
                seen.add(w)
                stack.append(w)
        assert len(seen) == tree.n_vertices

    def test_prefix_property(self):
        # The depth-2 slice is an id-prefix of the depth-3 slice.
        t2, t3 = build_tree(2, "full"), build_tree(3, "full")
        assert t3.parent[: t2.n_vertices] == t2.parent
        assert t3.level[: t2.n_vertices] == t2.level

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="cap"):
            build_tree(13, "full")
        assert build_tree(12, "half").depth == 12

    def test_bad_args(self):
        with pytest.raises(ValueError):
            build_tree(-1, "full")
        with pytest.raises(ValueError):
            build_tree(2, "quarter")

    def test_one_tree_per_arguments(self):
        assert build_tree(3, "full") is build_tree(3, "full")
        assert build_tree(3, "half") is not build_tree(3, "full")

    @pytest.mark.parametrize("depth, mode, match", [
        (-1, "full", "non-negative"), (13, "full", "cap"), (2, "quarter", "mode"),
        (2.0, "full", "float"),  # no cached depth-2 tree for a float depth
    ])
    def test_refusals_are_not_cached(self, depth, mode, match):
        build_tree(2, "full")
        messages = set()
        for _ in range(3):
            with pytest.raises((ValueError, TypeError), match=match) as info:
                build_tree(depth, mode)
            messages.add((type(info.value), str(info.value)))
        assert len(messages) == 1


class TestNearestPairs:
    """Nearest-neighbor pairs are the (parent, child) tuples of ``edge_pairs``."""

    @pytest.mark.parametrize("depth,expected", [(2, 9), (1, 3), (3, 21)])
    def test_edge_counts_full(self, depth, expected):
        assert len(edge_pairs(build_tree(depth, "full"))) == expected

    def test_parent_before_child(self):
        tree = build_tree(2, "half")
        pairs = edge_pairs(tree)
        assert [c for _, c in pairs] == list(range(1, tree.n_vertices))
        for p, c in pairs:
            assert p == tree.parent[c]
            assert p < c


class TestTernaryTriples:
    """Each ``sibling_pairs`` entry (y, z) with its common parent x is one
    ternary triple <y, x, z>."""

    @pytest.mark.parametrize(
        "depth,mode,expected", [(1, "full", 3), (2, "full", 6), (2, "half", 3)]
    )
    def test_counts(self, depth, mode, expected):
        assert len(sibling_pairs(build_tree(depth, mode))) == expected

    def test_count_formula(self):
        tree = build_tree(3, "full")
        expected = sum(
            len(tree.children[v]) * (len(tree.children[v]) - 1) // 2
            for v in range(tree.n_vertices)
        )
        assert len(sibling_pairs(tree)) == expected == 12

    def test_children_of_common_parent_once(self):
        tree = build_tree(2, "full")
        pairs = sibling_pairs(tree)
        assert len(set(pairs)) == len(pairs)
        for y, z in pairs:
            assert y < z
            assert tree.parent[y] == tree.parent[z] >= 0
            assert tree.level[y] == tree.level[z]
        # Ordered by the common parent's id.
        parents = [tree.parent[y] for y, _ in pairs]
        assert parents == sorted(parents)


class TestBoundarySets:
    def test_root_singleton(self):
        tree = build_tree(2, "full")
        dk, d2k = boundary_sets(tree, {0})
        assert dk == frozenset(tree.children[0])
        assert d2k == frozenset()

    def test_level_one_singleton(self):
        tree = build_tree(2, "full")
        v = 1
        dk, d2k = boundary_sets(tree, {v})
        assert dk == frozenset({0}) | frozenset(tree.children[v])
        assert len(dk) == 3
        assert d2k == frozenset({2, 3})

    def test_whole_tree(self):
        tree = build_tree(2, "full")
        dk, d2k = boundary_sets(tree, range(tree.n_vertices))
        assert dk == d2k == frozenset()

    def test_disjoint_from_k_and_singleton_siblings(self):
        tree = build_tree(2, "full")
        for k in connected_subsets(tree, 10**4):
            dk, d2k = boundary_sets(tree, k)
            assert not (dk & k) and not (d2k & k)
        for v in range(tree.n_vertices):
            _, d2k = boundary_sets(tree, {v})
            assert d2k == frozenset(tree.siblings(v))

    def test_rejects_bad_sets(self):
        tree = build_tree(2, "full")
        with pytest.raises(ValueError, match="nonempty"):
            boundary_sets(tree, set())
        with pytest.raises(ValueError, match="connected"):
            boundary_sets(tree, {4, 6})  # leaves in different branches
        with pytest.raises(ValueError, match="outside"):
            boundary_sets(tree, {0, 99})


class TestConnectedSubsets:
    def test_depth_zero(self):
        assert list(connected_subsets(build_tree(0, "full"), 10)) == [frozenset({0})]

    @pytest.mark.parametrize("depth,mode", [(1, "full"), (2, "full"), (2, "half")])
    def test_matches_brute_force(self, depth, mode):
        tree = build_tree(depth, mode)
        got = list(connected_subsets(tree, 10**6))
        assert len(got) == len(set(got)), "duplicates yielded"
        assert set(got) == brute_force_connected_subsets(tree)

    def test_depth_one_count(self):
        # 4 singletons plus the 7 root-containing sets of size >= 2: any
        # connected set of size >= 2 must contain the root.
        assert len(list(connected_subsets(build_tree(1, "full"), 100))) == 11

    def test_cap_exceeded(self):
        tree = build_tree(2, "full")
        with pytest.raises(ValueError, match="cap"):
            list(connected_subsets(tree, 10))

    def test_deterministic_order(self):
        tree = build_tree(2, "half")
        assert list(connected_subsets(tree, 10**4)) == list(connected_subsets(tree, 10**4))

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="cap"):
            next(connected_subsets(build_tree(4, "half"), 10**6))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_order_is_product_order_by_top(self, depth, mode):
        tree = build_tree(depth, mode)
        expected = [k for top in range(tree.n_vertices)
                    for k in product_order_subtrees(tree, top)]
        assert list(connected_subsets(tree, 10**6)) == expected


class TestBoundaryCensus:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_matches_frozenset_loop(self, depth, mode):
        tree = build_tree(depth, mode)
        count = 0
        violators = []
        for k in connected_subsets(tree, 10**6):
            count += 1
            dk, d2k = boundary_sets(tree, k)
            if len(d2k) > len(dk):
                violators.append(k)
        witness = violators[0] if violators else None
        assert boundary_census(tree) == (count, len(violators), witness)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("depth", [0, 1, 2, 3])
    def test_matches_int_triple_reference(self, depth, mode):
        tree = build_tree(depth, mode)
        assert boundary_census(tree) == reference_boundary_census(tree)

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="cap"):
            boundary_census(build_tree(4, "half"))
