import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbtree.field_recursion import ti_fixed_points
from cbtree.ground_states import (
    exhaustive_lemma_check,
    ground_state_scan,
    root_magnetization,
)
from cbtree.model import ModelParams, SpinConfig, sufficient_stats, sufficient_stats_batch
from cbtree.topology import boundary_sets, build_tree, connected_subsets
from test_exact_oracle import reference_masses

TWO_FIVE = ModelParams.from_thetas(5.0, 2.0)


class TestRootMagnetization:
    def test_symmetric_point(self):
        assert root_magnetization(1.0) == 0.5

    def test_two_five_value(self):
        # u3 = (11 + sqrt(21))/10 here, so the probability is u3/(u3 + 1).
        fps = ti_fixed_points(TWO_FIVE)
        got = root_magnetization(fps.u3)
        u3 = (11.0 + math.sqrt(21.0)) / 10.0
        assert got == pytest.approx(u3 / (u3 + 1.0), rel=1e-13)
        assert got == pytest.approx(0.6091089, abs=1e-7)

    def test_branches_sum_to_one(self):
        fps = ti_fixed_points(TWO_FIVE)
        assert root_magnetization(fps.u1) + root_magnetization(fps.u3) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            root_magnetization(0.0)


class TestGroundStateScan:
    def test_equal_couplings(self):
        rows = ground_state_scan(1.0, 1.0, [1.0, 2.0, 5.0, 10.0], depth=2)
        masses = [r.mass_plus for r in rows]
        assert all(m is not None for m in masses)
        assert all(b >= a - 1e-9 for a, b in zip(masses, masses[1:]))
        assert masses[-1] >= 0.99

    def test_negative_sibling_coupling(self):
        rows = ground_state_scan(-0.5, 1.0, [1.0, 2.0, 5.0, 10.0], depth=2)
        masses = [r.mass_plus for r in rows]
        assert all(b >= a - 1e-9 for a, b in zip(masses, masses[1:]))
        assert masses[-1] >= 0.99

    def test_mirror_symmetry(self):
        rows = ground_state_scan(1.0, 1.0, [2.0, 5.0], depth=2)
        for r in rows:
            assert r.mass_minus == pytest.approx(r.mass_plus, rel=1e-10)

    def test_out_of_regime_rows_have_no_masses(self):
        # At beta = 0.1 the edge-coupling weight stays below sqrt(3).
        rows = ground_state_scan(1.0, 1.0, [0.1, 10.0], depth=2)
        assert rows[0].regime == "unique"
        assert rows[0].mass_plus is None and rows[0].mass_minus is None
        assert rows[0].u1 == rows[0].u3 == 1.0
        assert rows[0].root_prob == 0.5
        assert rows[1].mass_plus is not None

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            ground_state_scan(1.0, 1.0, [1.0], depth=4)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(depth=st.integers(0, 3), J=st.floats(-2.0, 2.0), J1=st.floats(-2.0, 2.0),
           betas=st.lists(st.floats(0.01, 60.0), min_size=1, max_size=8))
    def test_masses_are_the_per_beta_masses(self, depth, J, J1, betas):
        # One pass over the axis gives each beta its own per-point masses,
        # the upper branch's and the lower branch's.
        betas = sorted(betas)
        tree = build_tree(depth, "full")
        try:
            rows = ground_state_scan(J, J1, betas, depth=depth)
        except RuntimeError:  # a non-monotone tail is refused; nothing to compare
            return
        for beta, row in zip(betas, rows):
            params = ModelParams(J=J, J1=J1, beta=beta)
            fps = ti_fixed_points(params)
            assert (row.beta, row.regime, row.u1, row.u3) == (beta, fps.regime, fps.u1, fps.u3)
            if fps.regime != "three":
                assert row.mass_plus is row.mass_minus is None
                continue
            assert row.mass_plus == reference_masses(tree, params, fps.h3)[0]
            assert row.mass_minus == reference_masses(tree, params, fps.h1)[1]


class TestExhaustiveLemmaCheck:
    """The swept bounds are genuinely violated on the full tree.

    Flipping one whole root branch breaks a single edge but two sibling
    pairs, so the edge-minus-sibling gap exceeds its all-plus value by
    exactly 2; the checker must report that honestly.  On the half tree
    every parent has two children and both bounds hold everywhere.
    """

    def test_depth2_reports_violations_with_witness(self):
        res = exhaustive_lemma_check(2)
        assert not res.clean
        assert res.config_count == 1024
        assert res.config_violations == 162
        assert res.max_stat_gap == res.stat_gap_bound + 2 == 5
        # the witness must actually violate the bound
        tree = build_tree(2, "full")
        a, b, _ = sufficient_stats(tree, SpinConfig(tree, res.config_witness))
        assert b - a > res.stat_gap_bound
        assert res.subset_count == 143
        assert res.subset_violations == 9
        dk, d2k = boundary_sets(tree, res.subset_witness)
        assert len(d2k) > len(dk)

    def test_depth1_violations(self):
        res = exhaustive_lemma_check(1)
        assert res.config_violations == 6
        assert res.max_stat_gap == res.stat_gap_bound + 2 == 2
        assert res.subset_violations == 3

    def test_all_plus_attains_bound(self):
        res = exhaustive_lemma_check(2)
        tree = build_tree(2, "full")
        a, b, _ = sufficient_stats(tree, SpinConfig.all_plus(tree))
        assert b - a == res.stat_gap_bound

    def test_violating_subsets_are_root_branch_fragments(self):
        # Every depth-2 witness is a level-1 vertex with at least one child.
        tree = build_tree(2, "full")
        for k in connected_subsets(tree, 10**4):
            dk, d2k = boundary_sets(tree, k)
            if len(d2k) > len(dk):
                level1 = [v for v in k if tree.level[v] == 1]
                assert len(level1) == 1
                assert any(tree.parent[v] == level1[0] for v in k if v != level1[0])

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_half_tree_bounds_hold_everywhere(self, depth):
        tree = build_tree(depth, "half")
        a, b, _ = sufficient_stats_batch(tree, np.arange(1 << tree.n_vertices))
        ap, bp, _ = sufficient_stats(tree, SpinConfig.all_plus(tree))
        assert int((b - a).max()) == bp - ap
        for k in connected_subsets(tree, 10**6):
            dk, d2k = boundary_sets(tree, k)
            assert len(d2k) <= len(dk)

    def test_depth_cap(self):
        with pytest.raises(ValueError):
            exhaustive_lemma_check(4)
