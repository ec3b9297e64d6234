import math
import sys
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbtree import exact_oracle
from cbtree.exact_oracle import (
    MINUS_BIN,
    PLUS_BIN,
    check_consistency,
    count_table,
    enumerated_count_table,
    first_config,
    log_partition,
    log_weights,
    marginal_prob,
    measure_prob,
    plus_minus_masses,
)
from cbtree.field_recursion import FieldAssignment, _lse, propagate_inward, ti_fixed_points
from cbtree.model import (
    ModelParams,
    SpinConfig,
    spin_bits,
    stat_maxima,
    sufficient_stats,
    sufficient_stats_batch,
)
from cbtree.topology import build_tree

FREE = ModelParams(J=0.0, J1=0.0, beta=1.0)
TWO_FIVE = ModelParams.from_thetas(5.0, 2.0)  # three-solution regime


class TestBoundaryField:
    """The boundary-field argument ``h`` of the oracle functions."""

    def test_validation(self):
        tree = build_tree(1, "full")
        with pytest.raises(ValueError, match="one value per boundary vertex"):
            log_partition(tree, FREE, (0.0, 0.0))
        with pytest.raises(ValueError, match="finite"):
            log_partition(tree, FREE, (0.0, math.inf, 0.0))
        with pytest.raises(ValueError, match="finite"):
            log_partition(tree, FREE, math.nan)
        other = propagate_inward(build_tree(1, "half"), FREE, 0.0)
        with pytest.raises(ValueError, match="different tree"):
            log_partition(tree, FREE, other)

    def test_from_assignment_restricts_to_boundary(self):
        tree = build_tree(2, "full")
        fields = propagate_inward(tree, TWO_FIVE, np.linspace(-0.3, 0.3, 6))
        boundary = list(fields.boundary_values())
        assert log_partition(tree, TWO_FIVE, fields) == log_partition(tree, TWO_FIVE, boundary)


class TestLogPartition:
    def test_free_spins_zero_field(self):
        tree = build_tree(1, "full")
        assert log_partition(tree, FREE, 0.0) == pytest.approx(math.log(16.0), rel=1e-14)

    def test_free_spins_constant_field(self):
        tree = build_tree(1, "full")
        c = 0.7
        expected = math.log(2.0) + 3.0 * math.log(2.0 * math.cosh(c))
        assert log_partition(tree, FREE, c) == pytest.approx(expected, rel=1e-14)

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="cap"):
            log_partition(build_tree(4, "full"), FREE, 0.0)

    def test_half_tree_free_spins(self):
        tree = build_tree(3, "half")
        assert log_partition(tree, FREE, 0.0) == pytest.approx(
            tree.n_vertices * math.log(2.0), rel=1e-14
        )


class TestMeasureProb:
    def test_uniform_when_free(self):
        tree = build_tree(1, "full")
        for bits in range(16):
            p = measure_prob(tree, FREE, 0.0, SpinConfig(tree, bits))
            assert p == pytest.approx(1.0 / 16.0, rel=1e-12)

    def test_normalization(self):
        tree = build_tree(2, "full")
        params = ModelParams(J=0.4, J1=-0.3, beta=1.3)
        rng = np.random.default_rng(11)
        h = rng.uniform(-1, 1, 6)
        ln_z = log_partition(tree, params, h)
        w = log_weights(tree, params, h, np.arange(1 << 10))
        total = np.exp(w - ln_z).sum()
        assert abs(total - 1.0) < 1e-12

    def test_flip_covariance(self):
        tree = build_tree(2, "full")
        params = ModelParams(J=0.6, J1=0.9, beta=0.8)
        rng = np.random.default_rng(23)
        h = rng.uniform(-1, 1, 6)
        for bits in rng.integers(0, 1 << 10, 8):
            cfg = SpinConfig(tree, int(bits))
            p1 = measure_prob(tree, params, h, cfg)
            p2 = measure_prob(tree, params, -h, cfg.flipped())
            assert p1 == pytest.approx(p2, rel=1e-13)

    def test_flip_covariance_exact_on_weights(self):
        # Term-by-term: the weight of a configuration under h equals the
        # weight of its flip under -h, bit for bit.
        tree = build_tree(2, "full")
        params = ModelParams(J=0.6, J1=0.9, beta=0.8)
        rng = np.random.default_rng(29)
        h = rng.uniform(-1, 1, 6)
        cfgs = np.arange(1 << 10)
        w = log_weights(tree, params, h, cfgs)
        w_flip = log_weights(tree, params, -h, cfgs[::-1].copy())
        assert np.array_equal(w, w_flip[()])


class TestMarginalProb:
    def test_sums_to_one(self):
        tree = build_tree(2, "full")
        sub = build_tree(1, "full")
        params = ModelParams(J=0.3, J1=0.5, beta=1.0)
        h = np.linspace(-0.4, 0.4, 6)
        total = sum(
            marginal_prob(tree, params, h, SpinConfig(sub, bits)) for bits in range(16)
        )
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_free_case_uniform(self):
        tree = build_tree(2, "full")
        sub = build_tree(1, "full")
        for bits in range(16):
            p = marginal_prob(tree, FREE, 0.0, SpinConfig(sub, bits))
            assert p == pytest.approx(2.0**-4, rel=1e-12)

    def test_matches_depth1_measure_for_propagated_fields(self):
        tree = build_tree(2, "full")
        sub = build_tree(1, "full")
        rng = np.random.default_rng(4)
        fields = propagate_inward(tree, TWO_FIVE, rng.uniform(-0.5, 0.5, 6))
        inner = fields.level_values(1)
        for bits in range(16):
            part = SpinConfig(sub, bits)
            p_marg = marginal_prob(tree, TWO_FIVE, fields, part)
            p_sub = measure_prob(sub, TWO_FIVE, inner, part)
            assert p_marg == pytest.approx(p_sub, abs=1e-13)

    def test_rejects_wrong_subtree(self):
        tree = build_tree(2, "full")
        with pytest.raises(ValueError):
            marginal_prob(tree, FREE, 0.0, SpinConfig(build_tree(2, "half"), 0))


class TestConsistency:
    def test_propagated_fields_consistent(self):
        tree = build_tree(2, "full")
        rng = np.random.default_rng(17)
        fields = propagate_inward(tree, TWO_FIVE, rng.uniform(-1.0, 1.0, 6))
        assert check_consistency(TWO_FIVE, fields) < 1e-12

    def test_perturbed_fields_inconsistent(self):
        tree = build_tree(2, "full")
        rng = np.random.default_rng(17)
        fields = propagate_inward(tree, TWO_FIVE, rng.uniform(-1.0, 1.0, 6))
        h = np.array(fields.h)
        h[list(tree.vertices_at(1))] += 0.1
        perturbed = FieldAssignment(tree, tuple(h), fields.root_rule)
        assert check_consistency(TWO_FIVE, perturbed) > 1e-4

    def test_product_measure_consistent(self):
        tree = build_tree(2, "full")
        fields = propagate_inward(tree, FREE, 0.0)
        assert check_consistency(FREE, fields) < 1e-15

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_half_tree_all_steps(self, depth):
        tree = build_tree(depth, "half")
        rng = np.random.default_rng(depth)
        fields = propagate_inward(tree, TWO_FIVE, rng.uniform(-1.0, 1.0, 2**depth))
        assert check_consistency(TWO_FIVE, fields) < 1e-12

    def test_full_tree_root_step_rejected(self):
        tree = build_tree(1, "full")
        fields = propagate_inward(tree, TWO_FIVE, 0.3)
        with pytest.raises(ValueError, match="depth >= 2"):
            check_consistency(TWO_FIVE, fields)

    def test_full_tree_root_step_empirically_inconsistent(self):
        # The two-child rule at the degree-3 root does not make the depth-1
        # measure marginalize onto the root; measured here, not assumed.
        tree = build_tree(1, "full")
        fps = ti_fixed_points(TWO_FIVE)
        fields = propagate_inward(tree, TWO_FIVE, fps.h3)
        root_field = fields.h[0]
        sub = build_tree(0, "full")
        dev = 0.0
        for bits in range(2):
            part = SpinConfig(sub, bits)
            p_marg = marginal_prob(tree, TWO_FIVE, fields, part)
            p_root = measure_prob(sub, TWO_FIVE, [root_field], part)
            dev = max(dev, abs(p_marg - p_root))
        assert math.isfinite(dev)
        assert dev > 1e-6  # observed: the root step genuinely fails


class TestPlusMinusMass:
    """The masses of one point, from ``reference_masses``."""

    def test_low_temperature_dominance(self):
        tree = build_tree(2, "full")
        params = ModelParams(J=1.0, J1=1.0, beta=10.0)
        fps = ti_fixed_points(params)
        mass_plus, _ = reference_masses(tree, params, fps.h3)
        assert mass_plus >= 0.99

    def test_mirror_branch(self):
        tree = build_tree(2, "full")
        params = ModelParams(J=1.0, J1=1.0, beta=10.0)
        fps = ti_fixed_points(params)
        plus_under_h3, _ = reference_masses(tree, params, fps.h3)
        _, minus_under_h1 = reference_masses(tree, params, fps.h1)
        assert minus_under_h1 == pytest.approx(plus_under_h3, rel=1e-10)
        assert minus_under_h1 >= 0.99

    def test_high_temperature_near_uniform(self):
        tree = build_tree(2, "full")
        params = ModelParams(J=0.1, J1=0.1, beta=0.1)
        mass_plus, mass_minus = reference_masses(tree, params, 0.0)
        n = tree.n_vertices
        assert mass_plus == pytest.approx(2.0**-n, rel=0.25)
        assert mass_minus == pytest.approx(2.0**-n, rel=0.25)


def reference_masses(tree, params, h):
    """Constant-field (plus, minus) masses of one point from the int64 bins,
    with ln(count) taken per call: the per-point form the beta axis replaced."""
    table = count_table(tree)
    w = params.beta * params.J * table.a + params.beta * params.J1 * table.b + h * table.c
    ln_z = _lse(w + np.log(table.count))
    return float(np.exp(w[PLUS_BIN] - ln_z)), float(np.exp(w[MINUS_BIN] - ln_z))


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


class TestPlusMinusMasses:
    """``plus_minus_masses`` over a beta axis against the per-point masses."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        depth=st.integers(0, 3),
        J=st.floats(-5.0, 5.0),
        J1=st.floats(-5.0, 5.0),
        points=st.lists(st.tuples(st.floats(1e-3, 60.0), st.floats(-30.0, 30.0)),
                        min_size=1, max_size=12),
    )
    def test_axis_is_the_per_point_masses(self, depth, J, J1, points):
        tree = build_tree(depth, "full")
        betas, h = zip(*points)
        plus, minus = plus_minus_masses(tree, J, J1, betas, h)
        for beta, h_b, p, m in zip(betas, h, plus.tolist(), minus.tolist()):
            params = ModelParams(J=J, J1=J1, beta=beta)
            assert (p, m) == reference_masses(tree, params, h_b)

    @pytest.mark.parametrize("J,J1,beta,h", [
        (1e300, -1e300, 1.0, 0.0), (-0.0, 0.0, 5e-324, -0.0), (1e-300, 2.0, 1e300, 1e-300),
        (2.0, -3.0, 40.0, 700.0), (8e307, 1.0, 1.0, 0.0), (1.0, -8e307, 1.0, -1.0)])
    def test_edge_points(self, J, J1, beta, h):
        tree = build_tree(3, "full")
        params = ModelParams(J=J, J1=J1, beta=beta)
        with np.errstate(all="ignore"):  # beta*J*A overflows on the last two points
            got = plus_minus_masses(tree, J, J1, [beta], [h])
            assert bits(got) == bits(np.transpose([reference_masses(tree, params, h)]))

    def test_axis_longer_than_one_block(self, monkeypatch):
        tree = build_tree(3, "full")
        per_block = exact_oracle._BLOCK // count_table(tree).count.size
        n = 2 * per_block + 5
        rng = np.random.default_rng(7)
        betas, h = rng.uniform(0.01, 50.0, n), rng.uniform(-20.0, 20.0, n)
        blocks = []
        lse_rows = exact_oracle._lse_rows

        def spy(w):
            blocks.append(w.size)
            return lse_rows(w)

        monkeypatch.setattr(exact_oracle, "_lse_rows", spy)
        plus, minus = plus_minus_masses(tree, 0.7, 1.1, betas, h)
        assert len(blocks) == 3 and max(blocks) <= exact_oracle._BLOCK
        for k in range(n):
            params = ModelParams(J=0.7, J1=1.1, beta=float(betas[k]))
            assert (plus[k], minus[k]) == reference_masses(tree, params, float(h[k]))

    def test_rejects_unequal_axes(self):
        with pytest.raises(ValueError, match="one length"):
            plus_minus_masses(build_tree(1, "full"), 1.0, 1.0, [1.0, 2.0], [0.0])

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(depth=st.integers(0, 3), J=st.floats(-5.0, 5.0), J1=st.floats(-5.0, 5.0),
           beta=st.floats(1e-3, 60.0), h=st.floats(-30.0, 30.0))
    def test_table_log_partition_is_the_one_row_case(self, depth, J, J1, beta, h):
        table = count_table(build_tree(depth, "full"))
        w = table.log_weights(beta * J, beta * J1, h) + table.ln_count
        assert bits(table.log_partition(ModelParams(J=J, J1=J1, beta=beta), h)) == bits(_lse(w))

    def test_rows_with_a_non_finite_maximum(self):
        rows = [[0.0, -1.0, 2.5], [math.inf, 0.0, 1.0], [math.nan, 0.0, 1.0],
                [-math.inf, -math.inf, -math.inf], [1e308, 1e308, -math.inf],
                [-800.0, 0.0, -745.5], [-0.0, -0.0, -0.0]]
        got = exact_oracle._lse_rows(np.array(rows))
        assert bits(got) == bits([_lse(r) for r in rows])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.integers(1, 40).flatmap(lambda n: st.lists(
        st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.floats(-800.0, 0.0),
                 min_size=n, max_size=n), min_size=1, max_size=6)))
    def test_rows_are_lse_per_row(self, rows):
        with np.errstate(over="ignore"):  # the shift by the maximum overflows on wide rows
            got = exact_oracle._lse_rows(np.array(rows))
            assert bits(got) == bits([_lse(r) for r in rows])


TABLE_TREES = [(d, "full") for d in range(4)] + [(d, "half") for d in range(5)]
# Half depth 4 (2**31 configurations) has no enumerated table: one
# enumeration pass takes minutes.
ENUMERATED_TREES = TABLE_TREES[:-1]
SMALL_TREES = [(d, "full") for d in range(3)] + [(d, "half") for d in range(4)]


class TestCountTable:
    @pytest.mark.parametrize("depth,mode", TABLE_TREES)
    def test_exact_counts(self, depth, mode):
        tree = build_tree(depth, mode)
        table = count_table(tree)
        assert table.count.dtype == np.int64
        assert int(table.count.sum()) == 2**tree.n_vertices
        bins = dict(zip(zip(table.a.tolist(), table.b.tolist(), table.c.tolist()),
                        table.count.tolist()))
        assert len(bins) == table.count.size
        for (a, b, c), n in bins.items():
            assert bins.get((a, b, -c)) == n  # spin-flip symmetry
        a, b, _ = sufficient_stats(tree, SpinConfig.all_plus(tree))
        nb = tree.level_size(depth)
        assert table.count[PLUS_BIN] == table.count[MINUS_BIN] == 1
        assert (table.a[PLUS_BIN], table.b[PLUS_BIN], table.c[PLUS_BIN]) == (a, b, nb)
        assert (table.a[MINUS_BIN], table.b[MINUS_BIN], table.c[MINUS_BIN]) == (a, b, -nb)

    @pytest.mark.parametrize("depth,mode", ENUMERATED_TREES)
    def test_dp_matches_enumeration(self, depth, mode):
        tree = build_tree(depth, mode)
        dp, enumerated = count_table(tree), enumerated_count_table(tree)
        for field in ("a", "b", "c", "count"):
            got, want = getattr(dp, field), getattr(enumerated, field)
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want), field

    def test_half_depth4_dp_build_under_one_second(self):
        tree = build_tree(4, "half")
        exact_oracle._build_count_table.cache_clear()
        t0 = time.perf_counter()
        count_table(tree)
        assert time.perf_counter() - t0 < 1.0

    @pytest.mark.parametrize("depth,mode", SMALL_TREES)
    def test_matches_per_configuration_histogram(self, depth, mode):
        tree = build_tree(depth, mode)
        cfgs = np.arange(1 << tree.n_vertices)
        a, b, _ = sufficient_stats_batch(tree, cfgs)
        bits = spin_bits(tree, cfgs)
        c = sum(2 * bits[x].astype(np.int64) - 1 for x in tree.boundary)
        expected = Counter(zip(a.tolist(), b.tolist(), c.tolist()))
        table = count_table(tree)
        got = dict(zip(zip(table.a.tolist(), table.b.tolist(), table.c.tolist()),
                       table.count.tolist()))
        assert got == dict(expected)

    def test_read_only(self):
        table = count_table(build_tree(1, "full"))
        with pytest.raises(ValueError):
            table.count[0] = 0

    @settings(max_examples=150, deadline=None)
    @given(
        tree_key=st.sampled_from(SMALL_TREES),
        bj=st.floats(-20.0, 20.0),
        bj1=st.floats(-20.0, 20.0),
        h=st.floats(-5.0, 5.0),
    )
    def test_log_partition_matches_per_configuration_route(self, tree_key, bj, bj1, h):
        tree = build_tree(*tree_key)
        params = ModelParams(J=bj, J1=bj1, beta=1.0)
        per_config = exact_oracle._log_partition_enumerated(
            tree, params, np.full(tree.level_size(tree.depth), h))
        assert abs(log_partition(tree, params, h) - per_config) <= 1e-13 * abs(per_config)
        (mass_plus,), (mass_minus,) = plus_minus_masses(tree, bj, bj1, [1.0], [h])
        assert 0.0 <= mass_plus <= 1.0 and 0.0 <= mass_minus <= 1.0

    def test_depth3_log_partition_matches_per_configuration_route(self):
        tree = build_tree(3, "full")
        params = ModelParams(J=0.6, J1=1.0, beta=2.0)
        h = ti_fixed_points(params).h3
        per_config = exact_oracle._log_partition_enumerated(
            tree, params, np.full(tree.level_size(3), h))
        assert abs(log_partition(tree, params, h) - per_config) <= 1e-13 * abs(per_config)

    @staticmethod
    def first_callers_build_once(table_of, build):
        tree = build_tree(2, "full")
        build.cache_clear()
        results = []
        saved = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda: results.append(table_of(tree)))
                       for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(saved)
        assert not any(t.is_alive() for t in threads)
        assert len(results) == 8 and all(r is results[0] for r in results)
        assert build.cache_info().misses == 1

    def test_concurrent_first_callers_build_once(self):
        self.first_callers_build_once(count_table, exact_oracle._build_count_table)

    def test_enumerated_concurrent_first_callers_build_once(self):
        self.first_callers_build_once(enumerated_count_table,
                                      exact_oracle._enumerate_count_table)


class TestFirstConfig:
    """``first_config`` against a flat scan of the statistics of every id."""

    @staticmethod
    def flat_first(tree, predicates):
        # The predicate over all ids at once, evaluated in 2**20-id slices
        # to bound memory; the first hit of each predicate or None.
        total = 1 << tree.n_vertices
        hits = [[] for _ in predicates]
        for lo in range(0, total, 1 << 20):
            stats = sufficient_stats_batch(
                tree, np.arange(lo, min(lo + (1 << 20), total), dtype=np.int64))
            for found, pred in zip(hits, predicates):
                found.append(pred(*stats))
        firsts = [np.flatnonzero(np.concatenate(found)) for found in hits]
        return [int(f[0]) if f.size else None for f in firsts]

    # Depths 0 and 1 (2 and 16 ids) are smaller than the first 2**10 block.
    @pytest.mark.parametrize("depth,witness", [(0, None), (1, 2), (2, 18), (3, 1042)])
    def test_matches_flat_scan(self, depth, witness):
        tree = build_tree(depth, "full")
        a_max, b_max, _ = stat_maxima(tree)
        n = tree.n_vertices
        predicates = [
            lambda a, b, c: b - a > b_max - a_max,   # the lemma-check witness
            lambda a, b, c: np.zeros(a.shape, dtype=bool),   # matches nothing
            lambda a, b, c: c == n,   # only the all-plus id, in the last block
            lambda a, b, c: c == -n,   # only id 0, the first of the first block
            # One plus spin on one edge: 2**(first boundary id), which at
            # depth 3 opens the second block.
            lambda a, b, c: (c == 2 - n) & (b == b_max - 2),
        ]
        single_leaf = 1 << tree.boundary[0] if depth else None
        expected = [witness, None, (1 << n) - 1, 0, single_leaf]
        assert self.flat_first(tree, predicates) == expected
        assert [first_config(tree, pred) for pred in predicates] == expected

    def test_depth_cap(self):
        with pytest.raises(ValueError, match="capped"):
            first_config(build_tree(4, "full"), lambda a, b, c: a == a)
