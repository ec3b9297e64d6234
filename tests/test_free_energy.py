import importlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbtree import exact_oracle
from cbtree.field_recursion import (
    _lse4,
    _lse4_array,
    _pair_log_weights,
    child_to_parent,
    propagate_inward,
    ti_fixed_points,
)
from cbtree.free_energy import (
    _level_log_factor,
    asymptotic_field_slope,
    effective_field,
    free_energy,
    free_energy_betas,
    level_log_factor,
    ln2cosh,
    log_cosh_cross,
    log_cosh_even,
    log_partition_recursive,
    pair_log_weights,
    zero_temperature_limit,
)
from cbtree.model import ModelParams
from cbtree.topology import build_tree

TWO_FIVE = ModelParams.from_thetas(5.0, 2.0)
FREE = ModelParams(J=0.0, J1=0.0, beta=1.0)

bounded = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)


def pair_weight_sums_oracle(params, hy, hz):
    """Direct four-term sums over the child spins, conditioned on the parent."""
    out = []
    for s_parent in (1, -1):
        total = 0.0
        for sy, sz in itertools.product((1, -1), repeat=2):
            total += math.exp(
                params.beta * params.J1 * s_parent * (sy + sz)
                + params.beta * params.J * sy * sz
                + hy * sy
                + hz * sz
            )
        out.append(total)
    return out


# The kernels as they were written before each ln(2 cosh) term was computed
# once and the conversion layers went: every input is cast to a float64
# array, a 0-d result is cast back to float, and the level factor evaluates
# ln(2 cosh) ten times.  The rewritten kernels must equal them bit for bit.


def reference_ln2cosh(x):
    ax = np.abs(np.asarray(x, dtype=np.float64))
    out = ax + np.log1p(np.exp(-2.0 * ax))
    if out.ndim == 0:
        return float(out)
    return out


def reference_log_cosh_even(shift, x):
    return 0.25 * (reference_ln2cosh(np.asarray(x) - shift)
                   + reference_ln2cosh(np.asarray(x) + shift))


def reference_log_cosh_cross(shift, x, y):
    return 0.5 * (reference_ln2cosh(np.asarray(x) - shift)
                  + reference_ln2cosh(np.asarray(y) + shift))


def reference_effective_field_core(bj, x):
    return 0.5 * (reference_ln2cosh(x + bj) - reference_ln2cosh(x - bj))


def reference_effective_field(x, params):
    out = reference_effective_field_core(params.beta * params.J, np.asarray(x, dtype=np.float64))
    if np.ndim(out) == 0:
        return float(out)
    return out


def reference_level_log_factor(bj, bj1, hy, hz):
    return (
        reference_log_cosh_even(bj, bj1 + hz)
        + reference_log_cosh_even(bj, -bj1 + hz)
        + reference_log_cosh_cross(bj1, hy + reference_effective_field_core(bj, -bj1 + hz),
                                   hy + reference_effective_field_core(bj, bj1 + hz))
    )


# The child-pair kernel as it was written before each term was computed once:
# all eight four-term sums written out, and the array log-sum-exp reduced over
# a stacked copy of the broadcast terms.  The rewritten forms must equal them
# bit for bit.


def reference_lse4_array(*terms):
    return np.logaddexp.reduce(np.stack(np.broadcast_arrays(*terms)), axis=0)


def reference_pair_log_weights(a1, aj, hy, hz, lse):
    w_up = lse(a1 + aj + hy + hz, -aj - hy + hz, -aj + hy - hz, -a1 + aj - hy - hz)
    w_down = lse(-a1 + aj + hy + hz, -aj - hy + hz, -aj + hy - hz, a1 + aj - hy - hz)
    return w_up, w_down


# The package re-exports the function free_energy under the module's name.
free_energy_module = importlib.import_module("cbtree.free_energy")

wide = st.floats(min_value=-1e4, max_value=1e4, allow_nan=False)


def kernel_draws(seed: int, shape) -> np.ndarray:
    """Floats over several scales, signs mixed, with some exact zeros."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-20.0, 20.0, shape) * 10.0 ** rng.integers(-3, 3, shape)
    return np.where(rng.random(shape) < 0.02, 0.0, x)


class TestKernelForms:
    @settings(max_examples=300, deadline=None)
    @given(wide, wide, wide, wide)
    def test_floats_match_reference(self, bj, bj1, hy, hz):
        params = ModelParams(J=bj, J1=bj1, beta=1.0)
        assert ln2cosh(hy) == reference_ln2cosh(hy)
        assert log_cosh_even(bj, hy) == reference_log_cosh_even(bj, hy)
        assert log_cosh_cross(bj1, hy, hz) == reference_log_cosh_cross(bj1, hy, hz)
        assert effective_field(hy, params) == reference_effective_field(hy, params)
        assert level_log_factor(params, hy, hz) == reference_level_log_factor(bj, bj1, hy, hz)
        assert _level_log_factor(bj, bj1, hy, hz) == reference_level_log_factor(bj, bj1, hy, hz)

    def test_float_input_gives_numpy_float(self):
        for value in (ln2cosh(0.3), log_cosh_even(0.1, 0.3), log_cosh_cross(0.1, 0.3, -0.2),
                      effective_field(0.3, TWO_FIVE), level_log_factor(TWO_FIVE, 0.3, -0.2)):
            assert type(value) is np.float64

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_arrays_match_reference(self, seed):
        bj, bj1, hy, hz = kernel_draws(seed, (4, 1000))
        params = ModelParams(J=float(bj[0]), J1=float(bj1[0]), beta=1.0)
        assert np.array_equal(ln2cosh(hy), reference_ln2cosh(hy))
        assert np.array_equal(log_cosh_even(bj, hy), reference_log_cosh_even(bj, hy))
        assert np.array_equal(log_cosh_cross(bj1, hy, hz), reference_log_cosh_cross(bj1, hy, hz))
        assert np.array_equal(effective_field(hy, params), reference_effective_field(hy, params))
        assert np.array_equal(level_log_factor(params, hy, hz),
                              reference_level_log_factor(bj[0], bj1[0], hy, hz))
        assert np.array_equal(_level_log_factor(bj, bj1, hy, hz),
                              reference_level_log_factor(bj, bj1, hy, hz))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_broadcast_matches_reference(self, seed):
        # A theta1 column against a theta row, as the grid face lays them out.
        bj1 = kernel_draws(seed, (50, 1))
        bj = kernel_draws(seed + 1, (40,))
        hy, hz = kernel_draws(seed + 2, (2, 50, 40))
        got = _level_log_factor(bj, bj1, hy, hz)
        assert got.shape == (50, 40)
        assert np.array_equal(got, reference_level_log_factor(bj, bj1, hy, hz))

    def test_level_factor_evaluates_ln2cosh_six_times(self, monkeypatch):
        calls = []

        def counting(x):
            calls.append(1)
            return ln2cosh(x)

        monkeypatch.setattr(free_energy_module, "ln2cosh", counting)
        _level_log_factor(0.4, -0.7, 1.1, 0.3)
        assert len(calls) == 6


class TestPairKernelForms:
    @settings(max_examples=300, deadline=None)
    @given(wide, wide, wide, wide)
    def test_math_branch_matches_reference(self, bj, bj1, hy, hz):
        params = ModelParams(J=bj, J1=bj1, beta=1.0)
        a1, aj = 2.0 * bj1, bj
        expected = reference_pair_log_weights(a1, aj, hy, hz, _lse4)
        assert pair_log_weights(params, hy, hz) == expected
        assert all(type(w) is float for w in expected)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_arrays_match_reference(self, seed):
        a1, aj, hy, hz = kernel_draws(seed, (4, 1000))
        got = _pair_log_weights(a1, aj, hy, hz, _lse4_array)
        expected = reference_pair_log_weights(a1, aj, hy, hz, reference_lse4_array)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))
        params = ModelParams(J=float(aj[0]), J1=0.5 * float(a1[0]), beta=1.0)
        expected = reference_pair_log_weights(2.0 * params.J1, params.J, hy, hz,
                                              reference_lse4_array)
        got = pair_log_weights(params, hy, hz)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_grid_broadcast_matches_reference(self, seed):
        # _solve_constant's layout: a theta1 column of 2*beta*J1, a theta row
        # of beta*J, and the three candidate fields stacked over the block.
        a1 = kernel_draws(seed, (50, 1))
        aj = kernel_draws(seed + 1, (40,))
        h = kernel_draws(seed + 2, (3, 50, 40))
        got = _pair_log_weights(a1, aj, h, h, _lse4_array)
        expected = reference_pair_log_weights(a1, aj, h, h, reference_lse4_array)
        assert got[0].shape == got[1].shape == (3, 50, 40)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected, strict=True))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_lse4_matches_stacked_reduce(self, seed):
        a, b, c, d = kernel_draws(seed, (4, 200)) * 50.0
        shaped = (a[:, None], b[:40], c[0], d[:40].reshape(1, 40))  # broadcast to (200, 40)
        for terms in ((a, b, c, d), shaped, (-np.inf, a, np.inf, b)):
            assert np.array_equal(_lse4_array(*terms), reference_lse4_array(*terms))

    def test_lse4_long_input(self):
        terms = kernel_draws(5, (4, 10**6))
        assert np.array_equal(_lse4_array(*terms), reference_lse4_array(*terms))


class TestLn2Cosh:
    def test_zero(self):
        assert ln2cosh(0.0) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_large_argument(self):
        assert ln2cosh(1000.0) == pytest.approx(1000.0, rel=1e-15)
        assert ln2cosh(-1000.0) == pytest.approx(1000.0, rel=1e-15)

    def test_small_argument(self):
        assert ln2cosh(1.0) == pytest.approx(math.log(2.0 * math.cosh(1.0)), rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=-700.0, max_value=700.0, allow_nan=False))
    def test_matches_direct_formula_in_safe_range(self, x):
        if abs(x) < 350:
            assert ln2cosh(x) == pytest.approx(math.log(2.0 * math.cosh(x)), rel=1e-13)
        assert ln2cosh(x) >= abs(x)


class TestEvenKernel:
    @settings(max_examples=200, deadline=None)
    @given(bounded, bounded)
    def test_even_in_both_arguments(self, b, x):
        assert log_cosh_even(b, x) == pytest.approx(log_cosh_even(b, -x), abs=1e-12)
        assert log_cosh_even(b, x) == pytest.approx(log_cosh_even(-b, x), abs=1e-12)

    def test_collapse_at_zero_shift(self):
        for x in (0.0, 0.3, -2.0):
            assert log_cosh_even(0.0, x) == pytest.approx(0.5 * ln2cosh(x), rel=1e-14)

    def test_value_at_zero(self):
        for b in (0.0, 1.7):
            assert log_cosh_even(b, 0.0) == pytest.approx(0.5 * ln2cosh(b), rel=1e-14)


class TestCrossKernel:
    @settings(max_examples=200, deadline=None)
    @given(bounded, bounded, bounded)
    def test_swap_negate_symmetry(self, b, x, y):
        assert log_cosh_cross(b, -x, -y) == pytest.approx(log_cosh_cross(b, y, x), abs=1e-12)

    def test_zero_shift(self):
        assert log_cosh_cross(0.0, 0.4, -1.1) == pytest.approx(
            0.5 * math.log(4.0 * math.cosh(0.4) * math.cosh(1.1)), rel=1e-14
        )

    def test_diagonal_at_shift(self):
        b = 0.9
        assert log_cosh_cross(b, b, b) == pytest.approx(
            0.5 * (math.log(2.0) + ln2cosh(2.0 * b)), rel=1e-14
        )


class TestEffectiveField:
    def test_zero(self):
        assert effective_field(0.0, TWO_FIVE) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(bounded)
    def test_odd(self, x):
        assert effective_field(-x, TWO_FIVE) == pytest.approx(
            -effective_field(x, TWO_FIVE), abs=1e-12
        )

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-15, 15), st.floats(-5, 5))
    def test_matches_atanh_form(self, x, bj):
        # The naive atanh(tanh*tanh) reference loses precision when both
        # arguments are large (its argument saturates toward 1), so one of
        # them is kept moderate for a 1e-12 comparison; the large-large
        # corner is covered below at the tolerance the reference supports.
        params = ModelParams(J=bj, J1=0.5, beta=1.0)
        expected = math.atanh(math.tanh(bj) * math.tanh(x))
        assert effective_field(x, params) == pytest.approx(expected, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(5, 15), st.floats(5, 15))
    def test_matches_atanh_form_large_arguments(self, x, bj):
        params = ModelParams(J=bj, J1=0.5, beta=1.0)
        expected = math.atanh(math.tanh(bj) * math.tanh(x))
        # conditioning of the reference: ~eps / (1 - tanh(x)tanh(bj))
        tol = max(1e-12, 4e-16 / (4.0 * math.exp(-2.0 * min(x, bj))))
        assert effective_field(x, params) == pytest.approx(expected, abs=tol)

    @settings(max_examples=200, deadline=None)
    @given(bounded, bounded)
    def test_bounded_by_inputs(self, x, bj):
        params = ModelParams(J=bj, J1=0.5, beta=1.0)
        assert abs(effective_field(x, params)) <= min(abs(x), abs(bj)) + 1e-12


class TestPairLogWeights:
    def test_free_case(self):
        w_up, w_dn = pair_log_weights(FREE, 0.0, 0.0)
        assert w_up == pytest.approx(math.log(4.0), rel=1e-14)
        assert w_dn == pytest.approx(math.log(4.0), rel=1e-14)

    def test_against_direct_sums(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            bj, bj1, hy, hz = rng.uniform(-4, 4, 4)
            params = ModelParams(J=bj, J1=bj1, beta=1.0)
            w_up, w_dn = pair_log_weights(params, hy, hz)
            ref_up, ref_dn = pair_weight_sums_oracle(params, hy, hz)
            assert w_up == pytest.approx(math.log(ref_up), abs=1e-12)
            assert w_dn == pytest.approx(math.log(ref_dn), abs=1e-12)

    def test_half_difference_is_parent_field(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            bj, bj1, hy, hz = rng.uniform(-10, 10, 4)
            params = ModelParams(J=bj, J1=bj1, beta=1.0)
            ref_up, ref_dn = pair_weight_sums_oracle(params, hy, hz)
            assert 0.5 * math.log(ref_up / ref_dn) == pytest.approx(
                child_to_parent(params, hy, hz), abs=1e-12
            )


class TestLevelLogFactor:
    def test_free_case(self):
        assert level_log_factor(FREE, 0.0, 0.0) == pytest.approx(2.0 * math.log(2.0), rel=1e-14)

    def test_sign_flip_invariance(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            bj, bj1, h = rng.uniform(-10, 10, 3)
            params = ModelParams(J=bj, J1=bj1, beta=1.0)
            assert level_log_factor(params, -h, -h) == pytest.approx(
                level_log_factor(params, h, h), abs=1e-10
            )

    def test_central_identity(self):
        # Kernel route vs the half-sum of the conditional pair weights.
        rng = np.random.default_rng(12345)
        worst = 0.0
        for _ in range(1000):
            bj, bj1, hy, hz = rng.uniform(-10, 10, 4)
            params = ModelParams(J=bj, J1=bj1, beta=1.0)
            rate = level_log_factor(params, hy, hz)
            w_up, w_dn = pair_log_weights(params, hy, hz)
            worst = max(worst, abs(math.exp(rate - 0.5 * (w_up + w_dn)) - 1.0))
        assert worst < 1e-10

    def test_symmetric_in_children(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            bj, bj1, hy, hz = rng.uniform(-6, 6, 4)
            params = ModelParams(J=bj, J1=bj1, beta=1.0)
            assert level_log_factor(params, hy, hz) == pytest.approx(
                level_log_factor(params, hz, hy), abs=1e-10
            )


class TestLogPartitionRecursive:
    @pytest.mark.parametrize("mode,depth", [("full", 3), ("half", 3)])
    def test_free_spins(self, mode, depth):
        tree = build_tree(depth, mode)
        fields = propagate_inward(tree, FREE, 0.0)
        got = log_partition_recursive(FREE, fields)
        assert got == pytest.approx(tree.n_vertices * math.log(2.0), rel=1e-13)

    def test_constant_field_telescoping(self):
        tree = build_tree(3, "full")
        fps = ti_fixed_points(TWO_FIVE)
        fields = propagate_inward(tree, TWO_FIVE, fps.h3)
        rate = level_log_factor(TWO_FIVE, fps.h3, fps.h3)
        ln_z1 = log_partition_recursive(TWO_FIVE, fields, depth=1)
        for n in (2, 3):
            got = log_partition_recursive(TWO_FIVE, fields, depth=n)
            assert got - ln_z1 == pytest.approx(3.0 * (2 ** (n - 1) - 1) * rate, rel=1e-13)

    @pytest.mark.parametrize("mode,depth", [("full", 2), ("half", 2), ("half", 3)])
    def test_matches_enumeration(self, mode, depth):
        tree = build_tree(depth, mode)
        rng = np.random.default_rng(55)
        fields = propagate_inward(tree, TWO_FIVE, rng.uniform(-0.8, 0.8, tree.level_size(depth)))
        ln_oracle = exact_oracle.log_partition(tree, TWO_FIVE, fields)
        ln_rec = log_partition_recursive(TWO_FIVE, fields)
        assert ln_rec == pytest.approx(ln_oracle, rel=1e-12)

    def test_matches_enumeration_on_upper_branch(self):
        params = ModelParams(J=0.3, J1=0.7, beta=1.0)
        fps = ti_fixed_points(params)
        assert fps.regime == "three"
        tree = build_tree(2, "full")
        fields = propagate_inward(tree, params, fps.h3)
        ln_oracle = exact_oracle.log_partition(tree, params, fields)
        ln_rec = log_partition_recursive(params, fields)
        assert abs(ln_rec - ln_oracle) / abs(ln_oracle) < 1e-10

    def test_depth_validation(self):
        tree = build_tree(2, "full")
        fields = propagate_inward(tree, TWO_FIVE, 0.0)
        with pytest.raises(ValueError):
            log_partition_recursive(TWO_FIVE, fields, depth=0)
        with pytest.raises(ValueError):
            log_partition_recursive(TWO_FIVE, fields, depth=3)


class TestFreeEnergy:
    def test_free_spins_value(self):
        params = ModelParams(J=0.0, J1=0.0, beta=2.0)
        rep = free_energy(params, "u2")
        assert rep.f_const_field == pytest.approx(-math.log(2.0) / 2.0, rel=1e-12)

    def test_branch_symmetry(self):
        r3 = free_energy(TWO_FIVE, "u3")
        r1 = free_energy(TWO_FIVE, "u1")
        assert abs(r3.f_const_field - r1.f_const_field) < 1e-10

    def test_extrapolation_matches_constant_field_closed_form(self):
        rep = free_energy(TWO_FIVE, "u3")
        assert rep.f_extrapolated == pytest.approx(rep.f_const_field, abs=1e-10)

    def test_low_temperature_value(self):
        params = ModelParams(J=1.0, J1=1.0, beta=50.0)
        rep = free_energy(params, "u3")
        assert abs(rep.f_const_field - (-2.5)) < 0.05

    def test_geometric_tail(self):
        rep = free_energy(TWO_FIVE, "u3", n_max=25)
        f = rep.f_n
        limit = rep.f_const_field
        c = abs(f[0] - limit) * 2.0
        for n, fn in enumerate(f, start=1):
            assert abs(fn - limit) <= c * 2.0**-n + 1e-15

    def test_per_level_sizes(self):
        # Level m (m = 1 .. 5) has 3 * 2**(m-1) parents, each adding level_rate.
        rep = free_energy(TWO_FIVE, "u3", n_max=6)
        counts = np.array([3, 6, 12, 24, 48])
        np.testing.assert_allclose(np.diff(rep.ln_z), counts * rep.level_rate, rtol=1e-13)

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            free_energy(TWO_FIVE, "u9")

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 3)),
                    min_size=1, max_size=6),
           st.sampled_from(["u1", "u3"]))
    def test_betas_with_per_point_couplings(self, points, branch):
        params = [ModelParams(J=j, J1=j1, beta=b) for j, j1, b in points]
        reports = [free_energy(p, branch) for p in params]
        J, J1, beta = np.array(points).T
        u = [ti_fixed_points(p).branch(branch) for p in params]
        got = free_energy_betas(J, J1, beta, u).tolist()
        assert got == [r.f_const_field for r in reports]

    @settings(max_examples=60, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.1, 3), st.sampled_from(["u1", "u3"]))
    def test_record_is_enumerated_ln_z(self, J, J1, beta, branch):
        # ln_z[n-1] is ln Z of the depth-n full tree under h_star, which the
        # oracle sums over all 2**N configurations: a second route.
        params = ModelParams(J=J, J1=J1, beta=beta)
        rep = free_energy(params, branch, n_max=3)
        for n, ln_z in enumerate(rep.ln_z, start=1):
            oracle = exact_oracle.log_partition(build_tree(n, "full"), params, rep.h_star)
            assert ln_z == pytest.approx(oracle, rel=1e-13)

    def test_n_max_within_float_range(self):
        # At beta = 1, ln Z_n overflows from n = 1022 and 3*2**n from n = 1023.
        params = ModelParams(J=1.0, J1=1.0, beta=1.0)
        rep = free_energy(params, "u3", n_max=1021)
        assert all(map(math.isfinite, rep.ln_z + rep.f_n))
        for n_max in (1022, 1023, 1024, 1025, 10**12):
            with pytest.raises(ValueError, match=f"n_max={n_max} "):
                free_energy(params, "u3", n_max=n_max)

    @pytest.mark.parametrize("beta,n_max", [(5e-309, 30), (1e-310, 30), (1e-310, 3),
                                            (5e-324, 2)])
    def test_beta_beyond_float_range(self, beta, n_max):
        # 2*f_n - f_{n-1} overflows at 5e-309, f_1 itself below about 2.6e-309.
        params = ModelParams(J=1.0, J1=1.0, beta=beta)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^beta={beta!r} carries"):
                free_energy(params, "u3", n_max=n_max)

    def test_small_beta_within_float_range(self):
        rep = free_energy(ModelParams(J=1.0, J1=1.0, beta=1e-300), "u3")
        assert all(map(math.isfinite, rep.f_n + (rep.f_extrapolated, rep.f_const_field)))

    def test_betas_raise_for_the_first_refused_point(self):
        # F = -rate/(2*beta) at beta = 1e300 fits a float, although
        # 3*beta*2**30 does not; at 1e-320 and 5e-321 it does not, and the
        # first of them is raised as free_energy raises it.
        J, J1 = 1e-300, 1e-300
        u = {b: ti_fixed_points(ModelParams(J=J, J1=J1, beta=b)).u3
             for b in (1.0, 1e300, 1e-320, 5e-321)}
        for betas in ([1.0, 1e300, 1e-320, 5e-321], [1.0, 1e-320, 1e300, 5e-321]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=r"^beta=1e-320 "):
                    free_energy_betas(J, J1, betas, [u[b] for b in betas])
        with pytest.raises(ValueError, match=r"^beta=1e-320 "):
            free_energy(ModelParams(J=J, J1=J1, beta=1e-320), "u3")
        rep = free_energy(ModelParams(J=J, J1=J1, beta=1e300), "u3")
        assert free_energy_betas(J, J1, [1e300], [u[1e300]]).tolist() == [rep.f_const_field]
        assert rep.f_const_field == pytest.approx(-2.486e-300, rel=1e-3)


class TestAsymptoticFieldSlope:
    def test_examples(self):
        assert asymptotic_field_slope(-0.5, 1.0) == 2.0
        assert asymptotic_field_slope(0.0, 0.0) == 0.0
        assert asymptotic_field_slope(1.0, 1.0) == 2.0

    @pytest.mark.parametrize("beta", [10.0, 20.0])
    def test_field_growth_cross_check(self, beta):
        params = ModelParams(J=1.0, J1=1.0, beta=beta)
        fps = ti_fixed_points(params)
        assert fps.h3 / beta == pytest.approx(asymptotic_field_slope(1.0, 1.0), abs=1e-3)


class TestZeroTemperatureLimit:
    def test_equal_couplings(self):
        res = zero_temperature_limit(1.0, 1.0)
        assert abs(res.limit - (-2.5)) < 0.05
        assert res.stable
        assert res.method == "numeric_limit"
        assert res.slope == 2.0

    def test_pure_edge_coupling(self):
        res = zero_temperature_limit(0.0, 1.0)
        assert abs(res.limit - (-2.0)) < 0.05

    def test_scaling(self):
        base = zero_temperature_limit(0.4, 0.9)
        doubled = zero_temperature_limit(0.8, 1.8)
        assert doubled.limit == pytest.approx(2.0 * base.limit, abs=0.02)

    def test_closed_forms_attached_on_request(self):
        res = zero_temperature_limit(1.0, 1.0)
        assert res.closed_form_corrected == pytest.approx(-2.5, abs=1e-12)
        assert res.closed_form_verbatim == pytest.approx(-2.0, abs=1e-12)
        assert abs(res.closed_form_corrected - res.limit) < 0.05

    def test_corrected_form_tracks_numeric_limit(self):
        rng = np.random.default_rng(77)
        for _ in range(5):
            j1 = rng.uniform(0.5, 1.5)
            j = rng.uniform(-0.9 * j1, 1.5)
            res = zero_temperature_limit(j, j1, beta_samples=(20.0, 50.0))
            assert res.closed_form_corrected == pytest.approx(res.limit, abs=0.05)

    def test_regime_validation(self):
        with pytest.raises(ValueError):
            zero_temperature_limit(1.0, -1.0)
        with pytest.raises(ValueError):
            zero_temperature_limit(-2.0, 1.0)
        with pytest.raises(ValueError, match="regime"):
            zero_temperature_limit(1.0, 0.01, beta_samples=(5.0, 10.0))
