import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbtree import field_recursion
from cbtree.field_recursion import (
    REGIMES,
    FieldAssignment,
    child_to_parent,
    critical_curve,
    phase_predicate,
    propagate_inward,
    ti_fixed_points,
    ti_fixed_points_betas,
    ti_fixed_points_grid,
    ti_map,
)
from cbtree.model import ModelParams
from cbtree.topology import build_tree

TWO_FIVE = ModelParams.from_thetas(5.0, 2.0)

moderate = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False)


def cubic_roots_oracle(theta: float, theta1: float) -> list[float]:
    """Independent root finder for the constant-field polynomial."""
    coeffs = [theta, 2 * theta1 - theta1**2 * theta, theta1**2 * theta - 2 * theta1, -theta]
    roots = np.roots(coeffs)
    real = [float(r.real) for r in roots if abs(r.imag) < 1e-9 and r.real > 0]
    return sorted(real)


class TestChildToParent:
    def test_zero_fields_map_to_zero(self):
        for params in (TWO_FIVE, ModelParams(J=-1.2, J1=0.7, beta=3.0)):
            assert child_to_parent(params, 0.0, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_fixed_point_residual(self):
        fps = ti_fixed_points(TWO_FIVE)
        h3 = fps.h3
        assert child_to_parent(TWO_FIVE, h3, h3) == pytest.approx(h3, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(moderate, moderate)
    def test_antisymmetry(self, hy, hz):
        got = child_to_parent(TWO_FIVE, hy, hz)
        assert child_to_parent(TWO_FIVE, -hy, -hz) == pytest.approx(-got, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(moderate, moderate, st.floats(-4, 4), st.floats(-4, 4))
    def test_matches_theta_form(self, hy, hz, bj, bj1):
        params = ModelParams(J=bj, J1=bj1, beta=1.0)
        th, th1 = params.theta_exp, params.theta1_exp
        uy, uz = math.exp(2 * hy), math.exp(2 * hz)
        num = th1 * th1 * th * uy * uz + th1 * (uy + uz) + th
        den = th * uy * uz + th1 * (uy + uz) + th1 * th1 * th
        expected = 0.5 * math.log(num / den)
        assert child_to_parent(params, hy, hz) == pytest.approx(expected, abs=1e-12)

    def test_symmetric_in_children(self):
        assert child_to_parent(TWO_FIVE, 0.3, -0.9) == pytest.approx(
            child_to_parent(TWO_FIVE, -0.9, 0.3), abs=1e-14
        )

    def test_overflow_safe(self):
        params = ModelParams(J=1.0, J1=1.0, beta=500.0)
        out = child_to_parent(params, 900.0, 900.0)
        assert math.isfinite(out)

    def test_broadcasts(self):
        hy = np.array([0.0, 0.5, -0.5])
        out = child_to_parent(TWO_FIVE, hy, hy)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(0.0, abs=1e-15)
        assert out[1] == pytest.approx(child_to_parent(TWO_FIVE, 0.5, 0.5))


class TestPropagateInward:
    def test_fixed_point_boundary_stays_constant(self):
        tree = build_tree(3, "full")
        fps = ti_fixed_points(TWO_FIVE)
        fields = propagate_inward(tree, TWO_FIVE, fps.h3)
        assert np.allclose(fields.h, fps.h3, atol=1e-12)

    def test_zero_boundary_stays_zero(self):
        tree = build_tree(3, "half")
        fields = propagate_inward(tree, TWO_FIVE, 0.0)
        assert np.allclose(fields.h, 0.0, atol=1e-14)

    def test_interval_containment(self):
        tree = build_tree(3, "full")
        fps = ti_fixed_points(TWO_FIVE)
        rng = np.random.default_rng(31)
        boundary = rng.uniform(fps.h1, fps.h3, tree.level_size(3))
        fields = propagate_inward(tree, TWO_FIVE, boundary)
        assert np.all(fields.h >= fps.h1 - 1e-12)
        assert np.all(fields.h <= fps.h3 + 1e-12)

    def test_interior_satisfies_recursion(self):
        tree = build_tree(2, "full")
        rng = np.random.default_rng(13)
        fields = propagate_inward(tree, TWO_FIVE, rng.uniform(-1, 1, 6))
        h = fields.h
        for x in tree.vertices_at(1):
            y, z = tree.children[x]
            assert h[x] == pytest.approx(child_to_parent(TWO_FIVE, h[y], h[z]), abs=1e-14)

    def test_root_rule_metadata(self):
        assert propagate_inward(build_tree(2, "full"), TWO_FIVE, 0.1).root_rule == "first_child_pair"
        assert propagate_inward(build_tree(2, "half"), TWO_FIVE, 0.1).root_rule is None

    def test_rejects_bad_boundary(self):
        tree = build_tree(2, "full")
        with pytest.raises(ValueError):
            propagate_inward(tree, TWO_FIVE, [0.1, 0.2])
        with pytest.raises(ValueError):
            propagate_inward(tree, TWO_FIVE, [math.nan] * 6)


class TestFieldAssignment:
    def test_u_accessor(self):
        # h is stored once, as a read-only float64 copy; u = exp(2h).
        tree = build_tree(1, "full")
        given = [0.0, 0.5, -0.5, 1.0]
        fields = FieldAssignment(tree, given)
        assert fields.h.dtype == np.float64 and not fields.h.flags.writeable
        assert np.allclose(np.exp(2.0 * fields.h), np.exp([0.0, 1.0, -1.0, 2.0]))
        given[0] = 9.0
        assert fields.h[0] == 0.0
        with pytest.raises(ValueError):
            fields.h[0] = 1.0

    def test_validation(self):
        tree = build_tree(1, "full")
        with pytest.raises(ValueError):
            FieldAssignment(tree, (0.0, 0.0))
        with pytest.raises(ValueError):
            FieldAssignment(tree, (0.0, math.inf, 0.0, 0.0))


class TestTIFixedPoints:
    def test_two_five_against_root_oracle(self):
        fps = ti_fixed_points(TWO_FIVE)
        assert fps.regime == "three"
        oracle = cubic_roots_oracle(5.0, 2.0)
        assert len(oracle) == 3
        for got, want in zip((fps.u1, fps.u2, fps.u3), oracle):
            assert got == pytest.approx(want, abs=1e-10)
        # quadratic closed form at this point: (11 -+ sqrt(21)) / 10
        assert fps.u1 == pytest.approx((11 - math.sqrt(21)) / 10, abs=1e-12)
        assert fps.u3 == pytest.approx((11 + math.sqrt(21)) / 10, abs=1e-12)

    def test_root_product(self):
        fps = ti_fixed_points(TWO_FIVE)
        assert abs(fps.u1 * fps.u3 - 1.0) < 1e-12

    def test_residuals(self):
        fps = ti_fixed_points(TWO_FIVE)
        for u in (fps.u1, fps.u2, fps.u3):
            assert abs(ti_map(TWO_FIVE, u) - u) < 1e-10

    def test_nan_residual_fails_the_solve(self, monkeypatch):
        # NaN compares False against the tolerance, so the guard must reject
        # it rather than accept it.
        monkeypatch.setattr(field_recursion, "ti_map", lambda params, u: math.nan)
        with pytest.raises(ArithmeticError, match="residual check"):
            ti_fixed_points(TWO_FIVE)

    def test_degenerate_on_curve(self):
        fps = ti_fixed_points(ModelParams.from_thetas(4.0, 2.0))
        assert fps.regime == "degenerate"
        assert fps.u1 == fps.u2 == fps.u3 == 1.0

    @pytest.mark.parametrize("theta", [0.2, 1.0, 10.0, 100.0])
    def test_unique_below_sqrt3(self, theta):
        fps = ti_fixed_points(ModelParams.from_thetas(theta, 1.5))
        assert fps.regime == "unique"
        assert fps.u1 == fps.u2 == fps.u3 == 1.0

    def test_branch_accessor(self):
        fps = ti_fixed_points(TWO_FIVE)
        assert fps.branch("u3") == fps.u3
        with pytest.raises(ValueError):
            fps.branch("u4")

    def test_large_beta_stable(self):
        params = ModelParams(J=1.0, J1=1.0, beta=50.0)
        fps = ti_fixed_points(params)
        assert fps.regime == "three"
        assert math.isfinite(fps.h3)
        assert abs(fps.u1 * fps.u3 - 1.0) < 1e-12

    def test_overflowing_root_sum_is_rejected(self):
        # theta1**2 and theta1/theta both overflow, so the root sum is
        # inf - inf; the point lies in the three-solution regime and must
        # not be tagged "unique".
        params = ModelParams(J=-5.987614609324681, J1=9.855434901080743,
                             beta=23.05895366359976)
        assert math.isfinite(params.theta1_exp) and params.theta_exp > 0.0
        with pytest.raises(OverflowError):
            ti_fixed_points(params)
        with pytest.raises(OverflowError):
            phase_predicate(params)

    def test_infinite_root_sum_is_rejected(self):
        # theta1**2 overflows while theta1/theta does not: the root sum is
        # +inf, three solutions exist, and u3 = t would be infinite.
        params = ModelParams(J=1.0, J1=300.0, beta=1.0)
        assert math.isfinite(params.theta1_exp)
        assert math.isinf(params.theta1_exp * params.theta1_exp)
        with pytest.raises(OverflowError, match="u3 is infinite"):
            ti_fixed_points(params)
        assert phase_predicate(params) is True


def scalar_cells(theta1_grid, theta_grid):
    """(regime, u1, u3) per cell from the scalar face, row-major, or the
    first error it raises in that order."""
    cells = []
    try:
        for t1 in theta1_grid:
            for t in theta_grid:
                fps = ti_fixed_points(ModelParams.from_thetas(float(t), float(t1)))
                cells.append((fps.regime, fps.u1, fps.u3))
    except (ValueError, ArithmeticError) as exc:
        return None, exc
    return cells, None


def grid_cells(theta1_grid, theta_grid):
    regime, u1, u3 = ti_fixed_points_grid(theta1_grid, theta_grid)
    assert regime.shape == u1.shape == u3.shape == (len(theta1_grid), len(theta_grid))
    tags = [REGIMES[i] for i in regime.ravel().tolist()]
    return list(zip(tags, u1.ravel().tolist(), u3.ravel().tolist()))


def assert_grid_matches_scalar(theta1_grid, theta_grid):
    expected, exc = scalar_cells(theta1_grid, theta_grid)
    if exc is None:
        # ``==`` on positive finite floats: bit for bit.
        assert grid_cells(theta1_grid, theta_grid) == expected
        return
    with pytest.raises(type(exc)) as info:
        ti_fixed_points_grid(theta1_grid, theta_grid)
    assert type(info.value) is type(exc) and str(info.value) == str(exc)


POLE = math.sqrt(3.0)


@st.composite
def straddling_axes(draw):
    """A theta1 axis and a theta axis around the critical curve, the sqrt(3)
    pole and the degeneracy band, with some out-of-range values mixed in."""
    odd = st.sampled_from([0.0, -0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324,
                           1e-300, 1e150, 1e200, 1.7976931348623157e308])
    near_pole = st.floats(-1e-8, 1e-8).map(lambda e: POLE * (1.0 + e))
    theta1 = draw(st.lists(st.one_of(st.floats(0.5, 6.0), near_pole,
                                     st.floats(1e100, 1e300), odd), min_size=1, max_size=5))
    # theta on the curve of a drawn theta1, nudged across the degeneracy band.
    on_curve = st.tuples(st.sampled_from(theta1),
                         st.sampled_from([0.0, 1e-16, -1e-16, 1e-14, -1e-14, 1e-12,
                                          -1e-12, 1e-9, -1e-9])).map(
        lambda p: 2.0 * p[0] / (p[0] * p[0] - 3.0) * (1.0 + p[1]))
    theta = draw(st.lists(st.one_of(st.floats(0.05, 12.0), on_curve,
                                    st.floats(1e-320, 1e-250), odd), min_size=1, max_size=5))
    return theta1, theta


class TestTIFixedPointsGrid:
    @pytest.mark.parametrize("theta1_spec, theta_spec", [
        ((1.2, 4.0, 6), (0.5, 8.0, 5)),    # golden phase_diagram_out
        ((2.0, 3.0, 2), (1.0, 6.0, 3)),    # golden phase_diagram_stdout
        ((1.5, 2.5, 3), (2.0, 6.0, 3)),    # golden phase_diagram_json
        ((1.2, 4.7, 200), (0.3, 9.5, 200)),  # a recursion_grid-sized diagram
    ])
    def test_bit_identical_to_scalar_face(self, theta1_spec, theta_spec):
        theta1_grid, theta_grid = np.linspace(*theta1_spec), np.linspace(*theta_spec)
        expected, exc = scalar_cells(theta1_grid, theta_grid)
        assert exc is None
        assert grid_cells(theta1_grid, theta_grid) == expected

    @settings(max_examples=200, deadline=None)
    @given(straddling_axes())
    def test_matches_scalar_face_and_its_errors(self, axes):
        assert_grid_matches_scalar(*axes)

    def test_curve_band_and_pole(self):
        theta1 = [POLE * (1.0 - 1e-12), POLE, POLE * (1.0 + 1e-12), 2.0, 2.5]
        theta = [4.0 * (1.0 + e) for e in (-1e-9, -1e-13, 0.0, 1e-13, 1e-9)]
        assert {c[0] for c in grid_cells(theta1, theta)} == set(REGIMES)
        assert_grid_matches_scalar(theta1, theta)

    def test_blocks_and_lists(self):
        # More cells than one block, on a one-column grid, given as lists.
        theta1 = np.linspace(1.0, 4.0, 20000).tolist()
        regime, u1, u3 = ti_fixed_points_grid(theta1, [4.0])
        for k in (0, 9999, 16384, 19999):
            fps = ti_fixed_points(ModelParams.from_thetas(4.0, theta1[k]))
            assert (REGIMES[regime[k, 0]], u1[k, 0], u3[k, 0]) == (fps.regime, fps.u1, fps.u3)

    def test_injected_residual_failure_fails_the_solve(self, monkeypatch):
        core = field_recursion._pair_log_weights

        def perturbed(a1, aj, hy, hz, lse):
            w_up, w_down = core(a1, aj, hy, hz, lse)
            return w_up + 1e-6, w_down

        monkeypatch.setattr(field_recursion, "_pair_log_weights", perturbed)
        with pytest.raises(ArithmeticError, match="residual check"):
            ti_fixed_points_grid([2.0, 3.0], [1.0, 5.0])

    def test_array_only_residual_failure_is_resolved_by_scalar_face(self, monkeypatch):
        core = field_recursion._pair_log_weights
        calls = []

        def array_perturbed(a1, aj, hy, hz, lse):
            w_up, w_down = core(a1, aj, hy, hz, lse)
            if lse is field_recursion._lse4_array:
                return w_up + 1e-6, w_down
            calls.append(1)
            return w_up, w_down

        theta1, theta = [1.5, 2.0, 3.0], [1.0, 4.0, 5.0]
        expected, _ = scalar_cells(theta1, theta)
        monkeypatch.setattr(field_recursion, "_pair_log_weights", array_perturbed)
        assert grid_cells(theta1, theta) == expected
        assert len(calls) == 3 * 9  # every cell re-solved, three residuals each


class TestPhasePredicate:
    def test_examples(self):
        assert phase_predicate(TWO_FIVE) is True
        assert phase_predicate(ModelParams.from_thetas(10.0, math.sqrt(3.0))) is False
        assert phase_predicate(ModelParams.from_thetas(3.9, 2.0)) is False

    def test_agrees_with_root_count(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            theta1 = rng.uniform(1.2, 4.0)
            theta = rng.uniform(0.5, 8.0)
            if theta1 > math.sqrt(3.0):
                if abs(theta - 2 * theta1 / (theta1**2 - 3)) < 1e-6:
                    continue
            params = ModelParams.from_thetas(theta, theta1)
            assert phase_predicate(params) == (ti_fixed_points(params).regime == "three")

    @pytest.mark.parametrize("offset", [1e-12, 1e-9])
    def test_agrees_with_regime_tag_near_curve(self, offset):
        # Points a relative offset off the critical curve on either side,
        # inside and outside the degeneracy band.
        rng = np.random.default_rng(0)
        disagree = 0
        for theta1 in rng.uniform(1.8, 4.0, 5000):
            theta_c = 2.0 * theta1 / (theta1 * theta1 - 3.0)
            for side in (1.0, -1.0):
                params = ModelParams.from_thetas(theta_c * (1.0 + side * offset), theta1)
                tagged = ti_fixed_points(params).regime == "three"
                disagree += phase_predicate(params) != tagged
        assert disagree == 0


class TestCriticalCurve:
    def test_point_value(self):
        rows = critical_curve([2.0])
        t1, tc, j1b, jb = rows[0]
        assert (t1, tc) == (2.0, 4.0)
        assert j1b == pytest.approx(0.5 * math.log(2.0))
        assert jb == pytest.approx(0.5 * math.log(4.0))

    def test_monotone_decreasing_tail(self):
        grid = np.linspace(2.0, 50.0, 40)
        tcs = [row[1] for row in critical_curve(grid)]
        assert all(a > b for a, b in zip(tcs, tcs[1:]))
        assert tcs[-1] < 0.05

    def test_pole_guard(self):
        with pytest.raises(ValueError, match="pole"):
            critical_curve([math.sqrt(3.0) + 1e-15])


class TestIntervalCheck:
    def test_corners_are_fixed_points(self):
        fps = ti_fixed_points(TWO_FIVE)
        assert ti_map(TWO_FIVE, fps.u1) == pytest.approx(fps.u1, abs=1e-12)
        assert ti_map(TWO_FIVE, fps.u3) == pytest.approx(fps.u3, abs=1e-12)
        assert ti_map(TWO_FIVE, 1.0) == pytest.approx(1.0, abs=1e-14)



class TestTIFixedPointsBetas:
    @settings(max_examples=200, deadline=None)
    @given(st.floats(-400.0, 400.0), st.floats(-400.0, 400.0),
           st.lists(st.one_of(st.floats(1e-3, 60.0), st.floats(60.0, 1e4),
                              st.sampled_from([0.0, -1.0, math.nan, math.inf, 5e-324])),
                    min_size=1, max_size=6))
    def test_matches_scalar_face_and_its_errors(self, J, J1, betas):
        expected = []
        try:
            for b in betas:
                fps = ti_fixed_points(ModelParams(J=J, J1=J1, beta=b))
                expected.append((fps.regime, fps.u1, fps.u3))
        except (ValueError, ArithmeticError) as exc:
            with pytest.raises(type(exc)) as info:
                ti_fixed_points_betas(J, J1, betas)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
            return
        regime, u1, u3 = ti_fixed_points_betas(J, J1, betas)
        got = list(zip([REGIMES[i] for i in regime.tolist()], u1.tolist(), u3.tolist()))
        assert got == expected  # positive finite floats: bit for bit

    def test_first_error_in_grid_order(self):
        # beta = 67 overflows theta1**2; math.exp(2*beta*J1) overflows only at 100.
        with pytest.raises(OverflowError, match="u3 is infinite"):
            ti_fixed_points_betas(1.0, 5.0, [1.0, 34.0, 67.0, 100.0])
        with pytest.raises(OverflowError, match="math range error"):
            ti_fixed_points_betas(1.0, 5.0, [1.0, 100.0, 67.0])
