import math

import numpy as np
import pytest

from cbtree.model import (
    ModelParams,
    SpinConfig,
    hamiltonian,
    stat_maxima,
    sufficient_stats,
    sufficient_stats_batch,
)
from cbtree.topology import build_tree


class TestModelParams:
    def test_rejects_nonpositive_beta(self):
        with pytest.raises(ValueError):
            ModelParams(J=1.0, J1=1.0, beta=0.0)
        with pytest.raises(ValueError):
            ModelParams(J=1.0, J1=1.0, beta=-2.0)

    @pytest.mark.parametrize("message,kwargs", [
        ("2*beta*J overflows a float", dict(J=1e308, J1=1.0, beta=10.0)),
        ("2*beta*J1 overflows a float", dict(J=1.0, J1=-1e308, beta=10.0)),
        ("2*beta*J overflows a float", dict(J=1e300, J1=1e300, beta=1e300)),
        ("couplings must be finite", dict(J=1.0, J1=math.nan, beta=1.0)),
        ("couplings must be finite", dict(J=-math.inf, J1=1.0, beta=1.0)),
    ])
    def test_rejects_non_finite_couplings(self, message, kwargs):
        with pytest.raises(ValueError) as exc:
            ModelParams(**kwargs)
        assert str(exc.value) == message

    def test_overflowing_exponent_is_named(self):
        p = ModelParams(J=1.0, J1=400.0, beta=1.0)
        assert math.isfinite(p.theta_exp)
        with pytest.raises(OverflowError) as exc:
            p.theta1_exp
        assert str(exc.value) == "exp(2*beta*J1) overflows a float"
        with pytest.raises(OverflowError) as exc:
            ModelParams(J=1e300, J1=1.0, beta=1.0).theta_exp
        assert str(exc.value) == "exp(2*beta*J) overflows a float"

    def test_derived_quantities(self):
        p = ModelParams(J=0.3, J1=-0.2, beta=2.0)
        assert p.theta_exp == pytest.approx(math.exp(1.2))
        assert p.theta1_exp == pytest.approx(math.exp(-0.8))

    def test_from_thetas_roundtrip(self):
        p = ModelParams.from_thetas(5.0, 2.0)
        assert p.beta == 1.0
        assert p.theta_exp == pytest.approx(5.0)
        assert p.theta1_exp == pytest.approx(2.0)

    def test_from_thetas_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ModelParams.from_thetas(-1.0, 2.0)


class TestSpinConfig:
    def test_roundtrip(self):
        tree = build_tree(1, "full")
        cfg = SpinConfig.from_spins(tree, [1, -1, 1, -1])
        assert cfg.spins() == (1, -1, 1, -1)
        assert cfg.flipped().spins() == (-1, 1, -1, 1)

    def test_extremes(self):
        tree = build_tree(1, "full")
        assert SpinConfig.all_plus(tree).spins() == (1, 1, 1, 1)
        assert SpinConfig.all_minus(tree).spins() == (-1, -1, -1, -1)

    def test_validation(self):
        tree = build_tree(1, "full")
        with pytest.raises(ValueError):
            SpinConfig(tree, 1 << 4)
        with pytest.raises(ValueError):
            SpinConfig.from_spins(tree, [1, 2, 1, 1])


class TestSufficientStats:
    def test_all_plus_depth2(self):
        tree = build_tree(2, "full")
        assert sufficient_stats(tree, SpinConfig.all_plus(tree)) == (6, 9, 10)

    def test_all_minus_depth2(self):
        tree = build_tree(2, "full")
        assert sufficient_stats(tree, SpinConfig.all_minus(tree)) == (6, 9, -10)

    def test_root_plus_rest_minus_depth1(self):
        tree = build_tree(1, "full")
        cfg = SpinConfig.from_spins(tree, [1, -1, -1, -1])
        assert sufficient_stats(tree, cfg) == (3, -3, -2)

    def test_global_flip_negates_c_only(self):
        tree = build_tree(2, "full")
        for bits in range(0, 1024, 7):
            cfg = SpinConfig(tree, bits)
            a, b, c = sufficient_stats(tree, cfg)
            fa, fb, fc = sufficient_stats(tree, cfg.flipped())
            assert (fa, fb, fc) == (a, b, -c)

    def test_batch_matches_scalar_exhaustively(self):
        tree = build_tree(2, "full")
        cfgs = np.arange(1 << tree.n_vertices)
        a, b, c = sufficient_stats_batch(tree, cfgs)
        for bits in range(1 << tree.n_vertices):
            sa, sb, sc = sufficient_stats(tree, SpinConfig(tree, bits))
            assert (a[bits], b[bits], c[bits]) == (sa, sb, sc)


class TestHamiltonian:
    def test_all_plus_depth1(self):
        tree = build_tree(1, "full")
        p = ModelParams(J=1.0, J1=1.0, beta=1.0)
        assert hamiltonian(tree, p, SpinConfig.all_plus(tree)) == -6.0

    def test_root_up_children_down(self):
        tree = build_tree(1, "full")
        p = ModelParams(J=1.0, J1=1.0, beta=1.0)
        cfg = SpinConfig.from_spins(tree, [1, -1, -1, -1])
        assert hamiltonian(tree, p, cfg) == 0.0

    def test_zero_couplings(self):
        tree = build_tree(1, "full")
        p = ModelParams(J=0.0, J1=0.0, beta=1.0)
        for bits in range(16):
            assert hamiltonian(tree, p, SpinConfig(tree, bits)) == 0.0

    def test_equals_minus_j_dot_stats(self):
        tree = build_tree(2, "half")
        p = ModelParams(J=0.7, J1=-0.4, beta=1.0)
        rng = np.random.default_rng(3)
        for bits in rng.integers(0, 1 << tree.n_vertices, 20):
            cfg = SpinConfig(tree, int(bits))
            a, b, _ = sufficient_stats(tree, cfg)
            assert hamiltonian(tree, p, cfg) == pytest.approx(-p.J * a - p.J1 * b)

    def test_flip_invariance(self):
        tree = build_tree(2, "full")
        p = ModelParams(J=0.5, J1=1.5, beta=1.0)
        for bits in range(0, 1024, 11):
            cfg = SpinConfig(tree, bits)
            assert hamiltonian(tree, p, cfg) == hamiltonian(tree, p, cfg.flipped())

    def test_all_plus_is_ground_state_for_positive_couplings(self):
        tree = build_tree(2, "full")
        rng = np.random.default_rng(5)
        cfgs = np.arange(1 << tree.n_vertices)
        a, b, _ = sufficient_stats_batch(tree, cfgs)
        for _ in range(10):
            j, j1 = rng.uniform(0.05, 3.0, 2)
            energies = -j * a - j1 * b
            assert np.argmin(energies) == (1 << tree.n_vertices) - 1 or math.isclose(
                energies.min(), energies[-1]
            )
            assert energies.min() == pytest.approx(energies[-1])


class TestStatMaxima:
    @pytest.mark.parametrize(
        "depth,expected", [(0, (0, 0, 1)), (1, (3, 3, 4)), (2, (6, 9, 10)), (3, (12, 21, 22))]
    )
    def test_closed_forms(self, depth, expected):
        assert stat_maxima(build_tree(depth, "full")) == expected

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_matches_all_plus_stats(self, depth):
        tree = build_tree(depth, "full")
        assert stat_maxima(tree) == sufficient_stats(tree, SpinConfig.all_plus(tree))

    def test_rejects_half_mode(self):
        with pytest.raises(ValueError):
            stat_maxima(build_tree(2, "half"))
