"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines alongside
the pytest verdicts.  Every tolerance is pinned here, not calibrated.
"""

import math
import time

import numpy as np
import pytest

from cbtree import exact_oracle
from cbtree.cli import main
from cbtree.field_recursion import (
    FieldAssignment,
    child_to_parent,
    phase_predicate,
    propagate_inward,
    ti_fixed_points,
    ti_map,
)
from cbtree.free_energy import (
    asymptotic_field_slope,
    free_energy,
    level_log_factor,
    log_partition_recursive,
    pair_log_weights,
)
from cbtree.ground_states import exhaustive_lemma_check, ground_state_scan
from cbtree.model import ModelParams, SpinConfig, sufficient_stats
from cbtree.topology import boundary_sets, build_tree, connected_subsets


def _line(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}")


def _seeded_three_phase_params(rng) -> ModelParams:
    theta1 = float(rng.uniform(1.9, 3.2))
    theta_c = 2.0 * theta1 / (theta1 * theta1 - 3.0)
    theta = theta_c + float(rng.uniform(0.5, 3.0))
    return ModelParams.from_thetas(theta, theta1)


def test_c1_fixed_point_correctness():
    params = ModelParams.from_thetas(5.0, 2.0)
    ti_fixed_points(params)  # warm-up
    timings = []
    for _ in range(5):
        start = time.perf_counter()
        fps = ti_fixed_points(params)
        timings.append(time.perf_counter() - start)
    elapsed = min(timings)

    # independent oracle: numpy root finder on the constant-field cubic
    theta, theta1 = 5.0, 2.0
    coeffs = [theta, 2 * theta1 - theta1**2 * theta, theta1**2 * theta - 2 * theta1, -theta]
    oracle = sorted(float(r.real) for r in np.roots(coeffs) if abs(r.imag) < 1e-9 and r.real > 0)

    ok = (
        abs(fps.u1 - 0.6417424) < 1e-7
        and abs(fps.u2 - 1.0) < 1e-12
        and abs(fps.u3 - 1.5582576) < 1e-7
        and all(abs(g - w) < 1e-7 for g, w in zip((fps.u1, fps.u2, fps.u3), oracle))
        and all(abs(ti_map(params, u) - u) < 1e-10 for u in (fps.u1, fps.u2, fps.u3))
        and abs(fps.u1 * fps.u3 - 1.0) < 1e-12
        and elapsed < 1e-3
    )
    _line(1, "fixed-point correctness", ok)
    assert abs(fps.u1 - 0.6417424) < 1e-7
    assert abs(fps.u3 - 1.5582576) < 1e-7
    for got, want in zip((fps.u1, fps.u2, fps.u3), oracle):
        assert abs(got - want) < 1e-7
    for u in (fps.u1, fps.u2, fps.u3):
        assert abs(ti_map(params, u) - u) < 1e-10
    assert abs(fps.u1 * fps.u3 - 1.0) < 1e-12
    assert elapsed < 1e-3


def test_c2_phase_classification_grid():
    start = time.perf_counter()
    mismatches = 0
    for theta1 in np.linspace(1.2, 4.0, 100):
        for theta in np.linspace(0.5, 8.0, 100):
            if theta1 > math.sqrt(3.0):
                if abs(theta - 2.0 * theta1 / (theta1**2 - 3.0)) <= 1e-6:
                    continue
            params = ModelParams.from_thetas(float(theta), float(theta1))
            predicted = phase_predicate(params)
            counted = ti_fixed_points(params).regime == "three"
            if predicted != counted:
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 1.0
    _line(2, "phase classification grid", ok)
    assert mismatches == 0
    assert elapsed < 1.0


def test_c3_central_identity():
    rng = np.random.default_rng(314159)
    start = time.perf_counter()
    worst_identity = 0.0
    worst_match = 0.0
    for _ in range(1000):
        bj, bj1, hy, hz = rng.uniform(-10.0, 10.0, 4)
        params = ModelParams(J=bj, J1=bj1, beta=1.0)
        rate = level_log_factor(params, hy, hz)
        w_up, w_dn = pair_log_weights(params, hy, hz)
        worst_identity = max(worst_identity, abs(math.exp(rate - 0.5 * (w_up + w_dn)) - 1.0))
        # The parent field against the direct four-term sums over the child
        # spins, conditioned on the parent spin.
        up, dn = (
            sum(math.exp(bj1 * s * (sy + sz) + bj * sy * sz + hy * sy + hz * sz)
                for sy in (1, -1) for sz in (1, -1))
            for s in (1, -1)
        )
        worst_match = max(
            worst_match, abs(0.5 * math.log(up / dn) - child_to_parent(params, hy, hz))
        )
    elapsed = time.perf_counter() - start
    ok = worst_identity < 1e-10 and worst_match < 1e-12 and elapsed < 1.0
    _line(3, "central level-factor identity", ok)
    assert worst_identity < 1e-10
    assert worst_match < 1e-12
    assert elapsed < 1.0


def test_c4_recursion_vs_enumeration():
    rng = np.random.default_rng(271828)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(5):
        params = _seeded_three_phase_params(rng)
        fps = ti_fixed_points(params)
        for depth in (2, 3):
            tree = build_tree(depth, "full")
            fields = propagate_inward(tree, params, fps.h3)
            ln_oracle = exact_oracle.log_partition(tree, params, fields)
            ln_rec = log_partition_recursive(params, fields)
            worst = max(worst, abs(ln_rec - ln_oracle) / abs(ln_oracle))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 30.0
    _line(4, "recursion vs enumeration", ok)
    assert worst < 1e-10
    assert elapsed < 30.0


def test_c5_consistency_condition():
    params = ModelParams.from_thetas(5.0, 2.0)
    tree = build_tree(2, "full")
    rng = np.random.default_rng(161803)
    start = time.perf_counter()
    fields = propagate_inward(tree, params, rng.uniform(-1.0, 1.0, 6))
    dev_consistent = exact_oracle.check_consistency(params, fields)
    h = np.array(fields.h)
    h[list(tree.vertices_at(1))] += 0.1
    dev_perturbed = exact_oracle.check_consistency(
        params, FieldAssignment(tree, tuple(h), fields.root_rule)
    )
    elapsed = time.perf_counter() - start
    ok = dev_consistent < 1e-12 and dev_perturbed > 1e-4 and elapsed < 1.0
    _line(5, "consistency condition", ok)
    assert dev_consistent < 1e-12
    assert dev_perturbed > 1e-4
    assert elapsed < 1.0


def test_c6_combinatorial_bounds():
    # Stated criterion: zero violations of both bounds on the full tree.
    # The enumeration below reports what actually holds; see the lemma-check
    # tests for the structure of the counterexamples (all at the degree-3
    # root), which the stated bound does not account for.
    start = time.perf_counter()
    res2 = exhaustive_lemma_check(2)
    res3 = exhaustive_lemma_check(3)
    elapsed = time.perf_counter() - start
    ok = (
        res2.config_violations == 0
        and res3.config_violations == 0
        and res2.subset_violations == 0
        and elapsed < 60.0
    )
    _line(6, "combinatorial bounds", ok)
    assert elapsed < 60.0
    assert res2.config_violations == 0, (
        f"{res2.config_violations} of 1024 depth-2 configurations exceed the "
        f"all-plus gap (max {res2.max_stat_gap} vs bound {res2.stat_gap_bound}); "
        f"witness bits {res2.config_witness:#012b}"
    )
    assert res3.config_violations == 0
    assert res2.subset_violations == 0


def test_c6_corrected_bounds():
    # What does hold on the full tree, checked set by set at depths 1-3.  A
    # connected K has one shallowest vertex, its top; a K-leaf is a member
    # with no child in K.  Then |d2K| - |dK| = (siblings of the top - 1) -
    # (children of the K-leaves), where the first term is 0 at the root.
    # So the excess is at most 1, and the violators, 3*f(n-1) of them with
    # f(0) = 1 and f(h) = (f(h-1) + 1)**2 - 1, all have a root child as top
    # and only boundary K-leaves.  The configuration gap tops out at the
    # all-plus gap + 2.
    start = time.perf_counter()
    formula_misses, bad_violators, counts, max_gaps = 0, 0, [], []
    f = 1
    for depth in (1, 2, 3):
        tree = build_tree(depth, "full")
        violators = 0
        for k in connected_subsets(tree, 10**6):
            dk, d2k = boundary_sets(tree, k)
            top = min(k)  # ids run level by level
            leaves = [v for v in k if not any(c in k for c in tree.children[v])]
            top_term = 0 if top == 0 else len(tree.siblings(top)) - 1
            excess = len(d2k) - len(dk)
            if excess != top_term - sum(len(tree.children[v]) for v in leaves):
                formula_misses += 1
            if excess > 0:
                violators += 1
                if not (excess == 1 and tree.parent[top] == 0
                        and all(tree.level[v] == depth for v in leaves)):
                    bad_violators += 1
        counts.append((violators, 3 * f))
        f = (f + 1) ** 2 - 1
        table = exact_oracle.count_table(tree)
        a, b, _ = sufficient_stats(tree, SpinConfig.all_plus(tree))
        max_gaps.append((int((table.b - table.a).max()), b - a + 2))
    elapsed = time.perf_counter() - start
    ok = (
        formula_misses == 0
        and bad_violators == 0
        and counts == [(3, 3), (9, 9), (45, 45)]
        and max_gaps == [(2, 2), (5, 5), (11, 11)]
        and elapsed < 60.0
    )
    _line(6, "corrected combinatorial bounds", ok)
    assert formula_misses == 0
    assert bad_violators == 0
    assert counts == [(3, 3), (9, 9), (45, 45)]
    assert max_gaps == [(2, 2), (5, 5), (11, 11)]
    assert elapsed < 60.0


def test_c7_ground_state_limit():
    start = time.perf_counter()
    for j, j1 in ((1.0, 1.0), (-0.5, 1.0)):
        rows = ground_state_scan(j, j1, [1.0, 2.0, 5.0, 10.0], depth=2)
        masses = [r.mass_plus for r in rows]
        assert all(m is not None for m in masses)
        assert all(b >= a - 1e-9 for a, b in zip(masses, masses[1:]))
        assert masses[-1] >= 0.99
        for r in rows:
            assert r.mass_minus == pytest.approx(r.mass_plus, rel=1e-9)
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    _line(7, "ground-state limit", ok)
    assert elapsed < 5.0


def test_c8_free_energy_symmetry_and_asymptote():
    start = time.perf_counter()
    for beta in (2.0, 5.0, 10.0, 20.0, 50.0):
        params = ModelParams(J=1.0, J1=1.0, beta=beta)
        gap = abs(
            free_energy(params, "u3").f_extrapolated
            - free_energy(params, "u1").f_extrapolated
        )
        assert gap < 1e-10
    f50 = free_energy(ModelParams(J=1.0, J1=1.0, beta=50.0), "u3").f_extrapolated
    assert abs(f50 - (-2.5)) < 0.05

    params = ModelParams(J=-0.5, J1=1.0, beta=20.0)
    slope = ti_fixed_points(params).h3 / 20.0
    assert asymptotic_field_slope(-0.5, 1.0) == 2.0
    assert 2.0 - 1e-3 <= slope <= 2.0 + 1e-3
    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    _line(8, "free-energy symmetry and asymptote", ok)
    assert elapsed < 1.0


def test_c9_byte_determinism(tmp_path, monkeypatch):
    def run(cmd, path, threads):
        monkeypatch.setenv("CBTREE_THREADS", str(threads))
        assert main(cmd + ["--out", str(path)]) in (0,)
        return path.read_bytes()

    verify_cmd = ["verify", "--seed", "7"]
    sweep_cmd = ["beta-sweep", "--J", "1", "--J1", "1", "--grid", "beta=5:50:10",
                 "--depth", "2"]

    v1 = run(verify_cmd, tmp_path / "v1.json", 1)
    v1b = run(verify_cmd, tmp_path / "v1b.json", 1)
    v8 = run(verify_cmd, tmp_path / "v8.json", 8)
    s1 = run(sweep_cmd, tmp_path / "s1.csv", 1)
    s1b = run(sweep_cmd, tmp_path / "s1b.csv", 1)
    s8 = run(sweep_cmd, tmp_path / "s8.csv", 8)

    ok = v1 == v1b == v8 and s1 == s1b == s8
    _line(9, "byte determinism", ok)
    assert v1 == v1b, "verify not reproducible across runs"
    assert v1 == v8, "verify depends on thread count"
    assert s1 == s1b, "beta-sweep not reproducible across runs"
    assert s1 == s8, "beta-sweep depends on thread count"
