import argparse
import dataclasses
import json
import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbtree import cli, exact_oracle, field_recursion, ground_states
from cbtree import free_energy as free_energy_module
from cbtree.field_recursion import REGIME_THREE, child_to_parent, ti_fixed_points
from cbtree.free_energy import free_energy, level_log_factor, pair_log_weights
from cbtree.cli import main, run_verification
from cbtree.model import ModelParams
from cbtree.topology import build_tree
from test_exact_oracle import reference_masses

TWO_FIVE_ARGS = ["--theta", "5", "--theta1", "2"]


def overriding(module, **attrs):
    """A stand-in for ``module`` in one of cli's module bindings, with
    ``attrs`` replaced: cli reads them, while every other caller still
    reads the module's own."""
    return types.SimpleNamespace(**{**vars(module), **attrs})


def read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestFixedPointsCommand:
    def test_csv_point(self, tmp_path, capsys):
        out = tmp_path / "fp.csv"
        assert main(["fixed-points", *TWO_FIVE_ARGS, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["regime"] == "three"
        assert float(row["u1"]) == pytest.approx((11 - math.sqrt(21)) / 10, abs=1e-7)
        assert float(row["u3"]) == pytest.approx((11 + math.sqrt(21)) / 10, abs=1e-7)

    def test_json_format(self, tmp_path):
        out = tmp_path / "fp.json"
        assert main(["fixed-points", "--J", "1", "--J1", "1", "--beta", "2",
                     "--format", "json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == cli.SCHEMA_VERSION
        assert doc["result"]["regime"] == "three"

    def test_rejects_mixed_parameterization(self, capsys):
        assert main(["fixed-points", "--J", "1", "--theta", "5"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_rejects_missing_parameterization(self):
        assert main(["fixed-points", "--J", "1", "--J1", "1"]) == 2

    def test_float_overflow_is_usage_error(self, capsys):
        # exp(2*beta*J) overflows a float here; the CLI must not let the
        # exception escape as a traceback.
        assert main(["fixed-points", "--J", "10", "--J1", "10", "--beta", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: OverflowError")
        assert "Traceback" not in err

    @pytest.mark.parametrize("cmd", ["fixed-points", "free-energy"])
    def test_product_overflow_is_usage_error(self, cmd, capsys):
        # beta and J are finite but 2*beta*J is not; no NaN may reach the
        # output and no numpy warning the terminal.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([cmd, "--J", "1e308", "--J1", "1", "--beta", "10"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: 2*beta*J overflows a float\n"

    @pytest.mark.parametrize("flag", ["--J", "--J1", "--beta", "--theta", "--theta1"])
    def test_negative_e_notation_value(self, flag, capsys):
        values = {"--J": "1", "--J1": "1", "--beta": "2"}
        if flag in ("--theta", "--theta1"):
            values = {"--theta": "5", "--theta1": "2"}
        values[flag] = "-1e-3"
        spaced = [t for kv in values.items() for t in kv]
        joined = [f"{k}={v}" for k, v in values.items()]
        code = main(["fixed-points", *spaced])
        spaced_out = capsys.readouterr()
        assert code == main(["fixed-points", *joined])
        assert spaced_out == capsys.readouterr()
        assert "expected one argument" not in spaced_out.err

    @pytest.mark.parametrize("point", [["--J", "1", "--J1", "1", "--beta", "2"], TWO_FIVE_ARGS,
                                       ["--theta", "4", "--theta1", "2"]])
    def test_residuals_are_the_checked_ones(self, point, monkeypatch, capsys):
        calls = []
        ti_map = field_recursion.ti_map

        def counted(params, u):
            calls.append(u)
            return ti_map(params, u)

        monkeypatch.setattr(field_recursion, "ti_map", counted)
        assert main(["fixed-points", *point, "--format", "json"]) == 0
        result = json.loads(capsys.readouterr().out)["result"]
        assert calls == [result["u1"], result["u2"], result["u3"]]
        params = ModelParams(result["J"], result["J1"], result["beta"])
        for branch in ("u1", "u3"):
            u = result[branch]
            assert result[f"residual_{branch}"] == abs(ti_map(params, u) - u)

    def test_missing_value_keeps_argparse_message(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fixed-points", "--J", "--J1", "1", "--beta", "1"])
        assert exc.value.code == 2
        assert "argument --J: expected one argument" in capsys.readouterr().err


def test_main_dispatches_through_module_attribute(monkeypatch, capsys):
    calls = []

    def fake(args):
        calls.append(args.command)
        return cli._Result({"result": {}}, [(None, cli._Table(["x"], [[1.5]]))])

    monkeypatch.setattr(cli, "cmd_fixed_points", fake)
    assert main(["fixed-points", *TWO_FIVE_ARGS]) == 0
    assert calls == ["fixed-points"]
    assert capsys.readouterr().out == "x\n1.5\n"


class TestPhaseDiagramCommand:
    def test_grid_rows_and_curve(self, tmp_path):
        out = tmp_path / "pd.csv"
        rc = main([
            "phase-diagram",
            "--grid", "theta1=2:2:1",
            "--grid", "theta=5:5:1",
            "--out", str(out),
        ])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["theta1", "theta", "regime", "u1", "u3"]
        assert rows[0]["regime"] == "three"
        assert float(rows[0]["u1"]) == pytest.approx(0.641742, abs=1e-6)
        assert float(rows[0]["u3"]) == pytest.approx(1.558258, abs=1e-6)
        _, curve = read_csv(tmp_path / "pd.csv.curve")
        assert float(curve[0]["theta_c"]) == pytest.approx(4.0, rel=1e-14)

    def test_unique_regime_point(self, tmp_path):
        out = tmp_path / "pd.csv"
        main(["phase-diagram", "--grid", "theta1=1.5:1.5:1", "--grid", "theta=10:10:1",
              "--out", str(out)])
        _, rows = read_csv(out)
        assert rows[0]["regime"] == "unique"
        assert float(rows[0]["u1"]) == float(rows[0]["u3"]) == 1.0

    def test_empty_grid_is_usage_error(self, capsys):
        assert main(["phase-diagram", "--grid", "theta1=1:2:0", "--grid", "theta=1:2:3"]) == 2

    def test_nonincreasing_grid_rejected(self):
        assert main(["phase-diagram", "--grid", "theta1=3:2:5", "--grid", "theta=1:2:3"]) == 2

    @pytest.mark.parametrize("argv,spec", [
        (["phase-diagram", "--grid", "theta=1:2:2"], "theta1=-inf:3:3"),
        (["beta-sweep", "--J", "1", "--J1", "1"], "beta=1:inf:3"),
        (["beta-sweep", "--J", "1", "--J1", "1"], "beta=nan:2:1"),
        (["phase-diagram", "--grid", "theta1=2:3:2"], "theta=-1e308:1e308:3"),
    ], ids=["inf-start", "inf-stop", "nan-single", "span-overflow"])
    def test_non_finite_grid_is_usage_error(self, argv, spec, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--grid", spec]) == 2
        assert capsys.readouterr().err == (
            f"error: grid {spec!r} needs finite endpoints a finite distance apart\n")

    # 8e17 bytes of points: past any address space, so the allocation fails
    # at once on every platform instead of taking memory first.
    @pytest.mark.parametrize("argv", [
        ["phase-diagram", "--grid", "theta=1:2:2"],
        ["beta-sweep", "--J", "1", "--J1", "1"],
        ["ground-state", "--J", "1", "--J1", "1"],
    ], ids=["phase-diagram", "beta-sweep", "ground-state"])
    def test_oversized_grid_is_usage_error(self, argv, capsys):
        spec = ("theta1" if argv[0] == "phase-diagram" else "beta") + "=1:2:100000000000000000"
        assert main([*argv, "--grid", spec]) == 2
        assert capsys.readouterr() == (
            "", f"error: grid {spec!r} has too many points to hold in memory\n")

    def test_missing_axis_rejected(self):
        assert main(["phase-diagram", "--grid", "theta1=2:3:2"]) == 2

    @pytest.mark.parametrize("grids,message", [
        (["beta=1:2:2", "theta1=3:2:5"], "error: grid 'theta1=3:2:5' is not strictly increasing"),
        (["theta1=2:3:2", "theta1=5:6:2", "bad"], "error: bad grid spec 'bad'"),
        (["beta=1:2:2", "theta1=2:3:2", "theta1=5:6:2"], "error: grid 'beta=1:2:2' names an axis"),
        (["theta1=2:3:2", "theta1=5:6:2", "beta=1:2:2"], "error: grid 'theta1=5:6:2' gives axis"),
        (["beta=1:2:2"], "error: grid 'beta=1:2:2' names an axis"),
    ], ids=["range-before-foreign", "malformed-before-repeat", "foreign-in-order",
            "repeat-in-order", "foreign-before-missing"])
    def test_grid_message_order(self, grids, message, capsys):
        argv = ["phase-diagram"]
        for spec in grids:
            argv += ["--grid", spec]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_no_per_cell_scalar_solve(self, monkeypatch, capsys):
        calls = {"from_thetas": 0, "ti_fixed_points": 0}
        from_thetas = ModelParams.from_thetas.__func__
        ti_fixed_points = field_recursion.ti_fixed_points

        def counted_from_thetas(cls, theta, theta1):
            calls["from_thetas"] += 1
            return from_thetas(cls, theta, theta1)

        def counted_ti_fixed_points(params):
            calls["ti_fixed_points"] += 1
            return ti_fixed_points(params)

        monkeypatch.setattr(ModelParams, "from_thetas", classmethod(counted_from_thetas))
        # cli reads it through its module binding, so this patch counts cli's calls too.
        monkeypatch.setattr(field_recursion, "ti_fixed_points", counted_ti_fixed_points)
        assert main(["phase-diagram", "--grid", "theta1=1:4:20", "--grid", "theta=0.5:8:30"]) == 0
        # One params object per axis value; no scalar solve on a clean grid.
        assert calls == {"from_thetas": 20 + 30, "ti_fixed_points": 0}
        # Grid header and rows, curve header and the 15 theta1 values above the pole.
        assert len(capsys.readouterr().out.splitlines()) == 1 + 20 * 30 + 1 + 15

    def test_successive_calls_share_no_grids(self, capsys):
        # The parser is built once per process; a --grid list from one call
        # must not leak into the defaults of the next.
        assert main(["phase-diagram", "--grid", "theta1=2:3:2", "--grid", "theta=1:6:3"]) == 0
        capsys.readouterr()
        assert main(["phase-diagram", "--grid", "theta1=2:3:2"]) == 2
        assert "missing --grid theta=" in capsys.readouterr().err


json_keys = st.one_of(st.sampled_from(["", '"', "\\", "\x00\x1f\n", "\u00e9", "\u2028",
                                        "\U0001f600", "schema"]), st.text(max_size=8))
json_floats = st.one_of(st.sampled_from([-0.0, 5e-324, 1e22, 1.7976931348623157e308]),
                        st.floats(allow_nan=False, allow_infinity=False))
json_leaves = st.one_of(
    json_floats, json_keys, st.none(), st.booleans(), st.integers(-2**200, 2**200),
    json_floats.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.lists(st.lists(json_floats | st.none() | json_keys, min_size=2, max_size=2),
             max_size=3).map(lambda rows: cli._Table(["x", "y"], rows)),
)
json_docs = st.recursive(json_leaves, lambda children: st.one_of(
    st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple),
    st.dictionaries(json_keys, children, max_size=4)), max_leaves=25)


class TestOutput:
    def test_row_format_writes_the_cell_bytes(self):
        # The phase-diagram rows, formatted per row, against one _cell per cell.
        cells = ([2.0, -0.0, 1e-320], [1 / 3, math.inf], [[2, 0], [0, 1], [1, 2]],
                 [[5e-324, -math.inf], [math.nan, 1.0], [7.0, 0.1]],
                 [[1e22, math.nan], [-0.0, 1.0], [1e-320, 1.7976931348623157e308]])
        columns = ["theta1", "theta", "regime", "u1", "u3"]
        by_cell = "".join(cli._Table(columns, list(cli._grid_rows(*cells))).csv())
        by_row = "".join(cli._Table(columns, [], lines=cli._grid_lines(*cells)).csv())
        assert by_row == by_cell
        assert by_cell.count("\n") == 1 + 3 * 2

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_json_is_refused(self, monkeypatch, capsys, tmp_path, value):
        monkeypatch.setattr(cli, "cmd_fixed_points",
                            lambda args: cli._Result({"result": {"u3": value}}, []))
        out = tmp_path / "fp.json"
        for extra in ([], ["--out", str(out)]):
            assert main(["fixed-points", *TWO_FIVE_ARGS, "--format", "json", *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: Out of range float values")
        assert not out.exists()

    @settings(max_examples=300, deadline=None)
    @given(json_docs)
    def test_json_writer_is_json_dumps(self, doc):
        assert cli._json(doc) == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False,
                                            default=cli._json_default)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64(math.nan),
                                       np.float64(-math.inf), np.float32(math.inf)])
    def test_json_writer_refuses_non_finite_as_json_dumps(self, value):
        doc = {"a": [1.0, {"b": (2, value)}], "c": None}
        with pytest.raises(ValueError) as expected:
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False, default=cli._json_default)
        with pytest.raises(ValueError) as got:
            cli._json(doc)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("argv", [
        ["fixed-points", *TWO_FIVE_ARGS, "--out", "{missing}/fp.csv"],
        ["phase-diagram", "--grid", "theta1=2:2:1", "--grid", "theta=5:5:1",
         "--curve-out", "{missing}/curve.csv"],
    ], ids=["out", "curve-out"])
    def test_unwritable_path_is_usage_error(self, argv, tmp_path, capsys):
        missing = tmp_path / "missing"
        assert main([a.format(missing=missing) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(missing) in err


CHECK_NAMES = ["level_factor_identity", "theta_form_match", "recursion_vs_enumeration",
               "consistency_propagated", "free_energy_symmetry"]


def _shifted(route, eps):
    return lambda *args: route(*args) + eps


def _scaled(route, eps):
    return lambda *args: route(*args) * (1.0 + eps)


def _up_shifted(route, eps):
    def shifted(*args):
        w_up, w_dn = route(*args)
        return w_up + eps, w_dn
    return shifted


def _interior_shifted(route, eps):
    def shifted(tree, params, boundary):
        fields = route(tree, params, boundary)
        h = fields.h.copy()
        h[:tree.level_start[tree.depth]] += eps
        return dataclasses.replace(fields, h=h)
    return shifted


def _u1_shifted(route, eps):
    def shifted(J, J1, betas, u):
        # The u1 branch is the one with u < 1.
        return route(J, J1, betas, u) + np.where(np.asarray(u) < 1.0, eps, 0.0)
    return shifted


# (check, cli's binding of the module of one of its routes, that module, the
# route's name, perturbation, size); the perturbed route is what cli reads
# through that binding, and the module itself is left as it is.  A
# FieldAssignment refuses NaN fields, so the NaN case of the consistency
# check makes the enumeration side return NaN instead.
PERTURBED_ROUTES = [
    ("level_factor_identity", "fe", free_energy_module, "_level_log_factor", _shifted, 1e-6),
    ("theta_form_match", "fr", field_recursion, "_pair_log_weights", _up_shifted, 1e-9),
    ("recursion_vs_enumeration", "fe", free_energy_module, "log_partition_recursive", _scaled,
     1e-8),
    ("consistency_propagated", "fr", field_recursion, "propagate_inward", _interior_shifted,
     1e-6),
    ("free_energy_symmetry", "fe", free_energy_module, "free_energy_betas", _u1_shifted, 1e-6),
    ("level_factor_identity", "fe", free_energy_module, "_level_log_factor", _shifted, math.nan),
    ("theta_form_match", "fr", field_recursion, "_pair_log_weights", _up_shifted, math.nan),
    ("recursion_vs_enumeration", "fe", free_energy_module, "log_partition_recursive", _scaled,
     math.nan),
    ("consistency_propagated", "exact_oracle", exact_oracle, "check_consistency", _shifted,
     math.nan),
    ("free_energy_symmetry", "fe", free_energy_module, "free_energy_betas", _u1_shifted,
     math.nan),
]


def per_draw_level_factor_errors(rng, draws):
    """verify's level-factor check drawn per point through the scalar faces:
    ``level_log_factor`` and the ``math`` branch of ``pair_log_weights``."""
    bj, bj1 = rng.uniform(-10, 10, (2, draws))
    hy, hz = rng.uniform(-10, 10, (2, draws))
    for j, j1, y, z in zip(bj, bj1, hy, hz):
        p = ModelParams(J=j, J1=j1, beta=1.0)
        w_up, w_dn = pair_log_weights(p, y, z)
        yield abs(math.exp(level_log_factor(p, y, z) - 0.5 * (w_up + w_dn)) - 1.0)


def per_draw_theta_form_errors(rng, draws):
    """verify's theta-form check drawn per point: the theta form in ``math``
    against the scalar ``child_to_parent``."""
    for _ in range(draws):
        bj, bj1 = rng.uniform(-5, 5, 2)
        hy, hz = rng.uniform(-5, 5, 2)
        p = ModelParams(J=bj, J1=bj1, beta=1.0)
        th, th1 = p.theta_exp, p.theta1_exp
        uy, uz = math.exp(2 * hy), math.exp(2 * hz)
        num = th1 * th1 * th * uy * uz + th1 * (uy + uz) + th
        den = th * uy * uz + th1 * (uy + uz) + th1 * th1 * th
        yield abs(0.5 * math.log(num / den) - child_to_parent(p, hy, hz))


def per_draw_free_energy_symmetry_errors(rng, draws):
    """verify's free-energy check drawn per point: two scalar ``free_energy``
    reports, F(u3) and F(u1), per draw."""
    for _ in range(draws):
        params = cli._in_regime_params(rng)
        yield abs(free_energy(params, "u3").f_const_field
                  - free_energy(params, "u1").f_const_field)


class TestVerifyCommand:
    def test_passes_with_default_seed(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == cli.SCHEMA_VERSION
        assert doc["all_pass"] is True
        names = {c["check_name"] for c in doc["checks"]}
        assert "level_factor_identity" in names
        assert "recursion_vs_enumeration" in names
        for c in doc["checks"]:
            assert c["pass"] is True
            assert c["max_error"] < c["tol"]

    def test_recursion_check_reads_enumerated_table(self):
        # recursion_vs_enumeration must compare against an enumeration, not
        # against the tree DP of count_table.
        exact_oracle._build_count_table.cache_clear()
        exact_oracle._enumerate_count_table.cache_clear()
        assert run_verification(seed=0)["all_pass"]
        assert exact_oracle._enumerate_count_table.cache_info().misses == 2  # depths 2, 3
        assert exact_oracle._build_count_table.cache_info().misses == 0

    def test_seed_changes_numbers_not_status(self, tmp_path):
        r1 = run_verification(seed=1)
        r2 = run_verification(seed=2)
        assert r1["all_pass"] and r2["all_pass"]

    def test_report_holds_seed_checks_and_status(self):
        assert list(run_verification(seed=3)) == ["seed", "checks", "all_pass"]

    def test_no_failure_hook(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["verify", "--inject-failure"])
        assert info.value.code == 2
        assert "cbtree verify: error: unrecognized arguments: --inject-failure" in \
            capsys.readouterr().err

    def test_check_names(self):
        assert [c["check_name"] for c in run_verification()["checks"]] == CHECK_NAMES

    # numpy's exp and log may differ from math's in the last bit, so the array
    # checks hold the per-draw errors to 1e-14, not bit for bit.
    @pytest.mark.parametrize("seed", range(10))
    def test_batched_level_factor_matches_per_draw(self, seed):
        batched = cli._level_factor_errors(np.random.default_rng(seed), 1000)
        per_draw = list(per_draw_level_factor_errors(np.random.default_rng(seed), 1000))
        assert len(batched) == len(per_draw) == 1000
        assert max(abs(a - b) for a, b in zip(batched, per_draw)) <= 1e-14

    @pytest.mark.parametrize("seed", range(10))
    def test_batched_theta_form_matches_per_draw(self, seed):
        batched = cli._theta_form_errors(np.random.default_rng(seed), 400)
        per_draw = list(per_draw_theta_form_errors(np.random.default_rng(seed), 400))
        assert len(batched) == len(per_draw) == 400
        assert max(abs(a - b) for a, b in zip(batched, per_draw)) <= 1e-14

    @pytest.mark.parametrize("seed", range(10))
    def test_batched_free_energy_symmetry_matches_per_draw(self, seed):
        batched = cli._free_energy_symmetry_errors(np.random.default_rng(seed), 10)
        per_draw = list(per_draw_free_energy_symmetry_errors(np.random.default_rng(seed), 10))
        assert batched == per_draw

    def test_theta_form_draws_are_the_per_draw_stream(self, monkeypatch):
        # One (draws, 4) array split into columns reads the doubles that a
        # (2,) call for the couplings and a (2,) call for the fields per draw read.
        seen = []
        core = field_recursion._pair_log_weights

        def spy(a1, aj, hy, hz, lse):
            seen.append((0.5 * a1, aj, hy, hz))  # a1 = 2*beta*J1 with beta = 1
            return core(a1, aj, hy, hz, lse)

        monkeypatch.setattr(cli, "fr", overriding(field_recursion, _pair_log_weights=spy))
        cli._theta_form_errors(np.random.default_rng(5), 400)
        [(bj1, bj, hy, hz)] = seen
        rng = np.random.default_rng(5)
        for k in range(400):
            assert (bj[k], bj1[k]) == tuple(rng.uniform(-5, 5, 2))
            assert (hy[k], hz[k]) == tuple(rng.uniform(-5, 5, 2))

    @pytest.mark.parametrize("name,binding,owner,attr,perturb,eps", PERTURBED_ROUTES,
                             ids=[f"{r[0]}-{r[5]}" for r in PERTURBED_ROUTES])
    def test_each_check_can_fail(self, name, binding, owner, attr, perturb, eps, monkeypatch,
                                 tmp_path, capsys):
        perturbed = perturb(getattr(owner, attr), eps)
        monkeypatch.setattr(cli, binding, overriding(owner, **{attr: perturbed}))
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("verification failed:") and name in err
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is False
        check = {c["check_name"]: c for c in doc["checks"]}[name]
        assert check["pass"] is False
        assert (check["max_error"] is None) == math.isnan(eps)


def reference_sweep_row(J, J1, beta, tree):
    """One ``beta-sweep`` row from the scalar faces: one fixed-point solve,
    two ``free_energy`` reports and the per-point masses per beta."""
    params = ModelParams(J=J, J1=J1, beta=float(beta))
    fps = ti_fixed_points(params)
    f3 = free_energy(params, "u3").f_const_field
    f1 = free_energy(params, "u1").f_const_field
    mass_plus = None
    if tree is not None and fps.regime == REGIME_THREE:
        mass_plus = reference_masses(tree, params, fps.h3)[0]
    return (float(beta), fps.regime, fps.u1, fps.u3, f3, f1, abs(f3 - f1),
            ground_states.root_magnetization(fps.u3), mass_plus)


def _critical_beta(J, J1):
    """A beta in (0.01, 60) where the three-solution regime starts or ends, or None."""
    def three(beta):
        try:
            return ti_fixed_points(ModelParams(J=J, J1=J1, beta=beta)).regime == REGIME_THREE
        except (ValueError, ArithmeticError):
            return None

    lo, hi = 0.01, 60.0
    if None in (three(lo), three(hi)) or three(lo) == three(hi):
        return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if three(mid) == three(lo) else (lo, mid)
    return lo


@st.composite
def sweep_grids(draw):
    """(J, J1, beta grid spec, depth): plain grids, grids that cross the
    critical curve within or near the degeneracy band, and grids that reach
    the float-overflow errors."""
    J = draw(st.floats(-3.0, 3.0))
    J1 = draw(st.floats(-3.0, 3.0))
    depth = draw(st.sampled_from([1, 2, 4]))
    count = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["plain", "critical", "overflow"]))
    lo, hi = draw(st.floats(0.01, 2.0)), draw(st.floats(2.0, 60.0))
    if kind == "critical":
        beta_c = _critical_beta(J, J1)
        if beta_c is not None:
            width = draw(st.sampled_from([1e-15, 1e-14, 1e-13, 1e-12, 1e-9, 1e-3]))
            lo, hi = beta_c * (1.0 - width), beta_c * (1.0 + width)
    elif kind == "overflow":
        hi = draw(st.floats(100.0, 2000.0))
    if count > 1 and not hi > lo:
        count = 1
    return J, J1, f"beta={lo!r}:{hi!r}:{count}", depth


class TestBetaSweepCommand:
    def test_columns_and_symmetry(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["beta-sweep", "--J", "1", "--J1", "1",
                   "--grid", "beta=10:50:3", "--depth", "2", "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["beta", "regime", "u1", "u3", "F_u3", "F_u1",
                          "F_sym_check", "root_prob", "mass_plus"]
        assert len(rows) == 3
        for row in rows:
            assert float(row["F_sym_check"]) < 1e-10
            assert row["regime"] == "three"
        assert float(rows[-1]["F_u3"]) == pytest.approx(-2.5, abs=0.05)

    def test_out_of_regime_rows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["beta-sweep", "--J", "1", "--J1", "1",
              "--grid", "beta=0.1:10:2", "--depth", "2", "--out", str(out)])
        _, rows = read_csv(out)
        assert rows[0]["regime"] == "unique"
        assert float(rows[0]["u1"]) == float(rows[0]["u3"]) == 1.0
        assert rows[0]["mass_plus"] == ""
        assert rows[1]["mass_plus"] != ""

    def test_depth_beyond_cap_leaves_mass_empty(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["beta-sweep", "--J", "1", "--J1", "1",
                   "--grid", "beta=10:20:2", "--depth", "5", "--out", str(out)])
        assert rc == 0
        assert "cap" in capsys.readouterr().err
        _, rows = read_csv(out)
        assert all(r["mass_plus"] == "" for r in rows)

    def test_requires_couplings(self):
        assert main(["beta-sweep", "--grid", "beta=1:2:2"]) == 2

    @pytest.mark.parametrize("depth", [-1, 13, 100])
    def test_depth_outside_tree_range_refused_before_solving(self, depth, monkeypatch, capsys):
        def unreachable(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(cli, "fr",
                            overriding(field_recursion, ti_fixed_points_betas=unreachable))
        assert main(["beta-sweep", "--J", "1", "--J1", "1", "--grid", "beta=1:2:2",
                     "--depth", str(depth)]) == 2
        with pytest.raises(ValueError) as expected:
            build_tree(depth, "full")
        assert capsys.readouterr() == ("", f"error: {expected.value}\n")

    @settings(max_examples=150, deadline=None)
    @given(sweep_grids())
    def test_rows_match_per_beta_solve(self, sweep):
        J, J1, spec, depth = sweep
        args = cli._build_parser()[0].parse_args(["beta-sweep", f"--J={J!r}", f"--J1={J1!r}",
                                                  "--grid", spec, "--depth", str(depth)])
        betas = cli._parse_grid_specs(args.grid, ("beta",))["beta"]
        tree = build_tree(depth, "full") if depth <= exact_oracle.FULL_ENUM_DEPTH_CAP else None
        try:
            expected = [reference_sweep_row(J, J1, b, tree) for b in betas]
        except (ValueError, ArithmeticError) as exc:
            with pytest.raises(type(exc)) as info:
                cli.cmd_beta_sweep(args)
            assert type(info.value) is type(exc) and str(info.value) == str(exc)
            return
        rows = cli.cmd_beta_sweep(args).tables[0][1].rows
        assert [list(map(repr, r)) for r in rows] == [list(map(repr, r)) for r in expected]


class TestGroundStateCommand:
    def test_scan_rows(self, tmp_path):
        out = tmp_path / "gs.csv"
        rc = main(["ground-state", "--J", "-0.5", "--J1", "1",
                   "--grid", "beta=1:10:4", "--depth", "2", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) == 4
        masses = [float(r["mass_plus"]) for r in rows]
        assert masses == sorted(masses)
        assert masses[-1] >= 0.99

    def test_json_rows(self, tmp_path):
        out = tmp_path / "gs.json"
        main(["ground-state", "--J", "1", "--J1", "1", "--grid", "beta=2:5:2",
              "--format", "json", "--out", str(out)])
        doc = json.loads(out.read_text())
        assert doc["schema"] == cli.SCHEMA_VERSION
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["regime"] == "three"


class TestLemmaCheckCommand:
    def test_reports_violations_and_exits_nonzero(self, tmp_path):
        # The full-tree bounds genuinely fail at the degree-3 root, so the
        # honest exit status is 1.
        out = tmp_path / "lemma.json"
        rc = main(["lemma-check", "--depth", "2", "--out", str(out)])
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["clean"] is False
        assert doc["config_violations"] == 162
        assert doc["subset_violations"] == 9
        assert doc["max_stat_gap"] == 5
        assert doc["stat_gap_bound"] == 3


class TestFreeEnergyCommand:
    def test_json_report(self, tmp_path):
        out = tmp_path / "fe.json"
        rc = main(["free-energy", *TWO_FIVE_ARGS, "--branch", "u3",
                   "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["branch"] == "u3"
        assert abs(doc["f_extrapolated"] - doc["f_const_field"]) < 1e-10

    def test_experimental_closed_form_flag(self, tmp_path):
        out = tmp_path / "fe.json"
        rc = main(["free-energy", "--J", "1", "--J1", "1", "--beta", "20",
                   "--experimental-closed-form", "--format", "json", "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        asym = doc["asymptote"]
        assert asym["closed_form_corrected"] == pytest.approx(-2.5, abs=1e-12)
        assert asym["closed_form_verbatim"] == pytest.approx(-2.0, abs=1e-12)
        assert asym["method"] == "numeric_limit"

    def test_closed_form_without_json_refused_before_solving(self, monkeypatch, capsys):
        def unreachable(*args, **kwargs):
            raise AssertionError("solved before the refusal")

        monkeypatch.setattr(cli, "fe", overriding(free_energy_module, free_energy=unreachable,
                                                  zero_temperature_limit=unreachable))
        assert main(["free-energy", "--J", "1", "--J1", "1", "--beta", "20",
                     "--experimental-closed-form"]) == 2
        assert "--experimental-closed-form" in capsys.readouterr().err

    def test_csv_sequence(self, tmp_path):
        out = tmp_path / "fe.csv"
        rc = main(["free-energy", *TWO_FIVE_ARGS, "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["n", "ln_z", "f_n"]
        assert len(rows) == 30


DEPTH3_SWEEP = ["beta-sweep", "--J", "0.6", "--J1", "1.0", "--grid", "beta=2:40:4",
                "--depth", "3"]
DEPTH3_GROUND = ["ground-state", "--J", "-0.4", "--J1", "1", "--grid", "beta=3:6:2",
                 "--depth", "3"]


class TestDepth3Enumeration:
    def test_masses_at_most_one(self, tmp_path):
        # Each extreme configuration's log weight must be the same float
        # expression as its count-table bin, or mass_plus can print above 1.
        out = tmp_path / "sweep.csv"
        assert main(DEPTH3_SWEEP + ["--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert 0.0 <= float(row["mass_plus"]) <= 1.0

    def test_table_built_once_by_threaded_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CBTREE_THREADS", "2")
        exact_oracle._build_count_table.cache_clear()
        assert main(DEPTH3_SWEEP + ["--out", str(tmp_path / "sweep.csv")]) == 0
        assert exact_oracle._build_count_table.cache_info().misses == 1

    @pytest.mark.parametrize("cmd", [DEPTH3_SWEEP, DEPTH3_GROUND], ids=["sweep", "ground"])
    def test_bytes_independent_of_threads(self, cmd, tmp_path, monkeypatch):
        outputs = []
        for threads in (1, 2):
            monkeypatch.setenv("CBTREE_THREADS", str(threads))
            exact_oracle._build_count_table.cache_clear()  # rebuild at this thread count
            path = tmp_path / f"out{threads}.csv"
            assert main(cmd + ["--out", str(path)]) == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]


# Values for the argv-pass grammar, by the kind of option that takes them:
# values the option accepts, then values argparse refuses.
_FLOAT_WORDS = (["1", "-0.0", "0", "2.5", "1e-300", "5e-324", "1e308", "-1e-3", "nan", "-inf",
                 "1_0"], ["abc", ""])
_INT_WORDS = (["0", "2", "3", "-1", "007"], ["3.5", "x"])
_PATH_WORDS = (["out.csv", "a=b", "dir/f.json"], ["-", "--J", ""])
_GRID_WORDS = (["beta=1:2:3", "theta1=2:3:2", "theta=-1:6:2", "bad", "beta=1e-3:2:1"], [""])
_HANDED_OVER = ["--bet", "-h", "--help", "--", "word", "--J=abc", "--out", "-",
                "--experimental-closed-form=1", "--format", "xml"]


def _option_values(action):
    if isinstance(action, argparse._AppendAction):
        return _GRID_WORDS
    if action.choices is not None:
        return list(action.choices), ["bogus"]
    return {float: _FLOAT_WORDS, int: _INT_WORDS}.get(action.type, _PATH_WORDS)


@st.composite
def command_tokens(draw):
    """A command and tokens for it: its own long options spelled ``--opt=value``
    or ``--opt value``, its flags, repeated options and grids, and now and
    then a refused value or a token that only argparse may parse."""
    command = draw(st.sampled_from(sorted(cli._build_parser()[1])))
    parser = cli._build_parser()[1][command]
    actions = [a for a in parser._actions if a.option_strings and a.dest != "help"]
    tokens = []
    for _ in range(draw(st.integers(0, 7))):
        odd = draw(st.integers(0, 19))
        if odd == 0:
            tokens.append(draw(st.sampled_from(_HANDED_OVER)))
            continue
        action = draw(st.sampled_from(actions))
        name = action.option_strings[0]
        if isinstance(action, argparse._StoreTrueAction):
            tokens.append(name)
            continue
        accepted, refused = _option_values(action)
        values = st.sampled_from(refused if odd == 1 else accepted)
        if action.type is float:
            values |= st.floats().map(repr)
        value = draw(values)
        tokens += [f"{name}={value}"] if draw(st.booleans()) else [name, value]
    return command, tokens


class TestArgvPass:
    """``cli._parse_simple`` against the argparse parse it stands in for."""

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(command_tokens())
    def test_agrees_with_argparse(self, case):
        command, tokens = case
        tokens = cli._join_numeric_values(tokens)
        parser = cli._build_parser()[1][command]
        fast = cli._parse_simple(parser, tokens)
        if fast is None:
            return
        args, extra = parser.parse_known_args(tokens)
        assert extra == []
        # repr tells -0.0 from 0.0 and compares NaNs alike.
        assert repr(sorted(vars(fast).items())) == repr(sorted(vars(args).items()))

    @pytest.mark.parametrize("command,tokens", [
        ("beta-sweep", ["--bet", "2"]), ("verify", ["-h"]), ("verify", ["--help"]),
        ("beta-sweep", ["--", "--J", "1"]), ("fixed-points", ["--out", "-"]),
        ("fixed-points", ["--format", "xml"]), ("fixed-points", ["--J=abc"]),
        ("free-energy", ["--experimental-closed-form=1"]), ("verify", ["word"]),
        ("verify", ["--seed"]), ("verify", ["--out="]), ("beta-sweep", ["--grid", "--J"]),
    ])
    def test_hands_over_to_argparse(self, command, tokens):
        assert cli._parse_simple(cli._build_parser()[1][command], tokens) is None

    def test_accepts_the_benchmark_spellings(self):
        parser = cli._build_parser()[1]["beta-sweep"]
        tokens = ["--J", "0.5", "--J1=-1e-05", "--grid", "beta=1:2:3", "--grid=beta=2:3:4",
                  "--depth", "3", "--format", "json"]
        fast = cli._parse_simple(parser, tokens)
        assert vars(fast) == vars(parser.parse_args(tokens))

    def test_grid_lists_are_fresh(self):
        parser = cli._build_parser()[1]["phase-diagram"]
        first = cli._parse_simple(parser, [])
        second = cli._parse_simple(parser, ["--grid", "theta=1:2:2"])
        default = parser.get_default("grid")
        assert first.grid == default == [] and first.grid is not default
        assert second.grid == ["theta=1:2:2"] and default == []
