import json
import math

import pytest

from cbtree import cli, exact_oracle
from cbtree.cli import main, run_verification

TWO_FIVE_ARGS = ["--theta", "5", "--theta1", "2"]


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
        assert doc["schema"] == 3
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

    def test_missing_axis_rejected(self):
        assert main(["phase-diagram", "--grid", "theta1=2:3:2"]) == 2

    def test_successive_calls_share_no_grids(self, capsys):
        # The parser is built once per process; a --grid list from one call
        # must not leak into the defaults of the next.
        assert main(["phase-diagram", "--grid", "theta1=2:3:2", "--grid", "theta=1:6:3"]) == 0
        capsys.readouterr()
        assert main(["phase-diagram", "--grid", "theta1=2:3:2"]) == 2
        assert "missing --grid theta=" in capsys.readouterr().err


class TestVerifyCommand:
    def test_passes_with_default_seed(self, tmp_path):
        out = tmp_path / "verify.json"
        assert main(["verify", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == 3
        assert doc["all_pass"] is True
        names = {c["check_name"] for c in doc["checks"]}
        assert "level_factor_identity" in names
        assert "recursion_vs_enumeration" in names
        for c in doc["checks"]:
            assert c["pass"] is True
            assert c["max_error"] < c["tol"]

    def test_seed_changes_numbers_not_status(self, tmp_path):
        r1 = run_verification(seed=1)
        r2 = run_verification(seed=2)
        assert r1["all_pass"] and r2["all_pass"]

    def test_injected_failure(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        assert main(["verify", "--inject-failure", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "level_factor_identity_injected" in err
        doc = json.loads(out.read_text())
        assert doc["all_pass"] is False


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
        assert doc["schema"] == 3
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
