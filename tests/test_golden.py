"""Byte-for-byte golden outputs of every CLI command.

Each case runs ``cbtree.cli.main`` in process on fixed small inputs and
compares the exit code, stdout, stderr and any file written through
``--out`` (with the phase-diagram ``.curve`` file) against
``tests/golden/<case>.txt``.  argparse wraps its usage text to the terminal
width, so the cases run at ``COLUMNS=80``.  After a deliberate output
change, rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``
and review the diff.
"""

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from cbtree.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

# "{out}" stands for a fresh file path; the files it names are recorded.
CASES = {
    "fixed_points_csv": ["fixed-points", "--theta", "5", "--theta1", "2"],
    "fixed_points_json": ["fixed-points", "--J", "1", "--J1", "1", "--beta", "2",
                          "--format", "json"],
    "fixed_points_degenerate": ["fixed-points", "--theta", "4", "--theta1", "2"],
    "fixed_points_overflow": ["fixed-points", "--J", "10", "--J1", "10", "--beta", "50"],
    "fixed_points_mixed": ["fixed-points", "--J", "1", "--theta", "5"],
    "fixed_points_nan_root_sum": ["fixed-points", "--J", "-5.987614609324681",
                                  "--J1", "9.855434901080743", "--beta", "23.05895366359976"],
    "fixed_points_inf_root_sum": ["fixed-points", "--J", "1", "--J1", "300", "--beta", "1"],
    "fixed_points_negative_exponent": ["fixed-points", "--J", "-1e-3", "--J1", "1",
                                       "--beta", "1"],
    # beta*J overflows although beta and J are finite: refused, not printed
    # with NaN residuals.
    "fixed_points_beta_j_overflow": ["fixed-points", "--J", "1e308", "--J1", "1",
                                     "--beta", "10"],
    "phase_diagram_out": ["phase-diagram", "--grid", "theta1=1.2:4:6",
                          "--grid", "theta=0.5:8:5", "--out", "{out}"],
    "phase_diagram_stdout": ["phase-diagram", "--grid", "theta1=2:3:2",
                             "--grid", "theta=1:6:3"],
    "phase_diagram_json": ["phase-diagram", "--grid", "theta1=1.5:2.5:3",
                           "--grid", "theta=2:6:3", "--format", "json"],
    "phase_diagram_bad_grid": ["phase-diagram", "--grid", "theta1=3:2:5",
                               "--grid", "theta=1:2:3"],
    "phase_diagram_missing_axis": ["phase-diagram", "--grid", "theta1=2:3:2"],
    "phase_diagram_nonpositive": ["phase-diagram", "--grid", "theta1=2:3:3",
                                  "--grid", "theta=-1:2:4"],
    "phase_diagram_inf_root_sum": ["phase-diagram", "--grid", "theta1=2:1e200:3",
                                   "--grid", "theta=1:2:2"],
    "phase_diagram_nan_root_sum": ["phase-diagram", "--grid", "theta1=2:1e200:2",
                                   "--grid", "theta=1e-300:1:2", "--format", "json"],
    "phase_diagram_inf_endpoint": ["phase-diagram", "--grid", "theta1=-inf:3:3",
                                   "--grid", "theta=1:2:2"],
    "phase_diagram_foreign_axis": ["phase-diagram", "--grid", "theta1=2:3:2",
                                   "--grid", "theta=1:6:2", "--grid", "beta=1:2:2"],
    "phase_diagram_repeated_axis": ["phase-diagram", "--grid", "theta1=2:3:2",
                                    "--grid", "theta1=5:6:2", "--grid", "theta=1:6:2"],
    # The JSON document holds the curve, so no curve file would be written.
    "phase_diagram_json_curve_out": ["phase-diagram", "--grid", "theta1=2:3:2",
                                     "--grid", "theta=1:6:2", "--format", "json",
                                     "--curve-out", "{out}"],
    "free_energy_csv": ["free-energy", "--theta", "5", "--theta1", "2", "--n-max", "6"],
    "free_energy_json_u1": ["free-energy", "--theta", "5", "--theta1", "2", "--branch", "u1",
                            "--n-max", "5", "--format", "json"],
    "free_energy_closed_form": ["free-energy", "--J", "1", "--J1", "1", "--beta", "20",
                                "--n-max", "4", "--experimental-closed-form",
                                "--format", "json"],
    # ln Z_n overflows from n = 1022: refused rather than printed as inf.
    "free_energy_n_max_overflow": ["free-energy", "--J", "1", "--J1", "1", "--beta", "1",
                                   "--n-max", "1023"],
    "free_energy_beta_j_overflow": ["free-energy", "--J", "1e308", "--J1", "1",
                                    "--beta", "10"],
    # The closed forms go into the JSON document only: refused before solving.
    "free_energy_closed_form_csv": ["free-energy", "--J", "1", "--J1", "1", "--beta", "20",
                                    "--experimental-closed-form"],
    # F = f_const_field fits a float at this beta; the record value
    # f_extrapolated = 2*f_n - f_{n-1} does not, and the record is refused.
    "free_energy_tiny_beta": ["free-energy", "--J", "1", "--J1", "1", "--beta", "5e-309"],
    # beta*2**n does not fit a float, F = -2.486e-300 and the record do.
    "free_energy_huge_beta": ["free-energy", "--J", "1e-300", "--J1", "1e-300",
                              "--beta", "1e300", "--format", "json"],
    # 2*beta*J1 = 800 fits a float, exp(800) does not.
    "free_energy_theta1_overflow": ["free-energy", "--J", "1", "--J1", "400", "--beta", "1"],
    "beta_sweep_out": ["beta-sweep", "--J", "1", "--J1", "1", "--grid", "beta=0.1:10:4",
                       "--depth", "2", "--out", "{out}"],
    "beta_sweep_depth3_json": ["beta-sweep", "--J", "0.3", "--J1", "0.7",
                               "--grid", "beta=1:4:4", "--depth", "3", "--format", "json"],
    "beta_sweep_beyond_cap": ["beta-sweep", "--J", "1", "--J1", "1",
                              "--grid", "beta=10:20:2", "--depth", "5"],
    "beta_sweep_no_couplings": ["beta-sweep", "--grid", "beta=1:2:2"],
    # The beta scans take --J and --J1 only; beta comes from the grid.
    "beta_sweep_point_options": ["beta-sweep", "--J", "1", "--J1", "1", "--beta", "5",
                                 "--theta", "3", "--theta1", "9", "--grid", "beta=1:2:2"],
    "beta_sweep_foreign_axis": ["beta-sweep", "--J", "1", "--J1", "1", "--grid", "beta=1:2:2",
                                "--grid", "theta=3:4:2"],
    # F = -rate/(2*beta) at the subnormal grid beta is infinite.
    "beta_sweep_tiny_beta": ["beta-sweep", "--J", "1", "--J1", "1",
                             "--grid", "beta=1e-320:1:2"],
    # beta*J is 1 and beta*2**n does not fit a float; F does.
    "beta_sweep_huge_beta": ["beta-sweep", "--J", "1e-300", "--J1", "1e-300",
                             "--grid", "beta=1e300:2e300:2"],
    # beta=67 overflows theta1**2 before math.exp(2*beta*J1) overflows at beta=100.
    "beta_sweep_inf_root_sum": ["beta-sweep", "--J", "1", "--J1", "5",
                                "--grid", "beta=1:100:4", "--depth", "4"],
    "beta_sweep_nan_root_sum": ["beta-sweep", "--J", "-6", "--J1", "9.9",
                                "--grid", "beta=1:23.06:3", "--depth", "4"],
    "beta_sweep_inf_endpoint": ["beta-sweep", "--J", "1", "--J1", "1",
                                "--grid", "beta=1:inf:3"],
    "ground_state_theta_option": ["ground-state", "--J", "-0.5", "--J1", "1", "--theta", "7",
                                  "--grid", "beta=1:2:2"],
    "ground_state_csv": ["ground-state", "--J", "-0.5", "--J1", "1", "--grid", "beta=1:10:4"],
    "ground_state_depth3_json": ["ground-state", "--J", "-0.4", "--J1", "1",
                                 "--grid", "beta=3:6:2", "--depth", "3", "--format", "json"],
    "ground_state_beyond_cap": ["ground-state", "--J", "1", "--J1", "1",
                                "--grid", "beta=2:3:2", "--depth", "4"],
    "ground_state_theta_overflow": ["ground-state", "--J", "1e300", "--J1", "1",
                                    "--grid", "beta=1:1e10:2"],
    "lemma_check_depth2": ["lemma-check", "--depth", "2"],
    "lemma_check_depth1_csv": ["lemma-check", "--depth", "1", "--format", "csv"],
    "lemma_check_depth0": ["lemma-check", "--depth", "0"],
    "lemma_check_depth3": ["lemma-check", "--depth", "3"],
    "lemma_check_depth4": ["lemma-check", "--depth", "4"],
    "verify_seed0": ["verify", "--seed", "0"],
    # An unknown option before the command is the top-level parser's; one
    # after it is the command's.
    "unknown_option_before_command": ["--foo", "verify"],
    "unknown_option_after_command": ["verify", "--foo"],
}


def run_case(argv: list[str], tmp_dir: Path) -> str:
    """Exit code, stdout, stderr and written files of one CLI call, as text."""
    out_path = tmp_dir / "out"
    argv = [str(out_path) if a == "{out}" else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    sections = [("exit", f"{code}\n"), ("stdout", stdout.getvalue()),
                ("stderr", stderr.getvalue())]
    for path in (out_path, out_path.with_name("out.curve")):
        if path.exists():
            sections.append((path.name, path.read_bytes().decode("utf-8")))
    return "".join(f"--- {name} ({len(text)} chars)\n{text}" for name, text in sections)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.txt").read_bytes().decode("utf-8")
    assert run_case(CASES[name], tmp_path) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(CASES)


def test_negative_exponent_matches_joined_spelling(tmp_path):
    joined = ["fixed-points", "--J=-1e-3", "--J1", "1", "--beta", "1"]
    assert run_case(CASES["fixed_points_negative_exponent"], tmp_path) == run_case(
        joined, tmp_path)


def _rewrite_all() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in sorted(CASES.items()):
        with tempfile.TemporaryDirectory() as tmp:
            text = run_case(argv, Path(tmp))
        (GOLDEN_DIR / f"{name}.txt").write_bytes(text.encode("utf-8"))
        print(f"wrote {name}.txt", file=sys.stderr)


if __name__ == "__main__":
    _rewrite_all()
