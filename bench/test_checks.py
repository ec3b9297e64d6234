"""Negative tests for the benchmark's output checks.

A wrong number, a wrong regime tag or a wrong exit code must each count as
a failed operation.  Run with ``python3 bench/test_checks.py`` or
``python3 -m pytest bench/test_checks.py`` from the repository root.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import worker  # noqa: E402  (puts src/ on the path and imports cbtree.cli)
import cbtree.cli  # noqa: E402
from workloads import (  # noqa: E402
    LEMMA_DEPTH3, Op, _expected_regime, build, check_beta_sweep, check_lemma_depth3,
    check_phase_diagram,
)


@contextlib.contextmanager
def cli_output(transform=lambda text: text, exit_code=None):
    """Run the real CLI, then hand the pass a transformed stdout/exit code."""
    real = cbtree.cli.main

    def fake(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = real(argv)
        sys.stdout.write(transform(buf.getvalue()))
        return rc if exit_code is None else exit_code

    cbtree.cli.main = fake
    try:
        yield
    finally:
        cbtree.cli.main = real


SWEEP = Op(("beta-sweep", "--J", "1.0", "--J1", "1.0", "--grid", "beta=1:5:3",
            "--depth", "2"), 0, check_beta_sweep)
PHASE = Op(("phase-diagram", "--grid", "theta1=1.2:4:8", "--grid", "theta=0.5:8:8"),
           0, check_phase_diagram)


def _perturb_mass_plus(text: str) -> str:
    lines = text.split("\n")
    for i, line in enumerate(lines):
        cells = line.split(",")
        if len(cells) == 9 and cells[-1] and cells[0][:1].isdigit():
            cells[-1] = repr(float(cells[-1]) * (1.0 + 1e-6))
            lines[i] = ",".join(cells)
            return "\n".join(lines)
    raise AssertionError("no mass_plus value to perturb")


def _flip_first_three(text: str) -> str:
    assert ",three," in text
    return text.replace(",three,", ",unique,", 1)


def test_untouched_outputs_pass():
    res = worker.run_pass([SWEEP, PHASE])
    assert res["failures"] == [], res["details"]
    assert res["points"] == 3 + 64


def test_draws_spelled_flag_equals_value_pass():
    draws = build("recursion_grid", 0)[2:22]
    assert all("=" in op.argv[1] for op in draws)
    res = worker.run_pass(draws)
    assert res["failures"] == [], res["details"]
    assert res["points"] == len(draws)


def test_perturbed_mass_plus_fails():
    with cli_output(_perturb_mass_plus):
        res = worker.run_pass([SWEEP])
    assert res["failures"] == ["check:beta-sweep"], res
    assert "mass_plus" in res["details"]["check:beta-sweep"]


def test_wrong_regime_fails():
    with cli_output(_flip_first_three):
        res = worker.run_pass([PHASE])
    assert res["failures"] == ["check:phase-diagram"], res


def test_lemma_check_exit_zero_fails():
    canned = json.dumps(dict(LEMMA_DEPTH3, clean=False)) + "\n"
    op = Op(("lemma-check", "--depth", "0"), 1, check_lemma_depth3)
    with cli_output(lambda _text: canned, exit_code=1):
        assert worker.run_pass([op])["failures"] == []
    with cli_output(lambda _text: canned, exit_code=0):
        assert worker.run_pass([op])["failures"] == ["exit:0"]


def test_log_space_regime_matches_direct_formula():
    rng = np.random.default_rng(0)
    for theta, theta1 in rng.uniform(0.05, 10.0, (2000, 2)):
        expected = _expected_regime(math.log(theta), math.log(theta1))
        if expected is None:
            continue
        three = theta1 > math.sqrt(3.0) and theta > 2 * theta1 / (theta1 * theta1 - 3.0)
        assert expected == ("three" if three else "unique"), (theta, theta1)


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
