"""Fresh-process cost of the cbtree CLI: two source trees, alternated.

    python3 tools/fresh_cli.py OLD_SRC NEW_SRC --pairs 10

Each case runs in a new interpreter with ``PYTHONPATH`` set to one tree;
its time is the wall time from the spawn to the exit of that interpreter,
as a user of the ``cbtree`` entry point pays it, and its memory is the
interpreter's peak resident set (``ru_maxrss`` from ``os.wait4``, in kB on
Linux).  Each pair runs every case once per tree, the tree order flipping
from pair to pair.  The JSON on
stdout holds, per case, the median and quartiles of each tree in ms and in
MB of peak RSS, the median over pairs of the ratio new/old of each, how
many pairs the new tree was faster in, and whether both trees gave the same
exit code and stdout in every run.

Bytecode caches change these times a lot: record whether each tree holds
``__pycache__`` and whether ``PYTHONDONTWRITEBYTECODE`` is set (both are in
the output).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

# What the ``cbtree`` console script runs.
_ENTRY = "import sys; from cbtree.cli import main; sys.exit(main())"

CASES = {
    "import cbtree.cli": ["-c", "import cbtree.cli"],
    "fixed-points": ["fixed-points", "--J", "0.7", "--J1", "1.1", "--beta", "2.3",
                     "--format", "json"],
    "free-energy": ["free-energy", "--J", "0.7", "--J1", "1.1", "--beta", "2.3"],
    "phase-diagram 20x20": ["phase-diagram", "--grid", "theta1=1.8:4.0:20",
                            "--grid", "theta=0.2:6.1:20"],
    "beta-sweep depth 3": ["beta-sweep", "--J", "0.41", "--J1", "1.13",
                           "--grid", "beta=1.4:30.3:4", "--depth", "3"],
    "ground-state depth 3": ["ground-state", "--J", "-0.53", "--J1", "1.13",
                             "--grid", "beta=7.2:44.6:2", "--depth", "3"],
    "lemma-check --depth 2": ["lemma-check", "--depth", "2"],
    "verify --seed 0": ["verify", "--seed", "0"],
    "--help": ["--help"],
    "usage error": ["fixed-points", "--theta", "5", "--theta1", "2", "--bogus"],
}


def run_once(src: str, args: list[str]) -> tuple[float, float, int, bytes]:
    """Wall seconds, peak RSS in MB, exit code and stdout of one fresh run."""
    argv = args if args[0] == "-c" else ["-c", _ENTRY, *args]
    env = dict(os.environ, PYTHONPATH=src)
    t0 = time.perf_counter()
    child = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL)
    with child.stdout:
        out = child.stdout.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return wall, usage.ru_maxrss / 1024, child.returncode, out


def quartiles(xs: list[float]) -> list[float]:
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [round(q1, 2), round(q2, 2), round(q3, 2)]


def has_pycache(src: str) -> bool:
    return any("__pycache__" in dirs for _, dirs, _ in os.walk(src))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    trees = {"old": args.old_src, "new": args.new_src}
    bytecode = {name: {"pycache": has_pycache(src)} for name, src in trees.items()}
    trees_abs = {name: os.path.abspath(src) for name, src in trees.items()}

    times = {case: {"old": [], "new": []} for case in CASES}
    rss = {case: {"old": [], "new": []} for case in CASES}
    same = {case: True for case in CASES}
    exits = {}
    for k in range(args.pairs):
        order = ("old", "new") if k % 2 == 0 else ("new", "old")
        for case, case_args in CASES.items():
            seen = {}
            for name in order:
                wall, peak_mb, code, out = run_once(trees_abs[name], case_args)
                times[case][name].append(wall * 1e3)
                rss[case][name].append(peak_mb)
                seen[name] = (code, out)
            same[case] &= seen["old"] == seen["new"]
            exits[case] = seen["new"][0]

    cases = {}
    for case, t in times.items():
        ratios = [n / o for o, n in zip(t["old"], t["new"])]
        m = rss[case]
        cases[case] = {
            "argv": CASES[case],
            "exit": exits[case],
            "same_exit_and_stdout": same[case],
            "old_ms_q1_median_q3": quartiles(t["old"]),
            "new_ms_q1_median_q3": quartiles(t["new"]),
            "ratio_median": round(statistics.median(ratios), 3),
            "new_faster_pairs": sum(r < 1.0 for r in ratios),
            "old_peak_rss_mb_q1_median_q3": quartiles(m["old"]),
            "new_peak_rss_mb_q1_median_q3": quartiles(m["new"]),
            "rss_ratio_median": round(statistics.median(
                n / o for o, n in zip(m["old"], m["new"])), 3),
        }
    print(json.dumps({
        "trees": trees,
        "pairs": args.pairs,
        "python": platform.python_version(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "bytecode_at_start": bytecode,
        "cases": cases,
    }, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
