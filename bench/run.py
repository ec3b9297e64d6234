"""cbtree benchmark: one workload run, metrics on stdout.

    python3 bench/run.py --workload oracle_sweep --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py``):

* ``oracle_sweep``   depth-3 ``beta-sweep`` and ``ground-state``: full
  2**22-configuration enumerations fanned out over threads.
* ``recursion_grid`` ``phase-diagram``, a depth-4 ``beta-sweep`` and
  wide-range ``fixed-points`` / ``free-energy`` draws: recursion only.
* ``verify_lemma``   ``verify`` and ``lemma-check --depth 3``.

Each run is a fresh worker interpreter with ``CBTREE_THREADS`` pinned to
``THREADS``.  ``--trace 0`` reports the end-to-end metrics:

* ``setup_s``      spawn of an interpreter until ``import cbtree.cli`` is
                   done; median of ``SETUP_SPAWNS`` spawns, half of them
                   before the workload and half after it.
* ``wall_s``       CLI time of one pass (output checks excluded): the sum
                   over operations of each one's median time across passes.
* ``points_per_s`` parameter points completed and checked per pass, over
                   ``wall_s`` (betas, grid cells or draws; for verify_lemma
                   the identity-check draws, configurations and subsets).
* ``peak_rss_mb``  peak resident memory of the worker.

``--trace 1`` reports the per-layer metrics, per pass: per-module self time
(summed over threads, so nested fan-out can exceed the pass time) and call
counts from spans; ``parallel.busy_s``, the run time of fan-out items that
do not fan out again, and ``parallel.queue_wait_s``, the time from fan-out
to item start summed over items; fixed-input probes (``probes.py``); and the
tracing overhead, traced over untraced pass time; and
``known_defects.wide_draw_failures``, the failed operations among a fixed set
of draws over the whole parameter range (``workloads.defect_draws``), which
reach the known float-overflow defects and are therefore not part of a
workload.  Spans of the first traced pass go to
``bench/out/spans-<workload>.jsonl``.

``bench/test_checks.py`` shows that the output checks reject wrong outputs.

The last stdout line is the JSON result.  ``failed`` counts the operations
that raised, returned an unexpected exit code or failed their output check.
``correct`` is false if any operation failed or a traced count did not
repeat exactly.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")

THREADS = 2
SETUP_SPAWNS = 16
WORKER_TIMEOUT_S = 150

_IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                 "import cbtree.cli; print(time.monotonic())")


def measure_setup(env: dict, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC], env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return samples


def run_context(seed: int, numpy_version: str) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = done.stdout.strip() or None
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "CBTREE_THREADS": THREADS,
        "seed": seed,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                    required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "cbtree", "cli.py")):
        print(f"error: no cbtree sources under {SRC}", file=sys.stderr)
        return 2
    # A traced run prints the end-to-end metrics too (from its untraced
    # half), but its result line carries only the per-layer ones.
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    shown = spec["end_to_end"] + spec["per_layer"] if args.trace else wanted

    env = dict(os.environ, CBTREE_THREADS=str(THREADS))
    setup = measure_setup(env, SETUP_SPAWNS // 2)

    os.makedirs(OUT, exist_ok=True)
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", os.path.join(OUT, f"spans-{args.workload}.jsonl")]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    res = json.loads(done.stdout.strip().splitlines()[-1])
    setup += measure_setup(env, SETUP_SPAWNS - len(setup))
    metrics = {"setup_s": [statistics.median(setup), len(setup)], **res["metrics"]}

    missing = [m["name"] for m in shown if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 1

    context = run_context(args.seed, res["numpy"])
    print(f"cbtree benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} passes={res['passes']} "
          f"ops/pass={res['ops_per_pass']}")
    print("context " + json.dumps(context, sort_keys=True))
    print("pass wall_s: " + " ".join(f"{w:.4f}" for w in res["pass_walls"]))
    print(f"{'metric':<46} {'value':>16} {'unit':<6} {'n':>5}")
    for m in shown:
        value, n = metrics[m["name"]]
        print(f"{m['name']:<46} {value:>16.6g} {m['unit']:<6} {n:>5}")
    failed = sum(res["failures"].values())
    for kind, count in sorted(res["failures"].items()):
        print(f"failed op: {count} x {kind}")
    for kind, example in sorted(res["failure_examples"].items()):
        print(f"first {kind} failure: {example}")
    for kind, count in sorted(res["defect_failures"].items()):
        print(f"known-defect draw failed: {count} x {kind}")
    for mismatch in res["count_mismatch"]:
        print(f"count differs between traced passes: {mismatch}")
    correct = failed == 0 and not res["count_mismatch"]
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
