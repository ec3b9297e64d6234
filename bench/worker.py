"""One workload run in a fresh interpreter; started by ``run.py``.

Runs the workload's operations in a closed loop with a single client: the
next ``cbtree.cli.main(argv)`` call starts only after the previous one
returned and its output was checked.  A pass is one trip through the
workload's operations; passes repeat until the time budget is spent.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
from collections import Counter
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import cbtree  # noqa: E402
import cbtree.cli  # noqa: E402

from probes import run_probes  # noqa: E402
from tracer import Tracer, write_jsonl  # noqa: E402
from workloads import CheckFailed, build, defect_draws  # noqa: E402

COMMANDS = ("fixed-points", "phase-diagram", "free-energy", "beta-sweep",
            "ground-state", "lemma-check", "verify")
MIN_PASSES = 3


def run_pass(ops, tracer: Tracer | None = None) -> dict:
    """Run every operation once; the times count only the CLI calls."""
    op_walls = []
    points = 0
    failures: list[str] = []
    details: dict[str, str] = {}
    for i, op in enumerate(ops):
        out, err = io.StringIO(), io.StringIO()
        raised = None
        if tracer is not None:
            tracer.op = i
            tracer.active = True
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cbtree.cli.main(list(op.argv))
        except SystemExit as exc:  # argparse refuses the argv
            rc = exc.code
        except Exception as exc:  # the CLI let an exception escape: a failed op
            rc, raised = None, type(exc).__name__
        op_walls.append(perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if raised is not None:
            failures.append(f"raised:{raised}")
        elif rc != op.expect_exit:
            failures.append(f"exit:{rc}")
        else:
            try:
                points += op.check(op, out.getvalue())
            # A malformed output can break the parsing in any of these ways.
            except (CheckFailed, LookupError, ValueError, TypeError, ArithmeticError) as exc:
                kind = f"check:{op.command}"
                failures.append(kind)
                details.setdefault(kind, f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}")
    return {"wall_s": sum(op_walls), "op_walls": op_walls, "points": points,
            "failures": failures, "details": details}


def run_for(ops, seconds: float, min_passes: int, tracer: Tracer | None = None,
            on_pass=None) -> list[dict]:
    """Passes until one more would overrun ``seconds``, at least ``min_passes``."""
    passes = []
    start = perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        passes.append(run_pass(ops, tracer))
        if on_pass is not None:
            on_pass(passes[-1])
        elapsed = perf_counter() - start
        if len(passes) >= min_passes and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def median_pass_s(passes: list[dict]) -> float:
    """Sum over operations of each one's median time across passes.

    A slow spell of the host that hits one operation in one pass does not
    move the result.
    """
    return sum(statistics.median(times) for times in zip(*(p["op_walls"] for p in passes)))


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, int]]:
    """Metric name -> (value, sample count) over untraced passes."""
    n = len(passes)
    wall = median_pass_s(passes)
    return {
        "wall_s": (wall, n),
        "points_per_s": (statistics.median(p["points"] for p in passes) / wall, n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, 1),
    }


def untraced_run(ops, seconds: float) -> dict:
    passes = run_for(ops, seconds, MIN_PASSES)
    return {"passes": passes, "metrics": end_to_end(passes), "count_mismatch": []}


def traced_run(ops, seconds: float, spans_path: str) -> dict:
    """Untraced passes, fixed-input probes, the known-defect draws, then
    traced passes.

    The untraced half also yields the end-to-end metrics, from fewer
    passes.  Counts must repeat exactly from one traced pass to the next;
    times are medians over the traced passes.
    """
    plain = run_for(ops, seconds / 2, MIN_PASSES)
    metrics = end_to_end(plain)
    probes = run_probes()
    defect_ops = defect_draws()
    defects = run_pass(defect_ops)
    probes["known_defects.wide_draw_failures"] = (len(defects["failures"]), len(defect_ops))
    tracer = Tracer()
    tracer.install()
    summaries: list[dict] = []
    first_spans: list[tuple] = []
    commands = [op.command for op in ops]

    def keep(_pass):
        summaries.append(tracer.summary(commands))
        if not first_spans:
            first_spans.extend(tracer.spans)

    try:
        traced = run_for(ops, seconds / 2, MIN_PASSES, tracer=tracer, on_pass=keep)
    finally:
        tracer.uninstall()
    write_jsonl(first_spans, spans_path)

    count_mismatch = []
    n = len(summaries)
    for key in summaries[0].keys() | {f"cli.main.{c}_s" for c in COMMANDS}:
        values = [s.get(key, 0) for s in summaries]
        if key.endswith("_s"):
            metrics[key] = (statistics.median(values), n)
        else:
            if len(set(values)) != 1:
                count_mismatch.append(f"{key}: {values}")
            metrics[key] = (values[0], n)
    metrics.update(probes)
    overhead = median_pass_s(traced) / median_pass_s(plain)
    metrics["trace_overhead"] = (overhead, min(len(plain), len(traced)))
    return {"passes": plain + traced, "metrics": metrics, "count_mismatch": count_mismatch,
            "defect_failures": Counter(defects["failures"])}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spans-out", required=True)
    args = ap.parse_args()

    if not os.path.abspath(cbtree.__file__).startswith(SRC + os.sep):
        print(f"cbtree imported from {cbtree.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    ops = build(args.workload, args.seed)
    if args.trace:
        res = traced_run(ops, args.seconds, args.spans_out)
    else:
        res = untraced_run(ops, args.seconds)
    failures = Counter(f for p in res["passes"] for f in p["failures"])
    details = {}
    for p in res["passes"]:
        details.update(p["details"])
    print(json.dumps({
        "ops_per_pass": len(ops),
        "passes": len(res["passes"]),
        "pass_walls": [p["wall_s"] for p in res["passes"]],
        "attempted": len(res["passes"]) * len(ops),
        "failures": dict(failures),
        "failure_examples": details,
        "count_mismatch": res["count_mismatch"],
        "defect_failures": dict(res.get("defect_failures", {})),
        "metrics": {k: list(v) for k, v in res["metrics"].items()},
        "numpy": np.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
