"""Fixed-input probes: one layer entry point at a time, inputs independent of
the workload seed.  Each timing is the median of ``REPS`` calls."""

from __future__ import annotations

import math
import os
import statistics
import tracemalloc
from time import perf_counter

import numpy as np

from cbtree import exact_oracle, model
from cbtree.field_recursion import propagate_inward, ti_fixed_points
from cbtree.free_energy import log_partition_recursive
from cbtree.model import ModelParams
from cbtree.parallel import ENV_VAR, parallel_map
from cbtree.topology import build_tree, connected_subsets

REPS = 3


def _median_s(fn, reps: int = REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def _with_threads(n: int, fn):
    saved = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = str(n)
    try:
        return fn()
    finally:
        if saved is None:
            del os.environ[ENV_VAR]
        else:
            os.environ[ENV_VAR] = saved


def run_probes() -> dict[str, tuple[float, int]]:
    """Probe name -> (value, sample count), at the pinned thread count unless
    the name says otherwise."""
    params = ModelParams.from_thetas(5.0, 2.0)  # three-solution regime
    h3 = ti_fixed_points(params).h3
    tree3 = build_tree(3, "full")
    block = np.arange(1 << 20, dtype=np.int64)
    out: dict[str, tuple[float, int]] = {}

    def ln_z():
        return exact_oracle.log_partition(tree3, params, h3)

    out["exact_oracle.log_partition.t1_s"] = (_with_threads(1, lambda: _median_s(ln_z)), REPS)
    out["exact_oracle.log_partition.t2_s"] = (_with_threads(2, lambda: _median_s(ln_z)), REPS)

    def peak_alloc():
        tracemalloc.start()
        try:
            ln_z()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    out["exact_oracle.log_partition.peak_alloc_mb"] = (_with_threads(1, peak_alloc), 1)

    t = _median_s(lambda: model.sufficient_stats_batch(tree3, block))
    out["model.sufficient_stats_batch.configs_per_s"] = (block.size / t, REPS)
    t = _median_s(lambda: exact_oracle.log_weights(tree3, params, h3, block))
    out["exact_oracle.log_weights.configs_per_s"] = (block.size / t, REPS)

    fields3 = propagate_inward(tree3, params, h3)
    out["exact_oracle.check_consistency_s"] = (
        _median_s(lambda: exact_oracle.check_consistency(params, fields3)), REPS)

    points = [ModelParams.from_thetas(t, t1)
              for t1 in np.linspace(1.2, 4.0, 50) for t in np.linspace(0.5, 8.0, 50)]
    t = _median_s(lambda: [ti_fixed_points(p) for p in points])
    out["field_recursion.ti_fixed_points.per_s"] = (len(points) / t, REPS)

    tree12 = build_tree(12, "full")
    out["field_recursion.propagate_inward.d12_s"] = (
        _median_s(lambda: propagate_inward(tree12, params, h3)), REPS)
    fields12 = propagate_inward(tree12, params, h3)
    out["free_energy.log_partition_recursive.d12_s"] = (
        _median_s(lambda: log_partition_recursive(params, fields12)), REPS)

    count = sum(1 for _ in connected_subsets(tree3, max_count=10**6))
    t = _median_s(lambda: sum(1 for _ in connected_subsets(tree3, max_count=10**6)))
    out["topology.connected_subsets.per_s"] = (count / t, REPS)

    calls = 200

    def fan_out_us():
        samples = []
        for _ in range(calls):
            t0 = perf_counter()
            parallel_map(math.sqrt, (1.0, 2.0))
            samples.append(perf_counter() - t0)
        return statistics.median(samples) * 1e6

    out["parallel.parallel_map.overhead_us"] = (fan_out_us(), calls)
    return out
