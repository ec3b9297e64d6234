"""Order-preserving thread fan-out, capped by the CBTREE_THREADS env var.

``concurrent.futures`` is imported by the first call that fans out."""

import os

ENV_VAR = "CBTREE_THREADS"


def thread_count() -> int:
    """Worker count: CBTREE_THREADS if set, else cpu count capped at 8."""
    raw = os.environ.get(ENV_VAR)
    if raw is not None and raw.strip():
        try:
            n = int(raw)
        except ValueError:
            raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from None
        return max(1, n)
    return min(os.cpu_count() or 1, 8)


def parallel_map(fn, items):
    """Map ``fn`` over ``items``; results come back in input order.

    Callers must keep ``fn`` free of shared mutable state and must reduce
    the returned list in a fixed order, so that every result is independent
    of the worker-thread count.
    """
    items = list(items)
    workers = thread_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
