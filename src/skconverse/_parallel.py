"""Optional thread-level parallelism, capped by SKCONVERSE_THREADS."""

from __future__ import annotations

import os
from typing import Callable, Sequence


def worker_count() -> int:
    raw = os.environ.get("SKCONVERSE_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        n = 1
    return max(1, n)


def parallel_map(fn: Callable, items: Sequence) -> list:
    """Order-preserving map; runs serially unless SKCONVERSE_THREADS > 1."""
    workers = worker_count()
    if workers <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    from concurrent.futures import ThreadPoolExecutor  # only threaded runs pay its import

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
