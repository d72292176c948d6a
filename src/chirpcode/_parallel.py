"""Corpus-level parallel map used by encode/benchmark/adapt batches."""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor


def default_jobs() -> int:
    env = os.environ.get("CHIRPCODE_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return os.cpu_count() or 1


def pmap(fn, items, jobs: int):
    """``[fn(*args) for args in items]``; uses worker processes when jobs > 1."""
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(*args) for args in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, *zip(*items)))
