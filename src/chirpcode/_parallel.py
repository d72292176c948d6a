"""Corpus-level parallel map used by encode/benchmark/adapt batches.

A corpus-level call opens one pool for its whole run with ``workers(jobs)``;
every ``pmap`` inside the block reuses it. Each worker runs BLAS on one
thread, so ``jobs`` workers keep ``jobs`` CPUs busy, not ``jobs`` times the
BLAS thread count.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import os
from concurrent.futures import ProcessPoolExecutor

# OpenBLAS's thread-count functions, "{}" being "set" or "get", under the
# names its builds export: numpy's own wheels (scipy-openblas, 64-bit ints)
# first.
_OPENBLAS_SPELLINGS = (
    "scipy_openblas_{}_num_threads64_",
    "scipy_openblas_{}_num_threads",
    "openblas_{}_num_threads64_",
    "openblas_{}_num_threads",
)

# The pool of the innermost open `workers` block in this context, or None.
_open_pool: contextvars.ContextVar = contextvars.ContextVar("chirpcode_pool", default=None)


def default_jobs() -> int:
    """CHIRPCODE_JOBS if set (1 if it is not an integer), else the CPUs this process may use."""
    env = os.environ.get("CHIRPCODE_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def openblas_threads_function(verb: str):
    """OpenBLAS's ``{verb}_num_threads`` function in the BLAS numpy loaded, or None.

    numpy links its BLAS into ``_multiarray_umath``; a symbol lookup on that
    extension's handle also searches the libraries it depends on.
    """
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    try:
        lib = ctypes.CDLL(umath.__file__)
    except OSError:
        return None
    for spelling in _OPENBLAS_SPELLINGS:
        fn = getattr(lib, spelling.format(verb), None)
        if fn is not None:
            if verb == "set":
                fn.argtypes, fn.restype = [ctypes.c_int], None
            else:
                fn.argtypes, fn.restype = [], ctypes.c_int
            return fn
    return None


def _one_blas_thread():
    """Worker initializer: run BLAS on one thread (no-op without OpenBLAS)."""
    set_threads = openblas_threads_function("set")
    if set_threads is not None:
        set_threads(1)


@contextlib.contextmanager
def workers(jobs: int):
    """Open one pool of ``jobs`` single-BLAS-thread workers for the block.

    Every ``pmap`` inside the block reuses it. On exit the pool shuts down
    and its workers are waited for. ``jobs <= 1`` opens nothing.
    """
    if jobs <= 1:
        yield
        return
    # The platform's default start method (fork on Linux before Python
    # 3.14). A spawned worker imports numpy and this package afresh, about
    # 0.7 s for a pool of two on two cores against 0.02 s forked, and every
    # calling script would need a `__main__` guard.
    pool = ProcessPoolExecutor(max_workers=jobs, initializer=_one_blas_thread)
    token = _open_pool.set(pool)
    try:
        yield
    finally:
        _open_pool.reset(token)
        pool.shutdown(wait=True, cancel_futures=True)


def pmap(fn, items, jobs: int):
    """``[fn(*args) for args in items]``; uses worker processes when jobs > 1.

    Inside a ``workers`` block the block's pool runs the items; outside one,
    a pool is opened for this call alone. With ``jobs <= 1`` or a single
    item, everything runs in this process.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(*args) for args in items]
    if _open_pool.get() is None:
        block = workers(min(jobs, len(items)))
    else:
        block = contextlib.nullcontext()
    with block:
        return list(_open_pool.get().map(fn, *zip(*items)))
