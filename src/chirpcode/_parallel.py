"""Corpus-level parallel map used by encode/benchmark/adapt batches.

``workers(jobs)`` is the one place that starts worker processes: a corpus
call opens one pool for its whole run, every ``pmap`` inside the block
reuses it, and ``pmap`` outside a block runs in this process, on one thread
per CPU the process may use. Each worker runs BLAS on one thread, so
``jobs`` workers keep ``jobs`` CPUs busy; ``concurrency`` says how many
things run at once, so that a corpus is split for them. The products a
corpus call runs in this process, the items ``pmap`` runs here and each
dictionary's ``Dictionary.kernel``, run inside ``blas_on_one_thread`` too,
for two reasons. OpenBLAS splits a large product differently over two
threads than over one, so the rounding, and with it every output, would
otherwise depend on ``jobs`` and on the caller's thread count. And after a
product that woke its second thread, that thread busy-waits for about
0.1 s before it sleeps, on a CPU the workers need.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import functools
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

from .errors import ConfigError

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
    """CHIRPCODE_JOBS if set, else the CPUs this process may use.

    A CHIRPCODE_JOBS that is not an integer >= 1 is a ConfigError, as
    ``--jobs 0`` is.
    """
    env = os.environ.get("CHIRPCODE_JOBS")
    if env:
        try:
            jobs = int(env)
        except ValueError:
            jobs = 0
        if jobs < 1:
            raise ConfigError(f"CHIRPCODE_JOBS must be an integer >= 1, got {env!r}")
        return jobs
    return usable_cpus()


def usable_cpus() -> int:
    """The CPUs this process may use: its affinity mask where the platform
    has one (``taskset`` narrows it), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def concurrency(jobs: int) -> int:
    """How many stacks of a corpus call at ``jobs`` run at once: ``jobs``
    worker processes, or at ``jobs <= 1`` one ``pmap`` thread per usable CPU."""
    return jobs if jobs > 1 else usable_cpus()


@functools.cache
def openblas_threads_function(verb: str):
    """OpenBLAS's ``{verb}_num_threads`` function in the BLAS numpy loaded, or None.

    numpy links its BLAS into ``_multiarray_umath``; a symbol lookup on that
    extension's handle also searches the libraries it depends on. Each verb
    is looked up once, and its answer, None included, kept.
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
def blas_on_one_thread():
    """Run the block with BLAS on one thread, then restore the previous count.

    Without OpenBLAS's thread functions the block runs as it is.
    """
    get_threads = openblas_threads_function("get")
    set_threads = openblas_threads_function("set")
    if get_threads is None or set_threads is None:
        yield
        return
    before = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(before)


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
    """``[fn(*args) for args in items]``, over the pool of the open ``workers`` block.

    With no open block, ``jobs <= 1`` or a single item, everything runs in
    this process, at one BLAS thread as in a worker: on one thread per usable
    CPU, or in the calling thread for one item or one CPU. The earliest
    failing item's error is raised, as in a loop, and cancels the items not
    yet started. The threads are joined before ``pmap`` returns or raises,
    so no later ``workers`` block forks beside them. ``pmap`` never starts a
    process itself.
    """
    items = list(items)
    pool = _open_pool.get()
    if pool is not None and jobs > 1 and len(items) > 1:
        return list(pool.map(fn, *zip(*items)))
    threads = min(len(items), usable_cpus())
    with blas_on_one_thread():
        if threads <= 1:
            return [fn(*args) for args in items]
        with ThreadPoolExecutor(max_workers=threads) as executor:
            return list(executor.map(fn, *zip(*items)))
