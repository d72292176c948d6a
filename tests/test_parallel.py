"""Worker pools: one pool per block, one BLAS thread per worker, in-process
threads, the default job count."""

import math
import multiprocessing
import os
import threading
import time

import pytest

from chirpcode import _parallel
from chirpcode._parallel import default_jobs, openblas_threads_function, pmap, workers


def _blas_threads():
    get_threads = openblas_threads_function("get")
    return None if get_threads is None else get_threads()


def _worker_state(_):
    """The process, the thread and the BLAS thread count an item ran at."""
    # Long enough that both workers of a pool of two take some of the items.
    time.sleep(0.05)
    return os.getpid(), threading.get_ident(), _blas_threads()


def _after(delay, value):
    """``value`` after ``delay`` seconds, or, if it is an exception, raise it then."""
    time.sleep(delay)
    if isinstance(value, Exception):
        raise value
    return value


class TestWorkers:
    def test_one_pool_serves_every_pmap_in_a_block(self):
        items = [(i,) for i in range(6)]
        with workers(2):
            first = pmap(_worker_state, items, 2)
            second = pmap(_worker_state, items, 2)
        pids = {pid for pid, *_ in first + second}
        assert {pid for pid, *_ in first} == {pid for pid, *_ in second} == pids
        assert len(pids) == 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_workers_run_blas_on_one_thread(self):
        if openblas_threads_function("get") is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count function")
        with workers(2):
            states = pmap(_worker_state, [(i,) for i in range(4)], 2)
        assert [threads for *_, threads in states] == [1, 1, 1, 1]

    def test_in_process_items_run_blas_on_one_thread(self):
        get_threads = openblas_threads_function("get")
        if get_threads is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count function")
        before = get_threads()
        assert [threads for *_, threads in pmap(_worker_state, [(0,), (1,)], 1)] == [1, 1]
        assert [threads for *_, threads in pmap(_worker_state, [(0,)], 2)] == [1]
        with pytest.raises(ValueError):
            pmap(math.sqrt, [(-1.0,)], 1)
        assert get_threads() == before

    def test_blas_functions_are_looked_up_once_per_verb(self, monkeypatch):
        """After the first lookup, no entry into the one-thread block reloads
        numpy's extension; the answer, None included, is the same."""
        found = {verb: openblas_threads_function(verb) for verb in ("get", "set")}

        def no_reload(*args, **kwargs):
            raise AssertionError("numpy's extension was loaded again")

        monkeypatch.setattr(_parallel.ctypes, "CDLL", no_reload)
        with _parallel.blas_on_one_thread():
            assert pmap(math.sqrt, [(4.0,), (9.0,)], 1) == [2.0, 3.0]
        assert {verb: openblas_threads_function(verb) for verb in found} == found

    def test_pmap_outside_a_block_runs_in_this_process(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("pmap started a pool outside a workers block")

        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", no_pool)
        states = pmap(_worker_state, [(0,), (1,), (2,)], 2)
        assert [pid for pid, *_ in states] == [os.getpid()] * 3
        assert pmap(math.sqrt, [(4.0,), (9.0,)], 2) == [2.0, 3.0]
        assert multiprocessing.active_children() == []
        assert _parallel._open_pool.get() is None

    def test_serial_paths_open_no_pool(self):
        with workers(1):
            assert _parallel._open_pool.get() is None
            assert pmap(math.sqrt, [(4.0,), (9.0,)], 1) == [2.0, 3.0]
        assert pmap(_worker_state, [(0,)], 2)[0][0] == os.getpid()

    def test_error_in_a_worker_closes_the_pool(self):
        with pytest.raises(ValueError):
            with workers(2):
                pmap(math.sqrt, [(4.0,), (-1.0,), (9.0,)], 2)
        assert multiprocessing.active_children() == []
        assert _parallel._open_pool.get() is None


class TestInProcessThreads:
    """``pmap`` outside a ``workers`` block: one thread per usable CPU, each
    at one BLAS thread, joined before it returns."""

    def test_items_run_on_a_thread_per_cpu(self, cpus):
        cpus(2)
        before, active = _blas_threads(), threading.active_count()
        states = pmap(_worker_state, [(i,) for i in range(4)], 1)
        assert {pid for pid, *_ in states} == {os.getpid()}
        idents = {ident for _, ident, _ in states}
        assert len(idents) == 2 and threading.get_ident() not in idents
        assert [threads for *_, threads in states] == [None if before is None else 1] * 4
        assert threading.active_count() == active
        assert _blas_threads() == before

    def test_one_cpu_or_one_item_runs_in_the_calling_thread(self, cpus):
        cpus(1)
        states = pmap(_worker_state, [(0,), (1,)], 1)
        assert {ident for _, ident, _ in states} == {threading.get_ident()}
        cpus(2)
        assert pmap(_worker_state, [(0,)], 1)[0][1] == threading.get_ident()

    def test_results_come_back_in_item_order(self, cpus):
        cpus(2)
        # The later items finish first.
        items = [(0.04 - 0.01 * i, i) for i in range(4)]
        assert pmap(_after, items, 1) == [0, 1, 2, 3]

    def test_the_earliest_failing_item_raises_and_the_threads_are_joined(self, cpus):
        cpus(2)
        before, active = _blas_threads(), threading.active_count()
        # Item 2 fails first in time; item 1 is the earlier of the two in order.
        items = [(0.0, "ok"), (0.05, ValueError("item 1")), (0.0, ValueError("item 2"))]
        with pytest.raises(ValueError, match="^item 1$"):
            pmap(_after, items, 1)
        assert threading.active_count() == active
        assert _blas_threads() == before


class TestDefaultJobs:
    def test_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv("CHIRPCODE_JOBS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_jobs() == 3

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delenv("CHIRPCODE_JOBS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert default_jobs() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert default_jobs() == 1

    def test_environment_overrides_affinity(self, monkeypatch):
        monkeypatch.setenv("CHIRPCODE_JOBS", "7")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_jobs() == 7
