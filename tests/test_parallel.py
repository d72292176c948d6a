"""Worker pools: one pool per block, one BLAS thread per worker, the default job count."""

import math
import multiprocessing
import os
import time

import pytest

from chirpcode import _parallel
from chirpcode._parallel import default_jobs, openblas_threads_function, pmap, workers


def _worker_state(_):
    # Long enough that both workers of a pool of two take some of the items.
    time.sleep(0.05)
    get_threads = openblas_threads_function("get")
    return os.getpid(), None if get_threads is None else get_threads()


class TestWorkers:
    def test_one_pool_serves_every_pmap_in_a_block(self):
        items = [(i,) for i in range(6)]
        with workers(2):
            first = pmap(_worker_state, items, 2)
            second = pmap(_worker_state, items, 2)
        pids = {pid for pid, _ in first + second}
        assert {pid for pid, _ in first} == {pid for pid, _ in second} == pids
        assert len(pids) == 2 and os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_workers_run_blas_on_one_thread(self):
        if openblas_threads_function("get") is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count function")
        with workers(2):
            states = pmap(_worker_state, [(i,) for i in range(4)], 2)
        assert [threads for _, threads in states] == [1, 1, 1, 1]

    def test_in_process_items_run_blas_on_one_thread(self):
        get_threads = openblas_threads_function("get")
        if get_threads is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count function")
        before = get_threads()
        assert [threads for _, threads in pmap(_worker_state, [(0,), (1,)], 1)] == [1, 1]
        assert [threads for _, threads in pmap(_worker_state, [(0,)], 2)] == [1]
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
        assert [pid for pid, _ in states] == [os.getpid()] * 3
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
