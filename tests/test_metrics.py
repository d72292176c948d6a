"""SNR, sparsity, and benchmark aggregation."""

import collections
import csv
import dataclasses
import json
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpcode import (
    AudioIngestError,
    ConfigError,
    LcaConfig,
    SignalError,
    SparseCode,
    Utterance,
    benchmark,
    encode,
    energy,
    init_gammatone_dictionary,
    reconstruct,
    snr,
    sparsity,
)
from chirpcode import dictionary, metrics
from chirpcode._parallel import workers
from chirpcode.metrics import (
    corpus_stacks,
    write_report_csv,
    write_report_json,
    write_summary_csv,
    write_summary_json,
)

from conftest import random_toy_dictionary
from oracles import formant_corpus


class TestSnr:
    def test_perfect_reconstruction_is_infinite(self, rng):
        s = rng.standard_normal(100)
        assert snr(s, s.copy()) == math.inf

    def test_zero_reconstruction_is_zero_db(self, rng):
        s = rng.standard_normal(100)
        assert snr(s, np.zeros(100)) == pytest.approx(0.0, abs=1e-12)

    def test_noise_at_minus_20db_power(self, rng):
        # residual power is exactly ||s||^2 / 100, so the ratio is 20 dB
        s = rng.standard_normal(256)
        assert snr(s, s + s / 10.0) == pytest.approx(20.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(k=st.floats(min_value=1e-3, max_value=1e3).filter(lambda x: x != 0))
    def test_scale_invariance(self, k):
        rng = np.random.default_rng(99)
        s = rng.standard_normal(64)
        s_hat = s + 0.1 * rng.standard_normal(64)
        assert snr(k * s, k * s_hat) == pytest.approx(snr(s, s_hat), abs=1e-12)

    def test_zero_reference_rejected(self):
        with pytest.raises(SignalError):
            snr(np.zeros(10), np.ones(10))

    def test_length_mismatch_rejected(self):
        with pytest.raises(SignalError):
            snr(np.ones(10), np.ones(11))


class TestSparsity:
    def test_empty(self):
        assert sparsity(SparseCode.from_dense(np.zeros((2, 2)), lam=0.0)) == 0

    def test_three_events(self):
        dense = np.zeros((2, 3))
        dense[0, 0] = 1.0
        dense[1, 1] = -2.0
        dense[1, 2] = 0.5
        assert sparsity(SparseCode.from_dense(dense, lam=0.0)) == 3


def _corpus_for(d, rng, n=3):
    corpus = []
    length = 3 * d.filter_len
    for i in range(n):
        s = np.zeros(length)
        for _ in range(2):
            ch = int(rng.integers(d.n_channels))
            t = int(rng.integers((length - d.filter_len) // d.stride + 1))
            s[t * d.stride : t * d.stride + d.filter_len] += 0.4 * d.atoms[ch]
        peak = np.max(np.abs(s))
        if peak > 1.0:
            s /= peak * 1.05
        corpus.append(Utterance(id=f"utt{i}", samples=s, sample_rate=d.sample_rate))
    return corpus


class TestBenchmark:
    def test_single_row_matches_direct_calls(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        corpus = _corpus_for(d, rng, n=1)
        lca_cfg = LcaConfig(lam=0.03)
        report = benchmark(corpus, [("base", d)], lca_cfg)
        assert len(report.rows) == 1
        name, row = report.rows[0]
        code, _ = encode(corpus[0].samples, d, lca_cfg)
        recon = reconstruct(d, code, length=len(corpus[0].samples))
        assert name == "base"
        assert row.snr_db == snr(corpus[0].samples, recon)
        assert row.active_count == code.n_events
        assert row.energy == energy(corpus[0].samples, code, d, lca_cfg.lam)

    def test_identical_dictionaries_identical_rows(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        corpus = _corpus_for(d, rng)
        report = benchmark(corpus, [("a", d), ("b", d)], LcaConfig(lam=0.03))
        rows_a = [r for n, r in report.rows if n == "a"]
        rows_b = [r for n, r in report.rows if n == "b"]
        for ra, rb in zip(rows_a, rows_b):
            assert (ra.snr_db, ra.active_count, ra.energy) == (
                rb.snr_db, rb.active_count, rb.energy,
            )
        assert report.summaries[0].mean_snr_db == report.summaries[1].mean_snr_db

    def test_means_match_independent_summation(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        corpus = _corpus_for(d, rng, n=4)
        report = benchmark(corpus, [("base", d)], LcaConfig(lam=0.03))
        finite = [r.snr_db for _, r in report.rows if not math.isinf(r.snr_db)]
        counts = [r.active_count for _, r in report.rows]
        s = report.summaries[0]
        assert s.mean_snr_db == pytest.approx(sum(finite) / len(finite), rel=1e-12)
        assert s.mean_active_count == pytest.approx(sum(counts) / len(counts), rel=1e-12)
        assert s.n_utterances == 4

    def test_partial_results_on_member_failure(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        corpus = _corpus_for(d, rng, n=2)
        corpus.append(Utterance(id="tooshort", samples=np.ones(4) * 0.1,
                                sample_rate=d.sample_rate))
        report = benchmark(corpus, [("base", d)], LcaConfig(lam=0.03))
        assert report.partial
        assert len(report.failures) == 1
        assert report.failures[0][1] == "tooshort"
        assert report.summaries[0].n_utterances == 2

    def test_infinite_snr_excluded_from_mean(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        corpus = _corpus_for(d, rng, n=2)
        # an utterance built from one atom with a huge coefficient is recovered
        # exactly, giving an infinite-SNR row
        s = np.zeros(3 * d.filter_len)
        s[: d.filter_len] = 0.9 * d.atoms[0]
        corpus.append(Utterance(id="exact", samples=s, sample_rate=d.sample_rate))
        report = benchmark(corpus, [("base", d)], LcaConfig(lam=0.01, max_iters=4000,
                                                            rel_tol=0.0))
        s_summary = report.summaries[0]
        inf_rows = [r for _, r in report.rows if math.isinf(r.snr_db)]
        if inf_rows:
            assert s_summary.n_snr_excluded == len(inf_rows)
            assert math.isfinite(s_summary.mean_snr_db)

    def test_jobs_do_not_change_rows(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        d2 = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        corpus = _corpus_for(d, rng, n=4)
        corpus.append(Utterance(id="tooshort", samples=np.ones(4) * 0.1,
                                sample_rate=d.sample_rate))
        serial, parallel = (
            benchmark(corpus, [("a", d), ("b", d2)], LcaConfig(lam=0.03), jobs=jobs)
            for jobs in (1, 2)
        )
        assert len(serial.rows) == 8 and len(serial.failures) == 2
        assert parallel.rows == serial.rows
        assert parallel.failures == serial.failures
        assert parallel.summaries == serial.summaries
        assert multiprocessing.active_children() == []

    def test_jobs_do_not_change_rows_on_a_threaded_bank(self):
        """256 channels at 48 kHz: OpenBLAS threads these products, and rounds
        them differently over two threads than over one. Jobs 1 solves both
        utterances in this process, jobs 2 one in each worker. The bank's
        kernel applies its range factors (r = 138 of 256)."""
        d = init_gammatone_dictionary(256, 20.0, 21600.0, 512, 256, 48000)
        assert d.kernel.factors is not None
        corpus = [Utterance(id=f"u{i}", samples=s, sample_rate=48000)
                  for i, s in enumerate(formant_corpus(3, 2, sample_rate=48000))]
        lca_cfg = LcaConfig(lam=0.01, eta=0.01, max_iters=40)
        serial, parallel = (benchmark(corpus, [("a", d)], lca_cfg, jobs=jobs) for jobs in (1, 2))
        assert len(serial.rows) == 2 and not serial.failures
        assert parallel.rows == serial.rows
        assert parallel.summaries == serial.summaries

    def test_rows_do_not_depend_on_the_stacks(self, rng, monkeypatch):
        """Two frame counts, an utterance too short for one frame, and stacks
        from one per utterance to one per frame count, at one and two jobs:
        the rows, failures and summaries are the same."""
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        d2 = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        corpus = _corpus_for(d, rng, n=5)
        corpus[1:3] = [Utterance(id=u.id, samples=u.samples[:80], sample_rate=u.sample_rate)
                       for u in corpus[1:3]]
        corpus.insert(2, Utterance(id="tooshort", samples=np.ones(4) * 0.1,
                                   sample_rate=d.sample_rate))
        reports = []
        for elements, jobs in ((metrics.STACK_ELEMENTS, 1), (metrics.STACK_ELEMENTS, 2),
                               (1, 1), (4 * 4, 1)):
            monkeypatch.setattr(metrics, "STACK_ELEMENTS", elements)
            reports.append(benchmark(corpus, [("a", d), ("b", d2)], LcaConfig(lam=0.03),
                                     jobs=jobs))
        assert len(reports[0].rows) == 10 and len(reports[0].failures) == 2
        assert [row.id for _, row in reports[0].rows[:5]] == [
            "utt0", "utt1", "utt2", "utt3", "utt4"]
        for report in reports[1:]:
            assert report.rows == reports[0].rows
            assert report.failures == reports[0].failures
            assert report.summaries == reports[0].summaries

    def test_geometry_mismatch_rejected(self, rng):
        d1 = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        d2 = random_toy_dictionary(rng, n_channels=4, filter_len=16, stride=8)
        with pytest.raises(ConfigError):
            benchmark(_corpus_for(d1, rng), [("a", d1), ("b", d2)], LcaConfig(lam=0.03))

    def test_empty_corpus_and_an_id_given_twice_rejected(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        corpus = _corpus_for(d, rng)
        corpus[2] = Utterance(id="utt0", samples=corpus[2].samples, sample_rate=d.sample_rate)
        with pytest.raises(AudioIngestError, match=r"^duplicate utterance ids: \['utt0'\]$"):
            benchmark(corpus, [("base", d)], LcaConfig(lam=0.03))
        with pytest.raises(ConfigError, match="^corpus is empty$"):
            benchmark([], [("base", d)], LcaConfig(lam=0.03))

    def test_writers_produce_parseable_files(self, rng, tmp_path):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        corpus = _corpus_for(d, rng)
        report = benchmark(corpus, [("base", d)], LcaConfig(lam=0.03))

        write_report_csv(report, tmp_path / "report.csv")
        write_summary_csv(report, tmp_path / "summary.csv")
        write_report_json(report, tmp_path / "report.json")
        write_summary_json(report, tmp_path / "summary.json")

        with open(tmp_path / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["dictionary", "utterance", "snr_db", "active_count", "n_frames"]
        assert len(rows) == 1 + len(report.rows)

        with open(tmp_path / "summary.csv") as fh:
            rows = [r for r in csv.reader(fh) if not r[0].startswith("#")]
        assert rows[0][:4] == ["dictionary", "mean_snr_db", "mean_active_count",
                               "n_utterances"]

        payload = json.loads((tmp_path / "report.json").read_text())
        assert len(payload["rows"]) == len(report.rows)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["summaries"][0]["dictionary"] == "base"


def _dictionary_as_received(ids, stack_signals, d):
    """What a stack's fn sees of ``d``: its process, whether the kernel came
    cached, and whether the parameter, atom and kernel arrays are writable."""
    arrays = [d.f, d.b, d.c, d.l, d.atoms]
    writable = [a.flags.writeable for a in arrays]
    cached = "kernel" in vars(d)
    return [(os.getpid(), cached, writable, d.kernel.lags.flags.writeable) for _ in ids]


class TestCorpusSignals:
    def test_a_rate_is_compared_without_truncating(self):
        """An item that declares 16000.7 Hz is not a 16000 Hz utterance."""
        Utt = collections.namedtuple("Utt", "id samples sample_rate")
        with pytest.raises(ConfigError, match="^utterance 'a' has rate 16000.7, expected 16000$"):
            metrics.corpus_signals([Utt("a", np.zeros(400), 16000.7)], 16000)
        ids, _ = metrics.corpus_signals([Utt("a", np.zeros(400), 16000.0)], 16000)
        assert ids == ["a"]


def _factors_as_received(ids, stack_signals, d):
    """A stack's process, whether ``d.kernel`` came with its factors, and the
    factors, which must be read-only."""
    cached = "factors" in vars(d.kernel)
    u, m = d.kernel.factors
    return [(os.getpid(), cached, u.flags.writeable or m.flags.writeable, u, m) for _ in ids]


class TestMapStacks:
    def test_one_kernel_per_call_built_before_the_map(self, rng, monkeypatch):
        """map_stacks builds d.kernel once, at one BLAS thread, before any
        stack runs, and restores the caller's thread count. Every stack gets
        d with that kernel cached, right after its signals."""
        from chirpcode._parallel import openblas_threads_function

        get_threads = openblas_threads_function("get") or (lambda: None)
        before = get_threads()
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        signals = TestCorpusStacks()._signals(d, [3, 5, 3])
        kernels, threads = [], []

        def spying(dd, original=dictionary.gram_kernel):
            threads.append(get_threads())
            kernels.append(original(dd))
            return kernels[-1]

        def fn(ids, stack_signals, dd, extra):
            return [(uid, dd, vars(dd).get("kernel"), extra) for uid in ids]

        monkeypatch.setattr(dictionary, "gram_kernel", spying)
        results = metrics.map_stacks(fn, ["a", "b", "c"], signals, d, 1, "x")
        assert threads == [None if before is None else 1]
        assert get_threads() == before
        assert [uid for uid, *_ in results] == ["a", "b", "c"]
        assert all(dd is d and kernel is kernels[0] and extra == "x"
                   for _, dd, kernel, extra in results)

    def test_one_job_runs_a_stack_per_cpu_on_threads(self, rng, cpus):
        """At one job, map_stacks splits a frame count into a stack per CPU
        this process may use and solves them in this process; the results
        come back in corpus order."""
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        signals = TestCorpusStacks()._signals(d, [3] * 4)

        def fn(ids, stack_signals, dd):
            return [(uid, tuple(ids), os.getpid()) for uid in ids]

        for n, stacks in ((1, [tuple("abcd")]), (2, [tuple("ab"), tuple("cd")])):
            cpus(n)
            results = metrics.map_stacks(fn, list("abcd"), signals, d, 1)
            assert [uid for uid, *_ in results] == list("abcd")
            assert sorted({ids for _, ids, _ in results}) == stacks
            assert {pid for *_, pid in results} == {os.getpid()}

    def test_kernel_bits_do_not_depend_on_the_callers_blas_threads(self):
        """On a 700-channel 16 kHz bank, where a product split over two
        OpenBLAS threads rounds differently from one, the d.kernel map_stacks
        hands to fn is the same with the caller at one and at two threads."""
        from chirpcode import default_bounds, init_gammatone_dictionary
        from chirpcode._parallel import openblas_threads_function

        get_threads = openblas_threads_function("get")
        set_threads = openblas_threads_function("set")
        if get_threads is None or set_threads is None:
            pytest.skip("numpy's BLAS exports no OpenBLAS thread-count function")
        d = init_gammatone_dictionary(700, *default_bounds(16000).f, 256, 128, 16000)

        def fn(ids, stack_signals, dd):
            return [dd.kernel.lags for _ in ids]

        before = get_threads()
        lags = []
        try:
            for threads in (1, 2):
                set_threads(threads)
                # A new dictionary each time, so each builds its own kernel.
                fresh = dataclasses.replace(d)
                lags += metrics.map_stacks(fn, ["u"], [np.zeros(4000)], fresh, 1)
        finally:
            set_threads(before)
        assert np.array_equal(lags[0], lags[1])

    def test_workers_receive_the_factors_built_before_the_map(self):
        """On a bank whose kernel applies its range factors, map_stacks builds
        them with d.kernel in the calling process, and the workers receive
        them read-only and bit for bit, so no worker factors anything."""
        from chirpcode import default_bounds

        d = init_gammatone_dictionary(96, *default_bounds(8000).f, 128, 64, 8000)
        with workers(2):
            results = metrics.map_stacks(_factors_as_received, ["a", "b"],
                                         [np.zeros(2000)] * 2, d, 2)
        u, m = d.kernel.factors
        assert os.getpid() not in {pid for pid, *_ in results}
        for _, cached, writable, got_u, got_m in results:
            assert cached and not writable
            assert np.array_equal(got_u, u) and np.array_equal(got_m, m)

    def test_workers_receive_the_kernel_with_read_only_arrays(self, rng):
        """Pool workers unpickle d with its kernel already built, and with
        every array of both read-only, as in the calling process."""
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        signals = TestCorpusStacks()._signals(d, [3] * 4)
        with workers(2):
            results = metrics.map_stacks(_dictionary_as_received, list("abcd"), signals, d, 2)
        assert os.getpid() not in {pid for pid, *_ in results}
        assert all(cached and not any(writable) and not lags_writable
                   for _, cached, writable, lags_writable in results)


class TestCorpusStacks:
    @pytest.fixture(autouse=True)
    def _one_cpu(self, cpus):
        cpus(1)

    def _signals(self, d, frames):
        return [np.zeros((t - 1) * d.stride + d.filter_len) for t in frames]

    def test_each_frame_count_is_split_for_what_runs_at_once(self, rng, cpus):
        """At one job, for pmap's threads, one per CPU this process may use;
        at two jobs or more, for the workers, whatever the CPU count."""
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        signals = self._signals(d, [3] * 4 + [5])
        cpus(2)
        assert corpus_stacks(signals, d, jobs=1) == [[0, 1], [2, 3], [4]]
        assert corpus_stacks(signals, d, jobs=3) == [[0, 1], [2], [3], [4]]
        cpus(4)
        assert corpus_stacks(signals, d, jobs=1) == [[0], [1], [2], [3], [4]]
        assert corpus_stacks(signals, d, jobs=2) == [[0, 1], [2, 3], [4]]

    def test_one_stack_per_frame_count_at_one_job(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        signals = self._signals(d, [3, 5, 3, 3, 5])
        assert corpus_stacks(signals, d, jobs=1) == [[0, 2, 3], [1, 4]]

    def test_each_frame_count_is_split_for_the_pool(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        signals = self._signals(d, [3] * 7 + [5])
        assert corpus_stacks(signals, d, jobs=3) == [[0, 1, 2], [3, 4], [5, 6], [7]]

    def test_stacks_are_capped_in_elements(self, rng, monkeypatch):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        monkeypatch.setattr(metrics, "STACK_ELEMENTS", 2 * 4 * 3)  # two 3-frame items
        signals = self._signals(d, [3] * 5)
        assert corpus_stacks(signals, d, jobs=1) == [[0, 1], [2, 3], [4]]

    def test_recorded_iterations_count_against_the_cap(self, rng, monkeypatch):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        monkeypatch.setattr(metrics, "STACK_ELEMENTS", 2 * 4 * 3 * 3)
        signals = self._signals(d, [3] * 5)
        assert corpus_stacks(signals, d, jobs=1) == [list(range(5))]
        # Two recorded iterations on top of the current one: two items per stack.
        assert corpus_stacks(signals, d, jobs=1, trace_window=2) == [[0, 1], [2, 3], [4]]

    def test_desk_corpus_is_one_stack(self):
        """The cap holds the 20-utterance desk corpus: 64 channels, 30 frames."""
        from chirpcode import init_gammatone_dictionary

        d = init_gammatone_dictionary(64, 80.0, 7600.0, 256, 128, 16000)
        signals = [np.zeros(4000)] * 20
        assert corpus_stacks(signals, d, jobs=1) == [list(range(20))]

    def test_too_short_signals_share_a_stack(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        signals = [np.ones(4), np.zeros(32), np.ones(31)]
        assert corpus_stacks(signals, d, jobs=1) == [[0, 2], [1]]
