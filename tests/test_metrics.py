"""SNR, sparsity, and benchmark aggregation."""

import csv
import json
import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpcode import (
    ConfigError,
    LcaConfig,
    SignalError,
    SparseCode,
    Utterance,
    benchmark,
    encode,
    energy,
    reconstruct,
    snr,
    sparsity,
)
from chirpcode.metrics import (
    write_report_csv,
    write_report_json,
    write_summary_csv,
    write_summary_json,
)

from conftest import random_toy_dictionary


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

    def test_geometry_mismatch_rejected(self, rng):
        d1 = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        d2 = random_toy_dictionary(rng, n_channels=4, filter_len=16, stride=8)
        with pytest.raises(ConfigError):
            benchmark(_corpus_for(d1, rng), [("a", d1), ("b", d2)], LcaConfig(lam=0.03))

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
