"""Reconstruction quality and sparsity metrics, plus multi-dictionary benchmarks."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import pmap, workers
from .dictionary import Dictionary, gram_kernel, reconstruct
from .errors import ChirpcodeError, ConfigError, SignalError
from .lca import LcaConfig, SparseCode, encode


def snr(s: np.ndarray, s_hat: np.ndarray) -> float:
    """Reconstruction SNR in dB: 10*log10(||s||^2 / ||s - s_hat||^2).

    Scale-invariant; returns +inf when the residual is exactly zero.
    """
    s = np.asarray(s, dtype=float)
    s_hat = np.asarray(s_hat, dtype=float)
    if s.shape != s_hat.shape:
        raise SignalError(f"signal shapes differ: {s.shape} vs {s_hat.shape}")
    diff = s - s_hat
    return _snr_db(float(s @ s), float(diff @ diff))


def _snr_db(p_signal: float, p_noise: float) -> float:
    if p_signal == 0.0:
        raise SignalError("reference signal is all-zero; SNR undefined")
    if p_noise == 0.0:
        return math.inf
    return 10.0 * math.log10(p_signal / p_noise)


def sparsity(code: SparseCode) -> int:
    """Number of active (nonzero) coefficients in a code."""
    return code.n_events


@dataclass(frozen=True)
class UtteranceReport:
    """One utterance's encode outcome under one dictionary."""

    id: str
    snr_db: float
    active_count: int
    energy: float
    n_frames: int


@dataclass(frozen=True)
class DictionarySummary:
    """Corpus means for one dictionary; infinite-SNR rows are excluded from the mean."""

    name: str
    mean_snr_db: float
    mean_active_count: float
    mean_active_per_frame: float
    n_utterances: int
    n_snr_excluded: int


@dataclass(frozen=True)
class BenchmarkReport:
    rows: list
    summaries: list
    failures: list

    @property
    def partial(self) -> bool:
        return bool(self.failures)


def corpus_signals(corpus, sample_rate):
    """(ids, float sample arrays) of a corpus of Utterances or bare arrays.

    An item without an id is named by its position; a declared rate other
    than ``sample_rate`` is a ConfigError.
    """
    ids, signals = [], []
    for i, item in enumerate(corpus):
        ids.append(getattr(item, "id", None) or f"utterance[{i}]")
        signals.append(np.asarray(getattr(item, "samples", item), dtype=float))
        rate = getattr(item, "sample_rate", None)
        if rate is not None and int(rate) != int(sample_rate):
            raise ConfigError(f"utterance {ids[-1]!r} has rate {rate}, expected {sample_rate}")
    return ids, signals


def encode_and_grade(utt_id, samples, d, lca_cfg, kernel=None, alpha=1.0, trace_window=0):
    """Encode one utterance and grade it: one residual gives the SNR and the
    ``lca.energy`` objective at weight ``alpha``. Returns (report, code, state).
    """
    samples = np.asarray(samples, dtype=float)
    code, state = encode(samples, d, lca_cfg, kernel=kernel, trace_window=trace_window)
    resid = samples - reconstruct(d, code, length=len(samples))
    p_noise = float(resid @ resid)
    report = UtteranceReport(
        id=utt_id,
        snr_db=_snr_db(float(samples @ samples), p_noise),
        active_count=code.n_events,
        energy=0.5 * p_noise + alpha * lca_cfg.lam * float(np.sum(np.abs(code.values))),
        n_frames=code.n_frames,
    )
    return report, code, state


def _report_or_failure(name, utt_id, samples, d, kernel, lca_cfg):
    try:
        return encode_and_grade(utt_id, samples, d, lca_cfg, kernel)[0]
    except ChirpcodeError as exc:
        return (name, utt_id, str(exc))


def benchmark(corpus, dictionaries, lca_cfg: LcaConfig, jobs: int = 1) -> BenchmarkReport:
    """Encode a corpus under each named dictionary and aggregate SNR/sparsity.

    ``dictionaries`` is a list of (name, Dictionary) pairs sharing geometry and
    sample rate. Per-utterance failures are recorded and the report is marked
    partial instead of aborting the run.
    """
    dictionaries = list(dictionaries)
    if not dictionaries:
        raise ConfigError("no dictionaries to benchmark")
    ref: Dictionary = dictionaries[0][1]
    for name, d in dictionaries:
        if (d.filter_len, d.stride, d.sample_rate) != (
            ref.filter_len, ref.stride, ref.sample_rate,
        ):
            raise ConfigError(f"dictionary {name!r} has mismatched geometry or rate")
    ids, signals = corpus_signals(corpus, ref.sample_rate)

    rows, failures = [], []
    summaries = []
    with workers(min(jobs, len(ids))):
        for name, d in dictionaries:
            kernel = gram_kernel(d)
            tasks = [(name, uid, s, d, kernel, lca_cfg) for uid, s in zip(ids, signals)]
            results = pmap(_report_or_failure, tasks, jobs)
            finite_snrs, counts, per_frame = [], [], []
            excluded = 0
            for result in results:
                if isinstance(result, tuple):
                    failures.append(result)
                    continue
                rows.append((name, result))
                counts.append(result.active_count)
                per_frame.append(result.active_count / max(result.n_frames, 1))
                if math.isinf(result.snr_db):
                    excluded += 1
                else:
                    finite_snrs.append(result.snr_db)
            summaries.append(
                DictionarySummary(
                    name=name,
                    mean_snr_db=float(np.mean(finite_snrs)) if finite_snrs else math.nan,
                    mean_active_count=float(np.mean(counts)) if counts else math.nan,
                    mean_active_per_frame=float(np.mean(per_frame)) if per_frame else math.nan,
                    n_utterances=len(counts),
                    n_snr_excluded=excluded,
                )
            )
    return BenchmarkReport(rows=rows, summaries=summaries, failures=failures)


def write_report_csv(report: BenchmarkReport, path) -> None:
    """Per-utterance rows: dictionary,utterance,snr_db,active_count,n_frames."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dictionary", "utterance", "snr_db", "active_count", "n_frames"])
        for name, row in report.rows:
            writer.writerow(
                [name, row.id, repr(row.snr_db), row.active_count, row.n_frames]
            )


def write_summary_csv(report: BenchmarkReport, path) -> None:
    """Per-dictionary means, with exclusion/failure counts in a comment footer."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["dictionary", "mean_snr_db", "mean_active_count", "n_utterances",
             "mean_active_per_frame"]
        )
        for s in report.summaries:
            writer.writerow(
                [s.name, repr(s.mean_snr_db), repr(s.mean_active_count),
                 s.n_utterances, repr(s.mean_active_per_frame)]
            )
        for s in report.summaries:
            if s.n_snr_excluded:
                fh.write(f"# infinite_snr_excluded,{s.name},{s.n_snr_excluded}\n")
        if report.failures:
            fh.write(f"# partial,failed_utterances,{len(report.failures)}\n")


def _row_payload(name, row: UtteranceReport):
    return {
        "dictionary": name,
        "utterance": row.id,
        "snr_db": row.snr_db,
        "active_count": int(row.active_count),
        "energy": row.energy,
        "n_frames": int(row.n_frames),
    }


def write_report_json(report: BenchmarkReport, path) -> None:
    payload = {
        "rows": [_row_payload(name, row) for name, row in report.rows],
        "failures": [
            {"dictionary": n, "utterance": u, "error": msg}
            for n, u, msg in report.failures
        ],
        "partial": report.partial,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_summary_json(report: BenchmarkReport, path) -> None:
    payload = {
        "summaries": [
            {
                "dictionary": s.name,
                "mean_snr_db": s.mean_snr_db,
                "mean_active_count": s.mean_active_count,
                "mean_active_per_frame": s.mean_active_per_frame,
                "n_utterances": s.n_utterances,
                "n_snr_excluded": s.n_snr_excluded,
            }
            for s in report.summaries
        ],
        "partial": report.partial,
        "n_failures": len(report.failures),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
