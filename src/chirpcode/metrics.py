"""Reconstruction quality and sparsity metrics, plus multi-dictionary benchmarks."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import concurrency, pmap, workers
from .dictionary import Dictionary, n_frames, reconstruct
from .errors import AudioIngestError, ChirpcodeError, ConfigError, SignalError
from .lca import LcaConfig, SparseCode, encode_many

# Cap on the elements of each (utterances, channels, frames) array of one
# stacked solve. 2**18 holds the 20-utterance desk corpus (64 channels, 30
# frames) in one stack, or four 1 s utterances of the 700-channel 48 kHz bank.
STACK_ELEMENTS = 2 ** 18


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

    An item without an id is named by its position. Every corpus path starts
    here, so this is where a corpus is checked: an empty corpus or a declared
    rate other than ``sample_rate`` is a ConfigError, and an id given twice an
    AudioIngestError.
    """
    ids, signals = [], []
    for i, item in enumerate(corpus):
        ids.append(getattr(item, "id", None) or f"utterance[{i}]")
        signals.append(np.asarray(getattr(item, "samples", item), dtype=float))
        rate = getattr(item, "sample_rate", None)
        if rate is not None and rate != sample_rate:
            raise ConfigError(f"utterance {ids[-1]!r} has rate {rate}, expected {sample_rate}")
    if not ids:
        raise ConfigError("corpus is empty")
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise AudioIngestError(f"duplicate utterance ids: {dupes}")
    return ids, signals


def encode_and_grade(ids, signals, d, lca_cfg, alpha=1.0, trace_window=0):
    """Encode a stack of utterances that share a frame count, then grade each:
    one residual per utterance gives its SNR and the ``lca.energy`` objective
    at weight ``alpha``. Returns, in input order, (report, code, state) for
    each utterance or the ChirpcodeError it failed with.
    """
    signals = [np.asarray(s, dtype=float) for s in signals]
    solved = encode_many(signals, d, lca_cfg, trace_window=trace_window)
    graded = []
    for utt_id, samples, result in zip(ids, signals, solved):
        if isinstance(result, ChirpcodeError):
            graded.append(result)
            continue
        code, state = result
        resid = samples - reconstruct(d, code, length=len(samples))
        p_noise = float(resid @ resid)
        report = UtteranceReport(
            id=utt_id,
            snr_db=_snr_db(float(samples @ samples), p_noise),
            active_count=code.n_events,
            energy=0.5 * p_noise + alpha * lca_cfg.lam * float(np.sum(np.abs(code.values))),
            n_frames=code.n_frames,
        )
        graded.append((report, code, state))
    return graded


def corpus_stacks(signals, d: Dictionary, jobs: int, trace_window: int = 0):
    """Split a corpus into stacks: lists of indices, in corpus order, of
    utterances that share a frame count under ``d``.

    A stack's solver arrays, with the ``trace_window`` iterations each solve
    records, hold at most STACK_ELEMENTS elements. Each frame count is split
    into at least ``concurrency(jobs)`` near-equal stacks (one per utterance
    if it has fewer), so that each of the ``jobs`` workers, or at ``jobs <=
    1`` each of ``pmap``'s threads, has work. Signals too short for one frame
    share a group; each fails alone.
    """
    width = concurrency(jobs)
    groups = {}
    for index, s in enumerate(signals):
        try:
            frames = n_frames(np.size(s), d.filter_len, d.stride)
        except SignalError:
            frames = 0
        groups.setdefault(frames, []).append(index)
    stacks = []
    for frames, members in groups.items():
        cells = d.n_channels * max(frames, 1) * (trace_window + 1)
        per_stack = max(1, STACK_ELEMENTS // cells)
        count = max(-(-len(members) // per_stack), min(width, len(members)))
        stacks += [chunk.tolist() for chunk in np.array_split(members, count)]
    return stacks


def reports_and_codes(*args):
    """``encode_and_grade`` that drops each solver state, which holds dense
    arrays, so a corpus keeps only its reports and sparse codes."""
    return [r if isinstance(r, ChirpcodeError) else r[:2] for r in encode_and_grade(*args)]


def map_stacks(fn, ids, signals, d, jobs, *args, trace_window=0):
    """Run ``fn(stack_ids, stack_signals, d, *args)`` on each stack of
    ``corpus_stacks(signals, d, jobs, trace_window)``, over the open ``workers``
    pool if any, else on ``pmap``'s threads; results come back in corpus
    order. ``d.kernel`` is built first, here in the calling thread and at one
    BLAS thread, so the workers receive it with ``d`` and build none, no two
    threads build it at once, and no BLAS thread of the caller spins while
    they compute.
    """
    d.kernel  # built here, before the pool or threads, so that d carries it to the workers
    stacks = corpus_stacks(signals, d, jobs, trace_window)
    tasks = [([ids[i] for i in stack], [signals[i] for i in stack], d, *args)
             for stack in stacks]
    results = [None] * len(ids)
    for stack, out in zip(stacks, pmap(fn, tasks, jobs)):
        for index, result in zip(stack, out):
            results[index] = result
    return results


def raise_first_failure(ids, results) -> None:
    """Raise the first ChirpcodeError of ``results`` as "utterance 'x': ..."."""
    for uid, result in zip(ids, results):
        if isinstance(result, ChirpcodeError):
            raise type(result)(f"utterance {uid!r}: {result}") from result


def check_dictionaries(dictionaries) -> list:
    """The (name, Dictionary) pairs as a list, once checked: there is at least
    one, no name is given twice, and all share geometry and sample rate."""
    dictionaries = list(dictionaries)
    if not dictionaries:
        raise ConfigError("no dictionaries to benchmark")
    ref: Dictionary = dictionaries[0][1]
    names = [name for name, _ in dictionaries]
    for name, d in dictionaries:
        if names.count(name) > 1:
            raise ConfigError(f"dictionary name {name!r} is given more than once")
        if (d.filter_len, d.stride, d.sample_rate) != (
            ref.filter_len, ref.stride, ref.sample_rate,
        ):
            raise ConfigError(f"dictionary {name!r} has mismatched geometry or rate")
    return dictionaries


def benchmark(corpus, dictionaries, lca_cfg: LcaConfig, jobs: int = 1) -> BenchmarkReport:
    """Encode a corpus under each named dictionary and aggregate SNR/sparsity.

    ``dictionaries`` is a list of (name, Dictionary) pairs that
    ``check_dictionaries`` accepts. Per-utterance failures are recorded and
    the report is marked partial instead of aborting the run.
    """
    dictionaries = check_dictionaries(dictionaries)
    ids, signals = corpus_signals(corpus, dictionaries[0][1].sample_rate)

    rows, failures = [], []
    summaries = []
    with workers(min(jobs, len(ids))):
        for name, d in dictionaries:
            results = map_stacks(reports_and_codes, ids, signals, d, jobs, lca_cfg)
            finite_snrs, counts, per_frame = [], [], []
            excluded = 0
            for uid, result in zip(ids, results):
                if isinstance(result, ChirpcodeError):
                    failures.append((name, uid, str(result)))
                    continue
                row = result[0]
                rows.append((name, row))
                counts.append(row.active_count)
                per_frame.append(row.active_count / max(row.n_frames, 1))
                if math.isinf(row.snr_db):
                    excluded += 1
                else:
                    finite_snrs.append(row.snr_db)
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
