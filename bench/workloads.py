"""The benchmark's workloads: inputs made from a seed, set-up, timed rounds and checks.

A workload is built from a seed and a scratch directory. ``setup()`` builds
the dictionary and its Gram kernel (timed as ``setup_s``), ``prepare()``
runs preconditions, ``run_round(index)`` performs one round of operations
and returns a Round, and ``check(rounds)`` verifies the outputs with the
independent computations in ``checker`` and returns the energy rise of each
checked solve (see ``checker.energy_rise``). Solver and adaptation settings
are constants: the seed reaches the program only through the generated inputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
import time
import wave
from collections import namedtuple
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checker
from checker import CheckFailed
from chirpcode import cli, dictionary, lca, metrics
from chirpcode import adapt as adapt_mod
from chirpcode.errors import ChirpcodeError

# Desk geometry: the 64-channel Gammatone bank of acceptance criterion 5.
DESK_BANK = dict(n_channels=64, f_min=80.0, f_max=7600.0, filter_len=256, stride=128, sample_rate=16000)
DESK_UTTERANCES = 20
DESK_DURATION_S = 0.25
DESK_LCA = dict(lam=0.03, eta=0.1, max_iters=300, rel_tol=1e-6)
DESK_ADAPT = dict(mode="alca-cf", lr_mod=2e-3, lr_cf=10.0, alpha=4.0, tbptt_window=50,
                  epochs=3, batch_size=5, seed=7)
# The bounds default_bounds(16000) sets, restated so the check does not read them back.
DESK_BOUNDS = {"f": (20.0, 7200.0), "b": (0.2, 5.0), "l": (1.5, 8.0), "c": (-5.0, 5.0)}
ADAPT_JOBS = 2

# Paper geometry: 700 channels at 48 kHz, about 10 ms hop.
PAPER_BANK = dict(n_channels=700, f_min=20.0, f_max=21600.0, filter_len=1024, stride=512, sample_rate=48000)
PAPER_SWEEPS_PER_UTTERANCE = 4
PAPER_SWEEP_S = 0.25
PAPER_DURATION_S = PAPER_SWEEPS_PER_UTTERANCE * PAPER_SWEEP_S
PAPER_UTTERANCES = 6  # rounds cycle over these, so quality figures do not depend on speed
# eta must satisfy eta * lambda_max < 2; lambda_max is about 113 for this bank.
PAPER_LCA = dict(lam=0.01, eta=0.01, max_iters=300, rel_tol=1e-6)
PAPER_TRACE_WINDOW = 50
PAPER_GRADIENT = dict(mode="alca-cf", alpha=4.0, tbptt_window=50)

# Gammatone start: order 4, bandwidth 1.019 ERB, no chirp.
GAMMATONE = dict(b=1.019, c=0.0, l=4.0)

Utt = namedtuple("Utt", "id samples sample_rate")


class Refused(Exception):
    """A workload's precondition does not hold; no solve was started."""


@dataclass
class Round:
    """What one round did: operations, timing samples and outputs for the checks."""

    attempted: int
    failed: int = 0
    samples: dict = field(default_factory=dict)
    outputs: object = None
    wall_s: float = 0.0


# ------------------------------------------------------------------ inputs

def formant_sweep(rng, sample_rate, duration, n_formants=3, peak=0.5):
    """Speech-like test signal: swept resonances under smooth envelopes.

    The recipe of tests/oracles.formant_sweep: each formant glides between
    random points of a speech band with slight vibrato, under a raised-cosine
    envelope with a random attack; the sum is scaled to `peak`.
    """
    n = int(round(sample_rate * duration))
    t = np.arange(n) / sample_rate
    bands = [(250.0, 800.0), (800.0, 2300.0), (2300.0, 3200.0)]
    s = np.zeros(n)
    for k in range(n_formants):
        lo, hi = bands[k % len(bands)]
        f_start = rng.uniform(lo, hi)
        f_end = rng.uniform(lo, hi)
        freq = f_start + (f_end - f_start) * (t / duration)
        vibrato = 1.0 + 0.01 * np.sin(2.0 * np.pi * rng.uniform(3.0, 7.0) * t)
        phase = 2.0 * np.pi * np.cumsum(freq * vibrato) / sample_rate
        attack = rng.uniform(0.1, 0.5)
        env = np.sin(np.pi * np.clip(t / duration, 0, 1)) ** 2
        env = env * np.exp(-((t / duration - attack) ** 2) / 0.18)
        amp = rng.uniform(0.4, 1.0) / (k + 1)
        s += amp * env * np.sin(phase + rng.uniform(0, 2 * np.pi))
    peak_now = np.max(np.abs(s))
    if peak_now > 0:
        s *= peak / peak_now
    return s


def formant_corpus(seed, n_utterances, sample_rate, duration):
    rng = np.random.default_rng(seed)
    return [formant_sweep(rng, sample_rate, duration) for _ in range(n_utterances)]


def write_wav16(path, samples, sample_rate):
    pcm = np.clip(np.round(np.asarray(samples) * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(int(sample_rate))
        fh.writeframes(pcm.tobytes())


def read_wav16(path):
    with wave.open(str(path), "rb") as fh:
        if (fh.getnchannels(), fh.getsampwidth()) != (1, 2):
            raise CheckFailed(f"{path}: not mono 16-bit PCM")
        return np.frombuffer(fh.readframes(fh.getnframes()), dtype="<i2") / 32768.0


def write_desk_corpus(seed, directory):
    """Write the desk corpus as 16-bit WAVs plus a manifest; return (manifest, utterances).

    The returned samples are read back from the files, so every desk workload
    codes exactly what the program ingests.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rate = DESK_BANK["sample_rate"]
    rows, utterances = [], []
    for i, s in enumerate(formant_corpus(seed, DESK_UTTERANCES, rate, DESK_DURATION_S)):
        name = f"u{i:02d}"
        write_wav16(directory / f"{name}.wav", s, rate)
        rows.append(f"{name}.wav,{name},formant\n")
        utterances.append(Utt(name, read_wav16(directory / f"{name}.wav"), rate))
    manifest = directory / "manifest.csv"
    manifest.write_text("path,id,label\n" + "".join(rows))
    return manifest, utterances


def paper_signals(seed):
    """1 s utterances at 48 kHz, each four 0.25 s formant sweeps end to end.

    At 300 iterations of eta 0.01 the solve is far from converged, and the SNR
    of a single 1 s sweep ranges over 6-15 dB between seeds (std 3.4 dB over
    ten). Four sweeps per utterance bring that to a std of 1.2 dB, which keeps
    snr_db steady across seeds at the same cost per utterance.
    """
    rng = np.random.default_rng(seed)
    rate = PAPER_BANK["sample_rate"]
    return [
        np.concatenate([formant_sweep(rng, rate, PAPER_SWEEP_S) for _ in range(PAPER_SWEEPS_PER_UTTERANCE)])
        for _ in range(PAPER_UTTERANCES)
    ]


# ------------------------------------------------------------------ helpers

def _n_frames(bank, n_samples):
    return (n_samples - bank["filter_len"]) // bank["stride"] + 1


def _init_dictionary(bank):
    return dictionary.init_gammatone_dictionary(
        bank["n_channels"], bank["f_min"], bank["f_max"],
        bank["filter_len"], bank["stride"], bank["sample_rate"],
    )


def _params(channels):
    """Per-channel parameter arrays from dictionary channels (objects or JSON dicts)."""
    get = (lambda ch, k: ch[k]) if channels and isinstance(channels[0], dict) else getattr
    return {k: np.array([float(get(ch, k)) for ch in channels]) for k in checker.PARAMS}


def _atoms(params, bank):
    return checker.closed_form_atoms(
        params["f"], params["b"], params["c"], params["l"], bank["filter_len"], bank["sample_rate"]
    )


def check_initial_bank(params, bank):
    """The starting dictionary is the log-spaced Gammatone bank the spec describes."""
    n = bank["n_channels"]
    expected_f = bank["f_min"] * (bank["f_max"] / bank["f_min"]) ** (np.arange(n) / (n - 1))
    if params["f"].size != n:
        raise CheckFailed(f"dictionary has {params['f'].size} channels, expected {n}")
    if not np.allclose(params["f"], expected_f, rtol=1e-12, atol=0.0):
        raise CheckFailed("centre frequencies are not log-spaced from f_min to f_max")
    for k, v in GAMMATONE.items():
        if not np.all(params[k] == v):
            raise CheckFailed(f"initial parameter {k!r} is not {v}")


def _code_arrays(code):
    """A package SparseCode as the checker's plain-array code."""
    return {
        "n_channels": int(code.n_channels), "n_frames": int(code.n_frames), "lam": float(code.lam),
        "channels": np.asarray(code.channels, dtype=np.int64),
        "frames": np.asarray(code.frames, dtype=np.int64),
        "values": np.asarray(code.values, dtype=float),
    }


def _same_events(a, b):
    return all(np.array_equal(a[k], b[k]) for k in ("channels", "frames", "values"))


def _reencode_and_check(s, d, kernel, lca_cfg, bank, atoms, *, snr, active, objective, alpha, code=None):
    """Encode again with the library and grade the code, and its final trace energy, against the report.

    Returns the solve's largest energy rise as a share of E0.
    """
    got, state = lca.encode(s, d, lca_cfg, kernel=kernel)
    fresh = _code_arrays(got)
    if code is not None and not _same_events(code, fresh):
        raise CheckFailed("re-encoding the same input gives a different code")
    checker.check_events(fresh, bank["n_channels"], _n_frames(bank, len(s)), lca_cfg.lam)
    g = checker.grade(s, atoms, fresh, bank["stride"], alpha)
    checker.check_graded(g, snr=snr, active=active, objective=objective,
                         final_trace=state.energy_trace[-1])
    return checker.energy_rise(state.energy_trace)


# --------------------------------------------------------------- workloads

class Workload:
    """Defaults: no precondition, traced at the workload's own jobs.

    Set-up is timed between rounds, ``setup_samples`` times after each round.
    One sample times ``setup_batch`` calls in a row, about 50 ms, and is
    divided by that count.
    """

    trace_jobs = None

    def prepare(self):
        pass


class DeskEncode(Workload):
    """`chirpcode encode --jobs 1` on the desk corpus, in-process through cli.main."""

    name = "desk-encode"
    setup_batch = 10
    setup_samples = 1
    min_rounds = 3

    def __init__(self, seed, workdir):
        self.dir = Path(workdir)
        self.manifest, self.utterances = write_desk_corpus(seed, self.dir / "corpus")
        self.dict_path = self.dir / "desk.dict.json"
        self.codes_dir = self.dir / "codes"
        self.lca_cfg = lca.LcaConfig(**DESK_LCA)

    def setup(self):
        b = DESK_BANK
        argv = ["build-dict", "--channels", str(b["n_channels"]), "--f-min", str(b["f_min"]),
                "--f-max", str(b["f_max"]), "--filter-len", str(b["filter_len"]),
                "--stride", str(b["stride"]), "--sr", str(b["sample_rate"]),
                "--out", str(self.dict_path)]
        with redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise ChirpcodeError(f"build-dict exited with {rc}")

    def run_round(self, index, jobs=None):
        argv = ["encode", "--manifest", str(self.manifest), "--dict", str(self.dict_path),
                "--out-dir", str(self.codes_dir), "--jobs", "1",
                "--lambda", repr(DESK_LCA["lam"]), "--eta", repr(DESK_LCA["eta"]),
                "--max-iters", str(DESK_LCA["max_iters"]), "--rel-tol", repr(DESK_LCA["rel_tol"])]
        t0 = time.perf_counter()
        with redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        wall = time.perf_counter() - t0
        n = len(self.utterances)
        if rc != 0:
            return Round(attempted=n, failed=n, wall_s=wall)
        audio_s = n * DESK_DURATION_S
        return Round(attempted=n, samples={"encode_audio_s_per_s": audio_s / wall, "pass_s": wall},
                     outputs=self._read_report(), wall_s=wall)

    def _read_report(self):
        with open(self.codes_dir / "encode_report.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def quality(self, rounds):
        rows = rounds[-1].outputs
        return {
            "snr_db": statistics.fmean(float(r["snr_db"]) for r in rows),
            "active_per_frame": statistics.fmean(
                int(r["active_count"]) / int(r["n_frames"]) for r in rows),
        }

    def check(self, rounds):
        payload = json.loads(self.dict_path.read_text())
        b = DESK_BANK
        if (payload["sample_rate"], payload["filter_len"], payload["stride"]) != (
                b["sample_rate"], b["filter_len"], b["stride"]):
            raise CheckFailed("build-dict wrote the wrong geometry")
        params = _params(payload["channels"])
        check_initial_bank(params, b)
        atoms = _atoms(params, b)
        d = dictionary.load_dictionary(self.dict_path)
        kernel = dictionary.gram_kernel(d)
        rows = {r["utterance"]: r for r in rounds[-1].outputs}
        if sorted(rows) != sorted(u.id for u in self.utterances):
            raise CheckFailed("encode report does not list every utterance once")
        rises = []
        for utt in self.utterances:
            row = rows[utt.id]
            ev = json.loads((self.codes_dir / f"{utt.id}.code.json").read_text())
            code = checker.code_from_events(ev["n_channels"], ev["n_frames"], ev["lambda"], ev["events"])
            n_fr = _n_frames(b, len(utt.samples))
            checker.check_events(code, b["n_channels"], n_fr, DESK_LCA["lam"])
            if int(row["n_frames"]) != n_fr:
                raise CheckFailed(f"{utt.id}: report says {row['n_frames']} frames, expected {n_fr}")
            rises.append(_reencode_and_check(
                utt.samples, d, kernel, self.lca_cfg, b, atoms, snr=float(row["snr_db"]),
                active=int(row["active_count"]), objective=float(row["energy"]), alpha=1.0, code=code))
        return rises


class DeskAdapt(Workload):
    """ALCA-CF adaptation of the desk bank, then benchmark() of both dictionaries."""

    name = "desk-adapt"
    setup_batch = 50
    setup_samples = 4
    min_rounds = 2
    trace_jobs = 1  # worker processes hide their layers from the tracer

    def __init__(self, seed, workdir):
        _, self.utterances = write_desk_corpus(seed, Path(workdir) / "corpus")
        self.lca_cfg = lca.LcaConfig(**DESK_LCA)
        self.adapt_cfg = adapt_mod.AdaptConfig(
            bounds=adapt_mod.default_bounds(DESK_BANK["sample_rate"]), **DESK_ADAPT)
        self.d0 = None

    def setup(self):
        self.d0 = _init_dictionary(DESK_BANK)
        dictionary.gram_kernel(self.d0)

    def run_round(self, index, jobs=ADAPT_JOBS):
        epochs = self.adapt_cfg.epochs
        steps = epochs * math.ceil(len(self.utterances) / self.adapt_cfg.batch_size)
        graded = 2 * len(self.utterances)
        t0 = time.perf_counter()
        try:
            d1, history = adapt_mod.adapt_corpus(self.utterances, self.d0, self.lca_cfg,
                                                 self.adapt_cfg, jobs=jobs)
        except ChirpcodeError:
            return Round(attempted=steps + graded, failed=steps + graded,
                         wall_s=time.perf_counter() - t0)
        t1 = time.perf_counter()
        try:
            report = metrics.benchmark(self.utterances, [("initial", self.d0), ("adapted", d1)],
                                       self.lca_cfg, jobs=jobs)
        except ChirpcodeError:
            return Round(attempted=steps + graded, failed=graded, wall_s=time.perf_counter() - t0)
        wall = time.perf_counter() - t0
        return Round(
            attempted=steps + graded, failed=len(report.failures),
            # Audio encoded per round: every utterance once per epoch, then
            # twice in grading. Timed over the whole round; the grading part
            # alone (about 1 s at jobs=2) spread 0.17 across runs.
            samples={"pass_s": (t1 - t0) / epochs,
                     "encode_audio_s_per_s": (epochs * len(self.utterances) + graded)
                     * DESK_DURATION_S / wall},
            outputs=(d1, history, report), wall_s=wall,
        )

    def quality(self, rounds):
        summary = {s.name: s for s in rounds[-1].outputs[2].summaries}["adapted"]
        return {"snr_db": summary.mean_snr_db, "active_per_frame": summary.mean_active_per_frame}

    def check(self, rounds):
        done = [r for r in rounds if r.outputs is not None]
        d1, history, report = done[-1].outputs
        p0, p1 = _params(self.d0.channels), _params(d1.channels)
        check_initial_bank(p0, DESK_BANK)
        for k, (lo, hi) in DESK_BOUNDS.items():
            if np.any(p1[k] < lo) or np.any(p1[k] > hi):
                raise CheckFailed(f"adapted {k!r} leaves its bounds [{lo}, {hi}]")
        # The top desk channel (7600 Hz) starts above the 7200 Hz bound and is
        # clamped on the first step, so only channels that start inside count.
        inside = (p0["f"] >= DESK_BOUNDS["f"][0]) & (p0["f"] <= DESK_BOUNDS["f"][1])
        if not np.max(np.abs(p1["f"] - p0["f"])[inside]) > 1.0:
            raise CheckFailed("no centre frequency inside the bounds moved by more than 1 Hz")
        if not history[-1].mean_energy < history[0].mean_energy:
            raise CheckFailed(
                f"mean energy did not fall: epoch 0 {history[0].mean_energy!r}, "
                f"last {history[-1].mean_energy!r}")
        for r in done[:-1]:
            if any(a != b for a, b in zip(r.outputs[0].channels, d1.channels)):
                raise CheckFailed("two rounds with the same inputs adapted to different dictionaries")

        summaries = {s.name: s for s in report.summaries}
        init, adapted = summaries["initial"], summaries["adapted"]
        if not (adapted.mean_snr_db > init.mean_snr_db
                and adapted.mean_active_count < init.mean_active_count):
            raise CheckFailed(
                f"adapted dictionary does not beat the initial one: SNR {adapted.mean_snr_db:.3f} "
                f"vs {init.mean_snr_db:.3f} dB, active {adapted.mean_active_count:.1f} "
                f"vs {init.mean_active_count:.1f}")

        samples = {u.id: u.samples for u in self.utterances}
        rises = []
        for name, d, params in (("initial", self.d0, p0), ("adapted", d1, p1)):
            atoms = _atoms(params, DESK_BANK)
            kernel = dictionary.gram_kernel(d)
            rows = [row for n, row in report.rows if n == name]
            if sorted(r.id for r in rows) != sorted(samples):
                raise CheckFailed(f"{name}: benchmark rows do not cover the corpus once")
            for row in rows:
                rises.append(_reencode_and_check(
                    samples[row.id], d, kernel, self.lca_cfg, DESK_BANK, atoms,
                    snr=row.snr_db, active=row.active_count, objective=row.energy, alpha=1.0))
            checker.check_close(f"{name} mean SNR", summaries[name].mean_snr_db,
                                statistics.fmean(r.snr_db for r in rows), atol=1e-9)
            checker.check_close(f"{name} mean active count", summaries[name].mean_active_count,
                                statistics.fmean(r.active_count for r in rows), atol=1e-9)
        return rises


class PaperStep(Workload):
    """Encode plus one ALCA-CF energy_gradient per 1 s utterance on the 700-channel bank.

    pass_s is the gradient alone; encode_audio_s_per_s times the encode.
    """

    name = "paper-step"
    setup_batch = 1
    setup_samples = 4
    min_rounds = PAPER_UTTERANCES

    def __init__(self, seed, workdir):
        self.signals = paper_signals(seed)
        self.lca_cfg = lca.LcaConfig(**PAPER_LCA)
        self.grad_cfg = adapt_mod.AdaptConfig(**PAPER_GRADIENT)
        self.d = self.kernel = None
        self.lambda_max = None

    def setup(self):
        self.d = _init_dictionary(PAPER_BANK)
        self.kernel = dictionary.gram_kernel(self.d)

    def prepare(self):
        """Refuse to run unless eta * lambda_max < 2, with lambda_max by power iteration."""
        b = PAPER_BANK
        atoms = _atoms(_params(self.d.channels), b)
        self.lambda_max = checker.lambda_max(atoms, b["stride"], _n_frames(b, len(self.signals[0])))
        try:
            checker.check_step_size(self.lca_cfg.eta, self.lambda_max)
        except CheckFailed as exc:
            raise Refused(str(exc)) from None

    def run_round(self, index, jobs=None):
        k = index % PAPER_UTTERANCES
        s = self.signals[k]
        t0 = time.perf_counter()
        try:
            code, state = lca.encode(s, self.d, self.lca_cfg, kernel=self.kernel,
                                     trace_window=PAPER_TRACE_WINDOW)
        except ChirpcodeError:
            return Round(attempted=2, failed=2, wall_s=time.perf_counter() - t0)
        t1 = time.perf_counter()
        try:
            grads = adapt_mod.energy_gradient(s, self.d, state, self.grad_cfg, kernel=self.kernel)
        except ChirpcodeError:
            return Round(attempted=2, failed=1, wall_s=time.perf_counter() - t0)
        t2 = time.perf_counter()
        state.a_history = None  # the checks need the final code only
        return Round(
            attempted=2,
            samples={"encode_audio_s_per_s": PAPER_DURATION_S / (t1 - t0), "pass_s": t2 - t1},
            outputs=(k, code, state, grads), wall_s=t2 - t0,
        )

    def _first_per_utterance(self, rounds):
        first = {}
        for r in rounds:
            if r.outputs is not None:
                first.setdefault(r.outputs[0], r.outputs)
        return [first[k] for k in sorted(first)]

    def quality(self, rounds):
        snrs, per_frame = [], []
        for k, code, _, _ in self._first_per_utterance(rounds):
            s = self.signals[k]
            snrs.append(metrics.snr(s, dictionary.reconstruct(self.d, code, length=len(s))))
            per_frame.append(code.n_events / code.n_frames)
        return {"snr_db": statistics.fmean(snrs), "active_per_frame": statistics.fmean(per_frame)}

    def check(self, rounds):
        b = PAPER_BANK
        params = _params(self.d.channels)
        check_initial_bank(params, b)
        checker.check_step_size(self.lca_cfg.eta, self.lambda_max)
        atoms = _atoms(params, b)
        first = self._first_per_utterance(rounds)
        codes = {k: _code_arrays(code) for k, code, _, _ in first}
        rises = []
        for r in rounds:
            if r.outputs is not None and not _same_events(codes[r.outputs[0]], _code_arrays(r.outputs[1])):
                raise CheckFailed("encoding the same utterance twice gives different codes")
        for k, code, state, grads in first:
            s = self.signals[k]
            c = codes[k]
            checker.check_events(c, b["n_channels"], _n_frames(b, len(s)), self.lca_cfg.lam)
            g = checker.grade(s, atoms, c, b["stride"], self.grad_cfg.alpha)
            reported_snr = metrics.snr(s, dictionary.reconstruct(self.d, code, length=len(s)))
            checker.check_graded(g, snr=reported_snr, active=code.n_events,
                                 final_trace=state.energy_trace[-1])
            rises.append(checker.energy_rise(state.energy_trace))
            for name in checker.PARAMS:
                if not np.all(np.isfinite(grads.get(name))):
                    raise CheckFailed(f"utterance {k}: non-finite gradient for {name!r}")
        # The fixed-code term alone (alpha = 0) against a finite difference.
        k, code, state, _ = first[0]
        fixed = adapt_mod.AdaptConfig(**dict(PAPER_GRADIENT, alpha=0.0))
        g0 = adapt_mod.energy_gradient(self.signals[k], self.d, state, fixed, kernel=self.kernel)
        checker.check_gradient({n: g0.get(n) for n in checker.PARAMS}, params, codes[k],
                               self.signals[k], b["filter_len"], b["stride"], b["sample_rate"])
        return rises


WORKLOADS = {w.name: w for w in (DeskEncode, DeskAdapt, PaperStep)}
