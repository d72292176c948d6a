"""Locally Competitive Algorithm: neural dynamics, sparse codes, energies.

The solver integrates the leaky-integrator ODE

    tau * dv/dt = p - v - (lateral inhibition of active neurons)

with explicit Euler steps of size eta = dt/tau, applying a hard threshold to
potentials after every step. Two energies appear here and they are not the
same thing:

* ``trace_energy`` is what the hard-threshold dynamics approximately descend
  (a step can raise it slightly): residual power plus a fixed cost of lam^2/2
  per active unit. It drives the convergence test and the per-iteration trace.
* ``energy`` is the adaptation objective: residual power plus an
  L1-weighted sparsity cost alpha * lam * sum|a|. Filter-parameter gradients
  are taken against this one.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .dictionary import (
    Dictionary,
    GramKernel,
    apply_kernel,
    gram_kernel,
    overlap_add,
    project,
    reconstruct,
)
from .errors import CodeError, ConfigError, SignalError, SolverError


@dataclass(frozen=True)
class LcaConfig:
    """Solver configuration: threshold, Euler step, iteration budget, stop tolerance."""

    lam: float
    eta: float = 0.1
    max_iters: int = 500
    rel_tol: float = 1e-6

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise ConfigError(f"threshold lam must be finite and >= 0, got {self.lam}")
        if not 0 < self.eta <= 1:
            raise ConfigError(f"eta must be in (0, 1], got {self.eta}")
        if self.max_iters < 1:
            raise ConfigError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol >= 0):
            raise ConfigError(f"rel_tol must be finite and >= 0, got {self.rel_tol}")


@dataclass
class LcaState:
    """Solver state: potentials, activations, and the per-iteration energy trace.

    ``inhibition`` is ``apply_kernel(kernel, a)``, kept current by ``lca_step``.
    ``a_history`` (when recording is enabled) keeps the most recent activation
    matrices, oldest first, starting from the all-zero initial state; the
    adaptation reverse pass consumes it. Entries are not copies: ``lca_step``
    binds a new array to ``a`` every step, and the newest entry is ``a``
    itself, so ``a`` must never be written in place. ``lam`` and ``eta``
    record the run's threshold and Euler step, which that reverse pass also
    needs.
    """

    v: np.ndarray
    a: np.ndarray
    inhibition: np.ndarray
    iter: int = 0
    energy_trace: list = field(default_factory=list)
    a_history: deque | None = None
    lam: float = 0.0
    eta: float = 0.1


@dataclass(frozen=True)
class SparseCode:
    """A code as a set of (channel, frame, value) events, value != 0.

    Events are kept sorted by (channel, frame); ``lam`` records the threshold
    of the run that produced the code.
    """

    n_channels: int
    n_frames: int
    lam: float
    channels: np.ndarray
    frames: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        ch = np.asarray(self.channels, dtype=np.int64)
        fr = np.asarray(self.frames, dtype=np.int64)
        val = np.asarray(self.values, dtype=float)
        if not (ch.shape == fr.shape == val.shape and ch.ndim == 1):
            raise CodeError("channels, frames and values must be equal-length 1-D arrays")
        if ch.size:
            if ch.min() < 0 or ch.max() >= self.n_channels:
                raise CodeError(f"channel index out of range [0, {self.n_channels})")
            if fr.min() < 0 or fr.max() >= self.n_frames:
                raise CodeError(f"frame index out of range [0, {self.n_frames})")
            if not np.all(np.isfinite(val)):
                raise CodeError("event values must be finite")
            if np.any(val == 0.0):
                raise CodeError("event values must be nonzero")
            if np.any(np.abs(val) < self.lam):
                raise CodeError(f"event magnitude below the producing threshold {self.lam}")
            keys = ch * self.n_frames + fr
            order = np.argsort(keys, kind="stable")
            ch, fr, val, keys = ch[order], fr[order], val[order], keys[order]
            if np.any(np.diff(keys) == 0):
                raise CodeError("duplicate (channel, frame) event")
        for name, arr in (("channels", ch), ("frames", fr), ("values", val)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_events(self) -> int:
        return int(self.values.size)

    @classmethod
    def from_dense(cls, a: np.ndarray, lam: float, *, n_channels=None, n_frames=None):
        a = np.asarray(a, dtype=float)
        ch, fr = np.nonzero(a)
        return cls(
            n_channels=int(n_channels if n_channels is not None else a.shape[0]),
            n_frames=int(n_frames if n_frames is not None else a.shape[1]),
            lam=float(lam),
            channels=ch,
            frames=fr,
            values=a[ch, fr],
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_channels, self.n_frames))
        dense[self.channels, self.frames] = self.values
        return dense


def threshold(v: np.ndarray, lam: float) -> np.ndarray:
    """Hard threshold: zero where |v| < lam, pass-through otherwise."""
    if lam < 0:
        raise ConfigError(f"threshold must be >= 0, got {lam}")
    v = np.asarray(v, dtype=float)
    return np.where(np.abs(v) < lam, 0.0, v)


def trace_energy(s: np.ndarray, a: np.ndarray, d: Dictionary, lam: float) -> float:
    """Trace energy, by reconstruction: 1/2 ||s - recon||^2 + (lam^2/2) * nnz(a).

    The per-active-unit constant is the cost implied by hard thresholding.
    ``encode`` computes this value from the drive and the inhibition instead;
    this is the reference definition.
    """
    resid = s - overlap_add(d.atoms.T @ a, d.stride, len(s))
    return 0.5 * float(resid @ resid) + 0.5 * lam * lam * np.count_nonzero(a)


def lca_step(state: LcaState, drive: np.ndarray, kernel: GramKernel, config: LcaConfig) -> LcaState:
    """One explicit-Euler update of the membrane potentials, then re-threshold.

    Uses ``state.inhibition`` and refreshes it for the new activations. Mutates
    and returns ``state``; the energy trace is maintained by the caller.
    """
    state.v = state.v + config.eta * (drive - state.v - state.inhibition)
    state.a = threshold(state.v, config.lam)
    state.inhibition = apply_kernel(kernel, state.a)
    state.iter += 1
    return state


def encode(
    s: np.ndarray,
    d: Dictionary,
    config: LcaConfig,
    *,
    kernel: GramKernel | None = None,
    trace_window: int = 0,
):
    """Run the LCA dynamics from v = 0 until convergence or the iteration budget.

    Stops when the relative change of the trace energy drops below
    ``config.rel_tol`` (the test is armed only once some unit has activated,
    or when no drive exceeds the threshold, so the solver cannot declare
    victory while potentials are still charging). Set ``trace_window`` > 0 to
    record the last ``trace_window`` + 1 activation matrices for the
    adaptation reverse pass.

    Returns (SparseCode, LcaState).
    """
    s = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(s)):
        raise SignalError("signal contains non-finite samples")
    if kernel is None:
        kernel = gram_kernel(d)
    drive = project(d, s)
    n, t_frames = drive.shape

    state = LcaState(
        v=np.zeros((n, t_frames)), a=np.zeros((n, t_frames)),
        inhibition=np.zeros((n, t_frames)), lam=config.lam, eta=config.eta,
    )
    if trace_window > 0:
        state.a_history = deque(maxlen=trace_window + 1)
        state.a_history.append(state.a)

    e_prev = 0.5 * float(s @ s)
    state.energy_trace.append(e_prev)
    stoppable_silent = float(np.max(np.abs(drive), initial=0.0)) <= config.lam
    activated = False

    for it in range(1, config.max_iters + 1):
        lca_step(state, drive, kernel, config)
        # trace_energy without reconstructing: unit-norm atoms make the
        # synthesis Gram operator a -> a + K a, so 1/2 ||s - recon||^2 =
        # 1/2 ||s||^2 - <a, drive> + 1/2 <a, a + K a>. Overflow is left to the
        # finiteness test below, which reports divergence as a SolverError.
        a = state.a
        with np.errstate(over="ignore", invalid="ignore"):
            e = (state.energy_trace[0] - float(np.vdot(a, drive))
                 + 0.5 * float(np.vdot(a, a + state.inhibition))
                 + 0.5 * config.lam * config.lam * np.count_nonzero(a))
        if not math.isfinite(e):
            raise SolverError(
                f"non-finite energy at iteration {it}; the Euler step eta={config.eta} "
                "may be too large for this dictionary"
            )
        state.energy_trace.append(e)
        if state.a_history is not None:
            state.a_history.append(state.a)
        activated = activated or bool(np.any(state.a))
        if activated or stoppable_silent:
            if abs(e - e_prev) / max(abs(e), 1e-30) < config.rel_tol:
                break
        e_prev = e

    code = SparseCode.from_dense(state.a, config.lam)
    return code, state


def energy(s: np.ndarray, code: SparseCode, d: Dictionary, lam: float, alpha: float = 1.0) -> float:
    """Adaptation objective: 1/2 ||recon - s||^2 + alpha * lam * sum|a|."""
    s = np.asarray(s, dtype=float)
    if code.n_channels != d.n_channels:
        raise CodeError(
            f"code has {code.n_channels} channels, dictionary has {d.n_channels}"
        )
    if code.n_frames > 0:
        span = (code.n_frames - 1) * d.stride + d.filter_len
        if span > len(s):
            raise SignalError(f"code spans {span} samples but signal has {len(s)}")
    recon = reconstruct(d, code, length=len(s))
    resid = recon - s
    return 0.5 * float(resid @ resid) + alpha * lam * float(np.sum(np.abs(code.values)))


def save_code(code: SparseCode, path) -> None:
    """Write a sparse code as JSON events."""
    payload = {
        "n_channels": int(code.n_channels),
        "n_frames": int(code.n_frames),
        "lambda": float(code.lam),
        "events": [
            [int(c), int(f), float(v)]
            for c, f, v in zip(code.channels, code.frames, code.values)
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_code(path) -> SparseCode:
    """Load a sparse code JSON file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        events = payload["events"]
        ch = [e[0] for e in events]
        fr = [e[1] for e in events]
        val = [e[2] for e in events]
        return SparseCode(
            n_channels=int(payload["n_channels"]),
            n_frames=int(payload["n_frames"]),
            lam=float(payload["lambda"]),
            channels=np.array(ch, dtype=np.int64),
            frames=np.array(fr, dtype=np.int64),
            values=np.array(val, dtype=float),
        )
    except (OSError, json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
        raise CodeError(f"cannot read code file {path}: {exc}") from exc


def export_events_csv(code: SparseCode, path) -> None:
    """Write events as ``channel,frame,value`` CSV (header always present)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "frame", "value"])
        for c, f, v in zip(code.channels, code.frames, code.values):
            writer.writerow([int(c), int(f), repr(float(v))])
