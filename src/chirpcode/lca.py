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

``encode_many`` steps a stack of utterances that share a frame count as
(B, n, T) arrays in one loop; ``encode`` is a stack of one. Every stack item
is its own matrix product with the shape of a lone solve, and each keeps its
own energy trace, stop test and freeze, so a code does not depend on the
stack it was solved in. A returned state never holds a view that would
keep a larger stack alive.
"""

from __future__ import annotations

import csv
import json
import math
from collections import deque
from dataclasses import dataclass, field, fields

import numpy as np

from .dictionary import (
    Dictionary,
    GramKernel,
    apply_kernel,
    overlap_add,
    project,
    reconstruct,
)
from .errors import (
    ChirpcodeError,
    CodeError,
    ConfigError,
    SignalError,
    SolverError,
    config_value,
    is_integer,
    is_number,
    number_array,
)


def check_field_types(config) -> None:
    """Pass each float and int field of a config dataclass through ``config_value``."""
    for f in fields(config):
        # f.type is the annotation's text under postponed evaluation, else the class
        kind = {"float": float, "int": int}.get(getattr(f.type, "__name__", f.type))
        if kind is not None:
            object.__setattr__(config, f.name, config_value(f.name, getattr(config, f.name), kind))


@dataclass(frozen=True)
class LcaConfig:
    """Solver configuration: threshold, Euler step, iteration budget, stop tolerance."""

    lam: float
    eta: float = 0.1
    max_iters: int = 500
    rel_tol: float = 1e-6

    def __post_init__(self):
        check_field_types(self)
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

    ``lca_step`` works on one solve, arrays (n, T), or on a stack, arrays
    (B, n, T). ``inhibition`` is ``apply_kernel(kernel, a)``, kept current by
    ``lca_step``. ``a_history`` (when recording is enabled) keeps the most
    recent activation matrices, oldest first, starting from the all-zero
    initial state; the adaptation reverse pass consumes it. While solving,
    entries are not copies: ``lca_step`` binds a new array to ``a`` every
    step, and the newest entry is ``a`` itself, so ``a`` must never be
    written in place. ``lca_step`` does update ``v`` in place. A state that
    ``encode_many`` returns holds no view of a larger stack: ``v``, ``a``,
    ``inhibition`` and the ``a_history`` entries are copied out of a stack
    of several and are views only of a one-item stack. ``lam`` and ``eta``
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
    of the run that produced the code, a finite number >= 0. Shape and
    indices must be integers, ``lam`` and the values numbers
    (``errors.is_number``), so nothing is cast or truncated.
    """

    n_channels: int
    n_frames: int
    lam: float
    channels: np.ndarray
    frames: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        for name in ("n_channels", "n_frames"):
            value = getattr(self, name)
            if not is_integer(value):
                raise CodeError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if not (is_number(self.lam) and math.isfinite(self.lam) and self.lam >= 0):
            raise CodeError(f"lam must be a finite number >= 0, got {self.lam!r}")
        object.__setattr__(self, "lam", float(self.lam))
        ch = number_array("channel index", self.channels, int, CodeError)
        fr = number_array("frame index", self.frames, int, CodeError)
        val = number_array("event value", self.values, float, CodeError)
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
    def from_dense(cls, a: np.ndarray, lam: float):
        a = np.asarray(a, dtype=float)
        ch, fr = np.nonzero(a)
        return cls(a.shape[0], a.shape[1], lam, ch, fr, a[ch, fr])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.n_channels, self.n_frames))
        dense[self.channels, self.frames] = self.values
        return dense


def threshold(v: np.ndarray, lam: float) -> np.ndarray:
    """Hard threshold: zero where |v| < lam, pass-through otherwise."""
    if lam < 0:
        raise ConfigError(f"threshold must be >= 0, got {lam}")
    v = np.asarray(v, dtype=float)
    if lam == 0:
        # Nothing is zeroed, and the += 0.0 below would turn a -0.0 of v into +0.0.
        return v.copy()
    # v * (|v| >= lam) in one new array, without np.where's branches; the
    # closing += 0.0 turns the -0.0 a negative v times 0 leaves into +0.0, as
    # np.where writes it.
    a = np.abs(v)
    np.greater_equal(a, lam, out=a)
    a *= v
    a += 0.0
    return a


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

    Uses ``state.inhibition`` and refreshes it for the new activations.
    Updates ``v`` in place, binds new ``a`` and ``inhibition`` arrays and
    returns ``state``; the energy trace is maintained by the caller.
    """
    # v + eta * (drive - v - inhibition), in place. The old a and inhibition
    # are let go before the new ones are built, so a stack holds at most five
    # arrays of its size at a time.
    step = drive - state.v
    step -= state.inhibition
    step *= config.eta
    state.v += step
    del step
    state.a = state.inhibition = None
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
    """Run the LCA dynamics on one signal: ``encode_many`` on a stack of one.

    Returns (SparseCode, LcaState) and raises the ChirpcodeError the solve
    failed with. ``kernel`` is as for ``encode_many``.
    """
    (result,) = encode_many([s], d, config, kernel=kernel, trace_window=trace_window)
    if isinstance(result, ChirpcodeError):
        raise result
    return result


@dataclass(eq=False)
class _Solve:
    """One utterance's bookkeeping inside a stacked solve."""

    index: int
    trace: list
    silent: bool
    activated: bool = False
    history: deque | None = None


def _trace_energies(stack: LcaState, drive: np.ndarray, solves, unit_cost: float):
    """Each stack item's trace energy and active count, without reconstructing.

    Unit-norm atoms make the synthesis Gram operator a -> a + K a, so
    1/2 ||s - recon||^2 = 1/2 ||s||^2 - <a, drive> + 1/2 <a, a + K a>. Each
    item's sum is the expression a lone solve evaluates: the (B, 1, N) @
    (B, N, 1) products make numpy call, per item, the BLAS dot that
    ``np.vdot`` calls on that item, so each has the same bits. Overflow is
    left to the caller's finiteness test, which reports divergence as a
    SolverError. Being a function of its own, it leaves no reference to this
    step's arrays behind for the next ``lca_step``.
    """
    rows = stack.a.reshape(len(solves), 1, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = stack.a + stack.inhibition
        a_drive = np.matmul(rows, drive.reshape(len(solves), -1, 1))[:, 0, 0]
        a_gram = np.matmul(rows, gram.reshape(len(solves), -1, 1))[:, 0, 0]
    counts = np.count_nonzero(rows[:, 0], axis=1).tolist()
    return [(solve.trace[0] - float(x) + 0.5 * float(y) + unit_cost * count, count)
            for solve, x, y, count in zip(solves, a_drive, a_gram, counts)]


def _own(item: np.ndarray) -> np.ndarray:
    """A stack item as a result may hold it: a view of a larger stack would
    keep the whole stack alive, so it is copied; a view of a stack of one
    spans no more than itself and is kept."""
    return item if item.base is None or item.base.nbytes == item.nbytes else item.copy()


def encode_many(
    signals,
    d: Dictionary,
    config: LcaConfig,
    *,
    kernel: GramKernel | None = None,
    trace_window: int = 0,
):
    """Run the LCA dynamics from v = 0 on a stack of signals that share a frame count.

    One solver loop steps all of them as (B, n, T) arrays, while each
    utterance keeps its own energy trace, stop test and freeze: its code,
    iteration count and trace are bit-identical to a solve of it alone. A
    solve stops when the relative change of its trace energy drops below
    ``config.rel_tol`` (the test is armed only once some unit of it has
    activated, or when none of its drive exceeds the threshold, so the solver
    cannot declare victory while potentials are still charging). A stopped
    utterance leaves the stack; its state holds copies of that iteration's
    arrays, so it does not keep the stack alive. Set ``trace_window`` > 0 to
    record the last ``trace_window`` + 1 activation matrices of each solve
    for the adaptation reverse pass.

    Returns a list in input order holding, for each signal, (SparseCode,
    LcaState) or the ChirpcodeError it failed with: a SignalError for a
    signal too short or not finite, a SolverError when its energy stops being
    finite. Valid signals of different frame counts raise SignalError.

    The solve inhibits through ``d.kernel``; ``kernel`` remains only for
    callers that still build and pass their own (the benchmark harness).
    """
    results = [None] * len(signals)
    solves, drives = [], []
    for index, s in enumerate(signals):
        try:
            s = np.asarray(s, dtype=float)
            if not np.all(np.isfinite(s)):
                raise SignalError("signal contains non-finite samples")
            drive = project(d, s)
        except ChirpcodeError as exc:
            results[index] = exc
            continue
        silent = float(np.max(np.abs(drive), initial=0.0)) <= config.lam
        solves.append(_Solve(index=index, trace=[0.5 * float(s @ s)], silent=silent))
        drives.append(drive)
    if not solves:
        return results
    frame_counts = sorted({x.shape[1] for x in drives})
    if len(frame_counts) > 1:
        raise SignalError(f"a stacked solve needs one frame count, got {frame_counts}")
    kernel = kernel or d.kernel
    drive = np.stack(drives)
    del drives

    stack = LcaState(
        v=np.zeros(drive.shape), a=np.zeros(drive.shape),
        inhibition=np.zeros(drive.shape), lam=config.lam, eta=config.eta,
    )
    if trace_window > 0:
        for j, solve in enumerate(solves):
            solve.history = deque([stack.a[j]], maxlen=trace_window + 1)
    unit_cost = 0.5 * config.lam * config.lam

    def finish(j, solve):
        v, a, inhibition = (_own(x[j]) for x in (stack.v, stack.a, stack.inhibition))
        history = solve.history
        if history is not None:
            history = deque([_own(h) for h in list(history)[:-1]] + [a], maxlen=history.maxlen)
        state = LcaState(
            v=v, a=a, inhibition=inhibition, iter=stack.iter, energy_trace=solve.trace,
            a_history=history, lam=config.lam, eta=config.eta,
        )
        results[solve.index] = (SparseCode.from_dense(state.a, config.lam), state)

    for it in range(1, config.max_iters + 1):
        lca_step(stack, drive, kernel, config)
        energies = _trace_energies(stack, drive, solves, unit_cost)
        keep = []
        for j, (solve, (e, count)) in enumerate(zip(solves, energies)):
            if not math.isfinite(e):
                results[solve.index] = SolverError(
                    f"non-finite energy at iteration {it}; the Euler step eta={config.eta} "
                    "may be too large for this dictionary"
                )
                continue
            solve.trace.append(e)
            if solve.history is not None:
                solve.history.append(stack.a[j])
            solve.activated = solve.activated or count > 0
            if solve.activated or solve.silent:
                if abs(e - solve.trace[-2]) / max(abs(e), 1e-30) < config.rel_tol:
                    finish(j, solve)
                    continue
            keep.append(j)
        if len(keep) < len(solves):
            solves = [solves[j] for j in keep]
            if not solves:
                break
            stack.v, stack.a = stack.v[keep], stack.a[keep]
            stack.inhibition, drive = stack.inhibition[keep], drive[keep]

    for j, solve in enumerate(solves):
        finish(j, solve)
    return results


def energy(s: np.ndarray, code: SparseCode, d: Dictionary, lam: float, alpha: float = 1.0) -> float:
    """Adaptation objective: 1/2 ||recon - s||^2 + alpha * lam * sum|a|."""
    s = np.asarray(s, dtype=float)
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
    # json.dumps takes the C encoder; json.dump streams through the Python one.
    with open(path, "w") as fh:
        fh.write(json.dumps(payload) + "\n")


def load_code(path) -> SparseCode:
    """Load a sparse code JSON file."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
        events = payload["events"]
        return SparseCode(payload["n_channels"], payload["n_frames"], payload["lambda"],
                          *([e[k] for e in events] for k in range(3)))
    except (OSError, ValueError, KeyError, IndexError, TypeError, CodeError) as exc:
        raise CodeError(f"cannot read code file {path}: {exc}") from exc


def export_events_csv(code: SparseCode, path) -> None:
    """Write events as ``channel,frame,value`` CSV (header always present)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["channel", "frame", "value"])
        for c, f, v in zip(code.channels, code.frames, code.values):
            writer.writerow([int(c), int(f), repr(float(v))])
