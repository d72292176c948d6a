"""Gradient-based dictionary adaptation (ALCA and ALCA-CF).

The adaptation objective is ``lca.energy``: residual power plus an
L1-weighted sparsity cost. Its gradient with respect to the filter
parameters has two parts:

* a reconstruction term, the residual correlated with each channel's atom
  jacobian at every frame the channel fired in, holding the code fixed; and
* a sparsity term, obtained by reverse accumulation through the most recent
  solver iterations (truncated backpropagation through time): the upstream
  signal alpha * lam * sign(a) enters at the final activations and flows
  backward through the Euler updates, picking up the drive and inhibition
  kernel's dependence on the atoms along the way.

Both parts are assembled per channel as a gradient with respect to the
normalized atom samples and only then contracted with the analytic atom
jacobians, so ALCA (adapt c, b, l) and ALCA-CF (also adapt f) differ only in
which contractions are used. Parameters are stepped with Adamax; the centre
frequencies get their own learning rate because their scale (Hz, up to
Nyquist) is far from the modulation parameters'.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from ._parallel import pmap, workers
from .dictionary import (
    Dictionary,
    GramKernel,
    apply_kernel,
    erb,
    erb_slope,
    gammachirp_parts,
    gram_kernel,
    make_dictionary,
    n_frames,
    overlap_add,
    signal_windows,
)
from .errors import ChirpcodeError, ConfigError, GradientError, OptimizerError
from .lca import LcaConfig, LcaState
from .metrics import corpus_signals, encode_and_grade

MODE_ALCA = "alca"
MODE_ALCA_CF = "alca-cf"

ADAMAX_BETA1 = 0.9
ADAMAX_BETA2 = 0.999
ADAMAX_EPS = 1e-8

PARAM_NAMES = ("c", "b", "l", "f")


@dataclass(frozen=True)
class ParamBounds:
    """Clamp ranges keeping every channel a valid, well-conditioned filter."""

    f: tuple = (20.0, 21600.0)
    b: tuple = (0.2, 5.0)
    l: tuple = (1.5, 8.0)
    c: tuple = (-5.0, 5.0)

    def __post_init__(self):
        for name in PARAM_NAMES:
            lo, hi = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigError(f"bounds for {name!r} must be finite with lo < hi")
        if self.f[0] <= 0:
            raise ConfigError("frequency lower bound must be positive")
        if self.b[0] <= 0:
            raise ConfigError("bandwidth lower bound must be positive")
        if self.l[0] < 1:
            raise ConfigError("envelope-order lower bound must be >= 1")


def default_bounds(sample_rate) -> ParamBounds:
    """Default clamp ranges for a given sample rate (frequency capped below Nyquist)."""
    return ParamBounds(f=(20.0, 0.45 * float(sample_rate)))


@dataclass(frozen=True)
class AdaptConfig:
    """Adaptation run configuration."""

    mode: str
    lr_mod: float = 1e-3
    lr_cf: float = 1.0
    alpha: float = 1.0
    tbptt_window: int = 50
    epochs: int = 10
    batch_size: int = 8
    bounds: ParamBounds = field(default_factory=ParamBounds)
    seed: int = 0

    def __post_init__(self):
        mode = str(self.mode).lower()
        if mode not in (MODE_ALCA, MODE_ALCA_CF):
            raise ConfigError(f"mode must be 'alca' or 'alca-cf', got {self.mode!r}")
        object.__setattr__(self, "mode", mode)
        if not self.lr_mod > 0:
            raise ConfigError(f"lr_mod must be positive, got {self.lr_mod}")
        if mode == MODE_ALCA_CF and not self.lr_cf > 0:
            raise ConfigError(f"lr_cf must be positive in alca-cf mode, got {self.lr_cf}")
        if self.alpha < 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.tbptt_window < 1:
            raise ConfigError(f"tbptt_window must be >= 1, got {self.tbptt_window}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")


@dataclass(frozen=True)
class ParamGradients:
    """Energy partials per channel; d_f is identically zero in ALCA mode."""

    d_c: np.ndarray
    d_b: np.ndarray
    d_l: np.ndarray
    d_f: np.ndarray

    def __post_init__(self):
        for name in ("d_c", "d_b", "d_l", "d_f"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise GradientError(f"non-finite entries in {name}")

    def get(self, name: str) -> np.ndarray:
        return getattr(self, "d_" + name)


@dataclass
class AdamaxState:
    """Exponential first moment and infinity-norm second moment per parameter."""

    m: dict
    u: dict

    @classmethod
    def zeros(cls, n_channels: int) -> "AdamaxState":
        return cls(
            m={name: np.zeros(n_channels) for name in PARAM_NAMES},
            u={name: np.zeros(n_channels) for name in PARAM_NAMES},
        )


def dictionary_jacobians(d: Dictionary):
    """Partials of the unit-norm atoms w.r.t. (c, b, l, f), a dict of (N, filter_len) arrays.

    Each row is orthogonal to its channel's atom, as differentiating through
    the L2 normalization requires.
    """
    g, env, phase, t = gammachirp_parts(d.f, d.b, d.c, d.l, d.filter_len, float(d.sample_rate))
    norms = np.linalg.norm(g, axis=1)
    ghat = g / norms[:, None]
    log_t = np.log(t)
    env_sin = env * np.sin(phase)

    raw = {
        "c": -log_t * env_sin,
        "b": (-2.0 * np.pi * erb(d.f))[:, None] * t * g,
        "l": log_t * g,
        "f": (-2.0 * np.pi * d.b * erb_slope(d.f))[:, None] * t * g
        - 2.0 * np.pi * t * env_sin,
    }
    out = {}
    for name, dg in raw.items():
        radial = np.sum(ghat * dg, axis=1, keepdims=True)
        jac = (dg - ghat * radial) / norms[:, None]
        if not np.all(np.isfinite(jac)):
            raise GradientError(f"non-finite atom jacobian for parameter {name!r}")
        out[name] = jac
    return out


def _accumulate_lag_correlations(q: np.ndarray, x: np.ndarray, y: np.ndarray):
    # q[d, i, j] += sum_t x[i, t] * y[j, t + d] + y[i, t] * x[j, t + d] for
    # d in [0, max_lag]. The lag -d sum is exactly q[d].T, so it is not formed.
    t_frames = x.shape[1]
    c = x @ y.T
    q[0] += c + c.T
    for lag in range(1, min(q.shape[0], t_frames)):
        q[lag] += x[:, : t_frames - lag] @ y[:, lag:].T + y[:, : t_frames - lag] @ x[:, lag:].T


def _contract_lags(q: np.ndarray, atoms: np.ndarray, stride: int) -> np.ndarray:
    # out[i, s] = sum_j sum_d Q_d[i, j] * atoms[j, s - d*stride], where Q_d is
    # q[d] for d >= 0 and q[-d].T for d < 0.
    n, flen = atoms.shape
    max_lag = q.shape[0] - 1
    out = np.zeros((n, flen))
    for lag in range(-max_lag, max_lag + 1):
        shift = lag * stride
        if abs(shift) >= flen:
            continue
        shifted = np.zeros_like(atoms)
        if shift >= 0:
            shifted[:, shift:] = atoms[:, : flen - shift]
        else:
            shifted[:, :shift] = atoms[:, -shift:]
        out += (q[lag] if lag >= 0 else q[-lag].T) @ shifted
    return out


def energy_gradient(
    s: np.ndarray,
    d: Dictionary,
    lca_trace: LcaState,
    config: AdaptConfig,
    *,
    kernel: GramKernel | None = None,
) -> ParamGradients:
    """Gradient of the adaptation energy w.r.t. every channel's (c, b, l, f).

    ``lca_trace`` must come from ``encode`` on the same signal and dictionary,
    with iteration recording enabled (``trace_window``) when the sparsity term
    is active. The reverse pass unrolls at most ``config.tbptt_window``
    iterations; a shorter recorded trace is used in full.
    """
    s = np.asarray(s, dtype=float)
    atoms = d.atoms
    n, flen = atoms.shape
    t_frames = n_frames(len(s), d.filter_len, d.stride)
    a_final = lca_trace.a
    if a_final.shape != (n, t_frames):
        raise GradientError(
            f"trace shape {a_final.shape} does not match dictionary/signal "
            f"geometry ({n}, {t_frames})"
        )
    lam = lca_trace.lam
    eta = lca_trace.eta

    # Reconstruction term: residual windows weighted by the final code.
    recon = overlap_add(atoms.T @ a_final, d.stride, len(s))
    res_windows = signal_windows(recon - s, d.filter_len, d.stride)
    g_atoms = a_final @ res_windows

    # Sparsity term: reverse pass through the recorded iterations.
    weight = config.alpha * lam
    if weight > 0.0 and np.any(a_final):
        if lca_trace.a_history is None or len(lca_trace.a_history) < 2:
            raise GradientError(
                "trace has no recorded iterations; encode with trace_window > 0"
            )
        hist = list(lca_trace.a_history)
        steps = min(config.tbptt_window, len(hist) - 1)
        if kernel is None:
            kernel = gram_kernel(d)

        gbar = weight * np.sign(a_final)
        gbar_rows = np.zeros((n, t_frames))
        q = np.zeros((kernel.max_lag + 1, n, n))
        for step in range(steps):
            a_prev = hist[-2 - step]
            gbar_rows += gbar
            _accumulate_lag_correlations(q, gbar, a_prev)
            if step < steps - 1:
                if lam > 0:
                    mask = (a_prev != 0.0).astype(float)
                    gbar = (1.0 - eta) * gbar - eta * mask * apply_kernel(kernel, gbar)
                else:
                    gbar = (1.0 - eta) * gbar - eta * apply_kernel(kernel, gbar)
        windows = signal_windows(s, d.filter_len, d.stride)
        g_atoms = g_atoms + eta * (gbar_rows @ windows)
        g_atoms = g_atoms - eta * _contract_lags(q, atoms, d.stride)

    jac = dictionary_jacobians(d)
    d_c = np.sum(g_atoms * jac["c"], axis=1)
    d_b = np.sum(g_atoms * jac["b"], axis=1)
    d_l = np.sum(g_atoms * jac["l"], axis=1)
    if config.mode == MODE_ALCA_CF:
        d_f = np.sum(g_atoms * jac["f"], axis=1)
    else:
        d_f = np.zeros(n)
    return ParamGradients(d_c=d_c, d_b=d_b, d_l=d_l, d_f=d_f)


def adamax_step(
    d: Dictionary,
    grads: ParamGradients,
    moments: AdamaxState,
    config: AdaptConfig,
    step_index: int,
) -> dict:
    """One Adamax update of ``d``'s parameter arrays, clamped to bounds.

    Returns the stepped arrays as a dict keyed by PARAM_NAMES, ready for
    ``make_dictionary``; ``moments`` is updated in place. ``step_index`` is
    1-based (moments are zero before the first step). The modulation
    parameters (c, b, l) use ``config.lr_mod``. In ALCA-CF mode the centre
    frequencies are stepped too, with ``config.lr_cf``; in ALCA mode they are
    neither stepped nor clamped, so they stay bit-identical. A lane
    whose gradient has been zero at every step so far, and that lies inside
    its bounds, is left bit-identical.
    """
    if step_index < 1:
        raise OptimizerError(f"step_index must be >= 1, got {step_index}")
    correction = 1.0 - ADAMAX_BETA1 ** step_index
    adapted = PARAM_NAMES if config.mode == MODE_ALCA_CF else ("c", "b", "l")
    updated = {name: getattr(d, name) for name in PARAM_NAMES}
    for name in adapted:
        lr = config.lr_cf if name == "f" else config.lr_mod
        g = grads.get(name)
        m = ADAMAX_BETA1 * moments.m[name] + (1.0 - ADAMAX_BETA1) * g
        u = np.maximum(ADAMAX_BETA2 * moments.u[name], np.abs(g))
        theta = getattr(d, name) - (lr / correction) * m / (u + ADAMAX_EPS)
        lo, hi = getattr(config.bounds, name)
        theta = np.clip(theta, lo, hi)
        if not np.all(np.isfinite(theta)):
            raise OptimizerError(f"non-finite update for parameter {name!r}")
        moments.m[name] = m
        moments.u[name] = u
        updated[name] = theta
    return updated


@dataclass(frozen=True)
class EpochStats:
    """Per-epoch means recorded while adapting."""

    epoch: int
    mean_energy: float
    mean_snr_db: float
    mean_active_count: float


def _adapt_task(uid, signal, d, kernel, lca_cfg, adapt_cfg):
    try:
        (result,) = encode_and_grade(
            [uid], [signal], d, lca_cfg, kernel, adapt_cfg.alpha, adapt_cfg.tbptt_window
        )
        if isinstance(result, ChirpcodeError):
            raise result
        report, _, state = result
        return report, energy_gradient(signal, d, state, adapt_cfg, kernel=kernel)
    except ChirpcodeError as exc:
        raise type(exc)(f"utterance {uid!r}: {exc}") from exc


def adapt_corpus(
    corpus, d0: Dictionary, lca_cfg: LcaConfig, adapt_cfg: AdaptConfig, jobs: int = 1
):
    """Adapt a dictionary over a corpus; returns (dictionary, per-epoch history).

    Each epoch shuffles the corpus (seeded), walks it in mini-batches, averages
    the per-utterance gradients over each batch, applies one Adamax step, and
    re-synthesizes the atoms and inhibition kernel. Per-epoch statistics are
    the means over the encodes performed during that epoch. ``jobs`` > 1
    spreads the per-utterance work of a batch over one pool of worker
    processes, open for the whole run; the optimizer step stays a serial
    barrier and the gradient mean keeps batch order.
    """
    nyquist = d0.sample_rate / 2
    if adapt_cfg.mode == MODE_ALCA_CF and adapt_cfg.bounds.f[1] >= nyquist:
        raise ConfigError(
            f"frequency upper bound {adapt_cfg.bounds.f[1]} Hz must lie below "
            f"Nyquist ({nyquist} Hz) in alca-cf mode"
        )
    corpus = list(corpus)
    if not corpus:
        raise ConfigError("corpus is empty")
    ids, signals = corpus_signals(corpus, d0.sample_rate)

    rng = np.random.default_rng(adapt_cfg.seed)
    moments = AdamaxState.zeros(d0.n_channels)
    d = d0
    kernel = gram_kernel(d)
    history = []
    step_index = 0

    # A pool larger than a mini-batch would only hold idle workers.
    with workers(min(jobs, adapt_cfg.batch_size, len(corpus))):
        for epoch in range(adapt_cfg.epochs):
            order = rng.permutation(len(corpus))
            energies, snrs, actives = [], [], []
            for start in range(0, len(order), adapt_cfg.batch_size):
                batch = order[start : start + adapt_cfg.batch_size]
                tasks = [
                    (ids[idx], signals[idx], d, kernel, lca_cfg, adapt_cfg) for idx in batch
                ]
                batch_grads = []
                for report, grads in pmap(_adapt_task, tasks, jobs):
                    batch_grads.append(grads)
                    energies.append(report.energy)
                    snrs.append(report.snr_db)
                    actives.append(report.active_count)
                mean_grads = ParamGradients(
                    d_c=np.mean([g.d_c for g in batch_grads], axis=0),
                    d_b=np.mean([g.d_b for g in batch_grads], axis=0),
                    d_l=np.mean([g.d_l for g in batch_grads], axis=0),
                    d_f=np.mean([g.d_f for g in batch_grads], axis=0),
                )
                step_index += 1
                stepped = adamax_step(d, mean_grads, moments, adapt_cfg, step_index)
                d = make_dictionary(
                    **stepped, filter_len=d.filter_len, stride=d.stride, sample_rate=d.sample_rate
                )
                kernel = gram_kernel(d)
            history.append(
                EpochStats(
                    epoch=epoch,
                    mean_energy=float(np.mean(energies)),
                    mean_snr_db=float(np.mean(snrs)),
                    mean_active_count=float(np.mean(actives)),
                )
            )
    return d, history


def write_history_csv(history, path) -> None:
    """Write per-epoch adaptation statistics as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "mean_energy", "mean_snr_db", "mean_active_count"])
        for row in history:
            writer.writerow(
                [row.epoch, repr(row.mean_energy), repr(row.mean_snr_db),
                 repr(row.mean_active_count)]
            )

