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

The reverse pass runs on the live channels only, those that fire in any
iteration it reads: every other channel's adjoint is zero at the start and
stays zero, since each update masks the inhibition by the activations. It
hands the lag correlations to BLAS a block of iterations at a time, laid end
to end with zero gaps so that no lag pairs frames of different iterations.
Both are exact restructurings; only the rounding of the sums changes.

Both parts are assembled per channel as a gradient with respect to the
normalized atom samples and only then contracted with the analytic atom
jacobians, so ALCA (adapt c, b, l) and ALCA-CF (also adapt f) differ only in
which contractions are used. The jacobians are evaluated and contracted a
block of channels at a time, so a gradient holds one block's jacobians and
not the whole bank's; each row depends on its own channel alone, so the
blocks change no bit. Parameters are stepped with Adamax; the centre
frequencies get their own learning rate because their scale (Hz, up to
Nyquist) is far from the modulation parameters'.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from ._parallel import workers
from .dictionary import (
    Dictionary,
    GramKernel,
    apply_kernel,
    erb,
    erb_slope,
    gammachirp_parts,
    make_dictionary,
    n_frames,
    overlap_add,
    signal_windows,
)
from .errors import ChirpcodeError, ConfigError, GradientError, OptimizerError, config_value
from .lca import LcaConfig, LcaState, check_field_types
from .metrics import corpus_signals, encode_and_grade, map_stacks, raise_first_failure

MODE_ALCA = "alca"
MODE_ALCA_CF = "alca-cf"

ADAMAX_BETA1 = 0.9
ADAMAX_BETA2 = 0.999
ADAMAX_EPS = 1e-8

PARAM_NAMES = ("c", "b", "l", "f")

# Columns per _accumulate_lag_correlations call in the reverse pass: that many
# iterations' frames, end to end. Measured with OpenBLAS on 2 cores, at 567
# live channels and 92 + 1 columns per 1 s, 48 kHz iteration, the call costs
# 4.7 ms per iteration one iteration at a time (38 GFLOP/s), 3.5 ms two at a
# time and 2.8 ms five at a time (465 columns, 65 GFLOP/s). Eleven or sixteen
# at a time save only another 10-15 % of that and grow the two block buffers.
LAG_BLOCK_COLUMNS = 512

# Channels per dictionary_jacobians call in energy_gradient: the gradient holds
# a block's 19 or so (channels, filter_len) temporaries, not a whole bank's.
# Measured at 700 channels and filter 1024, jacobians plus the four
# contractions, median of 9 interleaved runs, and the tracemalloc peak:
# blocks of 16: 78 ms, 2.5 MB; 32: 71 ms, 4.8 MB; 64: 71 ms, 9.5 MB;
# 128: 88 ms, 19 MB; 256: 101 ms, 38 MB; all 700 at once: 122 ms, 80 MB.
# 32 is as fast as 64 and holds half the memory.
JACOBIAN_BLOCK_CHANNELS = 32


@dataclass(frozen=True)
class ParamBounds:
    """Clamp ranges (lo, hi) keeping every channel a valid filter; f's is ``default_bounds``'."""

    f: tuple
    b: tuple = (0.2, 5.0)
    l: tuple = (1.5, 8.0)
    c: tuple = (-5.0, 5.0)

    def __post_init__(self):
        for name in PARAM_NAMES:
            pair = getattr(self, name)
            if not (isinstance(pair, (tuple, list)) and len(pair) == 2):
                raise ConfigError(f"bounds for {name!r} must be a pair (lo, hi), got {pair!r}")
            lo, hi = (config_value(f"bounds for {name!r}", x, float) for x in pair)
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ConfigError(f"bounds for {name!r} must be finite with lo < hi, got {pair!r}")
            object.__setattr__(self, name, (lo, hi))
        if self.f[0] <= 0:
            raise ConfigError("frequency lower bound must be positive")
        if self.b[0] <= 0:
            raise ConfigError("bandwidth lower bound must be positive")
        if self.l[0] < 1:
            raise ConfigError("envelope-order lower bound must be >= 1")


def default_bounds(sample_rate) -> ParamBounds:
    """Default clamp ranges for a sample rate: f from 20 Hz to 0.45 * sample_rate."""
    if not sample_rate > 0:
        raise ConfigError(f"sample_rate must be positive, got {sample_rate}")
    return ParamBounds(f=(20.0, 0.45 * float(sample_rate)))


@dataclass(frozen=True)
class AdaptConfig:
    """Adaptation run configuration; ``bounds`` None is the dictionary's ``default_bounds``."""

    mode: str
    lr_mod: float = 1e-3
    lr_cf: float = 1.0
    alpha: float = 1.0
    tbptt_window: int = 50
    epochs: int = 10
    batch_size: int = 8
    bounds: ParamBounds | None = None
    seed: int = 0

    def __post_init__(self):
        mode = str(self.mode).lower()
        if mode not in (MODE_ALCA, MODE_ALCA_CF):
            raise ConfigError(f"mode must be 'alca' or 'alca-cf', got {self.mode!r}")
        object.__setattr__(self, "mode", mode)
        check_field_types(self)
        if not self.lr_mod > 0:
            raise ConfigError(f"lr_mod must be positive, got {self.lr_mod}")
        if mode == MODE_ALCA_CF and not self.lr_cf > 0:
            raise ConfigError(f"lr_cf must be positive in alca-cf mode, got {self.lr_cf}")
        if not self.alpha >= 0:
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.tbptt_window < 1:
            raise ConfigError(f"tbptt_window must be >= 1, got {self.tbptt_window}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.bounds is None or isinstance(self.bounds, ParamBounds)):
            raise ConfigError(f"bounds must be None or a ParamBounds, got {self.bounds!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    @property
    def adapted(self) -> tuple:
        """The parameters this mode adapts: c, b and l, and in ALCA-CF also f."""
        return PARAM_NAMES if self.mode == MODE_ALCA_CF else ("c", "b", "l")


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


def dictionary_jacobians(d: Dictionary, channels: slice = slice(None), params=PARAM_NAMES):
    """Partials of the unit-norm atoms w.r.t. ``params``, a dict of (N, filter_len) arrays.

    Each row is orthogonal to its channel's atom, as differentiating through
    the L2 normalization requires. ``channels`` selects the rows, every
    channel by default; each row depends on its own channel only, so a slice
    gives the same bits as those rows of the whole set. ``params`` names the
    parameters, all four of c, b, l and f by default; each partial is computed
    alone, so a subset gives the same bits as those entries of the whole set.
    """
    f, b, c, l = d.f[channels], d.b[channels], d.c[channels], d.l[channels]
    g, env, phase, t = gammachirp_parts(f, b, c, l, d.filter_len, float(d.sample_rate))
    norms = np.linalg.norm(g, axis=1)
    ghat = g / norms[:, None]
    log_t = np.log(t)
    env_sin = env * np.sin(phase)

    raw = {
        "c": lambda: -log_t * env_sin,
        "b": lambda: (-2.0 * np.pi * erb(f))[:, None] * t * g,
        "l": lambda: log_t * g,
        "f": lambda: (-2.0 * np.pi * b * erb_slope(f))[:, None] * t * g
        - 2.0 * np.pi * t * env_sin,
    }
    out = {}
    for name in params:
        dg = raw[name]()
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
    # Only the columns where the shifted atoms overlap the filter are formed.
    for lag in range(-max_lag, max_lag + 1):
        shift = lag * stride
        if abs(shift) >= flen:
            continue
        q_lag = q[lag] if lag >= 0 else q[-lag].T
        if shift >= 0:
            out[:, shift:] += q_lag @ atoms[:, : flen - shift]
        else:
            out[:, :shift] += q_lag @ atoms[:, -shift:]
    return out


def _reverse_pass(a_final, prev, kernel: GramKernel, weight: float, eta: float):
    """Adjoints of the Euler steps that led from ``prev`` to ``a_final``.

    ``prev`` holds the activations before each step, oldest first. Returns
    (live, gbar_rows, q) on the live channels, the indices of those nonzero
    in ``a_final`` or any entry of ``prev``: the adjoints summed over steps,
    (m, T), and the lag correlations of adjoints with activations,
    (max_lag + 1, m, m). Off ``live`` both are exactly zero.
    """
    steps = len(prev)
    live = np.flatnonzero(np.any([np.any(a, axis=1) for a in [a_final, *prev]], axis=0))
    m, t_frames = len(live), a_final.shape[1]
    lags = kernel.lags if m == a_final.shape[0] else kernel.lags.take(live, axis=1).take(live, axis=2)
    # The dense lags alone: this pass does not apply the range factors.
    kernel = GramKernel(lags=lags, max_lag=kernel.max_lag)
    # A step's frames and then max_lag zero columns, so that no lag reaches
    # from one step's frames into the next's.
    width = t_frames + kernel.max_lag
    per = max(1, min(steps, LAG_BLOCK_COLUMNS // width))
    gbar_block = np.zeros((m, per, width))
    a_block = np.zeros((m, per, width))

    gbar = weight * np.sign(a_final[live])
    gbar_rows = np.zeros((m, t_frames))
    q = np.zeros((kernel.max_lag + 1, m, m))
    for step in range(steps):
        a_prev = prev[-1 - step][live]
        gbar_rows += gbar
        slot = step % per
        gbar_block[:, slot, :t_frames] = gbar
        a_block[:, slot, :t_frames] = a_prev
        if slot == per - 1 or step == steps - 1:
            _accumulate_lag_correlations(q, gbar_block[:, : slot + 1].reshape(m, -1),
                                         a_block[:, : slot + 1].reshape(m, -1))
        if step < steps - 1:
            mask = (a_prev != 0.0).astype(float)
            gbar = (1.0 - eta) * gbar - eta * mask * apply_kernel(kernel, gbar)
    return live, gbar_rows, q


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
    iterations; a shorter recorded trace is used in full. It inhibits through
    ``d.kernel``; the ``kernel`` keyword is as for ``lca.encode_many``.
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
    eta = lca_trace.eta

    # Reconstruction term: residual windows weighted by the final code.
    recon = overlap_add(atoms.T @ a_final, d.stride, len(s))
    res_windows = signal_windows(recon - s, d.filter_len, d.stride)
    g_atoms = a_final @ res_windows

    # Sparsity term: reverse pass through the recorded iterations.
    weight = config.alpha * lca_trace.lam
    if weight > 0.0 and np.any(a_final):
        if lca_trace.a_history is None or len(lca_trace.a_history) < 2:
            raise GradientError(
                "trace has no recorded iterations; encode with trace_window > 0"
            )
        hist = list(lca_trace.a_history)
        steps = min(config.tbptt_window, len(hist) - 1)
        live, gbar_rows, q = _reverse_pass(a_final, hist[-1 - steps : -1], kernel or d.kernel,
                                           weight, eta)
        windows = signal_windows(s, d.filter_len, d.stride)
        g_atoms[live] = (g_atoms[live] + eta * (gbar_rows @ windows)
                         - eta * _contract_lags(q, atoms[live], d.stride))

    lanes = {name: np.zeros(n) for name in PARAM_NAMES}
    for start in range(0, n, JACOBIAN_BLOCK_CHANNELS):
        block = slice(start, start + JACOBIAN_BLOCK_CHANNELS)
        jac = dictionary_jacobians(d, channels=block, params=config.adapted)
        for name in config.adapted:
            lanes[name][block] = np.sum(g_atoms[block] * jac[name], axis=1)
    return ParamGradients(**{"d_" + name: lane for name, lane in lanes.items()})


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
    updated = {name: getattr(d, name) for name in PARAM_NAMES}
    bounds = config.bounds or default_bounds(d.sample_rate)
    for name in config.adapted:
        lr = config.lr_cf if name == "f" else config.lr_mod
        g = grads.get(name)
        m = ADAMAX_BETA1 * moments.m[name] + (1.0 - ADAMAX_BETA1) * g
        u = np.maximum(ADAMAX_BETA2 * moments.u[name], np.abs(g))
        theta = getattr(d, name) - (lr / correction) * m / (u + ADAMAX_EPS)
        lo, hi = getattr(bounds, name)
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


def _adapt_stack(ids, signals, d, lca_cfg, adapt_cfg):
    # (report, gradients) or the ChirpcodeError of each utterance of a stack,
    # returned, not raised, so the caller names the first failure in batch order.
    graded = encode_and_grade(ids, signals, d, lca_cfg, adapt_cfg.alpha, adapt_cfg.tbptt_window)
    out = []
    for signal, result in zip(signals, graded):
        if not isinstance(result, ChirpcodeError):
            report, _, state = result
            try:
                result = report, energy_gradient(signal, d, state, adapt_cfg)
            except ChirpcodeError as exc:
                result = exc
        out.append(result)
    return out


def adapt_corpus(
    corpus, d0: Dictionary, lca_cfg: LcaConfig, adapt_cfg: AdaptConfig, jobs: int = 1
):
    """Adapt a dictionary over a corpus; returns (dictionary, per-epoch history).

    Each epoch shuffles the corpus (seeded), walks it in mini-batches, averages
    the per-utterance gradients over each batch, applies one Adamax step, and
    re-synthesizes the atoms. A batch is solved in stacks by ``map_stacks``,
    which builds ``d.kernel`` of the dictionary it steps from, once per step,
    and ``jobs`` > 1 spreads the stacks over one pool of workers open for the
    whole run. ``d0`` keeps its kernel cached after the call. Per-epoch
    statistics are the means over that epoch's encodes. The optimizer step
    stays a serial barrier, the gradient mean keeps batch order, and the
    first failure in batch order is raised, named by its utterance.
    """
    nyquist = d0.sample_rate / 2
    f_max = (adapt_cfg.bounds or default_bounds(d0.sample_rate)).f[1]
    if adapt_cfg.mode == MODE_ALCA_CF and f_max >= nyquist:
        raise ConfigError(
            f"frequency upper bound {f_max} Hz must lie below "
            f"Nyquist ({nyquist} Hz) in alca-cf mode"
        )
    ids, signals = corpus_signals(corpus, d0.sample_rate)

    rng = np.random.default_rng(adapt_cfg.seed)
    moments = AdamaxState.zeros(d0.n_channels)
    d = d0
    history = []
    step_index = 0

    # A pool larger than a mini-batch would only hold idle workers.
    with workers(min(jobs, adapt_cfg.batch_size, len(ids))):
        for epoch in range(adapt_cfg.epochs):
            order = rng.permutation(len(ids))
            energies, snrs, actives = [], [], []
            for start in range(0, len(order), adapt_cfg.batch_size):
                batch = order[start : start + adapt_cfg.batch_size]
                batch_ids = [ids[idx] for idx in batch]
                results = map_stacks(
                    _adapt_stack, batch_ids, [signals[idx] for idx in batch], d, jobs,
                    lca_cfg, adapt_cfg, trace_window=adapt_cfg.tbptt_window,
                )
                raise_first_failure(batch_ids, results)
                reports, batch_grads = zip(*results)
                energies += [r.energy for r in reports]
                snrs += [r.snr_db for r in reports]
                actives += [r.active_count for r in reports]
                mean_grads = ParamGradients(**{
                    f"d_{name}": np.mean([g.get(name) for g in batch_grads], axis=0)
                    for name in PARAM_NAMES
                })
                step_index += 1
                stepped = adamax_step(d, mean_grads, moments, adapt_cfg, step_index)
                d = make_dictionary(
                    **stepped, filter_len=d.filter_len, stride=d.stride, sample_rate=d.sample_rate
                )
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

