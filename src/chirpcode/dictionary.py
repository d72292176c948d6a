"""Gammachirp dictionary: atom synthesis, strided operators, lateral-inhibition kernel.

A dictionary holds N parameterized Gammachirp filters sampled at `filter_len`
points. Striding each filter across the signal with hop `stride` yields the
effective (very tall) synthesis matrix; `project` and `reconstruct` implement
its transpose-apply and apply without ever materializing it. The Gram kernel
caches all inter-atom correlations at frame lags, which is what the LCA
dynamics use for lateral inhibition.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CodeError, ConfigError, ParameterError, SignalError, SynthesisError

# Glasberg-Moore linear ERB map: erb(f) = ERB_OFFSET * (ERB_SLOPE * f + 1)
ERB_OFFSET = 24.7
ERB_SLOPE = 4.37 / 1000.0

# Standard 4th-order Gammatone envelope constants
GAMMATONE_ORDER = 4.0
GAMMATONE_BANDWIDTH = 1.019


def erb(f):
    """Equivalent rectangular bandwidth (Hz) at centre frequency `f` (Hz).

    Linear Glasberg-Moore map, valid for f >= 0. Accepts scalars or arrays.
    """
    f = np.asarray(f, dtype=float)
    if np.any(f < 0):
        raise ParameterError("erb() requires a non-negative frequency")
    out = ERB_OFFSET * (ERB_SLOPE * f + 1.0)
    return float(out) if out.ndim == 0 else out


def erb_slope(f):
    """Derivative of erb() with respect to frequency (constant for the linear map)."""
    return ERB_OFFSET * ERB_SLOPE


@dataclass(frozen=True)
class GammachirpParams:
    """Per-channel Gammachirp filter parameters.

    f: centre frequency in Hz
    b: envelope bandwidth scale (dimensionless)
    c: chirp parameter; c = 0 gives a pure Gammatone
    l: Gamma envelope order
    """

    f: float
    b: float
    c: float
    l: float

    def __post_init__(self):
        for name in ("f", "b", "c", "l"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ParameterError(f"parameter {name!r} must be finite, got {value!r}")
        if self.f <= 0:
            raise ParameterError(f"centre frequency must be positive, got {self.f}")
        if self.b <= 0:
            raise ParameterError(f"bandwidth scale must be positive, got {self.b}")
        if self.l < 1:
            raise ParameterError(f"envelope order must be >= 1, got {self.l}")


def _time_grid(filter_len: int, sample_rate: float) -> np.ndarray:
    # First sample at t = 1/sr keeps t^(l-1) and ln(t) well-defined.
    return (np.arange(filter_len, dtype=float) + 1.0) / float(sample_rate)


def gammachirp_parts(f, b, c, l, filter_len: int, sample_rate: float):
    """Raw (unnormalized) Gammachirp pieces for vectors of channel parameters.

    Returns (g, env, phase, t) where g = env * cos(phase),
    env = t^(l-1) * exp(-2*pi*b*erb(f)*t) and phase = 2*pi*f*t + c*ln(t).
    Parameter arrays broadcast against the time axis, so shapes are
    (n_channels, filter_len) for 1-D inputs.
    """
    t = _time_grid(filter_len, sample_rate)
    f = np.atleast_1d(np.asarray(f, dtype=float))[:, None]
    b = np.atleast_1d(np.asarray(b, dtype=float))[:, None]
    c = np.atleast_1d(np.asarray(c, dtype=float))[:, None]
    l = np.atleast_1d(np.asarray(l, dtype=float))[:, None]
    log_t = np.log(t)
    env = t ** (l - 1.0) * np.exp(-2.0 * np.pi * b * erb(f.ravel())[:, None] * t)
    phase = 2.0 * np.pi * f * t + c * log_t
    g = env * np.cos(phase)
    return g, env, phase, t


def synthesize_atom(p: GammachirpParams, filter_len: int, sample_rate: float):
    """Sample one Gammachirp atom and L2-normalize it.

    Returns (atom, raw_norm): the unit-norm sample vector and the norm of the
    raw atom before normalization (the gradient code needs it).
    """
    if not 0 < p.f < sample_rate / 2:
        raise ParameterError(
            f"centre frequency {p.f} Hz outside (0, {sample_rate / 2}) at sr={sample_rate}"
        )
    g, _, _, _ = gammachirp_parts(p.f, p.b, p.c, p.l, filter_len, sample_rate)
    g = g[0]
    norm = float(np.linalg.norm(g))
    if not math.isfinite(norm) or norm == 0.0:
        raise SynthesisError(
            f"degenerate atom (norm={norm!r}) for f={p.f}, b={p.b}, c={p.c}, l={p.l}"
        )
    return g / norm, norm


def synthesize_atoms(channels, filter_len: int, sample_rate: float):
    """Sample and normalize all channels at once; returns (atoms, raw_norms)."""
    f = np.array([p.f for p in channels])
    b = np.array([p.b for p in channels])
    c = np.array([p.c for p in channels])
    l = np.array([p.l for p in channels])
    if np.any(f >= sample_rate / 2):
        bad = int(np.argmax(f >= sample_rate / 2))
        raise ParameterError(
            f"channel {bad}: centre frequency {f[bad]} Hz at or above Nyquist ({sample_rate / 2} Hz)"
        )
    g, _, _, _ = gammachirp_parts(f, b, c, l, filter_len, sample_rate)
    norms = np.linalg.norm(g, axis=1)
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        bad = int(np.argmin(np.where(np.isfinite(norms), norms, -1.0)))
        raise SynthesisError(f"degenerate atom in channel {bad} (norm={norms[bad]!r})")
    return g / norms[:, None], norms


@dataclass(frozen=True)
class Dictionary:
    """Immutable strided Gammachirp dictionary with cached unit-norm atoms."""

    channels: tuple
    filter_len: int
    stride: int
    sample_rate: int
    atoms: np.ndarray = field(repr=False)

    @property
    def n_channels(self) -> int:
        return len(self.channels)

    @property
    def frames_per_filter(self) -> int:
        """Number of frame hops overlapping one filter support: ceil(filter_len/stride)."""
        return -(-self.filter_len // self.stride)


def make_dictionary(channels, filter_len: int, stride: int, sample_rate) -> Dictionary:
    """Validate geometry, synthesize atoms, and assemble a Dictionary."""
    if filter_len < 1:
        raise ConfigError(f"filter_len must be >= 1, got {filter_len}")
    if not 1 <= stride <= filter_len:
        raise ConfigError(f"stride must be in [1, filter_len], got {stride}")
    if sample_rate <= 0:
        raise ConfigError(f"sample_rate must be positive, got {sample_rate}")
    channels = tuple(channels)
    if not channels:
        raise ConfigError("dictionary needs at least one channel")
    atoms, _ = synthesize_atoms(channels, filter_len, float(sample_rate))
    atoms.setflags(write=False)
    return Dictionary(
        channels=channels,
        filter_len=int(filter_len),
        stride=int(stride),
        sample_rate=int(sample_rate),
        atoms=atoms,
    )


def init_gammatone_dictionary(
    n_channels: int,
    f_min: float,
    f_max: float,
    filter_len: int,
    stride: int,
    sample_rate,
) -> Dictionary:
    """Build the standard starting dictionary: Gammatone atoms (c=0, l=4,
    b=1.019) with centre frequencies log-spaced from f_min to f_max inclusive.
    """
    if n_channels < 2:
        raise ConfigError(f"need at least 2 channels, got {n_channels}")
    if not 0 < f_min < f_max < sample_rate / 2:
        raise ConfigError(
            f"need 0 < f_min < f_max < sample_rate/2, got f_min={f_min}, "
            f"f_max={f_max}, sample_rate={sample_rate}"
        )
    freqs = np.geomspace(f_min, f_max, n_channels)
    channels = [
        GammachirpParams(f=float(f), b=GAMMATONE_BANDWIDTH, c=0.0, l=GAMMATONE_ORDER)
        for f in freqs
    ]
    return make_dictionary(channels, filter_len, stride, sample_rate)


@dataclass(frozen=True)
class GramKernel:
    """All inter-atom correlations at frame lags, with self-inhibition removed.

    ``lags`` has shape (2*max_lag + 1, n, n), C-contiguous and read-only:
    ``lags[max_lag + d][i, j]`` is the inner product of atom i with atom j
    shifted by d*stride samples, for d in [-max_lag, max_lag]. The lag -d
    matrix is exactly the transpose of the lag d matrix, and the lag-0
    diagonal is zeroed so a neuron never inhibits itself. Each lag is one
    contiguous matrix, so ``at_lag`` hands it to BLAS without a copy. The
    kernel takes (2*max_lag + 1) * n^2 * 8 bytes: 11.8 MB at 700 channels
    with max_lag 1.

    ``entries`` is the same memory seen as (n, n, 2*max_lag + 1), indexed
    ``entries[i, j, max_lag + d]``.
    """

    lags: np.ndarray = field(repr=False)
    max_lag: int

    @property
    def entries(self) -> np.ndarray:
        return np.moveaxis(self.lags, 0, 2)

    @property
    def n_channels(self) -> int:
        return self.lags.shape[1]

    def at_lag(self, d: int) -> np.ndarray:
        return self.lags[self.max_lag + d]


def gram_kernel(d: Dictionary) -> GramKernel:
    """Precompute the lateral-inhibition kernel for a dictionary."""
    atoms = d.atoms
    n, flen = atoms.shape
    max_lag = d.frames_per_filter - 1
    lags = np.empty((2 * max_lag + 1, n, n))
    for lag in range(max_lag + 1):
        shift = lag * d.stride
        overlap = flen - shift
        block = atoms[:, shift:] @ atoms[:, :overlap].T
        lags[max_lag + lag] = block
        if lag > 0:
            lags[max_lag - lag] = block.T
    # Remove self-inhibition exactly; unit-norm atoms make the raw diagonal 1
    # only up to rounding, so assign instead of subtracting.
    lags[max_lag, np.arange(n), np.arange(n)] = 0.0
    lags.setflags(write=False)
    return GramKernel(lags=lags, max_lag=max_lag)


def apply_kernel(kernel: GramKernel, a: np.ndarray) -> np.ndarray:
    """Lag-summed inhibition: out[..., i, t] = sum_j sum_d K[i, j, d] * a[..., j, t + d].

    ``a`` is (n, T) or a stack (B, n, T). Frames outside [0, T) contribute
    nothing. The kernel is symmetric (K[i, j, d] = K[j, i, -d]) so this
    operator is self-adjoint. Each stack item is its own product with the
    shape of a single (n, T) call, so it is bit-identical to that call.
    """
    t_frames = a.shape[-1]
    out = np.zeros_like(a)
    for lag in range(-kernel.max_lag, kernel.max_lag + 1):
        if abs(lag) >= t_frames:
            continue
        k_lag = kernel.at_lag(lag)
        if lag >= 0:
            out[..., : t_frames - lag] += np.matmul(k_lag, a[..., lag:])
        else:
            out[..., -lag:] += np.matmul(k_lag, a[..., : t_frames + lag])
    return out


def n_frames(signal_len: int, filter_len: int, stride: int) -> int:
    """Number of full analysis frames a signal admits."""
    if signal_len < filter_len:
        raise SignalError(
            f"signal of {signal_len} samples is shorter than one filter ({filter_len})"
        )
    return (signal_len - filter_len) // stride + 1


def signal_windows(s: np.ndarray, filter_len: int, stride: int) -> np.ndarray:
    """Strided view of all analysis frames, shape (n_frames, filter_len)."""
    s = np.ascontiguousarray(s, dtype=float)
    if s.ndim != 1:
        raise SignalError(f"expected a 1-D signal, got shape {s.shape}")
    n_frames(len(s), filter_len, stride)
    return np.lib.stride_tricks.sliding_window_view(s, filter_len)[::stride]


def project(d: Dictionary, s: np.ndarray) -> np.ndarray:
    """Drive matrix p[i, t] = <atom_i, s[t*stride : t*stride + filter_len]>.

    This is the transpose-apply of the strided synthesis operator.
    """
    windows = signal_windows(s, d.filter_len, d.stride)
    return d.atoms @ windows.T


def overlap_add(contrib: np.ndarray, stride: int, length: int) -> np.ndarray:
    """Overlap-add columns of a (filter_len, n_frames) matrix at hops of `stride`.

    `length` must cover the span (n_frames - 1)*stride + filter_len. Each
    column is cut into ceil(filter_len/stride) blocks of `stride` samples,
    the last possibly shorter, and block b of frame t lands on output chunk
    t + b. Adding the blocks from the highest index down sums every output
    sample over frames in increasing order, the order of a loop over frames.
    """
    flen, t_frames = contrib.shape
    n_blocks = -(-flen // stride)
    frames = contrib.T
    out = np.zeros((max(t_frames + n_blocks - 1, -(-length // stride)), stride))
    for b in range(n_blocks - 1, -1, -1):
        width = min(stride, flen - b * stride)
        out[b : b + t_frames, :width] += frames[:, b * stride : b * stride + width]
    return out.ravel()[:length]


def reconstruct(d: Dictionary, code, length: int | None = None) -> np.ndarray:
    """Synthesize a signal from a code: the sum of a[i, t] * atom_i at offset t*stride.

    `code` may be a SparseCode or a dense (n_channels, n_frames) array. The
    output covers (n_frames - 1)*stride + filter_len samples unless a longer
    `length` is requested (the tail is zero).
    """
    if hasattr(code, "to_dense"):
        if code.n_channels != d.n_channels:
            raise CodeError(
                f"code has {code.n_channels} channels, dictionary has {d.n_channels}"
            )
        a = code.to_dense()
    else:
        a = np.asarray(code, dtype=float)
        if a.ndim != 2 or a.shape[0] != d.n_channels:
            raise CodeError(
                f"dense code must be (n_channels, n_frames), got {a.shape} "
                f"for {d.n_channels} channels"
            )
    t_frames = a.shape[1]
    if t_frames == 0:
        return np.zeros(length if length is not None else 0)
    min_len = (t_frames - 1) * d.stride + d.filter_len
    if length is None:
        length = min_len
    elif length < min_len:
        raise SignalError(f"length {length} is shorter than the code span {min_len}")
    return overlap_add(d.atoms.T @ a, d.stride, length)


def save_dictionary(d: Dictionary, path) -> None:
    """Write a dictionary as JSON (parameters only; atoms are re-synthesized on load)."""
    payload = {
        "sample_rate": int(d.sample_rate),
        "filter_len": int(d.filter_len),
        "stride": int(d.stride),
        "channels": [
            {"f": p.f, "b": p.b, "c": p.c, "l": p.l} for p in d.channels
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_dictionary(path) -> Dictionary:
    """Load a dictionary JSON file and re-synthesize its atoms."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read dictionary file {path}: {exc}") from exc
    try:
        channels = [
            GammachirpParams(
                f=float(ch["f"]), b=float(ch["b"]), c=float(ch["c"]), l=float(ch["l"])
            )
            for ch in payload["channels"]
        ]
        return make_dictionary(
            channels,
            int(payload["filter_len"]),
            int(payload["stride"]),
            int(payload["sample_rate"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed dictionary file {path}: {exc}") from exc
