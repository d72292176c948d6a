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
    """One channel's Gammachirp parameters, as ``Dictionary.channels`` lists them.

    f: centre frequency in Hz
    b: envelope bandwidth scale (dimensionless)
    c: chirp parameter; c = 0 gives a pure Gammatone
    l: Gamma envelope order
    """

    f: float
    b: float
    c: float
    l: float


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


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Immutable strided Gammachirp dictionary with cached unit-norm atoms.

    ``f``, ``b``, ``c`` and ``l`` are read-only float arrays with one entry
    per channel: the centre frequency in Hz, the envelope bandwidth scale,
    the chirp parameter and the Gamma envelope order (see GammachirpParams).
    Build one with ``make_dictionary``. Dictionaries compare by identity;
    compare their arrays with ``np.array_equal``.
    """

    f: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    l: np.ndarray = field(repr=False)
    filter_len: int
    stride: int
    sample_rate: int
    atoms: np.ndarray = field(repr=False)

    @property
    def channels(self) -> tuple:
        """The parameters as one GammachirpParams record per channel, built from the arrays."""
        return tuple(
            GammachirpParams(*map(float, row)) for row in zip(self.f, self.b, self.c, self.l)
        )

    @property
    def n_channels(self) -> int:
        return len(self.f)

    @property
    def frames_per_filter(self) -> int:
        """Number of frame hops overlapping one filter support: ceil(filter_len/stride)."""
        return -(-self.filter_len // self.stride)


def _check_params(f, b, c, l, sample_rate) -> None:
    """Raise ParameterError naming the first channel outside the parameter domain."""
    nyquist = sample_rate / 2
    finite = np.isfinite(f) & np.isfinite(b) & np.isfinite(c) & np.isfinite(l)
    checks = (
        (~finite, "parameters must be finite"),
        (f <= 0, "centre frequency must be positive"),
        (f >= nyquist, f"centre frequency at or above Nyquist ({nyquist} Hz)"),
        (b <= 0, "bandwidth scale must be positive"),
        (l < 1, "envelope order must be >= 1"),
    )
    bad = np.logical_or.reduce([mask for mask, _ in checks])
    if bad.any():
        ch = int(np.argmax(bad))
        reason = next(why for mask, why in checks if mask[ch])
        raise ParameterError(
            f"channel {ch}: {reason}, got f={f[ch]}, b={b[ch]}, c={c[ch]}, l={l[ch]}"
        )


def make_dictionary(f, b, c, l, filter_len: int, stride: int, sample_rate) -> Dictionary:
    """Copy and validate the parameter arrays and geometry, synthesize the
    L2-normalized atoms, and assemble a Dictionary.

    ``f``, ``b``, ``c`` and ``l`` are equal-length 1-D sequences, one entry
    per channel. The dictionary holds read-only copies, so later changes to
    the caller's arrays do not reach it.
    """
    if filter_len < 1:
        raise ConfigError(f"filter_len must be >= 1, got {filter_len}")
    if not 1 <= stride <= filter_len:
        raise ConfigError(f"stride must be in [1, filter_len], got {stride}")
    if sample_rate <= 0:
        raise ConfigError(f"sample_rate must be positive, got {sample_rate}")
    params = [np.array(x, dtype=float) for x in (f, b, c, l)]
    if any(p.ndim != 1 or p.shape != params[0].shape for p in params):
        raise ConfigError(
            f"f, b, c and l must be equal-length 1-D arrays, got shapes "
            f"{[p.shape for p in params]}"
        )
    if not params[0].size:
        raise ConfigError("dictionary needs at least one channel")
    _check_params(*params, sample_rate)
    g, _, _, _ = gammachirp_parts(*params, filter_len, float(sample_rate))
    norms = np.linalg.norm(g, axis=1)
    if not np.all(np.isfinite(norms)) or np.any(norms == 0.0):
        bad = int(np.argmin(np.where(np.isfinite(norms), norms, -1.0)))
        raise SynthesisError(f"degenerate atom in channel {bad} (norm={norms[bad]!r})")
    atoms = g / norms[:, None]
    for arr in (*params, atoms):
        arr.setflags(write=False)
    return Dictionary(
        *params,
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
    return make_dictionary(
        np.geomspace(f_min, f_max, n_channels),
        np.full(n_channels, GAMMATONE_BANDWIDTH),
        np.zeros(n_channels),
        np.full(n_channels, GAMMATONE_ORDER),
        filter_len, stride, sample_rate,
    )


@dataclass(frozen=True, eq=False)
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
            {"f": f, "b": b, "c": c, "l": l}
            for f, b, c, l in zip(d.f.tolist(), d.b.tolist(), d.c.tolist(), d.l.tolist())
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
        params = {name: [float(ch[name]) for ch in payload["channels"]] for name in "fbcl"}
        return make_dictionary(
            **params,
            filter_len=int(payload["filter_len"]),
            stride=int(payload["stride"]),
            sample_rate=int(payload["sample_rate"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed dictionary file {path}: {exc}") from exc
