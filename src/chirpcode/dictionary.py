"""Gammachirp dictionary: atom synthesis, strided operators, lateral-inhibition kernel.

A dictionary holds N parameterized Gammachirp filters sampled at `filter_len`
points. Striding each filter across the signal with hop `stride` yields the
effective (very tall) synthesis matrix; `project` and `reconstruct` implement
its transpose-apply and apply without ever materializing it. The Gram kernel
caches all inter-atom correlations at frame lags, which is what the LCA
dynamics use for lateral inhibition.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field

import numpy as np

from ._parallel import blas_on_one_thread
from .errors import (
    ChirpcodeError,
    CodeError,
    ConfigError,
    ParameterError,
    SignalError,
    SynthesisError,
    config_value,
    is_integer,
    number_array,
)

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
    f, b, c, l = (np.atleast_1d(np.asarray(x, dtype=float))[:, None] for x in (f, b, c, l))
    log_t = np.log(t)
    env = t ** (l - 1.0) * np.exp(-2.0 * np.pi * b * erb(f.ravel())[:, None] * t)
    phase = 2.0 * np.pi * f * t + c * log_t
    g = env * np.cos(phase)
    return g, env, phase, t


def _read_only_state(self, state: dict) -> None:
    """Unpickle a frozen record with its arrays read-only again, those in a
    tuple included; numpy unpickles every array writable."""
    for value in state.values():
        for item in value if isinstance(value, tuple) else (value,):
            if isinstance(item, np.ndarray):
                item.setflags(write=False)
    self.__dict__.update(state)


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Immutable strided Gammachirp dictionary with cached unit-norm atoms.

    ``f``, ``b``, ``c`` and ``l`` are read-only float arrays with one entry
    per channel: the centre frequency in Hz, the envelope bandwidth scale,
    the chirp parameter and the Gamma envelope order. ``channels`` lists them
    as the dictionary file does.
    Build one with ``make_dictionary``. Dictionaries compare by identity;
    compare their arrays with ``np.array_equal``.

    ``kernel``, the lateral-inhibition kernel ``gram_kernel(self)``, is built
    on first use at one BLAS thread, with its range factors
    (``GramKernel.factors``), and kept: the arrays cannot change, so it
    cannot go stale. A pickled dictionary carries it and unpickles read-only.
    """

    f: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)
    c: np.ndarray = field(repr=False)
    l: np.ndarray = field(repr=False)
    filter_len: int
    stride: int
    sample_rate: int
    atoms: np.ndarray = field(repr=False)

    __setstate__ = _read_only_state

    @functools.cached_property
    def kernel(self) -> GramKernel:
        """``gram_kernel(self)`` and its factors, built once at one BLAS thread
        (see above)."""
        with blas_on_one_thread():
            kernel = gram_kernel(self)
            kernel.factors
        return kernel

    @property
    def channels(self) -> list:
        """The dictionary file's channel records, one ``{"f", "b", "c", "l"}`` dict
        of floats per channel, built from the arrays."""
        columns = (self.f.tolist(), self.b.tolist(), self.c.tolist(), self.l.tolist())
        return [{"f": f, "b": b, "c": c, "l": l} for f, b, c, l in zip(*columns)]

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

    ``f``, ``b``, ``c`` and ``l`` are equal-length 1-D sequences of numbers
    (``errors.is_number``), one entry per channel; any other entry is a
    ParameterError naming its channel and field. The dictionary holds
    read-only copies, so later changes to the caller's arrays do not reach
    it. ``filter_len``, ``stride`` and ``sample_rate`` must be integers
    (``is_integer``), so none is truncated.
    """
    filter_len = config_value("filter_len", filter_len, int)
    stride = config_value("stride", stride, int)
    if filter_len < 1:
        raise ConfigError(f"filter_len must be >= 1, got {filter_len}")
    if not 1 <= stride <= filter_len:
        raise ConfigError(f"stride must be in [1, filter_len], got {stride}")
    if not (is_integer(sample_rate) and sample_rate > 0):
        raise ConfigError(f"sample_rate must be a positive whole number of Hz, got {sample_rate}")
    params = [np.array(number_array(f"channel {{}}: {name}", x, float, ParameterError))
              for name, x in zip("fbcl", (f, b, c, l))]
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
        *params, filter_len=filter_len, stride=stride, sample_rate=int(sample_rate), atoms=atoms
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
    ``entries[i, j, max_lag + d]``. A dictionary's own kernel is
    ``Dictionary.kernel``; a pickled kernel unpickles read-only too, its
    factors included.

    ``factors`` factors every lag through the atoms' range, K_d = U M_d U^T
    (lag 0 less the identity), when the kernel knows its ``atoms`` and
    ``stride``, as ``gram_kernel``'s does. U is (n, r) with orthonormal
    columns, from the atoms' SVD cut at max(shape) * eps of the largest
    singular value, and ``M`` is (2*max_lag + 1, r, r). They are built on
    first use and kept: about 4.4 MB at the 700-channel 48 kHz bank, where
    r is 328. ``apply_kernel`` takes them only where they cost fewer flops
    per frame, 2*n*r + (2*max_lag + 1)*r^2 against (2*max_lag + 1)*n^2, and
    ``factors`` is None elsewhere. The factored product removes
    self-inhibition by subtracting ``a``, so only to rounding, where the
    lag sum has an exactly zero diagonal. A kernel built from ``lags`` and
    ``max_lag`` alone has no factors.
    """

    lags: np.ndarray = field(repr=False)
    max_lag: int
    atoms: np.ndarray | None = field(default=None, repr=False)
    stride: int | None = None

    __setstate__ = _read_only_state

    @property
    def entries(self) -> np.ndarray:
        return np.moveaxis(self.lags, 0, 2)

    def at_lag(self, d: int) -> np.ndarray:
        return self.lags[self.max_lag + d]

    @functools.cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(U, M) as above, built at the caller's BLAS thread count, or None."""
        if self.atoms is None:
            return None
        n, flen = self.atoms.shape
        n_lags = 2 * self.max_lag + 1
        u, s, vt = np.linalg.svd(self.atoms, full_matrices=False)
        r = int(np.count_nonzero(s > max(n, flen) * np.finfo(float).eps * s[0]))
        if 2 * n * r + n_lags * r * r >= n_lags * n * n:
            return None
        u = np.ascontiguousarray(u[:, :r])
        m = _lag_products(s[:r, None] * vt[:r], self.stride, self.max_lag)  # of U^T atoms
        u.setflags(write=False)
        m.setflags(write=False)
        return u, m


def _lag_products(x: np.ndarray, stride: int, max_lag: int) -> np.ndarray:
    """(2*max_lag + 1, n, n) inner products of the rows of ``x`` with its rows
    shifted by d*stride columns, at ``[max_lag + d]``; lag -d is the
    transpose of lag d."""
    n, flen = x.shape
    out = np.empty((2 * max_lag + 1, n, n))
    for lag in range(max_lag + 1):
        shift = lag * stride
        block = x[:, shift:] @ x[:, : flen - shift].T
        out[max_lag + lag] = block
        if lag > 0:
            out[max_lag - lag] = block.T
    return out


def gram_kernel(d: Dictionary) -> GramKernel:
    """Precompute the lateral-inhibition kernel for a dictionary.

    Its ``factors`` are left to first use (see ``GramKernel``)."""
    n = d.n_channels
    max_lag = d.frames_per_filter - 1
    lags = _lag_products(d.atoms, d.stride, max_lag)
    # Remove self-inhibition exactly; unit-norm atoms make the raw diagonal 1
    # only up to rounding, so assign instead of subtracting.
    lags[max_lag, np.arange(n), np.arange(n)] = 0.0
    lags.setflags(write=False)
    return GramKernel(lags=lags, max_lag=max_lag, atoms=d.atoms, stride=d.stride)


def _lag_sum(lags: np.ndarray, max_lag: int, a: np.ndarray) -> np.ndarray:
    """sum_d lags[max_lag + d] @ a shifted by d frames, zero-filled; the sum
    starts from the lag-0 product and adds lags -1, 1, -2, 2, ..."""
    t_frames = a.shape[-1]
    out = np.matmul(lags[max_lag], a)
    for lag in range(1, min(max_lag, t_frames - 1) + 1):
        out[..., lag:] += np.matmul(lags[max_lag - lag], a[..., : t_frames - lag])
        out[..., : t_frames - lag] += np.matmul(lags[max_lag + lag], a[..., lag:])
    return out


def apply_kernel(kernel: GramKernel, a: np.ndarray) -> np.ndarray:
    """Lag-summed inhibition: out[..., i, t] = sum_j sum_d K[i, j, d] * a[..., j, t + d].

    ``a`` is (n, T) or a stack (B, n, T). Frames outside [0, T) contribute
    nothing. The kernel is symmetric (K[i, j, d] = K[j, i, -d]) so this
    operator is self-adjoint. Each stack item is its own product with the
    shape of a single (n, T) call, so it is bit-identical to that call. The
    sum starts from the lag-0 product and adds lags -1, 1, -2, 2, ...

    With ``kernel.factors`` (U, M), the same sum runs in the atoms' range:
    U (sum_d M_d shifted by d) U^T a - a, equal to the dense sum to rounding.
    """
    factors = kernel.factors
    if factors is None:
        return _lag_sum(kernel.lags, kernel.max_lag, a)
    u, m = factors
    out = np.matmul(u, _lag_sum(m, kernel.max_lag, np.matmul(u.T, a)))
    out -= a
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
        "channels": d.channels,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_dictionary(path) -> Dictionary:
    """Load a dictionary JSON file and re-synthesize its atoms.

    ``make_dictionary``'s errors keep their type and gain the file's name."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read dictionary file {path}: {exc}") from exc
    try:
        params = {name: [ch[name] for ch in payload["channels"]] for name in "fbcl"}
        return make_dictionary(
            **params, **{key: payload[key] for key in ("filter_len", "stride", "sample_rate")}
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed dictionary file {path}: {exc}") from exc
    except ChirpcodeError as exc:
        raise type(exc)(f"cannot read dictionary file {path}: {exc}") from exc
