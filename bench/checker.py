"""Independent checks of chirpcode outputs.

Nothing here imports chirpcode. Atoms come from the closed-form Gammachirp
with the Glasberg-Moore ERB, reconstructions from an event-wise scatter and an
index-based overlap-add, and the energies, SNR, the lambda_max estimate and
the finite-difference gradient are written from their definitions. Every
check raises CheckFailed with a message naming what disagreed.
"""

from __future__ import annotations

import math

import numpy as np

# Glasberg & Moore (1990): ERB(f) = 24.7 * (4.37 f / 1000 + 1) Hz.
ERB_A = 24.7
ERB_B = 4.37e-3

PARAMS = ("c", "b", "l", "f")

SNR_TOL_DB = 1e-6
ENERGY_RTOL = 1e-9
FD_RTOL = 1e-6
# Acceptance criterion 2: no step of the energy trace may rise by more than this share of E0.
ENERGY_RISE_SLACK = 1e-6


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def closed_form_atoms(f, b, c, l, filter_len, sample_rate):
    """Unit-norm Gammachirp atoms, one row per channel.

    g(t) = t^(l-1) exp(-2 pi b ERB(f) t) cos(2 pi f t + c ln t) sampled at
    t = k / sample_rate for k = 1..filter_len, then divided by its L2 norm.
    """
    f, b, c, l = (np.asarray(x, dtype=float).reshape(-1, 1) for x in (f, b, c, l))
    t = np.arange(1, filter_len + 1, dtype=float).reshape(1, -1) / float(sample_rate)
    bandwidth = ERB_A * (ERB_B * f + 1.0)
    g = np.exp((l - 1.0) * np.log(t) - 2.0 * math.pi * b * bandwidth * t)
    g = g * np.cos(2.0 * math.pi * f * t + c * np.log(t))
    return g / np.sqrt(np.einsum("ij,ij->i", g, g))[:, None]


def overlap_add(frames, stride, length):
    """Sum row t of `frames` (n_frames, filter_len) into samples [t*stride, t*stride + filter_len)."""
    n_fr, flen = frames.shape
    index = stride * np.arange(n_fr)[:, None] + np.arange(flen)[None, :]
    out = np.zeros(length)
    np.add.at(out, index.ravel(), frames.ravel())
    return out


def synthesize(atoms, code, length, stride):
    """Signal of a code: each event adds value * atom[channel] at frame * stride."""
    frames = np.zeros((code["n_frames"], atoms.shape[1]))
    np.add.at(frames, code["frames"], code["values"][:, None] * atoms[code["channels"]])
    return overlap_add(frames, stride, length)


def analysis_windows(s, filter_len, stride):
    n_fr = (len(s) - filter_len) // stride + 1
    index = stride * np.arange(n_fr)[:, None] + np.arange(filter_len)[None, :]
    return s[index]


def snr_db(s, recon):
    resid = s - recon
    return 10.0 * math.log10(float(np.dot(s, s)) / float(np.dot(resid, resid)))


def trace_energy(s, recon, lam, n_active):
    """The cost the hard-threshold dynamics descend: 1/2 ||s - Phi a||^2 + lam^2/2 nnz(a)."""
    resid = s - recon
    return 0.5 * float(np.dot(resid, resid)) + 0.5 * lam * lam * n_active


def objective(s, recon, lam, alpha, values):
    """The adaptation objective: 1/2 ||s - Phi a||^2 + alpha lam sum|a|."""
    resid = s - recon
    return 0.5 * float(np.dot(resid, resid)) + alpha * lam * float(np.sum(np.abs(values)))


def code_from_events(n_channels, n_frames, lam, events):
    """A code as plain arrays, from a list of [channel, frame, value] events."""
    ev = np.asarray(events, dtype=float).reshape(-1, 3)
    return {
        "n_channels": int(n_channels),
        "n_frames": int(n_frames),
        "lam": float(lam),
        "channels": ev[:, 0].astype(np.int64),
        "frames": ev[:, 1].astype(np.int64),
        "values": ev[:, 2].copy(),
    }


def check_events(code, n_channels, n_frames, lam):
    """Shape matches the geometry; every event is inside it, unique, and |value| >= lam."""
    if (code["n_channels"], code["n_frames"]) != (n_channels, n_frames):
        raise CheckFailed(
            f"code shape ({code['n_channels']}, {code['n_frames']}), "
            f"expected ({n_channels}, {n_frames})"
        )
    ch, fr, val = code["channels"], code["frames"], code["values"]
    if ch.size and (ch.min() < 0 or ch.max() >= n_channels or fr.min() < 0 or fr.max() >= n_frames):
        raise CheckFailed("event outside the code's shape")
    if np.unique(ch * n_frames + fr).size != ch.size:
        raise CheckFailed("duplicate (channel, frame) event")
    if not np.all(np.isfinite(val)) or np.any(np.abs(val) < lam):
        raise CheckFailed(f"event with |value| below lambda {lam} or non-finite")


def grade(s, atoms, code, stride, alpha):
    """Independent SNR and both energies of one code, plus the empty code's energy."""
    recon = synthesize(atoms, code, len(s), stride)
    return {
        "snr_db": snr_db(s, recon),
        "trace_energy": trace_energy(s, recon, code["lam"], code["values"].size),
        "objective": objective(s, recon, code["lam"], alpha, code["values"]),
        "empty_energy": 0.5 * float(np.dot(s, s)),
        "active": int(code["values"].size),
    }


def check_close(what, reported, expected, *, atol=0.0, rtol=0.0):
    if not math.isfinite(reported) or abs(reported - expected) > atol + rtol * abs(expected):
        raise CheckFailed(f"{what}: reported {reported!r}, independent {expected!r}")


def check_graded(g, *, snr=None, active=None, objective=None, final_trace=None):
    """Compare reported figures with an independent grade; the code must beat the empty code."""
    if snr is not None:
        check_close("SNR (dB)", snr, g["snr_db"], atol=SNR_TOL_DB)
    if active is not None and active != g["active"]:
        raise CheckFailed(f"active count: reported {active}, code holds {g['active']}")
    if objective is not None:
        check_close("objective energy", objective, g["objective"], rtol=ENERGY_RTOL)
    if final_trace is not None:
        check_close("final trace energy", final_trace, g["trace_energy"], rtol=ENERGY_RTOL)
    if not g["trace_energy"] < g["empty_energy"]:
        raise CheckFailed(
            f"code energy {g['trace_energy']!r} not below the empty code's {g['empty_energy']!r}"
        )


def energy_rise(trace):
    """Largest rise between consecutive trace energies, as a share of the first (E0); 0 if none rises."""
    e = np.asarray(trace, dtype=float)
    if e.size < 2:
        return 0.0
    return max(0.0, float(np.max(np.diff(e))) / float(e[0]))


def lambda_max(atoms, stride, n_frames, iters=60, seed=0):
    """Largest eigenvalue of Phi^T Phi for `n_frames` frames, by power iteration.

    Phi is the strided synthesis operator; it is applied with the functions
    above, never materialized.
    """
    n, flen = atoms.shape
    length = (n_frames - 1) * stride + flen
    x = np.random.default_rng(seed).standard_normal((n, n_frames))
    est = 0.0
    for _ in range(iters):
        x /= np.linalg.norm(x)
        signal = overlap_add(x.T @ atoms, stride, length)
        y = atoms @ analysis_windows(signal, flen, stride).T
        est = float(np.vdot(x, y))
        x = y
    return est


def check_step_size(eta, lam_max):
    """Explicit Euler on the active set is stable only if eta * lambda_max < 2."""
    if not eta * lam_max < 2.0:
        raise CheckFailed(
            f"eta {eta} times lambda_max {lam_max:.4g} is {eta * lam_max:.4g}, "
            "not below 2: the Euler iteration would diverge"
        )


def fixed_code_energy(params, code, s, filter_len, stride, sample_rate):
    """1/2 ||s - Phi(params) a||^2 with the code held fixed; params maps name -> per-channel array."""
    atoms = closed_form_atoms(params["f"], params["b"], params["c"], params["l"], filter_len, sample_rate)
    resid = s - synthesize(atoms, code, len(s), stride)
    return 0.5 * float(np.dot(resid, resid))


# Finite-difference step per parameter, in the parameter's own units.
FD_STEP = {"c": 1e-6, "b": 1e-6, "l": 1e-5, "f": 1e-4}


def check_gradient(grads, params, code, s, filter_len, stride, sample_rate, seed=0):
    """Each parameter block of the fixed-code gradient matches a central difference.

    For every name in PARAMS a random direction over all channels is drawn;
    the reported directional derivative sum_i grad[i] * dir[i] must match
    (E(p + h dir) - E(p - h dir)) / 2h to FD_RTOL of the gradient's scale.
    """
    rng = np.random.default_rng(seed)
    for name in PARAMS:
        g = np.asarray(grads[name], dtype=float)
        if not np.all(np.isfinite(g)):
            raise CheckFailed(f"non-finite gradient for {name!r}")
        direction = rng.standard_normal(g.size)
        h = FD_STEP[name]
        energies = []
        for sign in (1.0, -1.0):
            moved = dict(params)
            moved[name] = np.asarray(params[name], dtype=float) + sign * h * direction
            energies.append(fixed_code_energy(moved, code, s, filter_len, stride, sample_rate))
        fd = (energies[0] - energies[1]) / (2.0 * h)
        reported = float(g @ direction)
        scale = float(np.linalg.norm(g) * np.linalg.norm(direction)) / math.sqrt(g.size)
        if abs(reported - fd) > FD_RTOL * max(abs(fd), scale):
            raise CheckFailed(
                f"gradient along a random {name!r} direction: reported {reported!r}, "
                f"finite difference {fd!r}"
            )
