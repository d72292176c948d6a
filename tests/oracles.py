"""Independent oracles the test suite checks the package against.

Everything here is deliberately written the slow, obvious way — scalar loops,
explicitly materialized matrices, textbook formulas — and never calls into
the strided implementation paths it is used to verify.
"""

import math

import numpy as np


def independent_atom(f, b, c, l, filter_len, sample_rate):
    """Unit-norm Gammachirp atom via a scalar loop over the closed-form samples."""
    erb_f = 24.7 * (4.37 * f / 1000.0 + 1.0)
    g = np.zeros(filter_len)
    for k in range(filter_len):
        t = (k + 1) / sample_rate
        g[k] = (
            t ** (l - 1.0)
            * math.exp(-2.0 * math.pi * b * erb_f * t)
            * math.cos(2.0 * math.pi * f * t + c * math.log(t))
        )
    return g / np.linalg.norm(g)


def independent_atoms(channels, filter_len, sample_rate):
    """Stack of independent_atom rows for a list of (f, b, c, l) or params objects."""
    rows = []
    for ch in channels:
        if hasattr(ch, "f"):
            rows.append(independent_atom(ch.f, ch.b, ch.c, ch.l, filter_len, sample_rate))
        else:
            rows.append(independent_atom(*ch, filter_len, sample_rate))
    return np.array(rows)


def dense_matrix(atoms, stride, n_frames_, signal_len):
    """Materialize the strided dictionary: column (i*T + t) is atom i at offset t*stride."""
    n, flen = atoms.shape
    phi = np.zeros((signal_len, n * n_frames_))
    for i in range(n):
        for t in range(n_frames_):
            start = t * stride
            phi[start : start + flen, i * n_frames_ + t] = atoms[i]
    return phi


def loop_overlap_add(contrib, stride, length):
    """Overlap-add by a loop over frames, adding each column in frame order."""
    flen, t_frames = contrib.shape
    out = np.zeros(length)
    for t in range(t_frames):
        out[t * stride : t * stride + flen] += contrib[:, t]
    return out


def dense_project(phi, s, n, n_frames_):
    return (phi.T @ s).reshape(n, n_frames_)


def dense_reconstruct(phi, a):
    return phi @ np.ravel(a)


def dense_gram(phi):
    g = phi.T @ phi
    return g - np.eye(g.shape[0])


def lag_loop_apply_kernel(kernel, a):
    """apply_kernel as a zero-filled output that each lag's product is added
    into, from lag -max_lag up."""
    t_frames = a.shape[-1]
    out = np.zeros_like(a)
    for lag in range(-kernel.max_lag, kernel.max_lag + 1):
        if abs(lag) >= t_frames:
            continue
        k_lag = kernel.lags[kernel.max_lag + lag]
        if lag >= 0:
            out[..., : t_frames - lag] += np.matmul(k_lag, a[..., lag:])
        else:
            out[..., -lag:] += np.matmul(k_lag, a[..., : t_frames + lag])
    return out


def vdot_trace_energies(a, inhibition, drive, trace0s, unit_cost):
    """Each (n, T) item's trace energy and active count, one np.vdot per
    inner product: e0 - <a, drive> + 1/2 <a, a + K a> + unit_cost * count."""
    out = []
    for a_j, k_j, drive_j, e0 in zip(a, inhibition, drive, trace0s):
        count = np.count_nonzero(a_j)
        out.append((e0 - float(np.vdot(a_j, drive_j))
                    + 0.5 * float(np.vdot(a_j, a_j + k_j)) + unit_cost * count, count))
    return out


def dense_frozen_energy(atoms, stride, s, masks, lam, eta, alpha):
    """Energy after running the Euler iteration with per-iteration frozen masks.

    ``masks`` is a list of boolean (n, T) arrays, one per iteration, replacing
    the threshold nonlinearity. Everything is dense so finite differences
    through this function are smooth.
    """
    n, flen = atoms.shape
    t_frames = masks[0].shape[1]
    signal_len = len(s)
    phi = dense_matrix(atoms, stride, t_frames, signal_len)
    w = dense_gram(phi)
    p = phi.T @ s
    v = np.zeros(n * t_frames)
    a = np.zeros(n * t_frames)
    for mask in masks:
        v = v + eta * (p - v - w @ a)
        a = np.where(np.ravel(mask), v, 0.0)
    resid = phi @ a - s
    return 0.5 * float(resid @ resid) + alpha * lam * float(np.sum(np.abs(a)))


def stepwise_atom_gradient(s, atoms, stride, kernel_lags, history, lam, eta, alpha, window):
    """Energy gradient w.r.t. the unit-norm atom samples, shape (n, filter_len).

    ``history`` holds the recorded activations, oldest first, the final code
    last; ``kernel_lags`` is ``GramKernel.lags``. The reverse pass steps back
    one recorded iteration at a time, over every channel, and forms each
    lag correlation frame by frame as a sum of outer products.
    """
    n, flen = atoms.shape
    a_final = history[-1]
    t_frames = a_final.shape[1]
    max_lag = (len(kernel_lags) - 1) // 2
    lags = [d for d in range(-max_lag, max_lag + 1) if abs(d) < t_frames]

    def windows(x):
        return np.array([x[t * stride : t * stride + flen] for t in range(t_frames)])

    resid = loop_overlap_add(atoms.T @ a_final, stride, len(s)) - s
    g = a_final @ windows(resid)

    steps = min(window, len(history) - 1)
    gbar = alpha * lam * np.sign(a_final)
    gbar_sum = np.zeros((n, t_frames))
    # q[max_lag + d][i, j] = sum_t gbar[i, t] a[j, t + d] + a[i, t] gbar[j, t + d]
    q = np.zeros((2 * max_lag + 1, n, n))
    for step in range(steps):
        a_prev = history[-2 - step]
        gbar_sum += gbar
        for d in lags:
            for t in range(max(0, -d), min(t_frames, t_frames - d)):
                q[max_lag + d] += np.outer(gbar[:, t], a_prev[:, t + d])
                q[max_lag + d] += np.outer(a_prev[:, t], gbar[:, t + d])
        if step < steps - 1:
            inhibition = np.zeros((n, t_frames))
            for d in lags:
                for t in range(max(0, -d), min(t_frames, t_frames - d)):
                    inhibition[:, t] += kernel_lags[max_lag + d] @ gbar[:, t + d]
            gbar = (1.0 - eta) * gbar - eta * (a_prev != 0.0) * inhibition
    g = g + eta * (gbar_sum @ windows(s))

    # Kernel entry (i, j) at lag d is atom i against atom j moved d frames later.
    kernel_grad = np.zeros((n, flen))
    for d in lags:
        shift = d * stride
        if abs(shift) >= flen:
            continue
        moved = np.zeros((n, flen))
        for k in range(flen):
            if 0 <= k - shift < flen:
                moved[:, k] = atoms[:, k - shift]
        kernel_grad += q[max_lag + d] @ moved
    return g - eta * kernel_grad


def grid_search_energy_2atom(atoms, s, lam, alpha, grid):
    """Brute-force energy surface for a 2-atom, single-frame problem.

    Returns (values, best_pair): the energy at every (a0, a1) grid point and
    the minimizing pair, computed with plain vector arithmetic.
    """
    best = None
    best_pair = None
    values = np.zeros((len(grid), len(grid)))
    for i, a0 in enumerate(grid):
        for j, a1 in enumerate(grid):
            resid = a0 * atoms[0] + a1 * atoms[1] - s
            e = 0.5 * float(resid @ resid) + alpha * lam * (abs(a0) + abs(a1))
            values[i, j] = e
            if best is None or e < best:
                best = e
                best_pair = (a0, a1)
    return values, best_pair


def formant_sweep(rng, sample_rate=16000, duration=0.25, n_formants=3, peak=0.5):
    """Synthetic speech-like utterance: a few swept resonances with smooth envelopes.

    Each formant glides between random endpoints inside typical speech bands,
    carries a little vibrato, and is shaped by a raised-cosine envelope with a
    random attack point.
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


def formant_corpus(seed, n_utterances, sample_rate=16000, duration=0.25):
    rng = np.random.default_rng(seed)
    return [formant_sweep(rng, sample_rate, duration) for _ in range(n_utterances)]
