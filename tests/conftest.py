import os

import numpy as np
import pytest

from chirpcode import default_bounds, gram_kernel, init_gammatone_dictionary, make_dictionary


def random_toy_dictionary(rng, n_channels=3, filter_len=16, stride=8, sample_rate=8000):
    """Small random dictionary with well-separated frequencies."""
    freqs = np.sort(rng.uniform(200.0, 0.4 * sample_rate, size=n_channels))
    # One (b, c, l) draw per channel, in channel order.
    b, c, l = np.array(
        [[rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5), rng.uniform(2.0, 5.0)] for _ in freqs]
    ).T
    return make_dictionary(freqs, b, c, l, filter_len, stride, sample_rate)


def sparse_recovery_instance():
    """Acceptance criterion 4's input: five known atoms of a 16-channel
    Gammatone bank, each coefficient >= 10 * lam.

    Returns (dictionary, signal, lam, placements), placements being
    (channel, frame, coefficient) triples.
    """
    d = init_gammatone_dictionary(16, 150.0, 3200.0, 64, 32, 8000)
    lam = 0.002
    length = 7 * d.stride + d.filter_len
    s = np.zeros(length)
    placements = [(1, 0, 0.03), (5, 2, 0.05), (9, 4, -0.04), (13, 6, 0.06), (3, 7, 0.035)]
    for ch, t, coeff in placements:
        s[t * d.stride : t * d.stride + d.filter_len] += coeff * d.atoms[ch]
    return d, s, lam, placements


def sparse_activations(rng, shape):
    """Activations shaped like an LCA iterate's: about a quarter of the units
    active, and the first frame silent, as is the first item of a stack of
    several."""
    a = rng.standard_normal(shape)
    a[np.abs(a) < 1.15] = 0.0
    a[..., 0] = 0.0
    if len(shape) == 3 and shape[0] > 1:
        a[0] = 0.0
    return a


@pytest.fixture(scope="session", params=[64, 700], ids=lambda n: f"{n}ch")
def bank_16k(request):
    """(dictionary, Gram kernel) of the 16 kHz Gammatone bank, filter 256 and
    stride 128, at 64 or 700 channels. OpenBLAS rounds the 700-channel
    products differently over one and two threads."""
    d = init_gammatone_dictionary(request.param, *default_bounds(16000).f, 256, 128, 16000)
    return d, gram_kernel(d)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)``: for the rest of the test, ``os.sched_getaffinity`` says
    this process may use n CPUs, so in-process corpus work runs on n threads."""

    def pin(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return pin


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")
