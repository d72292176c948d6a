import numpy as np
import pytest

from chirpcode import init_gammatone_dictionary, make_dictionary


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


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running end-to-end checks")
