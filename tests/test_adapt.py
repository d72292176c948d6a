"""Adaptation: atom jacobians, energy gradients (vs finite differences), Adamax."""

import multiprocessing

import numpy as np
import pytest

from chirpcode import (
    AdaptConfig,
    AdamaxState,
    ChannelParams,
    ConfigError,
    GammachirpParams,
    GradientError,
    LcaConfig,
    ParamBounds,
    ParamGradients,
    SignalError,
    adamax_step,
    adapt_corpus,
    atom_jacobian,
    default_bounds,
    encode,
    energy_gradient,
    erb,
    init_gammatone_dictionary,
    make_dictionary,
)
from chirpcode.dictionary import gammachirp_parts

from conftest import random_toy_dictionary
from oracles import dense_frozen_energy, formant_corpus, independent_atom, independent_atoms


def _random_params(rng):
    return GammachirpParams(
        f=float(rng.uniform(100, 6000)),
        b=float(rng.uniform(0.4, 3.0)),
        c=float(rng.uniform(0.05, 3.0)) * float(rng.choice([-1.0, 1.0])),
        l=float(rng.uniform(1.6, 6.0)),
    )


def _fd_jacobian(p, name, filter_len, sample_rate):
    """Central difference of the unit-norm atom, step 1e-6 relative."""
    theta = getattr(p, name)
    h = 1e-6 * max(abs(theta), 1.0)
    kw = {"f": p.f, "b": p.b, "c": p.c, "l": p.l}
    hi = dict(kw, **{name: theta + h})
    lo = dict(kw, **{name: theta - h})
    up = independent_atom(hi["f"], hi["b"], hi["c"], hi["l"], filter_len, sample_rate)
    dn = independent_atom(lo["f"], lo["b"], lo["c"], lo["l"], filter_len, sample_rate)
    return (up - dn) / (2 * h)


class TestAtomJacobian:
    def test_orthogonal_to_atom(self, rng):
        for _ in range(20):
            p = _random_params(rng)
            atom = independent_atom(p.f, p.b, p.c, p.l, 128, 16000)
            for jac in atom_jacobian(p, 128, 16000):
                assert abs(float(atom @ jac)) <= 1e-10

    def test_matches_finite_differences(self, rng):
        for _ in range(25):
            p = _random_params(rng)
            jc, jb, jl, jf = atom_jacobian(p, 128, 16000)
            for name, analytic in zip(("c", "b", "l", "f"), (jc, jb, jl, jf)):
                fd = _fd_jacobian(p, name, 128, 16000)
                rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
                assert rel <= 1e-5, f"{name}: rel err {rel}"

    def test_chirp_partial_at_zero_chirp(self):
        """At c = 0 the raw chirp partial is the quadrature carrier
        -ln(t) * env(t) * sin(2 pi f t); the returned jacobian is that vector
        pushed through the normalization."""
        p = GammachirpParams(f=800.0, b=1.019, c=0.0, l=4.0)
        flen, sr = 256, 16000
        jc = atom_jacobian(p, flen, sr)[0]
        g, env, _, t = gammachirp_parts(p.f, p.b, p.c, p.l, flen, float(sr))
        g, env, t = g[0], env[0], t
        raw = -np.log(t) * env * np.sin(2 * np.pi * p.f * t)
        norm = np.linalg.norm(g)
        ghat = g / norm
        expected = (raw - ghat * float(ghat @ raw)) / norm
        np.testing.assert_allclose(jc, expected, atol=1e-12)


class TestEnergyGradient:
    def _toy(self, rng):
        channels = [
            GammachirpParams(f=500.0, b=1.0, c=0.4, l=3.0),
            GammachirpParams(f=1800.0, b=1.2, c=-0.6, l=4.0),
        ]
        return make_dictionary(channels, 16, 8, 8000)

    def test_zero_signal_zero_gradient(self, rng):
        d = self._toy(rng)
        cfg = LcaConfig(lam=0.05)
        code, state = encode(np.zeros(40), d, cfg, trace_window=10)
        assert code.n_events == 0
        g = energy_gradient(np.zeros(40), d, state, AdaptConfig(mode="alca-cf"))
        for lane in (g.d_c, g.d_b, g.d_l, g.d_f):
            assert np.all(lane == 0.0)

    def test_alca_mode_freezes_frequency_gradient(self, rng):
        d = self._toy(rng)
        s = rng.standard_normal(40) * 0.5
        cfg = LcaConfig(lam=0.05)
        _, state = encode(s, d, cfg, trace_window=50)
        g = energy_gradient(s, d, state, AdaptConfig(mode="alca"))
        assert np.all(g.d_f == 0.0)
        g_cf = energy_gradient(s, d, state, AdaptConfig(mode="alca-cf"))
        assert np.any(g_cf.d_f != 0.0)

    @pytest.mark.parametrize(
        "filter_len, stride, n_samples",
        [
            (16, 8, 40),  # max_lag 1
            (24, 8, 40),  # max_lag 2
            (32, 8, 72),  # max_lag 3
            (32, 8, 40),  # max_lag 3 over 2 frames: lags >= t_frames are skipped
        ],
    )
    def test_matches_frozen_mask_finite_differences(self, rng, filter_len, stride, n_samples):
        """Full-window analytic gradient vs central differences of the energy
        of the dense solver run with the recorded per-iteration active masks
        pinned. At a converged fixed point the two agree because the residual
        term's dependence on the code vanishes on the active set."""
        d = make_dictionary(self._toy(rng).channels, filter_len, stride, 8000)
        s = rng.standard_normal(n_samples) * 0.6
        lam, eta, alpha = 0.05, 0.2, 0.7
        iters = 300
        cfg = LcaConfig(lam=lam, eta=eta, max_iters=iters, rel_tol=0.0)
        code, state = encode(s, d, cfg, trace_window=iters)
        assert code.n_events > 0
        masks = [h != 0.0 for h in list(state.a_history)[1:]]
        assert len(masks) == state.iter

        adapt_cfg = AdaptConfig(mode="alca-cf", alpha=alpha, tbptt_window=iters)
        g = energy_gradient(s, d, state, adapt_cfg)
        analytic = np.concatenate([g.d_c, g.d_b, g.d_l, g.d_f])

        base = [[p.c, p.b, p.l, p.f] for p in d.channels]
        steps = {"c": 1e-5, "b": 1e-5, "l": 1e-5, "f": 1e-2}
        fd = []
        for lane_idx, name in enumerate(("c", "b", "l", "f")):
            h = steps[name]
            for ch in range(d.n_channels):
                for sgn in (+1.0, -1.0):
                    perturbed = [list(row) for row in base]
                    perturbed[ch][lane_idx] += sgn * h
                    atoms = independent_atoms(
                        [(row[3], row[1], row[0], row[2]) for row in perturbed],
                        d.filter_len, d.sample_rate,
                    )
                    e = dense_frozen_energy(atoms, d.stride, s, masks, lam, eta, alpha)
                    if sgn > 0:
                        e_hi = e
                    else:
                        e_lo = e
                fd.append((e_hi - e_lo) / (2 * h))
        fd = np.array(fd)
        rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
        assert rel <= 1e-3, f"stacked rel err {rel}"

    def test_short_trace_uses_full_history(self, rng):
        d = self._toy(rng)
        s = rng.standard_normal(40) * 0.5
        cfg = LcaConfig(lam=0.05, max_iters=60, rel_tol=0.0)
        _, state = encode(s, d, cfg, trace_window=500)
        g_big_window = energy_gradient(
            s, d, state, AdaptConfig(mode="alca-cf", tbptt_window=10_000)
        )
        g_exact_window = energy_gradient(
            s, d, state, AdaptConfig(mode="alca-cf", tbptt_window=60)
        )
        for name in ("d_c", "d_b", "d_l", "d_f"):
            np.testing.assert_array_equal(
                getattr(g_big_window, name), getattr(g_exact_window, name)
            )

    def test_mismatched_trace_rejected(self, rng):
        d = self._toy(rng)
        s = rng.standard_normal(40) * 0.5
        _, state = encode(s, d, LcaConfig(lam=0.05), trace_window=10)
        other = random_toy_dictionary(rng, n_channels=4, filter_len=16, stride=8)
        with pytest.raises(GradientError):
            energy_gradient(s, other, state, AdaptConfig(mode="alca"))

    def test_missing_history_rejected(self, rng):
        d = self._toy(rng)
        s = rng.standard_normal(40) * 0.5
        code, state = encode(s, d, LcaConfig(lam=0.05))
        assert code.n_events > 0
        with pytest.raises(GradientError, match="trace_window"):
            energy_gradient(s, d, state, AdaptConfig(mode="alca"))


class TestAdamax:
    def _setup(self, n=3, lr_mod=0.01, lr_cf=1.0):
        params = ChannelParams(
            c=np.zeros(n), b=np.ones(n), l=np.full(n, 4.0),
            f=np.array([200.0, 800.0, 3200.0])[:n],
        )
        config = AdaptConfig(mode="alca-cf", lr_mod=lr_mod, lr_cf=lr_cf,
                             bounds=default_bounds(16000))
        return params, AdamaxState.zeros(n), config

    def test_zero_gradient_is_identity(self):
        params, moments, config = self._setup()
        zero = ParamGradients(d_c=np.zeros(3), d_b=np.zeros(3), d_l=np.zeros(3),
                              d_f=np.zeros(3))
        out, _ = adamax_step(params, zero, moments, config, 1)
        for name in ("c", "b", "l", "f"):
            np.testing.assert_array_equal(getattr(out, name), getattr(params, name))

    def test_constant_gradient_closed_form(self):
        """With a constant gradient g the infinity moment pins to |g| after the
        first step, so every update is exactly -lr * g / (|g| + eps)."""
        lr = 1e-3
        params, moments, config = self._setup(lr_mod=lr)
        g = np.array([0.3, -0.2, 0.5])
        grads = ParamGradients(d_c=g, d_b=np.zeros(3), d_l=np.zeros(3), d_f=np.zeros(3))
        prev = params.c.copy()
        for step in range(1, 30):
            params, moments = adamax_step(params, grads, moments, config, step)
            delta = params.c - prev
            expected = -lr * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(delta, expected, rtol=1e-12)
            assert np.all(np.abs(delta) <= lr * (1 + 1e-8))
            prev = params.c.copy()

    def test_clamping(self):
        params, moments, config = self._setup(lr_cf=1e9)
        big = ParamGradients(
            d_c=np.zeros(3), d_b=np.zeros(3), d_l=np.zeros(3),
            d_f=np.array([-1.0, 0.0, 0.0]),
        )
        out, _ = adamax_step(params, big, moments, config, 1)
        assert out.f[0] == config.bounds.f[1]

    def test_bad_step_index_rejected(self):
        from chirpcode import OptimizerError

        params, moments, config = self._setup()
        zero = ParamGradients(d_c=np.zeros(3), d_b=np.zeros(3), d_l=np.zeros(3),
                              d_f=np.zeros(3))
        with pytest.raises(OptimizerError):
            adamax_step(params, zero, moments, config, 0)


def _tiny_corpus(rng, d, n=3, length=72):
    corpus = []
    for _ in range(n):
        s = np.zeros(length)
        for _ in range(3):
            ch = int(rng.integers(d.n_channels))
            t = int(rng.integers((length - d.filter_len) // d.stride + 1))
            s[t * d.stride : t * d.stride + d.filter_len] += (
                rng.uniform(0.3, 0.8) * d.atoms[ch]
            )
        corpus.append(s)
    return corpus


class TestAdaptCorpus:
    def _dict(self):
        channels = [
            GammachirpParams(f=400.0, b=1.019, c=0.0, l=4.0),
            GammachirpParams(f=900.0, b=1.019, c=0.0, l=4.0),
            GammachirpParams(f=2000.0, b=1.019, c=0.0, l=4.0),
        ]
        return make_dictionary(channels, 16, 8, 8000)

    def _lca(self):
        return LcaConfig(lam=0.04, eta=0.2, max_iters=120, rel_tol=1e-8)

    def test_zero_epochs_is_identity(self, rng):
        d0 = self._dict()
        d, history = adapt_corpus(
            _tiny_corpus(rng, d0), d0, self._lca(),
            AdaptConfig(mode="alca", epochs=0, bounds=default_bounds(8000)),
        )
        assert history == []
        assert d is d0

    def test_single_utterance_energy_descends(self, rng):
        d0 = self._dict()
        corpus = _tiny_corpus(rng, d0, n=1)
        cfg = AdaptConfig(
            mode="alca-cf", lr_mod=2e-3, lr_cf=0.5, epochs=10, batch_size=1,
            tbptt_window=40, bounds=default_bounds(8000), seed=3,
        )
        _, history = adapt_corpus(corpus, d0, self._lca(), cfg)
        assert history[-1].mean_energy <= history[0].mean_energy

    def test_alca_never_moves_frequencies(self, rng):
        d0 = self._dict()
        cfg = AdaptConfig(
            mode="alca", lr_mod=5e-3, epochs=4, batch_size=2, tbptt_window=40,
            bounds=default_bounds(8000), seed=0,
        )
        d, _ = adapt_corpus(_tiny_corpus(rng, d0), d0, self._lca(), cfg)
        for before, after in zip(d0.channels, d.channels):
            assert before.f == after.f
        assert any(b.c != a.c for b, a in zip(d0.channels, d.channels))

    def test_alca_leaves_out_of_bounds_frequencies_alone(self):
        """The desk bank's 7600 Hz top channel lies above the 7200 Hz cap of
        default_bounds(16000). ALCA does not adapt f, so it must not clamp
        it either: one epoch leaves every centre frequency bit-identical."""
        d0 = init_gammatone_dictionary(64, 80.0, 7600.0, 256, 128, 16000)
        corpus = formant_corpus(42, 2, sample_rate=16000, duration=0.1)
        cfg = AdaptConfig(
            mode="alca", lr_mod=2e-3, alpha=4.0, epochs=1, batch_size=2,
            bounds=default_bounds(16000), seed=7,
        )
        d, _ = adapt_corpus(corpus, d0, LcaConfig(lam=0.03, max_iters=50), cfg)
        assert [p.f for p in d.channels] == [p.f for p in d0.channels]
        assert any(b.c != a.c for b, a in zip(d0.channels, d.channels))

    def test_alca_cf_moves_frequencies(self, rng):
        d0 = self._dict()
        cfg = AdaptConfig(
            mode="alca-cf", lr_mod=5e-3, lr_cf=5.0, epochs=4, batch_size=2,
            tbptt_window=40, bounds=default_bounds(8000), seed=0,
        )
        d, _ = adapt_corpus(_tiny_corpus(rng, d0), d0, self._lca(), cfg)
        moved = [abs(b.f - a.f) for b, a in zip(d0.channels, d.channels)]
        assert max(moved) > 1.0

    def test_bounds_hold_after_every_step(self, rng):
        d0 = self._dict()
        bounds = ParamBounds(f=(100.0, 3000.0), b=(0.5, 2.0), l=(2.0, 6.0), c=(-1.0, 1.0))
        cfg = AdaptConfig(
            mode="alca-cf", lr_mod=0.05, lr_cf=50.0, epochs=6, batch_size=3,
            tbptt_window=40, bounds=bounds, seed=0,
        )
        d, _ = adapt_corpus(_tiny_corpus(rng, d0), d0, self._lca(), cfg)
        for p in d.channels:
            assert bounds.f[0] <= p.f <= bounds.f[1]
            assert bounds.b[0] <= p.b <= bounds.b[1]
            assert bounds.l[0] <= p.l <= bounds.l[1]
            assert bounds.c[0] <= p.c <= bounds.c[1]

    def test_deterministic_given_seed(self, rng):
        d0 = self._dict()
        corpus = _tiny_corpus(rng, d0)
        cfg = AdaptConfig(
            mode="alca-cf", lr_mod=3e-3, lr_cf=2.0, epochs=3, batch_size=2,
            tbptt_window=40, bounds=default_bounds(8000), seed=11,
        )
        d1, h1 = adapt_corpus(corpus, d0, self._lca(), cfg)
        d2, h2 = adapt_corpus(corpus, d0, self._lca(), cfg)
        assert h1 == h2
        for p1, p2 in zip(d1.channels, d2.channels):
            assert (p1.f, p1.b, p1.c, p1.l) == (p2.f, p2.b, p2.c, p2.l)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_member_error_names_utterance(self, rng, jobs):
        d0 = self._dict()
        corpus = _tiny_corpus(rng, d0, n=2) + [np.zeros(4)]
        cfg = AdaptConfig(mode="alca", epochs=1, batch_size=3,
                          bounds=default_bounds(8000), seed=0)
        with pytest.raises(SignalError, match=r"utterance\[2\]"):
            adapt_corpus(corpus, d0, self._lca(), cfg, jobs=jobs)
        assert multiprocessing.active_children() == []

    def test_jobs_do_not_change_results(self, rng):
        """Worker processes give the serial path's parameters and history bit
        for bit, over several mini-batches and epochs, and are gone on return."""
        d0 = self._dict()
        corpus = _tiny_corpus(rng, d0, n=5)
        cfg = AdaptConfig(
            mode="alca-cf", lr_mod=3e-3, lr_cf=2.0, epochs=2, batch_size=2,
            tbptt_window=40, bounds=default_bounds(8000), seed=5,
        )
        (d1, h1), (d2, h2) = (
            adapt_corpus(corpus, d0, self._lca(), cfg, jobs=jobs) for jobs in (1, 2)
        )
        assert multiprocessing.active_children() == []
        assert h1 == h2
        assert d1.channels == d2.channels
        assert np.array_equal(d1.atoms, d2.atoms)
        assert d1.channels != d0.channels

    def test_empty_corpus_rejected(self):
        d0 = self._dict()
        with pytest.raises(ConfigError):
            adapt_corpus([], d0, self._lca(),
                         AdaptConfig(mode="alca", bounds=default_bounds(8000)))


class TestConfigValidation:
    def test_mode_names(self):
        AdaptConfig(mode="ALCA")
        AdaptConfig(mode="alca-cf")
        with pytest.raises(ConfigError):
            AdaptConfig(mode="alcacf")

    def test_lr_cf_required_for_cf_mode(self):
        with pytest.raises(ConfigError):
            AdaptConfig(mode="alca-cf", lr_cf=0.0)
        AdaptConfig(mode="alca", lr_cf=0.0)

    def test_search_grid(self):
        """Every centre-frequency learning rate of the documented search
        range, log-spaced from 1e-6 to 1e2, is a valid ALCA-CF setting."""
        for lr_cf in np.geomspace(1e-6, 1e2, 9):
            assert AdaptConfig(mode="alca-cf", lr_cf=float(lr_cf)).lr_cf == lr_cf
