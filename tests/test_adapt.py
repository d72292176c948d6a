"""Adaptation: atom jacobians, energy gradients (vs finite differences), Adamax."""

import multiprocessing
import tracemalloc
from collections import deque

import numpy as np
import pytest

from chirpcode import (
    AdaptConfig,
    AdamaxState,
    AudioIngestError,
    ConfigError,
    GradientError,
    GramKernel,
    LcaConfig,
    LcaState,
    ParamBounds,
    ParamGradients,
    SignalError,
    Utterance,
    adamax_step,
    adapt_corpus,
    default_bounds,
    dictionary_jacobians,
    encode,
    energy_gradient,
    erb,
    gram_kernel,
    init_gammatone_dictionary,
    make_dictionary,
)
from chirpcode import adapt as adapt_module
from chirpcode import dictionary as dictionary_module
from chirpcode import metrics
from chirpcode.dictionary import gammachirp_parts

from conftest import random_toy_dictionary
from oracles import (
    dense_frozen_energy,
    formant_corpus,
    independent_atom,
    independent_atoms,
    stepwise_atom_gradient,
)


def _random_params(rng):
    return {
        "f": float(rng.uniform(100, 6000)),
        "b": float(rng.uniform(0.4, 3.0)),
        "c": float(rng.uniform(0.05, 3.0)) * float(rng.choice([-1.0, 1.0])),
        "l": float(rng.uniform(1.6, 6.0)),
    }


def _one_channel(p, filter_len, sample_rate):
    return make_dictionary(
        [p["f"]], [p["b"]], [p["c"]], [p["l"]], filter_len, filter_len, sample_rate
    )


def _fd_jacobian(p, name, filter_len, sample_rate):
    """Central difference of the unit-norm atom, step 1e-6 relative."""
    theta = p[name]
    h = 1e-6 * max(abs(theta), 1.0)
    hi = dict(p, **{name: theta + h})
    lo = dict(p, **{name: theta - h})
    up = independent_atom(hi["f"], hi["b"], hi["c"], hi["l"], filter_len, sample_rate)
    dn = independent_atom(lo["f"], lo["b"], lo["c"], lo["l"], filter_len, sample_rate)
    return (up - dn) / (2 * h)


class TestAtomJacobian:
    def test_orthogonal_to_atom(self, rng):
        for _ in range(20):
            p = _random_params(rng)
            atom = independent_atom(p["f"], p["b"], p["c"], p["l"], 128, 16000)
            for jac in dictionary_jacobians(_one_channel(p, 128, 16000)).values():
                assert abs(float(atom @ jac[0])) <= 1e-10

    def test_matches_finite_differences(self, rng):
        for _ in range(25):
            p = _random_params(rng)
            jacs = dictionary_jacobians(_one_channel(p, 128, 16000))
            for name in ("c", "b", "l", "f"):
                analytic = jacs[name][0]
                fd = _fd_jacobian(p, name, 128, 16000)
                rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-12)
                assert rel <= 1e-5, f"{name}: rel err {rel}"

    def test_a_slice_of_channels_gives_those_rows_bit_for_bit(self, rng):
        d = random_toy_dictionary(rng, n_channels=10, filter_len=128, stride=64, sample_rate=16000)
        whole = dictionary_jacobians(d)
        part = dictionary_jacobians(d, channels=slice(3, 8))
        for name in ("c", "b", "l", "f"):
            assert np.array_equal(part[name], whole[name][3:8]), name

    def test_chirp_partial_at_zero_chirp(self):
        """At c = 0 the raw chirp partial is the quadrature carrier
        -ln(t) * env(t) * sin(2 pi f t); the returned jacobian is that vector
        pushed through the normalization."""
        flen, sr = 256, 16000
        d = make_dictionary([800.0], [1.019], [0.0], [4.0], flen, flen, sr)
        jc = dictionary_jacobians(d)["c"][0]
        g, env, _, t = gammachirp_parts(800.0, 1.019, 0.0, 4.0, flen, float(sr))
        g, env, t = g[0], env[0], t
        raw = -np.log(t) * env * np.sin(2 * np.pi * 800.0 * t)
        norm = np.linalg.norm(g)
        ghat = g / norm
        expected = (raw - ghat * float(ghat @ raw)) / norm
        np.testing.assert_allclose(jc, expected, atol=1e-12)


class TestEnergyGradient:
    def _toy(self, rng, filter_len=16, stride=8):
        return make_dictionary(
            [500.0, 1800.0], [1.0, 1.2], [0.4, -0.6], [3.0, 4.0], filter_len, stride, 8000
        )

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
        d = self._toy(rng, filter_len, stride)
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

        base = np.column_stack([d.c, d.b, d.l, d.f]).tolist()
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


def _synthetic_trace(rng, fires, t_frames, lam=0.05, eta=0.1):
    """An LcaState recording len(fires) activation matrices, oldest first:
    entry k is random and about 40 % dense on the channels fires[k] marks,
    and zero on the others."""
    history = [rng.standard_normal((len(row), t_frames)) * (rng.random((len(row), t_frames)) < 0.4)
               * np.asarray(row, dtype=float)[:, None] for row in fires]
    a = history[-1]
    return LcaState(v=a.copy(), a=a, inhibition=np.zeros_like(a), a_history=deque(history),
                    lam=lam, eta=eta)


def _assert_matches_stepwise_oracle(s, d, state, window, alpha=0.7):
    g = energy_gradient(s, d, state, AdaptConfig(mode="alca-cf", alpha=alpha, tbptt_window=window))
    expected = stepwise_atom_gradient(s, d.atoms, d.stride, gram_kernel(d).lags,
                                      list(state.a_history), state.lam, state.eta, alpha, window)
    jac = dictionary_jacobians(d)
    for name in ("c", "b", "l", "f"):
        lane = np.sum(expected * jac[name], axis=1)
        scale = np.max(np.abs(lane))
        assert scale > 0
        assert np.max(np.abs(g.get(name) - lane)) <= 1e-12 * scale, name


class TestReversePassOracle:
    """energy_gradient against the reverse pass taken one iteration at a
    time over every channel (oracles.stepwise_atom_gradient)."""

    def _signal(self, rng, d, t_frames):
        return rng.standard_normal((t_frames - 1) * d.stride + d.filter_len) * 0.5

    def test_several_blocks_and_a_partial_last_one(self, rng):
        """Channel 3 never fires, channel 4 fires only in the final code and
        channel 5 only in iterations the pass reads before it."""
        d = random_toy_dictionary(rng, n_channels=6, filter_len=64, stride=32)
        t_frames, window = 40, 40
        per = adapt_module.LAG_BLOCK_COLUMNS // (t_frames + d.frames_per_filter - 1)
        assert per < window and window % per != 0
        fires = np.ones((46, 6), dtype=bool)
        fires[:, 3] = False
        fires[:-1, 4] = False
        fires[:, 5] = False
        fires[6:10, 5] = True
        state = _synthetic_trace(rng, fires, t_frames)
        _assert_matches_stepwise_oracle(self._signal(rng, d, t_frames), d, state, window)

    @pytest.mark.parametrize("live", [[1, 4], [0, 1, 2, 3, 4, 5]], ids=["silent", "all-live"])
    def test_live_channel_sets(self, rng, live):
        d = random_toy_dictionary(rng, n_channels=6, filter_len=64, stride=32)
        fires = np.zeros((30, 6), dtype=bool)
        fires[1:, live] = True
        state = _synthetic_trace(rng, fires, 10)
        _assert_matches_stepwise_oracle(self._signal(rng, d, 10), d, state, 25)

    def test_max_lag_3_over_2_frames(self, rng):
        d = random_toy_dictionary(rng, n_channels=5, filter_len=128, stride=32)
        assert d.frames_per_filter - 1 == 3
        fires = np.ones((20, 5), dtype=bool)
        fires[0] = False
        state = _synthetic_trace(rng, fires, 2)
        _assert_matches_stepwise_oracle(self._signal(rng, d, 2), d, state, 15)

    def test_stride_that_does_not_divide_the_filter(self, rng):
        """Filter 96, stride 40: lags 1 and 2 overlap the filter by 56 and 16 samples."""
        d = random_toy_dictionary(rng, n_channels=5, filter_len=96, stride=40)
        assert d.frames_per_filter - 1 == 2 and d.filter_len % d.stride != 0
        fires = np.ones((20, 5), dtype=bool)
        fires[0] = False
        state = _synthetic_trace(rng, fires, 8)
        _assert_matches_stepwise_oracle(self._signal(rng, d, 8), d, state, 15)

    def test_window_longer_than_the_recorded_history(self, rng):
        d = random_toy_dictionary(rng, n_channels=6, filter_len=64, stride=32)
        fires = np.ones((6, 6), dtype=bool)
        fires[0] = False
        state = _synthetic_trace(rng, fires, 10)
        _assert_matches_stepwise_oracle(self._signal(rng, d, 10), d, state, 50)

    def test_every_channel_live_stays_on_the_dense_lags(self, rng):
        """With every channel live the pass gathers nothing. On a bank whose
        kernel applies its range factors, it still sums the dense lags: the
        gradient equals that of the factor-free kernel bit for bit."""
        d = init_gammatone_dictionary(96, *default_bounds(8000).f, 128, 64, 8000)
        assert d.kernel.factors is not None
        state = _synthetic_trace(rng, np.ones((12, 96), dtype=bool), 9)
        s = self._signal(rng, d, 9)
        config = AdaptConfig(mode="alca-cf", alpha=0.7, tbptt_window=10)
        dense = GramKernel(lags=d.kernel.lags, max_lag=d.kernel.max_lag)
        got = energy_gradient(s, d, state, config)
        want = energy_gradient(s, d, state, config, kernel=dense)
        for name in ("c", "b", "l", "f"):
            assert np.array_equal(got.get(name), want.get(name)), name

    def test_desk_bank_solve(self):
        """A real 300-iteration trace of the 64-channel desk bank, window 50."""
        d = init_gammatone_dictionary(64, 80.0, 7600.0, 256, 128, 16000)
        s = formant_corpus(9, 1, sample_rate=16000, duration=0.1)[0]
        _, state = encode(s, d, LcaConfig(lam=0.03, eta=0.1, max_iters=300, rel_tol=0.0),
                          trace_window=50)
        live = np.any([np.any(a, axis=1) for a in state.a_history], axis=0)
        assert 0 < np.count_nonzero(live) < d.n_channels
        _assert_matches_stepwise_oracle(s, d, state, 50, alpha=4.0)


class TestJacobianBlocks:
    """energy_gradient contracts the jacobians a block of channels at a time."""

    @pytest.mark.parametrize("mode", ["alca", "alca-cf"])
    def test_blocks_equal_the_whole_bank_bit_for_bit(self, mode, monkeypatch):
        block = adapt_module.JACOBIAN_BLOCK_CHANNELS
        d = init_gammatone_dictionary(150, 80.0, 7600.0, 128, 64, 16000)
        assert d.n_channels > 2 * block and d.n_channels % block != 0
        s = formant_corpus(3, 1, sample_rate=16000, duration=0.05)[0]
        _, state = encode(s, d, LcaConfig(lam=0.01, eta=0.01, max_iters=40, rel_tol=0.0),
                          trace_window=10)
        cfg = AdaptConfig(mode=mode, alpha=2.0, tbptt_window=10)
        calls = []

        def spy(d, channels=slice(None), **kwargs):
            calls.append(channels)
            return dictionary_jacobians(d, channels=channels, **kwargs)

        monkeypatch.setattr(adapt_module, "dictionary_jacobians", spy)
        blocked = energy_gradient(s, d, state, cfg)
        starts = list(range(0, d.n_channels, block))
        assert calls == [slice(i, i + block) for i in starts]
        calls.clear()
        monkeypatch.setattr(adapt_module, "JACOBIAN_BLOCK_CHANNELS", d.n_channels)
        whole = energy_gradient(s, d, state, cfg)
        assert calls == [slice(0, d.n_channels)]
        for name in ("c", "b", "l", "f"):
            assert np.array_equal(blocked.get(name), whole.get(name)), name
        assert np.any(blocked.d_c)
        assert np.any(blocked.d_f) == (mode == "alca-cf")

    def test_peak_memory_stays_below_one_jacobian_set(self):
        """At alpha 0 the gradient is the fixed-code term alone; its
        tracemalloc peak on 300 channels x 1024 samples stays below the
        4 * 300 * 1024 float64s of one whole-bank jacobian set."""
        d = init_gammatone_dictionary(300, 80.0, 7600.0, 1024, 512, 16000)
        s = np.random.default_rng(5).standard_normal(3 * d.stride + d.filter_len) * 0.1
        _, state = encode(s, d, LcaConfig(lam=0.01, eta=0.005, max_iters=20, rel_tol=0.0))
        assert np.any(state.a)
        tracemalloc.start()
        try:
            energy_gradient(s, d, state, AdaptConfig(mode="alca-cf", alpha=0.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * d.n_channels * d.filter_len * 8


class TestAdamax:
    def _setup(self, n=3, lr_mod=0.01, lr_cf=1.0):
        d = make_dictionary(
            np.array([200.0, 800.0, 3200.0])[:n], np.ones(n), np.zeros(n), np.full(n, 4.0),
            64, 32, 16000,
        )
        config = AdaptConfig(mode="alca-cf", lr_mod=lr_mod, lr_cf=lr_cf,
                             bounds=default_bounds(16000))
        return d, AdamaxState.zeros(n), config

    def test_zero_gradient_is_identity(self):
        d, moments, config = self._setup()
        zero = ParamGradients(d_c=np.zeros(3), d_b=np.zeros(3), d_l=np.zeros(3),
                              d_f=np.zeros(3))
        out = adamax_step(d, zero, moments, config, 1)
        assert sorted(out) == sorted(adapt_module.PARAM_NAMES)
        for name in ("c", "b", "l", "f"):
            np.testing.assert_array_equal(out[name], getattr(d, name))

    def test_constant_gradient_closed_form(self):
        """With a constant gradient g the infinity moment pins to |g| after the
        first step, so every update is exactly -lr * g / (|g| + eps)."""
        lr = 1e-3
        d, moments, config = self._setup(lr_mod=lr)
        g = np.array([0.3, -0.2, 0.5])
        grads = ParamGradients(d_c=g, d_b=np.zeros(3), d_l=np.zeros(3), d_f=np.zeros(3))
        for step in range(1, 30):
            stepped = adamax_step(d, grads, moments, config, step)
            delta = stepped["c"] - d.c
            expected = -lr * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(delta, expected, rtol=1e-12)
            assert np.all(np.abs(delta) <= lr * (1 + 1e-8))
            d = make_dictionary(**stepped, filter_len=d.filter_len, stride=d.stride,
                                sample_rate=d.sample_rate)

    def test_clamping(self):
        d, moments, config = self._setup(lr_cf=1e9)
        big = ParamGradients(
            d_c=np.zeros(3), d_b=np.zeros(3), d_l=np.zeros(3),
            d_f=np.array([-1.0, 0.0, 0.0]),
        )
        out = adamax_step(d, big, moments, config, 1)
        assert out["f"][0] == config.bounds.f[1]

    def test_bad_step_index_rejected(self):
        from chirpcode import OptimizerError

        d, moments, config = self._setup()
        zero = ParamGradients(d_c=np.zeros(3), d_b=np.zeros(3), d_l=np.zeros(3),
                              d_f=np.zeros(3))
        with pytest.raises(OptimizerError):
            adamax_step(d, zero, moments, config, 0)


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
        return make_dictionary([400.0, 900.0, 2000.0], [1.019] * 3, [0.0] * 3, [4.0] * 3,
                               16, 8, 8000)

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
        np.testing.assert_array_equal(d.f, d0.f)
        assert np.any(d.c != d0.c)

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
        np.testing.assert_array_equal(d.f, d0.f)
        assert np.any(d.c != d0.c)

    def test_alca_cf_moves_frequencies(self, rng):
        d0 = self._dict()
        cfg = AdaptConfig(
            mode="alca-cf", lr_mod=5e-3, lr_cf=5.0, epochs=4, batch_size=2,
            tbptt_window=40, bounds=default_bounds(8000), seed=0,
        )
        d, _ = adapt_corpus(_tiny_corpus(rng, d0), d0, self._lca(), cfg)
        assert np.max(np.abs(d.f - d0.f)) > 1.0

    def test_bounds_hold_after_every_step(self, rng):
        d0 = self._dict()
        bounds = ParamBounds(f=(100.0, 3000.0), b=(0.5, 2.0), l=(2.0, 6.0), c=(-1.0, 1.0))
        cfg = AdaptConfig(
            mode="alca-cf", lr_mod=0.05, lr_cf=50.0, epochs=6, batch_size=3,
            tbptt_window=40, bounds=bounds, seed=0,
        )
        d, _ = adapt_corpus(_tiny_corpus(rng, d0), d0, self._lca(), cfg)
        for name in ("f", "b", "l", "c"):
            lo, hi = getattr(bounds, name)
            assert np.all((lo <= getattr(d, name)) & (getattr(d, name) <= hi))

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
        for name in ("f", "b", "c", "l"):
            np.testing.assert_array_equal(getattr(d1, name), getattr(d2, name))

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_member_error_names_utterance(self, rng, jobs):
        d0 = self._dict()
        corpus = _tiny_corpus(rng, d0, n=2) + [np.zeros(4)]
        cfg = AdaptConfig(mode="alca", epochs=1, batch_size=3,
                          bounds=default_bounds(8000), seed=0)
        with pytest.raises(SignalError, match=r"utterance\[2\]"):
            adapt_corpus(corpus, d0, self._lca(), cfg, jobs=jobs)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_first_failure_in_batch_order_is_raised(self, rng, jobs):
        """A batch is stacked by frame count, so stack order can differ from
        batch order; the error names the first failure in batch order."""
        d0 = self._dict()
        ok8, ok4 = _tiny_corpus(rng, d0, n=1)[0], _tiny_corpus(rng, d0, n=1, length=40)[0]
        bad8, bad4 = np.full(72, np.nan), np.full(40, np.nan)
        cfg = AdaptConfig(mode="alca", epochs=1, batch_size=4,
                          bounds=default_bounds(8000), seed=3)
        # Lay the corpus out so that the shuffled batch is ok8, bad4, bad8,
        # ok4. Its 8-frame stacks come first, so bad8 fails first in stack order.
        order = np.random.default_rng(cfg.seed).permutation(4)
        corpus = [None] * 4
        for position, signal in zip(order, (ok8, bad4, bad8, ok4)):
            corpus[position] = signal
        with pytest.raises(SignalError, match=rf"^utterance 'utterance\[{order[1]}\]': signal"):
            adapt_corpus(corpus, d0, self._lca(), cfg, jobs=jobs)
        assert multiprocessing.active_children() == []

    def test_results_do_not_depend_on_the_stacks(self, rng, monkeypatch, cpus):
        """Two frame counts, and stacks from one per utterance to one per frame
        count, at one job on one and two CPUs and at two jobs: the same
        parameters, atoms and history."""
        d0 = self._dict()
        corpus = _tiny_corpus(rng, d0, n=4) + _tiny_corpus(rng, d0, n=3, length=48)
        cfg = AdaptConfig(
            mode="alca-cf", lr_mod=3e-3, lr_cf=2.0, epochs=2, batch_size=4,
            tbptt_window=10, bounds=default_bounds(8000), seed=5,
        )
        runs = []
        # 3 * 8 * 11 * 2 holds two 8-frame or three 5-frame solves with their history.
        for elements in (metrics.STACK_ELEMENTS, 1, 3 * 8 * 11 * 2):
            monkeypatch.setattr(metrics, "STACK_ELEMENTS", elements)
            for jobs, n_cpus in ((1, 1), (1, 2), (2, 2)):
                cpus(n_cpus)
                runs.append(adapt_corpus(corpus, d0, self._lca(), cfg, jobs=jobs))
        d1, h1 = runs[0]
        assert len(h1) == 2 and not np.array_equal(d1.f, d0.f)
        for d, h in runs[1:]:
            assert h == h1
            for name in ("f", "b", "c", "l", "atoms"):
                assert np.array_equal(getattr(d, name), getattr(d1, name))

    @pytest.mark.parametrize("window, sizes", [(11, [1] * 5), (5, [2, 2, 1]), (2, [3, 2])])
    def test_stacks_are_capped_with_the_recorded_iterations(self, rng, monkeypatch, cpus,
                                                              window, sizes):
        """A cap of 12 solver arrays of 3 channels by 8 frames: a solve that
        records ``window`` iterations takes window + 1 of them. One CPU, so
        the stacks run one after another, in order."""
        cpus(1)
        d0 = self._dict()
        corpus = _tiny_corpus(rng, d0, n=5)
        monkeypatch.setattr(metrics, "STACK_ELEMENTS", 3 * 8 * 12)
        original, seen = adapt_module.encode_and_grade, []

        def recording(ids, *args):
            seen.append(len(ids))
            return original(ids, *args)

        monkeypatch.setattr(adapt_module, "encode_and_grade", recording)
        cfg = AdaptConfig(mode="alca", epochs=1, batch_size=5, tbptt_window=window,
                          bounds=default_bounds(8000))
        adapt_corpus(corpus, d0, self._lca(), cfg)
        assert seen == sizes

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_kernel_per_optimizer_step(self, rng, monkeypatch, jobs):
        """Six utterances in batches of four take two steps an epoch. Each
        step's batch is solved on the kernel of the dictionary it steps from,
        built once, in this process; no epoch builds a kernel it does not use.
        d0 keeps its kernel, so only the first call that steps from it builds
        one."""
        d0 = self._dict()
        corpus = _tiny_corpus(rng, d0, n=6)
        built = []

        def spying(d, original=dictionary_module.gram_kernel):
            built.append(d)
            return original(d)

        monkeypatch.setattr(dictionary_module, "gram_kernel", spying)
        for epochs, builds in ((0, 0), (1, 2), (2, 3)):
            built.clear()
            cfg = AdaptConfig(mode="alca-cf", lr_mod=3e-3, lr_cf=2.0, epochs=epochs,
                              batch_size=4, tbptt_window=10, bounds=default_bounds(8000), seed=5)
            adapt_corpus(corpus, d0, self._lca(), cfg, jobs=jobs)
            assert len(built) == builds
            assert len({id(d) for d in built}) == builds
            assert any(d is d0 for d in built) == (epochs == 1)

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
        for name in ("f", "b", "c", "l", "atoms"):
            np.testing.assert_array_equal(getattr(d1, name), getattr(d2, name))
        assert any(
            not np.array_equal(getattr(d1, n), getattr(d0, n)) for n in adapt_module.PARAM_NAMES
        )

    def test_jobs_do_not_change_a_desk_size_adaptation(self):
        """64 channels at 16 kHz with a window of 50: the reverse pass's lag
        correlations are products OpenBLAS threads. Jobs 1 runs every stack
        in this process, jobs 2 spreads them over workers."""
        d0 = init_gammatone_dictionary(64, 80.0, 7600.0, 256, 128, 16000)
        corpus = formant_corpus(5, 4, sample_rate=16000)
        lca_cfg = LcaConfig(lam=0.03, eta=0.1, max_iters=80)
        cfg = AdaptConfig(mode="alca-cf", lr_mod=2e-3, lr_cf=10.0, alpha=4.0, tbptt_window=50,
                          epochs=1, batch_size=4, bounds=default_bounds(16000), seed=7)
        (d1, h1), (d2, h2) = (adapt_corpus(corpus, d0, lca_cfg, cfg, jobs=jobs) for jobs in (1, 2))
        assert h1 == h2
        for name in ("f", "b", "c", "l", "atoms"):
            np.testing.assert_array_equal(getattr(d1, name), getattr(d2, name))

    def test_cf_bound_at_nyquist_rejected_before_any_encode(self, rng, monkeypatch):
        d0 = self._dict()
        corpus = _tiny_corpus(rng, d0)
        bounds = ParamBounds(f=(20.0, 4000.0))
        d, _ = adapt_corpus(corpus, d0, self._lca(),
                            AdaptConfig(mode="alca", epochs=1, bounds=bounds))
        np.testing.assert_array_equal(d.f, d0.f)

        def no_encode(*args, **kwargs):
            raise AssertionError("encoded before checking the bounds")

        monkeypatch.setattr(adapt_module, "encode_and_grade", no_encode)
        with pytest.raises(ConfigError, match=r"upper bound 4000\.0 Hz .*Nyquist \(4000\.0 Hz\)"):
            adapt_corpus(corpus, d0, self._lca(),
                         AdaptConfig(mode="alca-cf", epochs=1, bounds=bounds))

    def test_empty_corpus_rejected(self):
        d0 = self._dict()
        with pytest.raises(ConfigError):
            adapt_corpus([], d0, self._lca(),
                         AdaptConfig(mode="alca", bounds=default_bounds(8000)))

    def test_duplicate_ids_rejected(self, rng):
        d0 = self._dict()
        corpus = [Utterance(id=i, samples=s / max(1.0, np.max(np.abs(s))), sample_rate=8000)
                  for i, s in zip("xyx", _tiny_corpus(rng, d0))]
        with pytest.raises(AudioIngestError, match=r"^duplicate utterance ids: \['x'\]$"):
            adapt_corpus(corpus, d0, self._lca(),
                         AdaptConfig(mode="alca", epochs=1, bounds=default_bounds(8000)))


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

    @pytest.mark.parametrize("kwargs, field", [
        ({"epochs": True}, "epochs"),
        ({"batch_size": 2.5}, "batch_size"),
        ({"lr_mod": "0.001"}, "lr_mod"),
        ({"tbptt_window": None}, "tbptt_window"),
    ])
    def test_field_of_the_wrong_type_is_named(self, kwargs, field):
        with pytest.raises(ConfigError, match=f"^{field} must be"):
            AdaptConfig(mode="alca", **kwargs)

    def test_numpy_scalars_are_stored_as_python_numbers(self):
        cfg = AdaptConfig(mode="alca-cf", lr_cf=np.float64(5.0), epochs=np.int64(3),
                          batch_size=4.0, seed=np.int32(2))
        assert (cfg.lr_cf, cfg.epochs, cfg.batch_size, cfg.seed) == (5.0, 3, 4, 2)
        assert [type(v) for v in (cfg.lr_cf, cfg.epochs, cfg.batch_size, cfg.seed)] == [
            float, int, int, int]

    def test_nan_alpha_and_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="alpha"):
            AdaptConfig(mode="alca", alpha=float("nan"))
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            AdaptConfig(mode="alca", seed=-1)

    def test_bounds_must_be_param_bounds(self):
        with pytest.raises(ConfigError, match="bounds"):
            AdaptConfig(mode="alca", bounds={"f": (20.0, 4000.0)})

    def test_param_bounds_take_pairs_of_numbers(self):
        bounds = ParamBounds(f=[20, np.float64(4000.0)])
        assert bounds.f == (20.0, 4000.0) and type(bounds.f[1]) is float
        with pytest.raises(ConfigError, match="bounds for 'f' must be a number"):
            ParamBounds(f=(20.0, "4000"))
        with pytest.raises(ConfigError, match="bounds for 'b' must be a pair"):
            ParamBounds(f=(20.0, 4000.0), b=1.0)


class TestDefaultBounds:
    """AdaptConfig's bounds default to default_bounds of the adapted dictionary's rate."""

    def test_default_is_none(self):
        assert AdaptConfig(mode="alca-cf").bounds is None

    def test_alca_cf_with_default_bounds_runs_on_an_8k_bank(self, rng):
        d0 = make_dictionary([400.0, 900.0, 2000.0, 3500.0], [1.019] * 4, [0.0] * 4, [4.0] * 4,
                             16, 8, 8000)
        lca_cfg = LcaConfig(lam=0.04, eta=0.2, max_iters=120, rel_tol=1e-8)
        d, history = adapt_corpus(_tiny_corpus(rng, d0), d0, lca_cfg,
                                  AdaptConfig(mode="alca-cf", lr_cf=1e3, epochs=1))
        assert len(history) == 1
        assert not np.array_equal(d.f, d0.f)
        lo, hi = default_bounds(8000).f
        assert np.all((lo <= d.f) & (d.f <= hi))
        assert hi < 4000.0

    def test_adamax_clamps_to_the_dictionary_rate(self):
        d = make_dictionary([200.0, 800.0, 3200.0], np.ones(3), np.zeros(3), np.full(3, 4.0),
                            64, 32, 8000)
        big = ParamGradients(d_c=np.zeros(3), d_b=np.zeros(3), d_l=np.zeros(3),
                             d_f=np.array([0.0, 0.0, -1.0]))
        out = adamax_step(d, big, AdamaxState.zeros(3), AdaptConfig(mode="alca-cf", lr_cf=1e9), 1)
        assert out["f"][2] == default_bounds(8000).f[1]


class TestAlcaJacobians:
    """ALCA asks for the jacobians of c, b and l only; the lanes do not change."""

    def test_a_subset_of_parameters_gives_those_entries_bit_for_bit(self, rng):
        d = random_toy_dictionary(rng, n_channels=10, filter_len=128, stride=64, sample_rate=16000)
        whole = dictionary_jacobians(d)
        part = dictionary_jacobians(d, channels=slice(2, 9), params=("c", "b", "l"))
        assert sorted(part) == ["b", "c", "l"]
        for name in part:
            assert np.array_equal(part[name], whole[name][2:9]), name

    def test_alca_skips_the_f_jacobian(self, monkeypatch):
        d = init_gammatone_dictionary(40, 80.0, 7600.0, 128, 64, 16000)
        s = formant_corpus(4, 1, sample_rate=16000, duration=0.05)[0]
        _, state = encode(s, d, LcaConfig(lam=0.01, eta=0.01, max_iters=40, rel_tol=0.0),
                          trace_window=10)
        asked = []

        def spy(d, channels=slice(None), params=adapt_module.PARAM_NAMES):
            asked.append(tuple(params))
            return dictionary_jacobians(d, channels=channels, params=params)

        monkeypatch.setattr(adapt_module, "dictionary_jacobians", spy)
        alca = energy_gradient(s, d, state, AdaptConfig(mode="alca", alpha=2.0, tbptt_window=10))
        assert set(asked) == {("c", "b", "l")}
        asked.clear()
        cf = energy_gradient(s, d, state, AdaptConfig(mode="alca-cf", alpha=2.0, tbptt_window=10))
        assert set(asked) == {("c", "b", "l", "f")}
        for name in ("c", "b", "l"):
            assert np.array_equal(alca.get(name), cf.get(name)), name
        assert np.any(alca.d_c) and not np.any(alca.d_f) and np.any(cf.d_f)
