"""LCA solver: threshold, dynamics, encode contracts, energies, code round trips."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpcode import (
    CodeError,
    SignalError,
    LcaConfig,
    SolverError,
    SparseCode,
    apply_kernel,
    encode,
    encode_many,
    energy,
    export_events_csv,
    gram_kernel,
    lca_step,
    load_code,
    make_dictionary,
    project,
    reconstruct,
    save_code,
    threshold,
    trace_energy,
)
from chirpcode.lca import LcaState

from conftest import random_toy_dictionary, sparse_recovery_instance
from oracles import grid_search_energy_2atom


class TestThreshold:
    def test_below(self):
        assert threshold(np.array([0.5]), 1.0)[0] == 0.0

    def test_negative_passthrough(self):
        assert threshold(np.array([-2.0]), 1.0)[0] == -2.0

    def test_boundary_passes(self):
        """|v| < lam is strict, so v == lam lands in the pass-through branch."""
        assert threshold(np.array([1.0]), 1.0)[0] == 1.0

    @settings(max_examples=100, deadline=None)
    @given(
        v=st.floats(min_value=-10, max_value=10),
        lam=st.floats(min_value=0, max_value=5),
    )
    def test_elementwise_contract(self, v, lam):
        out = threshold(np.array([v]), lam)[0]
        if abs(v) < lam:
            assert out == 0.0
        else:
            assert out == v


class TestLcaStep:
    def test_pure_leak_without_activity(self, rng):
        d = random_toy_dictionary(rng)
        k = gram_kernel(d)
        cfg = LcaConfig(lam=100.0, eta=0.25)
        v0 = rng.standard_normal((3, 4))
        state = LcaState(v=v0.copy(), a=np.zeros((3, 4)), inhibition=np.zeros((3, 4)),
                         lam=cfg.lam, eta=cfg.eta)
        drive = rng.standard_normal((3, 4))
        lca_step(state, drive, k, cfg)
        np.testing.assert_allclose(state.v, (1 - 0.25) * v0 + 0.25 * drive, atol=1e-15)

    def test_fixed_point_is_stationary(self, rng):
        d = random_toy_dictionary(rng)
        k = gram_kernel(d)
        cfg = LcaConfig(lam=0.3, eta=0.1)
        v = rng.standard_normal((3, 4))
        a = threshold(v, cfg.lam)
        drive = v + apply_kernel(k, a)
        state = LcaState(v=v.copy(), a=a.copy(), inhibition=apply_kernel(k, a),
                         lam=cfg.lam, eta=cfg.eta)
        lca_step(state, drive, k, cfg)
        np.testing.assert_allclose(state.v, v, atol=1e-12)
        np.testing.assert_allclose(state.a, a, atol=1e-12)

    def test_no_self_inhibition(self, rng):
        d = random_toy_dictionary(rng)
        k = gram_kernel(d)
        a = np.zeros((3, 4))
        a[1, 2] = 5.0
        assert apply_kernel(k, a)[1, 2] == 0.0

    def test_updates_v_in_place(self, rng):
        """``lca_step`` writes the new potentials into ``state.v``: a caller
        holding the array it passed in sees it change."""
        d = random_toy_dictionary(rng)
        k = gram_kernel(d)
        cfg = LcaConfig(lam=0.2, eta=0.1)
        v = rng.standard_normal((3, 4))
        v0, a0 = v.copy(), threshold(v, cfg.lam)
        state = LcaState(v=v, a=a0, inhibition=apply_kernel(k, a0), lam=cfg.lam, eta=cfg.eta)
        drive = rng.standard_normal((3, 4))
        lca_step(state, drive, k, cfg)
        assert state.v is v
        assert np.array_equal(v, v0 + cfg.eta * (drive - v0 - apply_kernel(k, a0)))

    def test_activation_consistency(self, rng):
        d = random_toy_dictionary(rng)
        k = gram_kernel(d)
        cfg = LcaConfig(lam=0.2, eta=0.1)
        state = LcaState(v=np.zeros((3, 4)), a=np.zeros((3, 4)), inhibition=np.zeros((3, 4)),
                         lam=cfg.lam, eta=cfg.eta)
        drive = rng.standard_normal((3, 4))
        for _ in range(20):
            lca_step(state, drive, k, cfg)
            np.testing.assert_array_equal(state.a, threshold(state.v, cfg.lam))
            np.testing.assert_array_equal(state.inhibition, apply_kernel(k, state.a))


class TestEncode:
    def test_zero_signal(self, rng):
        d = random_toy_dictionary(rng)
        code, state = encode(np.zeros(64), d, LcaConfig(lam=0.1))
        assert code.n_events == 0
        assert all(e == 0.0 for e in state.energy_trace)

    def test_single_atom_recovery(self, rng):
        d = random_toy_dictionary(rng, n_channels=3, filter_len=32, stride=16,
                                  sample_rate=16000)
        lam = 0.05
        s = np.zeros(120)
        t = 2
        s[t * d.stride : t * d.stride + d.filter_len] = 3 * lam * d.atoms[1]
        code, _ = encode(s, d, LcaConfig(lam=lam, max_iters=2000, rel_tol=1e-12))
        dense = code.to_dense()
        assert dense[1, t] > lam
        assert dense[1, t] <= 3 * lam + 1e-9

    def test_divergence_is_an_error(self, rng):
        # Nine identical channels make the inhibition operator strongly
        # expansive; a full-size Euler step must blow up, not silently clamp.
        d = make_dictionary([1000.0] * 9, [1.0] * 9, [0.0] * 9, [4.0] * 9, 32, 16, 8000)
        s = rng.standard_normal(96)
        with pytest.raises(SolverError, match="iteration"):
            encode(s, d, LcaConfig(lam=0.0, eta=1.0, max_iters=500, rel_tol=0.0))

    def test_determinism(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        s = rng.standard_normal(128) * 0.3
        cfg = LcaConfig(lam=0.05)
        code1, state1 = encode(s, d, cfg)
        code2, state2 = encode(s, d, cfg)
        np.testing.assert_array_equal(code1.values, code2.values)
        np.testing.assert_array_equal(code1.channels, code2.channels)
        assert state1.energy_trace == state2.energy_trace

    def test_final_state_threshold_consistency(self, rng):
        d = random_toy_dictionary(rng)
        s = rng.standard_normal(64) * 0.3
        cfg = LcaConfig(lam=0.08)
        _, state = encode(s, d, cfg)
        np.testing.assert_array_equal(state.a, threshold(state.v, cfg.lam))

    def test_residual_bounded_at_energy_stop(self, rng):
        """Near a fixed point one Euler step lowers the energy by about
        eta * ||ode residual||^2, so an energy plateau at rel_tol bounds the
        residual over active coordinates by sqrt(rel_tol * E / eta)."""
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        k = gram_kernel(d)
        s = rng.standard_normal(160) * 0.4
        cfg = LcaConfig(lam=0.1, eta=0.1, max_iters=5000, rel_tol=1e-8)
        _, state = encode(s, d, cfg, kernel=k)
        active = state.a != 0.0
        assert np.any(active)
        assert state.iter < cfg.max_iters
        drive = project(d, s)
        resid = drive - state.v - apply_kernel(k, state.a)
        e_final = state.energy_trace[-1]
        bound = 10.0 * np.sqrt(cfg.rel_tol * e_final / cfg.eta)
        assert np.max(np.abs(resid[active])) <= bound

    def test_residual_vanishes_at_true_fixed_point(self, rng):
        """Run far past the energy plateau: the iteration's genuine fixed point
        satisfies the stationarity condition on the active set to machine
        precision."""
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        k = gram_kernel(d)
        s = rng.standard_normal(160) * 0.4
        cfg = LcaConfig(lam=0.1, eta=0.1, max_iters=5000, rel_tol=0.0)
        _, state = encode(s, d, cfg, kernel=k)
        active = state.a != 0.0
        assert np.any(active)
        drive = project(d, s)
        resid = drive - state.v - apply_kernel(k, state.a)
        assert np.max(np.abs(resid[active])) <= 1e-9 * np.max(np.abs(drive))

    def test_energy_trace_descends(self, rng):
        for _ in range(10):
            d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
            s = rng.standard_normal(128) * rng.uniform(0.1, 1.0)
            _, state = encode(s, d, LcaConfig(lam=0.08, eta=0.1))
            trace = state.energy_trace
            slack = 1e-6 * trace[0]
            assert all(b <= a + slack for a, b in zip(trace, trace[1:]))

    def test_trace_matches_reference_energy(self, rng):
        """encode reads the energy off the drive and the inhibition instead of
        reconstructing; every recorded iteration must match trace_energy, also
        at criterion 4's 40 dB recovery, where the energy is a small
        difference of large terms."""
        cases = []
        for _ in range(5):
            d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
            s = rng.standard_normal(128) * rng.uniform(0.1, 1.0)
            cases.append((s, d, LcaConfig(lam=0.08, eta=0.1, max_iters=300)))
        d, s, lam, _ = sparse_recovery_instance()
        cases.append((s, d, LcaConfig(lam=lam, max_iters=3000, rel_tol=1e-12)))
        for s, d, cfg in cases:
            _, state = encode(s, d, cfg, trace_window=cfg.max_iters)
            assert len(state.a_history) == len(state.energy_trace) == state.iter + 1
            for a_k, e_k in zip(state.a_history, state.energy_trace):
                assert e_k == pytest.approx(trace_energy(s, a_k, d, cfg.lam), rel=1e-9)

    def test_stop_not_armed_while_charging(self, rng):
        """Potentials ramp toward the drive for several iterations before any
        unit crosses threshold; the energy is flat there and must not be
        mistaken for convergence."""
        d = random_toy_dictionary(rng)
        s = np.zeros(64)
        s[: d.filter_len] = 0.5 * d.atoms[0]
        code, state = encode(s, d, LcaConfig(lam=0.4, eta=0.05, rel_tol=1e-4))
        assert code.n_events > 0

    @pytest.mark.slow
    def test_full_scale_smoke(self):
        """Full-size configuration (700 channels, 48 kHz, filter 1024, stride
        512) encodes end to end. Absolute active counts at any given threshold
        depend on signal scaling conventions, so only the regime is checked:
        non-empty codes, and a 100x larger threshold must give a strictly
        sparser one."""
        from chirpcode import init_gammatone_dictionary
        from oracles import formant_sweep

        d = init_gammatone_dictionary(700, 20.0, 21600.0, 1024, 512, 48000)
        s = formant_sweep(np.random.default_rng(7), sample_rate=48000, duration=0.35)
        code_low, state = encode(s, d, LcaConfig(lam=0.5, max_iters=60, rel_tol=1e-6))
        code_high, _ = encode(s, d, LcaConfig(lam=1.5, max_iters=60, rel_tol=1e-6))
        total = code_low.n_channels * code_low.n_frames
        assert 0 < code_high.n_events < code_low.n_events < total
        trace = state.energy_trace
        slack = 1e-6 * trace[0]
        assert all(b <= a + slack for a, b in zip(trace, trace[1:]))


def _assert_same_solve(got, want):
    """Two (SparseCode, LcaState) results are the same bit for bit."""
    (code, state), (code_ref, state_ref) = got, want
    for name in ("channels", "frames", "values"):
        assert np.array_equal(getattr(code, name), getattr(code_ref, name))
    assert state.iter == state_ref.iter
    assert state.energy_trace == state_ref.energy_trace
    for name in ("v", "a", "inhibition"):
        assert np.array_equal(getattr(state, name), getattr(state_ref, name))
    if state_ref.a_history is None:
        assert state.a_history is None
    else:
        assert len(state.a_history) == len(state_ref.a_history)
        assert all(np.array_equal(x, y) for x, y in zip(state.a_history, state_ref.a_history))


class TestEncodeMany:
    def test_matches_per_utterance_encode(self, rng):
        """Items that stop at different iterations leave the stack one by
        one; every code, iteration count, trace and history is the one a
        solve of that utterance alone gives."""
        d = random_toy_dictionary(rng, n_channels=6, filter_len=32, stride=16)
        k = gram_kernel(d)
        signals = [rng.standard_normal(160) * rng.uniform(0.1, 1.0) for _ in range(5)]
        cfg = LcaConfig(lam=0.08, eta=0.1, max_iters=3000, rel_tol=1e-5)
        results = encode_many(signals, d, cfg, kernel=k, trace_window=7)
        for s, result in zip(signals, results):
            _assert_same_solve(result, encode(s, d, cfg, kernel=k, trace_window=7))
        iters = [state.iter for _, state in results]
        assert len(set(iters)) > 1 and max(iters) < cfg.max_iters

    def test_states_of_a_stack_own_their_arrays(self, rng):
        """Items that stop early hold copies of their arrays and history,
        not views that keep the stack alive; the last one left is a stack of
        one, whose views span no more than its own item. The newest history
        entry is still ``a`` itself."""
        d = random_toy_dictionary(rng, n_channels=6, filter_len=32, stride=16)
        signals = [rng.standard_normal(160) * rng.uniform(0.1, 1.0) for _ in range(5)]
        cfg = LcaConfig(lam=0.08, eta=0.1, max_iters=3000, rel_tol=1e-5)
        results = encode_many(signals, d, cfg, trace_window=3)
        assert len({state.iter for _, state in results}) > 1
        for _, state in results:
            for x in (state.v, state.a, state.inhibition, *state.a_history):
                assert x.shape == (6, 9)
                assert x.base is None or x.base.nbytes == x.nbytes
            assert state.a_history[-1] is state.a

    def test_matches_per_utterance_encode_at_the_budget(self, rng):
        d = random_toy_dictionary(rng, n_channels=6, filter_len=32, stride=16)
        signals = [rng.standard_normal(150) * 0.5 for _ in range(3)]
        cfg = LcaConfig(lam=0.05, eta=0.1, max_iters=40, rel_tol=0.0)
        for s, result in zip(signals, encode_many(signals, d, cfg)):
            _assert_same_solve(result, encode(s, d, cfg))
            assert result[1].iter == cfg.max_iters

    def test_all_zero_item_gives_an_empty_code(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        signals = [rng.standard_normal(128) * 0.4, np.zeros(128), rng.standard_normal(128) * 0.4]
        cfg = LcaConfig(lam=0.05)
        results = encode_many(signals, d, cfg)
        code, state = results[1]
        assert code.n_events == 0
        assert all(e == 0.0 for e in state.energy_trace)
        for i in (0, 2):
            _assert_same_solve(results[i], encode(signals[i], d, cfg))

    def test_diverging_items_fail_alone(self, rng):
        """With a step far too large, each diverging item fails with its own
        SolverError, naming the iteration a lone solve fails at, and a silent
        item of the same stack still succeeds."""
        d = make_dictionary([1000.0] * 9, [1.0] * 9, [0.0] * 9, [4.0] * 9, 32, 16, 8000)
        signals = [rng.standard_normal(96) * scale for scale in (1.0, 1e-3, 1e3)]
        signals.insert(1, np.zeros(96))
        cfg = LcaConfig(lam=0.0, eta=1.0, max_iters=500, rel_tol=0.0)
        results = encode_many(signals, d, cfg)
        messages = []
        for i in (0, 2, 3):
            assert isinstance(results[i], SolverError)
            with pytest.raises(SolverError) as alone:
                encode(signals[i], d, cfg)
            assert str(results[i]) == str(alone.value)
            messages.append(str(results[i]))
        assert len(set(messages)) == 3
        code, state = results[1]
        assert code.n_events == 0 and state.iter == cfg.max_iters

    def test_bad_signals_fail_alone(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        good = rng.standard_normal(128) * 0.4
        bad = good.copy()
        bad[5] = np.nan
        cfg = LcaConfig(lam=0.05)
        results = encode_many([np.ones(8), good, bad], d, cfg)
        assert isinstance(results[0], SignalError)
        assert isinstance(results[2], SignalError)
        _assert_same_solve(results[1], encode(good, d, cfg))

    def test_mixed_frame_counts_rejected(self, rng):
        d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=16)
        with pytest.raises(SignalError, match="one frame count"):
            encode_many([np.ones(64), np.ones(128)], d, LcaConfig(lam=0.05))


class TestEnergy:
    def test_empty_code(self, rng):
        d = random_toy_dictionary(rng)
        s = rng.standard_normal(64)
        code = SparseCode.from_dense(np.zeros((3, 4)), lam=0.1)
        assert energy(s, code, d, 0.1) == pytest.approx(0.5 * float(s @ s), rel=1e-12)

    def test_exact_reconstruction(self, rng):
        d = random_toy_dictionary(rng)
        dense = np.zeros((3, 4))
        dense[0, 1] = 0.7
        dense[2, 3] = -0.4
        code = SparseCode.from_dense(dense, lam=0.0)
        s = reconstruct(d, code)
        lam, alpha = 0.05, 2.0
        assert energy(s, code, d, lam, alpha) == pytest.approx(
            alpha * lam * 1.1, rel=1e-9
        )

    def test_two_atom_grid_search(self, rng):
        """The energy surface over a 2-D coefficient grid matches a brute-force
        oracle pointwise, and both locate the same grid minimizer."""
        d = random_toy_dictionary(rng, n_channels=2, filter_len=16, stride=16)
        s = 0.9 * d.atoms[0] + 0.5 * d.atoms[1] + 0.01 * rng.standard_normal(16)
        lam, alpha = 0.1, 1.0
        grid = np.linspace(-2.0, 2.0, 41)
        values, best = grid_search_energy_2atom(d.atoms, s, lam, alpha, grid)
        ours = np.zeros_like(values)
        for i, a0 in enumerate(grid):
            for j, a1 in enumerate(grid):
                dense = np.array([[a0], [a1]])
                code = SparseCode.from_dense(dense, lam=0.0)
                ours[i, j] = energy(s, code, d, lam, alpha)
        np.testing.assert_allclose(ours, values, atol=1e-12)
        ours_best = np.unravel_index(np.argmin(ours), ours.shape)
        assert (grid[ours_best[0]], grid[ours_best[1]]) == best

    def test_trace_energy_charges_per_active_unit(self, rng):
        d = random_toy_dictionary(rng)
        a = np.zeros((3, 4))
        a[0, 0] = 0.5
        a[1, 2] = -0.3
        s = rng.standard_normal(64)
        lam = 0.1
        resid = s - reconstruct(d, a, length=64)
        expected = 0.5 * float(resid @ resid) + 0.5 * lam * lam * 2
        assert trace_energy(s, a, d, lam) == pytest.approx(expected, rel=1e-12)


class TestSparseCodeIO:
    def test_json_round_trip(self, rng, tmp_path):
        d = random_toy_dictionary(rng)
        s = rng.standard_normal(96) * 0.4
        code, _ = encode(s, d, LcaConfig(lam=0.05))
        assert code.n_events > 0
        path = tmp_path / "code.json"
        save_code(code, path)
        loaded = load_code(path)
        np.testing.assert_array_equal(loaded.channels, code.channels)
        np.testing.assert_array_equal(loaded.frames, code.frames)
        np.testing.assert_array_equal(loaded.values, code.values)
        assert loaded.lam == code.lam
        assert (loaded.n_channels, loaded.n_frames) == (code.n_channels, code.n_frames)

    def test_csv_export(self, rng, tmp_path):
        dense = np.zeros((2, 3))
        dense[0, 1] = 0.25
        dense[1, 0] = -0.125
        code = SparseCode.from_dense(dense, lam=0.1)
        path = tmp_path / "events.csv"
        export_events_csv(code, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "channel,frame,value"
        assert lines[1] == "0,1,0.25"
        assert lines[2] == "1,0,-0.125"

    def test_duplicate_events_rejected(self):
        with pytest.raises(CodeError):
            SparseCode(
                n_channels=2, n_frames=2, lam=0.0,
                channels=np.array([0, 0]), frames=np.array([1, 1]),
                values=np.array([1.0, 2.0]),
            )

    def test_subthreshold_values_rejected(self):
        with pytest.raises(CodeError):
            SparseCode(
                n_channels=2, n_frames=2, lam=0.5,
                channels=np.array([0]), frames=np.array([1]),
                values=np.array([0.25]),
            )

    def test_zero_values_rejected(self):
        with pytest.raises(CodeError):
            SparseCode(
                n_channels=2, n_frames=2, lam=0.0,
                channels=np.array([0]), frames=np.array([1]),
                values=np.array([0.0]),
            )
