"""LCA solver: threshold, dynamics, encode contracts, energies, code round trips."""

import json
import re

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
from chirpcode._parallel import blas_on_one_thread
from chirpcode.lca import LcaState, _Solve, _trace_energies

from conftest import random_toy_dictionary, sparse_activations, sparse_recovery_instance
from oracles import grid_search_energy_2atom, vdot_trace_energies


class TestThreshold:
    def test_below(self):
        assert threshold(np.array([0.5]), 1.0)[0] == 0.0

    def test_negative_passthrough(self):
        assert threshold(np.array([-2.0]), 1.0)[0] == -2.0

    def test_boundary_passes(self):
        """|v| < lam is strict, so v == lam lands in the pass-through branch."""
        assert threshold(np.array([1.0]), 1.0)[0] == 1.0

    @pytest.mark.parametrize("lam", [0.0, 5e-324, 0.5, 1.0, np.inf])
    def test_bits_equal_np_where(self, rng, lam):
        """The same float bits as ``np.where(|v| < lam, 0.0, v)``: -0.0 where
        a zero is written reads +0.0, NaN passes, and a new array comes back."""
        v = np.concatenate([rng.standard_normal(200), [0.0, -0.0, np.nan, np.inf, -np.inf,
                                                       1.0, -1.0, 0.5, -0.5, 5e-324, -5e-324]])
        ref = np.where(np.abs(v) < lam, 0.0, v)
        out = threshold(v, lam)
        assert out is not v
        np.testing.assert_array_equal(out, ref)
        np.testing.assert_array_equal(np.signbit(out), np.signbit(ref))

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
    @pytest.mark.parametrize("items", [1, 20])
    def test_trace_energies_are_the_per_item_vdots(self, rng, bank_16k, items):
        """The batched inner products give each item the bits of its own
        np.vdot expression; the silent first item of 20 counts 0."""
        d, k = bank_16k
        a = sparse_activations(rng, (items, d.n_channels, 30))
        drive = rng.standard_normal(a.shape)
        stack = LcaState(v=drive.copy(), a=a, inhibition=apply_kernel(k, a), lam=0.1, eta=0.01)
        solves = [_Solve(index=j, trace=[e0], silent=False)
                  for j, e0 in enumerate(rng.uniform(1.0, 10.0, items).tolist())]
        got = _trace_energies(stack, drive, solves, 0.005)
        expected = vdot_trace_energies(a, stack.inhibition, drive, [s.trace[0] for s in solves],
                                       0.005)
        energies, counts = (np.array(x) for x in zip(*got))
        want_energies, want_counts = (np.array(x) for x in zip(*expected))
        assert np.array_equal(energies, want_energies)
        assert np.array_equal(np.signbit(energies), np.signbit(want_energies))
        assert np.array_equal(counts, want_counts)
        assert counts.max() > 0 and (items == 1 or counts[0] == 0)

    def test_default_kernel_is_the_dictionarys(self, rng):
        """Without ``kernel=``, a solve inhibits through d.kernel: at one BLAS
        thread it is bit for bit the solve on gram_kernel(d)."""
        d = random_toy_dictionary(rng, n_channels=6, filter_len=32, stride=16)
        s = rng.standard_normal(160)
        cfg = LcaConfig(lam=0.08, eta=0.1, max_iters=200)
        with blas_on_one_thread():
            given = encode(s, d, cfg, kernel=gram_kernel(d), trace_window=7)
            default = encode(s, d, cfg, trace_window=7)
        _assert_same_solve(default, given)
        assert "kernel" in vars(d)

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

    def test_code_that_does_not_fit_rejected(self, rng):
        d = random_toy_dictionary(rng)
        with pytest.raises(CodeError):
            energy(np.zeros(64), SparseCode.from_dense(np.zeros((4, 4)), lam=0.1), d, 0.1)
        # four frames span 3 * 8 + 16 = 40 samples
        with pytest.raises(SignalError):
            energy(np.zeros(39), SparseCode.from_dense(np.zeros((3, 4)), lam=0.1), d, 0.1)

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

    def test_golden_bytes(self, tmp_path):
        """A negative value, one that needs 17 significant digits, and an
        empty code, each saved to a literal JSON string."""
        code = SparseCode(n_channels=3, n_frames=4, lam=0.05, channels=np.array([2, 0]),
                          frames=np.array([3, 1]), values=np.array([0.1 + 0.2, -0.5]))
        empty = SparseCode(n_channels=2, n_frames=5, lam=0.1, channels=np.array([], dtype=int),
                           frames=np.array([], dtype=int), values=np.array([]))
        save_code(code, tmp_path / "code.json")
        save_code(empty, tmp_path / "empty.json")
        assert (tmp_path / "code.json").read_bytes() == (
            b'{"n_channels": 3, "n_frames": 4, "lambda": 0.05, '
            b'"events": [[0, 1, -0.5], [2, 3, 0.30000000000000004]]}\n')
        assert (tmp_path / "empty.json").read_bytes() == (
            b'{"n_channels": 2, "n_frames": 5, "lambda": 0.1, "events": []}\n')

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


class TestSparseCodeIndices:
    """The constructor is the one gate for event indices: nothing is truncated."""

    @pytest.mark.parametrize("axis", ["channel", "frame"])
    @pytest.mark.parametrize("bad", [2.7, True, "2", np.array([1.9]), np.array([True])],
                             ids=["fraction", "bool", "str", "float_array", "bool_array"])
    def test_index_that_is_not_an_integer_is_refused(self, axis, bad):
        index = {"channel": [0], "frame": [0], axis: bad if isinstance(bad, np.ndarray) else [bad]}
        with pytest.raises(CodeError, match=f"^{axis} index must be an integer"):
            SparseCode(4, 3, 0.1, index["channel"], index["frame"], [0.5])

    @pytest.mark.parametrize("field", ["n_channels", "n_frames"])
    def test_shape_that_is_not_an_integer_is_refused(self, field):
        shape = {"n_channels": 4, "n_frames": 3, field: 3.5}
        with pytest.raises(CodeError, match=f"^{field} must be an integer, got 3.5"):
            SparseCode(**shape, lam=0.1, channels=[0], frames=[0], values=[0.5])

    def test_whole_floats_and_numpy_integers_are_accepted(self):
        code = SparseCode(4.0, np.int64(3), 0.1, [2.0, np.int32(1)], np.array([1.0, 0.0]),
                          [0.5, -0.5])
        assert (code.n_channels, code.n_frames) == (4, 3)
        assert type(code.n_channels) is int and type(code.n_frames) is int
        assert code.channels.dtype == code.frames.dtype == np.int64
        assert code.channels.tolist() == [1, 2] and code.frames.tolist() == [0, 1]

    def test_index_beyond_int64_is_out_of_range(self):
        with pytest.raises(CodeError, match="^channel index out of range"):
            SparseCode(4, 3, 0.1, [2**70], [0], [0.5])

    def test_integer_arrays_are_not_checked_event_by_event(self, monkeypatch, rng):
        """Only n_channels and n_frames pass through is_integer for a solver's code."""
        from chirpcode import lca

        checked = []
        monkeypatch.setattr(lca, "is_integer", lambda value: checked.append(value) or True)
        a = np.where(rng.random((40, 50)) < 0.5, 1.0, 0.0)
        code = SparseCode.from_dense(a, lam=0.1)
        assert code.n_events > 100 and checked == [40, 50]
        checked.clear()
        code = SparseCode(4, 3, 0.1, np.array([2], np.int32), np.array([1], np.uint8), [0.5])
        assert code.channels.dtype == code.frames.dtype == np.int64 and checked == [4, 3]

    @pytest.mark.parametrize("event", [[2.7, 1, 0.5], [2, True, 0.5], ["2", 1, 0.5]])
    def test_load_code_refuses_and_names_the_file(self, tmp_path, event):
        path = tmp_path / "u.code.json"
        path.write_text(json.dumps(
            {"n_channels": 4, "n_frames": 3, "lambda": 0.1, "events": [event]}))
        with pytest.raises(CodeError, match=f"^cannot read code file {re.escape(str(path))}: "
                                            "(channel|frame) index must be an integer"):
            load_code(path)



class TestSparseCodeNumbers:
    """Values and lam follow the number rule, and lam LcaConfig.lam's bound."""

    @pytest.mark.parametrize("bad", [True, "0.5", b"0.5", None, np.array([True])],
                             ids=["bool", "str", "bytes", "none", "bool_array"])
    def test_value_that_is_not_a_number_is_refused(self, bad):
        values = bad if isinstance(bad, np.ndarray) else [bad]
        with pytest.raises(CodeError, match="^event value must be a number, got "):
            SparseCode(4, 3, 0.1, [0], [0], values)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf"), -1.0, "0.1", True, None])
    def test_lam_that_is_not_a_finite_number_at_least_zero_is_refused(self, lam):
        message = f"lam must be a finite number >= 0, got {lam!r}"
        with pytest.raises(CodeError, match=f"^{re.escape(message)}$"):
            SparseCode(4, 3, lam, [0], [0], [0.5])

    def test_lam_is_kept_as_a_float(self):
        code = SparseCode(4, 3, np.float32(0.25), [0], [0], [0.5])
        assert code.lam == 0.25 and type(code.lam) is float
        assert type(SparseCode(4, 3, 0, [0], [0], [0.5]).lam) is float

    @pytest.mark.parametrize("change, message", [
        ({"lambda": "0.1"}, "lam must be a finite number >= 0, got '0.1'"),
        ({"lambda": True}, "lam must be a finite number >= 0, got True"),
        ({"lambda": float("nan")}, "lam must be a finite number >= 0, got nan"),
        ({"lambda": -0.5}, "lam must be a finite number >= 0, got -0.5"),
        ({"events": [[2, 1, True]]}, "event value must be a number, got True"),
        ({"events": [[2, 1, "0.5"]]}, "event value must be a number, got '0.5'"),
    ])
    def test_load_code_refuses_what_it_once_cast(self, tmp_path, change, message):
        """json reads NaN too, so a file can hold every one of these."""
        path = tmp_path / "u.code.json"
        path.write_text(json.dumps(
            {"n_channels": 4, "n_frames": 3, "lambda": 0.1, "events": [[2, 1, 0.5]], **change}))
        with pytest.raises(CodeError, match=f"^cannot read code file {re.escape(str(path))}: "
                                            f"{re.escape(message)}$"):
            load_code(path)

    def test_solver_arrays_take_no_per_item_check(self, monkeypatch, rng):
        """A solver's code and the dictionaries init_gammatone_dictionary and
        adamax_step give check only their scalars against the rule."""
        from chirpcode import AdamaxState, AdaptConfig, ParamGradients, adamax_step, errors
        from chirpcode import init_gammatone_dictionary

        lca_cfg, adapt_cfg = LcaConfig(lam=0.05), AdaptConfig(mode="alca-cf")
        checked = []
        real = errors.is_number
        monkeypatch.setattr(errors, "is_number", lambda *a: checked.append(a[0]) or real(*a))
        d = init_gammatone_dictionary(16, 150.0, 3200.0, 64, 32, 8000)
        assert checked == [64, 32, 8000]
        checked.clear()
        code, _ = encode(rng.standard_normal(640) * 0.5, d, lca_cfg)
        assert code.n_events > 20 and checked == [16, 19]
        checked.clear()
        grads = ParamGradients(*(rng.standard_normal(16) for _ in range(4)))
        stepped = adamax_step(d, grads, AdamaxState.zeros(16), adapt_cfg, 1)
        checked.clear()  # adamax_step's default bounds are settings, checked as such
        make_dictionary(**stepped, filter_len=64, stride=32, sample_rate=8000)
        assert checked == [64, 32, 8000]

class TestLcaConfigTypes:
    @pytest.mark.parametrize("kwargs, message", [
        ({"lam": "0.1"}, "lam must be a number, got '0.1'"),
        ({"lam": 0.1, "max_iters": 50.5}, "max_iters must be an integer, got 50.5"),
        ({"lam": 0.1, "eta": True}, "eta must be a number, got True"),
        ({"lam": 0.1, "rel_tol": None}, "rel_tol must be a number, got None"),
        ({"lam": 0.1, "max_iters": np.bool_(True)}, "max_iters must be an integer"),
    ])
    def test_wrong_type_is_a_config_error_naming_the_field(self, kwargs, message):
        from chirpcode import ConfigError

        with pytest.raises(ConfigError, match=f"^{message}"):
            LcaConfig(**kwargs)

    def test_numpy_scalars_and_whole_floats_are_accepted(self):
        cfg = LcaConfig(lam=np.float64(0.1), eta=np.float32(0.5), max_iters=np.int64(50),
                        rel_tol=0)
        assert cfg == LcaConfig(lam=0.1, eta=float(np.float32(0.5)), max_iters=50, rel_tol=0.0)
        assert [type(v) for v in (cfg.lam, cfg.eta, cfg.max_iters, cfg.rel_tol)] == [
            float, float, int, float]
        assert LcaConfig(lam=0.1, max_iters=300.0).max_iters == 300
