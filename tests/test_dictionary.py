"""Dictionary module: ERB map, atom synthesis, strided operators, Gram kernel."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chirpcode import (
    CodeError,
    ConfigError,
    ParameterError,
    SignalError,
    SparseCode,
    SynthesisError,
    apply_kernel,
    erb,
    gram_kernel,
    init_gammatone_dictionary,
    load_dictionary,
    make_dictionary,
    project,
    reconstruct,
    save_dictionary,
)
from chirpcode.dictionary import gammachirp_parts, n_frames, overlap_add, signal_windows

from conftest import random_toy_dictionary
from oracles import (
    dense_gram,
    dense_matrix,
    dense_project,
    dense_reconstruct,
    independent_atom,
    loop_overlap_add,
)


class TestErb:
    def test_at_zero(self):
        assert erb(0) == pytest.approx(24.7, abs=1e-12)

    def test_at_1000(self):
        # 24.7 * (4.37 + 1)
        assert erb(1000) == pytest.approx(132.639, abs=1e-9)

    def test_affine(self):
        assert erb(2000) - erb(1000) == pytest.approx(erb(1000) - erb(0), abs=1e-9)

    @given(st.floats(min_value=0.0, max_value=24000.0),
           st.floats(min_value=0.0, max_value=24000.0))
    def test_midpoint_affinity(self, x, y):
        assert erb((x + y) / 2) == pytest.approx((erb(x) + erb(y)) / 2, rel=1e-12, abs=1e-9)

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            erb(-1.0)

    def test_array_input(self):
        out = erb(np.array([0.0, 1000.0]))
        np.testing.assert_allclose(out, [24.7, 132.639], atol=1e-9)


def one_atom(f, b, c, l, filter_len, sample_rate):
    """The unit-norm atom of a one-channel dictionary."""
    return make_dictionary([f], [b], [c], [l], filter_len, filter_len, sample_rate).atoms[0]


class TestSynthesizeAtom:
    def test_unit_norm(self, rng):
        for _ in range(20):
            atom = one_atom(rng.uniform(100, 6000), rng.uniform(0.5, 3), rng.uniform(-3, 3),
                            rng.uniform(1.5, 6), 256, 16000)
            assert np.linalg.norm(atom) == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_formula(self, rng):
        for _ in range(5):
            f, b, c, l = rng.uniform(200, 5000), rng.uniform(0.5, 2), rng.uniform(-2, 2), 4.0
            np.testing.assert_allclose(one_atom(f, b, c, l, 128, 16000),
                                       independent_atom(f, b, c, l, 128, 16000), atol=1e-12)

    def test_zero_chirp_is_gammatone(self):
        """With c = 0 the log-time term vanishes, leaving a cosine carrier."""
        atom = one_atom(1000.0, 1.019, 0.0, 4.0, 512, 48000)
        t = (np.arange(512) + 1.0) / 48000.0
        expected = t ** 3 * np.exp(-2 * np.pi * 1.019 * erb(1000.0) * t) * np.cos(
            2 * np.pi * 1000.0 * t
        )
        expected /= np.linalg.norm(expected)
        np.testing.assert_allclose(atom, expected, atol=1e-12)

    def test_envelope_peak_location(self):
        """The Gamma envelope t^(l-1) e^(-beta t) peaks at t = (l-1)/beta."""
        beta = 2 * np.pi * 1.019 * erb(1000.0)
        t_star = 3.0 / beta
        _, env, _, _ = gammachirp_parts(1000.0, 1.019, 0.0, 4.0, 1024, 48000.0)
        k_star = t_star * 48000.0 - 1.0
        assert abs(int(np.argmax(env[0])) - k_star) <= 1.0

    def test_degenerate_atom_rejected(self):
        with pytest.raises(SynthesisError):
            one_atom(1000.0, 1e6, 0.0, 4.0, 256, 16000)

    def test_nyquist_rejected(self):
        for f in (8000.0, 9000.0):
            with pytest.raises(ParameterError, match="channel 0: .*Nyquist"):
                one_atom(f, 1.0, 0.0, 4.0, 256, 16000)

    def test_invalid_params_rejected(self):
        for (f, b, c, l), reason in (
            ((-10.0, 1.0, 0.0, 4.0), "centre frequency must be positive"),
            ((100.0, 0.0, 0.0, 4.0), "bandwidth scale must be positive"),
            ((100.0, 1.0, 0.0, 0.5), "envelope order must be >= 1"),
            ((float("nan"), 1.0, 0.0, 4.0), "parameters must be finite"),
            ((100.0, 1.0, float("inf"), 4.0), "parameters must be finite"),
        ):
            with pytest.raises(ParameterError, match=f"channel 0: {reason}"):
                one_atom(f, b, c, l, 64, 16000)


class TestMakeDictionary:
    def test_first_bad_channel_is_named(self):
        f, b, c, l = [500.0] * 4, [1.0] * 4, [0.0] * 4, [4.0] * 4
        l[3] = 0.5
        f[1] = -10.0
        with pytest.raises(ParameterError, match="channel 1: centre frequency"):
            make_dictionary(f, b, c, l, 64, 32, 16000)

    def test_mismatched_arrays_rejected(self):
        with pytest.raises(ConfigError):
            make_dictionary([500.0, 900.0], [1.0], [0.0, 0.0], [4.0, 4.0], 64, 32, 16000)
        with pytest.raises(ConfigError):
            make_dictionary([], [], [], [], 64, 32, 16000)

    def test_copies_its_inputs_read_only(self):
        f = np.array([500.0, 900.0])
        b, c, l = np.ones(2), np.zeros(2), np.full(2, 4.0)
        d = make_dictionary(f, b, c, l, 64, 32, 16000)
        atoms = d.atoms.copy()
        f[0], b[0], c[0], l[0] = 700.0, 2.0, 1.0, 3.0
        np.testing.assert_array_equal(d.f, [500.0, 900.0])
        np.testing.assert_array_equal(d.b, [1.0, 1.0])
        np.testing.assert_array_equal(d.c, [0.0, 0.0])
        np.testing.assert_array_equal(d.l, [4.0, 4.0])
        np.testing.assert_array_equal(d.atoms, atoms)
        for arr in (d.f, d.b, d.c, d.l, d.atoms):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_dictionaries_and_kernels_compare_by_identity(self):
        d1, d2 = (init_gammatone_dictionary(3, 100.0, 400.0, 64, 32, 16000) for _ in range(2))
        k1, k2 = gram_kernel(d1), gram_kernel(d1)
        assert d1 == d1 and d1 != d2
        assert k1 == k1 and k1 != k2
        assert len({d1, d2, k1, k2}) == 4


class TestInitGammatone:
    def test_two_channels_hit_endpoints(self):
        d = init_gammatone_dictionary(2, 100.0, 400.0, 64, 32, 16000)
        assert [p.f for p in d.channels] == pytest.approx([100.0, 400.0], rel=1e-12)

    def test_three_channels_geometric_middle(self):
        d = init_gammatone_dictionary(3, 100.0, 400.0, 64, 32, 16000)
        assert d.channels[1].f == pytest.approx(200.0, rel=1e-12)

    def test_gammatone_parameters(self):
        d = init_gammatone_dictionary(5, 100.0, 3000.0, 64, 32, 16000)
        for p in d.channels:
            assert p.c == 0.0
            assert p.l == 4.0
            assert p.b == pytest.approx(1.019)

    def test_full_scale_configuration(self):
        d = init_gammatone_dictionary(700, 20.0, 21600.0, 1024, 512, 48000)
        assert d.n_channels == 700
        assert d.atoms.shape == (700, 1024)
        norms = np.linalg.norm(d.atoms, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_invalid_configurations(self):
        with pytest.raises(ConfigError):
            init_gammatone_dictionary(1, 100.0, 400.0, 64, 32, 16000)
        with pytest.raises(ConfigError):
            init_gammatone_dictionary(4, 400.0, 100.0, 64, 32, 16000)
        with pytest.raises(ConfigError):
            init_gammatone_dictionary(4, 100.0, 9000.0, 64, 32, 16000)
        with pytest.raises(ConfigError):
            make_dictionary([500.0], [1.0], [0.0], [4.0], 64, 65, 16000)


class TestGramKernel:
    def test_self_inhibition_removed(self, rng):
        d = random_toy_dictionary(rng, n_channels=4)
        k = gram_kernel(d)
        assert np.all(np.diag(k.at_lag(0)) == 0.0)

    def test_symmetry(self, rng):
        d = random_toy_dictionary(rng, n_channels=8, filter_len=32, stride=8)
        k = gram_kernel(d)
        for lag in range(-k.max_lag, k.max_lag + 1):
            np.testing.assert_array_equal(k.at_lag(lag), k.at_lag(-lag).T)

    def test_lag_major_layout(self, rng):
        """Every lag is one contiguous read-only matrix, and `entries` is a
        view of the same memory indexed [i, j, max_lag + d]."""
        d = random_toy_dictionary(rng, n_channels=5, filter_len=32, stride=8)
        k = gram_kernel(d)
        assert k.lags.shape == (2 * k.max_lag + 1, 5, 5)
        assert k.entries.shape == (5, 5, 2 * k.max_lag + 1)
        assert np.shares_memory(k.entries, k.lags)
        assert not k.lags.flags.writeable and not k.entries.flags.writeable
        for lag in range(-k.max_lag, k.max_lag + 1):
            assert k.at_lag(lag).flags.c_contiguous
            np.testing.assert_array_equal(k.entries[:, :, k.max_lag + lag], k.at_lag(lag))

    def test_cauchy_schwarz_bound(self, rng):
        d = random_toy_dictionary(rng, n_channels=6, filter_len=32, stride=8)
        k = gram_kernel(d)
        assert np.max(np.abs(k.entries)) <= 1.0 + 1e-9

    def test_matches_dense_gram(self, rng):
        """Kernel entries agree with the explicit shifted-column Gram matrix."""
        d = random_toy_dictionary(rng, n_channels=3, filter_len=16, stride=8)
        k = gram_kernel(d)
        t_frames = 4
        phi = dense_matrix(d.atoms, d.stride, t_frames, (t_frames - 1) * d.stride + 16)
        w = dense_gram(phi)
        for i in range(3):
            for j in range(3):
                for ti in range(t_frames):
                    for tj in range(t_frames):
                        lag = tj - ti
                        expected = (
                            k.at_lag(lag)[i, j] if abs(lag) <= k.max_lag else 0.0
                        )
                        got = w[i * t_frames + ti, j * t_frames + tj]
                        assert got == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize(
        "filter_len, stride, t_frames",
        [
            (16, 8, 5),  # max_lag 1
            (24, 8, 5),  # max_lag 2
            (32, 8, 6),  # max_lag 3
            (32, 8, 3),  # t_frames == max_lag
            (32, 8, 2),  # t_frames < max_lag
            (32, 8, 1),
        ],
    )
    def test_apply_kernel_matches_dense(self, rng, filter_len, stride, t_frames):
        d = random_toy_dictionary(rng, n_channels=3, filter_len=filter_len, stride=stride)
        k = gram_kernel(d)
        a = rng.standard_normal((3, t_frames))
        sig_len = (t_frames - 1) * stride + filter_len
        phi = dense_matrix(d.atoms, d.stride, t_frames, sig_len)
        expected = (dense_gram(phi) @ a.ravel()).reshape(3, t_frames)
        np.testing.assert_allclose(apply_kernel(k, a), expected, atol=1e-10)

    @pytest.mark.parametrize("filter_len", [16, 24, 32])  # max_lag 1, 2, 3 at stride 8
    @pytest.mark.parametrize("t_frames", [1, 2, 3, 5])
    def test_apply_kernel_on_a_stack_is_per_item_bit_for_bit(self, rng, filter_len, t_frames):
        d = random_toy_dictionary(rng, n_channels=12, filter_len=filter_len, stride=8)
        k = gram_kernel(d)
        a = rng.standard_normal((4, 12, t_frames))
        a[np.abs(a) < 0.5] = 0.0
        stacked = apply_kernel(k, a)
        assert stacked.shape == a.shape
        for item, out in zip(a, stacked):
            assert np.array_equal(out, apply_kernel(k, item))


class TestOverlapAdd:
    @pytest.mark.parametrize(
        "filter_len, stride, t_frames, pad",
        [
            (16, 8, 5, 0),  # stride divides filter_len
            (20, 6, 7, 0),  # stride does not divide filter_len
            (20, 6, 7, 13),  # padded length
            (16, 16, 4, 5),  # stride == filter_len
            (9, 1, 6, 2),  # stride 1
            (20, 6, 1, 3),  # one frame
        ],
    )
    def test_matches_frame_loop_exactly(self, rng, filter_len, stride, t_frames, pad):
        contrib = rng.standard_normal((filter_len, t_frames))
        length = (t_frames - 1) * stride + filter_len + pad
        out = overlap_add(contrib, stride, length)
        assert out.shape == (length,)
        np.testing.assert_array_equal(out, loop_overlap_add(contrib, stride, length))


class TestProjectReconstruct:
    def test_project_zeros(self, rng):
        d = random_toy_dictionary(rng)
        p = project(d, np.zeros(64))
        assert p.shape == (3, n_frames(64, d.filter_len, d.stride))
        assert np.all(p == 0.0)

    def test_project_planted_atom(self, rng):
        d = random_toy_dictionary(rng)
        s = np.zeros(80)
        t = 3
        s[t * d.stride : t * d.stride + d.filter_len] = d.atoms[1]
        p = project(d, s)
        assert p[1, t] == pytest.approx(1.0, abs=1e-12)

    def test_reconstruct_empty_code(self, rng):
        d = random_toy_dictionary(rng)
        code = SparseCode.from_dense(np.zeros((3, 4)), lam=0.1)
        out = reconstruct(d, code)
        assert out.shape == ((4 - 1) * d.stride + d.filter_len,)
        assert np.all(out == 0.0)

    def test_reconstruct_single_event(self, rng):
        d = random_toy_dictionary(rng)
        dense = np.zeros((3, 4))
        dense[2, 1] = 1.0
        out = reconstruct(d, SparseCode.from_dense(dense, lam=0.0))
        expected = np.zeros_like(out)
        expected[d.stride : d.stride + d.filter_len] = d.atoms[2]
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            d = random_toy_dictionary(
                rng,
                n_channels=int(rng.integers(2, 5)),
                filter_len=int(rng.choice([8, 16, 32])),
                stride=int(rng.choice([4, 8])),
            )
            sig_len = int(rng.integers(d.filter_len, 4 * d.filter_len))
            t_frames = n_frames(sig_len, d.filter_len, d.stride)
            s = rng.standard_normal(sig_len)
            a = rng.standard_normal((d.n_channels, t_frames))
            phi = dense_matrix(d.atoms, d.stride, t_frames, sig_len)
            np.testing.assert_allclose(
                project(d, s), dense_project(phi, s, d.n_channels, t_frames), atol=1e-10
            )
            np.testing.assert_allclose(
                reconstruct(d, a, length=sig_len), dense_reconstruct(phi, a), atol=1e-10
            )

    def test_adjointness(self, rng):
        """<project(s), a> == <s, reconstruct(a)> — the operators are transposes."""
        for _ in range(10):
            d = random_toy_dictionary(rng, n_channels=4, filter_len=32, stride=8)
            sig_len = 100
            t_frames = n_frames(sig_len, d.filter_len, d.stride)
            s = rng.standard_normal(sig_len)
            a = rng.standard_normal((4, t_frames))
            lhs = float(np.sum(project(d, s) * a))
            rhs = float(s @ reconstruct(d, a, length=sig_len))
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_short_signal_rejected(self, rng):
        d = random_toy_dictionary(rng)
        with pytest.raises(SignalError):
            project(d, np.zeros(d.filter_len - 1))

    def test_out_of_range_events_rejected(self):
        with pytest.raises(CodeError):
            SparseCode(
                n_channels=2, n_frames=3, lam=0.0,
                channels=np.array([2]), frames=np.array([0]), values=np.array([1.0]),
            )
        with pytest.raises(CodeError):
            SparseCode(
                n_channels=2, n_frames=3, lam=0.0,
                channels=np.array([0]), frames=np.array([3]), values=np.array([1.0]),
            )

    def test_window_view_is_strided(self, rng):
        s = rng.standard_normal(64)
        w = signal_windows(s, 16, 8)
        assert w.shape == (7, 16)
        np.testing.assert_array_equal(w[2], s[16:32])


GOLDEN_DICTIONARY_JSON = """\
{
 "sample_rate": 16000,
 "filter_len": 64,
 "stride": 32,
 "channels": [
  {
   "f": 100.0,
   "b": 1.019,
   "c": 0.0,
   "l": 4.0
  },
  {
   "f": 200.00000000000003,
   "b": 1.019,
   "c": 0.0,
   "l": 4.0
  },
  {
   "f": 400.0,
   "b": 1.019,
   "c": 0.0,
   "l": 4.0
  }
 ]
}
"""


class TestDictionaryFile:
    def test_round_trip_preserves_parameters_and_atoms(self, rng, tmp_path):
        """The JSON file stores parameters only; reloading re-synthesizes the
        exact same atoms because float parameters survive the round trip."""
        d = random_toy_dictionary(rng, n_channels=5, filter_len=32, stride=8)
        path = tmp_path / "dict.json"
        save_dictionary(d, path)
        loaded = load_dictionary(path)
        assert loaded.filter_len == d.filter_len
        assert loaded.stride == d.stride
        assert loaded.sample_rate == d.sample_rate
        for name in ("f", "b", "c", "l"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(d, name))
        np.testing.assert_array_equal(loaded.atoms, d.atoms)

    def test_malformed_file_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"sample_rate": 8000}')
        with pytest.raises(ConfigError):
            load_dictionary(bad)
        notjson = tmp_path / "notjson.json"
        notjson.write_text("not json at all")
        with pytest.raises(ConfigError):
            load_dictionary(notjson)


    def test_golden_bytes(self, tmp_path):
        path = tmp_path / "dict.json"
        save_dictionary(init_gammatone_dictionary(3, 100.0, 400.0, 64, 32, 16000), path)
        assert path.read_text() == GOLDEN_DICTIONARY_JSON

    def test_bad_channel_rejected_and_named(self, tmp_path):
        payload = json.loads(GOLDEN_DICTIONARY_JSON)
        payload["channels"][1]["b"] = -1.0
        path = tmp_path / "dict.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ParameterError, match="channel 1: bandwidth"):
            load_dictionary(path)


class TestAtomNormInvariant:
    @settings(max_examples=25, deadline=None)
    @given(
        f=st.floats(min_value=100.0, max_value=6000.0),
        b=st.floats(min_value=0.4, max_value=3.0),
        c=st.floats(min_value=-3.0, max_value=3.0),
        l=st.floats(min_value=1.5, max_value=6.0),
    )
    def test_norm_after_any_parameters(self, f, b, c, l):
        atom = one_atom(f, b, c, l, 128, 16000)
        assert np.linalg.norm(atom) == pytest.approx(1.0, abs=1e-12)
