"""WAV ingestion, manifests, and round trips."""

import numpy as np
import pytest
from scipy.io import wavfile

from chirpcode import AudioIngestError, Utterance, load_corpus, load_wav, parse_manifest, save_wav


def _write_int16(path, rate, data):
    wavfile.write(str(path), rate, np.asarray(data, dtype=np.int16))


class TestLoadWav:
    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "a.wav"
        _write_int16(path, 16000, [-32768, 0, 16384, 32767])
        utt = load_wav(path)
        assert utt.samples[0] == -1.0
        assert utt.samples[1] == 0.0
        assert utt.samples[2] == 0.5
        assert utt.sample_rate == 16000
        assert utt.id == "a"

    def test_one_second_48k(self, tmp_path):
        path = tmp_path / "sec.wav"
        _write_int16(path, 48000, np.zeros(48000))
        utt = load_wav(path)
        assert len(utt.samples) == 48000

    def test_all_zero_file_is_valid(self, tmp_path):
        path = tmp_path / "z.wav"
        _write_int16(path, 8000, np.zeros(100))
        utt = load_wav(path)
        assert np.all(utt.samples == 0.0)

    def test_float32_round_trip_bit_exact(self, tmp_path, rng):
        samples = rng.uniform(-0.9, 0.9, size=500).astype(np.float32)
        path = tmp_path / "f.wav"
        save_wav(path, samples, 16000)
        utt = load_wav(path)
        np.testing.assert_array_equal(utt.samples, samples.astype(float))

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "st.wav"
        wavfile.write(str(path), 16000, np.zeros((100, 2), dtype=np.int16))
        with pytest.raises(AudioIngestError, match="mono"):
            load_wav(path)

    def test_unsupported_encoding_rejected(self, tmp_path):
        path = tmp_path / "i32.wav"
        wavfile.write(str(path), 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(AudioIngestError, match="encoding"):
            load_wav(path)

    def test_malformed_file_names_path(self, tmp_path):
        path = tmp_path / "junk.wav"
        path.write_bytes(b"this is not a RIFF file at all.............")
        with pytest.raises(AudioIngestError, match="junk.wav"):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioIngestError, match="not found"):
            load_wav(tmp_path / "nope.wav")

    def test_overdriven_float_rejected_unless_normalized(self, tmp_path):
        path = tmp_path / "hot.wav"
        save_wav(path, np.array([0.0, 1.5, -0.2], dtype=np.float32), 8000)
        with pytest.raises(AudioIngestError, match="peak"):
            load_wav(path)
        utt = load_wav(path, normalize=True)
        assert np.max(np.abs(utt.samples)) == 1.0

    def test_empty_utterance_rejected(self):
        with pytest.raises(AudioIngestError):
            Utterance(id="x", samples=np.array([]), sample_rate=8000)

    @pytest.mark.parametrize("rate", [16000.7, True, "16000", None, 0, -8000])
    def test_rate_that_is_not_a_positive_whole_number_rejected(self, rate):
        """16000.7 was accepted, and then coded with a 16000 Hz dictionary."""
        with pytest.raises(AudioIngestError, match=f"^utterance 'x': sample rate must be a "
                                                   f"positive whole number of Hz, got {rate!r}$"):
            Utterance(id="x", samples=np.zeros(8), sample_rate=rate)

    def test_whole_float_and_numpy_rates_accepted(self):
        for rate in (16000.0, np.int64(16000)):
            assert Utterance(id="x", samples=np.zeros(8), sample_rate=rate).sample_rate == 16000


class TestManifest:
    def _corpus(self, tmp_path, rates=(16000, 16000, 16000)):
        paths = []
        for i, rate in enumerate(rates):
            p = tmp_path / f"u{i}.wav"
            _write_int16(p, rate, (np.sin(np.arange(200) * 0.1) * 1000).astype(np.int16))
            paths.append(p)
        manifest = tmp_path / "corpus.csv"
        lines = ["path,id,label"]
        for i, p in enumerate(paths):
            lines.append(f"{p.name},utt{i},digit{i}")
        manifest.write_text("\n".join(lines) + "\n")
        return manifest

    def test_load_in_manifest_order(self, tmp_path):
        manifest = self._corpus(tmp_path)
        corpus = load_corpus(parse_manifest(manifest), 16000)
        assert [u.id for u in corpus] == ["utt0", "utt1", "utt2"]
        assert [u.label for u in corpus] == ["digit0", "digit1", "digit2"]

    def test_empty_manifest_warns_not_errors(self, tmp_path):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("path,id,label\n")
        assert load_corpus(parse_manifest(manifest), 16000) == []

    def test_rate_mismatch_names_file(self, tmp_path):
        manifest = self._corpus(tmp_path, rates=(16000, 48000, 16000))
        with pytest.raises(AudioIngestError, match="u1.wav"):
            load_corpus(parse_manifest(manifest), 16000)

    def test_missing_files_listed_collectively(self, tmp_path):
        manifest = self._corpus(tmp_path)
        (tmp_path / "u0.wav").unlink()
        (tmp_path / "u2.wav").unlink()
        with pytest.raises(AudioIngestError) as err:
            load_corpus(parse_manifest(manifest), 16000)
        assert "u0.wav" in str(err.value)
        assert "u2.wav" in str(err.value)

    def test_duplicate_paths_rejected(self, tmp_path):
        p = tmp_path / "solo.wav"
        _write_int16(p, 16000, np.zeros(100))
        manifest = tmp_path / "dup.csv"
        manifest.write_text(f"path,id,label\n{p.name},a,\n{p.name},b,\n")
        with pytest.raises(AudioIngestError, match="duplicate"):
            parse_manifest(manifest)

    def test_missing_header_rejected(self, tmp_path):
        manifest = tmp_path / "nohdr.csv"
        manifest.write_text("u0.wav,a,\n")
        with pytest.raises(AudioIngestError, match="header"):
            parse_manifest(manifest)

    def test_blank_id_defaults_to_stem(self, tmp_path):
        p = tmp_path / "named.wav"
        _write_int16(p, 16000, np.zeros(50))
        manifest = tmp_path / "m.csv"
        manifest.write_text(f"path,id,label\n{p.name},,\n")
        corpus = load_corpus(parse_manifest(manifest), 16000)
        assert corpus[0].id == "named"
        assert corpus[0].label is None
