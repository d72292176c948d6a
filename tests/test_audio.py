"""WAV ingestion, manifests, and round trips.

scipy.io.wavfile is the independent reference for the package's own RIFF
codec: it writes the files most tests read, and ``TestCodecAgainstScipy``
compares the two byte for byte and sample for sample.
"""

import io
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import chirpcode
from chirpcode import AudioIngestError, Utterance, load_corpus, load_wav, parse_manifest, save_wav


def _write_int16(path, rate, data):
    wavfile.write(str(path), rate, np.asarray(data, dtype=np.int16))


def _after_path(path, reason):
    """A ``match`` pattern for the whole message ``{path}: {reason}``."""
    return f"^{re.escape(str(path))}: {re.escape(reason)}$"


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
        with pytest.raises(AudioIngestError, match=_after_path(
                path, "2-channel audio is not supported, expected mono")):
            load_wav(path)

    def test_unsupported_encoding_rejected(self, tmp_path):
        """The reason is matched after the path, which pytest names after the test."""
        path = tmp_path / "i32.wav"
        wavfile.write(str(path), 16000, np.zeros(100, dtype=np.int32))
        with pytest.raises(AudioIngestError, match=_after_path(
                path, "unsupported sample encoding PCM 32-bit; use PCM 16-bit or 32-bit float")):
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
    def test_rate_that_is_not_a_positive_whole_number_rejected(self, rate, tmp_path):
        """16000.7 was accepted, and then coded with a 16000 Hz dictionary;
        save_wav wrote it as a 16000 Hz file, and True as a 1 Hz one."""
        with pytest.raises(AudioIngestError, match=f"^utterance 'x': sample rate must be a "
                                                   f"positive whole number of Hz, got {rate!r}$"):
            Utterance(id="x", samples=np.zeros(8), sample_rate=rate)
        path = tmp_path / "r.wav"
        with pytest.raises(AudioIngestError, match=_after_path(
                path, f"sample rate must be a positive whole number of Hz, got {rate!r}")):
            save_wav(path, np.zeros(8), rate)
        assert not path.exists()

    def test_whole_float_and_numpy_rates_accepted(self):
        for rate in (16000.0, np.int64(16000)):
            assert Utterance(id="x", samples=np.zeros(8), sample_rate=rate).sample_rate == 16000


# RIFF files built field by field, to give the codec headers scipy does not write.
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"
_PCM, _FLOAT = 1, 3
_SAMPLES = np.zeros(100, dtype="<i2").tobytes()


def _chunk(chunk_id, body):
    """One chunk, with its pad byte when ``body`` has an odd length."""
    return struct.pack("<4sI", chunk_id, len(body)) + body + b"\0" * (len(body) % 2)


def _riff(*chunks):
    body = b"WAVE" + b"".join(chunks)
    return struct.pack("<4sI", b"RIFF", len(body)) + body


def _fmt(tag, bits, channels=1, rate=16000, extensible=False):
    block = channels * bits // 8
    body = struct.pack("<HHIIHH", 0xFFFE if extensible else tag, channels, rate,
                       rate * block, block, bits)
    if extensible:
        # cbSize 22, valid bits, channel mask, then the sub-format GUID.
        body += struct.pack("<HHI", 22, bits, 0) + struct.pack("<I", tag) + _GUID_TAIL
    return _chunk(b"fmt ", body)


def _scipy_bytes(data, rate=16000):
    out = io.BytesIO()
    wavfile.write(out, rate, data)
    return out.getvalue()


# Each refused file, with the reason its error gives after the path.
_REFUSED = {
    "RIFX": (lambda: b"RIFX" + _riff(_fmt(_PCM, 16), _chunk(b"data", _SAMPLES))[4:],
             "RIFX files are not supported, expected a little-endian RIFF WAVE file"),
    "RF64": (lambda: b"RF64" + _riff(_fmt(_PCM, 16), _chunk(b"data", _SAMPLES))[4:],
             "RF64 files are not supported, expected a little-endian RIFF WAVE file"),
    "PCM 8-bit": (lambda: _scipy_bytes(np.zeros(100, np.uint8)),
                  "unsupported sample encoding PCM 8-bit; use PCM 16-bit or 32-bit float"),
    "PCM 24-bit": (lambda: _riff(_fmt(_PCM, 24), _chunk(b"data", bytes(300))),
                   "unsupported sample encoding PCM 24-bit; use PCM 16-bit or 32-bit float"),
    "PCM 32-bit": (lambda: _scipy_bytes(np.zeros(100, np.int32)),
                   "unsupported sample encoding PCM 32-bit; use PCM 16-bit or 32-bit float"),
    "float64": (lambda: _scipy_bytes(np.zeros(100, np.float64)),
                "unsupported sample encoding IEEE float 64-bit; use PCM 16-bit or 32-bit float"),
    "extensible PCM 24-bit": (
        lambda: _riff(_fmt(_PCM, 24, extensible=True), _chunk(b"data", bytes(300))),
        "unsupported sample encoding PCM 24-bit; use PCM 16-bit or 32-bit float"),
    "mu-law": (lambda: _riff(_fmt(7, 8), _chunk(b"data", bytes(100))),
               "unsupported sample encoding format tag 0x0007 8-bit; "
               "use PCM 16-bit or 32-bit float"),
    "stereo": (lambda: _scipy_bytes(np.zeros((100, 2), np.int16)),
               "2-channel audio is not supported, expected mono"),
    "extensible stereo": (
        lambda: _riff(_fmt(_FLOAT, 32, channels=2, extensible=True), _chunk(b"data", bytes(800))),
        "2-channel audio is not supported, expected mono"),
    "extensible without its extension": (
        lambda: _riff(_chunk(b"fmt ", _fmt(_PCM, 16, extensible=True)[8:26]),
                      _chunk(b"data", _SAMPLES)),
        "WAVE_FORMAT_EXTENSIBLE 'fmt ' chunk without its 22-byte extension"),
    "unknown sub-format": (
        lambda: _riff(_fmt(_PCM, 16, extensible=True)[:-12] + bytes(12), _chunk(b"data", _SAMPLES)),
        "unsupported sub-format GUID 01000000000000000000000000000000; "
        "use PCM 16-bit or 32-bit float"),
    "short fmt": (lambda: _riff(_chunk(b"fmt ", bytes(14)), _chunk(b"data", _SAMPLES)),
                  "'fmt ' chunk of 14 bytes, expected at least 16"),
    "block align": (
        lambda: _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", _PCM, 1, 16000, 64000, 4, 16)),
                      _chunk(b"data", _SAMPLES)),
        "block align 4 does not fit mono 16-bit samples"),
    "PCM byte rate": (
        lambda: _riff(_chunk(b"fmt ", struct.pack("<HHIIHH", _PCM, 1, 16000, 16000, 2, 16)),
                      _chunk(b"data", _SAMPLES)),
        "byte rate 16000 is not sample rate 16000 times block align 2"),
    "data longer than the file": (
        lambda: _riff(_fmt(_PCM, 16)) + struct.pack("<4sI", b"data", 400) + bytes(200),
        "'data' chunk of 400 bytes runs past the end of the file (200 left)"),
    "no fmt": (lambda: _riff(_chunk(b"data", _SAMPLES)),
               "no 'fmt ' chunk before the 'data' chunk"),
    "no data": (lambda: _riff(_fmt(_PCM, 16), _chunk(b"LIST", b"INFO")), "no 'data' chunk"),
    "not RIFF": (lambda: b"this is not a RIFF file at all.............", "not a RIFF WAVE file"),
}


class TestCodecAgainstScipy:
    @pytest.mark.parametrize("rate", [8000, 16000, 48000])
    @pytest.mark.parametrize("n", [1, 2, 3, 4001, 48000])
    def test_save_wav_writes_the_bytes_of_wavfile_write(self, tmp_path, rng, n, rate):
        samples = rng.uniform(-1.0, 1.0, size=n)
        save_wav(tmp_path / "ours.wav", samples, rate)
        wavfile.write(str(tmp_path / "scipy.wav"), rate, samples.astype(np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()

    def test_save_wav_writes_the_largest_rate_its_header_holds(self, tmp_path):
        rate = 0xFFFFFFFF // 4
        save_wav(tmp_path / "ours.wav", np.zeros(3), rate)
        wavfile.write(str(tmp_path / "scipy.wav"), rate, np.zeros(3, np.float32))
        assert (tmp_path / "ours.wav").read_bytes() == (tmp_path / "scipy.wav").read_bytes()
        path = tmp_path / "big.wav"
        with pytest.raises(AudioIngestError, match=_after_path(
                path, f"sample rate {rate + 1} Hz does not fit a WAV header, at most {rate}")):
            save_wav(path, np.zeros(3), rate + 1)
        assert not path.exists()

    def test_save_wav_refuses_more_samples_than_a_riff_file_holds(self, tmp_path):
        """The 32-bit RIFF size counts the 50 header bytes after it and the samples."""
        most = (0xFFFFFFFF - 50) // 4
        path = tmp_path / "long.wav"
        with pytest.raises(AudioIngestError, match=_after_path(
                path, f"{most + 1} samples do not fit a RIFF WAV file, at most {most}")):
            save_wav(path, np.broadcast_to(np.float32(0.0), (most + 1,)), 8000)
        assert not path.exists()

    @pytest.mark.parametrize("dtype, peak, scale", [(np.int16, 32767.0, 32768.0),
                                                    (np.float32, 1.0, 1.0)],
                             ids=["pcm16", "float32"])
    def test_load_wav_decodes_what_wavfile_read_decodes(self, tmp_path, rng, dtype, peak, scale):
        path = tmp_path / "u.wav"
        wavfile.write(str(path), 16000, (rng.uniform(-1.0, 1.0, size=4001) * peak).astype(dtype))
        rate, ref = wavfile.read(str(path))
        utt = load_wav(path)
        assert ref.dtype == dtype and utt.sample_rate == rate == 16000
        np.testing.assert_array_equal(utt.samples, ref.astype(float) / scale)

    @pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
    @pytest.mark.parametrize("tag, bits, dtype, peak, scale",
                             [(_PCM, 16, "<i2", 32767.0, 32768.0), (_FLOAT, 32, "<f4", 1.0, 1.0)],
                             ids=["pcm16", "float32"])
    def test_headers_and_chunks_scipy_does_not_write_load(self, tmp_path, rng, extensible,
                                                          tag, bits, dtype, peak, scale):
        """An odd-sized LIST chunk (skipped with its pad byte) before the
        data, in a plain or an extensible header, loads as wavfile.read
        loads it; an unknown chunk, on which scipy warns, loads silently."""
        data = (rng.uniform(-0.9, 0.9, size=301) * peak).astype(dtype)
        fmt = _fmt(tag, bits, rate=8000, extensible=extensible)
        listed = _chunk(b"LIST", b"INFOISFT\x05\x00\x00\x00abcd\x00")
        path = tmp_path / "listed.wav"
        path.write_bytes(_riff(fmt, listed, _chunk(b"data", data.tobytes())))
        rate, ref = wavfile.read(str(path))
        utt = load_wav(path)
        assert utt.sample_rate == rate == 8000
        np.testing.assert_array_equal(ref, data)
        np.testing.assert_array_equal(utt.samples, ref.astype(float) / scale)

        path = tmp_path / "unknown.wav"
        path.write_bytes(_riff(fmt, _chunk(b"bext", b"abc"), listed, _chunk(b"data", data.tobytes())))
        with pytest.warns(wavfile.WavFileWarning, match="not understood"):
            wavfile.read(str(path))
        np.testing.assert_array_equal(load_wav(path).samples, utt.samples)

    @pytest.mark.parametrize("case", list(_REFUSED))
    def test_other_files_are_refused_naming_the_file_and_the_reason(self, tmp_path, case):
        make, reason = _REFUSED[case]
        path = tmp_path / "refused.wav"
        path.write_bytes(make())
        with pytest.raises(AudioIngestError, match=_after_path(path, reason)):
            load_wav(path)

    def test_a_directory_is_refused_naming_it(self, tmp_path):
        with pytest.raises(AudioIngestError, match=_after_path(tmp_path, "cannot read (Is a directory)")):
            load_wav(tmp_path)


def test_importing_the_package_loads_no_scipy():
    """In a fresh interpreter, neither ``import chirpcode, chirpcode.cli``
    nor a pool worker it starts holds any scipy module."""
    probe = "sorted(m for m in __import__('sys').modules if m.split('.')[0] == 'scipy')"
    code = ("import sys, chirpcode, chirpcode.cli\n"
            "from chirpcode._parallel import pmap, workers\n"
            f"print(eval({probe!r}))\n"
            "with workers(2):\n"
            f"    print(pmap(eval, [({probe!r},)] * 2, 2))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(chirpcode.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert done.stdout.splitlines() == ["[]", "[[], []]"]


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
