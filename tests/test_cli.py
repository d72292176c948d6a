"""End-to-end command-line behavior."""

import json
import math

import numpy as np
import pytest

from chirpcode import (
    energy, load_code, load_dictionary, load_wav, reconstruct, save_wav, snr,
)
from chirpcode.cli import main

from oracles import formant_sweep


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _build_small_dict(capsys, tmp_path, name="dict.json", sr=8000):
    path = tmp_path / name
    code, _, _ = _run(capsys, [
        "build-dict", "--channels", "16", "--f-min", "150", "--f-max", "3200",
        "--filter-len", "64", "--stride", "32", "--sr", str(sr), "--out", str(path),
    ])
    assert code == 0
    return path


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["build-dict", "--help"],
        ["encode", "--help"],
        ["decode", "--help"],
        ["adapt", "--help"],
        ["benchmark", "--help"],
        ["export-events", "--help"],
    ])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 0


class TestBuildDict:
    def test_48k_preset(self, capsys, tmp_path):
        out = tmp_path / "d48k.json"
        code, stdout, _ = _run(capsys, [
            "build-dict", "--channels", "700", "--filter-len", "1024",
            "--stride", "512", "--sr", "48000", "--out", str(out),
        ])
        assert code == 0
        assert "700 channels" in stdout
        d = load_dictionary(out)
        assert (d.n_channels, d.filter_len, d.stride, d.sample_rate) == (
            700, 1024, 512, 48000,
        )

    def test_16k_preset(self, capsys, tmp_path):
        out = tmp_path / "d16k.json"
        code, _, _ = _run(capsys, [
            "build-dict", "--channels", "700", "--filter-len", "256",
            "--stride", "128", "--sr", "16000", "--out", str(out),
        ])
        assert code == 0
        d = load_dictionary(out)
        assert (d.filter_len, d.stride, d.sample_rate) == (256, 128, 16000)

    def test_single_channel_is_usage_error(self, capsys, tmp_path):
        code, _, stderr = _run(capsys, [
            "build-dict", "--channels", "1", "--out", str(tmp_path / "x.json"),
        ])
        assert code == 2
        assert "error" in stderr.lower()

    def test_json_errors_flag(self, capsys, tmp_path):
        code, _, stderr = _run(capsys, [
            "build-dict", "--channels", "1", "--out", str(tmp_path / "x.json"),
            "--json-errors",
        ])
        assert code == 2
        payload = json.loads(stderr)
        assert payload["error"] == "ConfigError"


class TestEncodeDecode:
    def _plant_signal(self, dict_path, tmp_path, n_frames=6, coeff=0.01):
        """A signal that is exactly five dictionary atoms; coeff = 100x the
        encoding threshold used in the tests."""
        d = load_dictionary(dict_path)
        length = (n_frames - 1) * d.stride + d.filter_len
        s = np.zeros(length)
        placements = [(1, 0), (5, 1), (9, 3), (13, 4), (3, 5)]
        for ch, t in placements:
            s[t * d.stride : t * d.stride + d.filter_len] += coeff * d.atoms[ch]
        wav = tmp_path / "planted.wav"
        save_wav(wav, s, d.sample_rate)
        return wav, s

    def test_encode_decode_round_trip_snr(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        wav, _ = self._plant_signal(dict_path, tmp_path)
        out_dir = tmp_path / "codes"
        code, _, _ = _run(capsys, [
            "encode", str(wav), "--dict", str(dict_path), "--out-dir", str(out_dir),
            "--lambda", "1e-4", "--max-iters", "3000", "--rel-tol", "1e-12",
            "--jobs", "1",
        ])
        assert code == 0
        code_file = out_dir / "planted.code.json"
        assert code_file.exists()
        report = (out_dir / "encode_report.csv").read_text().splitlines()
        assert report[0] == "utterance,snr_db,active_count,n_frames,energy"

        # The reported figures are those of the saved code.
        _, snr_db, active, frames, e = report[1].split(",")
        d, saved, samples = load_dictionary(dict_path), load_code(code_file), load_wav(wav).samples
        recon = reconstruct(d, saved, length=len(samples))
        assert float(snr_db) == snr(samples, recon)
        assert float(e) == energy(samples, saved, d, 1e-4)
        assert (int(active), int(frames)) == (saved.n_events, saved.n_frames)

        decoded_dir = tmp_path / "recon"
        code, _, _ = _run(capsys, [
            "decode", str(code_file), "--dict", str(dict_path),
            "--out-dir", str(decoded_dir),
        ])
        assert code == 0
        original = load_wav(wav)
        recon = load_wav(decoded_dir / "planted.wav")
        assert snr(original.samples, recon.samples) >= 40.0

    def test_jobs_do_not_change_results(self, capsys, tmp_path):
        """Worker processes only spread the per-utterance map; outputs are
        byte-identical to the serial path."""
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path, sr=8000, n=3)
        outputs = []
        for jobs, name in (("1", "serial"), ("2", "parallel")):
            out_dir = tmp_path / name
            code, _, _ = _run(capsys, [
                "encode", "--manifest", str(manifest), "--dict", str(dict_path),
                "--out-dir", str(out_dir), "--lambda", "0.02", "--jobs", jobs,
            ])
            assert code == 0
            outputs.append(b"".join(
                sorted(p.read_bytes() for p in out_dir.glob("*.code.json"))
            ) + (out_dir / "encode_report.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_failing_utterance_is_named_and_nothing_written(self, capsys, tmp_path, jobs):
        """The first failure in corpus order is reported, with its utterance
        id, and no code or report is written."""
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path, sr=8000, n=3)
        for name in ("a_short", "z_short"):
            save_wav(tmp_path / f"{name}.wav", np.full(10, 0.1), 8000)
        lines = manifest.read_text().splitlines()
        lines[2:2] = ["a_short.wav,a_short,"]
        lines.append("z_short.wav,z_short,")
        manifest.write_text("\n".join(lines) + "\n")
        out_dir = tmp_path / "codes"
        code, _, stderr = _run(capsys, [
            "encode", "--manifest", str(manifest), "--dict", str(dict_path),
            "--out-dir", str(out_dir), "--lambda", "0.02", "--jobs", jobs,
        ])
        assert code == 1
        assert ("error: utterance 'a_short': signal of 10 samples is shorter than one "
                "filter (64)") in stderr
        assert "z_short" not in stderr
        assert list(out_dir.iterdir()) == []

    def test_jobs_env_fallback(self, monkeypatch):
        from chirpcode import ConfigError
        from chirpcode._parallel import default_jobs

        monkeypatch.setenv("CHIRPCODE_JOBS", "3")
        assert default_jobs() == 3
        monkeypatch.setenv("CHIRPCODE_JOBS", "junk")
        with pytest.raises(ConfigError, match="CHIRPCODE_JOBS must be an integer >= 1, got 'junk'"):
            default_jobs()
        monkeypatch.delenv("CHIRPCODE_JOBS")
        assert default_jobs() >= 1

    @pytest.mark.parametrize("command", [
        ["encode", "--dict", "missing.json", "--out-dir", "out"],
        ["adapt", "--dict", "missing.json", "--manifest", "missing.csv"],
        ["benchmark", "--dict", "d=missing.json", "--manifest", "missing.csv"],
    ], ids=["encode", "adapt", "benchmark"])
    @pytest.mark.parametrize("jobs", ["0", "-3", "junk"])
    def test_bad_jobs_env_rejected_at_start_up(self, capsys, monkeypatch, tmp_path, command, jobs):
        # As for --jobs: the variable is checked before any input is read.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("CHIRPCODE_JOBS", jobs)
        code, _, stderr = _run(capsys, command)
        assert code == 2
        assert f"CHIRPCODE_JOBS must be an integer >= 1, got {jobs!r}" in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["encode", "--dict", "missing.json", "--out-dir", "out"],
        ["adapt", "--dict", "missing.json", "--manifest", "missing.csv"],
        ["benchmark", "--dict", "d=missing.json", "--manifest", "missing.csv"],
    ], ids=["encode", "adapt", "benchmark"])
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_bad_jobs_rejected_at_start_up(self, capsys, monkeypatch, tmp_path, command, jobs):
        # The named files do not exist: the --jobs check comes before any input is read.
        monkeypatch.chdir(tmp_path)
        code, _, stderr = _run(capsys, command + ["--jobs", jobs])
        assert code == 2
        assert f"--jobs must be >= 1, got {jobs}" in stderr

    def test_encode_is_byte_idempotent(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        wav, _ = self._plant_signal(dict_path, tmp_path)
        outputs = []
        for run in ("one", "two"):
            out_dir = tmp_path / run
            code, _, _ = _run(capsys, [
                "encode", str(wav), "--dict", str(dict_path), "--out-dir", str(out_dir),
                "--lambda", "1e-4", "--jobs", "1",
            ])
            assert code == 0
            outputs.append(
                (out_dir / "planted.code.json").read_bytes()
                + (out_dir / "encode_report.csv").read_bytes()
            )
        assert outputs[0] == outputs[1]

    def test_rate_mismatch_is_runtime_error(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path, sr=8000)
        wav = tmp_path / "wrong.wav"
        save_wav(wav, np.zeros(1000, dtype=np.float32), 16000)
        code, _, stderr = _run(capsys, [
            "encode", str(wav), "--dict", str(dict_path),
            "--out-dir", str(tmp_path / "o"), "--jobs", "1",
        ])
        assert code == 1
        assert "rate" in stderr


class TestConfigPrecedence:
    def test_file_then_flag_override(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        wav, _ = TestEncodeDecode()._plant_signal(dict_path, tmp_path)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"lambda": 0.0002}))

        out_a = tmp_path / "from_file"
        code, _, _ = _run(capsys, [
            "encode", str(wav), "--dict", str(dict_path), "--out-dir", str(out_a),
            "--config", str(cfg), "--jobs", "1",
        ])
        assert code == 0
        assert load_code(out_a / "planted.code.json").lam == 0.0002

        out_b = tmp_path / "flag_wins"
        code, _, _ = _run(capsys, [
            "encode", str(wav), "--dict", str(dict_path), "--out-dir", str(out_b),
            "--config", str(cfg), "--lambda", "0.0005", "--jobs", "1",
        ])
        assert code == 0
        assert load_code(out_b / "planted.code.json").lam == 0.0005

    def test_config_file_boolean_survives_merge(self, capsys, tmp_path):
        """A config-file normalize=true must not be clobbered by the unset
        flag: an overdriven file only loads when normalization is applied."""
        dict_path = _build_small_dict(capsys, tmp_path)
        hot = np.concatenate([
            1.4 * formant_sweep(np.random.default_rng(8), 8000, 0.06), [1.4]
        ]).astype(np.float32)
        save_wav(tmp_path / "hot.wav", hot, 8000)
        manifest = tmp_path / "hot.csv"
        manifest.write_text("path,id,label\nhot.wav,hot,\n")
        out = tmp_path / "hot_adapted.json"
        cfg = tmp_path / "hot.json"
        cfg.write_text(json.dumps({
            "dict": str(dict_path), "manifest": str(manifest), "out": str(out),
            "mode": "alca", "epochs": 1, "batch_size": 1, "tbptt_window": 10,
            "lambda": 0.05, "max_iters": 40, "normalize": True,
        }))
        code, _, stderr = _run(capsys, ["adapt", "--config", str(cfg), "--jobs", "1"])
        assert code == 0, stderr
        assert out.exists()

    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"lamda": 0.1}))
        code, _, stderr = _run(capsys, [
            "encode", "--dict", str(dict_path), "--out-dir", str(tmp_path / "o"),
            "--config", str(cfg), "--jobs", "1",
        ])
        assert code == 2
        assert "lamda" in stderr


class TestExportEvents:
    def test_empty_code_gives_header_only(self, capsys, tmp_path):
        from chirpcode import SparseCode, save_code

        code_path = tmp_path / "empty.code.json"
        save_code(SparseCode.from_dense(np.zeros((4, 3)), lam=0.1), code_path)
        code, _, _ = _run(capsys, [
            "export-events", str(code_path), "--out-dir", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "empty.events.csv").read_text() == "channel,frame,value\n"


def _make_corpus(tmp_path, sr=8000, n=3, duration=0.08):
    rng = np.random.default_rng(5)
    manifest = tmp_path / "corpus.csv"
    lines = ["path,id,label"]
    for i in range(n):
        s = formant_sweep(rng, sample_rate=sr, duration=duration)
        wav = tmp_path / f"c{i}.wav"
        save_wav(wav, s, sr)
        lines.append(f"c{i}.wav,c{i},")
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


class TestAdaptAndBenchmark:
    def test_adapt_then_benchmark_pipeline(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path)
        adapted = tmp_path / "alca.json"
        code, stdout, _ = _run(capsys, [
            "adapt", "--dict", str(dict_path), "--manifest", str(manifest),
            "--mode", "alca", "--epochs", "2", "--batch-size", "3",
            "--lr-mod", "2e-3", "--lambda", "0.02", "--max-iters", "80",
            "--tbptt-window", "20", "--seed", "1", "--out", str(adapted),
            "--jobs", "1",
        ])
        assert code == 0
        assert adapted.exists()
        history = (tmp_path / "alca.json.history.csv").read_text().splitlines()
        assert history[0] == "epoch,mean_energy,mean_snr_db,mean_active_count"
        assert len(history) == 3
        sidecar = json.loads((tmp_path / "alca.json.meta.json").read_text())
        assert "completed_utc" in sidecar

        prefix = str(tmp_path / "bench_")
        code, stdout, _ = _run(capsys, [
            "benchmark", "--manifest", str(manifest),
            "--dict", f"baseline={dict_path}", "--dict", f"alca={adapted}",
            "--lambda", "0.02", "--max-iters", "80",
            "--out-prefix", prefix, "--jobs", "1",
        ])
        assert code == 0
        summary = json.loads((tmp_path / "bench_summary.json").read_text())
        names = [s["dictionary"] for s in summary["summaries"]]
        assert names == ["baseline", "alca"]
        for s in summary["summaries"]:
            assert s["n_utterances"] == 3
            assert math.isfinite(s["mean_snr_db"])

    def test_adapt_from_run_config_file(self, capsys, tmp_path):
        """A run-config JSON can carry the whole adaptation setup: solver and
        adaptation fields plus manifest and output paths."""
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path)
        out = tmp_path / "cfgrun.json"
        run_cfg = {
            "dict": str(dict_path),
            "manifest": str(manifest),
            "out": str(out),
            "mode": "alca-cf",
            "lr_mod": 2e-3,
            "lr_cf": 5.0,
            "alpha": 2.0,
            "tbptt_window": 20,
            "epochs": 1,
            "batch_size": 3,
            "seed": 4,
            "lambda": 0.02,
            "eta": 0.1,
            "max_iters": 80,
            "rel_tol": 1e-6,
            "bounds": {"f": [50.0, 3500.0]},
        }
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(run_cfg))
        code, _, _ = _run(capsys, ["adapt", "--config", str(cfg_path), "--jobs", "1"])
        assert code == 0
        adapted = load_dictionary(out)
        assert np.all((50.0 <= adapted.f) & (adapted.f <= 3500.0))

    def test_adapt_requires_out(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path)
        code, _, stderr = _run(capsys, [
            "adapt", "--dict", str(dict_path), "--manifest", str(manifest),
            "--jobs", "1",
        ])
        assert code == 2
        assert "out" in stderr
