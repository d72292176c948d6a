"""End-to-end command-line behavior."""

import json
import math
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import pytest

from chirpcode import (
    AdaptConfig, ConfigError, LcaConfig, default_bounds, energy, load_code, load_dictionary,
    load_wav, reconstruct, save_wav, snr,
)
from chirpcode import _parallel, cli, metrics
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

    def test_jobs_do_not_change_results(self, capsys, tmp_path, cpus):
        """Worker processes and in-process threads only spread the
        per-utterance map; outputs are byte-identical to the serial path."""
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path, sr=8000, n=3)
        outputs = []
        for jobs, n_cpus, name in (("1", 1, "serial"), ("1", 2, "threads"), ("2", 2, "parallel")):
            cpus(n_cpus)
            out_dir = tmp_path / name
            code, _, _ = _run(capsys, [
                "encode", "--manifest", str(manifest), "--dict", str(dict_path),
                "--out-dir", str(out_dir), "--lambda", "0.02", "--jobs", jobs,
            ])
            assert code == 0
            outputs.append(b"".join(
                sorted(p.read_bytes() for p in out_dir.glob("*.code.json"))
            ) + (out_dir / "encode_report.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_jobs_do_not_change_results_on_a_factored_bank(self, capsys, tmp_path, cpus):
        """96 channels at 8 kHz, filter 128: the kernel applies its range
        factors. Runs at --jobs 1 on one and two CPUs and one at --jobs 2
        write the same bytes."""
        dict_path = tmp_path / "dict.json"
        code, _, _ = _run(capsys, [
            "build-dict", "--channels", "96", "--filter-len", "128", "--stride", "64",
            "--sr", "8000", "--out", str(dict_path),
        ])
        assert code == 0
        assert load_dictionary(dict_path).kernel.factors is not None
        manifest = _make_corpus(tmp_path, sr=8000, n=3)
        outputs = []
        for jobs, n_cpus, name in (("1", 1, "serial"), ("1", 2, "threads"), ("2", 2, "parallel")):
            cpus(n_cpus)
            out_dir = tmp_path / name
            code, _, _ = _run(capsys, [
                "encode", "--manifest", str(manifest), "--dict", str(dict_path),
                "--out-dir", str(out_dir), "--lambda", "0.02", "--eta", "0.01", "--jobs", jobs,
            ])
            assert code == 0
            outputs.append([(p.name, p.read_bytes()) for p in sorted(out_dir.iterdir())])
        assert len(outputs[0]) == 4
        assert outputs[0] == outputs[1] == outputs[2]

    def test_jobs_two_starts_one_pool_for_two_frame_counts(self, capsys, monkeypatch, tmp_path):
        """The command's workers block starts the one pool, and the stacks of
        both frame counts run on it; the outputs are those of --jobs 1."""
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path, sr=8000, n=2)
        rng, rows = np.random.default_rng(6), manifest.read_text()
        for i in range(2):
            save_wav(tmp_path / f"s{i}.wav", formant_sweep(rng, 8000, 0.05), 8000)
            rows += f"s{i}.wav,s{i},\n"
        manifest.write_text(rows)
        pools, open_at_pmap = [], []

        class CountedPool(_parallel.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        def spying_pmap(fn, items, jobs, original=metrics.pmap):
            open_at_pmap.append(_parallel._open_pool.get())
            return original(fn, items, jobs)

        monkeypatch.setattr(_parallel, "ProcessPoolExecutor", CountedPool)
        monkeypatch.setattr(metrics, "pmap", spying_pmap)
        outputs = []
        for jobs in ("2", "1"):
            out_dir = tmp_path / f"jobs{jobs}"
            code, _, stderr = _run(capsys, [
                "encode", "--manifest", str(manifest), "--dict", str(dict_path),
                "--out-dir", str(out_dir), "--lambda", "0.02", "--jobs", jobs,
            ])
            assert code == 0, stderr
            outputs.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
        assert len(pools) == 1
        assert open_at_pmap == [pools[0], None]
        assert multiprocessing.active_children() == []
        assert len(outputs[0]) == 5
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

    @pytest.mark.parametrize("command", [
        ["encode", "--dict", "missing.json", "--out-dir", "out"],
        ["adapt", "--dict", "missing.json", "--manifest", "missing.csv", "--out", "a.json"],
        ["benchmark", "--dict", "d=missing.json", "--manifest", "missing.csv"],
    ], ids=["encode", "adapt", "benchmark"])
    def test_lam_and_lambda_together_is_usage_error(self, capsys, monkeypatch, tmp_path, command):
        # The named files do not exist: the config file is checked before any input is read.
        monkeypatch.chdir(tmp_path)
        Path("run.json").write_text(json.dumps({"lam": 0.5, "lambda": 0.05}))
        code, _, stderr = _run(capsys, command + ["--config", "run.json", "--jobs", "1"])
        assert code == 2
        assert stderr == "error: config file run.json sets both 'lam' and 'lambda'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

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


class TestOneOutputPerInput:
    """Two inputs that would write one output are refused before anything is written."""

    def _two_codes_named_u0(self, tmp_path):
        from chirpcode import SparseCode, save_code

        dense = np.zeros((16, 3))
        dense[2, 1] = 0.5
        paths = []
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            paths.append(tmp_path / folder / "u0.code.json")
            save_code(SparseCode.from_dense(dense, lam=0.1), paths[-1])
        return [str(p) for p in paths]

    @pytest.mark.parametrize("command", ["decode", "export-events"])
    def test_two_code_files_with_one_stem(self, capsys, tmp_path, command):
        dict_path = _build_small_dict(capsys, tmp_path)
        argv = [command, *self._two_codes_named_u0(tmp_path), "--out-dir", str(tmp_path / "out")]
        if command == "decode":
            argv += ["--dict", str(dict_path)]
        code, _, stderr = _run(capsys, argv)
        assert code == 2
        assert stderr == "error: two code files are named 'u0'; their outputs would collide\n"
        assert not (tmp_path / "out").exists()

    def test_benchmark_dictionary_name_given_twice(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path)
        prefix = tmp_path / "out" / "bench_"
        code, _, stderr = _run(capsys, [
            "benchmark", "--manifest", str(manifest), "--dict", f"x={dict_path}",
            "--dict", f"x={dict_path}", "--out-prefix", str(prefix), "--jobs", "1",
        ])
        assert code == 2
        assert stderr == "error: dictionary name 'x' is given more than once\n"
        assert not list(tmp_path.glob("**/bench_*"))


class TestInputsAreCheckedBeforeAnyOutput:
    """Every command reads and checks all of its inputs before it writes, and
    the corpus commands refuse the same corpora with the same errors."""

    def _corpus_argv(self, capsys, tmp_path, command, manifest):
        dict_path = str(_build_small_dict(capsys, tmp_path))
        argv = {
            "encode": ["encode", "--dict", dict_path, "--out-dir", str(tmp_path / "codes")],
            "adapt": ["adapt", "--dict", dict_path, "--out", str(tmp_path / "a.json"),
                      "--epochs", "1", "--max-iters", "20", "--tbptt-window", "5"],
            "benchmark": ["benchmark", "--dict", f"x={dict_path}",
                          "--out-prefix", str(tmp_path / "bench_")],
        }[command]
        return argv + ["--manifest", str(manifest), "--jobs", "1"]

    @pytest.mark.parametrize("command", ["encode", "adapt", "benchmark"])
    def test_an_id_given_twice(self, capsys, tmp_path, command):
        manifest = _make_corpus(tmp_path)
        manifest.write_text("path,id,label\nc0.wav,c0,\nc1.wav,x,\nc2.wav,x,\n")
        argv = self._corpus_argv(capsys, tmp_path, command, manifest)
        before = set(tmp_path.iterdir())
        code, _, stderr = _run(capsys, argv)
        assert code == 1
        assert stderr == "error: duplicate utterance ids: ['x']\n"
        assert set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("command", ["encode", "adapt", "benchmark"])
    def test_an_empty_corpus(self, capsys, tmp_path, command):
        manifest = tmp_path / "empty.csv"
        manifest.write_text("path,id,label\n")
        argv = self._corpus_argv(capsys, tmp_path, command, manifest)
        before = set(tmp_path.iterdir())
        code, _, stderr = _run(capsys, argv)
        assert code == 2
        assert stderr.endswith("error: corpus is empty\n")
        assert set(tmp_path.iterdir()) == before

    def test_encode_without_inputs_is_a_usage_error(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        code, _, stderr = _run(capsys, ["encode", "--dict", str(dict_path),
                                        "--out-dir", str(tmp_path / "codes"), "--jobs", "1"])
        assert code == 2
        assert stderr == "error: no input utterances (give WAV paths or --manifest)\n"
        assert not (tmp_path / "codes").exists()

    @pytest.mark.parametrize("wavs, message", [
        (["nosuch.wav", "c0.wav"], "missing corpus files: nosuch.wav"),
        (["c0.wav", "fast.wav"], "sample rate mismatch against declared 8000 Hz: fast.wav (16000 Hz)"),
    ], ids=["missing", "rate"])
    def test_wav_paths_are_checked_as_a_manifest_is(
            self, capsys, monkeypatch, tmp_path, wavs, message):
        monkeypatch.chdir(tmp_path)
        dict_path = _build_small_dict(capsys, tmp_path)
        _make_corpus(tmp_path, n=1)
        save_wav(tmp_path / "fast.wav", np.zeros(1000, dtype=np.float32), 16000)
        code, _, stderr = _run(capsys, ["encode", *wavs, "--dict", str(dict_path),
                                        "--out-dir", "codes", "--jobs", "1"])
        assert code == 1
        assert stderr == f"error: {message}\n"
        assert not (tmp_path / "codes").exists()

    @pytest.mark.parametrize("command", ["decode", "export-events"])
    def test_a_later_code_file_fails(self, capsys, tmp_path, command):
        from chirpcode import SparseCode, save_code

        dict_path = _build_small_dict(capsys, tmp_path)
        good, bad = tmp_path / "u0.code.json", tmp_path / "u1.code.json"
        dense = np.zeros((16, 3))
        dense[2, 1] = 0.5
        save_code(SparseCode.from_dense(dense, lam=0.1), good)
        if command == "decode":
            save_code(SparseCode.from_dense(dense[:8], lam=0.1), bad)
            message = f"error: {bad}: code has 8 channels, dictionary has 16\n"
        else:
            bad.write_text("{")
            message = f"error: cannot read code file {bad}: "
        argv = [command, str(good), str(bad), "--out-dir", str(tmp_path / "out")]
        if command == "decode":
            argv += ["--dict", str(dict_path)]
        code, _, stderr = _run(capsys, argv)
        assert code == 1
        assert stderr.startswith(message)
        assert not (tmp_path / "out").exists()


class TestMalformedInputFiles:
    """A file reader turns malformed or non-UTF-8 input into its own error:
    exit 2 for a dictionary or config file, 1 for a code file or manifest."""

    NOT_UTF8 = b'{"\xff": 1}\n'

    def _files(self, capsys, tmp_path):
        from chirpcode import SparseCode, save_code

        dict_path = _build_small_dict(capsys, tmp_path)
        code_path = tmp_path / "u0.code.json"
        dense = np.zeros((16, 3))
        dense[2, 1] = 0.5
        save_code(SparseCode.from_dense(dense, lam=0.1), code_path)
        return dict_path, code_path, _make_corpus(tmp_path, n=1)

    @pytest.mark.parametrize("command, broken, exit_code", [
        ("decode", "n_channels", 1),
        ("export-events", "event_value", 1),
        ("decode", "code_bytes", 1),
        ("decode", "dict_bytes", 2),
        ("benchmark", "manifest_bytes", 1),
        ("benchmark", "config_bytes", 2),
    ])
    def test_error_line_not_traceback(self, capsys, tmp_path, command, broken, exit_code):
        dict_path, code_path, manifest = self._files(capsys, tmp_path)
        payload = json.loads(code_path.read_text())
        if broken == "n_channels":
            payload["n_channels"] = "abc"
            code_path.write_text(json.dumps(payload))
        elif broken == "event_value":
            payload["events"][0][2] = "x"
            code_path.write_text(json.dumps(payload))
        else:
            victim = {"code": code_path, "dict": dict_path, "manifest": manifest,
                      "config": tmp_path / "config.json"}[broken.split("_")[0]]
            victim.write_bytes(self.NOT_UTF8)
        out = ["--out-dir", str(tmp_path / "out")]
        argv = {
            "decode": ["decode", str(code_path), "--dict", str(dict_path), *out],
            "export-events": ["export-events", str(code_path), *out],
            "benchmark": ["benchmark", "--dict", f"x={dict_path}", "--manifest", str(manifest),
                          "--out-prefix", str(tmp_path / "bench_"), "--jobs", "1"],
        }[command]
        if broken == "config_bytes":
            argv += ["--config", str(tmp_path / "config.json")]
        code, _, stderr = _run(capsys, argv)
        assert code == exit_code
        assert stderr.startswith("error: ") and stderr.count("\n") == 1
        assert "Traceback" not in stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["decode", "export-events"])
    @pytest.mark.parametrize("position", [0, 1], ids=["channel", "frame"])
    @pytest.mark.parametrize("bad", [2.7, True, "2"])
    def test_event_index_that_is_not_an_integer(self, capsys, tmp_path, command, position, bad):
        """Loading the code refuses it, where a cast would truncate 2.7 to 2 and true to 1."""
        dict_path, code_path, _ = self._files(capsys, tmp_path)
        payload = json.loads(code_path.read_text())
        payload["events"][0][position] = bad
        code_path.write_text(json.dumps(payload))
        argv = [command, str(code_path), "--out-dir", str(tmp_path / "out")]
        if command == "decode":
            argv += ["--dict", str(dict_path)]
        code, _, stderr = _run(capsys, argv)
        axis = ("channel", "frame")[position]
        assert code == 1
        assert stderr == (f"error: cannot read code file {code_path}: "
                          f"{axis} index must be an integer, got {bad!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["decode", "export-events"])
    @pytest.mark.parametrize("change", [
        {"lambda": "0.1"}, {"lambda": float("nan")}, {"event_value": True}],
        ids=["lambda_str", "lambda_nan", "value_bool"])
    def test_code_number_that_is_not_a_number(self, capsys, tmp_path, command, change):
        """Refused where a cast read "0.1" as 0.1 and true as 1.0; json reads NaN."""
        dict_path, code_path, _ = self._files(capsys, tmp_path)
        payload = json.loads(code_path.read_text())
        if "event_value" in change:
            payload["events"][0][2] = change["event_value"]
        else:
            payload.update(change)
        code_path.write_text(json.dumps(payload))
        before = sorted(tmp_path.rglob("*"))
        argv = [command, str(code_path), "--out-dir", str(tmp_path / "out")]
        if command == "decode":
            argv += ["--dict", str(dict_path)]
        code, _, stderr = _run(capsys, argv)
        assert code == 1
        assert stderr.startswith(f"error: cannot read code file {code_path}: ")
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["encode", "benchmark", "adapt"])
    @pytest.mark.parametrize("field, value", [("f", "100"), ("l", True)])
    def test_dictionary_number_that_is_not_a_number(self, capsys, tmp_path, command, field,
                                                    value):
        """Refused where a cast read "100" as 100.0 and true as 1.0."""
        dict_path, _, manifest = self._files(capsys, tmp_path)
        payload = json.loads(dict_path.read_text())
        payload["channels"][1][field] = value
        dict_path.write_text(json.dumps(payload))
        before = sorted(tmp_path.rglob("*"))
        argv = {
            "encode": ["encode", "--manifest", str(manifest), "--dict", str(dict_path),
                       "--out-dir", str(tmp_path / "codes")],
            "benchmark": ["benchmark", "--dict", f"x={dict_path}", "--manifest", str(manifest),
                          "--out-prefix", str(tmp_path / "bench_"), "--jobs", "1"],
            "adapt": ["adapt", "--dict", str(dict_path), "--manifest", str(manifest),
                      "--out", str(tmp_path / "adapted.json"), "--epochs", "1",
                      "--batch-size", "1", "--jobs", "1"],
        }[command]
        code, _, stderr = _run(capsys, argv)
        assert code == 2
        assert stderr == (f"error: cannot read dictionary file {dict_path}: "
                          f"channel 1: {field} must be a number, got {value!r}\n")
        assert sorted(tmp_path.rglob("*")) == before

    def test_empty_manifest_with_json_errors_is_one_json_line(self, capsys, tmp_path):
        """The whole of stderr, from a separate process: the JSON error and
        nothing logged before it."""
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = tmp_path / "empty.csv"
        manifest.write_text("path,id,label\n")
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "chirpcode", "benchmark", "--dict", f"x={dict_path}",
             "--manifest", str(manifest), "--out-prefix", str(tmp_path / "bench_"),
             "--jobs", "1", "--json-errors"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 2
        lines = done.stderr.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": "ConfigError", "message": "corpus is empty"}


class TestOutputPathsAreCheckedBeforeAnySolve:
    """An output whose directory does not exist is refused before any corpus
    is solved or any file written; other OSErrors are runtime errors."""

    def _argv(self, capsys, tmp_path, command, output):
        dict_path = str(_build_small_dict(capsys, tmp_path))
        manifest = str(_make_corpus(tmp_path, n=2))
        argv, path = {
            "build-dict --out": (["build-dict", "--channels", "8", "--sr", "8000"], "--out"),
            "encode --report": (["encode", "--manifest", manifest, "--dict", dict_path,
                                 "--out-dir", str(tmp_path / "codes")], "--report"),
            "benchmark --out-prefix": (["benchmark", "--manifest", manifest,
                                        "--dict", f"x={dict_path}"], "--out-prefix"),
            "adapt --out": (["adapt", "--manifest", manifest, "--dict", dict_path,
                             "--epochs", "1", "--max-iters", "20"], "--out"),
            "adapt --history": (["adapt", "--manifest", manifest, "--dict", dict_path,
                                 "--epochs", "1", "--max-iters", "20",
                                 "--out", str(tmp_path / "a.json")], "--history"),
        }[command]
        return argv + [path, output] + ["--jobs", "1"] * (argv[0] != "build-dict")

    @pytest.mark.parametrize("command", [
        "build-dict --out", "encode --report", "benchmark --out-prefix", "adapt --out",
        "adapt --history",
    ])
    def test_missing_directory_is_a_usage_error(self, capsys, monkeypatch, tmp_path, command):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before checking the output paths")

        for module, name in ((cli, "map_stacks"), (metrics, "map_stacks"),
                             (cli, "adapt_corpus")):
            monkeypatch.setattr(module, name, no_solve)
        output = tmp_path / "nodir" / "out"
        argv = self._argv(capsys, tmp_path, command, str(output))
        before = set(tmp_path.iterdir())
        code, _, stderr = _run(capsys, argv)
        assert code == 2
        if command == "benchmark --out-prefix":
            output = Path(f"{output}report.csv")
        assert stderr == f"error: cannot write {output}: directory {output.parent} does not exist\n"
        assert set(tmp_path.iterdir()) == before

    def test_report_may_go_into_the_out_dir_encode_makes(self, capsys, tmp_path):
        argv = self._argv(capsys, tmp_path, "encode --report", str(tmp_path / "codes" / "r.csv"))
        code, _, stderr = _run(capsys, argv + ["--lambda", "0.02"])
        assert code == 0, stderr
        assert (tmp_path / "codes" / "r.csv").is_file()

    @pytest.mark.parametrize("json_errors", [False, True])
    def test_other_os_errors_are_runtime_errors(self, capsys, tmp_path, json_errors):
        (tmp_path / "codes").write_text("a file where --out-dir wants a directory")
        argv = self._argv(capsys, tmp_path, "encode --report", str(tmp_path / "r.csv"))
        code, _, stderr = _run(capsys, argv + ["--json-errors"] * json_errors)
        assert code == 1
        if json_errors:
            assert json.loads(stderr)["error"] == "FileExistsError"
        else:
            assert stderr.startswith("error: [Errno 17] File exists: ")
        assert not (tmp_path / "r.csv").exists()


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

    def test_sidecar_records_the_default_history_path(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path, n=2)
        out = tmp_path / "a.json"
        code, _, stderr = _run(capsys, [
            "adapt", "--dict", str(dict_path), "--manifest", str(manifest), "--out", str(out),
            "--epochs", "1", "--max-iters", "20", "--tbptt-window", "5", "--jobs", "1",
        ])
        assert code == 0, stderr
        sidecar = json.loads((tmp_path / "a.json.meta.json").read_text())
        assert sidecar["config"]["history"] == f"{out}.history.csv"
        assert Path(sidecar["config"]["history"]).exists()

    def test_sidecar_config_replays_the_run(self, capsys, tmp_path):
        """The sidecar records the bounds the run clamped to, so feeding its
        config back with new outputs gives the same dictionary and history."""
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path)
        first = tmp_path / "first.json"
        run_cfg = {"dict": str(dict_path), "manifest": str(manifest), "out": str(first),
                   "mode": "alca-cf", "lr_cf": 50.0, "epochs": 2, "batch_size": 2,
                   "lambda": 0.02, "max_iters": 60, "tbptt_window": 10,
                   "bounds": {"f": [160.0, 3500.0]}}
        (tmp_path / "run.json").write_text(json.dumps(run_cfg))
        code, _, stderr = _run(capsys, ["adapt", "--config", str(tmp_path / "run.json"),
                                        "--jobs", "1"])
        assert code == 0, stderr
        config = json.loads((tmp_path / "first.json.meta.json").read_text())["config"]
        assert config["bounds"] == {"f": [160.0, 3500.0], "b": [0.2, 5.0],
                                    "l": [1.5, 8.0], "c": [-5.0, 5.0]}
        replay = tmp_path / "replay.json"
        config.update(out=str(replay), history=str(tmp_path / "replay.csv"))
        (tmp_path / "replay_run.json").write_text(json.dumps(config))
        code, _, stderr = _run(capsys, ["adapt", "--config", str(tmp_path / "replay_run.json"),
                                        "--jobs", "1"])
        assert code == 0, stderr
        assert replay.read_bytes() == first.read_bytes()
        assert (tmp_path / "replay.csv").read_bytes() == (
            tmp_path / "first.json.history.csv").read_bytes()
        assert min(load_dictionary(first).f) == 160.0

    def test_sidecar_records_the_default_bounds(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path, n=1)
        out = tmp_path / "a.json"
        code, _, stderr = _run(capsys, [
            "adapt", "--dict", str(dict_path), "--manifest", str(manifest), "--out", str(out),
            "--epochs", "0", "--jobs", "1",
        ])
        assert code == 0, stderr
        config = json.loads((tmp_path / "a.json.meta.json").read_text())["config"]
        assert config["bounds"] == json.loads(json.dumps(asdict(default_bounds(8000))))

    @pytest.mark.parametrize("key, value", [
        ("dict", 7), ("manifest", 7), ("out", 7), ("history", 7),
        ("out", ["o.json"]), ("history", ""),
    ])
    def test_path_setting_that_is_not_a_string(self, capsys, monkeypatch, tmp_path, key, value):
        """Checked before any file is read: a number would open a file descriptor."""
        def no_read(*args, **kwargs):
            raise AssertionError("read a file before checking the path settings")

        monkeypatch.setattr(cli, "load_dictionary", no_read)
        monkeypatch.setattr(cli, "load_corpus", no_read)
        paths = {"dict": "d.json", "manifest": "m.csv", "out": "o.json", key: value}
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(paths))
        code, _, stderr = _run(capsys, ["adapt", "--config", str(cfg), "--jobs", "1"])
        assert code == 2
        assert stderr == f"error: {key} must be a non-empty path string, got {value!r}\n"

    @pytest.mark.parametrize("value", [5, "", None])
    def test_build_dict_out_that_is_not_a_string(self, capsys, tmp_path, value):
        """Every command that reads --config applies the path rule, not only adapt."""
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"channels": 8, "sr": 8000, "out": value}))
        before = set(tmp_path.iterdir())
        code, _, stderr = _run(capsys, ["build-dict", "--config", str(cfg)])
        assert code == 2
        message = ("--out is required" if value is None
                   else f"out must be a non-empty path string, got {value!r}")
        assert stderr == f"error: {message}\n"
        assert set(tmp_path.iterdir()) == before

    def test_adapt_requires_out(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path)
        code, _, stderr = _run(capsys, [
            "adapt", "--dict", str(dict_path), "--manifest", str(manifest),
            "--jobs", "1",
        ])
        assert code == 2
        assert "out" in stderr


class TestConfigChecks:
    """Settings are checked by LcaConfig and AdaptConfig, for flags and config files alike."""

    def _adapt_argv(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path)
        return ["adapt", "--dict", str(dict_path), "--manifest", str(manifest),
                "--out", str(tmp_path / "out" / "adapted.json"), "--epochs", "1", "--jobs", "1"]

    def _encode_argv(self, capsys, tmp_path):
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path)
        return ["encode", "--manifest", str(manifest), "--dict", str(dict_path),
                "--out-dir", str(tmp_path / "out"), "--jobs", "1"]

    @pytest.mark.parametrize("command", ["encode", "adapt"])
    @pytest.mark.parametrize("setting, message", [
        ({"eta": "fast"}, "eta must be a number, got 'fast'"),
        ({"max_iters": 50.5}, "max_iters must be an integer, got 50.5"),
    ])
    def test_config_value_of_the_wrong_type_is_a_usage_error(
            self, capsys, tmp_path, command, setting, message):
        argv = getattr(self, f"_{command}_argv")(capsys, tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(setting))
        code, _, stderr = _run(capsys, argv + ["--config", str(cfg)])
        assert code == 2
        assert stderr == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_negative_encode_alpha_is_refused_as_adapt_config_does(self, capsys, tmp_path):
        argv = self._encode_argv(capsys, tmp_path)
        with pytest.raises(ConfigError) as expected:
            AdaptConfig(mode="alca", alpha=-1.0)
        code, _, stderr = _run(capsys, argv + ["--alpha", "-1"])
        assert code == 2
        assert stderr == f"error: {expected.value}\n"
        assert not (tmp_path / "out").exists()

    def test_non_boolean_normalize_is_a_usage_error(self, capsys, tmp_path):
        argv = self._adapt_argv(capsys, tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"normalize": "no"}))
        code, _, stderr = _run(capsys, argv + ["--config", str(cfg)])
        assert code == 2
        assert "normalize must be true or false" in stderr

    @pytest.mark.parametrize("bounds, message", [
        ({"g": [1, 2]}, "bounds must be an object"),
        ({"f": [100, "3000"]}, "bounds for 'f' must be a number"),
        ({"f": 100}, "bounds for 'f' must be a pair"),
    ])
    def test_bad_bounds_object_is_a_usage_error(self, capsys, tmp_path, bounds, message):
        argv = self._adapt_argv(capsys, tmp_path)
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"mode": "alca-cf", "bounds": bounds}))
        code, _, stderr = _run(capsys, argv + ["--config", str(cfg)])
        assert code == 2
        assert message in stderr

    def test_build_dict_config_value_of_the_wrong_type_is_a_usage_error(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"channels": "16"}))
        code, _, stderr = _run(capsys, ["build-dict", "--config", str(cfg),
                                        "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert stderr == "error: channels must be an integer, got '16'\n"

    def test_build_dict_bad_rate_is_named(self, capsys, tmp_path):
        code, _, stderr = _run(capsys, ["build-dict", "--sr", "0",
                                        "--out", str(tmp_path / "d.json")])
        assert code == 2
        assert stderr == "error: sample_rate must be positive, got 0\n"

    def test_build_dict_default_frequency_range_is_default_bounds(self, capsys, tmp_path):
        from chirpcode import default_bounds

        out = tmp_path / "d.json"
        code, _, _ = _run(capsys, ["build-dict", "--channels", "8", "--filter-len", "64",
                                   "--stride", "32", "--sr", "8000", "--out", str(out)])
        assert code == 0
        d = load_dictionary(out)
        assert (d.f[0], d.f[-1]) == pytest.approx(default_bounds(8000).f, rel=1e-12)


class TestOptionsThatDoNothingAreRefused:
    @pytest.mark.parametrize("argv", [
        ["decode", "c.code.json", "--dict", "d.json", "--out-dir", "o", "--config", "x.json"],
        ["decode", "c.code.json", "--dict", "d.json", "--out-dir", "o", "--jobs", "2"],
        ["export-events", "c.code.json", "--out-dir", "o", "--config", "x.json"],
        ["export-events", "c.code.json", "--out-dir", "o", "--jobs", "2"],
        ["build-dict", "--out", "d.json", "--jobs", "2"],
    ], ids=["decode-config", "decode-jobs", "export-config", "export-jobs", "build-dict-jobs"])
    def test_usage_error(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_jobs_variable_does_not_stop_commands_without_workers(
            self, capsys, monkeypatch, tmp_path):
        from chirpcode import SparseCode, save_code

        monkeypatch.setenv("CHIRPCODE_JOBS", "junk")
        dict_path = _build_small_dict(capsys, tmp_path)
        code_path = tmp_path / "one.code.json"
        dense = np.zeros((16, 3))
        dense[2, 1] = 0.5
        save_code(SparseCode.from_dense(dense, lam=0.1), code_path)
        for argv in (["decode", str(code_path), "--dict", str(dict_path),
                      "--out-dir", str(tmp_path / "recon")],
                     ["export-events", str(code_path), "--out-dir", str(tmp_path / "ev")]):
            code, _, stderr = _run(capsys, argv)
            assert code == 0, stderr
        assert (tmp_path / "recon" / "one.wav").exists()
        assert (tmp_path / "ev" / "one.events.csv").exists()


class TestDefaultsLiveInTheConfigClasses:
    """With no solver flags the CLI builds the config classes' own defaults."""

    @dataclass(frozen=True)
    class ShiftedLca(LcaConfig):
        eta: float = 0.05
        max_iters: int = 123
        rel_tol: float = 1e-3

    @dataclass(frozen=True)
    class ShiftedAdapt(AdaptConfig):
        lr_mod: float = 2e-3
        lr_cf: float = 3.0
        alpha: float = 2.5
        tbptt_window: int = 7
        epochs: int = 2
        batch_size: int = 3
        seed: int = 9

    def _configs_of(self, capsys, monkeypatch, tmp_path):
        """The configs that encode and adapt hand to the library."""
        seen = {}

        def fake_map_stacks(fn, ids, signals, d, jobs, lca_cfg, alpha):
            seen["encode"] = (lca_cfg, alpha)
            raise ConfigError("stop after the configs")

        def fake_adapt_corpus(corpus, d0, lca_cfg, adapt_cfg, jobs=1):
            seen["adapt"] = (lca_cfg, adapt_cfg)
            raise ConfigError("stop after the configs")

        monkeypatch.setattr(cli, "map_stacks", fake_map_stacks)
        monkeypatch.setattr(cli, "adapt_corpus", fake_adapt_corpus)
        dict_path = _build_small_dict(capsys, tmp_path)
        manifest = _make_corpus(tmp_path)
        _run(capsys, ["encode", "--manifest", str(manifest), "--dict", str(dict_path),
                      "--out-dir", str(tmp_path / "codes"), "--jobs", "1"])
        _run(capsys, ["adapt", "--dict", str(dict_path), "--manifest", str(manifest),
                      "--out", str(tmp_path / "a.json"), "--jobs", "1"])
        return seen

    def test_defaults_equal_the_classes(self, capsys, monkeypatch, tmp_path):
        seen = self._configs_of(capsys, monkeypatch, tmp_path)
        assert seen["encode"] == (LcaConfig(lam=0.00045), AdaptConfig(mode="alca").alpha)
        assert seen["adapt"] == (LcaConfig(lam=0.00045), AdaptConfig(mode="alca"))

    def test_defaults_follow_the_classes(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(cli, "LcaConfig", self.ShiftedLca)
        monkeypatch.setattr(cli, "AdaptConfig", self.ShiftedAdapt)
        seen = self._configs_of(capsys, monkeypatch, tmp_path)
        assert seen["encode"] == (self.ShiftedLca(lam=0.00045), 2.5)
        assert seen["adapt"] == (self.ShiftedLca(lam=0.00045), self.ShiftedAdapt(mode="alca"))


def _readme_command_lines():
    """The chirpcode command lines of README.md's code blocks, continuations joined."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", readme, flags=re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("chirpcode "):
                lines.append(line)
    return lines


README_LINES = _readme_command_lines()


def test_readme_has_command_lines():
    assert len(README_LINES) >= 8


@pytest.mark.parametrize("line", README_LINES,
                         ids=[f"{i}-{line.split()[1]}" for i, line in enumerate(README_LINES)])
def test_readme_command_line_parses(line):
    args = cli.build_parser().parse_args(shlex.split(line)[1:])
    assert args.func.__name__ == "cmd_" + args.command.replace("-", "_")
