"""Self-tests of the benchmark. Run from the checkout root: python3 -m pytest bench"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checker
import tracer
import workloads
from checker import CheckFailed
from chirpcode import adapt, dictionary, lca, metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SMALL = dict(n_channels=8, f_min=200.0, f_max=3000.0, filter_len=64, stride=32, sample_rate=8000)


@pytest.fixture(scope="module")
def small():
    """A small encode, its reported SNR, and its fixed-code (alpha = 0) gradient."""
    d = workloads._init_dictionary(SMALL)
    s = workloads.formant_sweep(np.random.default_rng(5), SMALL["sample_rate"], 0.05)
    code, state = lca.encode(s, d, lca.LcaConfig(lam=0.02, eta=0.1, max_iters=100), trace_window=5)
    grads = adapt.energy_gradient(s, d, state, adapt.AdaptConfig(mode="alca-cf", alpha=0.0))
    params = workloads._params(d.channels)
    return {
        "s": s,
        "code": workloads._code_arrays(code),
        "snr": metrics.snr(s, dictionary.reconstruct(d, code, length=len(s))),
        "trace": state.energy_trace,
        "atoms": workloads._atoms(params, SMALL),
        "params": params,
        "grads": {n: grads.get(n) for n in checker.PARAMS},
    }


def _grade(small, code):
    return checker.grade(small["s"], small["atoms"], code, SMALL["stride"], 1.0)


def _with(code, **arrays):
    return dict(code, **arrays)


# ------------------------------------------------ checks reject bad outputs

def test_checks_accept_the_program_outputs(small):
    code = small["code"]
    checker.check_events(code, SMALL["n_channels"], code["n_frames"], 0.02)
    checker.check_graded(_grade(small, code), snr=small["snr"], active=code["values"].size,
                         final_trace=small["trace"][-1])
    checker.check_gradient(small["grads"], small["params"], code, small["s"],
                           SMALL["filter_len"], SMALL["stride"], SMALL["sample_rate"])


def test_sign_flipped_event_is_rejected(small):
    code = small["code"]
    values = code["values"].copy()
    values[np.argmax(np.abs(values))] *= -1.0
    with pytest.raises(CheckFailed, match="SNR"):
        checker.check_graded(_grade(small, _with(code, values=values)), snr=small["snr"])


def test_dropped_event_is_rejected(small):
    code = small["code"]
    keep = np.arange(code["values"].size) != np.argmax(np.abs(code["values"]))
    dropped = _with(code, **{k: code[k][keep] for k in ("channels", "frames", "values")})
    g = _grade(small, dropped)
    with pytest.raises(CheckFailed, match="active count"):
        checker.check_graded(g, active=code["values"].size)
    with pytest.raises(CheckFailed, match="SNR"):
        checker.check_graded(g, snr=small["snr"])


def test_wrong_reported_snr_is_rejected(small):
    with pytest.raises(CheckFailed, match="SNR"):
        checker.check_graded(_grade(small, small["code"]), snr=small["snr"] + 1e-3)


@pytest.mark.parametrize("name", checker.PARAMS)
def test_perturbed_gradient_lane_is_rejected(small, name):
    grads = dict(small["grads"])
    lane = grads[name].copy()
    lane[3] += 1e-3 * np.linalg.norm(lane)
    grads[name] = lane
    with pytest.raises(CheckFailed, match=repr(name)):
        checker.check_gradient(grads, small["params"], small["code"], small["s"],
                               SMALL["filter_len"], SMALL["stride"], SMALL["sample_rate"])


def test_energy_rise_is_measured_against_e0():
    assert checker.energy_rise([10.0, 8.0, 8.0, 7.0]) == 0.0
    assert checker.energy_rise([10.0, 8.0, 8.00002, 7.0]) == pytest.approx(2e-6)
    assert checker.energy_rise([10.0]) == 0.0


def test_bad_events_are_rejected(small):
    code = small["code"]
    n_ch, n_fr = SMALL["n_channels"], code["n_frames"]
    outside = _with(code, frames=np.where(np.arange(code["frames"].size) == 0, n_fr, code["frames"]))
    with pytest.raises(CheckFailed, match="outside"):
        checker.check_events(outside, n_ch, n_fr, 0.02)
    with pytest.raises(CheckFailed, match="below lambda"):
        checker.check_events(code, n_ch, n_fr, 2.0 * np.abs(code["values"]).max())


# ------------------------------------------------------------ workloads

def _settings(wl):
    return {k: v for k, v in vars(wl).items()
            if isinstance(v, (lca.LcaConfig, adapt.AdaptConfig))}


def test_seed_changes_the_inputs_and_nothing_else(tmp_path):
    wavs = {}
    for tag, seed in (("a", 1), ("b", 1), ("c", 2)):
        manifest, _ = workloads.write_desk_corpus(seed, tmp_path / tag)
        wavs[tag] = [p.read_bytes() for p in sorted(manifest.parent.glob("*.wav"))]
        wavs[tag + ".manifest"] = manifest.read_text()
    assert wavs["a"] == wavs["b"]
    assert all(x != y for x, y in zip(wavs["a"], wavs["c"]))
    assert wavs["a.manifest"] == wavs["c.manifest"]

    p1, p2 = workloads.paper_signals(1), workloads.paper_signals(2)
    assert all(np.array_equal(x, y) for x, y in zip(p1, workloads.paper_signals(1)))
    assert not any(np.array_equal(x, y) for x, y in zip(p1, p2))

    for cls in workloads.WORKLOADS.values():
        one, two = cls(1, tmp_path / f"{cls.name}-1"), cls(2, tmp_path / f"{cls.name}-2")
        assert _settings(one) and _settings(one) == _settings(two)


def test_short_desk_adapt_is_identical_at_one_and_two_jobs(tmp_path):
    wl = workloads.DeskAdapt(3, tmp_path)
    wl.utterances = wl.utterances[:10]
    wl.adapt_cfg = dataclasses.replace(wl.adapt_cfg, epochs=1)
    wl.setup()
    saved = []
    for jobs in (1, 2):
        r = wl.run_round(0, jobs=jobs)
        assert r.failed == 0
        path = tmp_path / f"adapted-{jobs}.json"
        dictionary.save_dictionary(r.outputs[0], path)
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


def test_paper_step_refuses_eta_0_1_before_any_solve(tmp_path, monkeypatch):
    wl = workloads.PaperStep(1, tmp_path)
    wl.lca_cfg = dataclasses.replace(wl.lca_cfg, eta=0.1)
    wl.setup()

    def no_solve(*args, **kwargs):
        raise AssertionError("a solve started")

    monkeypatch.setattr(lca, "encode", no_solve)
    with pytest.raises(workloads.Refused, match="lambda_max"):
        wl.prepare()
    assert 100.0 < wl.lambda_max < 130.0

    wl.lca_cfg = dataclasses.replace(wl.lca_cfg, eta=workloads.PAPER_LCA["eta"])
    wl.prepare()


# ----------------------------------------------------------------- tracer

def test_tracer_wraps_every_importing_module_and_restores(monkeypatch):
    original = dictionary.apply_kernel
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + (("lca", "no_such_fn", "lca.gone"),))
    with tracer.Tracer() as tr:
        assert lca.apply_kernel is adapt.apply_kernel is dictionary.apply_kernel
        assert lca.apply_kernel is not original
        d = workloads._init_dictionary(SMALL)
        dictionary.apply_kernel(dictionary.gram_kernel(d), np.ones((SMALL["n_channels"], 4)))
    assert lca.apply_kernel is adapt.apply_kernel is original
    assert tr.absent == ["lca.gone"]
    layers = tr.layer_metrics()
    assert layers["dictionary.apply_kernel_calls"] == 1
    assert layers["dictionary.gram_kernel_calls"] == 1
    assert layers["dictionary.apply_kernel_gflop"] == pytest.approx(2 * 8 * 8 * (4 + 3 + 3) / 1e9)


# --------------------------------------------------------- the command

def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    if (ROOT / "BENCHMARK.json").exists():
        shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "desk-encode", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace, names", [(0, ("setup_s", "pass_s", "snr_db")),
                                          (1, ("lca.iters", "trace.traced_round_s"))])
def test_desk_encode_prints_one_correct_result(trace, names):
    proc = _run(ROOT, "--workload", "desk-encode", "--seed", "4", "--seconds", "1",
                "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 20
    assert all(result["metrics"][n]["value"] > 0 for n in names)
    if trace:  # the overhead is a difference of two timings and can read below zero
        assert "trace.overhead_pct" in result["metrics"]


def test_benchmark_json_names_what_the_command_prints():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {**tracer.METRICS, **run.CHECK_UNITS}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
