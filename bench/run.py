"""Benchmark of chirpcode: one workload per call, one JSON result line.

Run from the root of a source checkout:

    python3 bench/run.py --workload desk-encode --seed 1 --seconds 20 --trace 0

It imports the package from ./src and nowhere else, makes the workload's
inputs from --seed, times set-up and whole rounds of operations for
--seconds, checks the outputs against the independent computations in
bench/checker.py, and prints {"correct", "attempted", "failed", "metrics"}
as the last line of standard output. --trace 0 reports the end-to-end
metrics; --trace 1 alternates untraced and traced rounds and reports the
per-layer metrics, the tracing overhead and the energy rises the checks saw. Scratch files live under
.bench_work/ and are removed on exit, except the last result and trace.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import checker
import tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("desk-encode", "desk-adapt", "paper-step")
WARMUP_S = 2.0

# Every workload reports every metric. pass_s is one pass of the workload's
# unit of work: a `chirpcode encode` of the corpus, one adaptation epoch, or
# one encode plus energy_gradient of a 1 s utterance.
END_TO_END_UNITS = {
    "setup_s": "s",
    "encode_audio_s_per_s": "audio_s/s",
    "pass_s": "s",
    "peak_rss_mb": "MB",
    "snr_db": "dB",
    "active_per_frame": "events/frame",
}

# Figures from the checks, reported with the per-layer metrics: the largest
# rise of any checked solve's energy trace, as a share of its E0, and the
# number of checked solves whose trace rose by more than
# checker.ENERGY_RISE_SLACK of E0 (acceptance criterion 2). They are not a
# gate: the rises come and go with the seed.
CHECK_UNITS = {
    "lca.energy_rise_max": "E0",
    "lca.energy_rises": "count",
}


def import_package():
    """Import chirpcode from ROOT/src; exit 2 without a result if it is not there."""
    src = ROOT / "src"
    if not (src / "chirpcode" / "__init__.py").is_file():
        print(f"bench: no package source at {src / 'chirpcode'}; run from a chirpcode checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    sys.path.insert(1, str(BENCH_DIR))
    import chirpcode

    if Path(chirpcode.__file__).resolve().parent != (src / "chirpcode").resolve():
        print(f"bench: imported chirpcode from {chirpcode.__file__}, not from {src}", file=sys.stderr)
        sys.exit(2)


def blas_threads():
    """OpenBLAS thread count of this process, or None if no OpenBLAS is loaded."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest waited-for child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def median(values):
    return statistics.median(values) if values else float("nan")


def measure(wl, seconds):
    """Whole rounds until `seconds` of rounds have run and wl.min_rounds are done.

    Set-up is timed after every round, so its samples span the run as the
    rounds do and see the same changes in the host's speed. Returns
    (rounds, set-up times).
    """
    rounds, setup_times, elapsed, index = [], [], 0.0, 0
    while elapsed < seconds or index < wl.min_rounds:
        r = wl.run_round(index)
        rounds.append(r)
        elapsed += r.wall_s
        index += 1
        setup_times += time_setup(wl)
    return rounds, setup_times


def time_setup(wl):
    """wl.setup_samples set-up times, each the mean of wl.setup_batch calls in a row."""
    times = []
    for _ in range(wl.setup_samples):
        t0 = time.perf_counter()
        for _ in range(wl.setup_batch):
            wl.setup()
        times.append((time.perf_counter() - t0) / wl.setup_batch)
    return times


def end_to_end(wl, setup_times, rounds):
    pooled = {}
    for r in rounds:
        for name, value in r.samples.items():
            pooled.setdefault(name, []).append(value)
    values = {"setup_s": median(setup_times), "peak_rss_mb": peak_rss_mb()}
    values.update({name: median(v) for name, v in pooled.items()})
    if any(r.outputs is not None for r in rounds):
        values.update(wl.quality([r for r in rounds if r.outputs is not None]))
    # With every operation failed there is no quality to report; correct is false then.
    return {name: values.get(name, 0.0) for name in END_TO_END_UNITS}


def traced_pass(wl, seconds):
    """Alternate untraced and traced rounds on the same input; return (rounds, layer metrics, tracer)."""
    rounds, per_round = [], []
    elapsed, index, last = 0.0, 0, None
    jobs = {} if wl.trace_jobs is None else {"jobs": wl.trace_jobs}
    while elapsed < seconds or index < 1:
        plain = wl.run_round(index, **jobs)
        with tracer.Tracer() as tr:
            traced = wl.run_round(index, **jobs)
        rounds += [plain, traced]
        layers = tr.layer_metrics()
        layers["trace.untraced_round_s"] = plain.wall_s
        layers["trace.traced_round_s"] = traced.wall_s
        layers["trace.overhead_pct"] = 100.0 * (traced.wall_s / plain.wall_s - 1.0)
        per_round.append(layers)
        elapsed += plain.wall_s + traced.wall_s
        index += 1
        last = tr
    if wl.trace_jobs is not None:
        # Worker processes run the per-utterance work at the workload's own
        # jobs; only the parent-side pool layer is traced in that round.
        with tracer.Tracer(only=tracer.PARALLEL_ONLY) as tr:
            rounds.append(wl.run_round(index))
        pool = tr.layer_metrics()
        for layers in per_round:
            for name in ("parallel.pmap_s", "parallel.pool_starts", "parallel.task_mb"):
                layers[name] = pool[name]
    metrics = {name: median([layers[name] for layers in per_round]) for name in tracer.METRICS}
    return rounds, metrics, last


def write_json(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload) + "\n")
    tmp.replace(path)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_NAMES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    import workloads

    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, scratch)
        # CPU speed settles only after a second or two of work on this kind of
        # virtual machine, so set-up runs untimed for WARMUP_S first.
        warm_until = time.perf_counter() + WARMUP_S
        while time.perf_counter() < warm_until:
            wl.setup()
        try:
            wl.prepare()
        except workloads.Refused as exc:
            print(f"bench: {args.workload} refused to start: {exc}", file=sys.stderr)
            return 2
        print(f"bench: {args.workload} seed={args.seed} openblas_threads={blas_threads()} "
              f"cpus={os.cpu_count()}", file=sys.stderr)

        if args.trace:
            rounds, metrics, tr = traced_pass(wl, args.seconds)
            units = {**tracer.METRICS, **CHECK_UNITS}
            write_json(WORK / f"trace-{args.workload}.json",
                       {"workload": args.workload, "seed": args.seed, **tr.dump()})
            if tr.absent:
                print(f"bench: absent from the package: {', '.join(tr.absent)}", file=sys.stderr)
        else:
            rounds, setup_times = measure(wl, args.seconds)
            metrics = end_to_end(wl, setup_times, rounds)
            units = END_TO_END_UNITS

        attempted = sum(r.attempted for r in rounds)
        failed = sum(r.failed for r in rounds)
        done = [r for r in rounds if r.outputs is not None]
        correct = bool(done)
        rises = []
        try:
            if done:
                rises = wl.check(done)
        except checker.CheckFailed as exc:
            correct = False
            print(f"bench: check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    worst = max(rises, default=0.0)
    n_rises = sum(r > checker.ENERGY_RISE_SLACK for r in rises)
    print(f"bench: the energy trace rose by more than {checker.ENERGY_RISE_SLACK:g}*E0 in {n_rises} "
          f"of {len(rises)} checked solves; largest rise {worst:.3g}*E0", file=sys.stderr)
    if args.trace:
        metrics.update({"lca.energy_rise_max": worst, "lca.energy_rises": n_rises})

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    write_json(WORK / f"result-{args.workload}.json", result)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
