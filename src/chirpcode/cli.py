"""Command-line interface.

Subcommands: build-dict, encode, decode, adapt, benchmark, export-events.
Option precedence is flags > --config file > built-in defaults. Exit codes:
0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from pathlib import Path

from ._parallel import default_jobs
from .adapt import (
    AdaptConfig,
    ParamBounds,
    adapt_corpus,
    default_bounds,
    write_history_csv,
)
from .audio import load_corpus, load_wav, save_wav
from .dictionary import (
    gram_kernel,
    init_gammatone_dictionary,
    load_dictionary,
    reconstruct,
    save_dictionary,
)
from .errors import (
    AudioIngestError,
    ChirpcodeError,
    CodeError,
    ConfigError,
    ParameterError,
)
from .lca import LcaConfig, export_events_csv, load_code, save_code
from .metrics import (
    benchmark,
    encode_corpus,
    write_report_csv,
    write_report_json,
    write_summary_csv,
    write_summary_json,
)

USAGE_EXIT = 2
RUNTIME_EXIT = 1


def _read_config_file(path) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if "lambda" in payload:
        payload["lam"] = payload.pop("lambda")
    return payload


def _merge(args, defaults: dict) -> dict:
    """Apply precedence flags > config file > defaults for the given keys."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        file_cfg = _read_config_file(config_path)
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _lca_config(cfg: dict) -> LcaConfig:
    return LcaConfig(
        lam=float(cfg["lam"]),
        eta=float(cfg["eta"]),
        max_iters=int(cfg["max_iters"]),
        rel_tol=float(cfg["rel_tol"]),
    )


LCA_DEFAULTS = {"lam": 0.00045, "eta": 0.1, "max_iters": 500, "rel_tol": 1e-6}


def _add_lca_flags(sub):
    sub.add_argument("--lambda", dest="lam", type=float, help="activation threshold")
    sub.add_argument("--eta", type=float, help="Euler step (dt/tau)")
    sub.add_argument("--max-iters", dest="max_iters", type=int, help="iteration budget")
    sub.add_argument("--rel-tol", dest="rel_tol", type=float,
                     help="relative energy-change stop tolerance")


def _add_common_flags(sub):
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--json-errors", action="store_true",
                     help="emit failures as JSON on stderr")
    sub.add_argument("--jobs", type=int, default=None,
                     help="worker processes, >= 1 (default: CHIRPCODE_JOBS, else the "
                          "CPUs this process may use)")


def _jobs(args) -> int:
    """The --jobs value, checked, or default_jobs() when it is not given."""
    if args.jobs is None:
        return default_jobs()
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


def _gather_utterances(args, d):
    """Collect utterances from --manifest and/or positional WAV paths."""
    utterances = []
    if getattr(args, "manifest", None):
        utterances.extend(
            load_corpus(args.manifest, d.sample_rate, normalize=args.normalize)
        )
    for wav in getattr(args, "wavs", []) or []:
        utt = load_wav(wav, normalize=args.normalize)
        if utt.sample_rate != d.sample_rate:
            raise AudioIngestError(
                f"{wav}: sample rate {utt.sample_rate} does not match "
                f"dictionary rate {d.sample_rate}"
            )
        utterances.append(utt)
    ids = [u.id for u in utterances]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise AudioIngestError(f"duplicate utterance ids: {dupes}")
    if not utterances:
        raise ConfigError("no input utterances (give WAV paths or --manifest)")
    return utterances


# ---------------------------------------------------------------- build-dict

BUILD_DEFAULTS = {
    "channels": 700, "f_min": 20.0, "f_max": None,
    "filter_len": 1024, "stride": 512, "sr": 48000, "out": None,
}


def cmd_build_dict(args) -> int:
    cfg = _merge(args, BUILD_DEFAULTS)
    if not cfg["out"]:
        raise ConfigError("--out is required")
    sr = int(cfg["sr"])
    f_max = cfg["f_max"] if cfg["f_max"] is not None else 0.45 * sr
    d = init_gammatone_dictionary(
        n_channels=int(cfg["channels"]),
        f_min=float(cfg["f_min"]),
        f_max=float(f_max),
        filter_len=int(cfg["filter_len"]),
        stride=int(cfg["stride"]),
        sample_rate=sr,
    )
    save_dictionary(d, cfg["out"])
    print(
        f"wrote {d.n_channels} channels spanning {d.f.min():.1f}-{d.f.max():.1f} Hz "
        f"(filter_len={d.filter_len}, stride={d.stride}, sr={d.sample_rate}) to {cfg['out']}"
    )
    return 0


# -------------------------------------------------------------------- encode

def cmd_encode(args) -> int:
    defaults = dict(LCA_DEFAULTS, alpha=1.0)
    cfg = _merge(args, defaults)
    lca_cfg = _lca_config(cfg)
    d = load_dictionary(args.dict)
    utterances = _gather_utterances(args, d)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    ids = [u.id for u in utterances]
    # One pmap call inside, so its own pool is the command's one pool.
    results = encode_corpus(ids, [u.samples for u in utterances], d, lca_cfg,
                            gram_kernel(d), float(cfg["alpha"]), args.jobs)
    for uid, result in zip(ids, results):
        if isinstance(result, ChirpcodeError):
            raise type(result)(f"utterance {uid!r}: {result}") from result

    report_path = args.report or out_dir / "encode_report.csv"
    with open(report_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["utterance", "snr_db", "active_count", "n_frames", "energy"])
        for row, code in results:
            save_code(code, out_dir / f"{row.id}.code.json")
            writer.writerow(
                [row.id, repr(row.snr_db), row.active_count, row.n_frames, repr(row.energy)]
            )
    print(f"encoded {len(results)} utterance(s) into {out_dir} (report: {report_path})")
    return 0


# -------------------------------------------------------------------- decode

def cmd_decode(args) -> int:
    d = load_dictionary(args.dict)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for code_path in args.codes:
        code = load_code(code_path)
        if code.n_channels != d.n_channels:
            raise CodeError(
                f"{code_path}: code has {code.n_channels} channels, "
                f"dictionary has {d.n_channels}"
            )
        stem = Path(code_path).stem
        if stem.endswith(".code"):
            stem = stem[: -len(".code")]
        samples = reconstruct(d, code)
        save_wav(out_dir / f"{stem}.wav", samples, d.sample_rate)
    print(f"decoded {len(args.codes)} code file(s) into {out_dir}")
    return 0


# --------------------------------------------------------------------- adapt

ADAPT_DEFAULTS = {
    "mode": "alca", "lr_mod": 1e-3, "lr_cf": 1.0, "alpha": 1.0,
    "tbptt_window": 50, "epochs": 10, "batch_size": 8, "seed": 0,
    "bounds": None, "manifest": None, "dict": None, "out": None,
    "history": None, "normalize": False,
    **LCA_DEFAULTS,
}


def _parse_bounds(raw, sample_rate) -> ParamBounds:
    if raw is None:
        return default_bounds(sample_rate)
    if not isinstance(raw, dict):
        raise ConfigError("bounds must be an object like {\"f\": [lo, hi], ...}")
    base = default_bounds(sample_rate)
    kwargs = {}
    for name in ("f", "b", "l", "c"):
        if name in raw:
            lo, hi = raw[name]
            kwargs[name] = (float(lo), float(hi))
        else:
            kwargs[name] = getattr(base, name)
    return ParamBounds(**kwargs)


def cmd_adapt(args) -> int:
    cfg = _merge(args, ADAPT_DEFAULTS)
    for key in ("dict", "manifest", "out"):
        if not cfg[key]:
            raise ConfigError(f"--{key} is required (flag or config file)")
    d0 = load_dictionary(cfg["dict"])
    corpus = load_corpus(cfg["manifest"], d0.sample_rate, normalize=bool(cfg["normalize"]))
    if not corpus:
        raise ConfigError("corpus is empty; nothing to adapt")
    lca_cfg = _lca_config(cfg)
    adapt_cfg = AdaptConfig(
        mode=str(cfg["mode"]),
        lr_mod=float(cfg["lr_mod"]),
        lr_cf=float(cfg["lr_cf"]),
        alpha=float(cfg["alpha"]),
        tbptt_window=int(cfg["tbptt_window"]),
        epochs=int(cfg["epochs"]),
        batch_size=int(cfg["batch_size"]),
        bounds=_parse_bounds(cfg["bounds"], d0.sample_rate),
        seed=int(cfg["seed"]),
    )
    d, history = adapt_corpus(corpus, d0, lca_cfg, adapt_cfg, jobs=args.jobs)
    save_dictionary(d, cfg["out"])
    history_path = cfg["history"] or str(cfg["out"]) + ".history.csv"
    write_history_csv(history, history_path)

    sidecar = {
        "command": "adapt",
        "completed_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {k: v for k, v in cfg.items() if k != "bounds"},
    }
    with open(str(cfg["out"]) + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=1)
        fh.write("\n")

    if history:
        last = history[-1]
        print(
            f"adapted {d.n_channels} channels over {adapt_cfg.epochs} epoch(s); "
            f"final mean energy {last.mean_energy:.6g}, mean SNR {last.mean_snr_db:.2f} dB, "
            f"mean active {last.mean_active_count:.1f} -> {cfg['out']}"
        )
    else:
        print(f"no epochs requested; copied initial dictionary to {cfg['out']}")
    return 0


# ----------------------------------------------------------------- benchmark

def cmd_benchmark(args) -> int:
    cfg = _merge(args, dict(LCA_DEFAULTS))
    lca_cfg = _lca_config(cfg)
    named = []
    for pair in args.dicts:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ConfigError(f"--dict expects NAME=PATH, got {pair!r}")
        named.append((name, load_dictionary(path)))
    if not named:
        raise ConfigError("at least one --dict NAME=PATH is required")
    corpus = load_corpus(args.manifest, named[0][1].sample_rate, normalize=args.normalize)
    if not corpus:
        raise ConfigError("corpus is empty; nothing to benchmark")
    report = benchmark(corpus, named, lca_cfg, jobs=args.jobs)

    prefix = args.out_prefix
    write_report_csv(report, f"{prefix}report.csv")
    write_summary_csv(report, f"{prefix}summary.csv")
    write_report_json(report, f"{prefix}report.json")
    write_summary_json(report, f"{prefix}summary.json")
    for s in report.summaries:
        print(
            f"{s.name}: mean SNR {s.mean_snr_db:.2f} dB, "
            f"mean active {s.mean_active_count:.1f} "
            f"({s.n_utterances} utterances, {s.n_snr_excluded} infinite excluded)"
        )
    if report.partial:
        print(f"warning: {len(report.failures)} utterance(s) failed; report is partial")
    return 0


# ------------------------------------------------------------- export-events

def cmd_export_events(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for code_path in args.codes:
        code = load_code(code_path)
        stem = Path(code_path).stem
        if stem.endswith(".code"):
            stem = stem[: -len(".code")]
        export_events_csv(code, out_dir / f"{stem}.events.csv")
    print(f"exported {len(args.codes)} event stream(s) into {out_dir}")
    return 0


# ---------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirpcode",
        description="Sparse audio coding on a strided Gammachirp dictionary.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build-dict", help="write a log-spaced Gammatone dictionary")
    p.add_argument("--channels", type=int, help="number of channels (>= 2)")
    p.add_argument("--f-min", dest="f_min", type=float, help="lowest centre frequency (Hz)")
    p.add_argument("--f-max", dest="f_max", type=float,
                   help="highest centre frequency (Hz); default 0.45*sr")
    p.add_argument("--filter-len", dest="filter_len", type=int, help="filter length (samples)")
    p.add_argument("--stride", type=int, help="frame hop (samples)")
    p.add_argument("--sr", type=int, help="sample rate (Hz)")
    p.add_argument("--out", help="output dictionary JSON path")
    _add_common_flags(p)
    p.set_defaults(func=cmd_build_dict)

    p = subs.add_parser("encode", help="encode WAV files to sparse codes")
    p.add_argument("wavs", nargs="*", help="input WAV files")
    p.add_argument("--manifest", help="corpus manifest CSV (path,id,label)")
    p.add_argument("--dict", required=True, help="dictionary JSON path")
    p.add_argument("--out-dir", dest="out_dir", required=True, help="output directory")
    p.add_argument("--report", help="per-utterance report CSV path")
    p.add_argument("--alpha", type=float, help="sparsity weight used in reported energy")
    p.add_argument("--normalize", action="store_true", help="peak-normalize each utterance")
    _add_lca_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_encode)

    p = subs.add_parser("decode", help="reconstruct WAV files from sparse codes")
    p.add_argument("codes", nargs="+", help="code JSON files")
    p.add_argument("--dict", required=True, help="dictionary JSON path")
    p.add_argument("--out-dir", dest="out_dir", required=True, help="output directory")
    _add_common_flags(p)
    p.set_defaults(func=cmd_decode)

    p = subs.add_parser("adapt", help="adapt a dictionary over a corpus (ALCA / ALCA-CF)")
    p.add_argument("--dict", help="initial dictionary JSON path")
    p.add_argument("--manifest", help="corpus manifest CSV")
    p.add_argument("--out", help="adapted dictionary JSON path")
    p.add_argument("--history", help="history CSV path (default: OUT.history.csv)")
    p.add_argument("--mode", choices=["alca", "alca-cf"], help="adaptation mode")
    p.add_argument("--lr-mod", dest="lr_mod", type=float,
                   help="learning rate for c, b, l")
    p.add_argument("--lr-cf", dest="lr_cf", type=float,
                   help="learning rate for centre frequencies (alca-cf)")
    p.add_argument("--alpha", type=float, help="sparsity/reconstruction trade-off")
    p.add_argument("--tbptt-window", dest="tbptt_window", type=int,
                   help="iterations unrolled by the reverse pass")
    p.add_argument("--epochs", type=int, help="adaptation epochs")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="mini-batch size")
    p.add_argument("--seed", type=int, help="corpus shuffling seed")
    # store_const keeps the unset flag as None so a config-file value survives
    # the precedence merge
    p.add_argument("--normalize", action="store_const", const=True, default=None,
                   help="peak-normalize each utterance")
    _add_lca_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_adapt)

    p = subs.add_parser("benchmark", help="compare dictionaries on a corpus")
    p.add_argument("--manifest", required=True, help="corpus manifest CSV")
    p.add_argument("--dict", dest="dicts", action="append", default=[],
                   metavar="NAME=PATH", help="named dictionary (repeatable)")
    p.add_argument("--out-prefix", dest="out_prefix", default="benchmark_",
                   help="prefix for report/summary CSV and JSON outputs")
    p.add_argument("--normalize", action="store_true", help="peak-normalize each utterance")
    _add_lca_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=cmd_benchmark)

    p = subs.add_parser("export-events", help="export code events as CSV streams")
    p.add_argument("codes", nargs="+", help="code JSON files")
    p.add_argument("--out-dir", dest="out_dir", required=True, help="output directory")
    _add_common_flags(p)
    p.set_defaults(func=cmd_export_events)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.jobs = _jobs(args)
        return args.func(args)
    except ChirpcodeError as exc:
        exit_code = (
            USAGE_EXIT
            if isinstance(exc, (ConfigError, ParameterError))
            else RUNTIME_EXIT
        )
        if getattr(args, "json_errors", False):
            print(
                json.dumps({"error": type(exc).__name__, "message": str(exc)}),
                file=sys.stderr,
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return exit_code


if __name__ == "__main__":
    sys.exit(main())
