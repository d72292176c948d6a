"""Command-line interface.

Subcommands: build-dict, encode, decode, adapt, benchmark, export-events.
Option precedence is flags > --config file > defaults. Only the values a
flag or the file set are forwarded: ``LcaConfig`` and ``AdaptConfig`` hold
the other defaults and check every value. ``--config`` is taken by the
commands that read settings, ``--jobs`` by those that start workers. Exit
codes: 0 success, 1 runtime failure (an ``OSError`` included), 2 usage or
configuration error, such as an output directory that does not exist.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

from ._parallel import default_jobs, workers
from .adapt import (
    MODE_ALCA,
    PARAM_NAMES,
    AdaptConfig,
    ParamBounds,
    adapt_corpus,
    default_bounds,
    write_history_csv,
)
from .audio import ManifestEntry, load_corpus, parse_manifest, save_wav
from .dictionary import (
    init_gammatone_dictionary,
    load_dictionary,
    reconstruct,
    save_dictionary,
)
from .errors import (
    ChirpcodeError,
    CodeError,
    ConfigError,
    ParameterError,
    config_value,
)
from .lca import LcaConfig, export_events_csv, load_code, save_code
from .metrics import (
    benchmark,
    check_dictionaries,
    corpus_signals,
    map_stacks,
    raise_first_failure,
    reports_and_codes,
    write_report_csv,
    write_report_json,
    write_summary_csv,
    write_summary_json,
)

USAGE_EXIT = 2
RUNTIME_EXIT = 1

# LcaConfig.lam has no default, so the CLI gives one; LcaConfig and AdaptConfig
# default every other solver and adaptation setting.
DEFAULT_LAMBDA = 0.00045

LCA_KEYS = tuple(f.name for f in fields(LcaConfig))
ADAPT_KEYS = tuple(f.name for f in fields(AdaptConfig))


def _read_config_file(path) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    if "lambda" in payload:
        if "lam" in payload:
            raise ConfigError(f"config file {path} sets both 'lam' and 'lambda'")
        payload["lam"] = payload.pop("lambda")
    return payload


def _settings(args, keys) -> dict:
    """The values of ``keys`` that the --config file or a flag set; flags win."""
    settings = {}
    if args.config:
        settings = _read_config_file(args.config)
        unknown = set(settings) - set(keys)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    for key in ("dict", "manifest", "out", "history"):
        value = settings.get(key)
        if value is not None and not (isinstance(value, str) and value):
            raise ConfigError(f"{key} must be a non-empty path string, got {value!r}")
    return settings


def _configs(settings: dict) -> tuple:
    """LcaConfig and AdaptConfig of the settings given; the classes default the rest."""
    lca = {key: settings[key] for key in LCA_KEYS if key in settings}
    adapt = {key: settings[key] for key in ADAPT_KEYS if key in settings}
    return (LcaConfig(**{"lam": DEFAULT_LAMBDA, **lca}),
            AdaptConfig(**{"mode": MODE_ALCA, **adapt}))


def _add_lca_flags(sub):
    sub.add_argument("--lambda", dest="lam", type=float, help="activation threshold")
    sub.add_argument("--eta", type=float, help="Euler step (dt/tau)")
    sub.add_argument("--max-iters", dest="max_iters", type=int, help="iteration budget")
    sub.add_argument("--rel-tol", dest="rel_tol", type=float,
                     help="relative energy-change stop tolerance")


def _add_common_flags(sub, *, config=False, jobs=False):
    if config:
        sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--json-errors", action="store_true",
                     help="emit failures as JSON on stderr")
    if jobs:
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


def _check_parent_dir(path, made=None) -> None:
    """Refuse an output path whose directory does not exist, before any work.

    ``made`` is a directory the command creates (with its parents) before it
    writes ``path``, so ``path`` may lie in it or in one of its ancestors.
    """
    parent = Path(path).parent
    if made is not None and parent.resolve() in (made.resolve(), *made.resolve().parents):
        return
    if not parent.is_dir():
        raise ConfigError(f"cannot write {path}: directory {parent} does not exist")


def _gather_utterances(manifest, wavs, sample_rate, normalize):
    """The utterances of a manifest, then of WAV paths named by their stems,
    loaded by load_corpus as one corpus at ``sample_rate``."""
    entries = parse_manifest(manifest) if manifest else ()
    entries += tuple(ManifestEntry(Path(w), Path(w).stem, None) for w in wavs)
    return load_corpus(entries, sample_rate, normalize=normalize)


# ---------------------------------------------------------------- build-dict

# Each setting's type; the frequency range defaults to default_bounds(sr).f.
BUILD_TYPES = {"channels": int, "f_min": float, "f_max": float,
               "filter_len": int, "stride": int, "sr": int}
BUILD_DEFAULTS = {"channels": 700, "filter_len": 1024, "stride": 512, "sr": 48000}


def cmd_build_dict(args) -> int:
    settings = _settings(args, (*BUILD_TYPES, "out"))
    out = settings.pop("out", None)
    if not out:
        raise ConfigError("--out is required")
    _check_parent_dir(out)
    cfg = {**BUILD_DEFAULTS,
           **{key: config_value(key, value, BUILD_TYPES[key]) for key, value in settings.items()}}
    f_min, f_max = default_bounds(cfg["sr"]).f
    d = init_gammatone_dictionary(cfg["channels"], cfg.get("f_min", f_min), cfg.get("f_max", f_max),
                                  cfg["filter_len"], cfg["stride"], cfg["sr"])
    save_dictionary(d, out)
    print(
        f"wrote {d.n_channels} channels spanning {d.f.min():.1f}-{d.f.max():.1f} Hz "
        f"(filter_len={d.filter_len}, stride={d.stride}, sr={d.sample_rate}) to {out}"
    )
    return 0


# -------------------------------------------------------------------- encode

def cmd_encode(args) -> int:
    # alpha is checked, and defaulted, as AdaptConfig.alpha
    lca_cfg, adapt_cfg = _configs(_settings(args, (*LCA_KEYS, "alpha")))
    if not args.wavs and not args.manifest:
        raise ConfigError("no input utterances (give WAV paths or --manifest)")
    out_dir = Path(args.out_dir)
    if args.report:
        _check_parent_dir(args.report, made=out_dir)
    d = load_dictionary(args.dict)
    utterances = _gather_utterances(args.manifest, args.wavs, d.sample_rate, args.normalize)
    ids, signals = corpus_signals(utterances, d.sample_rate)
    out_dir.mkdir(parents=True, exist_ok=True)
    with workers(min(args.jobs, len(ids))):
        results = map_stacks(reports_and_codes, ids, signals, d, args.jobs,
                             lca_cfg, adapt_cfg.alpha)
    raise_first_failure(ids, results)

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

def _code_stems(code_paths) -> list:
    """Each code file's name without ``.json`` or ``.code.json``; two files
    with one stem would write one output, so that is a ConfigError."""
    stems = []
    for code_path in code_paths:
        stem = Path(code_path).stem
        if stem.endswith(".code"):
            stem = stem[: -len(".code")]
        if stem in stems:
            raise ConfigError(f"two code files are named {stem!r}; their outputs would collide")
        stems.append(stem)
    return stems


def cmd_decode(args) -> int:
    stems = _code_stems(args.codes)
    d = load_dictionary(args.dict)
    codes = []
    for code_path in args.codes:
        code = load_code(code_path)
        if code.n_channels != d.n_channels:
            raise CodeError(
                f"{code_path}: code has {code.n_channels} channels, "
                f"dictionary has {d.n_channels}"
            )
        codes.append(code)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for code, stem in zip(codes, stems):
        save_wav(out_dir / f"{stem}.wav", reconstruct(d, code), d.sample_rate)
    print(f"decoded {len(args.codes)} code file(s) into {out_dir}")
    return 0


# --------------------------------------------------------------------- adapt

# The adapt command's own settings, next to those of LcaConfig and AdaptConfig.
ADAPT_FILES = {"manifest": None, "dict": None, "out": None, "history": None, "normalize": False}


def _bounds(raw, sample_rate) -> ParamBounds:
    """A config file's bounds object; the ranges it leaves out are default_bounds'."""
    if not (isinstance(raw, dict) and set(raw) <= set(PARAM_NAMES)):
        raise ConfigError("bounds must be an object like {\"f\": [lo, hi], ...}")
    return replace(default_bounds(sample_rate), **raw)


def cmd_adapt(args) -> int:
    settings = _settings(args, (*ADAPT_KEYS, *ADAPT_FILES, *LCA_KEYS))
    raw_bounds = settings.pop("bounds", None)
    lca_cfg, adapt_cfg = _configs(settings)
    files = {key: settings.get(key, default) for key, default in ADAPT_FILES.items()}
    for key in ("dict", "manifest", "out"):
        if files[key] is None:
            raise ConfigError(f"--{key} is required (flag or config file)")
    if files["history"] is None:
        files["history"] = files["out"] + ".history.csv"
    if not isinstance(files["normalize"], bool):
        raise ConfigError(f"normalize must be true or false, got {files['normalize']!r}")
    d0 = load_dictionary(files["dict"])
    if raw_bounds is not None:
        adapt_cfg = replace(adapt_cfg, bounds=_bounds(raw_bounds, d0.sample_rate))
    _check_parent_dir(files["out"])
    _check_parent_dir(files["history"])
    corpus = _gather_utterances(files["manifest"], [], d0.sample_rate, files["normalize"])
    d, history = adapt_corpus(corpus, d0, lca_cfg, adapt_cfg, jobs=args.jobs)
    save_dictionary(d, files["out"])
    write_history_csv(history, files["history"])

    # The bounds the run clamped to, so that the sidecar's config replays the run
    bounds = asdict(adapt_cfg.bounds or default_bounds(d0.sample_rate))
    sidecar = {
        "command": "adapt",
        "completed_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {**asdict(adapt_cfg), "bounds": bounds, **files, **asdict(lca_cfg)},
    }
    with open(files["out"] + ".meta.json", "w") as fh:
        json.dump(sidecar, fh, indent=1)
        fh.write("\n")

    if history:
        last = history[-1]
        print(
            f"adapted {d.n_channels} channels over {adapt_cfg.epochs} epoch(s); "
            f"final mean energy {last.mean_energy:.6g}, mean SNR {last.mean_snr_db:.2f} dB, "
            f"mean active {last.mean_active_count:.1f} -> {files['out']}"
        )
    else:
        print(f"no epochs requested; copied initial dictionary to {files['out']}")
    return 0


# ----------------------------------------------------------------- benchmark

def cmd_benchmark(args) -> int:
    lca_cfg, _ = _configs(_settings(args, LCA_KEYS))
    named = []
    for pair in args.dicts:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ConfigError(f"--dict expects NAME=PATH, got {pair!r}")
        named.append((name, load_dictionary(path)))
    if not named:
        raise ConfigError("at least one --dict NAME=PATH is required")
    check_dictionaries(named)
    _check_parent_dir(f"{args.out_prefix}report.csv")
    corpus = _gather_utterances(args.manifest, [], named[0][1].sample_rate, args.normalize)
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
    stems = _code_stems(args.codes)
    codes = [load_code(code_path) for code_path in args.codes]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for code, stem in zip(codes, stems):
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
    p.add_argument("--f-min", dest="f_min", type=float,
                   help="lowest centre frequency (Hz); default: that of default_bounds(sr)")
    p.add_argument("--f-max", dest="f_max", type=float,
                   help="highest centre frequency (Hz); default: that of default_bounds(sr)")
    p.add_argument("--filter-len", dest="filter_len", type=int, help="filter length (samples)")
    p.add_argument("--stride", type=int, help="frame hop (samples)")
    p.add_argument("--sr", type=int, help="sample rate (Hz)")
    p.add_argument("--out", help="output dictionary JSON path")
    _add_common_flags(p, config=True)
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
    _add_common_flags(p, config=True, jobs=True)
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
    _add_common_flags(p, config=True, jobs=True)
    p.set_defaults(func=cmd_adapt)

    p = subs.add_parser("benchmark", help="compare dictionaries on a corpus")
    p.add_argument("--manifest", required=True, help="corpus manifest CSV")
    p.add_argument("--dict", dest="dicts", action="append", default=[],
                   metavar="NAME=PATH", help="named dictionary (repeatable)")
    p.add_argument("--out-prefix", dest="out_prefix", default="benchmark_",
                   help="prefix for report/summary CSV and JSON outputs")
    p.add_argument("--normalize", action="store_true", help="peak-normalize each utterance")
    _add_lca_flags(p)
    _add_common_flags(p, config=True, jobs=True)
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
        if "jobs" in vars(args):
            args.jobs = _jobs(args)
        return args.func(args)
    except (ChirpcodeError, OSError) as exc:
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
