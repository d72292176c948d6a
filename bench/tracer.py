"""Spans and counters around the package's module-level functions.

A Tracer replaces each target function with a wrapper in every chirpcode
module that holds it (``chirpcode.lca.apply_kernel`` and
``chirpcode.adapt.apply_kernel`` alike) and restores the originals on exit.
Each wrapper records a span (name, start, end, parent) in memory and counts
the call; sizes are computed from array shapes, not measured. A target the
package no longer has is listed in ``absent`` and reported as zero.
"""

from __future__ import annotations

import pickle
import sys
import time
from collections import defaultdict

# (module, function, metric prefix). Metric names start with a letter, so the
# `_parallel` module reports under `parallel`.
TARGETS = (
    ("dictionary", "apply_kernel", "dictionary.apply_kernel"),
    ("dictionary", "overlap_add", "dictionary.overlap_add"),
    ("dictionary", "reconstruct", "dictionary.reconstruct"),
    ("dictionary", "project", "dictionary.project"),
    ("dictionary", "gram_kernel", "dictionary.gram_kernel"),
    ("dictionary", "make_dictionary", "dictionary.make_dictionary"),
    ("lca", "encode", "lca.encode"),
    ("lca", "trace_energy", "lca.trace_energy"),
    ("lca", "threshold", "lca.threshold"),
    ("lca", "energy", "lca.energy"),
    ("lca", "save_code", "lca.save_code"),
    ("adapt", "energy_gradient", "adapt.energy_gradient"),
    ("adapt", "_accumulate_lag_correlations", "adapt.lag_correlations"),
    ("adapt", "_contract_lags", "adapt.contract_lags"),
    ("adapt", "dictionary_jacobians", "adapt.jacobians"),
    ("adapt", "adamax_step", "adapt.adamax_step"),
    ("_parallel", "pmap", "parallel.pmap"),
    ("metrics", "snr", "metrics.snr"),
    ("metrics", "benchmark", "metrics.benchmark"),
    ("audio", "load_corpus", "audio.load_corpus"),
    ("cli", "cmd_encode", "cli.encode"),
)

PARALLEL_ONLY = ("parallel.pmap",)

# Per-layer metrics with their units, in the order they are reported.
METRICS = {
    "dictionary.apply_kernel_s": "s",
    "dictionary.apply_kernel_calls": "count",
    "dictionary.apply_kernel_gflop": "GFLOP",
    "dictionary.overlap_add_s": "s",
    "dictionary.overlap_add_calls": "count",
    "dictionary.reconstruct_s": "s",
    "dictionary.project_s": "s",
    "dictionary.gram_kernel_s": "s",
    "dictionary.gram_kernel_calls": "count",
    "dictionary.make_dictionary_s": "s",
    "dictionary.kernel_mb": "MB",
    "lca.encode_s": "s",
    "lca.encode_self_s": "s",
    "lca.encode_calls": "count",
    "lca.iters": "count",
    "lca.budget_stops": "count",
    "lca.trace_energy_s": "s",
    "lca.trace_energy_calls": "count",
    "lca.threshold_s": "s",
    "lca.energy_s": "s",
    "lca.save_code_s": "s",
    "lca.history_mb": "MB",
    "adapt.energy_gradient_s": "s",
    "adapt.energy_gradient_self_s": "s",
    "adapt.lag_correlations_s": "s",
    "adapt.contract_lags_s": "s",
    "adapt.jacobians_s": "s",
    "adapt.adamax_step_s": "s",
    "adapt.steps": "count",
    "parallel.pmap_s": "s",
    "parallel.pool_starts": "count",
    "parallel.task_mb": "MB",
    "metrics.snr_s": "s",
    "metrics.benchmark_s": "s",
    "audio.load_corpus_s": "s",
    "cli.encode_s": "s",
    "trace.untraced_round_s": "s",
    "trace.traced_round_s": "s",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def _apply_kernel_flops(args, kwargs, result):
    kernel, a = args[0], args[1]
    n_out, n_in, n_lags = kernel.entries.shape
    max_lag, t_frames = (n_lags - 1) // 2, a.shape[1]
    cols = sum(t_frames - abs(d) for d in range(-max_lag, max_lag + 1) if abs(d) < t_frames)
    return 2.0 * n_out * n_in * cols


class Tracer:
    """Context manager that wraps TARGETS (or the named subset) in the loaded package."""

    def __init__(self, only=None):
        self.targets = [t for t in TARGETS if only is None or t[2] in only]
        self.spans = []  # (name, start, end, parent span index or -1)
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = defaultdict(float)
        self.absent = []
        self._stack = []  # [span index, time spent in children]
        self._patched = []

    # -------------------------------------------------------------- patching
    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "chirpcode" or name.startswith("chirpcode."))]
        for mod_name, fn_name, metric in self.targets:
            home = sys.modules.get(f"chirpcode.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                self.absent.append(metric)
                continue
            wrapper = self._wrap(original, metric)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, fn, metric):
        after = getattr(self, "_after_" + metric.replace(".", "_"), None)

        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (metric, start, end, parent)
                self.calls[metric] += 1
                self.total[metric] += end - start
                self.child[metric] += frame[1]
                if self._stack:
                    self._stack[-1][1] += end - start
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------- computed sizes/counts
    def _after_dictionary_apply_kernel(self, args, kwargs, result):
        self.counts["dictionary.apply_kernel_gflop"] += _apply_kernel_flops(args, kwargs, result) / 1e9

    def _after_dictionary_gram_kernel(self, args, kwargs, result):
        self.counts["dictionary.kernel_mb"] = result.entries.nbytes / 1e6

    def _after_lca_encode(self, args, kwargs, result):
        config = kwargs.get("config", args[2] if len(args) > 2 else None)
        state = result[1]
        self.counts["lca.iters"] += state.iter
        self.counts["lca.budget_stops"] += int(state.iter == config.max_iters)
        if state.a_history:
            mb = sum(a.nbytes for a in state.a_history) / 1e6
            self.counts["lca.history_mb"] = max(self.counts["lca.history_mb"], mb)

    def _after_parallel_pmap(self, args, kwargs, result):
        items = list(kwargs.get("items", args[1] if len(args) > 1 else ()))
        jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
        if jobs > 1 and len(items) > 1:
            self.counts["parallel.pool_starts"] += 1
            self.counts["parallel.task_mb"] += sum(len(pickle.dumps(t)) for t in items) / 1e6

    # --------------------------------------------------------------- results
    def layer_metrics(self):
        """Totals for this trace: inclusive seconds, self seconds where named, calls, sizes.

        The trace.*_round_s and trace.overhead_pct figures compare two
        rounds, so the caller fills them in.
        """
        out = {}
        for name in METRICS:
            if name.startswith("trace."):
                continue
            if name.endswith("_self_s"):
                base = name[: -len("_self_s")]
                out[name] = self.total[base] - self.child[base]
            elif name.endswith("_s"):
                out[name] = self.total[name[: -len("_s")]]
            elif name.endswith("_calls"):
                out[name] = float(self.calls[name[: -len("_calls")]])
            else:
                out[name] = self.counts[name]
        out["adapt.steps"] = float(self.calls["adapt.adamax_step"])
        out["trace.spans"] = float(len(self.spans))
        return out

    def self_times(self):
        return {name: self.total[name] - self.child[name] for name in self.total}

    def dump(self):
        """Spans and aggregates as a JSON-ready dict; span times are relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[ids[n], round(a - t0, 7), round(b - t0, 7), p] for n, a, b, p in self.spans],
            "calls": dict(self.calls),
            "inclusive_s": dict(self.total),
            "self_s": self.self_times(),
            "computed": dict(self.counts),
            "absent": self.absent,
        }
