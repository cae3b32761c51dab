"""Span tracing of the aaacq package from outside its source.

`Tracer` records one span per call that crosses a module boundary of the
package: name, start, end, parent span, thread, the CPU time of its thread
while it was open, an optional count and, when `tracemalloc` is on, the peak
traced allocation growth while the span was open.  `install` swaps the wrappers into the namespaces the calling modules
look their callees up in (`from .x import f` bindings and `import x` module
references), so nothing under `src/` changes.  `derive` turns the spans of a
run into the per-module metrics the benchmark reports.

Only functions are wrapped; the wrappers return the callee's result
untouched, so traced output bytes must equal untraced ones.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import tracemalloc
import types

import numpy as np

LAYERS = ("tensors", "grids", "quantizers", "codebooks", "packfmt", "metrics", "cli")

# Functions also wrapped in their own module, for calls that cross no module:
# the nearest-entry search under rtn/if4, the learner stages of
# codebooks.learn, the per-layer metric helpers metrics.compare calls, and the
# private per-layer tasks and thread pool that show the parallel sections.
OWN_MODULE = {
    "quantizers": ("recon_codes",),
    "codebooks": ("importance", "init_tables", "select_tables"),
    "metrics": ("layer_metrics", "layer_output_mse", "_run_method"),
    "cli": ("_parallel_map", "_quantize_layer"),
}
PER_TASK = ("cli._quantize_layer", "metrics._run_method", "metrics.layer_metrics")
PARALLEL = ("cli._parallel_map", "metrics.compare")


def _values_searched(args, kwargs):
    return int(np.size(kwargs.get("values", args[1] if len(args) > 1 else ())))


def _file_bytes(args, kwargs):
    return os.path.getsize(kwargs.get("path", args[0]))


# What a span counts besides its call, keyed by span name.
COUNTERS = {
    "quantizers.recon_codes": _values_searched,
    "packfmt.write_pack": _file_bytes,
    "packfmt.read_pack": _file_bytes,
}


class Tracer:
    """Collects spans in memory; thread-safe."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: dict[int, dict] = {}
        self._stacks: dict[int, list[dict]] = {}
        self._lock = threading.Lock()
        self._main = threading.get_ident()

    def _watermark(self) -> int:
        # Called under the lock: hand the peak since the last reset to every
        # open span, so concurrent spans never lose a peak to another's reset.
        if not tracemalloc.is_tracing():
            return 0
        current, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        for span in self._open.values():
            span["peak"] = max(span["peak"], peak)
        return current

    def open(self, name: str) -> dict:
        start, start_cpu = time.perf_counter(), time.thread_time()
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            # A pool worker's first span belongs to whatever the submitting
            # (main) thread has open.
            parents = stack or self._stacks.get(self._main, [])
            current = self._watermark()
            span = {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": None,
                "parent": parents[-1]["id"] if parents else None,
                "thread": tid,
                "count": None,
                "cpu": start_cpu,
                "base": current,
                "peak": current,
            }
            self.spans.append(span)
            self._open[span["id"]] = span
            stack.append(span)
        return span

    def close(self, span: dict, count=None) -> None:
        end, end_cpu = time.perf_counter(), time.thread_time()
        with self._lock:
            self._watermark()
            del self._open[span["id"]]
            self._stacks[span["thread"]].pop()
            span["end"] = end
            span["cpu"] = end_cpu - span["cpu"]
            span["count"] = count

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            count = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    count = counter(args, kwargs)
                return result
            finally:
                self.close(span, count)

        return traced

    def records(self) -> list[dict]:
        """Closed spans as plain dicts, with peak allocation growth in bytes."""
        out = []
        for s in self.spans:
            if s["end"] is None:
                continue
            rec = {k: s[k] for k in ("id", "name", "start", "end", "parent", "thread", "cpu", "count")}
            rec["peak_alloc"] = s["peak"] - s["base"]
            out.append(rec)
        return out


def install(tracer: Tracer, package) -> list[tuple[object, str, object]]:
    """Wrap every cross-module call site of the package's layer modules.

    Returns the (namespace, attribute, original) triples `uninstall` needs.
    """
    modules = {name: getattr(package, name) for name in LAYERS}
    by_module = {m.__name__: short for short, m in modules.items()}
    originals = {short: dict(vars(m)) for short, m in modules.items()}

    # An `import x` reference gets a copy of x whose public functions are wrapped.
    proxies = {}
    for short, mod in modules.items():
        proxy = types.ModuleType(mod.__name__)
        proxy.__dict__.update(originals[short])
        for attr, fn in originals[short].items():
            if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                    and not attr.startswith("_")):
                setattr(proxy, attr, tracer.wrap(f"{short}.{attr}", fn))
        proxies[short] = proxy

    patches = []
    for caller, mod in modules.items():
        for attr, value in originals[caller].items():
            if isinstance(value, types.ModuleType) and value.__name__ in by_module:
                callee = by_module[value.__name__]
                if callee != caller:
                    patches.append((mod, attr, proxies[callee]))
            elif (
                isinstance(value, types.FunctionType)
                and value.__module__ in by_module
                and value.__module__ != mod.__name__
                and not attr.startswith("_")
            ):
                callee = by_module[value.__module__]
                patches.append((mod, attr, tracer.wrap(f"{callee}.{value.__name__}", value)))
        for attr in OWN_MODULE.get(caller, ()):
            patches.append((mod, attr, tracer.wrap(f"{caller}.{attr}", originals[caller][attr])))

    undo = []
    for namespace, attr, new in patches:
        undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, new)
    return undo


def uninstall(undo) -> None:
    for namespace, attr, original in reversed(undo):
        setattr(namespace, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def duration(span) -> float:
    return span["end"] - span["start"]


def descendants(spans, root_id) -> list[dict]:
    children: dict[int, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out, todo = [], [root_id]
    while todo:
        for child in children.get(todo.pop(), ()):
            out.append(child)
            todo.append(child["id"])
    return out


def self_time(spans, span, keep=lambda s: True) -> float:
    """Duration of `span` minus the part of it its descendants cover.

    Descendants run on any thread and may overlap; only the union of their
    intervals, clipped to the span, is subtracted.  `keep` selects which
    descendants count.
    """
    lo, hi = span["start"], span["end"]
    covered = [
        (max(d["start"], lo), min(d["end"], hi))
        for d in descendants(spans, span["id"])
        if keep(d) and d["end"] > lo and d["start"] < hi
    ]
    return duration(span) - union_length(covered)


def _ancestors(by_id, span):
    parent = span["parent"]
    while parent is not None:
        span = by_id[parent]
        yield span
        parent = span["parent"]


def derive(runs, threads: int) -> dict[str, float]:
    """Per-module metrics from the span lists of one workload's commands.

    `runs` holds one list of span records per traced command; span ids are
    unique within a list only.
    """
    m: dict[str, float] = {}

    def named(*names):
        return [s for spans in runs for s in spans if s["name"] in names]

    def seconds(*names):
        return sum(duration(s) for s in named(*names))

    def peak_mb(*names):
        return max((s["peak_alloc"] for s in named(*names)), default=0) / 2**20

    read = ("tensors.load_tensor_archive", "tensors.read_tensors")
    m["tensors.read_s"] = seconds(*read)
    m["tensors.read_peak_alloc_mb"] = peak_mb(*read)
    m["tensors.write_s"] = seconds("tensors.write_tensors")
    m["grids.compute_scales_s"] = seconds("grids.compute_scales")
    m["grids.compute_scales_calls"] = len(named("grids.compute_scales"))
    recon = named("quantizers.recon_codes")
    m["quantizers.recon_codes_s"] = sum(duration(s) for s in recon)
    m["quantizers.recon_codes_calls"] = len(recon)
    m["quantizers.recon_codes_values"] = sum(s["count"] or 0 for s in recon)
    m["quantizers.rtn_quantize_s"] = seconds("quantizers.rtn_quantize")
    m["quantizers.if4_quantize_s"] = seconds("quantizers.if4_quantize")
    m["quantizers.dequantize_s"] = seconds("quantizers.dequantize", "quantizers.dequantize_rtn")

    learn_s = learn_self = learn_recon = 0.0
    for spans in runs:
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            if s["name"] != "codebooks.learn":
                continue
            learn_s += duration(s)
            learn_self += self_time(
                spans, s, lambda d: d["name"].split(".")[0] in ("quantizers", "grids")
            )
        for s in spans:
            if s["name"] == "quantizers.recon_codes" and any(
                a["name"] == "codebooks.learn" for a in _ancestors(by_id, s)
            ):
                learn_recon += duration(s)
    m["codebooks.learn_s"] = learn_s
    m["codebooks.learn_self_s"] = learn_self
    m["codebooks.learn_calls"] = len(named("codebooks.learn"))
    m["codebooks.learn_recon_share"] = learn_recon / learn_s if learn_s else 0.0
    m["codebooks.importance_s"] = seconds("codebooks.importance")
    m["codebooks.learn_peak_alloc_mb"] = peak_mb("codebooks.learn")

    m["packfmt.pack_s"] = seconds("packfmt.pack")
    m["packfmt.unpack_s"] = seconds("packfmt.unpack")
    m["packfmt.write_s"] = seconds("packfmt.write_pack")
    m["packfmt.read_s"] = seconds("packfmt.read_pack")
    m["packfmt.bytes"] = sum(s["count"] or 0 for s in named("packfmt.write_pack", "packfmt.read_pack"))

    m["metrics.layer_metrics_s"] = seconds("metrics.layer_metrics")
    m["metrics.layer_output_mse_s"] = seconds("metrics.layer_output_mse")
    m["metrics.compare_self_s"] = sum(
        self_time(spans, s) for spans in runs for s in spans if s["name"] == "metrics.compare"
    )

    busy = section = serial = 0.0
    for spans in runs:
        by_id = {s["id"]: s for s in spans}
        for s in spans:
            if s["name"] in PARALLEL:
                section += duration(s)
            elif s["name"] in PER_TASK and any(a["name"] in PARALLEL for a in _ancestors(by_id, s)):
                busy += duration(s)
        roots = [s for s in spans if s["parent"] is None]
        # Parallel sections never nest, so their sum is the parallel wall time.
        serial += sum(duration(s) for s in roots) - sum(
            duration(s) for s in spans if s["name"] in PARALLEL
        )
    m["cli.parallel_efficiency"] = busy / (threads * section) if section else 0.0
    m["cli.serial_s"] = serial
    return m
