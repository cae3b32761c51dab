"""Quality measurement: reconstruction errors, gap recovery, W4A8 simulation.

It also holds the one per-layer quantize path (`quantize_layer`, used by the
`quantize` and `compare` commands) and the one scoring path (`score`, which
decodes a packed layer as `eval` does), so `compare` measures what ships.

Gap recovery summarizes a method against the round-to-nearest baseline as
the percentage of the quantization-induced degradation it removes relative
to full precision.  At desk scale the full-precision reconstruction error is
exactly zero, so recovery over a layer suite reduces to
100 * (err_rtn - err_method) / err_rtn on the aggregated weighted error.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
import glob
import io
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .codebooks import AaacConfig, _difference, _error_sums, layer_importance, learn
from .errors import AaacqError, PairingError, UndefinedGapError, ValidationError, naming_layer
from .grids import E4M3_MAX, base_table, round_e4m3
from .packfmt import PackedLayer, pack, selection_overhead_bpw, unpack
from .quantizers import dequantize, if4_quantize, if4_tables, rtn_quantize
from .tensors import LayerBundle

METHODS = ("rtn", "if4", "aaac")


def layer_output_mse(weights, reconstructed, activations) -> float:
    """Mean squared layer-output error over the calibration tokens.

    For y = x W^T this is ||X (What - W)^T||_F^2 / tokens, accumulated in
    float64.
    """
    return _output_mse(_difference(weights, reconstructed), activations)


def _output_mse(d, activations) -> float:
    """`layer_output_mse` from the difference `d = What - W`, in float64."""
    x = np.asarray(activations, dtype=np.float64)
    err = x @ d.T
    return float((err * err).sum() / x.shape[0])


def gap_recovery(
    metric_full: float,
    metric_rtn: float,
    metric_method: float,
    direction: str = "lower-better",
) -> float:
    """Percentage of the round-to-nearest degradation removed by a method.

    May exceed 100 (better than full precision) or go negative (worse than
    the baseline).  Undefined when the baseline equals full precision.
    """
    if metric_rtn == metric_full:
        raise UndefinedGapError(
            "gap recovery is undefined: baseline metric equals the full-precision metric"
        )
    if direction == "lower-better":
        return 100.0 * (metric_rtn - metric_method) / (metric_rtn - metric_full)
    if direction == "higher-better":
        return 100.0 * (metric_method - metric_rtn) / (metric_full - metric_rtn)
    raise ValidationError(f"unknown direction {direction!r}")


def simulate_w4a8(activations: np.ndarray) -> np.ndarray:
    """Per-tensor FP8 E4M3 quantization of activations (absmax scaling).

    The tensor absmax maps onto the format maximum of 448; each activation is
    rounded to the nearest E4M3 value of its magnitude and rescaled.  An
    all-zero tensor passes through unchanged.  The operation is idempotent.
    """
    x = np.asarray(activations, dtype=np.float32)
    absmax = float(np.abs(x).max()) if x.size else 0.0
    if absmax == 0.0:
        return x.copy()
    scale = absmax / E4M3_MAX
    mag = round_e4m3(np.abs(x).astype(np.float64) / scale) * scale
    return np.copysign(mag, x.astype(np.float64)).astype(np.float32)


def bits_per_weight(
    rows: int, cols: int, group_size: int, sel_size: int, table_size: int
) -> dict[str, float]:
    """Itemized storage cost in bits per weight.

    Counts the 4 code bits, BF16 scales amortized over their groups, the
    selection bitset when it exists, and the two stored codebooks amortized
    over the layer.
    """
    parts = {
        "code_bpw": 4.0,
        "scale_bpw": 16.0 / group_size,
        "selection_bpw": selection_overhead_bpw(group_size, sel_size),
        "codebook_bpw": 32.0 * table_size / (rows * cols),
    }
    parts["total_bpw"] = sum(parts.values())
    return parts


@dataclass(frozen=True)
class LayerMetrics:
    layer: str
    method: str
    mse: float
    weighted_err: float
    output_mse: float | None
    bpw: float


@dataclass(frozen=True)
class EvalReport:
    rows: tuple[LayerMetrics, ...]
    aggregates: dict[str, dict[str, float | None]]
    recovery: dict[str, float] | None = None

    def to_json(self) -> str:
        doc = {
            "layers": [vars(r) for r in self.rows],
            "aggregates": self.aggregates,
            "recovery": self.recovery,
        }
        return json.dumps(doc, indent=2, sort_keys=True)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["layer", "method", "mse", "weighted_err", "output_mse", "bpw"])
        for r in self.rows:
            writer.writerow(
                [
                    r.layer,
                    r.method,
                    repr(r.mse),
                    repr(r.weighted_err),
                    "" if r.output_mse is None else repr(r.output_mse),
                    f"{r.bpw:.4f}",
                ]
            )
        return buf.getvalue()

    def to_text(self) -> str:
        headers = ["layer", "method", "mse", "weighted_err", "output_mse", "bpw"]
        table = [headers]
        for r in self.rows:
            table.append(
                [
                    r.layer,
                    r.method,
                    f"{r.mse:.6e}",
                    f"{r.weighted_err:.6e}",
                    "-" if r.output_mse is None else f"{r.output_mse:.6e}",
                    f"{r.bpw:.4f}",
                ]
            )
        for method in sorted(self.aggregates):
            agg = self.aggregates[method]
            table.append(
                [
                    "(mean)",
                    method,
                    f"{agg['mse']:.6e}",
                    f"{agg['weighted_err']:.6e}",
                    "-" if agg["output_mse"] is None else f"{agg['output_mse']:.6e}",
                    f"{agg['bpw']:.4f}",
                ]
            )
        widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
        lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
        lines.insert(1, "  ".join("-" * w for w in widths))
        if self.recovery is not None:
            lines.append("")
            lines.append("gap recovery vs rtn (weighted error, full precision = 0):")
            for method in sorted(self.recovery):
                lines.append(f"  {method}: {self.recovery[method]:.1f}%")
        return "\n".join(lines) + "\n"


# Learner tasks on layers with fewer weights than this run in forked worker
# processes.  Their inner steps are many short numpy calls that hold the GIL,
# so on threads they mostly wait on each other.  Measured with two workers on
# int4 -g 128 -S 16 mixture layers: forked workers took 14-17% less CPU time
# than threads at 32,768 weights per layer, and 13-15% more at 49,152, where
# the workers' page faults tripled.
_FORK_BELOW = 49_152
_CAN_FORK = hasattr(os, "fork")
# Chunks per worker that a forked batch is cut into: a few per worker even
# out uneven layers, and each chunk costs one round trip through the pool.
_FORK_CHUNKS = 4

# A forked worker's (fn, items), stored by its initializer.  The initializer
# runs in the worker on arguments it inherits from the parent by fork, and a
# task is an index into them, so neither functions nor layers are pickled on
# the way in.
_batch = None


def runs_forked(method: str, layer) -> bool:
    """Whether a pooled task quantizing `layer` with `method` goes to a forked worker.

    `layer` is a `LayerBundle` or a not yet loaded `tensors.LayerEntry`.
    """
    return method == "aaac" and layer.rows * layer.cols < _FORK_BELOW


def _init_worker(fn, items) -> None:
    global _batch
    _batch = (fn, items)


def _run_forked(index: int):
    fn, items = _batch
    return fn(items[index])


def _fork_map(fn, items: list, workers: int, each) -> None:
    # Imported here: loading multiprocessing adds about 15 ms to every command.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    chunk = -(-len(items) // (_FORK_CHUNKS * workers))
    try:
        with ProcessPoolExecutor(
            workers, mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker, initargs=(fn, items),
        ) as pool:
            for i, result in enumerate(pool.map(_run_forked, range(len(items)), chunksize=chunk)):
                each(i, result)
    except BrokenProcessPool as exc:
        raise AaacqError(f"a worker process died: {exc}") from exc


def _thread_map(fn, items: list, workers: int, each) -> None:
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for i, result in enumerate(pool.map(fn, items)):
            each(i, result)


def _serial_map(fn, items: list, workers: int, each) -> None:
    for i, item in enumerate(items):
        each(i, fn(item))


# A pool already fills the cores, so OpenBLAS threads under each worker's
# matrix products (the output MSE) only oversubscribe them: on the compare
# benchmark's archive, `compare --threads 2` took 9.1 CPU-s with two BLAS
# threads and 3.5 with one (2 vCPUs).  A serial `eval` gains wall time from
# them, so only pools pin BLAS, and only while they run.  A thread count the
# environment chooses is left as it is.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS numpy's wheel bundles, or None.

    numpy's wheels carry it in `numpy.libs` (Linux) or `numpy/.dylibs`
    (macOS); only a copy already loaded is used.  Other builds get None.
    """
    here = os.path.dirname(np.__file__)
    for path in glob.glob(f"{here}.libs/*openblas*") + glob.glob(f"{here}/.dylibs/*openblas*"):
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD)
        except (OSError, AttributeError):
            continue
        # numpy 2's wheels name it scipy_openblas64_, numpy 1's openblas64_.
        for prefix in ("scipy_openblas", "openblas"):
            get = getattr(lib, f"{prefix}_get_num_threads64_", None)
            put = getattr(lib, f"{prefix}_set_num_threads64_", None)
            if get is not None and put is not None:
                return get, put
    return None


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with OpenBLAS on one thread, unless the environment sets a count."""
    blas = None if any(v in os.environ for v in _BLAS_VARS) else _openblas_threads()
    if blas is None:
        yield
        return
    get, put = blas
    before = get()
    put(1)
    try:
        yield
    finally:
        put(before)


def parallel_map(fn, items, threads: int, forks=None, consume=None) -> list:
    """`[fn(item) for item in items]`, on up to `threads` workers when there are several.

    Workers are threads, or forked processes for the items `forks(item)`
    picks when the platform can fork and no other thread is alive; those run
    first, as one batch, and return their results by pickle.  No pool starts
    more workers than it has items, and a batch of one item runs in-process.

    With `consume`, each result is passed to `consume(result)` in the
    calling thread, in item order, as soon as every earlier item's result
    has been, and the list holds what `consume` returns.  Results that
    arrive before their turn, as the forked batch's can, wait in a buffer.
    """
    items = list(items)
    results = [None] * len(items)
    waiting = {}
    done = 0

    def arrive(i, result):
        nonlocal done
        waiting[i] = result
        while done in waiting:
            result = waiting.pop(done)
            results[done] = result if consume is None else consume(result)
            done += 1

    # Forking is only safe while no other thread can hold a lock.
    can_fork = _CAN_FORK and threads > 1 and forks is not None and threading.active_count() == 1
    picked = [can_fork and bool(forks(item)) for item in items]
    for route, pool_map in ((True, _fork_map), (False, _thread_map)):
        indices = [i for i, p in enumerate(picked) if p == route]
        batch = [items[i] for i in indices]
        pinned = _one_blas_thread()
        if len(batch) <= 1 or threads <= 1:
            pool_map, pinned = _serial_map, contextlib.nullcontext()
        with pinned:
            pool_map(fn, batch, min(threads, len(batch)),
                     lambda j, result: arrive(indices[j], result))
    return results


# Values per row block of the fixed-grid quantizers and the decoder, whose
# float64 temporaries then take 512 KiB.  On 32 BF16 512x1024 layers, two
# workers, `quantize --method if4` took 19-35K minor faults, whole layers
# 126-190K.  2**14 cost more user time than it saved; 2**18 faulted more.
_BLOCK = 1 << 16


def _by_row_blocks(shape, fn) -> list:
    """The arrays `fn(rows)` returns for a layer of `shape`, filled a row block at a time.

    A block is about `_BLOCK` values and at least a row.  Exact where `fn` works by row.
    """
    step, out = max(1, _BLOCK // shape[1]), None
    for rows in (slice(a, a + step) for a in range(0, shape[0], step)):
        parts = fn(rows)
        if out is None:
            out = [np.empty((shape[0],) + p.shape[1:], p.dtype) for p in parts]
        for o, p in zip(out, parts):
            o[rows] = p
    return out


def quantize_layer(bundle: LayerBundle, method: str, cfg: AaacConfig, col_importance=None):
    """Quantize one layer with one method; returns (packed layer, learner trace).

    The trace is None for rtn and if4, which run one row block at a time.
    `col_importance`, when given, is the layer's `layer_importance`.
    """
    w, g, mode = bundle.weights, cfg.group_size, cfg.scale_mode
    sel_size, kind, trace = g, cfg.fmt.kind, None
    if method == "rtn":
        codes, scales = _by_row_blocks(w.shape, lambda r: rtn_quantize(w[r], cfg.fmt, g, mode))
        t0 = t1 = base_table(cfg.fmt)
        sel = np.zeros((w.shape[0], w.shape[1] // g), dtype=np.uint8)
    elif method == "if4":
        codes, scales, sel = _by_row_blocks(w.shape, lambda r: if4_quantize(w[r], g, mode))
        t0, t1 = if4_tables()
        kind = "nvfp4"
    elif method == "aaac":
        res = learn(bundle, cfg, col_importance)
        t0, t1, sel, codes, scales = res.table0, res.table1, res.selection, res.codes, res.scales
        sel_size, trace = cfg.sel_size, res.trace
    else:
        raise ValidationError(f"unknown method {method!r}; supported: {list(METHODS)}")
    packed = pack(
        t0, t1, sel, codes, scales,
        kind=kind, group_size=cfg.group_size, sel_size=sel_size, method=method,
    )
    return packed, trace


def reconstruct(p: PackedLayer) -> np.ndarray:
    """The weights a packed layer decodes to, decoded one row block at a time."""
    t0, t1, sel, codes, scales = unpack(p)
    return _by_row_blocks(codes.shape, lambda r: (
        dequantize(codes[r], scales[r], t0, t1, sel[r], p.group_size, p.sel_size),))[0]


def score(
    bundle: LayerBundle,
    p: PackedLayer,
    output_activations: np.ndarray | None = None,
    col_importance: np.ndarray | None = None,
) -> LayerMetrics:
    """`layer_metrics` of a packed layer against the layer it was quantized from."""
    w_hat = reconstruct(p)
    if w_hat.shape != bundle.weights.shape:
        raise PairingError(
            f"packed layer {bundle.name!r} shape {w_hat.shape} does not match "
            f"archive shape {bundle.weights.shape}"
        )
    return layer_metrics(
        bundle, p.method, w_hat, p.group_size, p.sel_size, p.table_size,
        output_activations=output_activations, col_importance=col_importance,
    )


def _run_method(bundle: LayerBundle, method: str, cfg: AaacConfig, col_importance=None):
    """`compare`'s task: quantize one layer with one method and score the pack."""
    packed, _ = quantize_layer(bundle, method, cfg, col_importance)
    return score(bundle, packed, col_importance=col_importance)


def layer_metrics(
    bundle: LayerBundle,
    method: str,
    w_hat: np.ndarray,
    group_size: int,
    sel_size: int,
    table_size: int,
    output_activations: np.ndarray | None = None,
    col_importance: np.ndarray | None = None,
) -> LayerMetrics:
    """Metrics for one reconstructed layer.

    Importance weighting always uses the bundle's calibration activations
    (`layer_importance`, or `col_importance` when the caller has it already);
    `output_activations` substitutes the activations used for the output-MSE
    metric (for simulated low-precision inference).
    """
    w = bundle.weights
    imp = layer_importance(bundle) if col_importance is None else col_importance
    x_out = output_activations if output_activations is not None else bundle.activations
    # One difference array: the output MSE reads it, then it is squared in place.
    d = _difference(w, w_hat)
    output_mse = _output_mse(d, x_out) if x_out is not None else None
    mse, weighted_err = _error_sums(d, imp)
    return LayerMetrics(
        layer=bundle.name,
        method=method,
        mse=mse,
        weighted_err=weighted_err,
        output_mse=output_mse,
        bpw=bits_per_weight(w.shape[0], w.shape[1], group_size, sel_size, table_size)[
            "total_bpw"
        ],
    )


def report(rows) -> EvalReport:
    """Assemble per-layer rows into a report.

    Rows are ordered by method then layer name; aggregates are means over
    layers.  When rtn is among several methods, a gap-recovery block
    compares each other method's aggregate weighted error against the rtn
    aggregate with the full-precision error fixed at zero.
    """
    rows = sorted(rows, key=lambda r: (r.method, r.layer))
    methods = sorted({r.method for r in rows})
    aggregates: dict[str, dict[str, float | None]] = {}
    for method in methods:
        mrows = [r for r in rows if r.method == method]
        out_vals = [r.output_mse for r in mrows if r.output_mse is not None]
        aggregates[method] = {
            "mse": float(np.mean([r.mse for r in mrows])),
            "weighted_err": float(np.mean([r.weighted_err for r in mrows])),
            "output_mse": float(np.mean(out_vals)) if len(out_vals) == len(mrows) else None,
            "bpw": float(np.mean([r.bpw for r in mrows])),
        }

    recovery = None
    others = [m for m in methods if m != "rtn"]
    if "rtn" in aggregates and others and aggregates["rtn"]["weighted_err"] > 0:
        rtn_err = aggregates["rtn"]["weighted_err"]
        recovery = {m: gap_recovery(0.0, rtn_err, aggregates[m]["weighted_err"]) for m in others}
    return EvalReport(rows=tuple(rows), aggregates=aggregates, recovery=recovery)


def compare(
    bundles: list, methods, cfg: AaacConfig, threads: int = 1, load=lambda layer: layer
) -> EvalReport:
    """Quantize every layer with every requested method and `report` the packs' metrics.

    Each row scores the packed layer `quantize` would write, decoded the way
    `eval` decodes it.  One task per layer loads it with `load`, computes its
    importance once and runs every method, on one of `threads` workers
    (forked where `runs_forked` picks a method); the report is the same either way.
    """
    methods = sorted({m.lower() for m in methods})
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"unknown method {m!r}; supported: {list(METHODS)}")

    def layer_rows(layer):
        bundle = load(layer)
        with naming_layer(bundle.name):
            imp = layer_importance(bundle)
            return [_run_method(bundle, m, cfg, imp) for m in methods]

    per_layer = parallel_map(layer_rows, bundles, threads,
                             forks=lambda layer: any(runs_forked(m, layer) for m in methods))
    return report([row for rows in per_layer for row in rows])
