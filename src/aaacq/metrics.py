"""Quality measurement: reconstruction errors, gap recovery, W4A8 simulation.

It also holds the one per-layer quantize path (`quantize_layer`, used by the
`quantize` and `compare` commands) and the one scoring path (`score`, which
decodes a packed layer as `eval` does), so `compare` measures what ships.
`score` is given all it reads: the float64 calibration activations and
column importance (both from `calibration`) and the `grids.Scratch` whose
buffers, reused from layer to layer, hold them, the layer's float64
difference and their tokens x rows product.  A pack is decoded one way, a
row block at a time (`decoded_rows`, by `quantizers.decode_block`), and the
activations are read from the archive a row block at a time.

Gap recovery summarizes a method against the round-to-nearest baseline as
the percentage of the quantization-induced degradation it removes relative
to full precision.  At desk scale the full-precision reconstruction error is
exactly zero, so recovery over a layer suite reduces to
100 * (err_rtn - err_method) / err_rtn on the aggregated weighted error.
"""

from __future__ import annotations

import csv
import io
import json
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import grids
from .codebooks import AaacConfig, _difference, _error_sums, column_importance, learn
from .errors import AaacqError, PairingError, UndefinedGapError, ValidationError, naming_layer
from .grids import E4M3_MAX, Scratch, base_table, check_groups, round_e4m3_into, row_blocks
from .packfmt import (
    PackedLayer, check_header, pack, selection_overhead_bpw, unpack_groups, unpack_rows,
)
from .quantizers import decode_block, if4_quantize, if4_tables, rtn_quantize
from .tensors import LayerBundle

METHODS = ("rtn", "if4", "aaac")


def layer_output_mse(weights, reconstructed, activations) -> float:
    """Mean squared layer-output error over the calibration tokens.

    For y = x W^T this is ||X (What - W)^T||_F^2 / tokens, accumulated in
    float64.
    """
    d = _difference(weights, reconstructed)
    return _output_mse(d, np.array(activations, dtype=np.float64, order="C"), Scratch())


def _output_mse(d, x, scratch: Scratch) -> float:
    """`layer_output_mse` from the difference `d = What - W` and the float64
    activations `x`; the tokens x rows product is `scratch`'s buffer.
    Raises `ValidationError` unless `x` is 2-D with `d`'s columns."""
    if np.ndim(x) != 2 or np.shape(x)[1:] != d.shape[1:]:
        raise ValidationError(f"activations of shape {np.shape(x)} for {d.shape} weights")
    err = np.matmul(x, d.T, out=scratch.take("product", (len(x), d.shape[0])))
    np.square(err, out=err)
    return float(err.sum() / len(x))


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


def simulate_w4a8(activations: np.ndarray, scratch: Scratch | None = None) -> np.ndarray:
    """Per-tensor FP8 E4M3 quantization of activations (absmax scaling).

    The tensor absmax maps onto the format maximum of 448; each activation is
    rounded to the nearest E4M3 value of its magnitude and rescaled.  An
    all-zero tensor passes through unchanged.  The operation is idempotent.
    Activations are taken as float32, and raise `ValidationError` unless
    they are finite.

    The float32 result is `scratch`'s `w4a8` buffer (a fresh scratch's when
    none is given), valid until the next call on that scratch.  It holds the
    magnitudes until they are rounded, a block of `grids.BLOCK` values at a
    time, and each block's exponents while it is.  The float64 work arrays
    are two blocks of the difference buffer, which `score` fills only after
    this returns.  `activations` are only read: `eval --w4a8` rounds the
    float64 calibration buffer and copies the result back into it, once
    importance has read the calibration there.
    """
    a = np.asarray(activations)
    scratch = Scratch() if scratch is None else scratch
    out = scratch.take("w4a8", a.shape, np.float32)
    flat, result = a.reshape(-1), out.reshape(-1)
    blocks = [slice(i, i + grids.BLOCK) for i in range(0, flat.size, grids.BLOCK)]
    absmax = 0.0
    for c in blocks:
        top = float(np.abs(flat[c], out=result[c]).max())
        if not np.isfinite(top):
            raise ValidationError("activations contain non-finite values")
        absmax = top if top > absmax else absmax
    if absmax == 0.0:
        np.copyto(out, a)
        return out
    scale = absmax / E4M3_MAX
    work = scratch.take("difference", (2, min(flat.size, grids.BLOCK)))
    for c in blocks:
        size = result[c].size
        mag, quantum = work[0, :size], work[1, :size]
        np.copyto(mag, result[c])
        np.divide(mag, scale, out=mag)
        round_e4m3_into(mag, quantum, result[c].view(np.intc))
        np.multiply(mag, scale, out=mag)
        np.copysign(mag, flat[c], out=mag)
        np.copyto(result[c], mag, casting="same_kind")
    return out


def bits_per_weight(
    rows: int, cols: int, group_size: int, sel_size: int, table_size: int
) -> dict[str, float]:
    """Itemized storage cost in bits per weight.

    Counts the 4 code bits, BF16 scales amortized over their groups, the
    selection bitset when it exists, and the two stored codebooks amortized
    over the layer.  Raises `ValidationError` unless the group sizes split
    rows of `cols` (`grids.check_groups`).
    """
    check_groups(group_size, sel_size, cols)
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


_CAN_FORK = hasattr(os, "fork")
# Chunks per worker that a forked batch is cut into: a few per worker even
# out uneven layers, and each chunk costs one round trip through the pool.
_FORK_CHUNKS = 4

# A forked worker's (fn, items), stored by its initializer.  The initializer
# runs in the worker on arguments it inherits from the parent by fork, and a
# task is an index into them, so neither functions nor layers are pickled on
# the way in.
_batch = None


def runs_forked(methods) -> bool:
    """Whether a pooled call running `methods` forks its workers: only `aaac` does.

    The learner's short numpy calls hold the GIL, so its threads wait on each
    other (forking lifted learn-large's `quantize_parallelism` from 0.80 to
    0.85); rtn and if4 tasks do not repay a process pool's start-up (forking
    them cut compare-suite's rtn `quantize_mw_per_ref` from 3.42 to 3.12).
    """
    return "aaac" in methods


def _init_worker(fn, items) -> None:
    global _batch
    _batch = (fn, items)


def _run_forked(index: int):
    fn, items = _batch
    return fn(items[index])


def _fork_map(fn, items: list, workers: int):
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
            yield from pool.map(_run_forked, range(len(items)), chunksize=chunk)
    except BrokenProcessPool as exc:
        raise AaacqError(f"a worker process died: {exc}") from exc


def _thread_map(fn, items: list, workers: int):
    with ThreadPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(fn, items)


def _serial_map(fn, items: list, workers: int):
    return map(fn, items)


def parallel_map(fn, items, threads: int, fork: bool = False, consume=None) -> list:
    """`[fn(item) for item in items]`, on up to `threads` workers when there are several.

    The call starts at most one pool, of no more workers than items.  Its
    workers are threads, or with `fork` (the commands pass `runs_forked`)
    processes forked from this one, which return their results by pickle;
    `fork` falls back to threads where the platform cannot fork or another
    thread is alive.  One item, or one thread, runs in-process.  Workers
    share or inherit the caller's OpenBLAS thread count, which the commands
    set to one (`cli.main`).

    With `consume`, each result is passed to `consume(result)` in the
    calling thread, in item order, as it arrives, and the list holds what
    `consume` returns.
    """
    items = list(items)
    workers = min(threads, len(items))
    pool_map = _thread_map
    if workers <= 1:
        pool_map = _serial_map
    # Forking is only safe while no other thread can hold a lock.
    elif fork and _CAN_FORK and threading.active_count() == 1:
        pool_map = _fork_map
    return [r if consume is None else consume(r) for r in pool_map(fn, items, workers)]


def _by_row_blocks(shape, fn) -> list:
    """The arrays `fn(rows)` returns for a layer of `shape`, filled one of its
    `row_blocks` at a time: exact where `fn` works by row."""
    out = None
    for rows in row_blocks(*shape):
        parts = fn(rows)
        if out is None:
            out = [np.empty((shape[0],) + p.shape[1:], p.dtype) for p in parts]
        for o, p in zip(out, parts):
            o[rows] = p
    return out


def quantize_layer(bundle: LayerBundle, method: str, cfg: AaacConfig, col_importance=None):
    """Quantize one layer with one method; returns (packed layer, learner trace).

    The trace is None for rtn and if4, which run one row block at a time
    on one set of block buffers.  For aaac it holds only what `quantize`
    logs, its first and last values and its length: the other inner steps'
    errors are not computed.  `col_importance`, when given, is the layer's
    `layer_importance`.
    """
    w, g, mode, scratch = bundle.weight_rows, cfg.group_size, cfg.scale_mode, Scratch()
    sel_size, kind, trace = g, cfg.fmt.kind, None
    if method == "rtn":
        codes, scales = _by_row_blocks(
            bundle.shape, lambda r: rtn_quantize(w(r), cfg.fmt, g, mode, scratch))
        t0 = t1 = base_table(cfg.fmt)
        sel = np.zeros((bundle.rows, bundle.cols // g), dtype=np.uint8)
    elif method == "if4":
        codes, scales, sel = _by_row_blocks(
            bundle.shape, lambda r: if4_quantize(w(r), g, mode, scratch))
        t0, t1 = if4_tables()
        kind = "nvfp4"
    elif method == "aaac":
        res = learn(bundle, cfg, col_importance, full_trace=False)
        t0, t1, sel, codes, scales = res.table0, res.table1, res.selection, res.codes, res.scales
        sel_size, trace = cfg.sel_size, res.trace
    else:
        raise ValidationError(f"unknown method {method!r}; supported: {list(METHODS)}")
    packed = pack(
        t0, t1, sel, codes, scales,
        kind=kind, group_size=cfg.group_size, sel_size=sel_size, method=method,
    )
    return packed, trace


def decoded_rows(p: PackedLayer, scratch: Scratch):
    """The weights a packed layer decodes to, one row block at a time: an
    iterator of (rows, float32 block), each block on `scratch`'s buffers and
    valid until the next.

    Each block's codes are split from its bytes of the code section
    (`packfmt.unpack_rows`, which checks their range) and decoded by
    `decode_block`; no whole-layer code array is made.  Everything but the
    codes is checked (`unpack_groups`) before this returns.
    """
    t0, t1, sel, scales = unpack_groups(p)
    both, g, s = np.concatenate((t0, t1), dtype=np.float64), p.group_size, p.sel_size
    return ((r, decode_block(unpack_rows(p, r, scratch), scales[r], both, sel[r], g, s, scratch))
            for r in row_blocks(p.rows, p.cols))


def reconstruct(p: PackedLayer) -> np.ndarray:
    """The weights a packed layer decodes to, decoded one row block at a time."""
    out = np.empty((p.rows, p.cols), np.float32)
    for r, block in decoded_rows(p, Scratch()):
        out[r] = block
    return out


def calibration(bundle: LayerBundle, scratch: Scratch):
    """(activations, importance) of the bundle's calibration.

    The activations are widened into `scratch`'s float64 activations buffer
    a row block at a time (`LayerBundle.read_activations`), or are None when
    the bundle has none.  Widening is exact, so importance and the output
    MSE read the values of the stored tensor.  Importance is
    `column_importance` of them.
    """
    x = None
    if bundle.activation_shape is not None:
        x = scratch.take("activations", bundle.activation_shape)
        bundle.read_activations(x)
    return x, column_importance(x, bundle.cols)


def score(bundle: LayerBundle, p: PackedLayer, activations, col_importance,
          scratch: Scratch) -> LayerMetrics:
    """`layer_metrics` of a packed layer against the layer it was quantized from.

    Each row block is decoded as `reconstruct` decodes it (`decoded_rows`),
    and `decoded - weights` goes straight into the float64 difference buffer
    of `scratch`.  No whole-layer decode is made: the float32 block keeps
    the decoder's rounding, and both operands widen exactly, so the
    difference is the one of the whole-layer decode.

    The output MSE reads `activations` (none when None), float64 from
    `calibration`; the errors are weighted by `col_importance`.  Raises
    `ValidationError` unless the activations are 2-D with the layer's
    columns and the importance holds one finite, non-negative value per
    column (`codebooks.check_importance`).
    """
    blocks = decoded_rows(p, scratch)
    if (p.rows, p.cols) != bundle.shape:
        raise PairingError(
            f"packed layer {bundle.name!r} shape {(p.rows, p.cols)} does not match "
            f"archive shape {bundle.shape}"
        )
    d = scratch.take("difference", bundle.shape)
    for r, block in blocks:
        np.copyto(d[r], block)
        d[r] -= bundle.weight_rows(r)
    return layer_metrics(bundle, p.method, d, p.group_size, p.sel_size, p.table_size,
                         activations, col_importance, scratch)


def _run_method(bundle: LayerBundle, method: str, cfg: AaacConfig, col_importance, activations,
                scratch):
    """`compare`'s task: quantize one layer with one method and score the pack
    on the layer's importance and float64 `activations`, read once for all methods."""
    packed, _ = quantize_layer(bundle, method, cfg, col_importance)
    return score(bundle, packed, activations, col_importance, scratch)


def layer_metrics(
    bundle: LayerBundle,
    method: str,
    difference: np.ndarray,
    group_size: int,
    sel_size: int,
    table_size: int,
    activations: np.ndarray | None,
    col_importance: np.ndarray,
    scratch: Scratch,
) -> LayerMetrics:
    """Metrics for one layer from its float64 difference `What - W`.

    The output MSE reads `difference` and the float64 `activations` (no
    output MSE when None), with its product on `scratch`; `difference` is
    then squared in place for the errors, which `col_importance` weights.
    """
    output_mse = None if activations is None else _output_mse(difference, activations, scratch)
    mse, weighted_err = _error_sums(difference, col_importance)
    return LayerMetrics(
        layer=bundle.name,
        method=method,
        mse=mse,
        weighted_err=weighted_err,
        output_mse=output_mse,
        bpw=bits_per_weight(bundle.rows, bundle.cols, group_size, sel_size, table_size)[
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
    `eval` decodes it.  One task per layer loads it with `load`, reads its
    calibration once into the worker's activations buffer, computes its
    importance there and runs every method, on one of `threads` workers
    (forked when `runs_forked(methods)`); the report is the same either way.
    Each worker scores on its own buffers of one `Scratch`, dropped on return.
    """
    methods = sorted({m.lower() for m in methods})
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"unknown method {m!r}; supported: {list(METHODS)}")

    for layer in bundles:
        check_header(layer.name, cfg.group_size, cfg.sel_size)

    scratch = Scratch()

    def layer_rows(layer):
        bundle = load(layer)
        with naming_layer(bundle.name):
            x, imp = calibration(bundle, scratch)
            return [_run_method(bundle, m, cfg, imp, x, scratch) for m in methods]

    per_layer = parallel_map(layer_rows, bundles, threads, fork=runs_forked(methods))
    return report([row for rows in per_layer for row in rows])
