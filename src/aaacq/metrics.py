"""Quality measurement: reconstruction errors, gap recovery, W4A8 simulation.

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
from dataclasses import dataclass

import numpy as np

from .codebooks import AaacConfig, layer_importance, learn, weighted_error
from .errors import UndefinedGapError, ValidationError
from .grids import E4M3_MAX, round_e4m3
from .packfmt import selection_overhead_bpw
from .quantizers import (
    dequantize,
    dequantize_rtn,
    if4_quantize,
    if4_tables,
    rtn_quantize,
)
from .tensors import LayerBundle

METHODS = ("rtn", "if4", "aaac")


def layer_output_mse(weights, reconstructed, activations) -> float:
    """Mean squared layer-output error over the calibration tokens.

    For y = x W^T this is ||X (What - W)^T||_F^2 / tokens, accumulated in
    float64.
    """
    d = np.asarray(reconstructed, dtype=np.float64) - np.asarray(weights, dtype=np.float64)
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


def _run_method(bundle: LayerBundle, method: str, cfg: AaacConfig, col_importance=None):
    """Quantize one layer with one method; returns (reconstruction, table_size, sel_size).

    `col_importance`, when given, is the layer's `layer_importance`.
    """
    w = bundle.weights
    if method == "rtn":
        codes, scales = rtn_quantize(w, cfg.fmt, cfg.group_size, cfg.scale_mode)
        return (
            dequantize_rtn(codes, scales, cfg.fmt, cfg.group_size),
            cfg.fmt.table_size,
            cfg.group_size,
        )
    if method == "if4":
        codes, scales, bits = if4_quantize(w, cfg.group_size, cfg.scale_mode)
        t0, t1 = if4_tables()
        w_hat = dequantize(codes, scales, t0, t1, bits, cfg.group_size, cfg.group_size)
        return w_hat, t0.size, cfg.group_size
    if method == "aaac":
        res = learn(bundle, cfg, col_importance)
        w_hat = dequantize(
            res.codes, res.scales, res.table0, res.table1,
            res.selection, cfg.group_size, cfg.sel_size,
        )
        return w_hat, cfg.fmt.table_size, cfg.sel_size
    raise ValidationError(f"unknown method {method!r}; supported: {list(METHODS)}")


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
    d = w.astype(np.float64) - w_hat.astype(np.float64)
    return LayerMetrics(
        layer=bundle.name,
        method=method,
        mse=float((d * d).mean()),
        weighted_err=weighted_error(w, w_hat, imp),
        output_mse=layer_output_mse(w, w_hat, x_out) if x_out is not None else None,
        bpw=bits_per_weight(w.shape[0], w.shape[1], group_size, sel_size, table_size)[
            "total_bpw"
        ],
    )


def compare(
    bundles: list[LayerBundle],
    methods,
    cfg: AaacConfig,
    threads: int = 1,
) -> EvalReport:
    """Quantize every layer with every requested method and report metrics.

    Rows are ordered by method then layer name; aggregates are means over
    layers.  When rtn is among the methods, a gap-recovery block compares
    each other method's aggregate weighted error against the rtn aggregate
    with the full-precision error fixed at zero.  Layer evaluations are
    independent and run on `threads` workers; the report is assembled in
    order either way.
    """
    methods = [m.lower() for m in methods]
    for m in methods:
        if m not in METHODS:
            raise ValidationError(f"unknown method {m!r}; supported: {list(METHODS)}")

    ordered = sorted(bundles, key=lambda b: b.name)
    tasks = [(method, i) for method in sorted(set(methods)) for i in range(len(ordered))]

    def evaluate(task):
        method, i = task
        bundle, imp = ordered[i], importances[i]
        w_hat, table_size, sel_size = _run_method(bundle, method, cfg, imp)
        return layer_metrics(
            bundle, method, w_hat, cfg.group_size, sel_size, table_size, col_importance=imp
        )

    # Each layer's importance is computed once and shared by its methods.
    if threads > 1 and len(tasks) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            importances = list(pool.map(layer_importance, ordered))
            rows = list(pool.map(evaluate, tasks))
    else:
        importances = [layer_importance(b) for b in ordered]
        rows = [evaluate(t) for t in tasks]

    aggregates: dict[str, dict[str, float | None]] = {}
    for method in sorted(set(methods)):
        mrows = [r for r in rows if r.method == method]
        out_vals = [r.output_mse for r in mrows if r.output_mse is not None]
        aggregates[method] = {
            "mse": float(np.mean([r.mse for r in mrows])),
            "weighted_err": float(np.mean([r.weighted_err for r in mrows])),
            "output_mse": float(np.mean(out_vals)) if len(out_vals) == len(mrows) else None,
            "bpw": float(np.mean([r.bpw for r in mrows])),
        }

    recovery = None
    others = sorted(set(methods) - {"rtn"})
    if "rtn" in methods and others and aggregates["rtn"]["weighted_err"] > 0:
        rtn_err = aggregates["rtn"]["weighted_err"]
        recovery = {
            m: gap_recovery(0.0, rtn_err, aggregates[m]["weighted_err"])
            for m in others
        }
    return EvalReport(rows=tuple(rows), aggregates=aggregates, recovery=recovery)
