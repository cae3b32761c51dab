"""Command-line front end: synth, quantize, dequantize, eval, compare.

All commands are deterministic for fixed inputs, flags and seed; progress
and timing go to standard error so reports stay byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import json
import os
import sys
import time

import numpy as np

from . import codebooks, metrics, packfmt, tensors
from .errors import AaacqError, PairingError, ValidationError, naming_layer
from .grids import get_format
from .metrics import parallel_map as _parallel_map


def _resolve_config(args) -> tuple[codebooks.AaacConfig, int]:
    """The learner configuration and worker count the flags ask for."""
    if args.threads < 0:
        raise ValidationError(f"--threads must be 0 (all cores) or positive, got {args.threads}")
    fmt = get_format(args.format)
    group_size = args.group_size or fmt.group_size
    cfg = codebooks.AaacConfig(
        fmt=fmt,
        group_size=group_size,
        sel_size=args.sel_size or group_size,
        n_outer=args.iters_outer,
        n_inner=args.iters_inner,
        scale_mode=args.scale_mode,
    )
    return cfg, args.threads or _usable_cpus()


def _usable_cpus() -> int:
    """The CPUs this process may run on where the platform tells (`taskset`
    or a cpuset can make them fewer than the machine's), else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _log(msg: str) -> None:
    # One write per line: forked workers share the stream, and `print` writes
    # the line and its end apart, so their lines could interleave.
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def _check_paths(inputs=(), outputs=()) -> None:
    # Validate every path before any work starts.
    for path in inputs:
        if not os.path.isfile(path):
            raise ValidationError(f"input file not found: {path}")
    for path in outputs:
        if path is None:
            continue
        if os.path.isdir(path) or not os.path.basename(path):
            raise ValidationError(f"output path names a directory: {path}")
        parent = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(parent):
            raise ValidationError(f"output directory does not exist: {parent}")
        # Outputs replace their file, so an output that is an input destroys it.
        for source in inputs:
            if os.path.exists(path) and os.path.samefile(path, source):
                raise ValidationError(f"output {path} is the input {source}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _quantize_layer(bundle: tensors.LayerBundle, method: str, cfg):
    """`quantize`'s task: one layer's pack, with the layer named in any error,
    and the line that reports its learner objective, or None.

    The line goes back with the pack, so that it is logged in layer order
    whichever worker finishes first.
    """
    with naming_layer(bundle.name):
        packed, trace = metrics.quantize_layer(bundle, method, cfg)
    line = None
    if trace is not None:
        line = (f"  {bundle.name}: objective {trace[0]:.6e} -> {trace[-1]:.6e} "
                f"({trace.size} steps)")
    return packed, line


@contextlib.contextmanager
def _replacing(path):
    """A binary file that becomes `path` only if the block completes.

    It is written beside `path` and renamed onto it at the end, so `path`
    never holds a partial output; on any failure it is removed and an
    existing `path` is left as it was.
    """
    tmp = os.path.join(
        os.path.dirname(os.path.abspath(path)),
        f".{os.path.basename(path)}.{os.getpid()}.tmp",
    )
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def cmd_quantize(args) -> int:
    _check_paths(inputs=[args.archive], outputs=[args.out])
    cfg, threads = _resolve_config(args)
    started = time.perf_counter()
    with tensors.TensorArchive(args.archive) as archive:
        for layer in archive.layers:
            packfmt.check_header(layer.name, cfg.group_size, cfg.sel_size)
        with _replacing(args.out) as fh:
            writer = packfmt.PackWriter(fh, len(archive.layers))

            def consume(item):
                name, (packed, line) = item
                if line is not None:
                    _log(line)
                writer.write(name, packed)

            # Each task reads its own layer; packs are written in layer order as they arrive.
            _parallel_map(
                lambda layer: (layer.name, _quantize_layer(archive.load(layer), args.method, cfg)),
                archive.layers, threads, fork=metrics.runs_forked([args.method]),
                consume=consume,
            )
    _log(
        f"quantized {len(archive.layers)} layers with {args.method} "
        f"in {time.perf_counter() - started:.2f}s -> {args.out}"
    )
    return 0


def cmd_dequantize(args) -> int:
    _check_paths(inputs=[args.pack], outputs=[args.out])
    with packfmt.PackReader(args.pack) as pack, _replacing(args.out) as fh:
        entries = {e.name + ".weight": e for e in pack.layers}
        scratch = metrics.Scratch()

        def decode(name):
            # Each row block is written before the next is decoded, on the same buffers.
            with naming_layer(entries[name].name):
                for _, block in metrics.decoded_rows(pack.read(entries[name]), scratch):
                    yield block

        tensors.stream_tensors(fh, {name: (e.rows, e.cols) for name, e in entries.items()}, decode)
    _log(f"dequantized {len(entries)} layers -> {args.out}")
    return 0


def _emit_report(report: metrics.EvalReport, args) -> None:
    if args.json:
        text = report.to_json() + "\n"
    elif args.csv:
        text = report.to_csv()
    else:
        text = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(args) -> int:
    _check_paths(inputs=[args.pack, args.archive], outputs=[args.out])
    with packfmt.PackReader(args.pack) as pack, tensors.TensorArchive(args.archive) as archive:
        layers = {layer.name: layer for layer in archive.layers}
        for e in pack.layers:
            if e.name not in layers:
                raise PairingError(f"packed layer {e.name!r} has no weights in {args.archive}")
        scratch, rows = metrics.Scratch(), []
        for e in pack.layers:
            # Loading reads nothing: the calibration and then the weights are
            # read a row block at a time, into the scratch's buffers.
            bundle = archive.load(layers[e.name])
            with naming_layer(e.name):
                p = pack.read(e)
                x, imp = metrics.calibration(bundle, scratch)
                if args.w4a8 and x is not None:
                    # Importance has read the calibration the W4A8 result replaces.
                    np.copyto(x, metrics.simulate_w4a8(x, scratch))
                rows.append(metrics.score(bundle, p, x, imp, scratch))
    _emit_report(metrics.report(rows), args)
    return 0


def _pinned_suite(seed: int) -> list[tensors.LayerBundle]:
    """Small deterministic layer suite used when compare gets no archive."""
    specs = [
        ("gaussian", 16, 128, 32),
        ("gaussian", 32, 256, 32),
        ("laplace", 16, 128, 32),
        ("laplace", 32, 256, 32),
        ("mixture", 16, 128, 32),
        ("mixture", 32, 256, 32),
    ]
    return [
        tensors.synth_layer(
            tensors.SynthSpec(kind, rows, cols, tokens, seed=seed + i),
            name=f"{kind}-{i}",
        )
        for i, (kind, rows, cols, tokens) in enumerate(specs)
    ]


def cmd_compare(args) -> int:
    _check_paths(inputs=[args.archive] if args.archive else [], outputs=[args.out])
    cfg, threads = _resolve_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise ValidationError("no methods given")
    started = time.perf_counter()
    if args.archive:
        with tensors.TensorArchive(args.archive) as archive:
            layers = archive.layers
            report = metrics.compare(layers, methods, cfg, threads, load=archive.load)
    else:
        layers = _pinned_suite(args.seed)
        report = metrics.compare(layers, methods, cfg, threads)
    _log(f"compared {len(layers)} layers in {time.perf_counter() - started:.2f}s")
    _emit_report(report, args)
    return 0


_INT = ("an integer", lambda v: type(v) is int)
_NUMBERS = ("a list of numbers",
            lambda v: type(v) is list and all(type(x) in (int, float) for x in v))
# What each key of a `synth --config` file must hold.
_SYNTH_KEYS = {
    "layers": _INT, "kind": ("a string", lambda v: type(v) is str), "rows": _INT,
    "cols": _INT, "tokens": _INT, "seed": _INT,
    "sigma": ("a number", lambda v: type(v) in (int, float)),
    "mixture_weights": _NUMBERS, "mixture_sigmas": _NUMBERS,
}


def cmd_synth(args) -> int:
    _check_paths(inputs=[args.config] if args.config else [], outputs=[args.out])
    layers, source = args.layers, "--layers"
    spec_fields = {key: getattr(args, key) for key in _SYNTH_KEYS if key != "layers"}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{args.config}: invalid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ValidationError(f"{args.config}: the spec must be a JSON object")
        unknown = set(doc) - set(_SYNTH_KEYS)
        if unknown:
            raise ValidationError(f"{args.config}: unknown keys {sorted(unknown)}")
        for key, value in doc.items():
            what, holds = _SYNTH_KEYS[key]
            if not holds(value):
                raise ValidationError(f"{args.config}: {key} must be {what}, got {value!r}")
        if "layers" in doc:
            layers, source = doc.pop("layers"), f"{args.config}: layers"
        spec_fields.update(doc)
    for key in ("mixture_weights", "mixture_sigmas"):
        spec_fields[key] = tuple(spec_fields[key])
    if layers < 1:
        raise ValidationError(f"{source} must be at least 1, got {layers}")

    base_seed = spec_fields.pop("seed")
    try:
        specs = {f"layer{i:03d}": tensors.SynthSpec(seed=base_seed + i, **spec_fields)
                 for i in range(layers)}
    except ValidationError as exc:
        if args.config:  # the file's values override the flags
            raise ValidationError(f"{args.config}: {exc}") from exc
        raise
    shapes, held = {}, {}
    for name, s in specs.items():
        shapes[f"{name}.weight"], shapes[f"{name}.calib"] = (s.rows, s.cols), (s.tokens, s.cols)

    def produce(tensor):
        # A layer's two tensors are neighbours in name order, so each layer
        # is made when its first is written, after the last one is dropped.
        name, part = tensor.rsplit(".", 1)
        if name not in held:
            held.clear()
            held[name] = tensors.synth_layer(specs[name], name=name)
        return [held[name].weights if part == "weight" else held[name].activations]

    with _replacing(args.out) as fh:
        tensors.stream_tensors(fh, shapes, produce)
    _log(f"wrote {layers} synthetic layers -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v.strip()]


def _add_quant_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", default="nvfp4", choices=["nvfp4", "int4"],
                   help="base 4-bit format (default nvfp4)")
    p.add_argument("-g", "--group-size", type=int, default=0,
                   help="scale group size (default: 16 for nvfp4, 128 for int4)")
    p.add_argument("-S", "--sel-size", type=int, default=0,
                   help="selection group size (default: same as the scale group)")
    p.add_argument("--iters-outer", type=int, default=3, help="outer iterations (default 3)")
    p.add_argument("--iters-inner", type=int, default=10,
                   help="inner k-means iterations (default 10)")
    p.add_argument("--scale-mode", default="exact-bf16",
                   choices=["exact-bf16", "emulate-e4m3"],
                   help="scale storage rounding (default exact-bf16)")
    p.add_argument("--threads", type=int, default=0,
                   help="workers for per-layer work (default: every usable core): forked "
                        "processes when aaac runs, else threads")


def _add_report_flags(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the report as JSON")
    fmt.add_argument("--csv", action="store_true", help="emit the report as CSV")
    p.add_argument("--out", default=None, help="write the report to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aaacq",
        description="Adaptive-codebook 4-bit weight quantization for linear layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="write a synthetic calibration archive")
    p.add_argument("--out", required=True, help="output archive path")
    p.add_argument("--config", default=None,
                   help="JSON file with the distribution spec (overrides the flags below)")
    p.add_argument("--layers", type=int, default=1, help="number of layers (default 1)")
    p.add_argument("--kind", default="gaussian", choices=list(tensors.SYNTH_KINDS))
    p.add_argument("-N", "--rows", type=int, default=32)
    p.add_argument("-K", "--cols", type=int, default=128)
    p.add_argument("-T", "--tokens", type=int, default=64)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--mixture-weights", type=_float_list, default=[0.5, 0.5])
    p.add_argument("--mixture-sigmas", type=_float_list, default=[1.0, 5.0])
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("quantize", help="quantize an archive into an .aaacq pack")
    p.add_argument("archive", help="input safetensors archive")
    p.add_argument("--out", required=True, help="output .aaacq path")
    p.add_argument("--method", default="aaac", choices=list(metrics.METHODS))
    _add_quant_flags(p)
    p.set_defaults(func=cmd_quantize)

    p = sub.add_parser("dequantize", help="reconstruct weights from an .aaacq pack")
    p.add_argument("pack", help="input .aaacq path")
    p.add_argument("--out", required=True, help="output safetensors archive")
    p.set_defaults(func=cmd_dequantize)

    p = sub.add_parser("eval", help="evaluate a pack against its source archive")
    p.add_argument("pack", help="input .aaacq path")
    p.add_argument("archive", help="source safetensors archive")
    p.add_argument("--w4a8", action="store_true",
                   help="quantize activations to FP8 E4M3 for the output-MSE metric")
    _add_report_flags(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="run methods side by side on an archive")
    p.add_argument("archive", nargs="?", default=None,
                   help="input archive (omit to use a pinned synthetic suite)")
    p.add_argument("--methods", default="rtn,if4,aaac",
                   help="comma-separated subset of rtn,if4,aaac")
    p.add_argument("--seed", type=int, default=0, help="seed of the pinned synthetic suite")
    _add_quant_flags(p)
    _add_report_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


# Every command runs OpenBLAS on one thread, serial or pooled: the parallelism
# that pays is across layers, and BLAS threads under one layer's small products
# only spend CPU.  With them, the benchmark's compare-suite `compare --threads 1`
# took 4.58 CPU-s, and 2.35 on one thread at the same wall time (2 vCPUs).  `main`
# sets it once and never restores it: the process ends with the command, and
# forked workers inherit the count.  A count the environment chooses is left.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


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
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return None


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not any(v in os.environ for v in _BLAS_VARS) and (blas := _openblas_threads()):
        blas[1](1)
    try:
        return args.func(args)
    except AaacqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
