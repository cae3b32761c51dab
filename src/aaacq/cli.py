"""Command-line front end: synth, quantize, dequantize, eval, compare.

All commands are deterministic for fixed inputs, flags and seed; progress
and timing go to standard error so reports stay byte-stable.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

from . import codebooks, metrics, packfmt, tensors
from .errors import AaacqError, PairingError, ValidationError, naming_layer
from .grids import get_format
from .metrics import parallel_map as _parallel_map


def _resolve_config(args) -> tuple[codebooks.AaacConfig, int]:
    """The learner configuration and worker count the flags ask for."""
    env_threads = os.environ.get("AAAC_THREADS", "")
    try:
        threads = int(env_threads) if env_threads else 0
    except ValueError:
        raise ValidationError(f"AAAC_THREADS must be an integer, got {env_threads!r}")
    for source, value in (("AAAC_THREADS", threads), ("--threads", args.threads)):
        if value < 0:
            raise ValidationError(f"{source} must be 0 (all cores) or positive, got {value}")
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
    return cfg, threads or args.threads or os.cpu_count() or 1


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


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

def _quantize_layer(bundle: tensors.LayerBundle, method: str, cfg) -> packfmt.PackedLayer:
    """`quantize`'s task: one layer's pack, with the layer named in any error."""
    with naming_layer(bundle.name):
        packed, trace = metrics.quantize_layer(bundle, method, cfg)
    if trace is not None:
        _log(
            f"  {bundle.name}: objective {trace[0]:.6e} -> {trace[-1]:.6e} "
            f"({trace.size} steps)"
        )
    return packed


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
    with tensors.TensorArchive(args.archive) as archive, _replacing(args.out) as fh:
        writer = packfmt.PackWriter(fh, len(archive.layers))
        # Each task reads its own layer; packs are written in layer order as they finish.
        _parallel_map(
            lambda layer: (layer.name, _quantize_layer(archive.load(layer), args.method, cfg)),
            archive.layers, threads,
            forks=lambda layer: metrics.runs_forked(args.method, layer),
            consume=lambda item: writer.write(*item),
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

        def decode(name):
            with naming_layer(entries[name].name):
                return metrics.reconstruct(pack.read(entries[name]))

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
        rows = []
        for e in pack.layers:
            bundle = archive.load(layers[e.name])
            x_out = None
            if args.w4a8 and bundle.activations is not None:
                x_out = metrics.simulate_w4a8(bundle.activations)
            with naming_layer(e.name):
                rows.append(metrics.score(bundle, pack.read(e), output_activations=x_out))
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


def cmd_synth(args) -> int:
    _check_paths(inputs=[args.config] if args.config else [], outputs=[args.out])
    layers = args.layers
    spec_fields = {
        "kind": args.kind,
        "rows": args.rows,
        "cols": args.cols,
        "tokens": args.tokens,
        "seed": args.seed,
        "sigma": args.sigma,
        "mixture_weights": tuple(args.mixture_weights),
        "mixture_sigmas": tuple(args.mixture_sigmas),
    }
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{args.config}: invalid JSON: {exc}") from exc
        layers = int(doc.pop("layers", layers))
        unknown = set(doc) - set(spec_fields)
        if unknown:
            raise ValidationError(f"{args.config}: unknown keys {sorted(unknown)}")
        for key in ("mixture_weights", "mixture_sigmas"):
            if key in doc:
                doc[key] = tuple(doc[key])
        spec_fields.update(doc)

    bundles = []
    base_seed = spec_fields.pop("seed")
    for i in range(layers):
        spec = tensors.SynthSpec(seed=base_seed + i, **spec_fields)
        bundles.append(tensors.synth_layer(spec, name=f"layer{i:03d}"))
    tensors.save_tensor_archive(args.out, bundles)
    _log(f"wrote {len(bundles)} synthetic layers -> {args.out}")
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
                   help="workers for per-layer work: threads, or forked processes "
                        "for aaac on small layers (default: all cores; "
                        "AAAC_THREADS overrides)")


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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AaacqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
