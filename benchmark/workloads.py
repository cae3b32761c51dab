"""The benchmark's workloads: seeded inputs and the CLI commands run on them.

Each workload writes its input archive(s) into a directory and lists the
`aaacq` commands a user would run on them, with what each command writes.
See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import struct
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MW = 1e6


@dataclass(frozen=True)
class Command:
    """One `aaacq` invocation.

    `kind` is quantize, eval, dequantize or compare; `args` follow the
    program name and name files relative to the run's directories, as
    `{in}/...` for inputs and `{out}/...` for outputs.
    """

    kind: str
    args: tuple[str, ...]
    mweights: float
    repeat: int = 1                  # runs per pass; short commands repeat for a steady median
    pack: str | None = None          # .aaacq written
    report: str | None = None        # --json report written
    tensors: str | None = None       # dequantized archive written
    source_pack: str | None = None   # pack a dequantize reads


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object              # (directory, seed, env) -> None
    commands: object                 # (threads) -> list[Command]
    # Gap recovery: (method, report holding it, report holding rtn).
    gap: tuple[str, str, str]


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def to_bf16_bits(x: np.ndarray) -> np.ndarray:
    """Round float32 values to BF16 (nearest, ties to even); finite inputs only."""
    bits = np.ascontiguousarray(x, dtype=np.float32).view(np.uint32)
    return ((bits + 0x7FFF + ((bits >> 16) & 1)) >> 16).astype(np.uint16)


def write_safetensors(path: Path, tensors: dict[str, tuple[str, np.ndarray]]) -> None:
    """Write `{name: (dtype, array)}` with dtype F32 or BF16 into a safetensors file.

    BF16 arrays are given as float32 and rounded here.  Names are sorted and
    the header is space-padded to 8 bytes, so the bytes depend only on the
    tensors.
    """
    entries, chunks, offset = {}, [], 0
    for name in sorted(tensors):
        dtype, arr = tensors[name]
        if dtype == "BF16":
            raw = to_bf16_bits(arr).astype("<u2").tobytes()
        elif dtype == "F32":
            raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        else:
            raise ValueError(f"unsupported dtype {dtype}")
        entries[name] = {
            "dtype": dtype,
            "shape": list(arr.shape),
            "data_offsets": [offset, offset + len(raw)],
        }
        chunks.append(raw)
        offset += len(raw)
    header = json.dumps(entries, sort_keys=True, separators=(",", ":")).encode()
    header += b" " * (-len(header) % 8)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for raw in chunks:
            fh.write(raw)


def _layer(rng, kind: str, rows: int, cols: int, tokens: int):
    """Weights and calibration activations drawn like `aaacq synth` draws them."""
    if kind == "gaussian":
        w = rng.normal(0.0, 1.0, (rows, cols))
    elif kind == "laplace":
        w = rng.laplace(0.0, 1.0, (rows, cols))
    else:
        sigmas = np.array([1.0, 5.0])[rng.integers(0, 2, (rows, cols))]
        w = rng.normal(0.0, 1.0, (rows, cols)) * sigmas
    col_std = np.sqrt(10.0 ** rng.uniform(-1.0, 1.0, cols))
    x = rng.normal(0.0, 1.0, (tokens, cols)) * col_std
    return w.astype(np.float32), x.astype(np.float32)


def _write_suite(path: Path, seed: int, layers, weight_dtype: str) -> None:
    tensors = {}
    for i, (kind, rows, cols, tokens) in enumerate(layers):
        rng = np.random.default_rng([seed, i])
        w, x = _layer(rng, kind, rows, cols, tokens)
        tensors[f"layer{i:03d}.weight"] = (weight_dtype, w)
        tensors[f"layer{i:03d}.calib"] = ("F32", x)
    write_safetensors(path, tensors)


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "aaacq.cli", *args]


# ---------------------------------------------------------------------------
# learn-large
# ---------------------------------------------------------------------------

LL_SHAPE = (512, 4096)
LL_LAYERS = 2
LL_MW = LL_LAYERS * LL_SHAPE[0] * LL_SHAPE[1] / MW


def _learn_large_inputs(directory: Path, seed: int, env) -> None:
    rows, cols = LL_SHAPE
    subprocess.run(
        cli_argv(
            "synth", "--out", str(directory / "model.safetensors"),
            "--layers", str(LL_LAYERS), "--kind", "mixture",
            "-N", str(rows), "-K", str(cols), "-T", "256", "--seed", str(seed),
        ),
        env=env, check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )


def _learn_large_commands(threads: int) -> list[Command]:
    t = ("--threads", str(threads))
    model = "{in}/model.safetensors"
    return [
        Command("quantize", ("quantize", model, "--out", "{out}/aaac.aaacq",
                             "--method", "aaac", *t), LL_MW, pack="aaac.aaacq"),
        Command("quantize", ("quantize", model, "--out", "{out}/rtn.aaacq",
                             "--method", "rtn", *t), LL_MW, pack="rtn.aaacq", repeat=2),
        Command("eval", ("eval", "{out}/aaac.aaacq", model, "--json",
                         "--out", "{out}/aaac.json"), LL_MW, report="aaac.json", repeat=2),
        Command("eval", ("eval", "{out}/rtn.aaacq", model, "--json",
                         "--out", "{out}/rtn.json"), LL_MW, report="rtn.json", repeat=2),
        Command("dequantize", ("dequantize", "{out}/aaac.aaacq",
                               "--out", "{out}/aaac.safetensors"), LL_MW,
                tensors="aaac.safetensors", source_pack="aaac.aaacq", repeat=5),
        Command("compare", ("compare", model, "--methods", "rtn", "--json",
                            "--out", "{out}/compare.json", *t), LL_MW,
                report="compare.json", repeat=2),
    ]


# ---------------------------------------------------------------------------
# fixed-grid-io
# ---------------------------------------------------------------------------

FG_LAYERS = 32
FG_SHAPE = (512, 1024)
FG_MW = FG_LAYERS * FG_SHAPE[0] * FG_SHAPE[1] / MW


def _fixed_grid_inputs(directory: Path, seed: int, env) -> None:
    layers = [("laplace", *FG_SHAPE, 128)] * FG_LAYERS
    _write_suite(directory / "model.safetensors", seed, layers, "BF16")


def _fixed_grid_commands(threads: int) -> list[Command]:
    t = ("--threads", str(threads))
    model = "{in}/model.safetensors"
    return [
        Command("quantize", ("quantize", model, "--out", "{out}/rtn.aaacq",
                             "--method", "rtn", *t), FG_MW, pack="rtn.aaacq", repeat=2),
        Command("quantize", ("quantize", model, "--out", "{out}/if4.aaacq",
                             "--method", "if4", *t), FG_MW, pack="if4.aaacq"),
        Command("eval", ("eval", "{out}/rtn.aaacq", model, "--json",
                         "--out", "{out}/rtn.json"), FG_MW, report="rtn.json", repeat=2),
        Command("eval", ("eval", "{out}/if4.aaacq", model, "--json", "--w4a8",
                         "--out", "{out}/if4.json"), FG_MW, report="if4.json", repeat=2),
        Command("dequantize", ("dequantize", "{out}/if4.aaacq",
                               "--out", "{out}/if4.safetensors"), FG_MW,
                tensors="if4.safetensors", source_pack="if4.aaacq", repeat=5),
        Command("compare", ("compare", model, "--methods", "rtn", "--json",
                            "--out", "{out}/compare.json", *t), FG_MW,
                report="compare.json", repeat=2),
    ]


# ---------------------------------------------------------------------------
# compare-suite
# ---------------------------------------------------------------------------

CS_KINDS = ("gaussian", "laplace", "mixture")
CS_LAYERS = 96
CS_MW = CS_LAYERS * 64 * 512 / MW
CS_FLAGS = ("--format", "int4", "-g", "128", "-S", "16")


def _compare_suite_inputs(directory: Path, seed: int, env) -> None:
    layers = [(CS_KINDS[i % 3], 64, 512, 64) for i in range(CS_LAYERS)]
    _write_suite(directory / "model.safetensors", seed, layers, "F32")


def _compare_suite_commands(threads: int) -> list[Command]:
    t = ("--threads", str(threads))
    model = "{in}/model.safetensors"
    return [
        Command("compare", ("compare", model, "--methods", "rtn,if4,aaac", *CS_FLAGS,
                            "--json", "--out", "{out}/compare.json", *t), 3 * CS_MW,
                report="compare.json"),
        Command("quantize", ("quantize", model, "--out", "{out}/rtn.aaacq",
                             "--method", "rtn", "--format", "int4", "-g", "128", *t),
                CS_MW, pack="rtn.aaacq", repeat=5),
        Command("eval", ("eval", "{out}/rtn.aaacq", model, "--json",
                         "--out", "{out}/rtn.json"), CS_MW, report="rtn.json", repeat=3),
        Command("dequantize", ("dequantize", "{out}/rtn.aaacq",
                               "--out", "{out}/rtn.safetensors"), CS_MW,
                tensors="rtn.safetensors", source_pack="rtn.aaacq", repeat=5),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "learn-large",
            _learn_large_inputs, _learn_large_commands,
            gap=("aaac", "aaac.json", "rtn.json"),
        ),
        Workload(
            "fixed-grid-io",
            _fixed_grid_inputs, _fixed_grid_commands,
            gap=("if4", "if4.json", "rtn.json"),
        ),
        Workload(
            "compare-suite",
            _compare_suite_inputs, _compare_suite_commands,
            gap=("aaac", "compare.json", "compare.json"),
        ),
    )
}
