"""Weight/activation tensor model, safetensors-style archives, and synthesis.

Archives follow the safetensors container layout: an 8-byte little-endian
header length, a JSON header mapping tensor names to dtype/shape/offsets,
and the raw payload.  Only f32/f16/bf16 tensors are accepted and everything
is widened to float32 on load.  Layers pair by name convention: a 2-D tensor
`<layer>.weight` optionally joined by `<layer>.calib` activations with the
same number of input columns.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    FormatError,
    PairingError,
    UnsupportedDtypeError,
    ValidationError,
)

_WEIGHT_SUFFIX = ".weight"
_CALIB_SUFFIX = ".calib"

_DTYPE_SIZES = {"F32": 4, "F16": 2, "BF16": 2}


@dataclass(frozen=True)
class LayerBundle:
    """One linear layer's weights plus optional calibration activations."""

    name: str
    weights: np.ndarray
    activations: np.ndarray | None = None

    def __post_init__(self):
        w = self.weights
        if w.ndim != 2 or w.shape[0] < 1 or w.shape[1] < 1:
            raise ValidationError(f"layer {self.name!r}: weights must be 2-D and non-empty")
        if not np.isfinite(w).all():
            raise ValidationError(f"layer {self.name!r}: weights contain non-finite values")
        x = self.activations
        if x is not None:
            if x.ndim != 2:
                raise ValidationError(f"layer {self.name!r}: activations must be 2-D")
            if not np.isfinite(x).all():
                raise ValidationError(f"layer {self.name!r}: activations contain non-finite values")
            if x.shape[1] != w.shape[1]:
                raise PairingError(
                    f"layer {self.name!r}: activation columns {x.shape[1]} "
                    f"do not match weight columns {w.shape[1]}"
                )

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]


# ---------------------------------------------------------------------------
# Archive reading / writing
# ---------------------------------------------------------------------------

def _widen(raw: bytes, dtype: str, shape: tuple[int, ...]) -> np.ndarray:
    if dtype == "F32":
        arr = np.frombuffer(raw, dtype="<f4")
    elif dtype == "F16":
        arr = np.frombuffer(raw, dtype="<f2").astype(np.float32)
    elif dtype == "BF16":
        bits = np.frombuffer(raw, dtype="<u2").astype(np.uint32)
        arr = (bits << 16).view(np.float32)
    else:
        raise UnsupportedDtypeError(f"unsupported tensor dtype {dtype!r} (expected F32/F16/BF16)")
    return np.ascontiguousarray(arr.reshape(shape).astype(np.float32))


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)  # bools are not


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read all tensors from a safetensors container, widened to float32."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 8:
        raise FormatError(f"{path}: truncated container, no header length at byte 0")
    (header_len,) = struct.unpack_from("<Q", blob, 0)
    if 8 + header_len > len(blob):
        raise FormatError(
            f"{path}: header length {header_len} at byte 0 exceeds file size {len(blob)}"
        )
    try:
        header = json.loads(blob[8 : 8 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, overlong ints, deep nesting
        raise FormatError(f"{path}: malformed JSON header at byte 8: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header at byte 8 is not a JSON object")

    payload = blob[8 + header_len :]
    tensors: dict[str, np.ndarray] = {}
    for name, entry in header.items():
        if name == "__metadata__":
            continue
        try:
            dtype, shape, offsets = str(entry["dtype"]), entry["shape"], entry["data_offsets"]
        except (KeyError, TypeError) as exc:
            raise FormatError(f"{path}: malformed header entry for {name!r}") from exc
        if not (_int_list(shape) and _int_list(offsets) and len(offsets) == 2):
            raise FormatError(f"{path}: header entry for {name!r} needs integer shape and offsets")
        shape, (start, end) = tuple(shape), offsets
        if dtype not in _DTYPE_SIZES:
            raise UnsupportedDtypeError(
                f"{path}: tensor {name!r} has unsupported dtype {dtype!r}"
            )
        if any(d < 0 for d in shape):
            raise FormatError(f"{path}: tensor {name!r} has negative dimensions {list(shape)}")
        # Python ints: a product of huge dimensions must not wrap around.
        nbytes = math.prod(shape) * _DTYPE_SIZES[dtype]
        if start < 0 or end > len(payload) or end - start != nbytes:
            raise FormatError(
                f"{path}: tensor {name!r} offsets [{start}, {end}) are inconsistent "
                f"with payload size {len(payload)} at byte {8 + header_len + max(start, 0)}"
            )
        try:
            tensors[name] = _widen(payload[start:end], dtype, shape)
        except ValueError as exc:  # e.g. more dimensions than numpy supports
            raise FormatError(f"{path}: tensor {name!r} shape {list(shape)}: {exc}") from exc
    return tensors


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write float32 tensors into a safetensors container (deterministic bytes)."""
    entries = {}
    payload = bytearray()
    for name in sorted(tensors):
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float32))
        start = len(payload)
        payload += arr.tobytes()
        entries[name] = {
            "dtype": "F32",
            "shape": list(arr.shape),
            "data_offsets": [start, len(payload)],
        }
    header = json.dumps(entries, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header += b" " * (-len(header) % 8)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(bytes(payload))


def load_tensor_archive(path) -> list[LayerBundle]:
    """Load layer bundles from an archive, pairing `.weight` with `.calib`.

    Calibration tensors may carry leading batch/sequence dimensions; they are
    collapsed to (tokens, cols).  Returns bundles sorted by layer name.
    """
    tensors = read_tensors(path)
    weights = {}
    calibs = {}
    for name, arr in tensors.items():
        if name.endswith(_WEIGHT_SUFFIX):
            layer = name[: -len(_WEIGHT_SUFFIX)]
            if arr.ndim != 2:
                raise PairingError(f"{path}: weight tensor {name!r} is not 2-D")
            weights[layer] = arr
        elif name.endswith(_CALIB_SUFFIX):
            layer = name[: -len(_CALIB_SUFFIX)]
            if arr.ndim < 2:
                raise PairingError(f"{path}: calibration tensor {name!r} is not at least 2-D")
            calibs[layer] = arr.reshape(math.prod(arr.shape[:-1]), arr.shape[-1])

    orphans = sorted(set(calibs) - set(weights))
    if orphans:
        raise PairingError(f"{path}: calibration tensors without weights for {orphans}")

    bundles = []
    for layer in sorted(weights):
        w = weights[layer]
        x = calibs.get(layer)
        if x is not None and x.shape[1] != w.shape[1]:
            raise PairingError(
                f"{path}: layer {layer!r} pairs weight cols {w.shape[1]} "
                f"with calibration cols {x.shape[1]}"
            )
        bundles.append(LayerBundle(layer, w, x))
    return bundles


def save_tensor_archive(path, bundles: list[LayerBundle]) -> None:
    """Write bundles back into a safetensors container."""
    tensors: dict[str, np.ndarray] = {}
    for b in bundles:
        tensors[b.name + _WEIGHT_SUFFIX] = b.weights
        if b.activations is not None:
            tensors[b.name + _CALIB_SUFFIX] = b.activations
    write_tensors(path, tensors)


# ---------------------------------------------------------------------------
# Synthetic calibration layers
# ---------------------------------------------------------------------------

SYNTH_KINDS = ("gaussian", "laplace", "mixture")


@dataclass(frozen=True)
class SynthSpec:
    """Distribution spec for a synthetic layer (deterministic per seed).

    `sigma` is the gaussian standard deviation or the laplace scale; mixture
    layers draw each weight from N(0, sigma_i) with component probabilities
    `mixture_weights`.  Activation columns get variances drawn log-uniformly
    in [0.1, 10] so the per-column importance profile is non-uniform.
    """

    kind: str
    rows: int
    cols: int
    tokens: int
    seed: int = 0
    sigma: float = 1.0
    mixture_weights: tuple[float, ...] = (0.5, 0.5)
    mixture_sigmas: tuple[float, ...] = (1.0, 5.0)

    def __post_init__(self):
        if self.kind not in SYNTH_KINDS:
            raise ValidationError(f"unknown synth kind {self.kind!r}; supported: {SYNTH_KINDS}")
        if min(self.rows, self.cols, self.tokens) < 1:
            raise ValidationError("rows, cols and tokens must all be at least 1")
        if self.sigma <= 0:
            raise ValidationError("sigma must be positive")
        if self.kind == "mixture":
            if len(self.mixture_weights) != len(self.mixture_sigmas):
                raise ValidationError("mixture weights and sigmas must have equal length")
            if abs(sum(self.mixture_weights) - 1.0) > 1e-9:
                raise ValidationError("mixture weights must sum to 1")
            if any(p < 0 for p in self.mixture_weights):
                raise ValidationError("mixture weights must be non-negative")
            if any(s <= 0 for s in self.mixture_sigmas):
                raise ValidationError("mixture sigmas must be positive")


def synth_layer(spec: SynthSpec, name: str = "synth") -> LayerBundle:
    """Generate a layer bundle from a distribution spec; pure in the spec."""
    rng = np.random.default_rng(spec.seed)
    shape = (spec.rows, spec.cols)
    if spec.kind == "gaussian":
        w = rng.normal(0.0, spec.sigma, shape)
    elif spec.kind == "laplace":
        w = rng.laplace(0.0, spec.sigma, shape)
    else:
        comp = rng.choice(len(spec.mixture_weights), size=shape, p=spec.mixture_weights)
        sigmas = np.asarray(spec.mixture_sigmas)[comp]
        w = rng.normal(0.0, 1.0, shape) * sigmas
    col_std = np.sqrt(10.0 ** rng.uniform(-1.0, 1.0, spec.cols))
    x = rng.normal(0.0, 1.0, (spec.tokens, spec.cols)) * col_std
    return LayerBundle(name, w.astype(np.float32), x.astype(np.float32))
