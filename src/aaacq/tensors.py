"""Weight/activation tensor model, safetensors-style archives, and synthesis.

Archives follow the safetensors container layout: an 8-byte little-endian
header length, a JSON header mapping tensor names to dtype/shape/offsets,
and the raw payload.  Only f32/f16/bf16 tensors are accepted and everything
is widened to float32 on load.  Layers pair by name convention: a 2-D tensor
`<layer>.weight` optionally joined by `<layer>.calib` activations with the
same number of input columns.

Reading never holds the whole file.  `TensorArchive` checks the header and
the pairing once, then reads one layer's tensors at a time with positional
reads at their offsets (not `mmap`, whose pages would count toward the
reader's resident memory); `read_tensors` and `load_tensor_archive` read
every tensor through the same path.  `stream_tensors` writes the header
first and then one tensor at a time.
"""

from __future__ import annotations

import json
import math
import os
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

_DTYPES = {"F32": np.dtype("<f4"), "F16": np.dtype("<f2"), "BF16": np.dtype("<u2")}


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

@dataclass(frozen=True)
class TensorEntry:
    """One tensor's header entry: dtype, shape and where its bytes lie in the file."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    offset: int  # absolute file offset of the first byte
    nbytes: int


@dataclass(frozen=True)
class LayerEntry:
    """A layer's weight tensor and optional calibration tensor, not yet read."""

    name: str
    weight: TensorEntry
    calib: TensorEntry | None

    @property
    def rows(self) -> int:
        return self.weight.shape[0]

    @property
    def cols(self) -> int:
        return self.weight.shape[1]


def pread_into(fd: int, buf, offset: int) -> int:
    """Fill the writable buffer `buf` from `fd` at `offset`; returns the bytes read.

    Fewer than `buf` holds only at end of file.  A positional read leaves the
    file position alone, so threads and forked workers can share one
    descriptor.
    """
    view = memoryview(buf).cast("B")
    done = 0
    while done < len(view):
        n = os.preadv(fd, [view[done:]], offset + done)
        if n == 0:
            break
        done += n
    return done


def _int_list(value) -> bool:
    return isinstance(value, list) and all(type(v) is int for v in value)  # bools are not


def _parse_header(path, fd: int) -> dict[str, TensorEntry]:
    """Read and check an archive's header: every tensor's entry, in header order.

    Everything that can make a tensor unreadable is rejected here, before
    any tensor is read.
    """
    size = os.fstat(fd).st_size
    head = os.pread(fd, 8, 0)
    if len(head) < 8:
        raise FormatError(f"{path}: truncated container, no header length at byte 0")
    (header_len,) = struct.unpack("<Q", head)
    if 8 + header_len > size:
        raise FormatError(f"{path}: header length {header_len} at byte 0 exceeds file size {size}")
    raw = bytearray(header_len)
    if pread_into(fd, raw, 8) < header_len:
        raise FormatError(f"{path}: file shrank while its header at byte 8 was read")
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, overlong ints, deep nesting
        raise FormatError(f"{path}: malformed JSON header at byte 8: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header at byte 8 is not a JSON object")

    base = 8 + header_len
    payload_size = size - base
    entries: dict[str, TensorEntry] = {}
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
        if dtype not in _DTYPES:
            raise UnsupportedDtypeError(
                f"{path}: tensor {name!r} has unsupported dtype {dtype!r}"
            )
        if any(d < 0 for d in shape):
            raise FormatError(f"{path}: tensor {name!r} has negative dimensions {list(shape)}")
        # Python ints: a product of huge dimensions must not wrap around.
        nbytes = math.prod(shape) * _DTYPES[dtype].itemsize
        if start < 0 or end > payload_size or end - start != nbytes:
            raise FormatError(
                f"{path}: tensor {name!r} offsets [{start}, {end}) are inconsistent "
                f"with payload size {payload_size} at byte {base + max(start, 0)}"
            )
        try:  # numpy's own check of the float32 array the tensor widens to, unallocated
            np.broadcast_to(np.float32(0), shape)
        except ValueError as exc:  # e.g. more dimensions than numpy supports
            raise FormatError(f"{path}: tensor {name!r} shape {list(shape)}: {exc}") from exc
        entries[name] = TensorEntry(name, dtype, shape, base + start, nbytes)
    return entries


def _read_tensor(path, fd: int, t: TensorEntry, shape=None) -> np.ndarray:
    """One tensor read at its offset and widened to a float32 array of its own."""
    raw = np.empty(t.nbytes // _DTYPES[t.dtype].itemsize, dtype=_DTYPES[t.dtype])
    if pread_into(fd, raw.view(np.uint8), t.offset) < t.nbytes:
        raise FormatError(f"{path}: file ends inside tensor {t.name!r} at byte {t.offset}")
    if t.dtype == "BF16":
        bits = raw.astype(np.uint32)
        bits <<= 16
        arr = bits.view(np.float32)
    else:
        arr = raw.astype(np.float32, copy=False)
    return arr.reshape(t.shape if shape is None else shape)


def _pair_layers(path, entries: dict[str, TensorEntry]) -> list[LayerEntry]:
    """Pair `<layer>.weight` with `<layer>.calib` entries; layers sorted by name."""
    weights, calibs = {}, {}
    for name, t in entries.items():
        if name.endswith(_WEIGHT_SUFFIX):
            if len(t.shape) != 2:
                raise PairingError(f"{path}: weight tensor {name!r} is not 2-D")
            weights[name[: -len(_WEIGHT_SUFFIX)]] = t
        elif name.endswith(_CALIB_SUFFIX):
            if len(t.shape) < 2:
                raise PairingError(f"{path}: calibration tensor {name!r} is not at least 2-D")
            calibs[name[: -len(_CALIB_SUFFIX)]] = t

    orphans = sorted(set(calibs) - set(weights))
    if orphans:
        raise PairingError(f"{path}: calibration tensors without weights for {orphans}")

    layers = []
    for layer in sorted(weights):
        w, x = weights[layer], calibs.get(layer)
        if x is not None and x.shape[-1] != w.shape[1]:
            raise PairingError(
                f"{path}: layer {layer!r} pairs weight cols {w.shape[1]} "
                f"with calibration cols {x.shape[-1]}"
            )
        layers.append(LayerEntry(layer, w, x))
    return layers


class TensorArchive:
    """An open archive whose layers are read one at a time.

    Opening reads and checks the header and pairs the layers (`layers`,
    sorted by name); `load` then reads and widens only one layer's tensors,
    with positional reads, so threads and forked workers can each load their
    own layer from the one open file.  Close it, or use it as a context
    manager.
    """

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb", buffering=0)
        try:
            self.layers = _pair_layers(path, _parse_header(path, self._file.fileno()))
        except BaseException:
            self._file.close()
            raise

    def load(self, layer: LayerEntry) -> LayerBundle:
        """One layer's bundle.  Calibration tensors may carry leading
        batch/sequence dimensions; they are collapsed to (tokens, cols)."""
        fd = self._file.fileno()
        w = _read_tensor(self.path, fd, layer.weight)
        x = None
        if layer.calib is not None:
            *lead, cols = layer.calib.shape
            x = _read_tensor(self.path, fd, layer.calib, (math.prod(lead), cols))
        return LayerBundle(layer.name, w, x)

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read all tensors from a safetensors container, widened to float32."""
    with open(path, "rb", buffering=0) as fh:
        fd = fh.fileno()
        return {name: _read_tensor(path, fd, t) for name, t in _parse_header(path, fd).items()}


def load_tensor_archive(path) -> list[LayerBundle]:
    """Every layer bundle of an archive, loaded at once and sorted by layer name."""
    with TensorArchive(path) as archive:
        return [archive.load(layer) for layer in archive.layers]


def stream_tensors(fh, shapes: dict[str, tuple[int, ...]], produce) -> None:
    """Write float32 tensors into a safetensors container on `fh`, one at a time.

    The header goes out first, from `shapes` alone; then each tensor, in
    sorted-name order, is `produce(name)` and is written before the next is
    asked for.  The bytes depend only on the tensors.
    """
    names = sorted(shapes)
    entries, offset = {}, 0
    for name in names:
        nbytes = 4 * math.prod(shapes[name])
        entries[name] = {
            "dtype": "F32",
            "shape": list(shapes[name]),
            "data_offsets": [offset, offset + nbytes],
        }
        offset += nbytes
    header = json.dumps(entries, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header += b" " * (-len(header) % 8)
    fh.write(struct.pack("<Q", len(header)))
    fh.write(header)
    for name in names:
        arr = np.ascontiguousarray(produce(name), dtype="<f4")
        if arr.shape != tuple(shapes[name]):
            raise ValidationError(
                f"tensor {name!r} has shape {arr.shape}, not the header's {tuple(shapes[name])}"
            )
        fh.write(arr.reshape(-1).view(np.uint8))


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write float32 tensors into a safetensors container (deterministic bytes)."""
    with open(path, "wb") as fh:
        stream_tensors(fh, {name: np.shape(arr) for name, arr in tensors.items()},
                       tensors.__getitem__)


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
