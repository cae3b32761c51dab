"""Weight/activation tensor model, safetensors-style archives, and synthesis.

Archives follow the safetensors container layout: an 8-byte little-endian
header length, a JSON header mapping tensor names to dtype/shape/offsets,
and the raw payload.  Only f32/f16/bf16 tensors are accepted and everything
is widened to float32 on load.  Layers pair by name convention: a 2-D tensor
`<layer>.weight` optionally joined by `<layer>.calib` activations with the
same number of input columns.

Reading never holds the whole file.  `TensorArchive` checks the header and
the pairing once, and its layer bundles read their tensors with positional
reads at their offsets (not `mmap`, whose pages would count toward the
reader's resident memory), only when asked for, and never kept, a row
block at a time on the block buffers of the caller's `grids.Scratch`: the
weights into its float32 block (`weight_rows`), the calibration tensor
into the caller's float64 array (`read_activations`).  The archive itself
holds no buffers.  `read_tensors` reads every tensor whole, unpaired.
`stream_tensors` writes the header first and then one tensor at a time, a
row block at a time.
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
from .grids import Scratch, bf16_decode, row_blocks

_WEIGHT_SUFFIX = ".weight"
_CALIB_SUFFIX = ".calib"

_DTYPES = {"F32": np.dtype("<f4"), "F16": np.dtype("<f2"), "BF16": np.dtype("<u2")}


def _check_shapes(name: str, w_shape: tuple, x_shape: tuple | None) -> None:
    # A layer's weights are 2-D and non-empty, its activations (when there
    # are any) 2-D with at least one token and as many columns.
    if len(w_shape) != 2 or w_shape[0] < 1 or w_shape[1] < 1:
        raise ValidationError(f"layer {name!r}: weights must be 2-D and non-empty")
    if x_shape is None:
        return
    if len(x_shape) != 2 or x_shape[0] < 1:
        raise ValidationError(f"layer {name!r}: activations must be 2-D with at least one token")
    if x_shape[1] != w_shape[1]:
        raise PairingError(
            f"layer {name!r}: activation columns {x_shape[1]} "
            f"do not match weight columns {w_shape[1]}"
        )


def _check_finite(name: str, what: str, a: np.ndarray, out=None) -> None:
    # `out`, when given, is a bool array of `a`'s shape for the test.
    if not np.isfinite(a, out=out).all():
        raise ValidationError(f"layer {name!r}: {what} contain non-finite values")


class LayerBundle:
    """One linear layer's weights plus optional calibration activations.

    Every quantizer and scorer reads the weights a block of rows at a time
    through `weight_rows`, and the activations, of `activation_shape` (None
    without), into a float64 buffer through `read_activations`, both on the
    caller's scratch.  A bundle made from arrays holds them (`weights`,
    `activations`) and checks them whole.  One that `TensorArchive.load`
    makes holds neither and reads each block from the archive when asked
    for it (see `_ArchiveBundle`).
    """

    def __init__(self, name: str, weights: np.ndarray, activations: np.ndarray | None = None):
        self.name, self.weights, self.activations = name, weights, activations
        self.shape = np.shape(weights)
        self.activation_shape = None if activations is None else np.shape(activations)
        _check_shapes(name, self.shape, self.activation_shape)
        _check_finite(name, "weights", weights)
        if activations is not None:
            _check_finite(name, "activations", activations)

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def weight_rows(self, rows: slice, scratch: Scratch) -> np.ndarray:
        """The weights of the rows `rows`, a slice of step 1: here a view of
        `weights`.  A block read from an archive is a buffer of `scratch`,
        valid until its next read there."""
        return self.weights[rows]

    def read_activations(self, out: np.ndarray, scratch: Scratch) -> None:
        """The activations widened into `out`, a C-contiguous float64 array of
        `activation_shape`: exact, so they are the values of the stored
        tensor.  An archive's are read through `scratch`'s block buffers."""
        np.copyto(out, self.activations)


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


def _pread_tensor(path, fd: int, t: TensorEntry, buf: np.ndarray, skip: int = 0) -> None:
    """Fill the C-contiguous `buf` with the bytes of tensor `t` from `skip` bytes on."""
    if pread_into(fd, buf, t.offset + skip) < buf.nbytes:
        raise FormatError(f"{path}: file ends inside tensor {t.name!r} at byte {t.offset}")


def _read_tensor(path, fd: int, t: TensorEntry) -> np.ndarray:
    """One tensor read at its offset and widened to a float32 array of its own."""
    raw = np.empty(t.nbytes // _DTYPES[t.dtype].itemsize, dtype=_DTYPES[t.dtype])
    _pread_tensor(path, fd, t, raw)
    arr = bf16_decode(raw) if t.dtype == "BF16" else raw.astype(np.float32, copy=False)
    return arr.reshape(t.shape)


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


class ScannedFile:
    """A file opened unbuffered, whose layers `_scan(fd)` lists (`layers`) from
    its headers, closing the file if it raises.  Layers are then read with
    positional reads at `fd`, so threads and forked workers can each read
    their own from the one open file.  Close it, or use it as a context manager."""

    def __init__(self, path):
        self.path = path
        self._file = open(path, "rb", buffering=0)
        self.fd = self._file.fileno()
        try:
            self.layers = self._scan(self.fd)
        except BaseException:
            self._file.close()
            raise

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class TensorArchive(ScannedFile):
    """An open archive: opening checks the header and pairs the layers (`layers`,
    sorted by name), and `load` gives one layer's bundle, which reads its
    tensors from this archive while it is open."""

    def _scan(self, fd: int) -> list[LayerEntry]:
        return _pair_layers(self.path, _parse_header(self.path, fd))

    def _open_fd(self, t: TensorEntry) -> int:
        # A closed descriptor's number may already name another file.
        if self._file.closed:
            raise ValueError(f"{self.path}: tensor {t.name!r} read after the archive was closed")
        return self.fd

    def load(self, layer: LayerEntry) -> LayerBundle:
        """One layer's bundle, checked as `LayerBundle` checks its arrays: the
        shapes now, the values as they are read.  Calibration tensors may carry
        leading batch/sequence dimensions; they are collapsed to (tokens, cols)."""
        return _ArchiveBundle(self, layer)


class _ArchiveBundle(LayerBundle):
    """A layer of an open `TensorArchive`, read only as it is asked for.

    `weight_rows` reads just those rows with one positional read into the
    caller's scratch, widens BF16 and F16 there and checks the block finite
    before returning it.  `read_activations` reads the calibration tensor
    the same way, one row block of tokens at a time, into the caller's
    float64 array.  Nothing is kept between reads.
    """

    def __init__(self, archive: TensorArchive, layer: LayerEntry):
        self.name, self._archive, self._layer = layer.name, archive, layer
        self.shape, self.activation_shape = layer.weight.shape, None
        if layer.calib is not None:
            *lead, cols = layer.calib.shape
            self.activation_shape = (math.prod(lead), cols)
        _check_shapes(self.name, self.shape, self.activation_shape)

    def read_activations(self, out: np.ndarray, scratch: Scratch) -> None:
        for r in row_blocks(*out.shape):
            self._read_rows(self._layer.calib, r, scratch, out[r])

    def weight_rows(self, rows: slice, scratch: Scratch) -> np.ndarray:
        return self._read_rows(self._layer.weight, rows, scratch)

    def _read_rows(self, t: TensorEntry, rows: slice, scratch: Scratch,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Rows `rows` of the weights or activations `t`, widened into `out`
        (float32 or float64), by default the float32 block buffer of `scratch`."""
        weights = t is self._layer.weight
        n, cols = self.shape if weights else self.activation_shape
        a, b, step = rows.indices(n)
        if step != 1:
            raise ValueError(f"rows must be a slice of step 1, got {rows}")
        if out is None:
            out = scratch.take("rows", (b - a, cols), np.float32)
        raw = out
        if _DTYPES[t.dtype] != out.dtype:
            raw = scratch.take("raw", out.shape, _DTYPES[t.dtype])
        archive = self._archive
        _pread_tensor(archive.path, archive._open_fd(t), t, raw, a * cols * raw.itemsize)
        if t.dtype == "BF16":
            wide = out if out.dtype == np.float32 else scratch.take("rows", out.shape, np.float32)
            bf16_decode(raw, out=wide)
            raw = wide
        if raw is not out:
            np.copyto(out, raw)
        _check_finite(self.name, "weights" if weights else "activations", out,
                      scratch.take("finite", out.shape, np.bool_))
        return out


def read_tensors(path) -> dict[str, np.ndarray]:
    """Read all tensors from a safetensors container, widened to float32."""
    with open(path, "rb", buffering=0) as fh:
        fd = fh.fileno()
        return {name: _read_tensor(path, fd, t) for name, t in _parse_header(path, fd).items()}


def stream_tensors(fh, shapes: dict[str, tuple[int, ...]], produce) -> None:
    """Write float32 tensors into a safetensors container on `fh`, one at a time.

    The header goes out first, from `shapes` alone; then each tensor, in
    sorted-name order, from `produce(name)`: an iterable of its row blocks
    in order, arrays of its shape but for their first dimension, which add
    up to its own (a whole tensor is one block).  Each block is written
    before the next is asked for, so a producer can hold one block at a
    time.  The bytes depend only on the tensors.
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
        shape = tuple(shapes[name])
        rows, done = shape[0] if shape else 1, 0  # a 0-d tensor is one block of one "row"
        for block in produce(name):
            arr = np.ascontiguousarray(block, dtype="<f4")
            done += arr.shape[0] if arr.ndim else 1
            if arr.shape[1:] != shape[1:] or arr.ndim != len(shape) or done > rows:
                raise ValidationError(
                    f"tensor {name!r}: a block of shape {arr.shape} does not fit the header's {shape}"
                )
            fh.write(arr.reshape(-1).view(np.uint8))
        if done != rows:
            raise ValidationError(f"tensor {name!r}: blocks of {done} rows for the header's {shape}")


def write_tensors(path, tensors: dict[str, np.ndarray]) -> None:
    """Write float32 tensors into a safetensors container (deterministic bytes)."""
    with open(path, "wb") as fh:
        stream_tensors(fh, {name: np.shape(arr) for name, arr in tensors.items()},
                       lambda name: [tensors[name]])


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
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")
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
