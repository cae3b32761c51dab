"""Bit-exact packed representation of quantized layers (.aaacq container).

Layer payload layout, little-endian throughout:

    u16 name length, UTF-8 name
    u8 format kind (0 = nvfp4, 1 = int4)
    u32 rows, u32 cols
    u16 scale group size, u16 selection group size
    u8 table size, u8 flags
    u32 CRC32 of the section payload
    sections, in order, each zero-padded to a 16-byte boundary:
        codebooks:  2 * table_size BF16 words (table 0 then table 1)
        scales:     one BF16 word per scale group, row-major; when the
                    selection and scale groups coincide the sign bit holds
                    the group's table-selection bit (scales are positive,
                    so the sign bit is otherwise unused)
        codes:      two 4-bit codes per byte, low nibble = even column
        bitset:     present only when the selection group is finer than the
                    scale group; one bit per selection group, LSB-first

Flag bit 0 marks the presence of the selection bitset; bits 1-2 carry an
informational method tag (0 unspecified, 1 rtn, 2 if4, 3 aaac).

A container is the magic "AAACQ\\0", a u16 version, a u32 layer count, and
the layer payloads in order.  Layer names must be unique.

Neither side needs the whole container in memory.  `PackWriter` writes the
count up front and then one layer at a time; `PackReader` checks every
header first, skipping the payloads, and then reads one layer at a time
with positional reads.  `write_pack`, `read_pack`, `model_to_bytes` and
`model_from_bytes` are whole-container wrappers over the same code.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    CorruptionError,
    LayoutError,
    UnsupportedConfigError,
    ValidationError,
    naming_layer,
)
from .grids import bf16_bits, bf16_decode
from .tensors import pread_into

MAGIC = b"AAACQ\x00"
VERSION = 1
SECTION_ALIGN = 16

FLAG_BITSET = 0x01

KIND_NAMES = {0: "nvfp4", 1: "int4"}
KIND_IDS = {v: k for k, v in KIND_NAMES.items()}

METHOD_TAGS = {0: "unspecified", 1: "rtn", 2: "if4", 3: "aaac"}
METHOD_IDS = {v: k for k, v in METHOD_TAGS.items()}

_HEADER = struct.Struct("<BIIHHBB")


def _pad16(nbytes: int) -> int:
    return -(-nbytes // SECTION_ALIGN) * SECTION_ALIGN


@dataclass(frozen=True)
class PackedLayer:
    """A quantized layer in packed form; field semantics match the layout above."""

    kind: int
    rows: int
    cols: int
    group_size: int
    sel_size: int
    table_size: int
    flags: int
    table0_bits: np.ndarray   # uint16, table_size BF16 patterns
    table1_bits: np.ndarray
    scale_bits: np.ndarray    # uint16, rows * cols / group_size
    code_bytes: bytes         # ceil(rows * cols / 2)
    bitset: bytes | None

    @property
    def has_bitset(self) -> bool:
        return bool(self.flags & FLAG_BITSET)

    @property
    def method(self) -> str:
        return METHOD_TAGS.get((self.flags >> 1) & 0x3, "unspecified")


def size_breakdown(
    rows: int, cols: int, group_size: int, sel_size: int, table_size: int, name_len: int = 0
) -> dict[str, int]:
    """Raw byte counts per component of one packed layer, before padding."""
    count = rows * cols
    return {
        "header_bytes": 2 + name_len + _HEADER.size + 4,
        "codebook_bytes": 4 * table_size,
        "scale_bytes": 2 * (count // group_size),
        "code_bytes": -(-count // 2),
        "bitset_bytes": -(-(count // sel_size) // 8) if sel_size < group_size else 0,
    }


def packed_size(
    rows: int, cols: int, group_size: int, sel_size: int, table_size: int, name_len: int = 0
) -> int:
    """Exact serialized length of one layer, including 16-byte section padding."""
    b = size_breakdown(rows, cols, group_size, sel_size, table_size, name_len)
    total = b["header_bytes"]
    for key in ("codebook_bytes", "scale_bytes", "code_bytes", "bitset_bytes"):
        if b[key]:
            total += _pad16(b[key])
    return total


def selection_overhead_bpw(group_size: int, sel_size: int) -> float:
    """Extra bits per weight spent on selection metadata (0 when sizes match)."""
    return 1.0 / sel_size if sel_size < group_size else 0.0


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------

def pack(
    table0,
    table1,
    selection: np.ndarray,
    codes: np.ndarray,
    scales: np.ndarray,
    *,
    kind: str | int,
    group_size: int,
    sel_size: int,
    method: str = "unspecified",
) -> PackedLayer:
    """Assemble a packed layer from in-memory pieces.

    Scales are rounded to BF16 before the selection bit is injected into the
    sign position; tables are rounded to BF16 as well.  When the selection
    group is finer than the scale group the selection goes into a separate
    bitset and every stored scale keeps a clear sign bit.
    """
    t0 = np.asarray(table0, dtype=np.float64)
    t1 = np.asarray(table1, dtype=np.float64)
    codes = np.asarray(codes, dtype=np.uint8)
    sel = np.asarray(selection, dtype=np.uint8)
    scales = np.asarray(scales, dtype=np.float32)

    if sel_size > group_size:
        raise UnsupportedConfigError(
            f"selection group size {sel_size} exceeds scale group size {group_size}"
        )
    if codes.ndim != 2:
        raise ValidationError("codes must be 2-D")
    rows, cols = codes.shape
    if cols % group_size != 0 or cols % sel_size != 0 or group_size % sel_size != 0:
        raise LayoutError(
            f"column count {cols} incompatible with group sizes "
            f"(scale {group_size}, selection {sel_size})"
        )
    if t0.size != t1.size or not 1 <= t0.size <= 16:
        raise ValidationError("tables must have equal sizes between 1 and 16")
    if scales.shape != (rows, cols // group_size):
        raise ValidationError(
            f"scales shape {scales.shape} does not match ({rows}, {cols // group_size})"
        )
    if sel.shape != (rows, cols // sel_size):
        raise ValidationError(
            f"selection shape {sel.shape} does not match ({rows}, {cols // sel_size})"
        )
    if codes.size and int(codes.max()) >= t0.size:
        raise ValidationError(
            f"code {int(codes.max())} out of range for {t0.size}-entry tables"
        )
    if not np.isfinite(scales).all() or (scales <= 0).any():
        raise ValidationError("scales must be finite and strictly positive")

    scale_bits = bf16_bits(scales).reshape(-1)
    flags = 0
    bitset = None
    if sel_size == group_size:
        scale_bits = scale_bits | (sel.reshape(-1).astype(np.uint16) << 15)
    else:
        flags |= FLAG_BITSET
        bitset = np.packbits(sel.reshape(-1), bitorder="little").tobytes()

    flat = codes.reshape(-1)
    if flat.size % 2:
        flat = np.concatenate([flat, np.zeros(1, dtype=np.uint8)])
    code_bytes = (flat[0::2] | (flat[1::2] << 4)).tobytes()

    kind_id = KIND_IDS[kind] if isinstance(kind, str) else int(kind)
    if kind_id not in KIND_NAMES:
        raise ValidationError(f"unknown format kind {kind!r}")
    flags |= METHOD_IDS.get(method, 0) << 1

    return PackedLayer(
        kind=kind_id,
        rows=rows,
        cols=cols,
        group_size=group_size,
        sel_size=sel_size,
        table_size=int(t0.size),
        flags=flags,
        table0_bits=bf16_bits(np.sort(t0)),
        table1_bits=bf16_bits(np.sort(t1)),
        scale_bits=scale_bits.astype(np.uint16),
        code_bytes=code_bytes,
        bitset=bitset,
    )


def unpack(p: PackedLayer):
    """Recover (table0, table1, selection, codes, scales) from a packed layer.

    Scales come back as their positive BF16 magnitudes; selection bits are
    read from scale signs or from the bitset depending on the layout.
    """
    count = p.rows * p.cols
    if p.sel_size > p.group_size or p.group_size % p.sel_size:
        raise CorruptionError("selection group size incompatible with the scale group")
    if p.has_bitset != (p.sel_size < p.group_size):
        raise CorruptionError("selection bitset flag inconsistent with the group sizes")
    t0 = bf16_decode(p.table0_bits)
    t1 = bf16_decode(p.table1_bits)
    if not (np.isfinite(t0).all() and np.isfinite(t1).all()):
        raise CorruptionError("codebook entries must decode finite")

    scale_bits = np.asarray(p.scale_bits, dtype=np.uint16)
    if scale_bits.size != count // p.group_size:
        raise CorruptionError("scale section size does not match the header")
    magnitudes = bf16_decode(scale_bits & np.uint16(0x7FFF))
    if not np.isfinite(magnitudes).all() or (magnitudes <= 0).any():
        raise CorruptionError("stored scales must decode finite and non-zero")
    scales = magnitudes.reshape(p.rows, p.cols // p.group_size)

    if p.has_bitset:
        if p.bitset is None:
            raise CorruptionError("header declares a selection bitset but none is present")
        bits = np.frombuffer(p.bitset, dtype=np.uint8)
        if bits.size != -(-(count // p.sel_size) // 8):
            raise CorruptionError("selection bitset size does not match the header")
        sel = np.unpackbits(bits, bitorder="little")[: count // p.sel_size]
    else:
        sel = (scale_bits >> 15).astype(np.uint8)
    selection = sel.reshape(p.rows, p.cols // p.sel_size).astype(np.uint8)

    raw = np.frombuffer(p.code_bytes, dtype=np.uint8)
    if raw.size != -(-count // 2):
        raise CorruptionError("code section size does not match the header")
    nibbles = np.empty(raw.size * 2, dtype=np.uint8)
    nibbles[0::2] = raw & 0x0F
    nibbles[1::2] = raw >> 4
    codes = nibbles[:count]
    if codes.size and int(codes.max()) >= p.table_size:
        raise CorruptionError(
            f"code nibble {int(codes.max())} out of range for "
            f"{p.table_size}-entry tables"
        )
    return t0, t1, selection, codes.reshape(p.rows, p.cols).copy(), scales


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _padded(raw: bytes) -> bytes:
    return raw + b"\x00" * (_pad16(len(raw)) - len(raw))


def _layer_payload(p: PackedLayer) -> bytes:
    sections = [
        np.concatenate([p.table0_bits, p.table1_bits]).astype("<u2").tobytes(),
        np.asarray(p.scale_bits, dtype="<u2").tobytes(),
        p.code_bytes,
    ]
    if p.bitset is not None:
        sections.append(p.bitset)
    return b"".join(_padded(s) for s in sections)


def layer_to_bytes(name: str, p: PackedLayer) -> bytes:
    encoded = name.encode("utf-8")
    payload = _layer_payload(p)
    header = _HEADER.pack(
        p.kind, p.rows, p.cols, p.group_size, p.sel_size, p.table_size, p.flags
    )
    return (
        struct.pack("<H", len(encoded))
        + encoded
        + header
        + struct.pack("<I", zlib.crc32(payload))
        + payload
    )


class _Reader:
    """Bounds-checked cursor over a byte buffer; truncation raises, never crashes.

    Every take is checked against the end before anything is read, so a
    length field claiming more bytes than remain allocates nothing.
    """

    def __init__(self, buf: bytes, offset: int = 0):
        self.buf = buf
        self.offset = offset
        self.end = len(buf)

    def _read(self, start: int, n: int):
        return self.buf[start : start + n]

    def skip(self, n: int) -> None:
        if self.offset + n > self.end:
            raise CorruptionError(
                f"truncated stream: wanted {n} bytes at offset {self.offset}, "
                f"have {self.end - self.offset}"
            )
        self.offset += n

    def take(self, n: int):
        self.skip(n)
        return self._read(self.offset - n, n)

    def unpack(self, st: struct.Struct):
        return st.unpack(self.take(st.size))


class _FileReader(_Reader):
    """The same cursor over bytes [offset, end) of an open file, read with `pread`."""

    def __init__(self, fd: int, offset: int, end: int):
        self.fd = fd
        self.offset = offset
        self.end = end

    def _read(self, start: int, n: int) -> bytearray:
        buf = bytearray(n)
        if pread_into(self.fd, buf, start) < n:
            raise CorruptionError(f"file ends before byte {start + n}")
        return buf


def _layer_header(r: _Reader, previous: str | None = None):
    """Parse and check the layer header at the cursor.

    Errors name the layer.  One before its name has been read names
    `previous`, the layer before it in a container, whose sizes put the
    header here (a wrong column count there reads as garbage here).
    Returns (name, (kind, rows, cols, group_size, sel_size, table_size,
    flags), crc, section sizes before padding), leaving the cursor at the
    payload.
    """
    with naming_layer(previous, "next header: "):
        (name_len,) = r.unpack(struct.Struct("<H"))
        try:
            name = r.take(name_len).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorruptionError(f"layer name is not valid UTF-8: {exc}") from exc
    with naming_layer(name):
        fields = r.unpack(_HEADER)
        kind, rows, cols, group_size, sel_size, table_size, flags = fields
        if kind not in KIND_NAMES:
            raise CorruptionError(f"unknown format kind {kind}")
        if rows < 1 or cols < 1 or table_size < 1 or table_size > 16:
            raise CorruptionError("implausible header dimensions")
        if group_size < 1 or cols % group_size or sel_size < 1 or cols % sel_size:
            raise CorruptionError("group sizes incompatible with columns")
        if sel_size > group_size or group_size % sel_size:
            raise CorruptionError("selection group incompatible with scale group")
        if bool(flags & FLAG_BITSET) != (sel_size < group_size):
            raise CorruptionError("bitset flag inconsistent with group sizes")
        (crc,) = r.unpack(struct.Struct("<I"))

    count = rows * cols
    sizes = [4 * table_size, 2 * (count // group_size), -(-count // 2)]
    if flags & FLAG_BITSET:
        sizes.append(-(-(count // sel_size) // 8))
    return name, fields, crc, sizes


def layer_from_reader(r: _Reader) -> tuple[str, PackedLayer]:
    name, fields, crc, sizes = _layer_header(r)
    kind, rows, cols, group_size, sel_size, table_size, flags = fields
    with naming_layer(name):
        payload = r.take(sum(_pad16(s) for s in sizes))
        if zlib.crc32(payload) != crc:
            raise CorruptionError("payload CRC mismatch")

    view = memoryview(payload)
    cursor = 0
    raw_sections = []
    for s in sizes:
        raw_sections.append(view[cursor : cursor + s])
        cursor += _pad16(s)

    tables = np.frombuffer(raw_sections[0], dtype="<u2")
    p = PackedLayer(
        kind=kind,
        rows=rows,
        cols=cols,
        group_size=group_size,
        sel_size=sel_size,
        table_size=table_size,
        flags=flags,
        table0_bits=tables[:table_size].copy(),
        table1_bits=tables[table_size:].copy(),
        scale_bits=np.frombuffer(raw_sections[1], dtype="<u2").copy(),
        code_bytes=bytes(raw_sections[2]),
        bitset=bytes(raw_sections[3]) if flags & FLAG_BITSET else None,
    )
    return name, p


def layer_from_bytes(buf: bytes, offset: int = 0) -> tuple[str, PackedLayer, int]:
    r = _Reader(buf, offset)
    name, p = layer_from_reader(r)
    return name, p, r.offset


@dataclass(frozen=True)
class PackEntry:
    """One layer's name, shape and byte range [start, end) in a container."""

    name: str
    rows: int
    cols: int
    start: int
    end: int


def _scan(r: _Reader) -> list[PackEntry]:
    """Check a container's header and every layer header, skipping the payloads."""
    if r.take(len(MAGIC)) != MAGIC:
        raise CorruptionError("bad magic; not an .aaacq container")
    version, count = r.unpack(struct.Struct("<HI"))
    if version != VERSION:
        raise CorruptionError(f"unsupported container version {version}")
    entries = []
    seen = set()
    for held in range(count):
        if r.offset == r.end:
            raise CorruptionError(f"container holds {held} layers, its header says {count}")
        start = r.offset
        name, fields, _, sizes = _layer_header(r, entries[-1].name if entries else None)
        with naming_layer(name):
            r.skip(sum(_pad16(s) for s in sizes))
        if name in seen:
            raise CorruptionError(f"duplicate layer name {name!r}")
        seen.add(name)
        entries.append(PackEntry(name, fields[1], fields[2], start, r.offset))
    if r.offset != r.end:
        raise CorruptionError(f"{r.end - r.offset} trailing bytes after the last layer")
    return entries


class PackWriter:
    """Writes an .aaacq container to a binary file one layer at a time.

    The container header, with the layer count, goes out first; the caller
    then writes exactly `count` layers, in the order they are to be stored.
    """

    def __init__(self, fh, count: int):
        self._fh = fh
        self._names = set()
        fh.write(MAGIC + struct.pack("<HI", VERSION, count))

    def write(self, name: str, p: PackedLayer) -> None:
        if name in self._names:
            raise ValidationError("layer names in a packed model must be unique")
        self._names.add(name)
        self._fh.write(layer_to_bytes(name, p))


class PackReader:
    """An open .aaacq file whose layers are read one at a time.

    Opening checks the container and every layer header, skipping the
    payloads, and lists the layers in file order (`layers`); `read` then
    reads, CRC-checks and parses one layer.  No read reaches past the end
    the headers imply or past the file, so a corrupt length field costs no
    allocation.  Close it, or use it as a context manager.
    """

    def __init__(self, path):
        self._file = open(path, "rb", buffering=0)
        try:
            fd = self._file.fileno()
            self.layers = _scan(_FileReader(fd, 0, os.fstat(fd).st_size))
        except BaseException:
            self._file.close()
            raise

    def read(self, entry: PackEntry) -> PackedLayer:
        name, p = layer_from_reader(_FileReader(self._file.fileno(), entry.start, entry.end))
        if name != entry.name:
            raise CorruptionError(f"layer {entry.name!r} changed since the pack was opened")
        return p

    def close(self) -> None:
        self._file.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def model_to_bytes(layers: list[tuple[str, PackedLayer]]) -> bytes:
    buf = io.BytesIO()
    writer = PackWriter(buf, len(layers))
    for name, p in layers:
        writer.write(name, p)
    return buf.getvalue()


def model_from_bytes(buf: bytes) -> list[tuple[str, PackedLayer]]:
    return [
        (e.name, layer_from_reader(_Reader(buf, e.start))[1]) for e in _scan(_Reader(buf))
    ]


def write_pack(path, layers: list[tuple[str, PackedLayer]]) -> None:
    with open(path, "wb") as fh:
        fh.write(model_to_bytes(layers))


def read_pack(path) -> list[tuple[str, PackedLayer]]:
    with PackReader(path) as pack:
        return [(e.name, pack.read(e)) for e in pack.layers]
