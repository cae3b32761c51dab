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
with positional reads.  `read_pack` reads a whole file through `PackReader`,
and `model_to_bytes` writes layers into bytes through `PackWriter`.
"""

from __future__ import annotations

import io
import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import CorruptionError, ValidationError, naming_layer
from .grids import (
    Scratch, _check_group_shapes, _checked_uint8, bf16_bits, bf16_decode, check_groups, row_blocks,
)
from .tensors import ScannedFile, pread_into

MAGIC = b"AAACQ\x00"
VERSION = 1
SECTION_ALIGN = 16

FLAG_BITSET = 0x01
# The least magnitude whose BF16 rounding, through float32, is infinite: the tie
# between float32 0x7F7F7FFF and 0x7F7F8000, which goes to the even 0x7F7F8000.
_BF16_INF_CUT = 2.0**128 - 2.0**119 - 2.0**103

KIND_NAMES = {0: "nvfp4", 1: "int4"}
KIND_IDS = {v: k for k, v in KIND_NAMES.items()}

METHOD_TAGS = {0: "unspecified", 1: "rtn", 2: "if4", 3: "aaac"}
METHOD_IDS = {v: k for k, v in METHOD_TAGS.items()}

_HEADER = struct.Struct("<BIIHHBB")
# The largest name length and group sizes the layer header's u16 fields hold.
_U16_MAX = 0xFFFF


def check_header(name: str, group_size: int, sel_size: int) -> None:
    """Raise `ValidationError` if a layer's header cannot hold its name or group sizes."""
    try:
        name_bytes = len(name.encode("utf-8"))
    except UnicodeEncodeError as exc:
        raise ValidationError(f"a layer name does not encode as UTF-8: {exc}") from exc
    for what, value in (("layer name of {} UTF-8 bytes", name_bytes),
                        ("scale group size {}", group_size),
                        ("selection group size {}", sel_size)):
        if value > _U16_MAX:
            raise ValidationError(f"{what.format(value)}: the pack header holds at most {_U16_MAX}")


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


# The payload's sections in wire order; an absent bitset has size 0.
_SECTIONS = ("codebook_bytes", "scale_bytes", "code_bytes", "bitset_bytes")


def packed_size(
    rows: int, cols: int, group_size: int, sel_size: int, table_size: int, name_len: int = 0
) -> int:
    """Exact serialized length of one layer, including 16-byte section padding."""
    b = size_breakdown(rows, cols, group_size, sel_size, table_size, name_len)
    return b["header_bytes"] + sum(_pad16(b[key]) for key in _SECTIONS)


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

    `kind` is a name of `KIND_IDS` or an int id of `KIND_NAMES`, and
    `method` a name of `METHOD_IDS`.  Raises `ValidationError` for any layer
    that `unpack` or the pack reader would refuse, so that every pack this
    returns is read back exactly.  Codes and selection are checked in their
    own dtype and scales in float64, before any cast could wrap, truncate or
    overflow them.
    """
    # `type(kind) is int` refuses bools, which would be stored as kinds 0 and 1.
    if not (isinstance(kind, str) and kind in KIND_IDS or type(kind) is int and kind in KIND_NAMES):
        raise ValidationError(f"unknown format kind {kind!r}; supported: {list(KIND_IDS)} or their ids")
    if not (isinstance(method, str) and method in METHOD_IDS):
        raise ValidationError(f"unknown method {method!r}; supported: {list(METHOD_IDS)}")
    t0 = np.asarray(table0, dtype=np.float64)
    t1 = np.asarray(table1, dtype=np.float64)
    codes, sel, scales = np.asarray(codes), np.asarray(selection), np.asarray(scales)

    if codes.ndim != 2 or not codes.size:  # a header's rows and columns are at least 1
        raise ValidationError(f"codes must be 2-D and non-empty, got shape {codes.shape}")
    rows, cols = codes.shape
    _check_group_shapes(codes.shape, group_size, sel_size, scales, sel)
    if t0.ndim != 1 or t0.shape != t1.shape or not 1 <= t0.size <= 16:
        raise ValidationError("tables must be 1-D, of equal sizes between 1 and 16")
    # Checked in float64, before the cast to float32 could overflow; NaN fails too.
    if not (np.abs(np.concatenate((t0, t1))) < _BF16_INF_CUT).all():
        raise ValidationError("codebook entries must round to finite BF16 values")
    table_bits = [bf16_bits(np.sort(t)) for t in (t0, t1)]
    codes, sel = _checked_uint8("code", codes, t0.size - 1), _checked_uint8("selection value", sel, 1)
    # The extremes, exact in float64, are checked before the cast to float32
    # could overflow; NaN fails too.  A positive scale can still round to 0.
    if not 0 < float(scales.min()) <= float(scales.max()) < _BF16_INF_CUT:
        raise ValidationError("scales must round to finite, strictly positive BF16 values")
    scale_bits = bf16_bits(scales).reshape(-1)
    if not scale_bits.all():
        raise ValidationError("scales must round to finite, strictly positive BF16 values")

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

    flags |= METHOD_IDS[method] << 1

    return PackedLayer(
        kind=KIND_IDS[kind] if isinstance(kind, str) else kind,
        rows=rows,
        cols=cols,
        group_size=group_size,
        sel_size=sel_size,
        table_size=int(t0.size),
        flags=flags,
        table0_bits=table_bits[0],
        table1_bits=table_bits[1],
        scale_bits=scale_bits.astype(np.uint16),
        code_bytes=code_bytes,
        bitset=bitset,
    )


def _check_stored_groups(group_size: int, sel_size: int, cols: int, flags: int) -> None:
    """Raise `CorruptionError` unless stored group sizes follow `check_groups`
    and the bitset flag is set exactly when selection groups are finer."""
    try:
        check_groups(group_size, sel_size, cols)
    except ValidationError as exc:
        raise CorruptionError(f"stored group sizes: {exc}") from exc
    if bool(flags & FLAG_BITSET) != (sel_size < group_size):
        raise CorruptionError("selection bitset flag inconsistent with the group sizes")


def unpack(p: PackedLayer):
    """Recover (table0, table1, selection, codes, scales) from a packed layer.

    Scales come back as their positive BF16 magnitudes; selection bits are
    read from scale signs or from the bitset depending on the layout.  This
    is `unpack_groups` and the codes of every row block (`unpack_rows`),
    which decoders that work a row block at a time call instead.
    """
    t0, t1, selection, scales = unpack_groups(p)
    codes, scratch = np.empty((p.rows, p.cols), np.uint8), Scratch()
    for r in row_blocks(p.rows, p.cols):
        codes[r] = unpack_rows(p, r, scratch)
    return t0, t1, selection, codes, scales


def unpack_groups(p: PackedLayer):
    """(table0, table1, selection, scales) of a packed layer: all that `unpack`
    recovers but the codes, with every check it makes but the code nibbles'
    range, which `unpack_rows` checks."""
    count = p.rows * p.cols
    _check_stored_groups(p.group_size, p.sel_size, p.cols, p.flags)
    sizes = size_breakdown(p.rows, p.cols, p.group_size, p.sel_size, p.table_size)
    t0 = bf16_decode(p.table0_bits)
    t1 = bf16_decode(p.table1_bits)
    if not (np.isfinite(t0).all() and np.isfinite(t1).all()):
        raise CorruptionError("codebook entries must decode finite")

    scale_bits = np.asarray(p.scale_bits, dtype=np.uint16)
    if 2 * scale_bits.size != sizes["scale_bytes"]:
        raise CorruptionError("scale section size does not match the header")
    magnitudes = bf16_decode(scale_bits & np.uint16(0x7FFF))
    if not np.isfinite(magnitudes).all() or (magnitudes <= 0).any():
        raise CorruptionError("stored scales must decode finite and non-zero")
    scales = magnitudes.reshape(p.rows, p.cols // p.group_size)

    if p.has_bitset:
        if p.bitset is None:
            raise CorruptionError("header declares a selection bitset but none is present")
        bits = np.frombuffer(p.bitset, dtype=np.uint8)
        if bits.size != sizes["bitset_bytes"]:
            raise CorruptionError("selection bitset size does not match the header")
        sel = np.unpackbits(bits, bitorder="little")[: count // p.sel_size]
    else:
        sel = (scale_bits >> 15).astype(np.uint8)
    _code_section(p)
    return t0, t1, sel.reshape(p.rows, p.cols // p.sel_size), scales


def _code_section(p: PackedLayer) -> np.ndarray:
    """The code section's bytes, a uint8 view, once checked against the header."""
    raw = np.frombuffer(p.code_bytes, dtype=np.uint8)
    if raw.size != -(-(p.rows * p.cols) // 2):
        raise CorruptionError("code section size does not match the header")
    return raw


def unpack_rows(p: PackedLayer, rows: slice, scratch: Scratch | None = None) -> np.ndarray:
    """The codes of rows `rows`, a slice of step 1, of a packed layer.

    Only those rows' bytes of the code section are split into nibbles, and
    the codes are checked to index the layer's tables.  They are `scratch`'s
    `nibbles` buffer (a fresh scratch's when none is given), valid until its
    next call there.
    """
    a, b, step = rows.indices(p.rows)
    if step != 1:
        raise ValueError(f"rows must be a slice of step 1, got {rows}")
    raw = _code_section(p)
    scratch = Scratch() if scratch is None else scratch
    start, stop = a * p.cols, max(a, b) * p.cols
    lo, hi = start // 2, -(-stop // 2)  # the bytes that hold codes start:stop
    # Each byte widens to a little-endian pair of bytes, its low nibble then
    # its high one: five contiguous passes cost a quarter of two strided ones.
    pairs = scratch.take("nibbles", (hi - lo,), np.dtype("<u2"))
    high = scratch.take("high nibbles", (hi - lo,), np.dtype("<u2"))
    np.copyto(pairs, raw[lo:hi])
    np.left_shift(pairs, 4, out=high)
    np.bitwise_and(pairs, 0x0F, out=pairs)
    np.bitwise_and(high, 0x0F00, out=high)
    np.bitwise_or(pairs, high, out=pairs)
    codes = pairs.view(np.uint8)[start - 2 * lo:stop - 2 * lo]
    if codes.size and int(codes.max()) >= p.table_size:
        raise CorruptionError(
            f"code nibble {int(codes.max())} out of range for "
            f"{p.table_size}-entry tables"
        )
    return codes.reshape(-1, p.cols)


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
    check_header(name, p.group_size, p.sel_size)
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
    """Bounds-checked cursor over bytes [offset, end) of an open file, read with `pread`.

    Every take is checked against the end before anything is read, so a
    length field claiming more bytes than remain allocates nothing, and a
    file shorter than `end` raises too: truncation raises, never crashes.
    """

    def __init__(self, fd: int, offset: int, end: int):
        self.fd = fd
        self.offset = offset
        self.end = end

    def skip(self, n: int) -> None:
        if self.offset + n > self.end:
            raise CorruptionError(
                f"truncated stream: wanted {n} bytes at offset {self.offset}, "
                f"have {self.end - self.offset}"
            )
        self.offset += n

    def take(self, n: int) -> bytearray:
        self.skip(n)
        buf = bytearray(n)
        if pread_into(self.fd, buf, self.offset - n) < n:
            raise CorruptionError(f"file ends before byte {self.offset}")
        return buf

    def unpack(self, st: struct.Struct):
        return st.unpack(self.take(st.size))


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
        _check_stored_groups(group_size, sel_size, cols, flags)
        (crc,) = r.unpack(struct.Struct("<I"))

    b = size_breakdown(rows, cols, group_size, sel_size, table_size)
    return name, fields, crc, [b[key] for key in _SECTIONS]


def _layer_from_reader(r: _Reader) -> tuple[str, PackedLayer]:
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


@dataclass(frozen=True)
class PackEntry:
    """One layer's name, shape and byte range [start, end) in a container."""

    name: str
    rows: int
    cols: int
    start: int
    end: int


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


class PackReader(ScannedFile):
    """An open .aaacq file whose layers are read one at a time.

    Opening checks the container and every layer header, skipping the
    payloads, and lists the layers in file order (`layers`); `read` then
    reads, CRC-checks and parses one layer.  No read reaches past the end
    the headers imply or past the file, so a corrupt length field costs no
    allocation.
    """

    def _scan(self, fd: int) -> list[PackEntry]:
        r = _Reader(fd, 0, os.fstat(fd).st_size)
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

    def read(self, entry: PackEntry) -> PackedLayer:
        name, p = _layer_from_reader(_Reader(self.fd, entry.start, entry.end))
        if name != entry.name:
            raise CorruptionError(f"layer {entry.name!r} changed since the pack was opened")
        return p


def model_to_bytes(layers: list[tuple[str, PackedLayer]]) -> bytes:
    buf = io.BytesIO()
    writer = PackWriter(buf, len(layers))
    for name, p in layers:
        writer.write(name, p)
    return buf.getvalue()


def read_pack(path) -> list[tuple[str, PackedLayer]]:
    with PackReader(path) as pack:
        return [(e.name, pack.read(e)) for e in pack.layers]
