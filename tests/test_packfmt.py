"""Packed layer layout, sign-bit selection storage, and container parsing."""

import dataclasses
import struct
import tracemalloc
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from aaacq.errors import (
    AaacqError,
    CorruptionError,
    LayoutError,
    UnsupportedConfigError,
    ValidationError,
)
from aaacq.grids import INT4, NVFP4, Scratch, base_table, bf16_bits, round_bf16
from aaacq.packfmt import (
    _HEADER,
    MAGIC,
    VERSION,
    PackedLayer,
    PackReader,
    layer_to_bytes,
    model_to_bytes,
    pack,
    packed_size,
    read_pack,
    size_breakdown,
    unpack,
    unpack_groups,
    unpack_rows,
)
from aaacq.metrics import reconstruct
from aaacq.quantizers import dequantize


def random_layer(rng, rows, cols, group_size, sel_size, table_size):
    """A random but internally consistent packed-layer input."""
    t0 = np.sort(round_bf16(rng.standard_normal(table_size).astype(np.float32)))
    t1 = np.sort(round_bf16(rng.standard_normal(table_size).astype(np.float32)))
    codes = rng.integers(0, table_size, (rows, cols)).astype(np.uint8)
    scales = round_bf16(
        (10.0 ** rng.uniform(-3, 3, (rows, cols // group_size))).astype(np.float32)
    )
    scales = np.maximum(scales, np.float32(2.0**-100))
    sel = rng.integers(0, 2, (rows, cols // sel_size)).astype(np.uint8)
    return t0, t1, sel, codes, scales


_HEAD = len(MAGIC) + 6  # magic, version and layer count: where the first layer starts


def one_layer(raw: bytes) -> bytes:
    """A container holding the one serialized layer `raw`."""
    return MAGIC + struct.pack("<HI", VERSION, 1) + raw


def read_blob(path, blob: bytes):
    """`blob` written to `path` and read back with `read_pack`."""
    path.write_bytes(blob)
    return read_pack(path)


class TestPackStructure:
    def test_layout_example(self):
        rng = np.random.default_rng(0)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 32, 16, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        assert len(p.code_bytes) == 16
        assert p.scale_bits.size == 2
        assert p.table0_bits.size == p.table1_bits.size == 16
        assert p.bitset is None and not p.has_bitset
        sizes = size_breakdown(1, 32, 16, 16, 16)
        assert sizes["codebook_bytes"] == 64
        assert sizes["scale_bytes"] == 4
        assert sizes["code_bytes"] == 16
        assert sizes["bitset_bytes"] == 0

    def test_codebook_block_sizes(self):
        assert size_breakdown(1, 16, 16, 16, 15)["codebook_bytes"] == 60
        assert size_breakdown(1, 16, 16, 16, 16)["codebook_bytes"] == 64

    def test_bitset_size_example(self):
        # 4096 weights at one selection bit per 16 weights: 256 bits = 32 bytes
        sizes = size_breakdown(32, 128, 128, 16, 16)
        assert sizes["bitset_bytes"] == 32

    def test_group_larger_than_cols_is_layout_error(self):
        rng = np.random.default_rng(1)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 32, 16, 16, 16)
        with pytest.raises(LayoutError):
            pack(t0, t1, sel, codes, np.ones((1, 1), np.float32),
                 kind="int4", group_size=128, sel_size=16)

    def test_selection_coarser_than_scale_rejected(self):
        rng = np.random.default_rng(2)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 256, 128, 128, 16)
        with pytest.raises(UnsupportedConfigError):
            pack(t0, t1, sel[:, :1], codes, scales,
                 kind="int4", group_size=128, sel_size=256)

    def test_inconsistent_shapes(self):
        rng = np.random.default_rng(3)
        t0, t1, sel, codes, scales = random_layer(rng, 2, 32, 16, 16, 16)
        with pytest.raises(ValidationError):
            pack(t0, t1, sel, codes, scales[:1], kind="int4", group_size=16, sel_size=16)
        with pytest.raises(ValidationError):
            pack(t0, t1, sel[:, :1], codes, scales, kind="int4", group_size=16, sel_size=16)
        with pytest.raises(ValidationError):
            pack(t0[:8], t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)

    @pytest.mark.parametrize("kind, method", [
        ("fp8", "rtn"), ("NVFP4", "rtn"), (None, "rtn"), (1.5, "rtn"), (True, "rtn"), ("int4", "bogus"),
    ], ids=["fp8", "upper-case", "none", "float", "bool", "bogus-method"])
    def test_kinds_and_methods_the_header_cannot_name_are_rejected(self, kind, method):
        # Each was a KeyError, a TypeError, or stored as int4 or "unspecified".
        t0, t1, sel, codes, scales = random_layer(np.random.default_rng(10), 1, 32, 16, 16, 16)
        with pytest.raises(ValidationError, match="unknown"):
            pack(t0, t1, sel, codes, scales, kind=kind, group_size=16, sel_size=16, method=method)

    def test_code_out_of_range(self):
        rng = np.random.default_rng(4)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 32, 16, 16, 15)
        codes[0, 0] = 15
        with pytest.raises(ValidationError):
            pack(t0, t1, sel, codes, scales, kind="nvfp4", group_size=16, sel_size=16)

    def test_nonpositive_scales_rejected(self):
        rng = np.random.default_rng(5)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 32, 16, 16, 16)
        scales[0, 0] = 0.0
        with pytest.raises(ValidationError):
            pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)

    @pytest.mark.parametrize("scale", [3.4e38, 1e-45], ids=["rounds-to-inf", "rounds-to-zero"])
    def test_scales_that_round_to_an_unreadable_bf16_are_rejected(self, scale):
        t0, t1, sel, codes, scales = random_layer(np.random.default_rng(6), 1, 32, 16, 16, 16)
        scales[0, 1] = np.float32(scale)
        with pytest.raises(ValidationError, match="scales"):
            pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)

    @pytest.mark.parametrize("entry", [np.nan, 1e39, -3.4e38], ids=["nan", "past-float32", "rounds-to-inf"])
    def test_entries_that_round_to_an_unreadable_bf16_are_rejected(self, entry):
        t0, t1, sel, codes, scales = random_layer(np.random.default_rng(7), 1, 32, 16, 16, 16)
        t1 = t1.astype(np.float64)
        t1[3] = entry
        # An entry past float32's range is refused before the cast could overflow.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="codebook entries"):
                pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)

    def test_entries_are_cut_where_bf16_rounding_turns_infinite(self):
        # The largest float64 below 2^128 - 2^119 - 2^103 rounds, through
        # float32, to BF16's largest finite value; that cut itself rounds to inf.
        t0, t1, sel, codes, scales = random_layer(np.random.default_rng(9), 1, 32, 16, 16, 16)
        cut = 2.0**128 - 2.0**119 - 2.0**103
        t1 = t1.astype(np.float64)
        t1[-1] = np.nextafter(cut, 0.0)
        layer = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        assert unpack(layer)[1][-1] == np.float32(2.0**128 - 2.0**120)
        t1[-1] = cut
        with pytest.raises(ValidationError, match="codebook entries"):
            pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)

    @pytest.mark.parametrize("rows, cols", [(0, 32), (2, 0)])
    def test_empty_layers_are_rejected(self, rows, cols):
        # The reader refuses a header with no rows or no columns.
        with pytest.raises(ValidationError, match="non-empty"):
            pack([0.0, 1.0], [0.0, 1.0], np.zeros((rows, cols // 16)), np.zeros((rows, cols)),
                 np.ones((rows, cols // 16)), kind="int4", group_size=16, sel_size=16)

    @pytest.mark.parametrize("sel_size", [16, 8], ids=["sign-bits", "bitset"])
    def test_selection_values_other_than_bits_are_rejected(self, sel_size):
        # A 2 would pack as table 0 in a sign bit (2 << 15 wraps) but as
        # table 1 in a bitset.
        t0, t1, sel, codes, scales = random_layer(np.random.default_rng(8), 1, 32, 16, sel_size, 16)
        sel[0, 0] = 2
        with pytest.raises(ValidationError, match="selection value 2"):
            pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=sel_size)

    # Each was cast before it was checked: to code 0, table 1, code 3, a
    # RuntimeWarning, a RuntimeWarning and an OverflowError.
    CAST_CASES = {
        "codes-past-uint8": ("codes", np.int64, 256),
        "selection-past-uint8": ("sel", np.int64, 257),
        "fractional-codes": ("codes", np.float64, 3.7),
        "scales-past-float32": ("scales", np.float64, 1e39),
        "nan-codes": ("codes", np.float64, np.nan),
        "negative-python-selection": ("sel", object, -1),
    }

    @pytest.mark.parametrize("case", sorted(CAST_CASES))
    def test_inputs_are_checked_before_they_are_cast(self, case):
        name, dtype, value = self.CAST_CASES[case]
        t0, t1, sel, codes, scales = random_layer(np.random.default_rng(10), 2, 32, 16, 16, 16)
        parts = {"sel": sel, "codes": codes, "scales": scales}
        a = parts[name].astype(dtype)
        a[0, 0] = value
        parts[name] = a.tolist() if dtype is object else a  # a Python -1 among Python ints
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError):
                pack(t0, t1, parts["sel"], parts["codes"], parts["scales"],
                     kind="int4", group_size=16, sel_size=16)


class TestSignBitSelection:
    def test_sign_bit_stores_selection(self):
        t = base_table(INT4)
        codes = np.zeros((1, 32), dtype=np.uint8)
        scales = np.asarray([[0.5, 2.0]], dtype=np.float32)
        sel = np.asarray([[1, 0]], dtype=np.uint8)
        p = pack(t, t, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        minus_half = struct.unpack("<H", struct.pack("<e", -0.5))[0]  # f16 differs
        # compute the expected BF16 patterns directly
        assert p.scale_bits[0] == (bf16_bits(np.float32(0.5))[0] | 0x8000)
        assert p.scale_bits[1] == bf16_bits(np.float32(2.0))[0]
        assert p.scale_bits[0] != minus_half

    def test_negative_pattern_decodes_to_selection(self):
        t = base_table(INT4)
        codes = np.zeros((1, 32), dtype=np.uint8)
        scales = np.asarray([[0.5, 2.0]], dtype=np.float32)
        sel = np.asarray([[1, 0]], dtype=np.uint8)
        p = pack(t, t, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        _, _, sel_out, _, scales_out = unpack(p)
        assert sel_out.tolist() == [[1, 0]]
        assert scales_out.tolist() == [[0.5, 2.0]]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "rows,cols,group_size,sel_size,table_size",
        [
            (1, 32, 16, 16, 16),      # sign-bit path
            (3, 64, 16, 16, 15),      # odd code count, 15-entry tables
            (4, 256, 128, 16, 16),    # bitset path
            (2, 128, 128, 64, 16),    # bitset path, S between 16 and g
            (5, 48, 16, 8, 12),       # small tables
        ],
    )
    def test_pack_unpack_identity(self, rows, cols, group_size, sel_size, table_size):
        rng = np.random.default_rng(rows * 1000 + cols)
        t0, t1, sel, codes, scales = random_layer(
            rng, rows, cols, group_size, sel_size, table_size
        )
        p = pack(t0, t1, sel, codes, scales, kind="int4",
                 group_size=group_size, sel_size=sel_size)
        assert p.has_bitset == (sel_size < group_size)
        u0, u1, usel, ucodes, uscales = unpack(p)
        assert np.array_equal(u0, t0) and np.array_equal(u1, t1)
        assert np.array_equal(usel, sel)
        assert np.array_equal(ucodes, codes)
        assert np.array_equal(uscales, scales)

    def test_dequantize_from_packed_is_bit_exact(self):
        rng = np.random.default_rng(7)
        t0, t1, sel, codes, scales = random_layer(rng, 4, 256, 128, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=128, sel_size=16)
        direct = dequantize(codes, scales, t0, t1, sel, 128, 16)
        u0, u1, usel, ucodes, uscales = unpack(p)
        via_pack = dequantize(ucodes, uscales, u0, u1, usel, p.group_size, p.sel_size)
        assert np.array_equal(direct, via_pack)

    def test_serialized_length_matches_packed_size(self):
        rng = np.random.default_rng(8)
        for rows, cols, g, s, m in [
            (1, 32, 16, 16, 16),
            (3, 64, 16, 16, 15),
            (4, 256, 128, 16, 16),
            (7, 96, 32, 8, 9),
        ]:
            t0, t1, sel, codes, scales = random_layer(rng, rows, cols, g, s, m)
            p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=g, sel_size=s)
            name = "layer"
            raw = layer_to_bytes(name, p)
            assert len(raw) == packed_size(rows, cols, g, s, m, name_len=len(name))

    def test_serialization_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        t0, t1, sel, codes, scales = random_layer(rng, 4, 256, 128, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4",
                 group_size=128, sel_size=16, method="aaac")
        raw = layer_to_bytes("model.layers.0.q_proj", p)
        path = tmp_path / "m.aaacq"
        path.write_bytes(one_layer(raw))
        with PackReader(path) as reader:
            (entry,) = reader.layers
            q = reader.read(entry)
        assert (entry.start, entry.end) == (_HEAD, _HEAD + len(raw))
        assert entry.name == "model.layers.0.q_proj"
        assert q.method == "aaac"
        for attr in ("kind", "rows", "cols", "group_size", "sel_size", "table_size", "flags"):
            assert getattr(q, attr) == getattr(p, attr)
        assert np.array_equal(q.table0_bits, p.table0_bits)
        assert np.array_equal(q.table1_bits, p.table1_bits)
        assert np.array_equal(q.scale_bits, p.scale_bits)
        assert q.code_bytes == p.code_bytes and q.bitset == p.bitset

    def test_distinct_layers_serialize_distinctly(self):
        rng = np.random.default_rng(10)
        t0, t1, sel, codes, scales = random_layer(rng, 2, 32, 16, 16, 16)
        p1 = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        codes2 = codes.copy()
        codes2[0, 0] = (codes2[0, 0] + 1) % 16
        p2 = pack(t0, t1, sel, codes2, scales, kind="int4", group_size=16, sel_size=16)
        assert layer_to_bytes("a", p1) != layer_to_bytes("a", p2)


class TestGoldenBytes:
    def test_layer_wire_format_is_pinned(self):
        # Hand-assembled expectation for a tiny layer; any layout change
        # must show up here.
        t0 = np.asarray([0.0, 1.0])
        t1 = np.asarray([0.0, 2.0])
        codes = np.asarray([[0, 1, 1, 0] * 8], dtype=np.uint8)  # 1 x 32
        scales = np.asarray([[0.5, 2.0]], dtype=np.float32)
        sel = np.asarray([[1, 0]], dtype=np.uint8)
        p = pack(t0, t1, sel, codes, scales, kind="nvfp4",
                 group_size=16, sel_size=16, method="rtn")
        raw = layer_to_bytes("q", p)

        import zlib

        codebooks = struct.pack("<4H", 0x0000, 0x3F80, 0x0000, 0x4000)
        scales_words = struct.pack("<2H", 0x3F00 | 0x8000, 0x4000)
        code_bytes = bytes([0x10, 0x01] * 8)
        payload = (
            codebooks + b"\x00" * 8        # 8 bytes -> padded to 16
            + scales_words + b"\x00" * 12  # 4 bytes -> padded to 16
            + code_bytes                   # 16 bytes, already aligned
        )
        want = (
            struct.pack("<H", 1) + b"q"
            + struct.pack("<BIIHHBB", 0, 1, 32, 16, 16, 2, 1 << 1)
            + struct.pack("<I", zlib.crc32(payload))
            + payload
        )
        assert raw == want


class TestCorruption:
    def make_raw(self, seed=11):
        rng = np.random.default_rng(seed)
        t0, t1, sel, codes, scales = random_layer(rng, 2, 64, 16, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        return layer_to_bytes("layer", p)

    def test_truncation_raises_not_crashes(self, tmp_path):
        raw = self.make_raw()
        for cut in (0, 1, 5, 20, len(raw) // 2, len(raw) - 1):
            with pytest.raises(CorruptionError):
                read_blob(tmp_path / "m.aaacq", one_layer(raw[:cut]))

    def test_payload_bitflip_fails_crc(self, tmp_path):
        raw = bytearray(self.make_raw())
        raw[-1] ^= 0xFF
        with pytest.raises(CorruptionError, match="CRC"):
            read_blob(tmp_path / "m.aaacq", one_layer(bytes(raw)))

    def test_code_nibble_out_of_range(self):
        rng = np.random.default_rng(12)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 32, 16, 16, 12)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        bad = bytearray(p.code_bytes)
        bad[0] = 0xFF  # nibble 15 >= table_size 12
        broken = PackedLayer(
            kind=p.kind, rows=p.rows, cols=p.cols, group_size=p.group_size,
            sel_size=p.sel_size, table_size=p.table_size, flags=p.flags,
            table0_bits=p.table0_bits, table1_bits=p.table1_bits,
            scale_bits=p.scale_bits, code_bytes=bytes(bad), bitset=p.bitset,
        )
        with pytest.raises(CorruptionError, match="nibble"):
            unpack(broken)

    def test_inconsistent_header_geometry(self):
        rng = np.random.default_rng(17)
        t0, t1, sel, codes, scales = random_layer(rng, 2, 256, 128, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=128, sel_size=16)
        # selection coarser than the scale group
        bad = PackedLayer(
            kind=p.kind, rows=p.rows, cols=p.cols, group_size=64, sel_size=128,
            table_size=p.table_size, flags=p.flags, table0_bits=p.table0_bits,
            table1_bits=p.table1_bits, scale_bits=p.scale_bits,
            code_bytes=p.code_bytes, bitset=p.bitset,
        )
        with pytest.raises(CorruptionError):
            unpack(bad)
        # empty selection or scale groups
        for sizes in ({"sel_size": 0}, {"group_size": 0, "sel_size": 0}):
            with pytest.raises(CorruptionError):
                unpack(dataclasses.replace(p, **sizes))
        # bitset flag contradicts the group sizes
        bad = PackedLayer(
            kind=p.kind, rows=p.rows, cols=p.cols, group_size=p.group_size,
            sel_size=p.sel_size, table_size=p.table_size, flags=p.flags & ~0x01,
            table0_bits=p.table0_bits, table1_bits=p.table1_bits,
            scale_bits=p.scale_bits, code_bytes=p.code_bytes, bitset=None,
        )
        with pytest.raises(CorruptionError):
            unpack(bad)
        # bitset shorter than the header implies
        bad = PackedLayer(
            kind=p.kind, rows=p.rows, cols=p.cols, group_size=p.group_size,
            sel_size=p.sel_size, table_size=p.table_size, flags=p.flags,
            table0_bits=p.table0_bits, table1_bits=p.table1_bits,
            scale_bits=p.scale_bits, code_bytes=p.code_bytes,
            bitset=p.bitset[:-1],
        )
        with pytest.raises(CorruptionError):
            unpack(bad)

    def test_zero_or_nonfinite_scale_magnitude(self):
        rng = np.random.default_rng(13)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 32, 16, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        for bad_bits in (0x0000, 0x7F80, 0x7FC1):  # +0, +inf, NaN
            bits = p.scale_bits.copy()
            bits[0] = bad_bits
            broken = PackedLayer(
                kind=p.kind, rows=p.rows, cols=p.cols, group_size=p.group_size,
                sel_size=p.sel_size, table_size=p.table_size, flags=p.flags,
                table0_bits=p.table0_bits, table1_bits=p.table1_bits,
                scale_bits=bits, code_bytes=p.code_bytes, bitset=p.bitset,
            )
            with pytest.raises(CorruptionError):
                unpack(broken)

    def test_nonfinite_table_entry(self):
        rng = np.random.default_rng(20)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 32, 16, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        for table in ("table0_bits", "table1_bits"):
            for bad_bits in (0x7F80, 0xFF80, 0x7FC1):  # +inf, -inf, NaN
                bits = getattr(p, table).copy()
                bits[-1] = bad_bits
                broken = dataclasses.replace(p, **{table: bits})
                with pytest.raises(CorruptionError, match="codebook"):
                    unpack(broken)

    def test_tables_of_another_length_than_the_header(self):
        # The decoder gathers from both tables end to end, so each must hold
        # the header's entries.
        rng = np.random.default_rng(23)
        p = pack(*random_layer(rng, 1, 32, 16, 16, 16), kind="int4", group_size=16, sel_size=16)
        for tables in ({"table0_bits": p.table0_bits[:8], "table1_bits": p.table1_bits[:8]},
                       {"table1_bits": p.table1_bits[:15]},
                       {"table0_bits": np.append(p.table0_bits, p.table0_bits[:1])}):
            with pytest.raises(CorruptionError, match="codebook size"):
                unpack_groups(dataclasses.replace(p, **tables))

    def test_mutation_fuzz_raises_only_corruption_errors(self, tmp_path):
        rng = np.random.default_rng(18)
        t0, t1, sel, codes, scales = random_layer(rng, 2, 64, 16, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        raw = layer_to_bytes("layer", p)
        for _ in range(500):
            mutated = bytearray(raw)
            for _ in range(int(rng.integers(1, 6))):
                mutated[int(rng.integers(0, len(mutated)))] = int(rng.integers(0, 256))
            try:
                read_blob(tmp_path / "m.aaacq", one_layer(bytes(mutated)))
            except CorruptionError:
                pass

    def test_garbage_streams_raise_only_corruption_errors(self, tmp_path):
        rng = np.random.default_rng(19)
        for _ in range(300):
            garbage = rng.integers(0, 256, int(rng.integers(0, 200))).astype(np.uint8)
            try:
                read_blob(tmp_path / "m.aaacq", garbage.tobytes())
            except CorruptionError:
                pass


class TestRowReads:
    """`unpack_rows` decodes any rows' codes from just their bytes, as `unpack` does."""

    # Odd column counts start every other row in the middle of a byte.
    @pytest.mark.parametrize("cols, g", [(64, 16), (3, 1), (5, 5)])
    def test_any_rows_match_unpack(self, cols, g):
        rng = np.random.default_rng(cols)
        rows = 7
        p = pack(*random_layer(rng, rows, cols, g, g, 16), kind="int4", group_size=g, sel_size=g)
        t0, t1, sel, codes, scales = unpack(p)
        for want, got in zip((t0, t1, sel, scales), unpack_groups(p)):
            assert np.array_equal(want, got)
        scratch = Scratch()
        for a in range(rows + 1):
            for b in range(a, rows + 1):
                for buffers in (scratch, None):
                    got = unpack_rows(p, slice(a, b), buffers)
                    assert got.dtype == np.uint8 and np.array_equal(got, codes[a:b]), (a, b)

    def test_a_bad_nibble_fails_the_rows_that_hold_it(self):
        rng = np.random.default_rng(21)
        p = pack(*random_layer(rng, 4, 32, 16, 16, 12), kind="int4", group_size=16, sel_size=16)
        bad = bytearray(p.code_bytes)
        bad[-1] = 0xF0  # the last code, 15, is past 12-entry tables
        broken = dataclasses.replace(p, code_bytes=bytes(bad))
        assert np.array_equal(unpack_rows(broken, slice(0, 3)), unpack(p)[3][:3])
        with pytest.raises(CorruptionError, match="nibble 15"):
            unpack_rows(broken, slice(3, 4))

    def test_a_short_code_section_fails_every_read(self):
        rng = np.random.default_rng(22)
        p = pack(*random_layer(rng, 4, 32, 16, 16, 16), kind="int4", group_size=16, sel_size=16)
        short = dataclasses.replace(p, code_bytes=p.code_bytes[:-1])
        for read in (unpack, unpack_groups, lambda q: unpack_rows(q, slice(0, 1))):
            with pytest.raises(CorruptionError, match="code section size"):
                read(short)


class TestContainer:
    def test_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(14)
        layers = []
        for i, (g, s) in enumerate([(16, 16), (128, 16)]):
            t0, t1, sel, codes, scales = random_layer(rng, 4, 256, g, s, 16)
            layers.append(
                (f"layer{i}", pack(t0, t1, sel, codes, scales,
                                   kind="int4", group_size=g, sel_size=s))
            )
        loaded = read_blob(tmp_path / "m.aaacq", model_to_bytes(layers))
        assert [name for name, _ in loaded] == ["layer0", "layer1"]
        for (_, a), (_, b) in zip(layers, loaded):
            assert np.array_equal(a.scale_bits, b.scale_bits)
            assert a.code_bytes == b.code_bytes

    def test_bad_magic(self, tmp_path):
        with pytest.raises(CorruptionError, match="magic"):
            read_blob(tmp_path / "m.aaacq", b"NOTAAACQ" + b"\x00" * 16)

    def test_duplicate_names_rejected_on_write(self):
        rng = np.random.default_rng(15)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 32, 16, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        with pytest.raises(ValidationError):
            model_to_bytes([("a", p), ("a", p)])

    def test_header_field_overflow_rejected_on_write(self):
        rng = np.random.default_rng(17)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 32, 16, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        assert len(model_to_bytes([("n" * 65_535, p)])) > 65_535
        for name in ("n" * 65_536, "\u00e9" * 32_768, "bad\ud800"):
            with pytest.raises(ValidationError):
                model_to_bytes([(name, p)])
        for field, value in (("group_size", 2**16), ("sel_size", 2**16)):
            with pytest.raises(ValidationError, match="the pack header holds at most"):
                layer_to_bytes("a", dataclasses.replace(p, **{field: value}))
        wide = pack(*random_layer(rng, 1, 65_536, 65_536, 65_536, 16),
                    kind="int4", group_size=65_536, sel_size=65_536)
        with pytest.raises(ValidationError, match="scale group size 65536"):
            model_to_bytes([("wide", wide)])

    def test_trailing_garbage_rejected(self, tmp_path):
        rng = np.random.default_rng(16)
        t0, t1, sel, codes, scales = random_layer(rng, 1, 32, 16, 16, 16)
        p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=16, sel_size=16)
        raw = model_to_bytes([("a", p)]) + b"junk"
        with pytest.raises(CorruptionError):
            read_blob(tmp_path / "m.aaacq", raw)

    def test_rtn_layer_stored_with_base_tables(self):
        # One decode path: a fixed-grid layer stores the base table twice
        # with all selection bits clear.
        t = base_table(NVFP4)
        codes = np.zeros((1, 16), dtype=np.uint8)
        scales = np.ones((1, 1), dtype=np.float32)
        sel = np.zeros((1, 1), dtype=np.uint8)
        p = pack(t, t, sel, codes, scales, kind="nvfp4",
                 group_size=16, sel_size=16, method="rtn")
        u0, u1, usel, _, _ = unpack(p)
        assert np.array_equal(u0, u1)
        assert (usel == 0).all()
        assert p.method == "rtn" and p.table_size == 15


def _fuzz_container():
    """A two-layer container (sign-bit selection, then a bitset) and where
    each layer's CRC and payload lie in it."""
    rng = np.random.default_rng(21)
    layers = []
    for name, (g, s) in (("signs", (16, 16)), ("bitset", (128, 16))):
        t0, t1, sel, codes, scales = random_layer(rng, 2, 256, g, s, 16)
        layers.append((name, pack(t0, t1, sel, codes, scales,
                                  kind="int4", group_size=g, sel_size=s)))
    spans, offset = [], _HEAD
    for name, p in layers:
        crc_at = offset + 2 + len(name) + _HEADER.size
        offset += packed_size(p.rows, p.cols, p.group_size, p.sel_size, p.table_size, len(name))
        spans.append((crc_at, crc_at + 4, offset))
    return model_to_bytes(layers), spans


FUZZ_RAW, FUZZ_SPANS = _fuzz_container()
FUZZ_PAYLOAD = [i for _, start, end in FUZZ_SPANS for i in range(start, end)]
FUZZ_WORDS = FUZZ_PAYLOAD[::2]  # payloads have even lengths
# BF16 words at the edges: largest finite, smallest subnormal, infinities, NaN, -0.
EXTREME_WORDS = [0x7F7F, 0xFF7F, 0x0001, 0x7F80, 0xFF80, 0x7FC1, 0x8000]


class TestPayloadFuzz:
    """Payload bytes mutated under a valid CRC decode or raise an AaacqError."""

    def test_unmutated_container_decodes(self, tmp_path):
        for _, p in read_blob(tmp_path / "m.aaacq", FUZZ_RAW):
            assert np.isfinite(reconstruct(p)).all()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.lists(st.tuples(st.integers(0, len(FUZZ_PAYLOAD) - 1), st.integers(0, 255)),
                       max_size=8),
        words=st.lists(st.tuples(st.integers(0, len(FUZZ_WORDS) - 1),
                                 st.sampled_from(EXTREME_WORDS)), max_size=4),
    )
    def test_mutated_payload_with_fresh_crc(self, tmp_path, edits, words):
        blob = bytearray(FUZZ_RAW)
        for i, value in edits:
            blob[FUZZ_PAYLOAD[i]] = value
        for i, word in words:
            blob[FUZZ_WORDS[i]:FUZZ_WORDS[i] + 2] = struct.pack("<H", word)
        for crc_at, start, end in FUZZ_SPANS:
            blob[crc_at:start] = struct.pack("<I", zlib.crc32(bytes(blob[start:end])))
        try:
            for _, p in read_blob(tmp_path / "m.aaacq", bytes(blob)):
                reconstruct(p)
        except AaacqError:
            pass


# Where each mutable header field of the first FUZZ_RAW layer lies: the
# container's layer count, then the layer's name length and its `_HEADER`
# fields (kind, rows, cols, scale group, selection group, table size, flags).
_NAME0 = len("signs")  # the first layer's name
HEADER_FIELDS = {
    "count": (len(MAGIC) + 2, "<I"),
    "name_len": (_HEAD, "<H"),
    "kind": (_HEAD + 2 + _NAME0, "<B"),
    "rows": (_HEAD + 3 + _NAME0, "<I"),
    "cols": (_HEAD + 7 + _NAME0, "<I"),
    "group_size": (_HEAD + 11 + _NAME0, "<H"),
    "sel_size": (_HEAD + 13 + _NAME0, "<H"),
    "table_size": (_HEAD + 15 + _NAME0, "<B"),
    "flags": (_HEAD + 16 + _NAME0, "<B"),
}
_NEAR_LIMITS = [0, 1, 2, 3, 15, 16, 17, 255, 256, 2 ** 16 - 1, 2 ** 31, 2 ** 32 - 2, 2 ** 32 - 1]


def _field_value(field):
    bits = 8 * struct.calcsize(HEADER_FIELDS[field][1])
    limit = 2 ** bits - 1
    return st.integers(0, limit) | st.sampled_from([v for v in _NEAR_LIMITS if v <= limit])


def _decode(path, blob):
    """What `PackReader` makes of a blob: the layers' wire bytes, or the error
    class.  Only an AaacqError may escape."""
    path.write_bytes(blob)
    try:
        with PackReader(path) as pack:
            return [layer_to_bytes(e.name, pack.read(e)) for e in pack.layers]
    except AaacqError as exc:
        return type(exc)


class TestHeaderFuzz:
    """Mutated header fields and lengths fail with an AaacqError, never anything else."""

    def test_unmutated_container_reads_back(self, tmp_path):
        layers = _decode(tmp_path / "m.aaacq", FUZZ_RAW)
        assert len(layers) == 2 and b"".join(layers) == FUZZ_RAW[_HEAD:]

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.lists(
            st.sampled_from(sorted(HEADER_FIELDS)).flatmap(
                lambda f: st.tuples(st.just(f), _field_value(f))),
            min_size=1, max_size=4,
        ),
        cut=st.none() | st.integers(0, len(FUZZ_RAW)),
    )
    def test_mutated_header_fields(self, tmp_path, edits, cut):
        blob = bytearray(FUZZ_RAW)
        for field, value in edits:
            at, fmt = HEADER_FIELDS[field]
            struct.pack_into(fmt, blob, at, value)
        _decode(tmp_path / "m.aaacq", bytes(blob[:cut]))

    def test_huge_layer_fails_before_reading(self, tmp_path):
        # A (2^32 - 1) x (2^32 - 1) layer with one-weight groups claims about
        # 2^65 payload bytes; rejecting it must not allocate them.
        header = _HEADER.pack(0, 2 ** 32 - 1, 2 ** 32 - 1, 1, 1, 16, 0)
        blob = (MAGIC + struct.pack("<HI", 1, 1) + struct.pack("<H", 4) + b"huge"
                + header + struct.pack("<I", 0) + b"\x00" * 64)
        path = tmp_path / "huge.aaacq"
        path.write_bytes(blob)
        for read in (lambda: read_pack(path), lambda: PackReader(path).close()):
            tracemalloc.start()
            try:
                with pytest.raises(CorruptionError, match="truncated"):
                    read()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 ** 20
