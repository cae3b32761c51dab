"""Archive round trips, pairing rules, and synthetic layer generation."""

import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import aaacq
from aaacq import grids
from aaacq.errors import (
    AaacqError,
    FormatError,
    PairingError,
    UnsupportedDtypeError,
    ValidationError,
)
from aaacq.tensors import (
    LayerBundle,
    SynthSpec,
    TensorArchive,
    read_tensors,
    save_tensor_archive,
    stream_tensors,
    synth_layer,
    write_tensors,
)


def raw_archive(entries, payload: bytes) -> bytes:
    header = json.dumps(entries).encode()
    header += b" " * (-len(header) % 8)
    return struct.pack("<Q", len(header)) + header + payload


def write_raw_archive(path, entries, payload: bytes):
    path.write_bytes(raw_archive(entries, payload))


def in_memory(bundle):
    """An archive bundle's layer read into a bundle of its own float32 arrays,
    which outlives the archive: the weights as one block of all their rows,
    the activations widened into float64 and narrowed back, both exact."""
    scratch, x = grids.Scratch(), None
    if bundle.activation_shape is not None:
        x = np.empty(bundle.activation_shape)
        bundle.read_activations(x, scratch)
        x = x.astype(np.float32)
    return LayerBundle(bundle.name, bundle.weight_rows(slice(0, bundle.rows), scratch).copy(), x)


def load_bundles(path, order=lambda layers: layers):
    """Every layer of an archive read whole, sorted by layer name; `order`
    gives the order in which the layers are loaded and read."""
    with TensorArchive(path) as archive:
        bundles = {layer.name: in_memory(archive.load(layer)) for layer in order(archive.layers)}
        return [bundles[layer.name] for layer in archive.layers]


class TestArchiveIO:
    def test_weight_and_calib_pair(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "a.safetensors"
        write_tensors(
            path,
            {
                "q.weight": rng.standard_normal((8, 16)).astype(np.float32),
                "q.calib": rng.standard_normal((4, 16)).astype(np.float32),
            },
        )
        bundles = load_bundles(path)
        assert len(bundles) == 1
        assert bundles[0].name == "q"
        assert bundles[0].weights.shape == (8, 16)
        assert bundles[0].activations.shape == (4, 16)

    def test_weight_only(self, tmp_path):
        path = tmp_path / "a.safetensors"
        write_tensors(path, {"q.weight": np.ones((8, 16), np.float32)})
        bundles = load_bundles(path)
        assert len(bundles) == 1 and bundles[0].activations is None

    def test_pairing_error_on_col_mismatch(self, tmp_path):
        path = tmp_path / "a.safetensors"
        write_tensors(
            path,
            {
                "q.weight": np.ones((8, 16), np.float32),
                "q.calib": np.ones((4, 12), np.float32),
            },
        )
        with pytest.raises(PairingError, match="'q'"):
            load_bundles(path)

    def test_orphan_calib_is_a_pairing_error(self, tmp_path):
        path = tmp_path / "a.safetensors"
        write_tensors(path, {"q.calib": np.ones((4, 12), np.float32)})
        with pytest.raises(PairingError):
            load_bundles(path)

    def test_save_load_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        bundles = [
            LayerBundle(
                f"layer{i}",
                rng.standard_normal((5, 24)).astype(np.float32),
                rng.standard_normal((7, 24)).astype(np.float32),
            )
            for i in range(3)
        ]
        path = tmp_path / "a.safetensors"
        save_tensor_archive(path, bundles)
        loaded = load_bundles(path)
        assert [b.name for b in loaded] == [b.name for b in bundles]
        for got, want in zip(loaded, bundles):
            assert np.array_equal(got.weights, want.weights)
            assert np.array_equal(got.activations, want.activations)

    def test_leading_calib_dims_collapse(self, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "a.safetensors"
        x = rng.standard_normal((2, 3, 16)).astype(np.float32)
        write_raw_archive(
            path,
            {
                "q.weight": {
                    "dtype": "F32",
                    "shape": [4, 16],
                    "data_offsets": [0, 256],
                },
                "q.calib": {
                    "dtype": "F32",
                    "shape": [2, 3, 16],
                    "data_offsets": [256, 256 + x.nbytes],
                },
            },
            np.ones((4, 16), np.float32).tobytes() + x.tobytes(),
        )
        bundle = load_bundles(path)[0]
        assert bundle.activations.shape == (6, 16)
        assert np.array_equal(bundle.activations, x.reshape(6, 16))

    def test_f16_and_bf16_widen_exactly(self, tmp_path):
        path = tmp_path / "a.safetensors"
        f16 = np.asarray([[0.5, -1.25, 3.0, 0.099975586]], dtype=np.float16)
        bf16_bits = np.asarray([[0x3F80, 0xBF80, 0x3DCD, 0x4049]], dtype="<u2")
        write_raw_archive(
            path,
            {
                "a": {"dtype": "F16", "shape": [1, 4], "data_offsets": [0, 8]},
                "b": {"dtype": "BF16", "shape": [1, 4], "data_offsets": [8, 16]},
            },
            f16.tobytes() + bf16_bits.tobytes(),
        )
        tensors = read_tensors(path)
        assert tensors["a"].dtype == np.float32
        assert np.array_equal(tensors["a"], f16.astype(np.float32))
        want = (bf16_bits.astype(np.uint32) << 16).view(np.float32)
        assert np.array_equal(tensors["b"], want)

    def test_bf16_row_blocks_peak_at_7_1_bytes_a_block_weight(self, tmp_path):
        # Every row block of a BF16 layer read on one scratch holds the
        # block's 4-byte float32 widening, its 2-byte patterns and its 1-byte
        # finite check, no more: each block reuses the first one's buffers.
        rows, cols = 512, 1024
        w = np.random.default_rng(0).standard_normal((rows, cols)).astype(np.float32)
        bits = (w.view(np.uint32) >> 16).astype("<u2")
        want = (bits.astype(np.uint32) << 16).view(np.float32)
        path = tmp_path / "bf16.safetensors"
        write_raw_archive(path, {"l.weight": {"dtype": "BF16", "shape": [rows, cols],
                                              "data_offsets": [0, bits.nbytes]}}, bits.tobytes())
        blocks = grids.row_blocks(rows, cols)
        assert len(blocks) == 8
        with TensorArchive(path) as archive:
            bundle = archive.load(archive.layers[0])
            bundle.weight_rows(blocks[0], grids.Scratch())  # first-call allocations are not the reads'
            scratch = grids.Scratch()
            tracemalloc.start()
            try:
                peak = 0
                for r in blocks:
                    block = bundle.weight_rows(r, scratch)
                    peak = max(peak, tracemalloc.get_traced_memory()[1])
                    assert np.array_equal(block, want[r])
                    tracemalloc.reset_peak()  # the check's temporaries are not the read's
            finally:
                tracemalloc.stop()
        assert peak <= 7.1 * grids.BLOCK

    @pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
    def test_activations_widen_into_float64_a_row_block_at_a_time(
            self, tmp_path, monkeypatch, dtype):
        # Blocks of two tokens of 16, the last short, under a batch dimension.
        monkeypatch.setattr(grids, "BLOCK", 32)
        x = np.random.default_rng(2).standard_normal((1, 5, 16)).astype(np.float32)
        raw = {"F32": x, "F16": x.astype("<f2"),
               "BF16": (x.view(np.uint32) >> 16).astype("<u2")}[dtype]
        want = {"F32": x, "F16": raw.astype(np.float32),
                "BF16": (raw.astype(np.uint32) << 16).view(np.float32)}[dtype].reshape(5, 16)
        path = tmp_path / "a.safetensors"
        write_raw_archive(path, {
            "q.weight": {"dtype": "F32", "shape": [2, 16], "data_offsets": [0, 128]},
            "q.calib": {"dtype": dtype, "shape": [1, 5, 16],
                        "data_offsets": [128, 128 + raw.nbytes]},
        }, np.ones((2, 16), np.float32).tobytes() + raw.tobytes())
        with TensorArchive(path) as archive:
            bundle = archive.load(archive.layers[0])
            assert bundle.activation_shape == (5, 16)
            out = np.full((5, 16), np.nan)
            bundle.read_activations(out, grids.Scratch())
            assert np.array_equal(out, want.astype(np.float64))
            assert np.array_equal(in_memory(bundle).activations, want)
            assert in_memory(bundle).activations.dtype == np.float32

    def test_a_non_finite_activation_in_the_last_row_block_fails_its_read(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(grids, "BLOCK", 32)
        x = np.ones((5, 16), np.float32)
        x[4, 3] = np.inf
        path = tmp_path / "a.safetensors"
        write_tensors(path, {"q.weight": np.ones((2, 16), np.float32), "q.calib": x})
        with TensorArchive(path) as archive:
            bundle = archive.load(archive.layers[0])
            for read in (lambda: in_memory(bundle),
                         lambda: bundle.read_activations(np.empty((5, 16)), grids.Scratch())):
                with pytest.raises(ValidationError, match="layer 'q': activations contain non-finite"):
                    read()

    def test_stream_tensors_writes_row_blocks_as_the_whole_tensor(self, tmp_path):
        rng = np.random.default_rng(4)
        tensors = {"a": rng.standard_normal((5, 3)).astype(np.float32),
                   "b": rng.standard_normal((2, 2, 2)).astype(np.float32)}
        write_tensors(tmp_path / "whole.safetensors", tensors)
        blocks = {"a": [tensors["a"][:2], tensors["a"][2:2], tensors["a"][2:]],
                  "b": [tensors["b"][:1], tensors["b"][1:]]}
        with open(tmp_path / "blocks.safetensors", "wb") as fh:
            stream_tensors(fh, {name: t.shape for name, t in tensors.items()}, blocks.__getitem__)
        assert (tmp_path / "blocks.safetensors").read_bytes() == (
            tmp_path / "whole.safetensors").read_bytes()

    @pytest.mark.parametrize("blocks", [
        [np.ones((2, 3)), np.ones((2, 3))], [np.ones((3, 3)), np.ones((3, 3))],
        [np.ones((5, 4))], [np.ones(15)], [],
    ], ids=["short", "long", "columns", "flat", "none"])
    def test_stream_tensors_refuses_blocks_that_do_not_fill_the_header(self, tmp_path, blocks):
        with open(tmp_path / "a.safetensors", "wb") as fh:
            with pytest.raises(ValidationError, match="tensor 'a'"):
                stream_tensors(fh, {"a": (5, 3)}, lambda name: blocks)

    def test_a_bundle_reads_only_while_its_archive_is_open(self, tmp_path):
        path = tmp_path / "a.safetensors"
        write_tensors(path, {"q.weight": np.ones((8, 16), np.float32),
                             "q.calib": np.ones((4, 16), np.float32)})
        with TensorArchive(path) as archive:
            bundle, fd = archive.load(archive.layers[0]), archive.fd
            assert bundle.weight_rows(slice(2, 5), grids.Scratch()).shape == (3, 16)
        with open(path, "rb", buffering=0) as again:
            assert again.fileno() == fd  # the closed number now names the new handle
            for read in (lambda: bundle.weight_rows(slice(0, 8), grids.Scratch()),
                         lambda: bundle.read_activations(np.empty((4, 16)), grids.Scratch())):
                with pytest.raises(ValueError, match="closed"):
                    read()

    @pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
    def test_read_tensors_round_trips_every_shape(self, tmp_path, monkeypatch, dtype):
        # Blocks of four values: the larger tensors are several row blocks.
        monkeypatch.setattr(grids, "BLOCK", 4)
        shapes = [(), (0,), (3, 0), (2, 0, 4), (3, 4, 0), (2, 3, 2)]
        rng = np.random.default_rng(7)
        entries, chunks, offset, want = {}, [], 0, {}
        for i, shape in enumerate(shapes):
            x = rng.standard_normal(shape).astype(np.float32)
            raw = {"F32": x, "F16": x.astype("<f2"),
                   "BF16": (x.view(np.uint32) >> 16).astype("<u2")}[dtype]
            want[f"t{i}"] = {"F32": x, "F16": raw.astype(np.float32),
                             "BF16": (raw.astype(np.uint32) << 16).view(np.float32)}[dtype]
            entries[f"t{i}"] = {"dtype": dtype, "shape": list(shape),
                                "data_offsets": [offset, offset + raw.nbytes]}
            chunks.append(raw.tobytes())
            offset += raw.nbytes
        path = tmp_path / "a.safetensors"
        write_raw_archive(path, entries, b"".join(chunks))
        got = read_tensors(path)
        assert list(got) == list(want)
        for name, x in want.items():
            assert got[name].dtype == np.float32 and got[name].shape == x.shape
            assert np.array_equal(got[name], x)

    def test_a_0_d_tensor_round_trips(self, tmp_path):
        path = tmp_path / "a.safetensors"
        write_tensors(path, {"s": np.float32(2.5), "v": np.arange(3, dtype=np.float32)})
        got = read_tensors(path)
        assert got["s"].shape == () and got["s"] == 2.5
        assert np.array_equal(got["v"], np.arange(3))

    def test_save_writes_archive_bundles_as_their_in_memory_copies(self, tmp_path, monkeypatch):
        # BF16 weights and a calibration tensor with a batch dimension, in
        # blocks of two rows of 16.
        monkeypatch.setattr(grids, "BLOCK", 32)
        rng = np.random.default_rng(8)
        bits = (rng.standard_normal((5, 16)).astype(np.float32).view(np.uint32) >> 16).astype("<u2")
        x = rng.standard_normal((2, 3, 16)).astype(np.float32)
        path = tmp_path / "a.safetensors"
        write_raw_archive(path, {
            "q.weight": {"dtype": "BF16", "shape": [5, 16], "data_offsets": [0, bits.nbytes]},
            "q.calib": {"dtype": "F32", "shape": [2, 3, 16],
                        "data_offsets": [bits.nbytes, bits.nbytes + x.nbytes]},
            # A layer without calibration, on the same bytes.
            "r.weight": {"dtype": "BF16", "shape": [5, 16], "data_offsets": [0, bits.nbytes]},
        }, bits.tobytes() + x.tobytes())
        with TensorArchive(path) as archive:
            bundles = [archive.load(layer) for layer in archive.layers]
            save_tensor_archive(tmp_path / "archive.safetensors", bundles)
            save_tensor_archive(tmp_path / "memory.safetensors", [in_memory(b) for b in bundles])
        written = (tmp_path / "archive.safetensors").read_bytes()
        assert written == (tmp_path / "memory.safetensors").read_bytes()
        got = read_tensors(tmp_path / "archive.safetensors")
        w = (bits.astype(np.uint32) << 16).view(np.float32)
        assert np.array_equal(got["q.weight"], w) and np.array_equal(got["r.weight"], w)
        assert np.array_equal(got["q.calib"], x.reshape(6, 16)) and "r.calib" not in got

    def test_unsupported_dtype(self, tmp_path):
        path = tmp_path / "a.safetensors"
        write_raw_archive(
            path,
            {"a": {"dtype": "I64", "shape": [1], "data_offsets": [0, 8]}},
            b"\x00" * 8,
        )
        with pytest.raises(UnsupportedDtypeError):
            read_tensors(path)

    def test_malformed_header_reports_offset(self, tmp_path):
        path = tmp_path / "bad.safetensors"
        with open(path, "wb") as fh:
            fh.write(struct.pack("<Q", 12))
            fh.write(b"not json, no")
        with pytest.raises(FormatError, match="byte 8"):
            read_tensors(path)

    @pytest.mark.parametrize("header", [
        b'{"q": ' + b"9" * 5000 + b"}",  # beyond Python's int digit limit
        b"[" * 100_000 + b"]" * 100_000,  # deeper than the JSON decoder recurses
    ])
    def test_unparsable_header_is_a_format_error(self, tmp_path, header):
        path = tmp_path / "bad.safetensors"
        path.write_bytes(struct.pack("<Q", len(header)) + header)
        with pytest.raises(FormatError, match="byte 8"):
            read_tensors(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "tiny.safetensors"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(FormatError, match="byte 0"):
            read_tensors(path)

    def test_bad_offsets(self, tmp_path):
        path = tmp_path / "a.safetensors"
        write_raw_archive(
            path,
            {"a": {"dtype": "F32", "shape": [2, 2], "data_offsets": [0, 99]}},
            b"\x00" * 16,
        )
        with pytest.raises(FormatError):
            read_tensors(path)

    # Both shapes pass a byte count that is a product in int64: (-2) * (-2)
    # is 4, and 2**62 * 4 wraps to 0.
    BAD_SHAPES = {
        "negative": ([-2, -2], [0, 16], 16),
        "wrapping": ([2 ** 62, 4], [0, 0], 0),
    }

    @pytest.mark.parametrize("case", sorted(BAD_SHAPES))
    def test_bad_shape_is_a_format_error(self, tmp_path, case):
        shape, offsets, size = self.BAD_SHAPES[case]
        path = tmp_path / "a.safetensors"
        write_raw_archive(
            path, {"q.weight": {"dtype": "F32", "shape": shape, "data_offsets": offsets}},
            b"\x00" * size,
        )
        with pytest.raises(FormatError):
            read_tensors(path)

    @pytest.mark.parametrize("entry, error", [
        ({"dtype": ["F32"], "shape": [1], "data_offsets": [0, 4]}, UnsupportedDtypeError),
        ({"dtype": "F32", "shape": [float("inf")], "data_offsets": [0, 4]}, FormatError),
        ({"dtype": "F32", "shape": [1], "data_offsets": [0, float("inf")]}, FormatError),
        ({"dtype": "F32", "shape": "1", "data_offsets": [0, 4]}, FormatError),
        ({"dtype": "F32", "shape": [1.5], "data_offsets": [0, 4]}, FormatError),
        ({"dtype": "F32", "shape": [True], "data_offsets": [0, 4]}, FormatError),
        ({"dtype": "F32", "shape": [1], "data_offsets": "04"}, FormatError),
        ({"dtype": "F32", "shape": [1], "data_offsets": [0.9, 4.2]}, FormatError),
        # Shapes numpy cannot hold, though their byte count matches.
        ({"dtype": "F32", "shape": [1] * 100, "data_offsets": [0, 4]}, FormatError),
        ({"dtype": "F32", "shape": [0, 2 ** 70], "data_offsets": [0, 0]}, FormatError),
    ])
    def test_malformed_entry_is_rejected(self, tmp_path, entry, error):
        path = tmp_path / "a.safetensors"
        write_raw_archive(path, {"q.weight": entry}, b"\x00" * 4)
        with pytest.raises(error):
            read_tensors(path)

    @pytest.mark.parametrize("shape", [[4, 0], [0, 0]])
    def test_calibration_without_columns_is_a_pairing_error(self, tmp_path, shape):
        path = tmp_path / "a.safetensors"
        write_raw_archive(path, {
            "q.calib": {"dtype": "F32", "shape": shape, "data_offsets": [0, 0]},
            "q.weight": {"dtype": "F32", "shape": [1, 4], "data_offsets": [0, 16]},
        }, b"\x00" * 16)
        with pytest.raises(PairingError):
            load_bundles(path)

    @pytest.mark.parametrize("case", sorted(BAD_SHAPES))
    def test_cli_exits_1_on_bad_shape(self, tmp_path, case):
        shape, offsets, size = self.BAD_SHAPES[case]
        path = tmp_path / "a.safetensors"
        write_raw_archive(
            path, {"q.weight": {"dtype": "F32", "shape": shape, "data_offsets": offsets}},
            b"\x00" * size,
        )
        src = os.path.dirname(os.path.dirname(aaacq.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "aaacq.cli", "quantize", str(path),
             "--out", str(tmp_path / "m.aaacq"), "--method", "rtn"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_non_2d_weight_rejected(self, tmp_path):
        path = tmp_path / "a.safetensors"
        write_tensors(path, {"q.weight": np.ones((2, 2, 2), np.float32)})
        with pytest.raises(PairingError):
            load_bundles(path)


# One tensor of each dtype, a calibration tensor with a leading batch
# dimension, and metadata: 64 payload bytes.
FUZZ_ENTRIES = {
    "__metadata__": {"format": "pt"},
    "a.weight": {"dtype": "F32", "shape": [2, 4], "data_offsets": [0, 32]},
    "a.calib": {"dtype": "F16", "shape": [1, 3, 4], "data_offsets": [32, 56]},
    "b.weight": {"dtype": "BF16", "shape": [1, 4], "data_offsets": [56, 64]},
}
FUZZ_PAYLOAD = bytes(
    np.linspace(-1, 1, 8, dtype="<f4").tobytes()
    + np.linspace(0, 2, 12, dtype="<f2").tobytes()
    + (np.linspace(-3, 3, 4, dtype="<f4").view("<u4") >> 16).astype("<u2").tobytes()
)

_DTYPE_BYTES = {"F32": 4, "F16": 2, "BF16": 2}

def _json_containers(inner):
    # A named function, so that hypothesis can read in its source that it
    # uses its argument.
    return st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-(2 ** 70), 2 ** 70)
    | st.floats(allow_nan=False) | st.text(max_size=6),
    _json_containers,
    max_leaves=8,
)


class TestReadFuzz:
    """Mutated archives load or raise an AaacqError, never anything else."""

    def test_unmutated_archive_loads(self, tmp_path):
        path = tmp_path / "a.safetensors"
        path.write_bytes(raw_archive(FUZZ_ENTRIES, FUZZ_PAYLOAD))
        bundles = load_bundles(path)
        assert [(b.name, b.weights.shape) for b in bundles] == [("a", (2, 4)), ("b", (1, 4))]
        assert bundles[0].activations.shape == (3, 4)

    def test_layers_load_in_any_order(self, tmp_path):
        # F32 weights, F16 activations with a batch dimension, BF16 weights.
        path = tmp_path / "a.safetensors"
        path.write_bytes(raw_archive(FUZZ_ENTRIES, FUZZ_PAYLOAD))
        f16 = np.frombuffer(FUZZ_PAYLOAD[32:56], dtype="<f2").astype(np.float32)
        bf16 = (np.frombuffer(FUZZ_PAYLOAD[56:], dtype="<u2").astype(np.uint32) << 16)
        want = {
            "a": (np.frombuffer(FUZZ_PAYLOAD[:32], dtype="<f4").reshape(2, 4), f16.reshape(3, 4)),
            "b": (bf16.view(np.float32).reshape(1, 4), None),
        }
        for got in (load_bundles(path), load_bundles(path, reversed)):
            assert [b.name for b in got] == sorted(want)
            for b in got:
                w, x = want[b.name]
                assert b.weights.dtype == np.float32 and np.array_equal(b.weights, w)
                assert (b.activations is None) == (x is None)
                if x is not None:
                    assert b.activations.dtype == np.float32
                    assert np.array_equal(b.activations, x)

    @staticmethod
    def _outcome(load):
        try:
            return [(b.name, b.weights.tobytes(), None if b.activations is None
                     else (b.activations.shape, b.activations.tobytes())) for b in load()]
        except AaacqError as exc:
            return type(exc)

    @classmethod
    def _load(cls, path, blob):
        # Open, then load each layer: only an AaacqError may escape, and the
        # order the layers load in changes nothing.
        path.write_bytes(blob)
        assert cls._outcome(lambda: load_bundles(path)) == cls._outcome(
            lambda: load_bundles(path, reversed))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.lists(st.tuples(st.integers(0, 10 ** 4), st.integers(0, 255)), max_size=6),
        insert=st.tuples(st.integers(0, 10 ** 4), st.binary(max_size=8)),
        cut=st.integers(0, 10 ** 4),
    )
    def test_mutated_bytes(self, tmp_path, edits, insert, cut):
        blob = bytearray(raw_archive(FUZZ_ENTRIES, FUZZ_PAYLOAD))
        for pos, value in edits:
            blob[pos % len(blob)] = value
        pos, extra = insert
        blob[pos % len(blob):pos % len(blob)] = extra
        self._load(tmp_path / "a.safetensors", bytes(blob[: max(cut, 1)]))

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        edits=st.lists(st.tuples(
            st.sampled_from(sorted(FUZZ_ENTRIES)),
            st.sampled_from(["dtype", "shape", "data_offsets", None]),
            json_values | st.lists(st.integers(-1, 4), max_size=4),
        ), min_size=1, max_size=3),
        payload_cut=st.integers(0, len(FUZZ_PAYLOAD)),
    )
    def test_mutated_header_fields(self, tmp_path, edits, payload_cut):
        entries = json.loads(json.dumps(FUZZ_ENTRIES))
        for name, field, value in edits:
            if field is None:
                entries[name] = value
            elif isinstance(entries[name], dict):
                entries[name][field] = value
        self._load(tmp_path / "a.safetensors", raw_archive(entries, FUZZ_PAYLOAD[:payload_cut]))


    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        tensors=st.dictionaries(
            st.sampled_from(["a.weight", "a.calib", "b.weight", "b.calib", "c"]),
            st.tuples(st.sampled_from(sorted(_DTYPE_BYTES)),
                      st.lists(st.integers(0, 4), max_size=4)),
            max_size=4,
        ),
        data=st.data(),
    )
    def test_well_formed_random_tensors(self, tmp_path, tensors, data):
        entries, offset = {}, 0
        for name, (dtype, shape) in sorted(tensors.items()):
            end = offset + _DTYPE_BYTES[dtype] * int(np.prod(shape))
            entries[name] = {"dtype": dtype, "shape": shape, "data_offsets": [offset, end]}
            offset = end
        payload = data.draw(st.binary(min_size=offset, max_size=offset))
        self._load(tmp_path / "a.safetensors", raw_archive(entries, payload))


class TestLayerBundle:
    def test_rejects_non_finite(self):
        w = np.ones((2, 4), np.float32)
        w[0, 0] = np.nan
        with pytest.raises(ValidationError):
            LayerBundle("x", w)

    def test_rejects_mismatched_activations(self):
        with pytest.raises(PairingError):
            LayerBundle("x", np.ones((2, 4), np.float32), np.ones((3, 5), np.float32))


class TestSynthLayer:
    def test_deterministic(self):
        spec = SynthSpec("gaussian", 4, 16, 8, seed=7)
        a = synth_layer(spec)
        b = synth_layer(spec)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.activations, b.activations)

    def test_seeds_differ(self):
        a = synth_layer(SynthSpec("gaussian", 4, 16, 8, seed=1))
        b = synth_layer(SynthSpec("gaussian", 4, 16, 8, seed=2))
        assert not np.array_equal(a.weights, b.weights)

    def test_mixture_std_matches_closed_form(self):
        spec = SynthSpec(
            "mixture", 200, 500, 2, seed=1,
            mixture_weights=(0.5, 0.5), mixture_sigmas=(1.0, 5.0),
        )
        sample_std = synth_layer(spec).weights.std()
        want = np.sqrt((1.0 + 25.0) / 2.0)
        assert abs(sample_std - want) / want < 0.2

    def test_activation_columns_are_heteroscedastic(self):
        b = synth_layer(SynthSpec("gaussian", 4, 64, 512, seed=3))
        col_var = b.activations.var(axis=0)
        assert col_var.max() / col_var.min() > 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "gaussian", "rows": 0, "cols": 4, "tokens": 2},
            {"kind": "cauchy", "rows": 2, "cols": 4, "tokens": 2},
            {"kind": "mixture", "rows": 2, "cols": 4, "tokens": 2,
             "mixture_weights": (0.7, 0.7)},
            {"kind": "mixture", "rows": 2, "cols": 4, "tokens": 2,
             "mixture_sigmas": (1.0,)},
            {"kind": "gaussian", "rows": 2, "cols": 4, "tokens": 2, "sigma": -1.0},
            {"kind": "gaussian", "rows": 2, "cols": 4, "tokens": 2, "seed": -1},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(ValidationError):
            SynthSpec(**kwargs)

    def test_laplace_kind(self):
        b = synth_layer(SynthSpec("laplace", 8, 32, 4, seed=5))
        assert b.weights.shape == (8, 32)
