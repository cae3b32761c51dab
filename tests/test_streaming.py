"""Streaming CLI paths: memory flat in the layer count, layers read a row block
at a time, whole outputs only, archive order."""

import hashlib
import json
import math
import os
import struct
import tracemalloc
import weakref

import numpy as np
import pytest
from test_metrics import _owner

from aaacq import codebooks, grids, metrics, packfmt, tensors
from aaacq.cli import main
from aaacq.codebooks import AaacConfig, calibration, importance, learn
from aaacq.errors import ValidationError
from aaacq.grids import INT4, NVFP4
from aaacq.packfmt import PackReader, layer_to_bytes, model_to_bytes
from aaacq.tensors import (
    LayerBundle, SynthSpec, TensorArchive, read_tensors, save_tensor_archive, synth_layer,
    write_tensors,
)


def run(*argv):
    return main([str(a) for a in argv])


ROWS, COLS, TOKENS = 64, 1024, 32
LAYER_BYTES = 4 * ROWS * COLS  # one layer's float32 weights


def _peak_bytes(*argv) -> int:
    tracemalloc.start()
    try:
        assert run(*argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_peak_memory_does_not_grow_with_the_layer_count(tmp_path):
    peaks = {}
    for n in (8, 16):
        d = tmp_path / str(n)
        d.mkdir()
        arch, pack, report = d / "a.safetensors", d / "m.aaacq", d / "r.json"
        save_tensor_archive(arch, [
            synth_layer(SynthSpec("laplace", ROWS, COLS, TOKENS, seed=i), name=f"layer{i:03d}")
            for i in range(n)
        ])
        peaks[n] = {
            "quantize": _peak_bytes("quantize", arch, "--out", pack, "--method", "rtn",
                                    "--threads", "1"),
            "quantize-if4": _peak_bytes("quantize", arch, "--out", d / "if4.aaacq",
                                        "--method", "if4", "--threads", "1"),
            "eval": _peak_bytes("eval", pack, arch, "--json", "--out", report),
            "eval-w4a8": _peak_bytes("eval", d / "if4.aaacq", arch, "--w4a8", "--json",
                                     "--out", report),
            "dequantize": _peak_bytes("dequantize", pack, "--out", d / "d.safetensors"),
            "compare": _peak_bytes("compare", arch, "--methods", "rtn", "--threads", "1",
                                   "--json", "--out", d / "c.json"),
            "synth": _peak_bytes("synth", "--out", d / "s.safetensors", "--layers", n,
                                 "--kind", "laplace", "-N", ROWS, "-K", COLS, "-T", TOKENS),
        }
        assert (d / "s.safetensors").read_bytes() == arch.read_bytes()
    for command in peaks[8]:
        assert peaks[16][command] - peaks[8][command] < LAYER_BYTES, (command, peaks)


def _write_typed_archive(path, layers, dtype):
    """An archive of `{name: (weights, calibration)}` with the weights stored as
    `dtype` (F32, F16, or BF16 by dropping the low half of each float32) and
    float32 calibration tensors."""
    entries, chunks, offset = {}, [], 0
    for name in sorted(layers):
        w, x = layers[name]
        if dtype == "BF16":
            raw = (w.astype("<f4").view("<u4") >> 16).astype("<u2")
        else:
            raw = w.astype({"F32": "<f4", "F16": "<f2"}[dtype])
        for part, kind, arr in (("calib", "F32", x.astype("<f4")), ("weight", dtype, raw)):
            entries[f"{name}.{part}"] = {"dtype": kind, "shape": list(arr.shape),
                                         "data_offsets": [offset, offset + arr.nbytes]}
            chunks.append(arr.tobytes())
            offset += arr.nbytes
    header = json.dumps(entries).encode()
    header += b" " * (-len(header) % 8)
    path.write_bytes(struct.pack("<Q", len(header)) + header + b"".join(chunks))


def _in_memory(path) -> list:
    """The archive's layers read whole, as bundles of their own arrays."""
    t = read_tensors(path)
    names = sorted(name[:-len(".weight")] for name in t if name.endswith(".weight"))
    return [LayerBundle(n, t[f"{n}.weight"], t.get(f"{n}.calib")) for n in names]


@pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
@pytest.mark.parametrize(
    "cfg",
    [AaacConfig.for_format(NVFP4, sel_size=8), AaacConfig.for_format(INT4, group_size=128, sel_size=16)],
    ids=["nvfp4-S8", "int4-g128-S16"],
)
def test_archive_and_in_memory_bundles_give_the_same_packs_and_reports(
        tmp_path, monkeypatch, dtype, cfg):
    monkeypatch.setattr(grids, "BLOCK", 1024)  # four rows of 256 a block, the last block short
    path = tmp_path / "a.safetensors"
    layers = [synth_layer(SynthSpec(kind, 18, 256, 16, seed=i))
              for i, kind in enumerate(tensors.SYNTH_KINDS)]
    _write_typed_archive(path, {f"l{i}": (b.weights, b.activations) for i, b in enumerate(layers)},
                         dtype)
    memory = _in_memory(path)
    with TensorArchive(path) as archive:
        for layer, bundle in zip(archive.layers, memory):
            for method in metrics.METHODS:
                scratch = metrics.Scratch()
                packs = [metrics.quantize_layer(b, method, cfg, scratch)[0]
                         for b in (archive.load(layer), bundle)]
                assert layer_to_bytes("w", packs[0]) == layer_to_bytes("w", packs[1]), method
                rows = [metrics.score(b, packs[1], *calibration(b, scratch), scratch)
                        for b in (archive.load(layer), bundle)]
                assert rows[0] == rows[1], method
        bundles = [archive.load(layer) for layer in archive.layers]
        want = metrics.compare(memory, metrics.METHODS, cfg).to_json()
        for threads in (1, 2):
            assert metrics.compare(bundles, metrics.METHODS, cfg, threads).to_json() == want, threads


class TestBlockReads:
    """Each command holds a row block of an archive layer's weights, never the layer."""

    ROWS, COLS, TOKENS = 256, 2048, 32

    @pytest.fixture()
    def archives(self, tmp_path, monkeypatch):
        # Blocks of two rows: the block buffers are small beside the layer.
        monkeypatch.setattr(grids, "BLOCK", 4096)
        b = synth_layer(SynthSpec("laplace", self.ROWS, self.COLS, self.TOKENS, seed=1), name="l")
        paths = {}
        for dtype in ("F32", "BF16"):
            paths[dtype] = tmp_path / f"{dtype}.safetensors"
            _write_typed_archive(paths[dtype], {"l": (b.weights, b.activations)}, dtype)
        return paths

    @pytest.mark.parametrize("dtype", ["F32", "BF16"])
    @pytest.mark.parametrize("method", ["rtn", "if4"])
    def test_quantize_peaks_below_one_float32_layer(self, tmp_path, archives, method, dtype):
        argv = ("quantize", archives[dtype], "--out", tmp_path / "m.aaacq", "--method", method,
                "--threads", "1")
        _peak_bytes(*argv)  # first-call allocations are not the command's
        # The codes (1 byte a weight), their packed nibbles and the block
        # buffers: the float32 layer alone would be 4 bytes a weight.
        assert _peak_bytes(*argv) < 4 * self.ROWS * self.COLS

    def _scoring_bound(self) -> int:
        """What a scoring task may hold: the float64 difference, the float64
        activations and their product; the packed layer's code and scale
        sections and its unpacked scales and selection (0.9 bytes a weight
        under nvfp4's groups of 16); and 64 bytes a block value of block
        buffers.  No whole-layer codes and no float32 copy of the calibration."""
        n, k, t = self.ROWS, self.COLS, self.TOKENS
        held = 8 * n * k + 8 * t * k + 8 * t * n
        packed = n * k // 2 + (2 + 4 + 1) * n * k // 16
        return held + packed + 64 * grids.BLOCK

    @pytest.mark.parametrize("dtype", ["F32", "BF16"])
    def test_eval_peaks_at_its_difference_activations_product_and_block_buffers(
            self, tmp_path, archives, dtype):
        pack = tmp_path / "m.aaacq"
        assert run("quantize", archives[dtype], "--out", pack, "--method", "rtn") == 0
        argv = ("eval", pack, archives[dtype], "--json", "--out", tmp_path / "r.json")
        _peak_bytes(*argv)
        assert _peak_bytes(*argv) <= self._scoring_bound()

    @pytest.mark.parametrize("dtype", ["F32", "BF16"])
    def test_a_compare_task_peaks_as_scoring_does(self, tmp_path, archives, dtype):
        # One method: the next method's quantize would run beside this one's difference.
        argv = ("compare", archives[dtype], "--methods", "rtn", "--threads", "1", "--json",
                "--out", tmp_path / "c.json")
        _peak_bytes(*argv)
        assert _peak_bytes(*argv) <= self._scoring_bound()

    def test_dequantize_holds_a_row_block_not_a_float32_layer(self, tmp_path, archives):
        pack = tmp_path / "m.aaacq"
        assert run("quantize", archives["F32"], "--out", pack, "--method", "rtn") == 0
        argv = ("dequantize", pack, "--out", tmp_path / "d.safetensors")
        _peak_bytes(*argv)
        # The packed layer as read (its payload and the sections taken from
        # it) and the block buffers: the float32 layer alone is 4 bytes a weight.
        assert _peak_bytes(*argv) < 2 * self.ROWS * self.COLS

    @pytest.mark.parametrize(
        "cfg",
        [AaacConfig.for_format(NVFP4), AaacConfig.for_format(INT4, group_size=128, sel_size=16)],
        ids=["nvfp4", "int4-g128-S16"],
    )
    def test_learn_from_an_archive_holds_no_copy_of_the_layer(self, tmp_path, cfg):
        # `TestWorkingSet`'s layer and bound, with the load inside the traced
        # region: the learner reads each block twice and keeps none.
        bundle = synth_layer(SynthSpec("mixture", 256, 2048, 64, seed=0), name="l")
        path = tmp_path / "a.safetensors"
        save_tensor_archive(path, [bundle])
        imp = importance(bundle.activations)
        learn(synth_layer(SynthSpec("mixture", 8, 256, 8, seed=1)), cfg)  # first-call imports
        with TensorArchive(path) as archive:
            tracemalloc.start()
            try:
                learn(archive.load(archive.layers[0]), cfg, col_importance=imp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 4.5 * bundle.weights.nbytes


def _four_layers(rng):
    return {
        f"l{i}": (rng.standard_normal((4, 64)).astype(np.float32),
                  rng.standard_normal((8, 64)).astype(np.float32))
        for i in range(4)
    }


def _write_archive(path, layers):
    write_tensors(path, {
        f"{name}.{part}": arr
        for name, (w, x) in layers.items() for part, arr in (("weight", w), ("calib", x))
    })


def test_no_command_reads_more_than_a_row_block(tmp_path, monkeypatch):
    # Blocks of two rows of 64: each layer's 4 weight rows and 8 calibration
    # rows are several blocks.  Every read of either lands in a buffer of the
    # scratch it is read on; rtn, if4 and eval read all on one scratch.
    monkeypatch.setattr(grids, "BLOCK", 128)
    arch, pack = tmp_path / "a.safetensors", tmp_path / "m.aaacq"
    _write_archive(arch, _four_layers(np.random.default_rng(6)))
    handed, reads = {}, []  # every buffer a scratch hands out, by id, with its scratch
    take, read = grids.Scratch.take, tensors._read_rows

    def spy_take(self, name, shape, dtype=np.float64):
        out = take(self, name, shape, dtype)
        handed[id(_owner(out))] = (_owner(out), self)
        return out

    def spy_read(fd, path, t, a, out, scratch):
        got = read(fd, path, t, a, out, scratch)
        block = grids.row_blocks(math.prod(t.shape[:-1]), t.shape[-1])[0]
        on_scratch = handed.get(id(_owner(got)), (None, None))[1] is scratch
        reads.append((t.name.endswith(".weight"),
                      len(got) <= block.stop - block.start and on_scratch, scratch))
        return got

    monkeypatch.setattr(grids.Scratch, "take", spy_take)
    monkeypatch.setattr(tensors, "_read_rows", spy_read)
    for argv, calibrated in [
        *[(("quantize", arch, "--out", pack, "--method", m, "--threads", "1"), m == "aaac")
          for m in metrics.METHODS],
        (("eval", pack, arch, "--w4a8", "--out", tmp_path / "r.txt"), True),
        (("compare", arch, "--threads", "1", "--out", tmp_path / "c.txt"), True),
    ]:
        reads.clear()
        assert run(*argv) == 0
        assert reads and all(fits for _, fits, _ in reads), argv
        assert {weights for weights, _, _ in reads} == {True, not calibrated}, argv
        if argv[0] == "eval" or "rtn" in argv or "if4" in argv:
            assert len({id(scratch) for _, _, scratch in reads}) == 1, argv


class TestCalibrationReads:
    """An archive bundle reads its calibration when asked and keeps none."""

    @pytest.fixture()
    def archive(self, tmp_path):
        path = tmp_path / "a.safetensors"
        save_tensor_archive(path, [synth_layer(SynthSpec("mixture", 8, 256, 16, seed=3), name="l")])
        with TensorArchive(path) as archive:
            yield archive

    def test_a_bundle_caches_no_calibration(self, archive):
        bundle = archive.load(archive.layers[0])
        first = calibration(bundle, grids.Scratch())[0]
        gone = weakref.ref(_owner(first))  # the buffer of a scratch dropped on return
        again = calibration(bundle, grids.Scratch())[0]
        assert _owner(again) is not _owner(first) and np.array_equal(again, first)
        del first, again
        assert gone() is None

    def test_a_learn_holds_none_once_importance_is_computed(self, archive, monkeypatch):
        reads, passes = [], []
        read, make_pass = tensors._ArchiveBundle.read_activations, codebooks._Pass

        def spy_read(self, out, scratch):
            reads.append(weakref.ref(_owner(out)))
            return read(self, out, scratch)

        def spy_pass(*args, **kwargs):
            passes.append([ref() is None for ref in reads])
            return make_pass(*args, **kwargs)

        monkeypatch.setattr(tensors._ArchiveBundle, "read_activations", spy_read)
        monkeypatch.setattr(codebooks, "_Pass", spy_pass)
        learn(archive.load(archive.layers[0]), AaacConfig.for_format(NVFP4))
        # One read of the calibration, gone before the first pass is made.
        assert passes and passes[0] == [True]


def test_only_the_learner_and_scoring_read_the_calibration(tmp_path, capsys):
    # rtn and if4 never ask for the calibration tensors, so a non-finite one
    # stops only the commands that use it, naming its layer.
    layers = _four_layers(np.random.default_rng(5))
    layers["l1"][1][2, 7] = np.inf
    arch, pack = tmp_path / "a.safetensors", tmp_path / "m.aaacq"
    _write_archive(arch, layers)
    for method in ("rtn", "if4"):
        assert run("quantize", arch, "--out", pack, "--method", method) == 0
    capsys.readouterr()
    for argv in (("quantize", arch, "--out", tmp_path / "aaac.aaacq", "--method", "aaac"),
                 ("eval", pack, arch), ("compare", arch, "--methods", "rtn")):
        assert run(*argv) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: layer 'l1': activations contain non-finite values"), argv


class TestWholeOutputs:
    """A failing command leaves `--out` as it was and no temporary file behind."""

    @staticmethod
    def _check(out, existing, err, layer):
        *before, last = err.splitlines()
        assert last.startswith("error: ") and f"layer {layer!r}" in last, err
        # The layers written before it report their objectives, in order.
        assert [x.split(":")[0] for x in before] == [f"  l{i}" for i in range(len(before))], err
        assert all(" objective " in x for x in before), err
        assert "Traceback" not in err
        assert sorted(os.listdir(out.parent)) == ([out.name] if existing else [])
        if existing:
            assert out.read_bytes() == b"earlier output"

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("method, threads", [("rtn", "1"), ("rtn", "2"), ("aaac", "2")])
    def test_quantize_of_a_non_finite_layer(self, tmp_path, capsys, method, threads, existing):
        layers = _four_layers(np.random.default_rng(1))
        layers["l2"][0][1, 5] = np.nan  # the third of four layers
        arch = tmp_path / "a.safetensors"
        _write_archive(arch, layers)
        (tmp_path / "out").mkdir()
        out = tmp_path / "out" / "m.aaacq"
        if existing:
            out.write_bytes(b"earlier output")
        assert run("quantize", arch, "--out", out, "--method", method,
                   "--threads", threads) == 1
        self._check(out, existing, capsys.readouterr().err, "l2")

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("command", [
        *(("quantize", "--method", m, "--threads", t) for m in ("rtn", "if4", "aaac") for t in "12"),
        ("eval",), ("compare", "--threads", "2"),
    ], ids=lambda c: "-".join(c))
    def test_a_non_finite_weight_in_the_last_row_block(
            self, tmp_path, capsys, monkeypatch, command, existing):
        # Blocks of two rows of 64: the NaN is in the second block of l2,
        # which is read only after the first has been used.
        monkeypatch.setattr(grids, "BLOCK", 128)
        layers = _four_layers(np.random.default_rng(4))
        clean, arch = tmp_path / "clean.safetensors", tmp_path / "a.safetensors"
        _write_archive(clean, layers)
        layers["l2"][0][3, 5] = np.nan
        _write_archive(arch, layers)
        (tmp_path / "out").mkdir()
        out = tmp_path / "out" / "o"
        if existing:
            out.write_bytes(b"earlier output")
        if command[0] == "quantize":
            argv = ("quantize", arch, "--out", out, *command[1:])
        elif command[0] == "eval":
            assert run("quantize", clean, "--out", tmp_path / "m.aaacq", "--method", "rtn") == 0
            argv = ("eval", tmp_path / "m.aaacq", arch, "--json", "--out", out)
        else:
            argv = ("compare", arch, "--json", "--out", out, *command[1:])
        capsys.readouterr()
        assert run(*argv) == 1
        err = capsys.readouterr().err
        self._check(out, existing, err, "l2")
        assert err.splitlines()[-1] == "error: layer 'l2': weights contain non-finite values"

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_synth_of_a_failing_layer(self, tmp_path, capsys, monkeypatch, existing):
        real = tensors.synth_layer

        def synth_layer(spec, name):
            if name == "layer001":
                raise ValidationError(f"layer {name!r}: cannot make it")
            return real(spec, name)

        monkeypatch.setattr(tensors, "synth_layer", synth_layer)
        (tmp_path / "out").mkdir()
        out = tmp_path / "out" / "a.safetensors"
        if existing:
            out.write_bytes(b"earlier output")
        assert run("synth", "--out", out, "--layers", "3") == 1
        self._check(out, existing, capsys.readouterr().err, "layer001")

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    def test_dequantize_of_a_corrupt_layer(self, tmp_path, capsys, existing):
        arch, pack = tmp_path / "a.safetensors", tmp_path / "m.aaacq"
        _write_archive(arch, _four_layers(np.random.default_rng(2)))
        assert run("quantize", arch, "--out", pack, "--method", "rtn") == 0
        with PackReader(pack) as reader:
            last_byte = reader.layers[2].end - 1  # in the third layer's payload
        blob = bytearray(pack.read_bytes())
        blob[last_byte] ^= 0xFF
        pack.write_bytes(bytes(blob))
        (tmp_path / "out").mkdir()
        out = tmp_path / "out" / "d.safetensors"
        if existing:
            out.write_bytes(b"earlier output")
        capsys.readouterr()
        assert run("dequantize", pack, "--out", out) == 1
        self._check(out, existing, capsys.readouterr().err, "l2")


def test_synth_writes_the_bytes_of_the_whole_archive(tmp_path):
    # Names past layer999 sort out of number order: layer1000 comes before layer101.
    out = tmp_path / "s.safetensors"
    assert run("synth", "--out", out, "--layers", "1002", "--kind", "mixture",
               "-N", "1", "-K", "16", "-T", "2", "--seed", "7") == 0
    save_tensor_archive(tmp_path / "want.safetensors", [
        synth_layer(SynthSpec("mixture", 1, 16, 2, seed=7 + i), name=f"layer{i:03d}")
        for i in range(1002)
    ])
    want = hashlib.sha256((tmp_path / "want.safetensors").read_bytes()).hexdigest()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def test_dequantize_writes_in_archive_order(tmp_path):
    # The archive sorts by tensor name, and "a.b.weight" sorts before
    # "a.weight" although "a" sorts before "a.b".
    rng = np.random.default_rng(3)
    cfg = AaacConfig.for_format(NVFP4)
    layers = []
    for name in ("b", "a", "a.b"):
        bundle = LayerBundle(name, rng.standard_normal((2, 32)).astype(np.float32))
        layers.append((name, metrics.quantize_layer(bundle, "rtn", cfg, metrics.Scratch())[0]))
    pack, got, want = tmp_path / "m.aaacq", tmp_path / "got.safetensors", tmp_path / "want.safetensors"
    pack.write_bytes(model_to_bytes(layers))
    assert run("dequantize", pack, "--out", got) == 0
    write_tensors(want, {name + ".weight": packfmt.reconstruct(p) for name, p in layers})
    assert got.read_bytes() == want.read_bytes()
