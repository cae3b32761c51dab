"""Streaming CLI paths: memory flat in the layer count, whole outputs only, archive order."""

import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from aaacq import metrics, tensors
from aaacq.cli import main
from aaacq.codebooks import AaacConfig
from aaacq.errors import ValidationError
from aaacq.grids import NVFP4
from aaacq.packfmt import PackReader, model_to_bytes
from aaacq.tensors import LayerBundle, SynthSpec, save_tensor_archive, synth_layer, write_tensors


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
        layers.append((name, metrics.quantize_layer(bundle, "rtn", cfg)[0]))
    pack, got, want = tmp_path / "m.aaacq", tmp_path / "got.safetensors", tmp_path / "want.safetensors"
    pack.write_bytes(model_to_bytes(layers))
    assert run("dequantize", pack, "--out", got) == 0
    write_tensors(want, {name + ".weight": metrics.reconstruct(p) for name, p in layers})
    assert got.read_bytes() == want.read_bytes()
