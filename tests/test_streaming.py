"""Streaming CLI paths: memory flat in the layer count, whole outputs only, archive order."""

import os
import tracemalloc

import numpy as np
import pytest

from aaacq import metrics
from aaacq.cli import main
from aaacq.codebooks import AaacConfig
from aaacq.grids import NVFP4
from aaacq.packfmt import PackReader, write_pack
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
            "eval": _peak_bytes("eval", pack, arch, "--json", "--out", report),
            "dequantize": _peak_bytes("dequantize", pack, "--out", d / "d.safetensors"),
        }
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
        assert err.startswith("error: ") and f"layer {layer!r}" in err, err
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
    write_pack(pack, layers)
    assert run("dequantize", pack, "--out", got) == 0
    write_tensors(want, {name + ".weight": metrics.reconstruct(p) for name, p in layers})
    assert got.read_bytes() == want.read_bytes()
