"""Golden SHA-256 digests of the program's outputs on pinned inputs.

The `.aaacq` bytes written by `aaacq quantize` (aaac, rtn and if4), the
float64 objective traces of `learn` and the `aaacq compare --json` report
bytes are pinned bit for bit.  A change to the learner
that moves any of these digests changes what the program produces; such a
change needs its own justification and a new pin, never a silent update.
"""

import hashlib

import numpy as np
import pytest

from aaacq.cli import main
from aaacq.codebooks import AaacConfig, learn
from aaacq.grids import get_format
from aaacq.tensors import load_tensor_archive

ARCHIVES = {
    "mixture": ["--kind", "mixture"],
    # absmax / 6 exceeds E4M3's 448, so the clamped scales leave normalized
    # weights near 1e34.
    "huge": ["--kind", "gaussian", "--sigma", "1e36"],
}

CONFIGS = {
    "nvfp4": ("mixture", ["--format", "nvfp4"]),
    "int4-g128-s16": ("mixture", ["--format", "int4", "-g", "128", "-S", "16"]),
    "nvfp4-e4m3": ("mixture", ["--format", "nvfp4", "--scale-mode", "emulate-e4m3"]),
    "nvfp4-e4m3-huge": ("huge", ["--format", "nvfp4", "--scale-mode", "emulate-e4m3"]),
}

PACK_SHA256 = {
    "nvfp4": "74eab692f08994370d510587e5cfeb1513598bf8ae22fdff544fc076354ad507",
    "int4-g128-s16": "01bd259628909905553059b0ed13dabf5dbad40a86ec984cdd931122dbd6ba32",
    "nvfp4-e4m3": "0567ba6cbcc477a0448a7dd579410d4f32324b7040b39e49ffd6bb95cf282f6b",
    "nvfp4-e4m3-huge": "4611da3ee4731eae82c217b3d028e5c66462ba37833b7663dc9cf39fef9eea24",
}

TRACE_SHA256 = {
    "nvfp4": "edc193d30c2305314d0ced07783f1561df6ac2421cb8619ff67952a0bcd67a59",
    "int4-g128-s16": "f567c5dde6c20d830d7d1883ea3205bbd9509931c2dbaab25d9880a786e79192",
    "nvfp4-e4m3": "dab761fc027e47e9e3378393823bfc9516da5c71284039f1866b156284bff4b9",
    "nvfp4-e4m3-huge": "fb1b19e55cac16ec70d36852cefc3f8ee06408ec4883e19b5a5142f7301f1127",
}


# Fixed-grid packs: the learner is bypassed.
FIXED_GRID = {
    "rtn-nvfp4": ("mixture", "rtn", ["--format", "nvfp4"]),
    "rtn-int4-g128": ("mixture", "rtn", ["--format", "int4", "-g", "128"]),
    "rtn-nvfp4-e4m3-huge": ("huge", "rtn", ["--format", "nvfp4", "--scale-mode", "emulate-e4m3"]),
    "if4-nvfp4": ("mixture", "if4", ["--format", "nvfp4"]),
    "if4-nvfp4-e4m3-huge": ("huge", "if4", ["--format", "nvfp4", "--scale-mode", "emulate-e4m3"]),
}

FIXED_GRID_PACK_SHA256 = {
    "rtn-nvfp4": "88ee7d217f77af8bf690e678a7d7089ef1cab7e84effd2837a6aa9bbf33a44ea",
    "rtn-int4-g128": "e174e7f1f9a4107cf334846b2c1948feae02ccf7ac805858790a476643e7ca1d",
    "rtn-nvfp4-e4m3-huge": "9d1b7102f9b4fe532bba2c24c6f75497c748eb159c1f2418f3900d021a7fce74",
    "if4-nvfp4": "dd1a226bc6620688daf2a08ac1e7c146d33a664232ff3a6a5456bfd10bed7b19",
    "if4-nvfp4-e4m3-huge": "06cd8b1e07961c62cd517d71fdf0b78a05c794e932c8e41fd8b71eff4b72baf6",
}

# `compare --json` with the default methods rtn,if4,aaac on the mixture
# archive; the report must not depend on the thread count.
COMPARE_JSON_SHA256 = {
    "nvfp4": "551596b37483f2c3bcffc48a0339156ee98f16fbe1fa69d3f3df1fe3905343c5",
    "int4-g128-s16": "ad3da8596d7639eccc74cb2c86e0eb6f477818562e5e4eee3e6f9460c938f24e",
}

# `compare --json` with no archive: the built-in pinned suite, seed 0.
PINNED_SUITE_COMPARE_SHA256 = "d0c0b90425462e0a90cb6797057bb1af6214f0729380166c57eac6600b2a40ff"


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def archives(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, flags in ARCHIVES.items():
        paths[name] = root / f"{name}.safetensors"
        assert run("synth", "--out", paths[name], "--layers", "3", *flags,
                   "-N", "16", "-K", "512", "-T", "32", "--seed", "11") == 0
    return paths


def _learn_config(flags):
    fmt = get_format(flags[flags.index("--format") + 1])
    g = int(flags[flags.index("-g") + 1]) if "-g" in flags else fmt.group_size
    s = int(flags[flags.index("-S") + 1]) if "-S" in flags else g
    mode = flags[flags.index("--scale-mode") + 1] if "--scale-mode" in flags else "exact-bf16"
    return AaacConfig(fmt=fmt, group_size=g, sel_size=s, scale_mode=mode)


# Two threads send these small layers to forked workers; the pack is the same.
@pytest.mark.parametrize("name, threads", [
    pytest.param(name, threads, id=name if threads == 1 else f"{name}-threads{threads}")
    for name in sorted(CONFIGS) for threads in (1, 2)
])
def test_pack_bytes(tmp_path, archives, name, threads):
    source, flags = CONFIGS[name]
    out = tmp_path / "m.aaacq"
    assert run("quantize", archives[source], "--out", out, "--method", "aaac",
               "--threads", threads, *flags) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PACK_SHA256[name]


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_bytes(archives, name):
    source, flags = CONFIGS[name]
    cfg = _learn_config(flags)
    digest = hashlib.sha256()
    for bundle in load_tensor_archive(archives[source]):
        trace = learn(bundle, cfg).trace
        assert trace.dtype == np.float64
        digest.update(trace.tobytes())
    assert digest.hexdigest() == TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(FIXED_GRID))
def test_fixed_grid_pack_bytes(tmp_path, archives, name):
    source, method, flags = FIXED_GRID[name]
    out = tmp_path / "m.aaacq"
    assert run("quantize", archives[source], "--out", out, "--method", method,
               "--threads", "1", *flags) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXED_GRID_PACK_SHA256[name]


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("name", sorted(COMPARE_JSON_SHA256))
def test_compare_json_bytes(tmp_path, archives, name, threads):
    out = tmp_path / "compare.json"
    assert run("compare", archives["mixture"], "--json", "--out", out,
               "--threads", threads, *CONFIGS[name][1]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMPARE_JSON_SHA256[name]


@pytest.mark.parametrize("threads", [1, 2])
def test_pinned_suite_compare_json_bytes(capsys, threads):
    assert run("compare", "--json", "--threads", threads) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SUITE_COMPARE_SHA256
