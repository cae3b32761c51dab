"""Golden SHA-256 digests of the program's outputs on pinned inputs.

The `.aaacq` bytes written by `aaacq quantize` (aaac, rtn and if4), the
float64 objective traces of `learn` and the `aaacq compare --json` report
bytes are pinned bit for bit.  A change to the learner
that moves any of these digests changes what the program produces; such a
change needs its own justification and a new pin, never a silent update.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from aaacq.cli import main
from aaacq.codebooks import AaacConfig, LearnResult, kmeans_update, learn
from aaacq.grids import BLOCK, INT4, NVFP4, base_table, get_format
from aaacq.tensors import LayerBundle, SynthSpec, TensorArchive, synth_layer, write_tensors

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


# Every field of one learn on a 256x1024 mixture layer, large enough that
# each table's members span several pairwise-sum leaves (grids.BLOCK
# values), whose sums the inner steps fold; the archives above fit one leaf.
MULTI_LEAF_SHA256 = {
    "nvfp4": "5a2b84f9c47dfe5f9e93dd99231eb4ffed3b65b9561824e82ebd7573c65068d0",
    "int4-g128-s16": "d7a1d1c08057a71ac524a784a83ff111b3d54131d3929a3e405edb6ccd9155d6",
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

# Fixed-grid packs of the edge archive below, in both scale modes.
EDGE_GRID = {
    "rtn-nvfp4": ("rtn", ["--format", "nvfp4"]),
    "rtn-int4-g128": ("rtn", ["--format", "int4", "-g", "128"]),
    "if4-nvfp4": ("if4", ["--format", "nvfp4"]),
    "if4-nvfp4-g128": ("if4", ["--format", "nvfp4", "-g", "128"]),
}
EDGE_GRID.update({f"{name}-e4m3": (method, flags + ["--scale-mode", "emulate-e4m3"])
                  for name, (method, flags) in list(EDGE_GRID.items())})

EDGE_GRID_PACK_SHA256 = {
    "rtn-nvfp4": "f4348ec05ccb7a7f8d6f68bd52d2358b706bd62f44a818431ce216c479bb0a90",
    "rtn-int4-g128": "795566b1901ef3c3eacb236dc4fd58240e1d3dfec31020c5a2e40d5ee50fc1e5",
    "if4-nvfp4": "ab63bd97beca1524913b586abd40917a10d4c018a7d350258ddbd94d14507807",
    "if4-nvfp4-g128": "7b38b927a561e425acc08db0a5bd5278075860c42d5dd5b0fa0e2e22a3c5b675",
    "rtn-nvfp4-e4m3": "dff09b27a471ddb77bae3f7daa7664785b070db27599994bcfc2feb607ebb9c3",
    "rtn-int4-g128-e4m3": "37de57c4cbe99e46ec14c7f4ea5de7261eabac5da1640a1a553cfee40d47f0c2",
    "if4-nvfp4-e4m3": "9daef2e4179e3e48d88f4bac5a62fd27220b81d9bf423b31dc424c105eb32700",
    "if4-nvfp4-g128-e4m3": "e86a2603a09baa19a0a2d54cbf38c36194be7397c3eb3f768f1ac09924b92086",
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


def _edge_layer(rng, group, grid_max, rows=32, cols=1024):
    """Weights whose normalized values sit on the FP4 and INT4 midpoints, on
    float64 bucket edges (2**-8 of a binade apart: the top 20 bits of a
    float64 change there) and a float32 ulp either side of each.

    Each group holds +-`grid_max` times its scale, which pins the scale of the
    format whose grid ends there.  Scales are powers of two, so those
    normalized values are exact, or 1.5 or 1.3 times one, so they are a few
    ulps off (1.3 is neither a BF16 nor an E4M3 value, so the two scale modes
    round it apart).
    """
    mids = np.concatenate([0.5 * t[:-1] + 0.5 * t[1:]
                           for t in (base_table(NVFP4), base_table(INT4))])
    width = 2.0 ** (np.floor(np.log2(np.abs(mids))) - 8)
    near = mids[:, np.newaxis] + width[:, np.newaxis] * np.arange(-2, 3)
    edges = np.multiply.outer(2.0 ** np.arange(-4, 3), 1 + np.arange(256) / 256).ravel()
    pool = np.concatenate([near.ravel(), edges, -edges, [0.0, -0.0]]).astype(np.float32)
    pool = np.concatenate([pool, np.nextafter(pool, np.float32(np.inf)),
                           np.nextafter(pool, np.float32(-np.inf))])
    pool = pool[np.abs(pool) < grid_max]
    w = rng.choice(pool, (rows, cols // group, group))
    w[:, :, 0] = grid_max * rng.choice([-1.0, 1.0], w.shape[:2])
    scale = 2.0 ** rng.integers(-8, 8, w.shape[:2]) * rng.choice([1.0, 1.5, 1.3], w.shape[:2])
    return (w * scale[:, :, np.newaxis]).astype(np.float32).reshape(rows, cols)


@pytest.fixture(scope="module")
def edge_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden-edge") / "edge.safetensors"
    rng = np.random.default_rng(14)
    write_tensors(path, {"fp4.weight": _edge_layer(rng, 16, 6.0),
                         "int4.weight": _edge_layer(rng, 128, 8.0)})
    return path


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
    with TensorArchive(archives[source]) as archive:
        for layer in archive.layers:
            trace = learn(archive.load(layer), cfg).trace
            assert trace.dtype == np.float64
            digest.update(trace.tobytes())
    assert digest.hexdigest() == TRACE_SHA256[name]


@pytest.mark.parametrize("name", sorted(MULTI_LEAF_SHA256))
def test_multi_leaf_learn_bytes(name):
    cfg = _learn_config(CONFIGS[name][1])
    bundle = synth_layer(SynthSpec("mixture", 256, 1024, 32, seed=11), name="multi-leaf")
    result = learn(bundle, cfg)
    in_table1 = int(result.selection.sum()) * cfg.sel_size
    assert min(in_table1, bundle.weights.size - in_table1) > BLOCK
    digest = hashlib.sha256()
    for f in dataclasses.fields(LearnResult):
        digest.update(getattr(result, f.name).tobytes())
    assert digest.hexdigest() == MULTI_LEAF_SHA256[name]


def _degenerate_layer(name):
    """Layers on the learner's rare paths: every table entry equal (all-zero,
    constant), repeated entries that force a table's full recode
    (integer-valued), magnitudes near the window's absolute floor (1e-30),
    columns without importance (a dead 16-column group; all-zero
    activations), rows wider than one inner-step block, zeros of both signs
    in equal numbers, which compare equal but differ in their bits
    (signed-zeros), and float64 weights a few ulps apart, whose bit patterns
    share all but their last bits (ulp-close)."""
    rows, cols = (2, 2 * BLOCK) if name == "wide-rows" else (16, 512)
    bundle = synth_layer(SynthSpec("mixture", rows, cols, 16, seed=12), name=name)
    w, x = bundle.weights, bundle.activations
    if name == "all-zero":
        w = np.zeros_like(w)
    elif name == "constant":
        w = np.full_like(w, 0.375)
    elif name == "integer-valued":  # every group spans -3..3, so the scales are equal
        w = np.clip(np.round(4 * w), -3, 3)
        w[:, ::16] = 3
    elif name == "tiny":
        w = w * np.float32(1e-30)
    elif name == "dead-group":
        x = x.copy()
        x[:, 16:32] = 0.0
    elif name == "zero-activations":
        x = np.zeros_like(x)
    elif name == "signed-zeros":  # half the weights zeroed; a negative one times 0 is -0.0
        w = w * (np.random.default_rng(13).random(w.shape) < 0.5).astype(np.float32)
        x = x.copy()
        x[:, 16:32] = 0.0
    elif name == "ulp-close":  # 64 anchors, each value 0-4 ulps above or below one
        rng = np.random.default_rng(13)
        anchors = rng.choice(w.ravel(), 64).astype(np.float64)
        steps = rng.integers(0, 5, w.shape)
        w = (anchors[rng.integers(0, 64, w.shape)].view(np.int64) + steps).view(np.float64)
    return LayerBundle(name, w, x)


# Every field of `learn`, full and partial trace, under nvfp4 -S 8 and int4
# -g 128 -S 16, per layer of `_degenerate_layer`.
DEGENERATE_SHA256 = {
    "all-zero": "d415fddefef7ac7858b7247ce4c8bad1b489e90d852e57517ff8944c177c0475",
    "constant": "b722069c0222b3ec9ceef8b675e337af13590263461d2f4ba98e085609e3d482",
    "integer-valued": "2765ea70aeec7086931470691623e906676a6a1393e3108a0eed66c30cd91046",
    "tiny": "75ce57b35bd31c07632a0e607ab40ae130837d73bd1d525efd0bacd596843095",
    "dead-group": "2066b70f28b243e5cecc9b839dec75289023e7c3cb36e3e427ab3cddd965f7d3",
    "zero-activations": "6e6deaf9d05b4a4b2b5145407567678697ff9dabd76e5135b7e19508eb295c68",
    "wide-rows": "20562b2b3e5e30f9299052ceb81e8f4d31e4dab5de7a9f00995d6b30f68fddef",
    "signed-zeros": "bfcee2f5cce46e799ebd9ad058917ef78101ed4a9f380507ca0c625b2a5019c4",
    "ulp-close": "b3581aa457a91f9c38f61db921fd6cbd845ec6d41e2a191f991ded4599d53a05",
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_SHA256))
def test_degenerate_learn_bytes(name):
    bundle = _degenerate_layer(name)
    digest = hashlib.sha256()
    for flags in (["--format", "nvfp4", "-S", "8"], CONFIGS["int4-g128-s16"][1]):
        for full_trace in (True, False):
            result = learn(bundle, _learn_config(flags), full_trace=full_trace)
            for f in dataclasses.fields(LearnResult):
                digest.update(getattr(result, f.name).tobytes())
    assert digest.hexdigest() == DEGENERATE_SHA256[name]


# `kmeans_update` on values with +-inf and NaN of both signs, with and without
# weight on them, under a 16-entry table and one of more than 255 entries.
KMEANS_NON_FINITE_SHA256 = "91e8f165525797af429a9b2c436ccb5a33bdee926ac0809634a2bbbfef4387ec"


def test_kmeans_update_non_finite_bytes():
    rng = np.random.default_rng(15)
    values = rng.standard_normal(4096)
    values[rng.choice(4096, 64, replace=False)] = np.resize([np.inf, -np.inf, np.nan, -np.nan], 64)
    weights = rng.uniform(0.0, 1.0, 4096)
    weights[::7] = 0.0
    digest = hashlib.sha256()
    for w in (weights, np.where(np.isfinite(values), weights, 0.0)):
        for size in (16, 300):
            table = np.sort(rng.standard_normal(size))
            with np.errstate(invalid="ignore"):  # inf - inf in a cell's sums
                digest.update(kmeans_update(table, values, w, 5).tobytes())
    assert digest.hexdigest() == KMEANS_NON_FINITE_SHA256


@pytest.mark.parametrize("name", sorted(FIXED_GRID))
def test_fixed_grid_pack_bytes(tmp_path, archives, name):
    source, method, flags = FIXED_GRID[name]
    out = tmp_path / "m.aaacq"
    assert run("quantize", archives[source], "--out", out, "--method", method,
               "--threads", "1", *flags) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIXED_GRID_PACK_SHA256[name]


@pytest.mark.parametrize("name", sorted(EDGE_GRID))
def test_edge_grid_pack_bytes(tmp_path, edge_archive, name):
    method, flags = EDGE_GRID[name]
    out = tmp_path / "m.aaacq"
    assert run("quantize", edge_archive, "--out", out, "--method", method,
               "--threads", "1", *flags) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EDGE_GRID_PACK_SHA256[name]


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
