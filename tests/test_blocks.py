"""The one row-block rule (`grids.row_blocks` and `grids.BLOCK`): every pass
that works a layer a block at a time gives the same bytes in any blocks."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaacq import grids, quantizers
from aaacq.codebooks import (
    AaacConfig,
    LearnResult,
    calibration,
    init_tables,
    kmeans_update,
    learn,
    select_tables,
)
from aaacq.grids import INT4, NVFP4, Scratch, row_blocks
from aaacq.metrics import quantize_layer
from aaacq.packfmt import layer_to_bytes, reconstruct
from aaacq.quantizers import normalize
from aaacq.tensors import SynthSpec, synth_layer


@given(st.integers(0, 300), st.integers(0, 3000), st.sampled_from([1, 7, 128, 1024, 1 << 16]))
def test_blocks_tile_the_rows(rows, cols, block):
    with mock.patch.object(grids, "BLOCK", block):
        blocks = row_blocks(rows, cols)
    if not rows * cols:
        assert blocks == []  # no rows, or rows of no width
        return
    step = max(1, block // cols)  # whole rows, about `block` values, at least one row
    assert [(r.start, r.stop) for r in blocks] == [(a, min(a + step, rows)) for a in range(0, rows, step)]


def _outputs(bundle, cfg) -> list:
    """The bytes of everything the row-blocked passes make for one layer."""
    res = learn(bundle, cfg)
    out = [getattr(res, f.name).tobytes() for f in dataclasses.fields(LearnResult)]
    w_norm = normalize(bundle.weights, res.scales, cfg.group_size)
    t0, t1 = init_tables(w_norm, cfg.fmt.table_size)
    scratch = Scratch()
    imp = calibration(bundle, scratch)[1]
    out.append(select_tables(w_norm, imp, t0, t1, cfg.sel_size).tobytes())
    out.append(kmeans_update(t0, w_norm, np.broadcast_to(imp, w_norm.shape), 3).tobytes())
    for method in ("rtn", "if4", "aaac"):
        packed, _ = quantize_layer(bundle, method, cfg, scratch)
        out += [layer_to_bytes("w", packed), reconstruct(packed).tobytes()]
    return out


@pytest.mark.parametrize(
    "cfg",
    [AaacConfig.for_format(NVFP4, sel_size=8), AaacConfig.for_format(INT4, group_size=128, sel_size=16)],
    ids=["nvfp4-S8", "int4-g128-S16"],
)
@pytest.mark.parametrize("rows, cols", [(96, 256), (72, 1024)])
def test_every_block_size_gives_the_same_bytes(monkeypatch, cfg, rows, cols):
    # At 128 values every row is a block of its own and the error sums take
    # leaves of 128; at 1024 rows of 256 go four to a block; by default the
    # 96x256 layer is one block and the 72x1024 layer two.
    bundle = synth_layer(SynthSpec("mixture", rows, cols, 32, seed=rows), name="w")
    want = _outputs(bundle, cfg)
    for block in (128, 1024):
        monkeypatch.setattr(grids, "BLOCK", block)
        assert _outputs(bundle, cfg) == want, block


# Signed zeros, NaN of either sign, subnormals, infinities and a few normal values.
_SPECIAL = [0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 2.0 ** -1030, -(2.0 ** -1060),
            1.0, -1.5, 3e300, -1e-300, np.inf, -np.inf]


@given(st.lists(st.sampled_from(_SPECIAL) | st.floats(), min_size=1, max_size=64), st.data())
@settings(max_examples=300, deadline=None)
def test_occupied_over_any_split_equals_the_whole(values, data):
    v = np.asarray(values, dtype=np.float64)
    cuts = sorted(data.draw(st.sets(st.integers(1, v.size - 1), max_size=8))) if v.size > 1 else []
    assert quantizers._occupied(np.split(v, cuts)) == quantizers._occupied([v])
