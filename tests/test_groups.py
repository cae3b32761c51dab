"""The group-layout rule, `grids.check_groups`, at every entry point that takes group sizes.

Selection groups of S weights split scale groups of g weights, which split
a row of `cols`: 1 <= S <= g, S | g and g | cols.  Each case below breaks
the rule one way, and every entry point refuses it with the `AaacqError`
class named; one read from bytes refuses it as corruption.
"""

import dataclasses

import numpy as np
import pytest

from aaacq import grids
from aaacq.codebooks import AaacConfig, learn, select_tables
from aaacq.errors import CorruptionError, LayoutError, UnsupportedConfigError, ValidationError
from aaacq.grids import INT4, compute_scales
from aaacq.packfmt import _HEADER, MAGIC, PackReader, model_to_bytes, pack, unpack
from aaacq.quantizers import dequantize, if4_quantize, rtn_quantize
from aaacq.tensors import SynthSpec, synth_layer

# id: (g, S, cols, the class raised, the size at fault: "g", "S", or None for the pair)
CASES = {
    "g-zero": (0, 0, 32, ValidationError, "g"),
    "g-negative": (-16, -16, 32, ValidationError, "g"),
    "S-zero": (16, 0, 32, ValidationError, "S"),
    "S-negative": (16, -4, 32, ValidationError, "S"),
    "S-above-g": (16, 32, 32, UnsupportedConfigError, None),
    "S-above-a-zero-g": (0, 16, 32, UnsupportedConfigError, None),
    "S-not-dividing-g": (128, 48, 256, LayoutError, None),
    "g-not-dividing-cols": (128, 16, 96, LayoutError, "g"),
}

ROWS = 2
TABLE = [0.0, 1.0]


def _learn(g, s, cols):
    learn(synth_layer(SynthSpec("mixture", ROWS, cols, 4)), AaacConfig(fmt=INT4, group_size=g, sel_size=s))


def _pack(g, s, cols):
    pack(TABLE, TABLE, np.zeros((ROWS, 1)), np.zeros((ROWS, cols)), np.ones((ROWS, 1)),
         kind="int4", group_size=g, sel_size=s)


def _dequantize(g, s, cols):
    dequantize(np.zeros((ROWS, cols), np.uint8), np.ones((ROWS, 1), np.float32), TABLE, TABLE,
               np.zeros((ROWS, 1), np.uint8), g, s)


# Entry points given both sizes and the row length.
BOTH = {
    "check_groups": lambda g, s, cols: grids.check_groups(g, s, cols),
    "learn": _learn,
    "pack": _pack,
    "dequantize": _dequantize,
}

# Entry points given one size, `n`: a scale group size, or the selection
# group size that `select_tables` checks as both.
ONE = {
    "compute_scales": lambda n, cols: compute_scales(np.ones((ROWS, cols), np.float32), INT4, n),
    "rtn_quantize": lambda n, cols: rtn_quantize(np.ones((ROWS, cols), np.float32), INT4, n),
    "if4_quantize": lambda n, cols: if4_quantize(np.ones((ROWS, cols), np.float32), n),
    "select_tables": lambda n, cols: select_tables(np.zeros((ROWS, cols)), np.ones(cols), TABLE, TABLE, n),
}


@pytest.mark.parametrize("entry", BOTH)
@pytest.mark.parametrize("case", CASES)
def test_both_sizes_follow_the_rule(entry, case):
    g, s, cols, error, _ = CASES[case]
    with pytest.raises(error):
        BOTH[entry](g, s, cols)


@pytest.mark.parametrize("entry", ONE)
@pytest.mark.parametrize("case", [c for c, (*_, at) in CASES.items() if at])
def test_one_size_follows_the_rule(entry, case):
    g, s, cols, error, at = CASES[case]
    with pytest.raises(error):
        ONE[entry](g if at == "g" else s, cols)


def _valid_pack():
    return pack(TABLE, TABLE, np.zeros((ROWS, 2)), np.zeros((ROWS, 32)), np.ones((ROWS, 2)),
                kind="int4", group_size=16, sel_size=16)


@pytest.mark.parametrize("case", CASES)
def test_unpack_refuses_a_layer_that_breaks_the_rule(case):
    g, s, cols, _, _ = CASES[case]
    with pytest.raises(CorruptionError):
        unpack(dataclasses.replace(_valid_pack(), cols=cols, group_size=g, sel_size=s))


@pytest.mark.parametrize("case", CASES)
def test_a_header_that_breaks_the_rule_is_corruption(tmp_path, case):
    g, s, cols, _, _ = CASES[case]
    blob = bytearray(model_to_bytes([("w", _valid_pack())]))
    at = len(MAGIC) + 6 + 2 + len("w")  # past the container header and the layer's name
    kind, rows, _, _, _, table_size, flags = _HEADER.unpack_from(blob, at)
    # The u16 fields hold a negative size as its 16-bit pattern.
    _HEADER.pack_into(blob, at, kind, rows, cols, g & 0xFFFF, s & 0xFFFF, table_size, flags)
    path = tmp_path / "rewritten.aaacq"
    path.write_bytes(bytes(blob))
    with pytest.raises(CorruptionError, match="layer 'w': stored group sizes"):
        PackReader(path).close()


@pytest.mark.parametrize("g, s, cols", [(1, 1, 7), (16, 16, None), (128, 16, 256), (16, 1, 0)])
def test_layouts_that_follow_the_rule_pass(g, s, cols):
    grids.check_groups(g, s, cols)


@pytest.mark.parametrize("quantize", [
    lambda w: compute_scales(w, INT4, 16), lambda w: rtn_quantize(w, INT4, 16), lambda w: if4_quantize(w, 16),
], ids=["compute_scales", "rtn_quantize", "if4_quantize"])
def test_weights_that_are_not_2d_are_refused(quantize):
    with pytest.raises(ValidationError, match="2-D"):
        quantize(np.ones(32, np.float32))


def test_the_layout_errors_are_validation_errors():
    # Callers that catch `ValidationError` catch every rejection of the rule.
    assert issubclass(LayoutError, ValidationError)
    assert issubclass(UnsupportedConfigError, ValidationError)
