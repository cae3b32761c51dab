"""Cross-validation of the vectorized learner against a scalar reference.

The reference below re-implements the whole per-layer pipeline with plain
Python loops and dictionaries: absmax scales with BF16 storage rounding,
quantile table initialization, per-group assignment by brute-force error
sums, dictionary-based weighted Lloyd iterations with empty-cell carry, the
final BF16 rounding, and code emission.  It shares no code with the package
except the error-free test oracles for the BF16 grid.
"""

import math

import numpy as np
import pytest

from test_grids import bf16_positive_grid, nearest_tie_even

from aaacq import codebooks
from aaacq.codebooks import AaacConfig, importance, learn
from aaacq.grids import INT4, NVFP4
from aaacq.tensors import LayerBundle, SynthSpec, synth_layer

BF16_GRID, _BF16_PATTERNS = bf16_positive_grid()


def ref_bf16(x):
    if x == 0:
        return 0.0
    if x < 0:
        return -nearest_tie_even(BF16_GRID, -x)
    return nearest_tie_even(BF16_GRID, x)


def ref_scales(w, grid_max):
    rows, cols = w.shape
    out = []
    for n in range(rows):
        row = []
        for start in range(0, cols, 16):
            absmax = max(abs(float(v)) for v in w[n, start : start + 16])
            if absmax == 0:
                s = 2.0**-126
            else:
                s = ref_bf16(np.float32(np.float32(absmax) / np.float32(grid_max)))
                if s * grid_max < absmax:
                    s = BF16_GRID[np.searchsorted(BF16_GRID, s) + 1]
            row.append(np.float32(s))
        out.append(row)
    return out


def ref_quantile(sorted_vals, q):
    pos = q * (len(sorted_vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_vals) - 1)
    frac = pos - lo
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * frac


def ref_init(norm_flat, m):
    s = sorted(norm_flat)
    t0 = [ref_quantile(s, i / (m - 1)) for i in range(m)]
    delta = 1.0 / (2 * (m - 1))
    t1 = [ref_quantile(s, delta + (1 - delta) * i / (m - 1)) for i in range(m)]
    return t0, t1


def ref_nearest(table, x):
    best, best_d = 0, abs(x - table[0])
    for i in range(1, len(table)):
        d = abs(x - table[i])
        if d < best_d:
            best, best_d = i, d
    return best


def ref_group_error(table, values, weights):
    return sum(
        wgt * (v - table[ref_nearest(table, v)]) ** 2 for v, wgt in zip(values, weights)
    )


def reference_learn(w, imp, fmt, sel_size, n_outer, n_inner):
    rows, cols = w.shape
    m = fmt.table_size
    scales = ref_scales(w, fmt.grid_absmax)
    norm = [
        [float(w[n, k]) / float(scales[n][k // 16]) for k in range(cols)]
        for n in range(rows)
    ]
    t0, t1 = ref_init([v for row in norm for v in row], m)

    groups = [
        (n, start)
        for n in range(rows)
        for start in range(0, cols, sel_size)
    ]

    def assign():
        sigma = {}
        for n, start in groups:
            vals = norm[n][start : start + sel_size]
            wgts = [imp[k] for k in range(start, start + sel_size)]
            if sum(wgts) == 0:
                wgts = [1.0] * sel_size
            e0 = ref_group_error(t0, vals, wgts)
            e1 = ref_group_error(t1, vals, wgts)
            sigma[(n, start)] = 1 if e1 < e0 else 0
        return sigma

    for _ in range(n_outer):
        sigma = assign()
        for r, table in ((0, t0), (1, t1)):
            members = [
                (norm[n][k], imp[k])
                for n, start in groups
                if sigma[(n, start)] == r
                for k in range(start, start + sel_size)
            ]
            for _ in range(n_inner):
                cells = {i: [] for i in range(m)}
                for v, wgt in members:
                    cells[ref_nearest(table, v)].append((v, wgt))
                for i in range(m):
                    den = math.fsum(wgt for _, wgt in cells[i])
                    if den > 0:
                        table[i] = math.fsum(v * wgt for v, wgt in cells[i]) / den
            table.sort()

    t0 = [float(np.float32(ref_bf16(v))) for v in t0]
    t1 = [float(np.float32(ref_bf16(v))) for v in t1]
    sigma = assign()
    codes = [
        [
            ref_nearest(t1 if sigma[(n, (k // sel_size) * sel_size)] else t0, norm[n][k])
            for k in range(cols)
        ]
        for n in range(rows)
    ]
    sel = [
        [sigma[(n, start)] for start in range(0, cols, sel_size)] for n in range(rows)
    ]
    return t0, t1, sel, codes, scales


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("fmt,sel_size", [(NVFP4, 16), (NVFP4, 8), (INT4, 16)])
def test_learn_matches_scalar_reference(seed, fmt, sel_size):
    # the reference hardcodes scale groups of 16, so run INT4 at g=16 too
    bundle = synth_layer(SynthSpec("mixture", 4, 64, 12, seed=seed), name="ref")
    cfg = AaacConfig(fmt=fmt, group_size=16, sel_size=sel_size, n_outer=2, n_inner=4)
    imp = importance(bundle.activations)
    res = learn(bundle, cfg, col_importance=imp)
    t0, t1, sel, codes, scales = reference_learn(
        bundle.weights, [float(v) for v in imp], fmt, sel_size, 2, 4
    )
    assert np.array_equal(res.scales, np.asarray(scales, dtype=np.float32))
    assert res.table0.tolist() == pytest.approx(t0, rel=0, abs=0)
    assert res.table1.tolist() == pytest.approx(t1, rel=0, abs=0)
    assert res.selection.tolist() == sel
    assert res.codes.tolist() == codes


def test_learn_matches_reference_without_activations():
    bundle = synth_layer(SynthSpec("gaussian", 4, 64, 8, seed=9), name="ref")
    cfg = AaacConfig(fmt=INT4, group_size=16, sel_size=16, n_outer=1, n_inner=2)
    res = learn(bundle, cfg, col_importance=np.ones(64))
    t0, t1, sel, codes, scales = reference_learn(
        bundle.weights, [1.0] * 64, INT4, 16, 1, 2
    )
    assert res.table0.tolist() == t0
    assert res.table1.tolist() == t1
    assert res.selection.tolist() == sel
    assert res.codes.tolist() == codes


@pytest.mark.parametrize("value", [0.37, -1.5, 3e-3])
@pytest.mark.parametrize("fmt", [INT4, NVFP4], ids=["int4", "nvfp4"])
def test_constant_layer_matches_reference(fmt, value):
    # Every weight normalizes to one value, so quantile init gives tables of
    # equal entries and a cell's centroid can round one ulp past untouched
    # ones: the learner must keep its tables sorted between Lloyd steps.
    w = np.full((4, 64), value, dtype=np.float32)
    cfg = AaacConfig(fmt=fmt, group_size=16, sel_size=16)
    res = learn(LayerBundle("const", w), cfg, col_importance=np.ones(64))
    t0, t1, sel, codes, scales = reference_learn(
        w, [1.0] * 64, fmt, 16, cfg.n_outer, cfg.n_inner
    )
    assert np.array_equal(res.scales, np.asarray(scales, dtype=np.float32))
    assert res.table0.tolist() == t0
    assert res.table1.tolist() == t1
    assert res.selection.tolist() == sel
    assert res.codes.tolist() == codes


# Edge cases for the learner's group-indexed members: layers whose members
# are all of one group, of no group for one table, or of extreme magnitudes.

def assert_matches_reference(w, imp, fmt, sel_size, n_outer=2, n_inner=4):
    """`learn` on `w` equals `reference_learn` bit for bit; returns its result."""
    cfg = AaacConfig(fmt=fmt, group_size=16, sel_size=sel_size, n_outer=n_outer, n_inner=n_inner)
    res = learn(LayerBundle("edge", w), cfg, col_importance=np.asarray(imp, dtype=np.float64))
    t0, t1, sel, codes, scales = reference_learn(
        w, [float(v) for v in imp], fmt, sel_size, n_outer, n_inner
    )

    def bits(values):
        return np.asarray(values, dtype=np.float32).view(np.uint32).tolist()

    assert bits(res.scales) == bits(scales)
    assert bits(res.table0) == bits(t0)
    assert bits(res.table1) == bits(t1)
    assert res.selection.tolist() == sel
    assert res.codes.tolist() == codes
    return res


@pytest.mark.parametrize("fmt", [INT4, NVFP4], ids=["int4", "nvfp4"])
def test_all_zero_layer_matches_reference(fmt):
    w = np.zeros((4, 64), dtype=np.float32)
    res = assert_matches_reference(w, [1.0] * 64, fmt, 16)
    assert not res.codes.any() and not res.table0.any() and not res.table1.any()


@pytest.mark.parametrize("fmt", [INT4, NVFP4], ids=["int4", "nvfp4"])
def test_subnormal_layer_matches_reference(fmt):
    # Exact float32 subnormals, each group's absmax from one ulp (its scale
    # underflows to zero before the bump) up to just below the normal range.
    rng = np.random.default_rng(4)
    top = 2 ** rng.integers(0, 23, size=(4, 4, 1))
    w = (rng.integers(-top, top, size=(4, 4, 16), endpoint=True) * 2.0**-149).astype(np.float32)
    w = w.reshape(4, 64)
    w[0, :16] = np.float32(2.0**-149)
    assert (np.abs(w) < np.finfo(np.float32).tiny).all() and w.any()
    imp = importance(synth_layer(SynthSpec("gaussian", 1, 64, 8, seed=4)).activations)
    assert_matches_reference(w, imp, fmt, 16)


@pytest.mark.parametrize("fmt", [INT4, NVFP4], ids=["int4", "nvfp4"])
def test_single_group_layer_matches_reference(fmt):
    w = synth_layer(SynthSpec("mixture", 1, 16, 8, seed=5)).weights
    res = assert_matches_reference(w, np.linspace(0.5, 2.0, 16), fmt, 16)
    assert res.selection.shape == (1, 1)


@pytest.mark.parametrize(
    "fmt,seed,chosen", [(NVFP4, 2, [1, 1, 1]), (INT4, 0, [0, 1, 0])], ids=["nvfp4", "int4"]
)
def test_one_sided_selection_matches_reference(fmt, seed, chosen, monkeypatch):
    # Every group holds the same values under the same importances, so every
    # assignment sends all groups to one table and leaves the other none:
    # table 0 in every round, or each table in turn.
    rng = np.random.default_rng(seed)
    w = np.tile(rng.standard_normal(16).astype(np.float32), (4, 4))
    imp = np.tile(rng.uniform(0.25, 2.0, 16), 4)
    selections = []
    assign = codebooks._assign

    def spy(*args):
        out = assign(*args)
        selections.append(out[2])
        return out

    monkeypatch.setattr(codebooks, "_assign", spy)
    assert_matches_reference(w, imp, fmt, 16)
    assert all(s.min() == s.max() for s in selections)
    assert [int(s.flat[0]) for s in selections] == chosen
