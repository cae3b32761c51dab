"""Importance, quantile init, table selection, weighted k-means, and learn."""

import cProfile
import dataclasses
import math
import pstats
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aaacq import codebooks, grids, quantizers
from aaacq.codebooks import (
    AaacConfig,
    LearnResult,
    importance,
    init_tables,
    kmeans_update,
    learn,
    select_tables,
    weighted_error,
)
from aaacq.errors import (
    LayoutError,
    UnsupportedConfigError,
    ValidationError,
)
from aaacq.grids import INT4, NVFP4, compute_scales
from aaacq.quantizers import dequantize, dequantize_rtn, normalize, recon_codes, rtn_quantize
from aaacq.tensors import LayerBundle, SynthSpec, synth_layer


class TestImportance:
    def test_small_example(self):
        x = np.asarray([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        assert importance(x).tolist() == [10.0, 20.0]

    def test_all_zero(self):
        assert (importance(np.zeros((3, 4), np.float32)) == 0).all()

    def test_1d_activations_are_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            importance(np.ones(4, np.float32))

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 8)).astype(np.float32)
        perm = rng.permutation(16)
        assert np.array_equal(importance(x), importance(x[perm]))

    @staticmethod
    def whole_matrix(x):
        """`importance` as one float64 copy of the whole matrix."""
        x = np.array(x, dtype=np.float64)
        np.multiply(x, x, out=x)
        x.sort(axis=0)
        return x.sum(axis=0)

    # 1000x257 and 999x513 end on a block of one column, which numpy would
    # sum pairwise; 300x1 is one column throughout, as in the whole matrix.
    @pytest.mark.parametrize("shape", [(256, 4096), (1000, 257), (999, 513), (300, 1),
                                       (64, 11008), (1000, 258)])
    def test_column_blocks_match_the_whole_matrix(self, shape):
        rng = np.random.default_rng(shape[1])
        spread = rng.uniform(0.1, 10.0, shape[1])
        x = (rng.standard_normal(shape) * spread).astype(np.float32)
        assert importance(x).tobytes() == self.whole_matrix(x).tobytes()

    def test_peak_is_one_block(self):
        tokens, cols = 512, 2048
        x = np.random.default_rng(1).standard_normal((tokens, cols)).astype(np.float32)
        importance(x[:4, :4])  # first-call allocations are not the working set
        tracemalloc.start()
        try:
            importance(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = tokens * codebooks._IMPORTANCE_COLS * 8
        assert peak <= block + 4 * cols * 8 + 65536
        assert peak < x.nbytes  # the whole matrix in float64 is twice that


class TestWeightedError:
    def test_zero_when_equal(self):
        w = np.ones((3, 4), np.float32)
        assert weighted_error(w, w, np.ones(4)) == 0.0

    def test_importance_of_another_length_is_rejected(self):
        w = np.ones((3, 4), np.float32)
        with pytest.raises(ValidationError, match="importance"):
            weighted_error(w, w, np.ones(3))

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_negative_or_nonfinite_importance_is_rejected(self, bad):
        w = np.ones((3, 4), np.float32)
        imp = np.ones(4)
        imp[2] = bad
        with pytest.raises(ValidationError, match="finite and non-negative"):
            weighted_error(w, w * 2, imp)

    def test_zero_importance_weighs_nothing(self):
        w = np.ones((3, 4), np.float32)
        assert weighted_error(w, w * 2, np.zeros(4)) == 0.0

    def test_reconstruction_of_another_shape_is_rejected(self):
        w = np.ones((3, 4), np.float32)
        with pytest.raises(ValidationError, match="reconstruction"):
            weighted_error(w, np.ones((1, 4), np.float32), np.ones(4))

    def test_single_element(self):
        w = np.zeros((1, 2), np.float32)
        w_hat = np.asarray([[2.0, 0.0]], dtype=np.float32)
        assert weighted_error(w, w_hat, np.asarray([3.0, 1.0])) == 12.0

    def test_reordered_accumulation_oracle(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((20, 30)).astype(np.float32)
        w_hat = (w + rng.standard_normal((20, 30)) * 0.1).astype(np.float32)
        imp = rng.uniform(0, 5, 30)
        got = weighted_error(w, w_hat, imp)
        want = math.fsum(
            imp[k] * (float(w[n, k]) - float(w_hat[n, k])) ** 2
            for k in range(30)
            for n in range(20)
        )
        assert got == pytest.approx(want, rel=1e-9)


class TestInitTables:
    def test_uniform_grid_is_reproduced(self):
        w = np.arange(16, dtype=np.float64)
        t0, t1 = init_tables(w, 16)
        assert t0.tolist() == list(range(16))
        assert t1[-1] == 15.0  # the shifted grid still ends at the maximum

    def test_half_step_offset(self):
        # With M entries the offset is half a quantile step: 1/(2(M-1)).
        w = np.linspace(0, 1, 1001)
        t0, t1 = init_tables(w, 16)
        delta = 1.0 / 30.0
        steps = np.arange(16) / 15.0
        assert np.allclose(t1, delta + (1 - delta) * steps, atol=1e-12)
        assert np.allclose(t0, steps, atol=1e-12)

    def test_tables_non_decreasing(self):
        rng = np.random.default_rng(2)
        for m in (2, 15, 16):
            t0, t1 = init_tables(rng.standard_normal(500), m)
            assert (np.diff(t0) >= 0).all() and (np.diff(t1) >= 0).all()

    def test_errors(self):
        with pytest.raises(ValidationError):
            init_tables(np.asarray([]), 16)
        with pytest.raises(ValidationError):
            init_tables(np.asarray([1.0]), 1)

    def test_single_value(self):
        t0, t1 = init_tables(np.asarray([2.5]), 16)
        assert (t0 == 2.5).all() and (t1 == 2.5).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 1000, 4097])
    def test_matches_numpy_quantile(self, n):
        rng = np.random.default_rng(n)
        w = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        w[rng.random(n) < 0.2] = 0.5  # ties
        cases = [w, np.sort(w), np.append(w, np.inf), np.append(w, -np.inf), np.append(w, np.nan)]
        for values in cases:
            for m in (2, 15, 16):
                steps = np.arange(m) / (m - 1)
                delta = 1.0 / (2 * (m - 1))
                with np.errstate(invalid="ignore"):  # inf - inf, in numpy's as in ours
                    want = np.quantile(values, steps), np.quantile(values, delta + (1 - delta) * steps)
                    got = init_tables(values, m)
                assert [g.tobytes() for g in got] == [x.tobytes() for x in want], (values, m)


class TestSelectTables:
    def test_identical_tables_select_zero(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 32))
        t = np.linspace(-1, 1, 16)
        sigma = select_tables(w, np.ones(32), t, t, 16)
        assert (sigma == 0).all()

    def test_exact_fit_wins(self):
        t0 = np.linspace(-1, 1, 8)
        t1 = np.asarray([0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.5])
        w = t1[np.newaxis, :]  # exactly on table 1, not on table 0
        sigma = select_tables(w, np.ones(8), t0, t1, 8)
        assert (sigma == 1).all()

    def test_matches_brute_force_on_random_instance(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = rng.standard_normal((1, 8))
            imp = rng.uniform(0, 2, 8)
            t0 = np.sort(rng.standard_normal(5))
            t1 = np.sort(rng.standard_normal(5))
            sigma = select_tables(w, imp, t0, t1, 4)
            for j in range(2):
                seg = w[0, 4 * j : 4 * j + 4]
                iseg = imp[4 * j : 4 * j + 4]
                errs = []
                for t in (t0, t1):
                    r = np.asarray([t[np.argmin(np.abs(v - t))] for v in seg])
                    errs.append(float((iseg * (seg - r) ** 2).sum()))
                want = 1 if errs[1] < errs[0] else 0
                assert sigma[0, j] == want

    def test_zero_importance_group_falls_back_to_unweighted(self):
        # Both weighted errors vanish on the dead group, but the unweighted
        # comparison still prefers the exact-fit table.
        t0 = np.asarray([0.0, 1.0])
        t1 = np.asarray([0.25, 0.75])
        w = np.asarray([[0.25, 0.75, 0.0, 1.0]])
        imp = np.asarray([0.0, 0.0, 1.0, 1.0])
        sigma = select_tables(w, imp, t0, t1, 2)
        assert sigma[0, 0] == 1  # decided by unweighted errors
        assert sigma[0, 1] == 0

    @pytest.mark.parametrize("sizes", [(64, 64), (64, 65), (200, 200), (200, 60), (16, 300)])
    def test_large_tables_match_brute_force(self, sizes):
        # Stacks past 128 entries have no code tables: each value is
        # searched under its own table.  Table 0 is dense below zero and
        # table 1 above, and each group's values lie on one side, so each
        # table wins some groups.
        rng = np.random.default_rng(sum(sizes))
        w = np.abs(rng.laplace(0, 2, (6, 64))) * np.repeat(rng.choice([-1.0, 1.0], (6, 8)), 8, axis=1)
        imp = rng.uniform(0, 2, 64)
        t0 = np.sort(np.concatenate((rng.uniform(-9, 0, sizes[0] - 4), rng.uniform(0, 9, 4))))
        t1 = np.sort(np.concatenate((rng.uniform(0, 9, sizes[1] - 4), rng.uniform(-9, 0, 4))))
        sigma = select_tables(w, imp, t0, t1, 8)
        errs = [((imp * (w - t[brute_force(t, w.ravel())].reshape(w.shape)) ** 2)
                 .reshape(6, 8, 8).sum(axis=2)) for t in (t0, t1)]
        want = errs[1] < errs[0]
        assert 0 < want.sum() < want.size
        assert sigma.tolist() == want.astype(np.uint8).tolist()

    def test_decreasing_table_is_rejected(self):
        w = np.zeros((1, 8))
        for t0, t1 in (([0.0, 1.0, 0.5], [0.0, 1.0]), ([0.0, 1.0], [1.0, 0.0])):
            with pytest.raises(ValidationError):
                select_tables(w, np.ones(8), t0, t1, 8)

    def test_empty_table_is_rejected(self):
        for t0, t1 in (([], [0.0, 1.0]), ([0.0, 1.0], [])):
            with pytest.raises(ValidationError):
                select_tables(np.zeros((1, 8)), np.ones(8), t0, t1, 8)

    def test_nan_ahead_of_a_number_is_rejected(self):
        for t0, t1 in (([np.nan, 1.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, np.nan, 1.0])):
            with pytest.raises(ValidationError, match="NaN last"):
                select_tables(np.zeros((1, 8)), np.ones(8), t0, t1, 8)

    @pytest.mark.parametrize("imp", [np.ones(7), np.ones((1, 8)), -np.ones(8), np.full(8, np.nan)],
                             ids=["short", "2-D", "negative", "nan"])
    def test_importance_is_checked_as_learn_checks_it(self, imp):
        with pytest.raises(ValidationError):
            select_tables(np.zeros((2, 8)), imp, [0.0, 1.0], [0.0, 1.0], 8)

    def test_one_dimensional_layer_is_rejected(self):
        with pytest.raises(ValidationError):
            select_tables(np.zeros(8), np.ones(8), [0.0, 1.0], [0.0, 1.0], 8)

    def test_zero_selection_group_is_rejected(self):
        with pytest.raises(ValidationError):
            select_tables(np.zeros((1, 8)), np.ones(8), [0.0, 1.0], [0.0, 1.0], 0)

    @pytest.mark.parametrize("shape", [(2, 0), (0, 16)], ids=["zero-width-rows", "no-rows"])
    def test_layer_without_values_selects_nothing(self, shape):
        # Such a layer has no row blocks; zero-width rows raised ZeroDivisionError.
        sigma = select_tables(np.zeros(shape), np.ones(shape[1]), [0.0, 1.0], [0.0, 2.0], 16)
        assert (sigma.dtype, sigma.shape) == (np.uint8, (shape[0], shape[1] // 16))


# Magnitudes from subnormal to near-overflow; 4e35 is what clamped E4M3
# scales leave in normalized weights.
_SCALES = [1.0, 2.0 ** -1060, 1e-300, 1e30, 4e35, 1e300]


@st.composite
def tables_and_values(draw):
    """A sorted table and values aimed at the boundary search's weak spots:
    duplicate entries, entries a few ulps apart (below the window guard),
    values on entries and on midpoints, signed zeros and huge magnitudes."""
    scale = draw(st.sampled_from(_SCALES))
    unit = st.floats(-8, 8, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
    entries = [x * scale for x in draw(st.lists(unit, min_size=1, max_size=16))]
    for x in draw(st.lists(st.sampled_from(entries), max_size=3)):
        ulps = draw(st.integers(0, 4))
        for _ in range(ulps):
            x = float(np.nextafter(x, np.inf))
        entries.append(x)
    table = np.sort(np.asarray(entries, dtype=np.float64))

    mids = 0.5 * table[:-1] + 0.5 * table[1:]
    # Within a few ulps of the largest entry from a midpoint, rounding can
    # tie |v - t| for two entries; the first-minimum rule then decides.
    ulp = np.abs(table).max() * 2.0 ** -53
    near = (mids[:, np.newaxis] + ulp * np.asarray([-4, -2, -1, 1, 2, 4])).ravel()
    special = np.concatenate([
        table, mids, (table[:-1] + table[1:]) / 2, near,
        np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf), [0.0, -0.0],
    ])
    special = special[np.isfinite(special)]
    picks = draw(st.lists(st.sampled_from(special.tolist()), max_size=12))
    free = draw(st.lists(st.floats(-1e307, 1e307), max_size=6))
    scaled = draw(st.lists(unit, max_size=12))
    values = draw(st.permutations(picks + free + [x * scale * 1.5 for x in scaled]))
    return table, np.asarray(values, dtype=np.float64)


def _searched(monkeypatch):
    """Sizes of the value sets handed to the exhaustive search, by every route."""
    sizes = []
    real = quantizers._recon_exact

    def spy(table, values):
        sizes.append(np.asarray(values).size)
        return real(table, values)

    monkeypatch.setattr(quantizers, "_recon_exact", spy)
    return sizes


def brute_force(table, values):
    """The exhaustive argmin, first minimum on ties."""
    return np.abs(values[:, np.newaxis] - table[np.newaxis, :]).argmin(axis=1)


def _bucket_edges(values):
    """The lowest and the highest float64 of each value's code-table bucket."""
    low = np.asarray(values, dtype=np.float64).view(np.uint64) >> np.uint64(44) << np.uint64(44)
    return np.concatenate([low.view(np.float64), (low | np.uint64((1 << 44) - 1)).view(np.float64)])


def _ulps(values, k=1):
    """Each value and its neighbours `k` ulps either way."""
    v = np.asarray(values, dtype=np.float64)
    return (v.view(np.int64)[:, np.newaxis] + np.arange(-k, k + 1)).view(np.float64).ravel()


@st.composite
def block_code_cases(draw):
    """Two 16-entry tables, a grid or learned (random, with duplicates, or
    with a gap one to a few windows above the fallback's), and values aimed
    at their code tables' weak spots, in groups of 4 split between them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def table():
        kind = draw(st.sampled_from(["nvfp4", "int4", "random", "duplicates", "crowded"]))
        if kind in ("nvfp4", "int4"):
            t = quantizers.base_table(NVFP4 if kind == "nvfp4" else INT4)
            return np.concatenate([t, t[-1:]]) if t.size < 16 else t
        t = rng.uniform(-8, 8, 16) * draw(st.sampled_from([1.0, 2.0 ** -60, 1e30]))
        if kind == "duplicates":
            t[rng.integers(0, 16, 4)] = t[rng.integers(0, 16, 4)]
        elif kind == "crowded":  # a gap just above four windows at the table's magnitude
            big = np.abs(t).max()
            t[1] = t[0] + 4 * (big * 2.0 ** -47 + 2.0 ** -1070) * draw(st.sampled_from([1.0001, 1.5, 3.0]))
        return np.sort(t)

    tables = np.stack([table(), table()])
    distinct = [np.unique(t) for t in tables]
    mids = np.concatenate([0.5 * d[:-1] + 0.5 * d[1:] for d in distinct])
    big = np.abs(tables).max(axis=1).max()
    half = big * 2.0 ** -47 + 2.0 ** -1070
    ends = np.concatenate([mids - half, mids + half])
    bf16 = (rng.integers(0x3C00, 0x4200, 32).astype(np.uint32) << 16).view(np.float32).astype(np.float64)
    scales = (rng.integers(0x3C00, 0x4200, 32).astype(np.uint32) << 16).view(np.float32).astype(np.float64)
    special = np.concatenate([_ulps(mids, 2), _ulps(ends), _ulps(_bucket_edges(mids)), bf16 / scales,
                              -bf16 / scales, tables.ravel(), [0.0, -0.0, 2.0 ** -1074, -(2.0 ** -1060)]])
    picks = rng.choice(special, 4 * draw(st.integers(1, 64)))
    member1 = rng.random(picks.size // 4) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    return tables, picks, member1


def lookup(values, tables, member1=None, sel_size=1):
    """Each value's code as a learner's pass looks it up, in compact code
    tables written over the buckets the values occupy: under table 0 of the
    stack `tables`, or under table 1 for the groups of `sel_size` values
    that `member1` marks, whose codes are offset by the table size."""
    values = np.asarray(values, dtype=np.float64)
    flat = np.ascontiguousarray(values).reshape(-1)
    code_tables = quantizers._CodeTables([(0, flat.size)] if flat.size else [], lambda a, b: flat[a:b])
    stack = np.atleast_2d(np.asarray(tables, dtype=np.float64))
    index, stride = code_tables.keys, code_tables.stride
    if member1 is not None:
        index = index | np.repeat(np.asarray(member1, dtype=index.dtype), sel_size) * stride
    assert code_tables.write(stack)
    return code_tables.look_up(stack, flat, index).reshape(values.shape)


class TestCompactLookup:
    """The nearest-entry cells of sorted tables, read for a layer's values
    (`lookup`) from compact code tables built over the buckets the values
    occupy, into one buffer, against `recon_codes`."""

    @given(tables_and_values())
    @settings(max_examples=400, deadline=None)
    def test_codes_match_recon_codes(self, case):
        table, values = case
        assert lookup(values, table).tolist() == recon_codes(table, values).tolist()

    def test_two_dimensional_layout(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((6, 40))
        table = np.sort(rng.standard_normal(15))
        got = lookup(values, table)
        assert got.shape == values.shape
        assert np.array_equal(got, recon_codes(table, values))

    @pytest.mark.parametrize("size", [200, 300])
    def test_stacks_past_128_entries_search_every_value(self, searched, size):
        # Such a stack has no code tables: a learner's pass, here the one
        # Lloyd step of `kmeans_update`, searches each value under its table.
        rng = np.random.default_rng(8)
        values = rng.uniform(-9, 9, (3, 700))
        weights = rng.uniform(0, 1, values.shape)
        table = np.sort(rng.uniform(-8, 8, size))
        codes = recon_codes(table, values).ravel()
        num = np.bincount(codes, weights=(weights * values).ravel(), minlength=size)
        den = np.bincount(codes, weights=weights.ravel(), minlength=size)
        want = np.sort(np.where(den > 0, num / np.where(den > 0, den, 1.0), table))
        searched.clear()
        assert kmeans_update(table, values, weights, 1).tobytes() == want.tobytes()
        assert sum(searched) == values.size

    def test_empty_and_single_value_sets(self):
        table = np.asarray([-1.0, 0.0, 0.0, 2.0])
        assert lookup(np.zeros((1, 0)), table).tolist() == [[]]
        assert lookup(np.asarray([1.0]), table).tolist() == [1]
        assert lookup(np.asarray([-0.0]), table).tolist() == [1]

    @pytest.fixture()
    def searched(self, monkeypatch):
        return _searched(monkeypatch)

    def test_only_window_values_are_searched(self, searched):
        # Every value on a midpoint lies in a bucket one window reaches, and
        # the nearer of that window's two entries settles it: none is
        # searched.  Only the window around 0.0 reaches bucket 0, whose
        # values are searched: here 0.0 itself.
        table = np.asarray([-1.0, 0.0, 0.0, 1.0])  # a duplicate is no small gap
        values = np.asarray([-0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 0.9])
        want = recon_codes(table, values).tolist()
        searched.clear()
        assert lookup(values, table).tolist() == want
        assert searched == []
        symmetric = np.asarray([-1.0, 1.0])
        values = np.asarray([-0.5, 0.0, -0.0, 0.5, 2.0 ** -1074])
        want = recon_codes(symmetric, values).tolist()
        searched.clear()
        assert lookup(values, symmetric).tolist() == want
        assert searched == [3]

    def test_gaps_below_the_guard_search_every_value(self, searched):
        table = np.asarray([1.0, np.nextafter(1.0, 2.0), 3.0])
        values = np.linspace(-4.0, 4.0, 33)
        want = recon_codes(table, values).tolist()
        searched.clear()
        assert lookup(values, table).tolist() == want
        assert searched == [33]

    def test_one_buffer_serves_every_table(self):
        # Each stack is written over the same buckets of one buffer, so what
        # one wrote never shows through another: here a table on the
        # fallback after one that was not, and one whose fallback cut lies
        # inside the values' range after one whose cut lies past it.
        rng = np.random.default_rng(9)
        values = np.concatenate([rng.laplace(0, 2, 500), [0.0, -0.0, 1e-300, 3e12, -4e13]])
        code_tables = quantizers._CodeTables([(0, values.size)], lambda a, b: values[a:b])
        tables = [np.linspace(-6, 6, 16), np.asarray([1.0, np.nextafter(1.0, 2.0), 3.0]),
                  np.asarray([-1e-3, 0.0, 1e-3]), np.asarray([-2.0, 1.0, 1.0 + 2.0 ** -40]),
                  np.linspace(-6, 6, 16)]
        for table in tables:
            assert code_tables.write(table[np.newaxis])
            got = code_tables.look_up(table[np.newaxis], values, code_tables.keys)
            assert got.tolist() == recon_codes(table, values).tolist()

    def test_decreasing_table_is_rejected(self):
        with pytest.raises(ValidationError):
            quantizers.code_table(np.asarray([0.0, 1.0, 0.5]))

    @given(block_code_cases())
    @settings(max_examples=200, deadline=None)
    def test_block_codes_match_brute_force(self, case):
        # Values at midpoints, window ends and bucket edges, one ulp off
        # each, BF16 ratios, signed zeros and subnormals, under the grids and
        # learned tables with duplicates and gaps just above the fallback's
        # cut, two tables to a stack, each group of 4 under its own.
        tables, values, member1 = case
        got = lookup(values, tables, member1, 4)
        m = tables.shape[1]
        want = np.where(np.repeat(member1, 4), brute_force(tables[1], values) + m,
                        brute_force(tables[0], values))
        assert got.tolist() == want.tolist()


@st.composite
def moved_table(draw, table):
    """`table` after one move of each entry: kept, nudged a few ulps (into or
    out of the small-gap fallback), shifted, doubled (across 2**1000 for
    tables of scale 1e300), set to a neighbour (a duplicate appears, or
    moves from one distinct entry to another; a nudge or shift of a
    duplicate makes it disappear) or set to a signed zero."""
    out = table.copy()
    big = float(np.abs(table).max()) or 1.0
    for j in range(out.size):
        kind = draw(st.sampled_from(["keep", "ulps", "shift", "double", "dup", "next", "zero"]))
        if kind == "ulps":
            for _ in range(draw(st.integers(1, 4))):
                out[j] = np.nextafter(out[j], draw(st.sampled_from([-np.inf, np.inf])))
        elif kind == "shift":
            out[j] += draw(st.floats(-0.25, 0.25)) * big
        elif kind == "double":
            out[j] *= 2.0
        elif kind == "dup" and j:
            out[j] = out[j - 1]
        elif kind == "next" and j + 1 < out.size:
            out[j] = table[j + 1]
        elif kind == "zero":
            out[j] = draw(st.sampled_from([0.0, -0.0]))
    out = out[np.isfinite(out)]
    return np.sort(out) if out.size == table.size else table


class TestMovedTables:
    """Each group's codes under its own table, table 1's offset by the table
    size, looked up afresh after every move of the tables."""

    @staticmethod
    def want(tables, values, mask):
        """Each value's code under its own table, in the layout, table 1's offset."""
        m = tables.shape[1]
        return np.where(mask, recon_codes(tables[1], values) + m, recon_codes(tables[0], values))

    @given(tables_and_values(), tables_and_values(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_moved_codes_match_recon_codes_per_table(self, case0, case1, data):
        # After any sequence of moves the codes equal a fresh search of each
        # table's members.
        (t0, values), (t1, _) = case0, case1
        m = max(t0.size, t1.size)
        t0 = np.concatenate([t0, np.full(m - t0.size, t0[-1])])
        t1 = np.concatenate([t1, np.full(m - t1.size, t1[-1])])
        tables = np.stack([t0, t1])
        # Either table may have no members.
        split = data.draw(st.sampled_from(["none", "all", "some"]))
        if split == "some":
            picks = data.draw(st.lists(st.booleans(), min_size=values.size, max_size=values.size))
        else:
            picks = [split == "all"] * values.size
        mask = np.asarray(picks, dtype=bool)
        assert lookup(values, tables, mask).tolist() == self.want(tables, values, mask).tolist()
        for _ in range(data.draw(st.integers(1, 4))):
            tables = np.stack([data.draw(moved_table(t)) for t in tables])
            assert lookup(values, tables, mask).tolist() == self.want(tables, values, mask).tolist()

    @pytest.fixture()
    def searched(self, monkeypatch):
        return _searched(monkeypatch)

    def test_a_move_searches_only_window_values(self, searched):
        values = np.linspace(-2.0, 2.0, 401)  # steps of 0.01
        mask = np.zeros(values.size, dtype=bool)
        mask[1::2] = True
        # Table 0's midpoints lie at -0.44 and 0.56, table 1's at -0.5 and
        # 0.5, and values lie on each.  Each lies in a bucket that one
        # window reaches, and the nearer of its two entries settles it: no
        # value is searched.
        tables = np.asarray([[-1.0, 0.12, 1.0], [-1.0, 0.0, 1.0]])
        want = self.want(tables, values, mask).tolist()
        searched.clear()
        assert lookup(values, tables, mask).tolist() == want
        assert searched == []

    def test_changed_entry_structure_takes_a_full_pass(self, searched):
        values = np.linspace(-2.0, 2.0, 41)
        mask = np.zeros(values.size, dtype=bool)
        tables = np.asarray([[-1.0, -1.0, 1.0], [-1.0, 0.0, 1.0]])  # a duplicate appears
        assert lookup(values, tables, mask).tolist() == self.want(tables, values, mask).tolist()
        # Still two distinct entries, but the cell of 1.0 is now labelled 1.
        tables = np.asarray([[-1.0, 1.0, 1.0], [-1.0, 0.0, 1.0]])
        want = self.want(tables, values, mask).tolist()
        searched.clear()
        assert lookup(values, tables, mask).tolist() == want
        # The window around 0.0 reaches bucket 0, whose one value is searched.
        assert searched == [1]

    def test_learn_inner_steps_search_a_small_share(self, searched, monkeypatch):
        written = []
        write = quantizers._CodeTables.write

        def counted(code_tables, tables):
            written.append(tables.shape)
            return write(code_tables, tables)

        monkeypatch.setattr(quantizers._CodeTables, "write", counted)
        bundle = make_bundle(1, rows=64, cols=512)
        learn(bundle, AaacConfig.for_format(NVFP4, n_outer=2, n_inner=4))
        # Every pass looks every value up afresh, from code tables built
        # once per stack of tables: the first assignment step's, each Lloyd
        # step's (the next assignment step reads the last one's) and the
        # one after the BF16 rounding.  Only values in buckets two windows
        # reach, none here, are searched.
        assert written == [(2, 15)] * (1 + 2 * 4 + 1)
        assert sum(searched) < bundle.weights.size // 1000


class TestSearchShare:
    """Values the exhaustive search takes, against the rule before midpoint
    bytes: every value of a bucket a window reaches."""

    @pytest.fixture()
    def searched(self, monkeypatch):
        return _searched(monkeypatch)

    @pytest.mark.parametrize(
        "kind, rows, cols, fmt, group",
        [("laplace", 512, 1024, NVFP4, 16), ("mixture", 512, 4096, NVFP4, 16),
         ("mixture", 64, 512, INT4, 128)],
        ids=["laplace-512x1024-nvfp4", "mixture-512x4096-nvfp4", "mixture-64x512-int4"],
    )
    def test_searched_values_fall_tenfold(self, searched, kind, rows, cols, fmt, group):
        bundle = synth_layer(SynthSpec(kind, rows, cols, 16, seed=0))
        w = normalize(bundle.weights, compute_scales(bundle.weights, fmt, group), group)
        buckets = w.view(np.uint64).reshape(-1) >> np.uint64(44)
        for table in (quantizers.base_table(fmt), *init_tables(w, fmt.table_size)):
            windowed = np.count_nonzero(quantizers.code_table(table)[buckets] < 128)
            searched.clear()
            got = lookup(w, table)
            # Windows reach the buckets of 0.4-1.0% of the values here, and
            # each such bucket but bucket 0 only one: none is searched.
            assert 10 * sum(searched) <= windowed and windowed > 0.002 * w.size
            assert np.array_equal(got, quantizers._recon_exact(table, w))


class TestInnerPass:
    """The inner steps' block-wise sums against numpy's whole-array sums, bit for bit."""

    @pytest.mark.parametrize(
        "n", [0, 1, 7, 8, 127, 128, 129, 2**16 - 1, 2**16 + 1, 1_234_567, 2**22 + 13]
    )
    def test_folded_leaf_sums_equal_the_whole_sum(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        leaves = codebooks._leaves(0, n)
        assert [a for a, _ in leaves] == [0] + [b for _, b in leaves[:-1]]
        assert leaves[-1][1] == n and all(b - a <= grids.BLOCK for a, b in leaves)
        got = codebooks._fold(n, iter([x[a:b].sum() for a, b in leaves]))
        assert float(got).hex() == float(x.sum()).hex()

    def test_blockwise_add_at_equals_bincount(self):
        # `_Pass` takes both Lloyd sums as the parts of one complex add.at.
        rng = np.random.default_rng(3)
        leaf = grids.BLOCK
        codes = rng.integers(0, 32, 3 * leaf + 5).astype(np.uint8)
        w = rng.standard_normal(codes.size) * 10.0 ** rng.uniform(-8, 8, codes.size)
        i = rng.uniform(0.0, 2.0, codes.size) * 10.0 ** rng.uniform(-8, 8, codes.size)
        z = np.empty(codes.size, dtype=np.complex128)
        z.real, z.imag = w, i
        cells = np.concatenate((np.arange(32), codes))
        for start in (np.zeros(32), rng.standard_normal(32) * 10.0 ** rng.uniform(-8, 8, 32)):
            # A running start adds first, as a leading value of each cell.
            want = [
                np.bincount(cells, weights=np.concatenate((start, x)), minlength=32)
                for x in (w, i)
            ]
            for dtype in (np.uint8, np.intp):
                got, both = start.copy(), np.empty(32, dtype=np.complex128)
                both.real = both.imag = start
                for a in range(0, codes.size, leaf):
                    c = codes[a : a + leaf].astype(dtype)
                    np.add.at(got, c, w[a : a + leaf])
                    np.add.at(both, c, z[a : a + leaf])
                assert got.tobytes() == want[0].tobytes(), dtype
                assert both.real.tobytes() == want[0].tobytes(), dtype
                assert both.imag.tobytes() == want[1].tobytes(), dtype

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_layout_order_sums_equal_member_order_sums(self, data):
        # Every sum belongs to one table, and each table's members come in
        # row-major order in the layout too, so `np.add.at` over the layout,
        # a block at a time, adds each sum's terms in member order.  Blocks
        # need not align to the groups.
        s = data.draw(st.sampled_from([1, 8, 16]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        groups = data.draw(st.integers(1, 256 // s))
        part = rng.random(groups) < data.draw(st.sampled_from([0.0, 0.3, 1.0]))
        n, m = groups * s, 4
        codes = rng.integers(0, m, n) + m * np.repeat(part, s)
        z = np.empty(n, dtype=np.complex128)
        z.imag = rng.uniform(0.0, 2.0, n) * 10.0 ** rng.uniform(-8, 8, n)
        z.real = z.imag * rng.standard_normal(n) * 10.0 ** rng.uniform(-8, 8, n)
        block = data.draw(st.integers(1, n))
        got = np.zeros(2 * m, dtype=np.complex128)
        for a in range(0, n, block):
            np.add.at(got, codes[a : a + block], z[a : a + block])
        order = np.concatenate((np.flatnonzero(~part), np.flatnonzero(part)))
        member = (order[:, np.newaxis] * s + np.arange(s)).ravel()
        want = np.zeros(2 * m, dtype=np.complex128)
        np.add.at(want, codes[member], z[member])
        assert got.tobytes() == want.tobytes()

    @staticmethod
    def member_order_steps(member1, tables, values, imp, n_inner, s):
        """The inner steps over the members in member order, table 0's groups
        then table 1's: two `np.bincount`s over every member and one error
        array per step, from codes `recon_codes` gives."""
        part = member1.ravel()
        groups = np.concatenate((np.flatnonzero(~part), np.flatnonzero(part)))
        split = (part.size - int(part.sum())) * s
        values = values.reshape(-1, s)[groups].ravel()
        importances = imp.reshape(-1, s)[groups % (imp.size // s)].ravel()
        wv = importances * values
        m = tables.shape[1]
        for _ in range(n_inner):
            codes = np.concatenate((recon_codes(tables[0], values[:split]),
                                    recon_codes(tables[1], values[split:]) + m))
            num = np.bincount(codes, weights=wv, minlength=tables.size)
            den = np.bincount(codes, weights=importances, minlength=tables.size)
            step = np.where(den > 0, num / np.where(den > 0, den, 1.0), tables.ravel())
            tables = np.sort(step.reshape(tables.shape), axis=1)
            codes = np.concatenate((recon_codes(tables[0], values[:split]),
                                    recon_codes(tables[1], values[split:]) + m))
            d = values - tables.ravel()[codes]
            e = importances * d
            e *= d
            yield tables, float(e[:split].sum()) + float(e[split:].sum())

    @pytest.mark.parametrize(
        "rows, share",
        [(72, 0.5), (72, 0.0), (4, 0.5)],
        ids=["multi-leaf", "empty-table-1", "one-block"],
    )
    def test_fused_steps_match_whole_array_sums(self, rows, share):
        # The pass streams each table's member errors into leaf buffers
        # block by block; the sums and errors equal whole-array ones.
        cols, sel = 4096, 16
        rng = np.random.default_rng(4)
        w = rng.standard_normal((rows, cols)) * rng.choice([1.0, 5.0], (rows, cols))
        imp = rng.uniform(0.0, 2.0, cols)
        imp[:sel] = 0.0  # one column group carries no importance
        member1 = rng.random((rows, cols // sel)) < share
        tables = np.stack(init_tables(w, 16))
        run = codebooks._Pass(w, imp, sel)
        part = member1.astype(np.uint8).ravel()
        run.split(part)
        assert len(run.blocks) == (1 if rows == 4 else 5)
        if rows == 72:  # every non-empty table's members span several leaves
            in_table1 = int(member1.sum()) * sel
            assert min(n for n in (w.size - in_table1, in_table1) if n) > 2**17
        _, sums = run(part, tables, error=False)
        got = codebooks._lloyd_steps(run, part, tables, sums, 4)
        want = self.member_order_steps(member1, tables, w, imp, 4, sel)
        for (t_got, e_got), (t_want, e_want) in zip(got, want, strict=True):
            assert t_got.tobytes() == t_want.tobytes()
            assert e_got.hex() == e_want.hex()


class TestPartialTrace:
    """`learn(..., full_trace=False)` skips the inner errors and changes nothing else."""

    @pytest.fixture
    def passes(self, monkeypatch):
        """Each `_Pass` call as (error, sums, members per table)."""
        seen, call = [], codebooks._Pass.__call__

        def spy(run, part, tables, error=True, sums=True):
            in_table1 = int(np.sum(part)) * run.sel
            seen.append((error, sums, (math.prod(run.shape) - in_table1, in_table1)))
            return call(run, part, tables, error, sums)

        monkeypatch.setattr(codebooks._Pass, "__call__", spy)
        return seen

    @pytest.mark.parametrize(
        "rows, cols, cfg",
        [
            (96, 4096, AaacConfig.for_format(NVFP4, sel_size=8)),
            (16, 256, AaacConfig.for_format(INT4, group_size=128, sel_size=16)),
            (16, 256, AaacConfig.for_format(NVFP4, sel_size=8, n_inner=1)),
            (16, 256, AaacConfig.for_format(INT4, group_size=128, sel_size=16, n_outer=1)),
        ],
        ids=["multi-block-nvfp4-S8", "one-block-int4-g128-S16", "n_inner-1", "n_outer-1"],
    )
    def test_only_the_skipped_steps_differ(self, rows, cols, cfg, passes):
        bundle = make_bundle(7, rows=rows, cols=cols)
        full = learn(bundle, cfg)
        if rows == 96:  # every table's members span several blocks
            assert min(n for _, _, parts in passes for n in parts) > 2**17
        part = learn(bundle, cfg, full_trace=False)
        for f in dataclasses.fields(LearnResult):
            a, b = getattr(full, f.name), getattr(part, f.name)
            if f.name != "trace":
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name
        assert part.trace.shape == full.trace.shape == (cfg.n_outer * (cfg.n_inner + 1),)
        kept = np.zeros(full.trace.size, dtype=bool)
        kept[:: cfg.n_inner + 1] = kept[-1] = True  # the assignment steps and the last step
        assert part.trace[kept].tobytes() == full.trace[kept].tobytes()
        assert np.isnan(part.trace[~kept]).all() and not np.isnan(full.trace).any()

    def test_pass_counts(self, passes):
        bundle, cfg = make_bundle(1, rows=16, cols=256), AaacConfig.for_format(NVFP4)
        learn(bundle, cfg)
        full = len(passes)
        learn(bundle, cfg, full_trace=False)
        # A round's first Lloyd sums come with its assignment step.
        assert (full, len(passes) - full) == (30, 28)
        # Each round's last step takes a pass only for its error.
        assert all(error or sums for error, sums, _ in passes)
        del passes[:]
        kmeans_update([0.0, 1.0], np.arange(64.0) / 63, np.ones(64), 5)
        assert [(error, sums) for error, sums, _ in passes] == [(False, True)] * 5

class TestWorkingSet:
    @pytest.mark.parametrize(
        "cfg",
        [AaacConfig.for_format(NVFP4), AaacConfig.for_format(INT4, group_size=128, sel_size=16)],
        ids=["nvfp4", "int4-g128-S16"],
    )
    def test_learn_peak_is_at_most_4_5_times_the_layer(self, cfg):
        bundle = make_bundle(0, rows=256, cols=2048, tokens=64)
        imp = importance(bundle.activations)
        learn(make_bundle(1), cfg)  # first-call imports are not the layer's working set
        tracemalloc.start()
        try:
            learn(bundle, cfg, col_importance=imp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 10 bytes per weight and 3.1 MiB of block and leaf buffers,
        # which here are 1.6 layers' worth: see the module docstring.
        assert peak <= 4.5 * bundle.weights.nbytes

    def test_select_tables_holds_no_sorted_copy(self):
        # A sorted copy and its positions took 12 bytes a weight.  What is
        # left is the compact buckets (2 bytes a weight), the per-group
        # selection and errors (9 bytes a group of 16) and the block buffers.
        w = np.random.default_rng(3).laplace(0.0, 1.0, (512, 4096))
        t0, t1 = init_tables(w[:8], 16)
        select_tables(w[:1], np.ones(4096), t0, t1, 16)  # first-call allocations
        tracemalloc.start()
        try:
            select_tables(w, np.ones(4096), t0, t1, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= w.size * 4.5 + 4 * 2**20 < w.size * 12


class TestCallCount:
    def test_small_learn_makes_at_most_3000_python_calls(self):
        # On small layers the learner's cost is mostly its Python-level
        # calls, each a few microseconds whatever the layer's size.
        bundle = make_bundle(0, rows=64, cols=512, tokens=64)
        cfg = AaacConfig.for_format(INT4, group_size=128, sel_size=16)
        learn(bundle, cfg, full_trace=False)  # first-call imports are not the learner's
        profile = cProfile.Profile()
        profile.runcall(learn, bundle, cfg, full_trace=False)
        assert pstats.Stats(profile).total_calls <= 3000


class TestKmeansUpdate:
    def test_singleton_cells(self):
        t = kmeans_update([0.4, 0.6], [0.0, 1.0], [1.0, 1.0], 1)
        assert t.tolist() == [0.0, 1.0]

    def test_empty_cell_keeps_previous_value(self):
        # All members at 0.5 tie between the entries and go to index 0.
        t = kmeans_update([0.0, 1.0], [0.5, 0.5, 0.5], [1.0, 2.0, 1.0], 1)
        assert t.tolist() == [0.5, 1.0]

    def test_weighted_centroid(self):
        t = kmeans_update([0.5, 100.0], [0.0, 1.0], [1.0, 3.0], 1)
        assert t[0] == 0.75

    def test_zero_weight_cell_keeps_previous_value(self):
        t = kmeans_update([0.0, 1.0], [0.1, 0.9], [0.0, 1.0], 1)
        assert t.tolist() == [0.0, 0.9]

    def test_empty_table_is_rejected(self):
        with pytest.raises(ValidationError):
            kmeans_update([], [0.5, 1.5], [1.0, 1.0], 1)

    def test_2d_table_is_rejected(self):
        with pytest.raises(ValidationError, match="1-D"):
            kmeans_update([[0.0, 1.0], [2.0, 3.0]], [0.5, 1.5], [1.0, 1.0], 1)

    def test_0d_table_is_rejected(self):
        # Checked before the sort, which has no axis to sort a 0-d table along.
        with pytest.raises(ValidationError, match="1-D"):
            kmeans_update(np.float64(1.0), [0.5], [1.0], 1)

    def test_result_sorted(self):
        rng = np.random.default_rng(5)
        t = kmeans_update(
            np.sort(rng.standard_normal(8)),
            rng.standard_normal(200),
            rng.uniform(0, 1, 200),
            5,
        )
        assert (np.diff(t) >= 0).all()

    @given(tables_and_values(), st.integers(1, 5), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_a_plain_lloyd_loop(self, case, n_inner, rnd):
        table, values = case
        assume(np.isfinite(np.abs(values).sum()))
        weights = np.asarray([rnd.choice([0.0, 0.5, rnd.random()]) for _ in values])
        t = table
        for _ in range(n_inner):
            codes = recon_codes(t, values)
            num = np.bincount(codes, weights=weights * values, minlength=t.size)
            den = np.bincount(codes, weights=weights, minlength=t.size)
            t = np.sort(np.where(den > 0, num / np.where(den > 0, den, 1.0), t))
        assert kmeans_update(table, values, weights, n_inner).tolist() == t.tolist()

    @pytest.mark.parametrize("size", [64, 128, 129, 200, 255, 300])
    def test_large_tables_match_a_plain_lloyd_loop(self, size):
        # Up to 128 entries a code table holds the codes, and past that
        # every value is searched.
        rng = np.random.default_rng(size)
        table = np.sort(rng.uniform(-8, 8, size))
        table[5:9] = table[5]  # duplicates
        values = np.concatenate([rng.uniform(-9, 9, 3000), 0.5 * table[:-1] + 0.5 * table[1:]])
        weights = rng.uniform(0, 1, values.size)
        t = table
        for _ in range(3):
            codes = recon_codes(t, values)
            num = np.bincount(codes, weights=weights * values, minlength=t.size)
            den = np.bincount(codes, weights=weights, minlength=t.size)
            t = np.sort(np.where(den > 0, num / np.where(den > 0, den, 1.0), t))
        assert kmeans_update(table, values, weights, 3).tobytes() == t.tobytes()

    def test_objective_non_increasing_per_iteration(self):
        rng = np.random.default_rng(6)
        values = rng.standard_normal(500)
        weights = rng.uniform(0, 2, 500)
        table = np.sort(rng.standard_normal(8))

        def obj(t):
            r = np.asarray(t)[recon_codes(t, values)]
            return float((weights * (values - r) ** 2).sum())

        prev = obj(table)
        for _ in range(10):
            table = kmeans_update(table, values, weights, 1)
            cur = obj(table)
            assert cur <= prev + 1e-12 * max(prev, 1)
            prev = cur


def make_bundle(seed=0, kind="mixture", rows=8, cols=128, tokens=16):
    return synth_layer(SynthSpec(kind, rows, cols, tokens, seed=seed), name=f"l{seed}")


class TestConfig:
    def test_defaults(self):
        cfg = AaacConfig.for_format(NVFP4)
        assert (cfg.group_size, cfg.sel_size) == (16, 16)
        assert (cfg.n_outer, cfg.n_inner) == (3, 10)
        cfg = AaacConfig.for_format(INT4)
        assert (cfg.group_size, cfg.sel_size) == (128, 128)

    def test_selection_coarser_than_scale_rejected(self):
        with pytest.raises(UnsupportedConfigError):
            AaacConfig(fmt=INT4, group_size=128, sel_size=256)

    def test_selection_must_divide_scale_group(self):
        with pytest.raises(ValidationError):
            AaacConfig(fmt=INT4, group_size=128, sel_size=48)

    def test_iteration_counts(self):
        with pytest.raises(ValidationError):
            AaacConfig(fmt=NVFP4, group_size=16, sel_size=16, n_outer=0)

    @pytest.mark.parametrize("group_size, sel_size", [(0, 0), (0, 16), (-16, -16), (16, -4), (16, 0)])
    def test_non_positive_group_sizes_rejected(self, group_size, sel_size):
        with pytest.raises(ValidationError):
            AaacConfig(fmt=NVFP4, group_size=group_size, sel_size=sel_size)

    def test_scale_mode_validated_early(self):
        with pytest.raises(ValidationError):
            AaacConfig(fmt=NVFP4, group_size=16, sel_size=16, scale_mode="fp16")

    def test_layout_check(self):
        cfg = AaacConfig.for_format(INT4)
        with pytest.raises(LayoutError):
            learn(make_bundle(cols=96), cfg)


class TestLearn:
    def test_trace_non_increasing(self):
        cfg = AaacConfig.for_format(NVFP4)
        for seed in range(5):
            res = learn(make_bundle(seed), cfg)
            assert res.trace.size == cfg.n_outer * (1 + cfg.n_inner)
            tol = 1e-7 * res.trace[0]
            assert (np.diff(res.trace) <= tol).all()

    def test_trace_can_rise_by_rounding(self):
        # One 16-value group tiled over a 4x64 layer: the quantile tables fit
        # it exactly, so the objective starts at 0, but the Lloyd centroid of
        # equal values (a float64 sum divided by the count) rounds off them.
        group = np.random.default_rng(0).standard_normal(16).astype(np.float32)
        bundle = LayerBundle("tiled", np.tile(group, (4, 4)))
        res = learn(bundle, AaacConfig.for_format(INT4, group_size=16, sel_size=16))
        assert res.trace[0] == 0.0
        assert res.trace.max() == pytest.approx(2.37e-29, rel=1e-3)

    def test_dominates_initial_quantile_table(self):
        cfg = AaacConfig.for_format(NVFP4)
        for seed in range(5):
            bundle = make_bundle(seed)
            res = learn(bundle, cfg)
            w_norm = normalize(bundle.weights, res.scales, cfg.group_size)
            imp = importance(bundle.activations)
            t0_init, _ = init_tables(w_norm, NVFP4.table_size)
            r = t0_init[recon_codes(t0_init, w_norm)]
            static_err = float(((w_norm - r) ** 2 * imp).sum())
            assert res.trace[-1] <= static_err

    def test_selection_consistency_and_codes(self):
        cfg = AaacConfig.for_format(INT4, sel_size=16)
        bundle = make_bundle(3)
        res = learn(bundle, cfg)
        w_norm = normalize(bundle.weights, res.scales, cfg.group_size)
        imp = importance(bundle.activations)
        again = select_tables(w_norm, imp, res.table0, res.table1, cfg.sel_size)
        assert np.array_equal(again, res.selection)
        member1 = np.repeat(res.selection, cfg.sel_size, axis=1).astype(bool)
        want = np.where(
            member1, recon_codes(res.table1, w_norm), recon_codes(res.table0, w_norm)
        )
        assert np.array_equal(res.codes, want.astype(np.uint8))

    def test_determinism(self):
        cfg = AaacConfig.for_format(INT4, sel_size=16)
        a = learn(make_bundle(4), cfg)
        b = learn(make_bundle(4), cfg)
        assert np.array_equal(a.table0, b.table0)
        assert np.array_equal(a.table1, b.table1)
        assert np.array_equal(a.selection, b.selection)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.scales, b.scales)
        assert np.array_equal(a.trace, b.trace)

    def test_zero_importance_falls_back_to_unweighted(self):
        bundle = make_bundle(5)
        cfg = AaacConfig.for_format(NVFP4)
        dead = LayerBundle(bundle.name, bundle.weights, np.zeros_like(bundle.activations))
        unit = LayerBundle(bundle.name, bundle.weights, None)
        a = learn(dead, cfg)
        b = learn(unit, cfg)
        assert np.array_equal(a.table0, b.table0)
        assert np.array_equal(a.codes, b.codes)
        assert np.array_equal(a.trace, b.trace)

    def test_column_major_weights_learn_the_same(self):
        # The learner reads the normalized layer in row-major order: its
        # blocks, its in-place sort and its groups.
        bundle = make_bundle(12, rows=16, cols=128)
        fortran = LayerBundle(bundle.name, np.asfortranarray(bundle.weights), bundle.activations)
        a, b = (learn(x, AaacConfig.for_format(NVFP4)) for x in (bundle, fortran))
        for f in dataclasses.fields(LearnResult):
            assert getattr(a, f.name).tobytes() == getattr(b, f.name).tobytes(), f.name

    def test_no_activations_uses_unit_importance(self):
        bundle = make_bundle(6)
        cfg = AaacConfig.for_format(NVFP4)
        res = learn(LayerBundle(bundle.name, bundle.weights, None), cfg)
        ones = learn(bundle, cfg, col_importance=np.ones(bundle.cols))
        assert np.array_equal(res.codes, ones.codes)

    def test_sixteen_distinct_values_reach_zero_error(self):
        # Every group holds all 16 distinct values with absmax 8, so the
        # per-group scale is exactly 1 and k-means can place every entry.
        rng = np.random.default_rng(7)
        values = np.asarray(
            [-8.0, -6.5, -5.0, -4.0, -3.5, -2.0, -1.5, -0.5,
             0.5, 1.0, 2.5, 3.0, 4.5, 5.0, 6.0, 8.0],
            dtype=np.float32,
        )
        rows, cols = 4, 128
        w = np.empty((rows, cols), dtype=np.float32)
        for n in range(rows):
            block = np.tile(values, cols // 16)
            rng.shuffle(block)
            w[n] = block
        x = rng.standard_normal((8, cols)).astype(np.float32)
        bundle = LayerBundle("grid", w, x)
        cfg = AaacConfig.for_format(INT4)
        res = learn(bundle, cfg)
        assert (res.scales == 1.0).all()
        w_hat = dequantize(
            res.codes, res.scales, res.table0, res.table1,
            res.selection, cfg.group_size, cfg.sel_size,
        )
        assert weighted_error(w, w_hat, importance(x)) == 0.0
        assert np.array_equal(w_hat, w)

    def test_importance_scaling_invariance(self):
        bundle = make_bundle(8)
        cfg = AaacConfig.for_format(INT4, sel_size=16)
        imp = importance(bundle.activations)
        base = learn(bundle, cfg, col_importance=imp)
        for c in (2.0**-6, 0.125, 3.7, 1e4):
            scaled = learn(bundle, cfg, col_importance=imp * c)
            assert np.array_equal(scaled.table0, base.table0)
            assert np.array_equal(scaled.table1, base.table1)
            assert np.array_equal(scaled.selection, base.selection)
            assert np.array_equal(scaled.codes, base.codes)

    def test_beats_rtn_on_mixture_layers(self):
        cfg = AaacConfig.for_format(NVFP4)
        for seed in range(6):
            bundle = make_bundle(seed, kind="mixture")
            imp = importance(bundle.activations)
            res = learn(bundle, cfg)
            w_hat = dequantize(
                res.codes, res.scales, res.table0, res.table1,
                res.selection, cfg.group_size, cfg.sel_size,
            )
            codes, scales = rtn_quantize(bundle.weights, NVFP4, cfg.group_size)
            w_rtn = dequantize_rtn(codes, scales, NVFP4, cfg.group_size)
            assert weighted_error(bundle.weights, w_hat, imp) < weighted_error(
                bundle.weights, w_rtn, imp
            )

    def test_tables_are_bf16_and_sorted(self):
        res = learn(make_bundle(9), AaacConfig.for_format(NVFP4))
        from aaacq.grids import round_bf16

        for t in (res.table0, res.table1):
            assert np.array_equal(round_bf16(t.astype(np.float64)), t)
            assert (np.diff(t) >= 0).all()

    def test_e4m3_scale_mode(self):
        from test_grids import e4m3_nonneg_grid

        bundle = make_bundle(11)
        cfg = AaacConfig.for_format(NVFP4, scale_mode="emulate-e4m3")
        res = learn(bundle, cfg)
        grid = e4m3_nonneg_grid()
        assert np.isin(res.scales.astype(np.float64), grid).all()
        assert (res.scales > 0).all()
        tol = 1e-7 * res.trace[0]
        assert (np.diff(res.trace) <= tol).all()

    def test_importance_validation(self):
        bundle = make_bundle(10)
        cfg = AaacConfig.for_format(NVFP4)
        with pytest.raises(ValidationError):
            learn(bundle, cfg, col_importance=np.ones(3))
        with pytest.raises(ValidationError):
            learn(bundle, cfg, col_importance=-np.ones(bundle.cols))
