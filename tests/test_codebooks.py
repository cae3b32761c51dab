"""Importance, quantile init, table selection, weighted k-means, and learn."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aaacq import codebooks
from aaacq.codebooks import (
    AaacConfig,
    LearnResult,
    _Members,
    _SortedCells,
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
from aaacq.grids import INT4, NVFP4
from aaacq.quantizers import dequantize, dequantize_rtn, expand_groups, normalize, recon_codes, rtn_quantize
from aaacq.tensors import LayerBundle, SynthSpec, synth_layer


class TestImportance:
    def test_small_example(self):
        x = np.asarray([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        assert importance(x).tolist() == [10.0, 20.0]

    def test_all_zero(self):
        assert (importance(np.zeros((3, 4), np.float32)) == 0).all()

    def test_row_permutation_invariant(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 8)).astype(np.float32)
        perm = rng.permutation(16)
        assert np.array_equal(importance(x), importance(x[perm]))


class TestWeightedError:
    def test_zero_when_equal(self):
        w = np.ones((3, 4), np.float32)
        assert weighted_error(w, w, np.ones(4)) == 0.0

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


class TestSortedCells:
    @given(tables_and_values())
    @settings(max_examples=400, deadline=None)
    def test_codes_match_recon_codes(self, case):
        table, values = case
        got = _SortedCells.of(values).codes(table)
        assert got.dtype == np.intp
        assert got.tolist() == recon_codes(table, values).tolist()

    def test_two_dimensional_layout(self):
        rng = np.random.default_rng(7)
        values = rng.standard_normal((6, 40))
        table = np.sort(rng.standard_normal(15))
        got = _SortedCells.of(values).codes(table)
        assert got.shape == values.shape
        assert np.array_equal(got, recon_codes(table, values))

    def test_empty_and_single_value_sets(self):
        table = np.asarray([-1.0, 0.0, 0.0, 2.0])
        assert _SortedCells.of(np.zeros(0)).codes(table).tolist() == []
        assert _SortedCells.of(np.asarray([1.0])).codes(table).tolist() == [1]
        assert _SortedCells.of(np.asarray([-0.0])).codes(table).tolist() == [1]

    @pytest.fixture()
    def searched(self, monkeypatch):
        """Sizes of the value sets the code pass hands to recon_codes."""
        sizes = []

        def spy(table, values):
            sizes.append(np.asarray(values).size)
            return recon_codes(table, values)

        monkeypatch.setattr(codebooks, "recon_codes", spy)
        return sizes

    def test_only_window_values_are_searched(self, searched):
        table = np.asarray([-1.0, 0.0, 0.0, 1.0])  # a duplicate is no small gap
        values = np.asarray([-0.75, -0.5, -0.25, 0.25, 0.5, 0.75, 0.9])
        got = _SortedCells.of(values).codes(table)
        assert got.tolist() == recon_codes(table, values).tolist()
        assert searched == [2]  # the two values on midpoints

    def test_gaps_below_the_guard_search_every_value(self, searched):
        table = np.asarray([1.0, np.nextafter(1.0, 2.0), 3.0])
        values = np.linspace(-4.0, 4.0, 33)
        got = _SortedCells.of(values).codes(table)
        assert got.tolist() == recon_codes(table, values).tolist()
        assert searched == [33]

    def test_decreasing_table_is_rejected(self):
        with pytest.raises(ValidationError):
            _SortedCells.of(np.zeros(3)).codes(np.asarray([0.0, 1.0, 0.5]))


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


class TestMembers:
    @staticmethod
    def want(tables, values, mask):
        m = tables.shape[1]
        return np.concatenate(
            [recon_codes(tables[0], values[~mask]), recon_codes(tables[1], values[mask]) + m]
        )

    @given(tables_and_values(), tables_and_values(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_moved_codes_match_recon_codes_per_table(self, case0, case1, data):
        # Members of table 1 come after those of table 0; their codes are
        # offset by the table size.  After any sequence of moves the kept
        # codes equal a fresh search of each table's members.
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
        cells = _SortedCells.of(values)
        members = _Members(cells, mask, tables, [cells.codes(t) for t in tables])
        assert members.split == int((~mask).sum())
        assert members.gather(values).tolist() == values[~mask].tolist() + values[mask].tolist()
        assert members.codes.tolist() == self.want(tables, values, mask).tolist()
        for _ in range(data.draw(st.integers(1, 4))):
            tables = np.stack([data.draw(moved_table(t)) for t in tables])
            members.move(tables)
            assert members.codes.tolist() == self.want(tables, values, mask).tolist()

    @pytest.fixture()
    def searched(self, monkeypatch):
        """Sizes of the value sets handed to recon_codes."""
        sizes = []

        def spy(table, values):
            sizes.append(np.asarray(values).size)
            return recon_codes(table, values)

        monkeypatch.setattr(codebooks, "recon_codes", spy)
        return sizes

    def test_a_move_searches_only_window_values(self, searched):
        values = np.linspace(-2.0, 2.0, 401)  # steps of 0.01
        mask = np.zeros(values.size, dtype=bool)
        mask[1::2] = True
        cells = _SortedCells.of(values)
        tables = np.asarray([[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
        members = _Members(cells, mask, tables, [cells.codes(t) for t in tables])
        searched.clear()
        # Table 0's midpoints move from -0.5 to -0.44 and from 0.5 to 0.56.
        # Of the values crossed, only -0.44 and 0.56, both of table 0, lie
        # on a new midpoint; the rest get their new cell's label.  Table 1
        # stays put, and its windows hold only -0.5 and 0.5, of table 0.
        tables = np.asarray([[-1.0, 0.12, 1.0], [-1.0, 0.0, 1.0]])
        members.move(tables)
        assert members.codes.tolist() == self.want(tables, values, mask).tolist()
        assert searched == [2]

    def test_changed_entry_structure_takes_a_full_pass(self, searched):
        values = np.linspace(-2.0, 2.0, 41)
        mask = np.zeros(values.size, dtype=bool)
        cells = _SortedCells.of(values)
        tables = np.asarray([[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
        members = _Members(cells, mask, tables, [cells.codes(t) for t in tables])
        tables = np.asarray([[-1.0, -1.0, 1.0], [-1.0, 0.0, 1.0]])  # a duplicate appears
        members.move(tables)
        assert members.codes.tolist() == self.want(tables, values, mask).tolist()
        searched.clear()
        # Still two distinct entries, but the cell of 1.0 is now labelled 1.
        tables = np.asarray([[-1.0, 1.0, 1.0], [-1.0, 0.0, 1.0]])
        members.move(tables)
        assert members.codes.tolist() == self.want(tables, values, mask).tolist()
        assert searched == [1]  # a full pass: only 0.0, on the midpoint, is searched

    def test_learn_inner_steps_search_a_small_share(self, searched, monkeypatch):
        full = []
        codes = _SortedCells.codes

        def counted(cells, table, *dtype):
            full.append(cells.sorted.size)
            return codes(cells, table, *dtype)

        monkeypatch.setattr(_SortedCells, "codes", counted)
        bundle = make_bundle(1, rows=64, cols=512)
        learn(bundle, AaacConfig.for_format(NVFP4, n_outer=2, n_inner=4))
        # Full passes only for the assignment steps and the final codes: the
        # inner steps rewrite codes in place and hand recon_codes only the
        # values in a window, never a whole member set.
        assert len(full) == 2 * 2 + 2
        assert all(size < bundle.weights.size // 20 for size in searched)


class TestWorkingSet:
    def test_learn_peak_is_at_most_15_times_the_layer(self):
        bundle = make_bundle(0, rows=256, cols=2048, tokens=64)
        imp = codebooks.layer_importance(bundle)
        cfg = AaacConfig.for_format(NVFP4)
        learn(make_bundle(1), cfg)  # first-call imports are not the layer's working set
        tracemalloc.start()
        try:
            learn(bundle, cfg, col_importance=imp)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # About 53 bytes per weight: see the module docstring.
        assert peak <= 15 * bundle.weights.nbytes

    @pytest.mark.parametrize(
        "cfg",
        [
            AaacConfig.for_format(NVFP4, sel_size=8, n_outer=2, n_inner=4),
            AaacConfig.for_format(INT4, group_size=128, sel_size=16, n_outer=2, n_inner=4),
        ],
        ids=["nvfp4-S8", "int4-g128-S16"],
    )
    def test_wide_positions_learn_the_same(self, cfg, monkeypatch):
        bundle = make_bundle(2, rows=16, cols=256)
        assert _SortedCells.of(bundle.weights).order.dtype == np.int32
        narrow = learn(bundle, cfg)
        monkeypatch.setattr(codebooks, "_NARROW_BELOW", 0)
        assert _SortedCells.of(bundle.weights).order.dtype == np.intp
        wide = learn(bundle, cfg)
        for f in dataclasses.fields(LearnResult):
            a, b = getattr(narrow, f.name), getattr(wide, f.name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


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
        member1 = expand_groups(res.selection, cfg.sel_size).astype(bool)
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
