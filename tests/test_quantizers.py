"""Nearest-entry reconstruction, RTN, IF4, and dequantization."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaacq import quantizers
from aaacq.codebooks import AaacConfig
from aaacq.errors import CorruptionError, LayoutError, ValidationError
from aaacq.grids import (
    INT4, NVFP4, Scratch, base_table, bf16_decode, compute_scales, get_format, round_e4m3,
)
from aaacq.metrics import quantize_layer
from aaacq.packfmt import reconstruct, unpack
from aaacq.quantizers import (
    decode_block,
    dequantize,
    dequantize_rtn,
    if4_quantize,
    if4_tables,
    normalize,
    recon,
    recon_codes,
    rtn_quantize,
)
from aaacq.tensors import LayerBundle


def brute_force_recon(table, value):
    """Exhaustive argmin with first-minimum tie-breaking (the oracle)."""
    t = np.asarray(table, dtype=np.float64)
    code = int(np.argmin(np.abs(float(value) - t)))
    return code, float(t[code])


class TestRecon:
    def test_downward_pull(self):
        code, value = recon(base_table(NVFP4), 0.7)
        assert value == 0.5  # 0.2 away from 0.5 vs 0.3 from 1.0

    def test_midpoint_breaks_to_lower_index(self):
        code, value = recon(base_table(NVFP4), 0.75)
        assert value == 0.5

    def test_table_entries_are_fixed_points(self):
        t = base_table(INT4)
        for k, entry in enumerate(t):
            assert recon(t, float(entry)) == (k, float(entry))

    def test_matches_brute_force_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            m = int(rng.integers(1, 17))
            table = np.sort(rng.standard_normal(m))
            if rng.random() < 0.3 and m > 1:
                table[rng.integers(1, m)] = table[rng.integers(0, m - 1)]
                table = np.sort(table)
            x = float(rng.standard_normal() * 3)
            assert recon(table, x) == brute_force_recon(table, x)
            if m > 1:
                i = int(rng.integers(0, m - 1))
                mid = (table[i] + table[i + 1]) / 2
                assert recon(table, float(mid)) == brute_force_recon(table, mid)

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=16),
        st.floats(-150, 150),
    )
    @settings(max_examples=300)
    def test_matches_brute_force_property(self, entries, x):
        table = np.sort(np.asarray(entries, dtype=np.float64))
        assert recon(table, x) == brute_force_recon(table, x)

    def test_decreasing_table_is_rejected(self):
        with pytest.raises(ValidationError):
            recon_codes(np.asarray([0.0, 1.0, 0.5]), np.asarray([0.2]))

    def test_empty_table_is_rejected(self):
        with pytest.raises(ValidationError):
            recon_codes(np.zeros(0), np.asarray([0.5]))

    @pytest.mark.parametrize("table", [np.zeros((2, 3)), np.float64(0.5)], ids=["2-d", "0-d"])
    def test_table_that_is_not_1d_is_rejected(self, table):
        with pytest.raises(ValidationError, match="1-D"):
            recon_codes(table, np.asarray([0.5]))

    @pytest.mark.parametrize("entry", [
        lambda t: recon_codes(t, np.asarray([0.5])), lambda t: recon(t, 0.5), quantizers.code_table,
    ], ids=["recon_codes", "recon", "code_table"])
    def test_nan_ahead_of_a_number_is_rejected(self, entry):
        # NaN compares false, so it passes a non-decreasing check; numpy's
        # sort puts NaN last, and only there may it stand.
        for table in ([np.nan, 1.0], [0.0, np.nan, 1.0]):
            with pytest.raises(ValidationError, match="NaN last"):
                entry(np.asarray(table))

    def test_nan_last_table_is_accepted(self):
        assert recon_codes(np.asarray([0.0, 1.0, np.nan, np.nan]), np.asarray([0.2, 0.9])).tolist() == [0, 1]

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        table = np.sort(rng.standard_normal(15))
        xs = rng.standard_normal(100)
        codes = recon_codes(table, xs)
        for x, c in zip(xs, codes):
            assert int(c) == brute_force_recon(table, x)[0]


def brute_force_codes(table, values):
    """First-minimum argmin of |v - t| per value, over every entry."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    return np.argmin(np.abs(flat[:, np.newaxis] - table[np.newaxis, :]), axis=1)


# Magnitudes from subnormal to near-overflow; every |v - t| stays finite.
_SCALES = [1.0, 2.0 ** -1060, 1e-300, 1e30, 1e300]


@st.composite
def search_cases(draw):
    """A sorted table and values of any shape aimed at the midpoint search:
    duplicate and ulp-close entries (the fallback), tables of more than 255
    entries, values on and a few ulps off midpoints, signed zeros and
    magnitudes from 2**-1060 to 1e307."""
    scale = draw(st.sampled_from(_SCALES))
    unit = st.floats(-8, 8, allow_nan=False) | st.sampled_from([0.0, -0.0, 1.0, -1.0])
    if draw(st.booleans()):
        entries = draw(st.lists(unit, min_size=1, max_size=16))
    else:
        m = draw(st.integers(250, 320))
        seed = draw(st.integers(0, 2**32 - 1))
        entries = np.random.default_rng(seed).uniform(-8, 8, m).tolist()
    entries = [x * scale for x in entries]
    for x in draw(st.lists(st.sampled_from(entries), max_size=3)):
        for _ in range(draw(st.integers(0, 4))):
            x = float(np.nextafter(x, np.inf))
        entries.append(x)
    table = np.sort(np.asarray(entries, dtype=np.float64))

    mids = 0.5 * table[:-1] + 0.5 * table[1:]
    ulp = np.abs(table).max() * 2.0 ** -53
    near = (mids[:, np.newaxis] + ulp * np.asarray([-4, -2, -1, 1, 2, 4])).ravel()
    special = np.concatenate([
        table, mids, near, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf),
        [0.0, -0.0],
    ])
    special = special[np.isfinite(special)]
    picks = draw(st.lists(st.sampled_from(special.tolist()), max_size=24))
    free = draw(st.lists(st.floats(-1e307, 1e307), max_size=6))
    scaled = draw(st.lists(unit, max_size=12))
    values = np.asarray(
        draw(st.permutations(picks + free + [x * scale * 1.5 for x in scaled])),
        dtype=np.float64,
    )
    shape = draw(st.sampled_from(["flat", "rows", "scalar", "empty"]))
    if shape == "rows" and values.size % 2 == 0:
        values = values.reshape(2, -1)
    elif shape == "scalar" and values.size:
        values = values[0].reshape(())
    elif shape == "empty":
        values = np.zeros(draw(st.sampled_from([(0,), (0, 3), (3, 0)])))
    return table, values


class TestReconSearch:
    @given(search_cases())
    @settings(max_examples=500, deadline=None)
    def test_matches_brute_force_argmin(self, case):
        table, values = case
        got = recon_codes(table, values)
        assert np.shape(got) == values.shape
        assert np.asarray(got).dtype == np.intp
        assert np.asarray(got).reshape(-1).tolist() == brute_force_codes(table, values).tolist()

    def test_tables_past_the_counter_width(self):
        # 299 midpoints: codes past 255, which no one-byte code holds.
        rng = np.random.default_rng(8)
        table = np.sort(rng.uniform(-8, 8, 300))
        values = np.concatenate([rng.uniform(-9, 9, 2000), table, 0.5 * table[:-1] + 0.5 * table[1:]])
        assert recon_codes(table, values).tolist() == brute_force_codes(table, values).tolist()

    def test_non_finite_values_keep_their_codes(self):
        table = np.asarray([0.0, 1.0])
        values = np.asarray([np.nan, np.inf, -np.inf, 0.2])
        assert recon_codes(table, values).tolist() == [1, 0, 0, 0]

    @pytest.fixture()
    def exact(self, monkeypatch):
        """The value sets the midpoint search hands to the exhaustive search."""
        handed = []
        real = quantizers._recon_exact

        def spy(table, values):
            handed.append(np.array(values))
            return real(table, values)

        monkeypatch.setattr(quantizers, "_recon_exact", spy)
        return handed

    @pytest.mark.parametrize("fmt", [NVFP4, INT4])
    def test_rtn_searches_only_marked_buckets(self, exact, fmt):
        rng = np.random.default_rng(9)
        w = rng.laplace(0.0, 1.0, (64, 512)).astype(np.float32)
        # Scale 1 in the first nvfp4 group puts three weights on midpoints.
        w[0, :4] = [0.25, -0.75, 1.25, 0.0]
        w[0, 4:16] = 6.0
        codes, scales = rtn_quantize(w, fmt, fmt.group_size)
        w_norm = normalize(w, scales, fmt.group_size).ravel()
        t = base_table(fmt)
        lut = quantizers.code_table(t)[_bucket_keys(w_norm)]
        handed = np.concatenate(exact) if exact else np.zeros(0)
        assert sorted(handed.tolist()) == sorted(w_norm[lut == 0].tolist())
        # Two buckets, 2**-8 of a binade each, meet each window, about 1% of
        # a laplace layer (1.09% nvfp4, 0.84% int4 here), the three weights
        # on midpoints among them; but one window each, so the nearer of
        # its two entries settles them all, and no value is searched.
        assert 0.008 * w.size < np.count_nonzero((lut > 0) & (lut < 128)) < 0.012 * w.size
        assert handed.size == 0
        assert codes.dtype == np.uint8
        assert codes.ravel().tolist() == brute_force_codes(t, w_norm).tolist()

    def test_close_entries_search_every_value(self, exact):
        table = np.asarray([1.0, np.nextafter(1.0, 2.0), 3.0])
        values = np.linspace(-4.0, 4.0, 33)
        assert recon_codes(table, values).tolist() == brute_force_codes(table, values).tolist()
        assert [v.size for v in exact] == [33]


def _bucket_keys(values):
    """The code-table bucket of each float64: its top 20 bits."""
    return np.asarray(values, dtype=np.float64).view(np.uint64) >> np.uint64(44)


def _bucket_edges(keys):
    """The lowest and the highest float64 pattern of each bucket."""
    low = np.asarray(keys, dtype=np.uint64) << np.uint64(44)
    return low.view(np.float64), (low | np.uint64((1 << 44) - 1)).view(np.float64)


@st.composite
def code_table_cases(draw):
    """A sorted table of up to 32 entries: random, with duplicates, mirrored
    +-, with a 0 entry or crowded (entries a few ulps to 1e-9 apart), at
    magnitude 1 or 1e300; and values aimed at its cells' edges: midpoints +-6
    ulps, the edges of the buckets around them +-1 ulp, +-0, subnormals,
    +-inf, NaN and +-2**1000."""
    kind = draw(st.sampled_from(["random", "duplicates", "mirrored", "zero", "crowded"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = rng.uniform(-8, 8, draw(st.integers(1, 16)))
    if kind == "duplicates":
        entries = np.concatenate([entries, rng.choice(entries, draw(st.integers(1, 8)))])
    elif kind == "mirrored":
        entries = np.concatenate([entries, -entries])
    elif kind == "zero":
        entries = np.append(entries, 0.0)
    elif kind == "crowded":
        gap = draw(st.sampled_from([2.0 ** -50, 1e-12, 1e-9]))
        entries = np.append(entries, entries[0] + gap * np.arange(1, draw(st.integers(2, 5))))
    table = np.sort(entries * draw(st.sampled_from([1.0, 1e300])))

    distinct = np.unique(table)
    mids = 0.5 * distinct[:-1] + 0.5 * distinct[1:]
    near = (mids.view(np.int64)[:, np.newaxis] + np.arange(-6, 7)).view(np.float64).ravel()
    keys = (_bucket_keys(np.concatenate([mids, table]))[:, np.newaxis]
            + np.arange(-3, 4).astype(np.uint64)).ravel()
    edges = np.concatenate(_bucket_edges(keys)).view(np.int64)
    edges = (edges[:, np.newaxis] + np.arange(-1, 2)).view(np.float64).ravel()
    tiny = 2.0 ** -1074
    special = [0.0, -0.0, tiny, -tiny, 2.0 ** -1030, -(2.0 ** -1022) * 0.75,
               np.inf, -np.inf, np.nan, 2.0 ** 1000, -(2.0 ** 1000),
               np.nextafter(2.0 ** 1000, 0), -np.nextafter(2.0 ** 1000, 0)]
    free = draw(st.lists(st.floats(-1e307, 1e307), max_size=8))  # |v - t| stays finite
    return table, np.concatenate([near, edges, special, free])


def _bisected_code_table(table):
    """`code_table` as first written, the reference the builder must equal:
    the fallback's cut found by bisection over every bucket, every bucket
    written, and a bucket that exactly one window reaches, bucket 0 aside,
    holding one more than the code of its midpoint's lower entry."""
    t = np.asarray(table, dtype=np.float64)
    half_keys = 1 << 19
    lut = np.zeros(2 * half_keys, dtype=np.uint8)
    big = max(abs(t[0]), abs(t[-1]))
    first = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    half = big * 2.0 ** -47 + 2.0 ** -1070
    if not big < 2.0 ** 1000:  # past this no gap is formed: the entries can be infinite
        return lut
    with np.errstate(invalid="ignore"):
        gap = float(np.min(np.diff(t[first]), initial=np.inf))
    if quantizers._falls_back(gap, big):
        return lut
    mid = 0.5 * t[first][:-1] + 0.5 * t[first][1:]

    def top(k):
        return float(np.uint64(((k + 1) << 44) - 1).view(np.float64))

    cut, hi = 0, half_keys - 1
    while cut < hi:
        k = (cut + hi) // 2
        if quantizers._falls_back(gap, max(top(k), big)):
            hi = k
        else:
            cut = k + 1
    key = quantizers._key
    below = int(np.count_nonzero(mid < 0))
    up = [key(m) for m in mid[below:]]
    down = [key(m) for m in mid[:below][::-1]]
    for base, keys, codes in ((0, up, first[below:]), (half_keys, down, first[below::-1])):
        edges = [min(k, cut) for k in [0] + keys + [cut]]
        for a, b, code in zip(edges, edges[1:], codes):
            lut[base + a:base + b] = ~np.uint8(code)
    reached = np.zeros(2 * half_keys, dtype=np.int64)
    marks = np.zeros(2 * half_keys, dtype=np.uint8)
    for m, lower in zip(mid, first):
        a, b = m - half, m + half
        for span in ([key(max(a, 0.0)), key(b) + 1] if b >= 0 else None,
                     [half_keys + key(min(b, 0.0)), half_keys + key(a) + 1] if a < 0 else None):
            if span:
                reached[span[0]:span[1]] += 1
                marks[span[0]:span[1]] = lower + 1
    reached[[0, half_keys]] *= 2  # bucket 0 of each sign
    lut[reached > 0] = 0
    single = reached == 1
    single[cut:half_keys] = single[half_keys + cut:] = False
    lut[single] = marks[single]
    return lut


def _clear(lut):
    """The buckets of a code table that hold a code."""
    return ~lut < 128


class TestCodeTables:
    @pytest.mark.parametrize("fmt", [NVFP4, INT4])
    def test_unmarked_bucket_edges_match_brute_force(self, fmt):
        # Exhaustive over both grids: the lowest and the highest float64 of
        # every unmarked bucket take its code, and past 2**1000, infinity
        # and NaN every bucket is marked.
        t = base_table(fmt)
        lut = quantizers.code_table(t)
        assert lut.dtype == np.uint8 and lut.size == 1 << 20
        assert np.array_equal(lut, _bisected_code_table(t))
        codes = ~lut  # a marked bucket's byte is 0, so its complement is _MARK
        keys = np.flatnonzero(_clear(lut))
        assert 500_000 < keys.size < 600_000
        for edge in _bucket_edges(keys):
            for part in np.array_split(np.arange(keys.size), 16):
                assert np.array_equal(codes[keys[part]], brute_force_codes(t, edge[part]))
        far = _bucket_keys([2.0 ** 1000, np.inf, np.nan])
        assert (lut[far] == 0).all() and (lut[far + np.uint64(1 << 19)] == 0).all()

    @given(code_table_cases())
    @settings(max_examples=400, deadline=None)
    def test_builder_matches_brute_force(self, case):
        table, values = case
        lut = quantizers.code_table(table)
        assert np.array_equal(lut, _bisected_code_table(table))
        codes = ~lut[_bucket_keys(values)]
        kept = _clear(lut)[_bucket_keys(values)]
        assert not kept[~np.isfinite(values) | (np.abs(values) >= 2.0 ** 1000)].any()
        assert codes[kept].tolist() == brute_force_codes(table, values[kept]).tolist()
        # Marked values go to the exhaustive search, so every value gets its code.
        finite = np.isfinite(values)
        got = quantizers._recon_lookup(lut, table, values)
        assert got[finite].tolist() == brute_force_codes(table, values[finite]).tolist()
        assert got.tolist() == quantizers._recon_exact(table, values).tolist()

    @given(code_table_cases(), code_table_cases())
    @settings(max_examples=200, deadline=None)
    def test_built_over_occupied_buckets(self, case, other):
        # At each bucket a set of values occupies, the compact table holds
        # the full one's byte, also after another table was written into the
        # same buffer first; the values in none (NaN) read the marker.
        table, values = case
        code_tables = quantizers._CodeTables([(0, values.size)], lambda a, b: values[a:b])
        assert code_tables.write(other[0][np.newaxis])
        assert code_tables.write(table[np.newaxis])
        keys = _bucket_keys(values).astype(np.intp)
        compact = np.full(1 << 20, -1)
        for base, half in zip((0, 1 << 19), code_tables.layout):
            for a, b, at in half:
                compact[base + a:base + b] = np.arange(at, at + b - a)
        slots = compact[keys]
        nan = np.isnan(values)
        assert (slots[~nan] >= 0).all()  # NaN, past every cut, is left out
        marked = sum(b - a for half in code_tables.layout for a, b, _ in half)
        assert code_tables.keys.tolist() == np.where(slots < 0, marked, slots).tolist()
        occupied = compact >= 0
        assert np.array_equal(code_tables.lut[compact[occupied]], quantizers.code_table(table)[occupied])
        assert (code_tables.lut[marked:] == 0).all()
        got = code_tables.look_up(table[np.newaxis], values, code_tables.keys)
        assert got.tolist() == quantizers._recon_exact(table, values).tolist()

    @pytest.mark.parametrize("gap", [2.0 ** -1074 * k for k in (29, 71, 120, 401, 3001)]
                             + [2.0 ** -1040, 1e-300, 2.0 ** -50, 1.0, 1e300])
    def test_fallback_cut_matches_bisection(self, gap):
        # With subnormal gaps the window's rounding moves the cut a few
        # buckets from its closed form, up or down.
        for table in ([0.0, gap], [-gap, 0.0, gap], [1.0, 1.0 + gap]):
            table = np.asarray(table)
            assert np.array_equal(quantizers.code_table(table), _bisected_code_table(table))

    def test_occupied_buckets_hold_the_zeros_of_either_sign(self):
        # A zero of either sign is in bucket 0 of both halves; no other value
        # here lies in bucket 0, nor in the buckets between the zeros and 1.
        values = np.sort(np.asarray([-2.0, -1.0, -0.0, 0.0, 1.0, 3.0]))
        pos, neg = quantizers._occupied([values])
        one, two, three = _bucket_keys([1.0, 2.0, 3.0]).tolist()
        assert pos == [(0, 1), (one, three + 1)]
        assert neg == [(0, 1), (one, two + 1)]
        assert quantizers._occupied([]) == ([], [])
        assert quantizers._occupied([np.asarray([np.nan])]) == ([], [])

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
    @pytest.mark.parametrize("fmt", [NVFP4, INT4], ids=["nvfp4", "int4"])
    def test_fixed_grid_map_leaves_its_marked_half_unbacked(self, fmt):
        # Buckets at and past the fallback's cut, about half the map, are
        # never written: a fresh map reads 0 there without backing pages.
        lut = quantizers.code_table(base_table(fmt))
        address, rss = lut.ctypes.data, None
        with open("/proc/self/smaps") as smaps:  # this process's own mappings
            for line in smaps:
                field = line.split()[0]
                if not field.endswith(":"):  # a mapping's "start-end" line
                    start, end = (int(x, 16) for x in field.split("-"))
                    here = start <= address < end
                elif here and field == "Rss:":
                    rss = int(line.split()[1])  # kB
                    break
        assert rss is not None and rss <= 600

    def test_tables_past_128_entries_are_refused(self):
        with pytest.raises(ValidationError):
            quantizers.code_table(np.arange(129.0))
        table = np.arange(128.0)
        assert np.array_equal(quantizers.code_table(table), _bisected_code_table(table))


class TestRtn:
    def test_hand_traced_group(self):
        w = np.zeros((1, 16), dtype=np.float32)
        w[0, :4] = [3.0, 1.4, -0.1, 0.0]
        codes, scales = rtn_quantize(w, NVFP4, 16)
        assert scales[0, 0] == 0.5
        w_hat = dequantize_rtn(codes, scales, NVFP4, 16)
        # normalized [6, 2.8, -0.2, 0] reconstructs as [6, 3, 0, 0]
        assert w_hat[0, :4].tolist() == [3.0, 1.5, 0.0, 0.0]
        assert (w_hat[0, 4:] == 0).all()

    def test_grid_representable_weights_round_trip(self):
        rng = np.random.default_rng(2)
        table = base_table(NVFP4)
        for _ in range(10):
            s = 2.0 ** rng.integers(-3, 4)  # exact BF16 scales
            picks = rng.integers(0, 15, (4, 32))
            w = (table[picks] * s).astype(np.float32)
            # absmax-derived scale equals s only if the extreme entry is present
            w[:, 0] = 6.0 * s
            w[:, 16] = -6.0 * s
            codes, scales = rtn_quantize(w, NVFP4, 16)
            assert (scales == np.float32(s)).all()
            assert np.array_equal(dequantize_rtn(codes, scales, NVFP4, 16), w)

    def test_all_zero_weights(self):
        w = np.zeros((2, 32), dtype=np.float32)
        codes, scales = rtn_quantize(w, NVFP4, 16)
        zero_index = int(np.where(base_table(NVFP4) == 0)[0][0])
        assert (codes == zero_index).all()
        assert (dequantize_rtn(codes, scales, NVFP4, 16) == 0).all()

    def test_layout_error(self):
        with pytest.raises(LayoutError):
            rtn_quantize(np.ones((2, 20), np.float32), NVFP4, 16)

    def test_reconstruction_error_matches_scalar_loop(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 32)).astype(np.float32)
        codes, scales = rtn_quantize(w, INT4, 16)
        w_hat = dequantize_rtn(codes, scales, INT4, 16)
        got = float(((w.astype(np.float64) - w_hat.astype(np.float64)) ** 2).sum())
        table = base_table(INT4)
        want = 0.0
        for n in range(4):
            for k in range(32):
                s = float(scales[n, k // 16])
                _, v = brute_force_recon(table, float(w[n, k]) / s)
                want += (float(w[n, k]) - float(np.float32(v * s))) ** 2
        assert got == pytest.approx(want, rel=1e-12)


class TestDequantize:
    def test_max_entry_codes(self):
        codes = np.full((2, 16), 15, dtype=np.uint8)
        scales = np.ones((2, 1), dtype=np.float32)
        t = base_table(INT4)
        sel = np.zeros((2, 1), dtype=np.uint8)
        w_hat = dequantize(codes, scales, t, t, sel, 16, 16)
        assert (w_hat == 7).all()

    def test_selection_picks_tables(self):
        t0 = np.asarray([0.0, 1.0])
        t1 = np.asarray([10.0, 20.0])
        codes = np.asarray([[0, 1, 0, 1]], dtype=np.uint8)
        scales = np.ones((1, 1), dtype=np.float32)
        sel = np.asarray([[0, 1]], dtype=np.uint8)
        w_hat = dequantize(codes, scales, t0, t1, sel, 4, 2)
        assert w_hat.tolist() == [[0.0, 1.0, 10.0, 20.0]]

    def test_out_of_range_code_is_corruption(self):
        codes = np.asarray([[0, 7]], dtype=np.uint8)
        t = np.asarray([0.0, 1.0])
        with pytest.raises(CorruptionError):
            dequantize(codes, np.ones((1, 1), np.float32), t, t,
                       np.zeros((1, 1), np.uint8), 2, 2)

    def test_negative_code_is_corruption(self):
        # Taken as an index from the end, -1 would decode as table 1's last entry.
        t = np.asarray([0.0, 1.0])
        with pytest.raises(CorruptionError):
            dequantize(np.asarray([[0, -1]]), np.ones((1, 1), np.float32), t, t,
                       np.zeros((1, 1), np.uint8), 2, 2)

    @pytest.mark.parametrize("change", [
        {"scales": np.ones((1, 1), np.float32)},
        {"scales": np.ones((2, 2), np.float32)},
        {"selection": np.zeros((2, 1), np.uint8)},
        {"selection": np.zeros((1, 2), np.uint8)},
        {"table0": np.zeros((1, 2)), "table1": np.zeros((1, 2))},
        {"table0": np.zeros(2), "table1": np.zeros(3)},
        {"codes": np.zeros(16, np.uint8)},
        {"codes": np.zeros((2, 16))},
    ], ids=["scales-rows", "scales-groups", "selection-groups", "selection-rows",
            "2-D-tables", "table-lengths", "1-D-codes", "float-codes"])
    def test_mis_shaped_inputs_are_rejected(self, change):
        # Broadcasting would decode each of these without a word.
        args = {"codes": np.zeros((2, 16), np.uint8), "scales": np.ones((2, 1), np.float32),
                "table0": np.zeros(2), "table1": np.zeros(2), "selection": np.zeros((2, 2), np.uint8)}
        dequantize(**args, group_size=16, sel_size=8)  # the inputs as they stand decode
        with pytest.raises(ValidationError):
            dequantize(**{**args, **change}, group_size=16, sel_size=8)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, 255], ids=["two", "minus-one", "half", "255"])
    def test_selection_values_other_than_0_and_1_are_refused(self, bad):
        # As `pack` refuses them: a 2 read as table 1, and 0.5 as table 0.
        t0, t1 = np.asarray([0.0, 1.0]), np.asarray([10.0, 20.0])
        args = (np.asarray([[0, 1, 0, 1]], np.uint8), np.ones((1, 1), np.float32), t0, t1)
        assert dequantize(*args, np.asarray([[0, 1]]), 4, 2).tolist() == [[0.0, 1.0, 10.0, 20.0]]
        with pytest.raises(ValidationError, match="selection value"):
            dequantize(*args, np.asarray([[0, bad]]), 4, 2)

    @pytest.mark.parametrize("g, s", [(16, 16), (128, 16)], ids=["sign-bits", "bitset"])
    def test_without_scratch_decodes_a_row_block_at_a_time(self, g, s):
        # The float32 result (4 bytes a weight) and one row block's buffers:
        # whole-layer temporaries peaked at 17.1 bytes a weight.  The bytes
        # are those of a decode on one scratch, the whole layer in one block.
        rng = np.random.default_rng(g + s)
        rows, cols = 512, 2048
        t0, t1 = (np.sort(rng.standard_normal(16)) for _ in range(2))
        codes = rng.integers(0, 16, (rows, cols)).astype(np.uint8)
        scales = rng.uniform(0.5, 2.0, (rows, cols // g)).astype(np.float32)
        sel = rng.integers(0, 2, (rows, cols // s)).astype(np.uint8)
        dequantize(codes[:2], scales[:2], t0, t1, sel[:2], g, s)  # first-call allocations
        tracemalloc.start()
        try:
            got = dequantize(codes, scales, t0, t1, sel, g, s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * rows * cols
        want = decode_block(codes, scales, np.concatenate((t0, t1)), sel, g, s, Scratch())
        assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes())

    @pytest.mark.parametrize("method, fmt", [
        ("rtn", "nvfp4"), ("rtn", "int4"), ("if4", "nvfp4"), ("if4", "int4"), ("aaac", "int4"),
    ])
    def test_near_flt_max_weights_saturate(self, method, fmt):
        # BF16 scales round up, so an entry times its scale can pass FLT_MAX
        # for weights near it; those groups decode to +-FLT_MAX, not inf.
        big = float(np.finfo(np.float32).max)
        rng = np.random.default_rng(23)
        w = (rng.uniform(-1, 1, (2, 256)) * big).astype(np.float32)
        w[:, ::16] = np.float32(big)
        bundle = LayerBundle("big", w, rng.standard_normal((8, 256)).astype(np.float32))
        base = get_format(fmt)
        cfg = AaacConfig(fmt=base, group_size=16 if fmt == "nvfp4" else 128, sel_size=16)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            packed, _ = quantize_layer(bundle, method, cfg, Scratch())
            w_hat = reconstruct(packed)
        t0, t1, sel, codes, scales = unpack(packed)
        exact = np.where(sel.repeat(packed.sel_size, axis=1), t1[codes], t0[codes]).astype(float)
        exact *= scales.astype(np.float64).repeat(packed.group_size, axis=1)
        assert np.abs(exact).max() > big  # the case this test is about
        assert np.array_equal(w_hat, np.clip(exact, -big, big).astype(np.float32))


class TestIf4:
    def test_fp4_exact_group_selects_fp4(self):
        table = base_table(NVFP4)
        w = (table[np.arange(15) % 15] * 0.5).astype(np.float32)[np.newaxis, :]
        w = np.concatenate([w, np.zeros((1, 1), np.float32)], axis=1)  # 16 cols
        w[0, 0] = 3.0  # absmax 3.0 -> scale 0.5 exactly
        codes, scales, bits = if4_quantize(w, 16)
        assert bits[0, 0] == 0
        w_hat = dequantize(codes, scales, *if4_tables(), bits, 16, 16)
        assert np.array_equal(w_hat, w)

    def test_uniform_spacing_selects_int4(self):
        # 16 evenly spaced values across [-1, 1] sit on a uniform grid that
        # INT4 matches better than the log-spaced FP4 grid.
        w = np.linspace(-1, 1, 16, dtype=np.float32)[np.newaxis, :]
        codes, scales, bits = if4_quantize(w, 16)
        assert bits[0, 0] == 1
        # brute-force check of both group MSEs
        errs = {}
        for fmt in (NVFP4, INT4):
            c, s = rtn_quantize(w, fmt, 16)
            w_hat = dequantize_rtn(c, s, fmt, 16)
            errs[fmt.kind] = float(((w - w_hat) ** 2).sum())
        assert errs["int4"] < errs["nvfp4"]

    def test_tie_prefers_fp4(self):
        # [-3, 0, ..., 0]: exact under FP4 (scale 0.5) and INT4 (scale 0.375)
        w = np.zeros((1, 16), dtype=np.float32)
        w[0, 0] = -3.0
        codes, scales, bits = if4_quantize(w, 16)
        assert bits[0, 0] == 0
        w_hat = dequantize(codes, scales, *if4_tables(), bits, 16, 16)
        assert np.array_equal(w_hat, w)

    def test_never_worse_than_rtn_fp4_per_group(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            w = (rng.standard_normal((6, 64)) * 10 ** rng.uniform(-1, 1)).astype(np.float32)
            g = 16
            codes, scales, bits = if4_quantize(w, g)
            w_if4 = dequantize(codes, scales, *if4_tables(), bits, g, g)
            c, s = rtn_quantize(w, NVFP4, g)
            w_rtn = dequantize_rtn(c, s, NVFP4, g)

            def group_err(w_hat):
                d = (w.astype(np.float64) - w_hat.astype(np.float64)) ** 2
                return d.reshape(6, 64 // g, g).sum(axis=2)

            assert (group_err(w_if4) <= group_err(w_rtn) + 1e-15).all()

    def test_padded_fp4_table_is_never_indexed(self):
        t0, t1 = if4_tables()
        assert t0.size == t1.size == 16
        assert t0[-1] == t0[-2] == 6.0
        rng = np.random.default_rng(5)
        w = rng.standard_normal((4, 32)).astype(np.float32)
        codes, scales, bits = if4_quantize(w, 16)
        fp4_groups = np.repeat(bits == 0, 16, axis=1)
        assert (codes[fp4_groups] <= 14).all()


class TestNormalize:
    def test_round_trip_with_expand(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((4, 32)).astype(np.float32)
        s = compute_scales(w, NVFP4, 16)
        w_norm = normalize(w, s, 16)
        back = w_norm * np.repeat(s.astype(np.float64), 16, axis=1)
        assert np.allclose(back, w, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "weights_shape, group_size, scales_shape, error",
        [((2, 32), 0, (2, 2), ValidationError), ((2, 32), 24, (2, 1), LayoutError),
         ((2, 32), 32, (1, 1), ValidationError), ((64,), 16, (4,), ValidationError)],
        # A ZeroDivisionError, numpy's reshape ValueError, a silent broadcast
        # over both rows, and a 1-D layer.
        ids=["zero-group", "group-not-dividing-cols", "one-scale-for-two-rows", "1-d"],
    )
    def test_layout_is_checked(self, weights_shape, group_size, scales_shape, error):
        with pytest.raises(error):
            normalize(np.ones(weights_shape, np.float32), np.ones(scales_shape, np.float32), group_size)

    def test_out_of_another_shape_is_refused(self):
        # One row of weights would broadcast into both rows of `out`.
        with pytest.raises(ValidationError):
            normalize(np.ones((1, 32), np.float32), np.ones((1, 2), np.float32), 16, out=np.empty((2, 32)))


# ---------------------------------------------------------------------------
# Fixed-grid kernels against the formulations they replaced
# ---------------------------------------------------------------------------


def _grouped(a, size):
    return a.reshape(a.shape[0], a.shape[1] // size, size)


def fancy_dequantize(codes, scales, table0, table1, selection, group_size, sel_size):
    """`dequantize` as one fancy index with intp `codes + offset`."""
    t0, t1 = np.asarray(table0, np.float64), np.asarray(table1, np.float64)
    offset = t0.size * np.asarray(selection, dtype=bool)
    both = np.concatenate((t0, t1))
    values = both[_grouped(codes, sel_size) + offset[:, :, np.newaxis]]
    w_hat = _grouped(values.reshape(codes.shape), group_size)
    w_hat *= scales.astype(np.float64)[:, :, np.newaxis]
    flt_max = float(np.finfo(np.float32).max)
    peak = np.abs(both).max(initial=0.0)
    if scales.size and float(scales.max()) * peak > flt_max:
        hot = scales.astype(np.float64) * peak > flt_max
        w_hat[hot] = np.clip(w_hat[hot], -flt_max, flt_max)
    return w_hat.reshape(codes.shape).astype(np.float32)


def two_pass_if4(w, g, mode):
    """`if4_quantize` as two `rtn_quantize` + `dequantize_rtn` passes and a group SSE."""
    codes_f, scales_f = rtn_quantize(w, NVFP4, g, mode)
    codes_i, scales_i = rtn_quantize(w, INT4, g, mode)
    w64 = w.astype(np.float64)

    def group_sse(w_hat):
        return _grouped((w64 - w_hat.astype(np.float64)) ** 2, g).sum(axis=2)

    int4_wins = (group_sse(dequantize_rtn(codes_i, scales_i, INT4, g))
                 < group_sse(dequantize_rtn(codes_f, scales_f, NVFP4, g)))
    codes = np.where(int4_wins[:, :, np.newaxis], _grouped(codes_i, g), _grouped(codes_f, g))
    return (codes.reshape(w.shape).astype(np.uint8), np.where(int4_wins, scales_i, scales_f),
            int4_wins.astype(np.uint8))


_FLT_MAX = float(np.finfo(np.float32).max)


@st.composite
def if4_cases(draw):
    """Weights in groups of g at one magnitude, with all-zero groups, groups
    on a grid and near-FLT_MAX groups whose BF16 scales round past it."""
    g = draw(st.sampled_from([1, 3, 16, 128, 32]))
    rows, groups = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows, groups, g)
    kind = draw(st.sampled_from(["normal", "laplace", "grid", "tiny", "huge"]))
    if kind == "grid":
        w = rng.choice(np.concatenate([base_table(NVFP4), base_table(INT4)]), shape)
        w *= 2.0 ** rng.integers(-4, 4)
    elif kind == "tiny":
        w = rng.standard_normal(shape) * 1e-42
    elif kind == "huge":
        w = rng.uniform(-1, 1, shape) * _FLT_MAX
        w[..., 0] = _FLT_MAX
    else:
        w = getattr(rng, kind)(size=shape) * 10.0 ** draw(st.integers(-30, 30))
    w[rng.random((rows, groups)) < 0.25] = 0.0
    w = w.astype(np.float32).reshape(rows, groups * g)
    if draw(st.booleans()):  # the same values in column-major memory
        w = np.asfortranarray(w)
    return w, g


class TestKernelPins:
    @given(search_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_narrow_codes_match_brute_force(self, case, duplicate):
        table, values = case
        if duplicate:  # the first index of a repeated entry, not the run
            table = np.sort(np.concatenate([table, table[::3]]))
        if table.size > 256:
            table = table[:256]
        got = recon_codes(table, values, dtype=np.uint8)
        assert np.asarray(got).dtype == np.uint8 and np.shape(got) == values.shape
        want = brute_force_codes(table, values)
        assert np.asarray(got).reshape(-1).tolist() == want.tolist()
        assert recon_codes(table, values).reshape(-1).tolist() == want.tolist()

    def test_grid_codes_come_back_as_uint8(self):
        # A code table holds one byte per bucket, so grid codes are never
        # widened to intp; marked values take the exhaustive search's codes.
        values = np.concatenate([np.linspace(-9, 9, 1001), [0.25, 2.0 ** 1000, np.inf, np.nan]])
        for fmt in (NVFP4, INT4):
            t = base_table(fmt)
            lut = quantizers._grid_code_table(t)
            assert lut is quantizers._grid_code_table(t.astype(np.float32).astype(np.float64))
            got = quantizers._recon_lookup(lut, t, values)
            assert got.dtype == np.uint8
            assert got.tolist() == quantizers._recon_exact(t, values).tolist()
            assert recon_codes(t, values, dtype=np.uint8).dtype == np.uint8
        # Any other table, one that differs from a grid in a zero's sign too, has none.
        t = base_table(NVFP4)
        t[7] = -0.0
        assert quantizers._grid_code_table(t) is None

    @given(if4_cases(), st.sampled_from(["exact-bf16", "emulate-e4m3"]))
    @settings(max_examples=200, deadline=None)
    def test_if4_matches_two_rtn_passes(self, case, mode):
        w, g = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = if4_quantize(w, g, mode)
        want = two_pass_if4(w, g, mode)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert np.array_equal(a, b)

    def test_fixed_grid_decodes_are_float32_values(self):
        # Why `if4_quantize` scores its candidates on the float64 decode,
        # where `dequantize_rtn` rounds it to float32: every product of a
        # fixed-grid entry (at most 3 significant bits) and a positive BF16
        # or E4M3 scale (at most 8) that lies within float32's range is a
        # float32 value.  The decode saturates the rest at +-FLT_MAX.
        bf16 = bf16_decode(np.arange(1, 0x7F80, dtype=np.uint16)).astype(np.float64)
        e4m3 = np.asarray([(m / 8 if e == 0 else 1 + m / 8) * 2.0 ** (max(e, 1) - 7)
                           for e in range(16) for m in range(8) if (e, m) not in ((0, 0), (15, 7))])
        assert np.array_equal(round_e4m3(e4m3), e4m3)
        entries = np.union1d(base_table(NVFP4), base_table(INT4))
        assert (bf16.size, e4m3.size, entries.size) == (32639, 126, 20)
        out_of_range = 0
        for scales in (bf16, e4m3):
            products = np.multiply.outer(scales, entries)
            in_range = np.abs(products) <= _FLT_MAX
            assert np.array_equal(products[in_range].astype(np.float32), products[in_range])
            out_of_range += int((~in_range).sum())
        assert out_of_range == 3774

    def test_if4_near_flt_max_and_zero_groups(self):
        w = np.zeros((2, 64), np.float32)
        w[0, :16] = np.float32(_FLT_MAX)
        w[0, 16:32] = np.linspace(-_FLT_MAX, _FLT_MAX, 16, dtype=np.float32)
        w[1, :16] = np.float32(-_FLT_MAX)
        for mode in ("exact-bf16", "emulate-e4m3"):
            got, want = if4_quantize(w, 16, mode), two_pass_if4(w, 16, mode)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_dequantize_matches_fancy_index_decode(self, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        m = data.draw(st.integers(1, 16))
        sel_size = data.draw(st.sampled_from([1, 2, 16]))
        group_size = sel_size * data.draw(st.sampled_from([1, 3, 8]))
        rows, groups = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
        cols = groups * group_size
        tables = np.sort(rng.choice(np.concatenate([rng.standard_normal(m) * 4, [0.0, -0.0]]),
                                    (2, m)), axis=1)
        codes = rng.integers(0, m, (rows, cols)).astype(
            data.draw(st.sampled_from([np.uint8, np.intp])))
        selection = (rng.random((rows, cols // sel_size)) < data.draw(st.sampled_from([0, 0.5, 1])))
        scales = rng.uniform(0.5, 2, (rows, groups)) * 10.0 ** rng.integers(-38, 38, (rows, groups))
        if data.draw(st.booleans()):  # a scale that carries entries past FLT_MAX
            scales[0, 0] = _FLT_MAX
        scales = scales.astype(np.float32)
        got = dequantize(codes, scales, tables[0], tables[1], selection.astype(np.uint8),
                         group_size, sel_size)
        want = fancy_dequantize(codes, scales, tables[0], tables[1], selection,
                                group_size, sel_size)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
        # On reused buffers, grown by a larger decode first, the bits are the same.
        scratch = Scratch()
        sel = selection.astype(np.uint8)
        both = np.concatenate(tables)
        decode_block(np.vstack([codes, codes]), np.vstack([scales, scales]), both,
                     np.vstack([sel, sel]), group_size, sel_size, scratch)
        got = decode_block(codes, scales, both, sel, group_size, sel_size, scratch)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))
