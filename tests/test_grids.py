"""Base grid constants, scale computation, and low-precision rounding."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaacq.errors import LayoutError, ValidationError
from aaacq.grids import (
    BF16_MIN_NORMAL,
    E4M3_MAX,
    E4M3_MIN_POSITIVE,
    INT4,
    NVFP4,
    base_table,
    bf16_bits,
    bf16_decode,
    SCALE_MODES,
    _bf16_round_bits,
    _next_bf16_up,
    compute_scales,
    get_format,
    group_absmax,
    round_bf16,
    round_e4m3,
    scales_from_absmax,
)

# ---------------------------------------------------------------------------
# Reference grids, built independently of the implementation
# ---------------------------------------------------------------------------


def e2m1_values():
    """All values encodable as sign + 2 exponent bits (bias 1) + 1 mantissa bit."""
    out = set()
    for sign in (1.0, -1.0):
        for exp in range(4):
            for mant in range(2):
                if exp == 0:
                    val = mant * 0.5
                else:
                    val = 2.0 ** (exp - 1) * (1 + mant / 2)
                out.add(sign * val)
    return sorted(out)


def bf16_positive_grid():
    """All finite non-negative BF16 values with their bit patterns, ascending."""
    patterns = np.arange(0x0000, 0x7F80, dtype=np.uint16)
    return bf16_decode(patterns).astype(np.float64), patterns


def e4m3_nonneg_grid():
    """All non-negative E4M3 values ascending (code order), no-inf convention."""
    vals = [0.0]
    for mant in range(1, 8):
        vals.append(mant * 2.0**-9)
    for exp_field in range(1, 16):
        for mant in range(8):
            if exp_field == 15 and mant == 7:
                continue  # NaN pattern
            vals.append(2.0 ** (exp_field - 7) * (1 + mant / 8))
    return np.asarray(vals)


def nearest_tie_even(grid, x):
    """Nearest grid value; ties pick the even code (grids are in code order)."""
    pos = int(np.searchsorted(grid, x))
    lo = max(pos - 1, 0)
    hi = min(pos, grid.size - 1)
    dlo, dhi = abs(x - grid[lo]), abs(x - grid[hi])
    if dlo < dhi:
        return grid[lo]
    if dhi < dlo:
        return grid[hi]
    return grid[lo] if lo % 2 == 0 else grid[hi]


# ---------------------------------------------------------------------------
# Base tables
# ---------------------------------------------------------------------------


class TestBaseTables:
    def test_nvfp4_golden(self):
        t = base_table(NVFP4)
        assert t.tolist() == [
            -6.0, -4.0, -3.0, -2.0, -1.5, -1.0, -0.5,
            0.0,
            0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0,
        ]
        assert t.size == 15
        assert t.max() == 6 and t.min() == -6

    def test_nvfp4_is_the_full_e2m1_set(self):
        assert base_table(NVFP4).tolist() == e2m1_values()

    def test_int4_golden(self):
        t = base_table(INT4)
        assert t.tolist() == [float(v) for v in range(-8, 8)]
        assert t.size == 16

    def test_tables_strictly_increasing(self):
        for fmt in (NVFP4, INT4):
            t = base_table(fmt)
            assert (np.diff(t) > 0).all()

    def test_symmetry_and_defaults(self):
        t = base_table(NVFP4)
        assert np.array_equal(t, -t[::-1])
        assert NVFP4.group_size == 16 and INT4.group_size == 128
        assert NVFP4.grid_absmax == 6 and INT4.grid_absmax == 8

    def test_get_format(self):
        assert get_format("NVFP4") is NVFP4
        assert get_format("int4") is INT4
        with pytest.raises(ValidationError):
            get_format("fp6")


# ---------------------------------------------------------------------------
# BF16 rounding
# ---------------------------------------------------------------------------


class TestRoundBf16:
    def test_exact_values_pass_through(self):
        for v in (1.0, -2.0, 0.0, 0.5, 448.0, BF16_MIN_NORMAL):
            assert round_bf16(v) == v

    def test_known_value(self):
        # brute force over the two BF16 neighbours of 0.1
        assert round_bf16(0.1) == 0.10009765625

    def test_matches_enumerated_grid(self):
        grid, _ = bf16_positive_grid()
        rng = np.random.default_rng(0)
        xs = np.concatenate(
            [
                rng.uniform(0, 10, 300),
                rng.uniform(0, 1e-3, 100),
                10.0 ** rng.uniform(-30, 30, 100),
            ]
        )
        for x in xs:
            assert round_bf16(float(x)) == nearest_tie_even(grid, float(x))

    def test_exact_midpoints_round_to_even(self):
        grid, patterns = bf16_positive_grid()
        rng = np.random.default_rng(1)
        for i in rng.integers(1, grid.size - 1, 200):
            mid = (grid[i] + grid[i + 1]) / 2
            want = grid[i] if patterns[i] % 2 == 0 else grid[i + 1]
            assert round_bf16(float(mid)) == want

    def test_idempotent_on_a_million_values(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1_000_000).astype(np.float32) * 100
        once = round_bf16(x)
        assert np.array_equal(round_bf16(once), once)

    def test_sign_symmetry(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(1000)
        assert np.array_equal(round_bf16(-x), -round_bf16(x))

    @given(st.floats(min_value=-1e30, max_value=1e30, allow_nan=False))
    @settings(max_examples=200)
    def test_idempotence_property(self, x):
        once = round_bf16(x)
        assert round_bf16(once) == once

    def test_bits_round_trip(self):
        rng = np.random.default_rng(4)
        x = round_bf16(rng.standard_normal(256).astype(np.float32))
        assert np.array_equal(bf16_decode(bf16_bits(x)), x)

    def test_uint32_rounding_matches_the_uint64_formula(self):
        # Every upper half, with lower halves at and around the tie and sampled
        # ones: infinities, NaNs, subnormals and the carry into bit 32 among them.
        rng = np.random.default_rng(5)
        lower = np.concatenate(([0, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF],
                                rng.integers(0, 1 << 16, 10))).astype(np.uint32)
        bits = ((np.arange(1 << 16, dtype=np.uint32) << 16)[:, np.newaxis] | lower).reshape(-1)
        wide = bits.astype(np.uint64)
        want = ((wide + 0x7FFF + ((wide >> 16) & 1)) & 0xFFFF0000).astype(np.uint32)
        kept = bits.copy()
        got = _bf16_round_bits(bits)
        assert got.dtype == np.uint32 and np.array_equal(got, want)
        assert np.array_equal(bits, kept)
        cases = {
            0xFFFF8000: 0x00000000,  # a NaN whose carry leaves bit 31: the mask drops it
            0xFFFFFFFF: 0x00000000,
            0x7F800000: 0x7F800000,  # +inf
            0xFF800000: 0xFF800000,  # -inf
            0x7FC00001: 0x7FC00000,  # NaN
            0x7F7F8000: 0x7F800000,  # the largest float32 tie rounds to inf
            0x00000001: 0x00000000,  # the smallest subnormal
            0x00008000: 0x00000000,  # a subnormal tie goes to even
            0x00018000: 0x00020000,
            0x807FFFFF: 0x80800000,  # the largest negative subnormal rounds to a normal
        }
        got = _bf16_round_bits(np.array(list(cases), np.uint32))
        assert [hex(v) for v in got] == [hex(v) for v in cases.values()]


# ---------------------------------------------------------------------------
# E4M3 rounding
# ---------------------------------------------------------------------------


class TestRoundE4m3:
    def test_format_max_and_clamp(self):
        assert round_e4m3(448.0) == 448.0
        assert round_e4m3(1000.0) == 448.0
        assert round_e4m3(1e30) == 448.0

    def test_known_value(self):
        # neighbours of 0.3 on the E4M3 grid are 0.28125 and 0.3125
        assert round_e4m3(0.3) == 0.3125

    def test_grid_fixed_points(self):
        grid = e4m3_nonneg_grid()
        out = round_e4m3(grid[1:])  # 0 excluded: callers pass positive values
        assert np.array_equal(out, grid[1:])

    def test_matches_enumerated_grid(self):
        grid = e4m3_nonneg_grid()
        rng = np.random.default_rng(5)
        xs = np.concatenate(
            [rng.uniform(2**-12, 1.0, 300), rng.uniform(1.0, 500.0, 300)]
        )
        for x in xs:
            assert round_e4m3(float(x)) == nearest_tie_even(grid, float(x))

    def test_exact_midpoints_round_to_even(self):
        grid = e4m3_nonneg_grid()
        for i in range(0, grid.size - 1):
            mid = (grid[i] + grid[i + 1]) / 2
            want = grid[i] if i % 2 == 0 else grid[i + 1]
            assert round_e4m3(float(mid)) == want

    def test_smallest_values(self):
        assert round_e4m3(E4M3_MIN_POSITIVE) == E4M3_MIN_POSITIVE
        assert round_e4m3(E4M3_MIN_POSITIVE / 4) == 0.0

    def test_relative_error_bound_in_normal_range(self):
        grid = e4m3_nonneg_grid()
        normal = grid[grid >= 2.0**-6]
        rel_gap = np.diff(normal) / normal[:-1]
        assert rel_gap.max() <= 2.0**-3 + 1e-12


# ---------------------------------------------------------------------------
# Per-group scales
# ---------------------------------------------------------------------------


def bf16_nearest(grid, x):
    pos = int(np.searchsorted(grid, x))
    lo, hi = max(pos - 1, 0), min(pos, grid.size - 1)
    return grid[lo] if abs(x - grid[lo]) <= abs(x - grid[hi]) else grid[hi]


class TestComputeScales:
    def test_absmax_rule_nvfp4(self):
        w = np.zeros((1, 16), dtype=np.float32)
        w[0, :3] = [0.5, -3.0, 1.0]
        s = compute_scales(w, NVFP4, 16)
        assert s.shape == (1, 1)
        assert s[0, 0] == 0.5  # 3.0 / 6, exactly representable in BF16

    def test_all_zero_group_gets_min_normal(self):
        w = np.zeros((2, 32), dtype=np.float32)
        s = compute_scales(w, NVFP4, 16)
        assert (s == np.float32(BF16_MIN_NORMAL)).all()

    def test_int4_absmax_with_bf16_storage_rounding(self):
        # 3.1 / 8 = 0.3875 is not a BF16 value; the stored scale is the
        # nearest BF16, bumped one step up if rounding down would clip.
        w = np.zeros((1, 128), dtype=np.float32)
        w[0, 0] = 3.1
        s = float(compute_scales(w, INT4, 128)[0, 0])
        grid, _ = bf16_positive_grid()
        cand = bf16_nearest(grid, 3.1 / 8)
        if cand * 8 < np.float32(3.1):
            cand = grid[np.searchsorted(grid, cand) + 1]
        assert s == cand
        assert abs(s - 3.1 / 8) / (3.1 / 8) < 2.0**-8

    def test_strictly_positive_on_random_matrices(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = rng.standard_normal((8, 64)).astype(np.float32)
            w[rng.integers(0, 8)] = 0.0  # an all-zero row
            for fmt, g in ((NVFP4, 16), (INT4, 64)):
                s = compute_scales(w, fmt, g)
                assert (s > 0).all() and np.isfinite(s).all()

    def test_subnormal_absmax_keeps_scale_positive(self):
        # absmax/6 underflows float32; the ulp bump must rescue the scale
        w = np.zeros((1, 16), dtype=np.float32)
        w[0, 0] = np.float32(1.4e-45)
        for mode in ("exact-bf16", "emulate-e4m3"):
            s = compute_scales(w, NVFP4, 16, mode)
            assert (s > 0).all()
            assert abs(w[0, 0]) / s[0, 0] <= 6.0

    def test_never_clips_in_exact_bf16_mode(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            w = (rng.standard_normal((4, 64)) * 10 ** rng.uniform(-3, 3)).astype(np.float32)
            for fmt, g in ((NVFP4, 16), (INT4, 32)):
                s = compute_scales(w, fmt, g)
                w_norm = w.astype(np.float64) / np.repeat(s.astype(np.float64), g, axis=1)
                assert np.abs(w_norm).max() <= fmt.grid_absmax

    def test_emulate_e4m3_mode(self):
        rng = np.random.default_rng(8)
        w = rng.standard_normal((4, 64)).astype(np.float32)
        s = compute_scales(w, NVFP4, 16, "emulate-e4m3")
        grid = e4m3_nonneg_grid()
        assert np.isin(s.astype(np.float64), grid).all()
        assert (s >= E4M3_MIN_POSITIVE).all() and (s <= E4M3_MAX).all()
        zero = compute_scales(np.zeros((1, 16), np.float32), NVFP4, 16, "emulate-e4m3")
        assert zero[0, 0] == np.float32(E4M3_MIN_POSITIVE)

    def test_layout_and_mode_errors(self):
        w = np.ones((2, 20), dtype=np.float32)
        with pytest.raises(LayoutError):
            compute_scales(w, NVFP4, 16)
        with pytest.raises(ValidationError):
            compute_scales(np.ones((2, 16), np.float32), NVFP4, 16, "fp8-e5m2")


# ---------------------------------------------------------------------------
# Group absmax against the formulation it replaced
# ---------------------------------------------------------------------------


def reshape_absmax(w, g):
    """The per-group absmax as one reduction over the short group axis."""
    n, k = w.shape
    return np.abs(w).reshape(n, k // g, g).max(axis=2)


def reshape_scales(w, fmt, g, mode):
    """`compute_scales` as written before the absmax and scale steps split."""
    absmax = reshape_absmax(w, g)
    grid_max = np.float32(fmt.grid_absmax)
    raw = np.where(absmax > 0, absmax / grid_max, np.float32(BF16_MIN_NORMAL))
    if mode == "emulate-e4m3":
        s = round_e4m3(raw.astype(np.float64))
        return np.clip(s, E4M3_MIN_POSITIVE, E4M3_MAX).astype(np.float32)
    s = round_bf16(raw)
    clips = s.astype(np.float64) * float(grid_max) < absmax.astype(np.float64)
    return np.where(clips, _next_bf16_up(s), s)


_SPECIAL_WEIGHTS = [0.0, -0.0, 1e-45, -1e-45, 1e-40, 1.17e-38, 3.4e38, -3.4e38,
                    np.inf, -np.inf, np.nan]


@st.composite
def absmax_cases(draw):
    """A float32 matrix in groups of g: ordinary weights mixed with signed
    zeros, subnormals, near-overflow values, infinities and NaN."""
    g = draw(st.sampled_from([1, 3, 16, 128, 6, 96]))
    rows, groups = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    values = st.floats(width=32, allow_nan=False, allow_infinity=False) | st.sampled_from(
        _SPECIAL_WEIGHTS)
    flat = draw(st.lists(values, min_size=1, max_size=rows * groups * g))
    seed = draw(st.integers(0, 2**32 - 1))
    w = np.random.default_rng(seed).standard_normal(rows * groups * g).astype(np.float32)
    w[np.random.default_rng(seed).permutation(w.size)[:len(flat)]] = flat
    return w.reshape(rows, groups * g), g


class TestGroupAbsmax:
    @given(absmax_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_one_reduction_over_the_group_axis(self, case):
        w, g = case
        got = group_absmax(w, g)
        want = reshape_absmax(w, g)
        assert got.dtype == np.float32 and got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        # Zeros of either sign come back as +0, as np.abs gives them.
        assert not np.signbit(got[got == 0]).any()

    @given(absmax_cases(), st.sampled_from(SCALE_MODES), st.sampled_from([NVFP4, INT4]))
    @settings(max_examples=300, deadline=None)
    def test_scales_match_the_single_function(self, case, mode, fmt):
        w, g = case
        got = compute_scales(w, fmt, g, mode)
        assert got.dtype == np.float32
        assert np.array_equal(got, reshape_scales(w, fmt, g, mode), equal_nan=True)
        assert np.array_equal(got, scales_from_absmax(group_absmax(w, g), fmt, mode),
                              equal_nan=True)

    @pytest.mark.parametrize("g", [3, 65, 6 * 65])
    def test_odd_group_widths_reduce_along_the_row(self, g):
        rng = np.random.default_rng(11)
        w = rng.standard_normal((3, 2 * g)).astype(np.float32)
        w[1, g + g // 2] = -50.0
        assert np.array_equal(group_absmax(w, g), reshape_absmax(w, g))
        assert group_absmax(w, g)[1, 1] == 50.0

    def test_non_contiguous_and_empty_inputs(self):
        w = np.random.default_rng(12).standard_normal((32, 6)).astype(np.float32)
        assert np.array_equal(group_absmax(w.T, 16), reshape_absmax(w.T, 16))
        assert group_absmax(np.zeros((0, 32), np.float32), 16).shape == (0, 2)
