"""Nearest-entry reconstruction, RTN, IF4, and dequantization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aaacq.errors import CorruptionError, LayoutError, ValidationError
from aaacq.grids import INT4, NVFP4, base_table, compute_scales
from aaacq.quantizers import (
    dequantize,
    dequantize_rtn,
    expand_groups,
    if4_quantize,
    if4_tables,
    normalize,
    recon,
    recon_codes,
    rtn_quantize,
)


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

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(1)
        table = np.sort(rng.standard_normal(15))
        xs = rng.standard_normal(100)
        codes = recon_codes(table, xs)
        for x, c in zip(xs, codes):
            assert int(c) == brute_force_recon(table, x)[0]


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
        fp4_groups = expand_groups(bits == 0, 16)
        assert (codes[fp4_groups] <= 14).all()


class TestNormalize:
    def test_round_trip_with_expand(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((4, 32)).astype(np.float32)
        s = compute_scales(w, NVFP4, 16)
        w_norm = normalize(w, s, 16)
        back = w_norm * expand_groups(s.astype(np.float64), 16)
        assert np.allclose(back, w, rtol=1e-12, atol=0)
