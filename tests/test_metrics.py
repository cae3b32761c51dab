"""Output-error metrics, gap recovery, FP8 activation simulation, compare."""

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from aaacq import grids, metrics, quantizers
from aaacq.cli import main
from aaacq.codebooks import AaacConfig, calibration, importance, weighted_error
from aaacq.errors import UndefinedGapError, ValidationError
from aaacq.grids import INT4, NVFP4, round_bf16
from aaacq.metrics import (
    bits_per_weight,
    compare,
    gap_recovery,
    layer_output_mse,
    quantize_layer,
    score,
    simulate_w4a8,
)
from aaacq.packfmt import layer_to_bytes, pack, reconstruct, unpack
from aaacq.quantizers import if4_quantize, if4_tables, rtn_quantize
from aaacq.tensors import LayerBundle, SynthSpec, save_tensor_archive, synth_layer


class TestLayerOutputMse:
    def test_zero_when_equal(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((4, 8)).astype(np.float32)
        x = rng.standard_normal((5, 8)).astype(np.float32)
        assert layer_output_mse(w, w, x) == 0.0

    def test_activations_of_another_column_count_are_rejected(self):
        w = np.ones((4, 8), np.float32)
        with pytest.raises(ValidationError, match="activations"):
            layer_output_mse(w, w, np.ones((5, 6), np.float32))

    def test_identity_probe_reduces_to_frobenius(self):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((4, 8)).astype(np.float32)
        w_hat = (w + rng.standard_normal((4, 8)) * 0.1).astype(np.float32)
        x = np.eye(8, dtype=np.float32)
        d = w_hat.astype(np.float64) - w.astype(np.float64)
        want = float((d * d).sum()) / 8
        assert layer_output_mse(w, w_hat, x) == pytest.approx(want, rel=1e-12)

    def test_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((3, 5)).astype(np.float32)
        w_hat = (w + rng.standard_normal((3, 5)) * 0.3).astype(np.float32)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        want = 0.0
        for t in range(4):
            for n in range(3):
                acc = 0.0
                for k in range(5):
                    acc += float(x[t, k]) * (float(w_hat[n, k]) - float(w[n, k]))
                want += acc * acc
        want /= 4
        assert layer_output_mse(w, w_hat, x) == pytest.approx(want, rel=1e-12)

    def test_elementwise_improvement_with_orthogonal_probe(self):
        # With diagonal activations the output error is separable per column,
        # so a reconstruction that is elementwise at least as close can never
        # produce a larger output error.
        rng = np.random.default_rng(3)
        w = rng.standard_normal((4, 6)).astype(np.float32)
        err = rng.standard_normal((4, 6)).astype(np.float32)
        far = (w + err).astype(np.float32)
        near = (w + 0.5 * err).astype(np.float32)
        x = (np.eye(6) * rng.uniform(0.5, 2, 6)).astype(np.float32)
        assert layer_output_mse(w, near, x) <= layer_output_mse(w, far, x)


class TestGapRecovery:
    def test_reference_anchor_values(self):
        assert gap_recovery(7.85, 8.77, 8.32) == pytest.approx(48.9, abs=0.1)
        assert gap_recovery(5.28, 5.48, 5.36) == pytest.approx(60.0, abs=0.1)

    def test_method_equal_to_baseline_is_zero(self):
        assert gap_recovery(1.0, 2.0, 2.0) == 0.0

    def test_full_recovery_is_hundred(self):
        assert gap_recovery(1.0, 2.0, 1.0) == 100.0

    def test_can_exceed_hundred_or_go_negative(self):
        assert gap_recovery(1.0, 2.0, 0.5) > 100.0
        assert gap_recovery(1.0, 2.0, 2.5) < 0.0

    def test_higher_better_direction(self):
        assert gap_recovery(80.0, 70.0, 75.0, "higher-better") == pytest.approx(50.0)

    def test_undefined_gap(self):
        with pytest.raises(UndefinedGapError):
            gap_recovery(5.0, 5.0, 4.0)

    def test_unknown_direction(self):
        with pytest.raises(ValidationError):
            gap_recovery(1.0, 2.0, 1.5, "sideways")


class TestSimulateW4a8:
    def test_extreme_values_round_trip(self):
        x = np.asarray([[1000.0, -1000.0]], dtype=np.float32)
        out = simulate_w4a8(x)
        assert np.array_equal(out, x)

    def test_zero_tensor_passes_through(self):
        x = np.zeros((3, 4), dtype=np.float32)
        assert np.array_equal(simulate_w4a8(x), x)

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = (rng.standard_normal((32, 64)) * 10 ** rng.uniform(-2, 2)).astype(np.float32)
            once = simulate_w4a8(x)
            assert np.array_equal(simulate_w4a8(once), once)

    def test_values_on_grid_with_max_absmax_unchanged(self):
        from test_grids import e4m3_nonneg_grid

        grid = e4m3_nonneg_grid()
        x = np.concatenate([grid, -grid]).astype(np.float32)[np.newaxis, :]
        assert float(np.abs(x).max()) == 448.0
        assert np.array_equal(simulate_w4a8(x), x)

    def test_relative_error_bound_in_normal_range(self):
        rng = np.random.default_rng(5)
        x = (rng.standard_normal((100, 100)) * 3).astype(np.float32)
        out = simulate_w4a8(x)
        scale = float(np.abs(x).max()) / 448.0
        normal = np.abs(x.astype(np.float64) / scale) >= 2.0**-6
        rel = np.abs(out.astype(np.float64) - x.astype(np.float64)) / np.abs(
            x.astype(np.float64), where=normal, out=np.ones_like(x, dtype=np.float64)
        )
        assert rel[normal].max() <= 2.0**-3

    def test_matches_the_whole_tensor_formula_on_any_magnitude(self):
        # Tiny, subnormal and +-3e38 inputs, in tensors of several shapes
        # through one scratch, against the formula on whole-tensor temporaries.
        def whole(x):
            scale = float(np.abs(x).max()) / 448.0
            a = np.abs(x).astype(np.float64) / scale
            quantum = np.ldexp(1.0, np.maximum(np.frexp(a)[1] - 1, -6) - 3)
            mag = np.minimum(np.rint(a / quantum) * quantum, 448.0) * scale
            return np.copysign(mag, x.astype(np.float64)).astype(np.float32)

        rng = np.random.default_rng(8)
        scratch = metrics.Scratch()
        for shape, low, high in (((32, 64), -45, -30), ((8, 16), -45, 38), ((48, 96), -3, 38.5)):
            x = rng.standard_normal(shape) * 10.0 ** rng.uniform(low, high, shape)
            x = np.clip(x, -3e38, 3e38).astype(np.float32)
            x[0, :3] = (1e-45, -3e38, 0.0)
            assert _same_array(simulate_w4a8(x, scratch), whole(x))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_activations_are_refused(self, bad):
        # Once an all-NaN result for NaN, and a RuntimeWarning for inf.
        x = np.ones((4, 8), np.float32)
        x[3, 5] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            simulate_w4a8(x)

    def test_float64_activations_of_float32_values_round_as_those(self, monkeypatch):
        # Scoring rounds its float64 activations buffer, read from a float32
        # tensor; blocks of 96 values, so the last is short.
        monkeypatch.setattr(grids, "BLOCK", 96)
        x = (np.random.default_rng(9).standard_normal((20, 16)) * 7).astype(np.float32)
        wide = x.astype(np.float64)
        got = simulate_w4a8(wide)
        assert _same_array(got, simulate_w4a8(x))
        assert _same_array(wide, x.astype(np.float64))  # read, never written

    def test_sign_preserved(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((16, 16)).astype(np.float32)
        out = simulate_w4a8(x)
        nz = out != 0
        assert (np.sign(out[nz]) == np.sign(x[nz])).all()


class TestBitsPerWeight:
    def test_itemization(self):
        parts = bits_per_weight(8, 256, group_size=128, sel_size=16, table_size=16)
        assert parts["code_bpw"] == 4.0
        assert parts["scale_bpw"] == 0.125
        assert parts["selection_bpw"] == 0.0625
        assert parts["codebook_bpw"] == 32.0 * 16 / 2048
        assert parts["total_bpw"] == pytest.approx(4.4375)

    def test_no_selection_overhead_when_sizes_match(self):
        parts = bits_per_weight(8, 256, group_size=128, sel_size=128, table_size=16)
        assert parts["selection_bpw"] == 0.0

    def test_bpw_at_least_four(self):
        for g, s, m in [(16, 16, 15), (128, 16, 16), (128, 128, 16)]:
            assert bits_per_weight(64, 512, g, s, m)["total_bpw"] >= 4.0

    @pytest.mark.parametrize("g, s", [(0, 0), (16, 3), (16, 32), (-16, -16), (48, 16)],
                             ids=["zero", "S-does-not-divide-g", "S-above-g", "negative",
                                  "g-does-not-divide-cols"])
    def test_group_sizes_are_checked(self, g, s):
        # Once a ZeroDivisionError at g = 0, and a number for S = 3 under g = 16.
        with pytest.raises(ValidationError):
            bits_per_weight(64, 512, g, s, 16)


def mixture_suite(n=4, seed=100):
    return [
        synth_layer(SynthSpec("mixture", 16, 128, 32, seed=seed + i), name=f"mix{i}")
        for i in range(n)
    ]


class TestCompare:
    def test_rtn_only_has_no_recovery_block(self):
        report = compare(mixture_suite(2), ["rtn"], AaacConfig.for_format(NVFP4))
        assert report.recovery is None
        assert len(report.rows) == 2
        assert {r.method for r in report.rows} == {"rtn"}

    def test_adaptive_beats_rtn_on_every_mixture_layer(self):
        bundles = mixture_suite(4)
        report = compare(bundles, ["rtn", "aaac"], AaacConfig.for_format(NVFP4))
        rtn = {r.layer: r.weighted_err for r in report.rows if r.method == "rtn"}
        ada = {r.layer: r.weighted_err for r in report.rows if r.method == "aaac"}
        for layer in rtn:
            assert ada[layer] < rtn[layer]
        # the oracle: recompute one layer's weighted error independently
        b = bundles[0]
        row = next(r for r in report.rows if r.method == "rtn" and r.layer == b.name)
        from aaacq.quantizers import dequantize_rtn, rtn_quantize

        codes, scales = rtn_quantize(b.weights, NVFP4, 16)
        w_hat = dequantize_rtn(codes, scales, NVFP4, 16)
        assert row.weighted_err == weighted_error(b.weights, w_hat, importance(b.activations))
        assert report.recovery["aaac"] > 0

    def test_rows_sorted_and_deterministic(self):
        bundles = mixture_suite(3)
        cfg = AaacConfig.for_format(NVFP4)
        r1 = compare(bundles, ["aaac", "rtn", "if4"], cfg)
        r2 = compare(bundles, ["rtn", "if4", "aaac"], cfg)
        keys = [(r.method, r.layer) for r in r1.rows]
        assert keys == sorted(keys)
        assert r1.to_csv() == r2.to_csv()
        assert r1.to_json() == r2.to_json()

    def test_unknown_method(self):
        with pytest.raises(ValidationError, match="rtn"):
            compare(mixture_suite(1), ["gptq"], AaacConfig.for_format(NVFP4))

    def test_json_and_csv_forms(self):
        report = compare(mixture_suite(2), ["rtn", "if4"], AaacConfig.for_format(NVFP4))
        doc = json.loads(report.to_json())
        assert set(doc) == {"layers", "aggregates", "recovery"}
        assert len(doc["layers"]) == 4
        lines = report.to_csv().strip().split("\n")
        assert lines[0] == "layer,method,mse,weighted_err,output_mse,bpw"
        assert len(lines) == 5
        text = report.to_text()
        assert "gap recovery" in text and "(mean)" in text

    def test_int4_selection_granularity_helps(self):
        # Finer selection groups can only expand the per-group choices.
        bundles = mixture_suite(3, seed=200)
        coarse = compare(bundles, ["aaac"], AaacConfig.for_format(INT4, sel_size=128))
        fine = compare(bundles, ["aaac"], AaacConfig.for_format(INT4, sel_size=16))
        assert (
            fine.aggregates["aaac"]["weighted_err"]
            <= coarse.aggregates["aaac"]["weighted_err"] * 1.02
        )


FLT_MAX = float(np.finfo(np.float32).max)


def _weights(rows, cols, seed, near_flt_max=False):
    """Laplace rows whose magnitudes span 10**-30 to 10**30, one all-zero group,
    or with `near_flt_max` rows near float32's largest value."""
    rng = np.random.default_rng(seed)
    if near_flt_max:
        w = rng.uniform(-1, 1, (rows, cols)) * FLT_MAX
        w[:, ::16] = FLT_MAX
    else:
        w = rng.laplace(size=(rows, cols)) * 10.0 ** rng.uniform(-30, 30, (rows, 1))
        w[0, :16] = 0.0
    return w.astype(np.float32)


def _whole_layer(w, method, cfg):
    """The pack `quantize_layer` made before it worked in row blocks."""
    if method == "rtn":
        codes, scales = rtn_quantize(w, cfg.fmt, cfg.group_size, cfg.scale_mode)
        t0 = t1 = np.asarray(cfg.fmt.table)
        sel, kind = np.zeros(scales.shape, np.uint8), cfg.fmt.kind
    else:
        codes, scales, sel = if4_quantize(w, cfg.group_size, cfg.scale_mode)
        (t0, t1), kind = if4_tables(), "nvfp4"
    return pack(t0, t1, sel, codes, scales, kind=kind, group_size=cfg.group_size,
                sel_size=cfg.group_size, method=method)


def _whole_decode(p):
    """The decode of a whole layer by its formula, without `dequantize`: each
    code's entry in its group's table times the group's scale, in float64,
    saturated at float32's largest finite value."""
    t0, t1, sel, codes, scales = unpack(p)
    exact = np.where(sel.repeat(p.sel_size, axis=1), t1[codes], t0[codes]).astype(np.float64)
    exact *= scales.astype(np.float64).repeat(p.group_size, axis=1)
    return np.clip(exact, -FLT_MAX, FLT_MAX).astype(np.float32)


def _owner(a):
    """The array that owns `a`'s memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def _same_array(a, b):
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _score(b, p, scratch):
    """`score` of a pack on its bundle's calibration, read onto `scratch` as `eval` reads it."""
    return score(b, p, *calibration(b, scratch), scratch)


class TestRowBlocks:
    """Quantizing and decoding by row blocks gives the whole-layer bytes."""

    # (rows, cols, values per block): blocks of 2, 2, 2 and 1 rows; a row of
    # 512 values in blocks of 128; a layer smaller than the default block;
    # the default block on 40 rows of 4096 (16, 16 and 8 rows); rows near FLT_MAX.
    CASES = {
        "ragged-last-block": (7, 256, 512, False),
        "row-wider-than-block": (3, 512, 128, False),
        "fewer-rows-than-block": (3, 256, grids.BLOCK, False),
        "default-block": (40, 4096, grids.BLOCK, False),
        "near-flt-max": (4, 256, 256, True),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("method", ["rtn", "if4"])
    def test_quantize_and_decode_match_whole_layer(self, monkeypatch, case, method):
        rows, cols, block, near_flt_max = self.CASES[case]
        monkeypatch.setattr(grids, "BLOCK", block)
        bundle = LayerBundle("w", _weights(rows, cols, len(case), near_flt_max))
        for fmt, g in ((NVFP4, 16), (INT4, 128)):
            for mode in ("exact-bf16", "emulate-e4m3"):
                cfg = AaacConfig(fmt=fmt, group_size=g, sel_size=g, scale_mode=mode)
                got, _ = quantize_layer(bundle, method, cfg, metrics.Scratch())
                want = _whole_layer(bundle.weights, method, cfg)
                assert layer_to_bytes("w", got) == layer_to_bytes("w", want), (fmt.kind, mode)
                w_hat = reconstruct(got)
                assert _same_array(w_hat, _whole_decode(got)), (fmt.kind, mode)
                # BF16 scales round up, so near FLT_MAX some groups saturate.
                saturates = np.abs(w_hat).max() == np.float32(FLT_MAX)
                assert saturates == (near_flt_max and mode == "exact-bf16"), (fmt.kind, mode)

    @pytest.mark.parametrize("g, s", [(16, 16), (128, 16), (64, 8)])
    def test_decode_of_any_pack_matches_whole_layer(self, monkeypatch, g, s):
        # Random tables, codes, selections (sign bits or a bitset) and scales
        # up to 2**127, so some groups saturate.
        monkeypatch.setattr(grids, "BLOCK", 384)
        rng = np.random.default_rng(g + s)
        rows, cols = 9, 256
        t0, t1 = (np.sort(round_bf16(np.append(rng.standard_normal(15) * 4, 16.0)))
                  for _ in range(2))
        scales = round_bf16((2.0 ** rng.uniform(-30, 127, (rows, cols // g))).astype(np.float32))
        codes = rng.integers(0, 16, (rows, cols)).astype(np.uint8)
        scales[-1, -1], codes[-1, -1] = 2.0 ** 127, 15  # 16 * 2**127 saturates
        p = pack(t0, t1, rng.integers(0, 2, (rows, cols // s)).astype(np.uint8), codes, scales,
                 kind="int4", group_size=g, sel_size=s)
        w_hat = reconstruct(p)
        assert _same_array(w_hat, _whole_decode(p))
        assert np.abs(w_hat).max() == np.float32(FLT_MAX)

    @pytest.mark.parametrize("case", [
        "rtn", "if4", "subnormal-scales", "saturating", "aaac-int4-bitset", "ragged-last-block",
    ])
    def test_layer_metrics_equal_the_whole_layer_formulas(self, monkeypatch, case):
        # Blocks of 8 rows of 256 values; the formulas read the whole-layer decode.
        monkeypatch.setattr(grids, "BLOCK", 8 * 256)
        b, p = _scored_pack(case)
        h = _whole_decode(p)
        if case == "subnormal-scales":  # entry * scale falls below float32's normal range
            assert ((h != 0) & (np.abs(h) < np.finfo(np.float32).tiny)).sum() > 100
        if case == "saturating":
            assert np.abs(h).max() == np.float32(FLT_MAX)
        if case == "ragged-last-block":
            assert b.rows % 8 != 0
        w64, h64 = b.weights.astype(np.float64), h.astype(np.float64)
        x = b.activations.astype(np.float64)
        scratch = metrics.Scratch()
        imp = calibration(b, scratch)[1]
        for row, x_out in ((_score(b, p, scratch), x), (score(b, p, x[:5], imp, scratch), x[:5])):
            d = w64 - h64
            assert row.mse == float((d * d).mean())
            assert row.weighted_err == float((d * d * importance(b.activations)).sum())
            e = x_out @ (h64 - w64).T
            assert row.output_mse == float((e * e).sum() / x_out.shape[0])


def _scored_pack(case):
    """(bundle, pack) of one case of `test_layer_metrics_equal_the_whole_layer_formulas`."""
    if case in ("rtn", "if4", "ragged-last-block"):
        rows = 27 if case == "ragged-last-block" else 24
        b = synth_layer(SynthSpec("mixture", rows, 256, 16, seed=7), name="m")
        return b, quantize_layer(b, "rtn" if rows == 27 else case, AaacConfig.for_format(NVFP4),
                                 metrics.Scratch())[0]
    if case == "aaac-int4-bitset":  # -g 128 -S 16
        b = synth_layer(SynthSpec("mixture", 24, 256, 16, seed=8), name="m")
        p = quantize_layer(b, "aaac", AaacConfig.for_format(INT4, sel_size=16), metrics.Scratch())[0]
        assert p.has_bitset
        return b, p
    # Random BF16 tables, codes and sign-bit selections.  Scales near BF16's
    # smallest subnormal 2**-133 times entries down to 1e-4 give products
    # that float32 rounds; scales up to 2**127 saturate 16 * scale.
    rng = np.random.default_rng(len(case))
    rows, cols, g = 16, 256, 16
    spread = 10.0 ** rng.uniform(-4, 1, 15) if case == "subnormal-scales" else 4.0
    t0, t1 = (np.sort(round_bf16(np.append(rng.standard_normal(15) * spread, 16.0)))
              for _ in range(2))
    codes = rng.integers(0, 16, (rows, cols)).astype(np.uint8)
    sel = rng.integers(0, 2, (rows, cols // g)).astype(np.uint8)
    if case == "subnormal-scales":
        scales = round_bf16((2.0 ** rng.uniform(-133, -120, (rows, cols // g))).astype(np.float32))
        w = (rng.standard_normal((rows, cols)) * 2.0 ** -128).astype(np.float32)
    else:
        scales = round_bf16((2.0 ** rng.uniform(-30, 127, (rows, cols // g))).astype(np.float32))
        scales[-1, -1], codes[-1, -1] = 2.0 ** 127, 15  # 16 * 2**127 saturates
        w = _weights(rows, cols, 1)
    x = rng.standard_normal((16, cols)).astype(np.float32)
    p = pack(t0, t1, sel, codes, scales, kind="int4", group_size=g, sel_size=g)
    return LayerBundle("m", w, x), p


class TestScoreInputs:
    """`score` refuses activations and importance that do not fit the layer."""

    @staticmethod
    def _layer():
        b = synth_layer(SynthSpec("mixture", 8, 64, 16, seed=3), name="m")
        return b, quantize_layer(b, "rtn", AaacConfig.for_format(NVFP4), metrics.Scratch())[0]

    @pytest.mark.parametrize("shape", [(64,), (16, 63), (16, 65), (2, 16, 64)])
    def test_activations_without_the_layers_columns(self, shape):
        b, p = self._layer()
        with pytest.raises(ValidationError, match="activations"):
            score(b, p, np.ones(shape), np.ones(b.cols), metrics.Scratch())

    @pytest.mark.parametrize("shape", [(63,), (65,), (1, 64), ()])
    def test_importance_of_another_shape(self, shape):
        b, p = self._layer()
        with pytest.raises(ValidationError, match="importance"):
            score(b, p, None, np.ones(shape), metrics.Scratch())

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf, -np.inf])
    def test_negative_or_nonfinite_importance(self, bad):
        b, p = self._layer()
        imp = np.ones(b.cols)
        imp[5] = bad
        with pytest.raises(ValidationError, match="finite and non-negative"):
            score(b, p, None, imp, metrics.Scratch())

    def test_zero_importance_scores_zero(self):
        # An explicit zero is not taken for unit importance, as the learner takes it.
        b, p = self._layer()
        row = score(b, p, None, np.zeros(b.cols), metrics.Scratch())
        assert row.weighted_err == 0.0 and row.mse > 0.0 and row.output_mse is None


class TestScratch:
    """One scratch serves a worker's layers: reused, exact, and gone with its command."""

    def test_a_second_same_shape_layer_reuses_the_buffers(self, monkeypatch):
        # Each layer is quantized with rtn and with if4, and each pack scored,
        # all on one scratch.  The second layer takes no buffer the first did
        # not, so it peaks at least its float64 difference lower; and rtn's and
        # if4's float64 block is the decoder's.
        cfg = AaacConfig.for_format(NVFP4)
        a, b = (synth_layer(SynthSpec("laplace", 64, 1024, 32, seed=s), name="l") for s in (0, 1))
        taken, blocks = [], {"quantize": [], "decode": []}
        take, recon, scale = metrics.Scratch.take, quantizers.recon_codes, quantizers._scale_decoded

        def spy_take(self, name, shape, dtype=np.float64):
            out = take(self, name, shape, dtype)
            taken.append(_owner(out))
            return out

        def spy_recon(table, values, *args, **kwargs):  # rtn's and if4's code search
            blocks["quantize"].append(_owner(values))
            return recon(table, values, *args, **kwargs)

        def spy_scale(values, *args):  # if4's decode of its candidates, and the decoder's
            blocks["decode"].append(_owner(values))
            return scale(values, *args)

        monkeypatch.setattr(metrics.Scratch, "take", spy_take)
        monkeypatch.setattr(quantizers, "recon_codes", spy_recon)
        monkeypatch.setattr(quantizers, "_scale_decoded", spy_scale)
        scratch = metrics.Scratch()

        def quantize_and_score(layer):
            for method in ("rtn", "if4"):
                _score(layer, quantize_layer(layer, method, cfg, scratch)[0], scratch)

        first = TestWithinLayerPeak._peak(lambda: quantize_and_score(a))
        held = len(taken)
        second = TestWithinLayerPeak._peak(lambda: quantize_and_score(b))
        assert {id(o) for o in taken[held:]} <= {id(o) for o in taken[:held]}
        assert first - second >= 8 * a.rows * a.cols
        assert blocks["quantize"] and blocks["decode"]
        assert len({id(o) for o in blocks["quantize"] + blocks["decode"]}) == 1

    def test_big_small_big_layers_score_as_on_a_fresh_scratch(self):
        cfg = AaacConfig.for_format(NVFP4)
        scratch = metrics.Scratch()
        for i, (rows, cols, tokens) in enumerate([(48, 512, 32), (8, 128, 8), (40, 768, 48)]):
            b = synth_layer(SynthSpec("mixture", rows, cols, tokens, seed=i), name=f"l{i}")
            for method in ("rtn", "if4"):
                p, _ = quantize_layer(b, method, cfg, scratch)
                assert _score(b, p, scratch) == _score(b, p, metrics.Scratch())
                # The W4A8 result survives the scoring that borrows its work arrays.
                x_out = simulate_w4a8(b.activations, scratch)
                assert _same_array(x_out, simulate_w4a8(b.activations))
                imp = calibration(b, scratch)[1]
                want = score(b, p, simulate_w4a8(b.activations), imp, metrics.Scratch())
                assert score(b, p, x_out, imp, scratch) == want

    def test_no_buffer_outlives_eval(self, monkeypatch, tmp_path):
        taken = []
        take = metrics.Scratch.take

        def spy(self, name, shape, dtype=np.float64):
            out = take(self, name, shape, dtype)
            taken.append(weakref.ref(out.base))
            return out

        monkeypatch.setattr(metrics.Scratch, "take", spy)
        arch, pack_path = tmp_path / "a.safetensors", tmp_path / "m.aaacq"
        save_tensor_archive(arch, [
            synth_layer(SynthSpec("laplace", 16, 256, 8, seed=i), name=f"layer{i}")
            for i in range(3)
        ])
        assert main(["quantize", str(arch), "--out", str(pack_path), "--method", "rtn"]) == 0
        for flags in ([], ["--w4a8"]):
            assert main(["eval", str(pack_path), str(arch), "--json",
                         "--out", str(tmp_path / "r.json"), *flags]) == 0
        gc.collect()
        assert len(taken) >= 3 * 3 + 3 * 5
        assert all(ref() is None for ref in taken)


class TestWithinLayerPeak:
    """Traced peak of one layer's quantize and score, in float32 layers.

    On a 256x1024 layer (four blocks), whole-layer temporaries peaked at
    6.8x (rtn) and 8.5-8.8x (if4) the float32 weights to quantize, 9.1x to
    score; row blocks take 2.0-2.6x and 3.8x.
    """

    ROWS, COLS, TOKENS = 256, 1024, 64

    @staticmethod
    def _peak(fn) -> int:
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", [NVFP4, INT4], ids=["nvfp4", "int4"])
    @pytest.mark.parametrize("method", ["rtn", "if4"])
    def test_quantize_and_score(self, method, fmt):
        b = synth_layer(SynthSpec("laplace", self.ROWS, self.COLS, self.TOKENS, seed=0), name="l")
        assert b.rows * b.cols >= 4 * grids.BLOCK
        layer = 4 * b.rows * b.cols
        cfg = AaacConfig.for_format(fmt)
        p, _ = quantize_layer(b, method, cfg, metrics.Scratch())
        assert self._peak(lambda: quantize_layer(b, method, cfg, metrics.Scratch())) < 3.0 * layer
        assert self._peak(lambda: _score(b, p, metrics.Scratch())) < 4.5 * layer
