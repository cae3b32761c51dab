"""Acceptance suite: ten criteria, one test and one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines and timings.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from aaacq.cli import main as cli_main
from aaacq.codebooks import (
    AaacConfig,
    importance,
    init_tables,
    learn,
    select_tables,
    weighted_error,
)
from aaacq.errors import CorruptionError
from aaacq.grids import INT4, NVFP4, base_table, round_bf16
from aaacq.metrics import gap_recovery, simulate_w4a8
from aaacq.packfmt import (
    PackedLayer,
    model_to_bytes,
    pack,
    read_pack,
    size_breakdown,
    unpack,
)
from aaacq.quantizers import (
    dequantize,
    dequantize_rtn,
    if4_quantize,
    if4_tables,
    normalize,
    recon_codes,
    rtn_quantize,
)
from aaacq.tensors import SynthSpec, synth_layer


@contextmanager
def criterion(number, name, budget_s):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({name}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number} ({name}): PASS in {elapsed:.2f}s")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s budget"


# ---------------------------------------------------------------------------
# Shared 200-layer synthetic suite (criteria 3 and 4)
# ---------------------------------------------------------------------------

SUITE_SIZE = 200


def _suite_config(i):
    fmt_cycle = i % 3
    if fmt_cycle == 0:
        return AaacConfig.for_format(NVFP4)
    if fmt_cycle == 1:
        return AaacConfig.for_format(INT4)
    return AaacConfig.for_format(INT4, sel_size=16)


@pytest.fixture(scope="module")
def layer_suite():
    kinds = ["mixture", "gaussian", "mixture", "laplace"]
    rows_choices = [8, 16, 32, 64]
    cols_choices = [128, 256, 512]
    start = time.perf_counter()
    entries = []
    for i in range(SUITE_SIZE):
        spec = SynthSpec(
            kinds[i % 4], rows_choices[i % 4], cols_choices[i % 3], 32, seed=i
        )
        bundle = synth_layer(spec, name=f"suite{i:03d}")
        cfg = _suite_config(i)
        result = learn(bundle, cfg)
        entries.append((bundle, cfg, result))
    return {"entries": entries, "build_s": time.perf_counter() - start}


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------


def test_criterion_1_grid_golden():
    with criterion(1, "grid golden values and codebook block sizes", 1.0):
        nvfp4 = base_table(NVFP4)
        assert nvfp4.tolist() == [
            -6.0, -4.0, -3.0, -2.0, -1.5, -1.0, -0.5,
            0.0,
            0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0,
        ]
        assert base_table(INT4).tolist() == [float(v) for v in range(-8, 8)]
        assert size_breakdown(1, 16, 16, 16, 15)["codebook_bytes"] == 60
        assert size_breakdown(1, 16, 16, 16, 16)["codebook_bytes"] == 64


def test_criterion_2_recon_oracle_equivalence():
    with criterion(2, "sorted-search recon equals exhaustive argmin", 5.0):
        rng = np.random.default_rng(2024)
        total = 0
        mismatches = 0
        while total < 100_000:
            m = int(rng.integers(1, 17))
            table = np.sort(rng.standard_normal(m) * 10 ** rng.uniform(-2, 2))
            if m > 2 and rng.random() < 0.4:  # inject duplicate entries
                j = int(rng.integers(1, m))
                table[j] = table[j - 1]
                table = np.sort(table)
            queries = rng.standard_normal(40) * 10 ** rng.uniform(-2, 2)
            if m > 1:
                mids = (table[:-1] + table[1:]) / 2  # exact midpoints
                queries = np.concatenate([queries, mids])
            got = recon_codes(table, queries)
            want = np.argmin(np.abs(queries[:, None] - table[None, :]), axis=1)
            mismatches += int((got != want).sum())
            total += queries.size
        assert total >= 100_000
        assert mismatches == 0


def test_criterion_3_objective_trace_monotonicity(layer_suite):
    with criterion(3, "assignment and k-means steps never increase the objective",
                   60.0 - layer_suite["build_s"]):
        assert len(layer_suite["entries"]) == SUITE_SIZE
        for bundle, cfg, result in layer_suite["entries"]:
            trace = result.trace
            assert trace.size == cfg.n_outer * (1 + cfg.n_inner)
            tol = 1e-7 * trace[0]
            assert (np.diff(trace) <= tol).all(), bundle.name


def test_criterion_4_dominance(layer_suite):
    with criterion(4, "learned tables dominate quantile init and beat rtn",
                   60.0 - layer_suite["build_s"]):
        beats_rtn = 0
        for bundle, cfg, result in layer_suite["entries"]:
            w = bundle.weights
            imp = importance(bundle.activations)
            w_norm = normalize(w, result.scales, cfg.group_size)

            # final pre-rounding objective never exceeds the error of the
            # initial full-range quantile table used alone
            t0_init, _ = init_tables(w_norm, cfg.fmt.table_size)
            r = t0_init[recon_codes(t0_init, w_norm)]
            static_err = float(((w_norm - r) ** 2 * imp).sum())
            assert result.trace[-1] <= static_err * (1 + 1e-12), bundle.name

            w_hat = dequantize(
                result.codes, result.scales, result.table0, result.table1,
                result.selection, cfg.group_size, cfg.sel_size,
            )
            codes, scales = rtn_quantize(w, cfg.fmt, cfg.group_size)
            w_rtn = dequantize_rtn(codes, scales, cfg.fmt, cfg.group_size)
            if weighted_error(w, w_hat, imp) < weighted_error(w, w_rtn, imp):
                beats_rtn += 1
        assert beats_rtn >= 0.95 * SUITE_SIZE

        # per-group dominance of the format-choice baseline over rtn-fp4
        rng = np.random.default_rng(4)
        for _ in range(25):
            w = (rng.standard_normal((16, 128)) * 10 ** rng.uniform(-1, 1)).astype(
                np.float32
            )
            g = 16
            codes, scales, bits = if4_quantize(w, g)
            w_if4 = dequantize(codes, scales, *if4_tables(), bits, g, g)
            c, s = rtn_quantize(w, NVFP4, g)
            w_rtn = dequantize_rtn(c, s, NVFP4, g)

            def group_err(w_hat):
                d = (w.astype(np.float64) - w_hat.astype(np.float64)) ** 2
                return d.reshape(16, 128 // g, g).sum(axis=2)

            assert (group_err(w_if4) <= group_err(w_rtn)).all()


def test_criterion_5_pack_round_trip(tmp_path):
    with criterion(5, "pack/unpack identity, bit-exact dequant, corruption safety", 10.0):
        rng = np.random.default_rng(5)
        for trial in range(100):
            group_size = int(rng.choice([16, 32, 128]))
            sel_size = group_size if trial % 2 == 0 else int(
                rng.choice([d for d in (4, 8, 16, 32) if group_size % d == 0])
            )
            cols = group_size * int(rng.integers(1, 5))
            rows = int(rng.integers(1, 9))
            m = int(rng.integers(2, 17))
            t0 = np.sort(round_bf16(rng.standard_normal(m).astype(np.float32)))
            t1 = np.sort(round_bf16(rng.standard_normal(m).astype(np.float32)))
            codes = rng.integers(0, m, (rows, cols)).astype(np.uint8)
            scales = np.maximum(
                round_bf16((10.0 ** rng.uniform(-2, 2, (rows, cols // group_size)))
                           .astype(np.float32)),
                np.float32(2.0**-80),
            )
            sel = rng.integers(0, 2, (rows, cols // sel_size)).astype(np.uint8)
            p = pack(t0, t1, sel, codes, scales, kind="int4",
                     group_size=group_size, sel_size=sel_size)
            assert p.has_bitset == (sel_size < group_size)
            u0, u1, usel, ucodes, uscales = unpack(p)
            assert np.array_equal(u0, t0) and np.array_equal(u1, t1)
            assert np.array_equal(usel, sel) and np.array_equal(ucodes, codes)
            assert np.array_equal(uscales, scales)
            direct = dequantize(codes, scales, t0, t1, sel, group_size, sel_size)
            packed = dequantize(ucodes, uscales, u0, u1, usel, group_size, sel_size)
            assert np.array_equal(direct, packed)

        # corruption and truncation must raise, never crash
        t0, t1 = if4_tables()
        codes = rng.integers(0, 15, (2, 64)).astype(np.uint8)
        scales = np.ones((2, 4), dtype=np.float32)
        sel = rng.integers(0, 2, (2, 4)).astype(np.uint8)
        p = pack(t0, t1, sel, codes, scales, kind="nvfp4", group_size=16, sel_size=16)
        raw = model_to_bytes([("layer", p)])
        path = tmp_path / "m.aaacq"
        for cut in range(0, len(raw), 7):
            path.write_bytes(raw[:cut])
            with pytest.raises(CorruptionError):
                read_pack(path)
        flipped = bytearray(raw)
        flipped[len(raw) - 3] ^= 0x40
        path.write_bytes(flipped)
        with pytest.raises(CorruptionError):
            read_pack(path)
        # Two 15-entry tables fill 60 of the codebook section's 64 bytes; the
        # code section follows the eight scales' 16 bytes.
        payload = bytearray(p.payload)
        payload[:64] = np.concatenate((p.table0_bits[:15], p.table1_bits[:15])).tobytes() + bytes(4)
        payload[64 + 16] = 0xFF
        broken = PackedLayer(
            kind=p.kind, rows=p.rows, cols=p.cols, group_size=p.group_size,
            sel_size=p.sel_size, table_size=15, flags=p.flags, payload=payload,
        )
        with pytest.raises(CorruptionError):
            unpack(broken)


def test_criterion_6_gap_recovery_reference_values():
    with criterion(6, "recovery formula reproduces the pinned reference values", 1.0):
        # aggregate perplexity rows: (full, baseline, method) -> recovery %
        assert gap_recovery(7.85, 8.77, 8.32) == pytest.approx(48.9, abs=0.1)
        assert gap_recovery(5.28, 5.48, 5.36) == pytest.approx(60.0, abs=0.1)

        # per-model rows whose printed aggregates carry rounding; feed the
        # unrounded means instead
        full = np.mean([9.71, 7.77, 6.19, 12.06, 9.42, 8.51, 6.80])
        rtn = np.mean([10.68, 8.19, 6.56, 13.21, 10.25, 9.11, 7.02])
        method = np.mean([10.21, 7.99, 6.39, 12.37, 9.92, 8.56, 6.88])
        assert gap_recovery(full, rtn, method) == pytest.approx(59.2, abs=0.1)

        full = np.mean([5.68, 5.09, 5.47, 4.88, 9.42, 8.51, 6.80])
        rtn = np.mean([5.96, 5.25, 5.72, 4.98, 10.25, 9.11, 7.02])
        method = np.mean([5.80, 5.18, 5.62, 4.98, 9.52, 8.67, 6.80])
        assert gap_recovery(full, rtn, method) == pytest.approx(70.5, abs=0.1)


def test_criterion_7_planted_selection_recovery():
    with criterion(7, "selection recovers planted per-group table structure", 10.0):
        rng = np.random.default_rng(7)
        sel_size = 16
        t_log = base_table(NVFP4) / 6.0          # log-spaced profile
        t_uni = np.linspace(-1.0, 1.0, 15)       # uniform profile
        rows, groups_per_row = 16, 8
        cols = groups_per_row * sel_size
        planted = rng.integers(0, 2, (rows, groups_per_row)).astype(np.uint8)
        w = np.empty((rows, cols))
        for n in range(rows):
            for j in range(groups_per_row):
                src = t_uni if planted[n, j] else t_log
                picks = src[rng.integers(0, src.size, sel_size)]
                noise = rng.normal(0.0, 0.01, sel_size)
                w[n, j * sel_size : (j + 1) * sel_size] = picks + noise
        got = select_tables(w, np.ones(cols), t_log, t_uni, sel_size)
        recovered = float((got == planted).mean())
        assert recovered >= 0.90

        # brute-force verification of the selection rule itself
        for n in range(rows):
            for j in range(groups_per_row):
                seg = w[n, j * sel_size : (j + 1) * sel_size]
                errs = []
                for t in (t_log, t_uni):
                    r = np.asarray([t[np.argmin(np.abs(v - t))] for v in seg])
                    errs.append(float(((seg - r) ** 2).sum()))
                want = 1 if errs[1] < errs[0] else 0
                assert got[n, j] == want


def test_criterion_8_importance_scaling_invariance():
    with criterion(8, "positive rescaling of importance changes nothing", 10.0):
        rng = np.random.default_rng(8)
        for trial in range(50):
            bundle = synth_layer(
                SynthSpec("mixture", 8, 128, 16, seed=800 + trial), name="t"
            )
            cfg = (
                AaacConfig.for_format(NVFP4)
                if trial % 2
                else AaacConfig.for_format(INT4, sel_size=16)
            )
            imp = importance(bundle.activations)
            c = float(10.0 ** rng.uniform(-4, 4))
            if trial % 5 == 0:
                c = float(2.0 ** rng.integers(-12, 13))
            base = learn(bundle, cfg, col_importance=imp)
            scaled = learn(bundle, cfg, col_importance=imp * c)
            assert np.array_equal(base.selection, scaled.selection)
            assert np.array_equal(base.codes, scaled.codes)
            assert np.array_equal(base.table0, scaled.table0)
            assert np.array_equal(base.table1, scaled.table1)


def test_criterion_9_w4a8_simulation(tmp_path):
    with criterion(9, "fp8 activation simulation: idempotence, ulp bound, metrics", 5.0):
        rng = np.random.default_rng(9)
        x = (rng.standard_normal((100, 1000)) * 10 ** rng.uniform(-1, 2)).astype(
            np.float32
        )
        assert x.size == 100_000
        once = simulate_w4a8(x)
        twice = simulate_w4a8(once)
        assert np.array_equal(once, twice)
        scale = float(np.abs(x).max()) / 448.0
        x64 = x.astype(np.float64)
        normal = np.abs(x64 / scale) >= 2.0**-6
        rel = np.abs(once.astype(np.float64) - x64)[normal] / np.abs(x64[normal])
        assert rel.max() <= 2.0**-3

        arch = tmp_path / "a.safetensors"
        packed = tmp_path / "a.aaacq"
        plain = tmp_path / "plain.csv"
        fp8 = tmp_path / "fp8.csv"
        assert cli_main(["synth", "--out", str(arch), "--layers", "1",
                         "--seed", "9", "-K", "128"]) == 0
        assert cli_main(["quantize", str(arch), "--out", str(packed),
                         "--method", "aaac", "--format", "nvfp4"]) == 0
        assert cli_main(["eval", str(packed), str(arch), "--csv",
                         "--out", str(plain)]) == 0
        assert cli_main(["eval", str(packed), str(arch), "--w4a8", "--csv",
                         "--out", str(fp8)]) == 0
        row_a = plain.read_text().splitlines()[1].split(",")
        row_b = fp8.read_text().splitlines()[1].split(",")
        assert row_a[2] == row_b[2]      # unweighted mse unchanged
        assert row_a[3] == row_b[3]      # weighted error unchanged
        assert row_a[5] == row_b[5]      # bpw unchanged
        assert row_a[4] != row_b[4]      # output mse changes


def test_criterion_10_end_to_end_determinism(tmp_path):
    with criterion(10, "synth -> quantize -> eval is byte-deterministic", 30.0):
        outputs = []
        for tag in ("first", "second"):
            arch = tmp_path / f"{tag}.safetensors"
            packed = tmp_path / f"{tag}.aaacq"
            report = tmp_path / f"{tag}.json"
            assert cli_main(["synth", "--out", str(arch), "--layers", "3",
                             "--kind", "mixture", "--seed", "10",
                             "-N", "16", "-K", "256", "-T", "32"]) == 0
            assert cli_main(["quantize", str(arch), "--out", str(packed),
                             "--method", "aaac", "--format", "int4",
                             "-S", "16", "--threads", "4"]) == 0
            assert cli_main(["eval", str(packed), str(arch), "--json",
                             "--out", str(report)]) == 0
            outputs.append(
                (arch.read_bytes(), packed.read_bytes(), report.read_bytes())
            )
        assert outputs[0] == outputs[1]
