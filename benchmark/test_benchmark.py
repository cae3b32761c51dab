"""Tests of the benchmark's own arithmetic and checks.

    python3 -m pytest benchmark -q
"""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def span(i, name, start, end, parent=None, thread=1, count=None, peak_alloc=0):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "thread": thread, "count": count, "peak_alloc": peak_alloc}


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def test_union_length_merges_overlaps_and_gaps():
    assert tracer.union_length([]) == 0.0
    assert tracer.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.75)]) == pytest.approx(4.0)


def test_self_time_with_children_overlapping_across_threads():
    spans = [
        span(0, "metrics.compare", 0.0, 10.0, thread=1),
        span(1, "metrics._run_method", 1.0, 5.0, parent=0, thread=2),
        span(2, "metrics._run_method", 3.0, 8.0, parent=0, thread=3),
        # Outlives its parent: only the part inside [0, 10] counts.
        span(3, "metrics.layer_metrics", 9.0, 12.0, parent=0, thread=2),
        # A grandchild inside a child adds no coverage.
        span(4, "codebooks.learn", 2.0, 4.0, parent=1, thread=2),
    ]
    # Children cover [1, 8] and [9, 10]: 8 of the 10 seconds.
    assert tracer.self_time(spans, spans[0]) == pytest.approx(2.0)
    # Summing child durations instead of their union would give a negative time.
    assert sum(tracer.duration(s) for s in spans[1:4]) > tracer.duration(spans[0])


def test_self_time_filter_keeps_only_chosen_descendants():
    spans = [
        span(0, "codebooks.learn", 0.0, 10.0),
        span(1, "quantizers.recon_codes", 1.0, 4.0, parent=0),
        span(2, "codebooks.select_tables", 5.0, 9.0, parent=0),
        span(3, "quantizers.recon_codes", 6.0, 8.0, parent=2),
        span(4, "grids.compute_scales", 0.0, 0.5, parent=0),
    ]
    keep = lambda d: d["name"].split(".")[0] in ("quantizers", "grids")  # noqa: E731
    # 10 - (3 + 2 + 0.5): the select_tables time outside its recon_codes stays.
    assert tracer.self_time(spans, spans[0], keep) == pytest.approx(4.5)


def test_derive_attributes_learner_and_parallel_section():
    spans = [
        span(0, "cli.quantize", 0.0, 12.0),
        span(1, "tensors.load_tensor_archive", 0.0, 1.0, parent=0, peak_alloc=2**21),
        span(2, "cli._parallel_map", 1.0, 11.0, parent=0),
        span(3, "cli._quantize_layer", 1.0, 11.0, parent=2, thread=2),
        span(4, "cli._quantize_layer", 1.0, 6.0, parent=2, thread=3),
        span(5, "codebooks.learn", 1.0, 11.0, parent=3, thread=2, peak_alloc=3 * 2**20),
        span(6, "quantizers.recon_codes", 2.0, 10.0, parent=5, thread=2, count=100),
        span(7, "packfmt.write_pack", 11.0, 12.0, parent=0, count=64),
    ]
    m = tracer.derive([spans], threads=2)
    assert m["codebooks.learn_s"] == pytest.approx(10.0)
    assert m["codebooks.learn_self_s"] == pytest.approx(2.0)
    assert m["codebooks.learn_recon_share"] == pytest.approx(0.8)
    assert m["codebooks.learn_peak_alloc_mb"] == pytest.approx(3.0)
    assert m["tensors.read_peak_alloc_mb"] == pytest.approx(2.0)
    assert m["quantizers.recon_codes_values"] == 100
    assert m["packfmt.bytes"] == 64
    # 15 busy task-seconds over 2 threads x 10 s of parallel section.
    assert m["cli.parallel_efficiency"] == pytest.approx(0.75)
    assert m["cli.serial_s"] == pytest.approx(2.0)


def test_steal_share_is_steal_over_demand():
    assert run.steal_share((100, 10), (250, 60)) == pytest.approx(50 / 200)
    assert run.steal_share((100, 10), (100, 10)) == 0.0
    assert run.steal_share(None, (250, 60)) == 0.0


def test_parallelism_discounts_steal():
    # Two busy threads for 10 s of wall, 40% of it stolen: 12 CPU seconds.
    busy = {"cpu_s": 12.0, "wall_s": 10.0, "steal_share": 0.4}
    assert run.parallelism([busy], threads=2) == pytest.approx(1.0)
    # One busy thread under the same steal is half the threads.
    serial = {"cpu_s": 6.0, "wall_s": 10.0, "steal_share": 0.4}
    assert run.parallelism([serial], threads=2) == pytest.approx(0.5)
    assert run.parallelism([busy, serial], threads=2) == pytest.approx(0.75)


def test_throughput_is_in_reference_units_and_counts_a_repeat_once():
    def sample(command, kind, cpu, ref):
        return {"command": command, "kind": kind, "mweights": 2.0, "cpu_s": cpu,
                "ref_cpu_s": ref, "wall_s": cpu, "steal_share": 0.0, "rss_mib": 1.0}

    samples = [sample(0, "quantize", 4.0, 0.5), sample(0, "quantize", 5.0, 0.5),
               sample(0, "quantize", 9.0, 0.5), sample(1, "eval", 1.0, 0.5),
               sample(2, "dequantize", 1.0, 0.5), sample(3, "compare", 2.0, 1.0)]
    m, recorded = run.pass_metrics(samples, threads=1)
    # The median run (5 CPU-s) is 10 reference jobs' worth of CPU.
    assert m["quantize_mw_per_ref"] == pytest.approx(2.0 / 10)
    assert recorded["quantize_mw_per_cpu_s"] == pytest.approx(2.0 / 5)
    # A machine half as fast doubles both times and leaves the figure alone.
    assert m["compare_mw_per_ref"] == pytest.approx(m["eval_mw_per_ref"])


# ---------------------------------------------------------------------------
# Parent/child attribution by the live tracer
# ---------------------------------------------------------------------------

def test_tracer_parents_across_threads():
    t = tracer.Tracer()
    inner = t.wrap("quantizers.recon_codes", lambda table, values: len(values))
    task = t.wrap("cli._quantize_layer", lambda n: inner(None, range(n)))
    outer = t.wrap("cli._parallel_map", lambda: list(ThreadPoolExecutor(2).map(task, [3, 4])))
    root = t.open("cli.quantize")
    assert outer() == [3, 4]
    t.close(root)

    spans = {s["id"]: s for s in t.records()}
    by_name = lambda n: [s for s in spans.values() if s["name"] == n]  # noqa: E731
    (section,) = by_name("cli._parallel_map")
    assert section["parent"] == root["id"]
    tasks = by_name("cli._quantize_layer")
    assert len(tasks) == 2
    assert all(s["parent"] == section["id"] for s in tasks)
    assert all(s["thread"] != threading.get_ident() for s in tasks)
    recon = by_name("quantizers.recon_codes")
    assert sorted(s["count"] for s in recon) == [3, 4]
    assert all(s["cpu"] >= 0 for s in spans.values())
    assert {spans[s["parent"]]["thread"] for s in recon} == {s["thread"] for s in recon}


def test_install_wraps_call_sites_and_uninstall_restores():
    import aaacq
    import aaacq.cli

    before = (aaacq.cli.codebooks, aaacq.metrics.learn, aaacq.codebooks.recon_codes,
              aaacq.codebooks.importance)
    t = tracer.Tracer()
    undo = tracer.install(t, aaacq)
    try:
        assert aaacq.cli.codebooks is not before[0]
        assert aaacq.cli.codebooks.learn.__wrapped__ is aaacq.codebooks.learn
        assert aaacq.metrics.learn is not before[1]
        assert aaacq.codebooks.recon_codes is not before[2]
        assert aaacq.codebooks.importance is not before[3]
        bundle = aaacq.synth_layer(aaacq.SynthSpec("gaussian", 4, 32, 8, seed=1))
        aaacq.metrics.compare([bundle], ["rtn", "aaac"], aaacq.AaacConfig.for_format(aaacq.NVFP4))
    finally:
        tracer.uninstall(undo)
    assert (aaacq.cli.codebooks, aaacq.metrics.learn, aaacq.codebooks.recon_codes,
            aaacq.codebooks.importance) == before
    names = {s["name"] for s in t.records()}
    assert {"metrics._run_method", "codebooks.learn", "quantizers.recon_codes",
            "grids.compute_scales", "codebooks.importance", "metrics.layer_metrics"} <= names


# ---------------------------------------------------------------------------
# Inputs and output checks
# ---------------------------------------------------------------------------

def test_bf16_writer_reads_back_as_round_to_nearest_even(tmp_path):
    from aaacq import grids, tensors

    x = np.array([[1.0, 1.00390625, 1.01171875, -3.1415927, 1e-30, 65504.0]], dtype=np.float32)
    path = tmp_path / "t.safetensors"
    workloads.write_safetensors(path, {"a.weight": ("BF16", x), "a.calib": ("F32", x)})
    back = tensors.read_tensors(path)
    assert np.array_equal(back["a.weight"], grids.round_bf16(x).astype(np.float32))
    assert np.array_equal(back["a.calib"], x)


def _tiny_pipeline(tmp_path):
    """A workload-shaped set of commands on a 3-layer archive, run in-process."""
    from aaacq import cli

    in_dir, out_dir = tmp_path / "in", tmp_path / "out"
    in_dir.mkdir()
    out_dir.mkdir()
    workloads._write_suite(in_dir / "model.safetensors", 5,
                           [(k, 8, 64, 16) for k in workloads.CS_KINDS], "BF16")
    model = "{in}/model.safetensors"
    commands = [
        workloads.Command("quantize", ("quantize", model, "--out", "{out}/rtn.aaacq",
                                       "--method", "rtn", "--threads", "1"), 0, pack="rtn.aaacq"),
        workloads.Command("eval", ("eval", "{out}/rtn.aaacq", model, "--json",
                                   "--out", "{out}/rtn.json"), 0, report="rtn.json"),
        workloads.Command("dequantize", ("dequantize", "{out}/rtn.aaacq", "--out",
                                         "{out}/rtn.safetensors"), 0,
                          tensors="rtn.safetensors", source_pack="rtn.aaacq"),
        workloads.Command("compare", ("compare", model, "--methods", "rtn,aaac", "--json",
                                      "--out", "{out}/compare.json", "--threads", "1"), 0,
                          report="compare.json"),
    ]
    for cmd in commands:
        args = [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in cmd.args]
        assert cli.main(args) == 0
    workload = workloads.Workload(
        "tiny", None, None, gap=("aaac", "compare.json", "compare.json"))
    samples = [{"command": i, "kind": c.kind, "error": None} for i, c in enumerate(commands)]
    return workload, commands, out_dir, samples


def test_clean_outputs_pass_every_check(tmp_path):
    workload, commands, out_dir, samples = _tiny_pipeline(tmp_path)
    digests, gap = run.check_pass(workload, commands, out_dir, samples)
    assert [s["error"] for s in samples] == [None] * 4
    assert gap > 0
    assert set(digests) == {"rtn.aaacq", "rtn.json", "rtn.safetensors", "compare.json"}


def test_gap_recovery_across_reports_equals_compares_own(tmp_path):
    import checks

    _, _, out_dir, _ = _tiny_pipeline(tmp_path)
    compare = checks.load_report(out_dir / "compare.json")
    rtn = checks.load_report(out_dir / "rtn.json")
    own = checks.gap_recovery(compare, compare, "aaac")
    assert own == compare["recovery"]["aaac"]
    assert checks.gap_recovery(compare, rtn, "aaac") == pytest.approx(own, rel=1e-12)


def test_one_corrupted_pack_byte_fails_only_its_writer(tmp_path):
    workload, commands, out_dir, samples = _tiny_pipeline(tmp_path)
    pack = out_dir / "rtn.aaacq"
    blob = bytearray(pack.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    pack.write_bytes(bytes(blob))
    run.check_pass(workload, commands, out_dir, samples)
    failed = [s["kind"] for s in samples if s["error"]]
    assert failed == ["quantize"]
    assert len(failed) / len(samples) == 0.25


def test_changed_bytes_against_the_first_pass_fail(tmp_path):
    workload, commands, out_dir, samples = _tiny_pipeline(tmp_path)
    reference, _ = run.check_pass(workload, commands, out_dir, samples)
    reference = dict(reference, **{"rtn.json": "0" * 64})
    run.check_pass(workload, commands, out_dir, samples, reference)
    assert [s["kind"] for s in samples if s["error"]] == ["eval"]


def test_disagreeing_rows_fail_the_report(tmp_path):
    workload, commands, out_dir, samples = _tiny_pipeline(tmp_path)
    report = out_dir / "rtn.json"
    doc = json.loads(report.read_text())
    doc["layers"][0]["weighted_err"] *= 2
    report.write_text(json.dumps(doc))
    run.check_pass(workload, commands, out_dir, samples)
    assert [s["kind"] for s in samples if s["error"]] == ["eval"]


def test_pinned_digests_cover_every_output():
    pinned = json.loads(run.DIGESTS.read_text())
    for name, workload in workloads.WORKLOADS.items():
        outputs = {n for c in workload.commands(2) for n in (c.pack, c.report, c.tensors) if n}
        assert set(pinned[name]) == outputs


def test_benchmark_json_matches_what_the_run_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    derived = set(tracer.derive([[span(0, "cli.quantize", 0.0, 1.0)]], threads=2))
    derived |= {"trace.overhead_s", "trace.overhead_cpu_s"}
    assert {m["name"] for m in spec["per_layer"]} == derived
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])


def test_digest_differing_from_the_pinned_one_fails_its_writer(tmp_path):
    workload, commands, out_dir, samples = _tiny_pipeline(tmp_path)
    run.check_pass(workload, commands, out_dir, samples, pinned={"rtn.safetensors": "0" * 64})
    assert [s["kind"] for s in samples if s["error"]] == ["dequantize"]
