"""Command-line behavior: structure, determinism, and error reporting."""

import json
import os
import re
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest
from test_tensors import load_bundles

import aaacq
from aaacq import cli, metrics
from aaacq.cli import _resolve_config, build_parser, main
from aaacq.codebooks import AaacConfig, learn
from aaacq.errors import CorruptionError
from aaacq.grids import INT4, NVFP4, Scratch, row_blocks
from aaacq.metrics import quantize_layer
from aaacq.packfmt import _HEADER, MAGIC, PackReader, model_to_bytes, read_pack
from aaacq.quantizers import dequantize_rtn, rtn_quantize
from aaacq.tensors import (
    LayerBundle, SynthSpec, read_tensors, save_tensor_archive, synth_layer, write_tensors,
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def archive(tmp_path):
    path = tmp_path / "layers.safetensors"
    assert run("synth", "--out", path, "--layers", "2", "--kind", "mixture",
               "-N", "8", "-K", "256", "-T", "16", "--seed", "3") == 0
    return path


class TestSynth:
    def test_writes_loadable_archive(self, archive):
        bundles = load_bundles(archive)
        assert [b.name for b in bundles] == ["layer000", "layer001"]
        assert bundles[0].weights.shape == (8, 256)
        assert bundles[0].activations.shape == (16, 256)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
        for path in (a, b):
            assert run("synth", "--out", path, "--layers", "2", "--seed", "9") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_config_matches_flags(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(
            json.dumps({"kind": "mixture", "rows": 4, "cols": 64, "tokens": 8,
                        "seed": 2, "layers": 2})
        )
        a, b = tmp_path / "a.safetensors", tmp_path / "b.safetensors"
        assert run("synth", "--out", a, "--config", cfg) == 0
        assert run("synth", "--out", b, "--layers", "2", "--kind", "mixture",
                   "-N", "4", "-K", "64", "-T", "8", "--seed", "2") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_config_rejects_unknown_keys(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"kine": "mixture"}))
        assert run("synth", "--out", tmp_path / "a.safetensors", "--config", cfg) == 1

    @pytest.mark.parametrize("config", [
        [1, 2], {"layers": "abc"}, {"rows": "x"}, {"mixture_weights": 5}, {"layers": -1}, None,
        {"sigma": -1}, {"rows": 0}, {"kind": "uniform"},
        {"kind": "mixture", "mixture_weights": [0.5, 0.5], "mixture_sigmas": [1.0]},
    ], ids=["list", "layers-abc", "rows-x", "mixture-weights-5", "layers-minus-1", "flag-layers-0",
            "sigma-minus-1", "rows-0", "kind-uniform", "mixture-lengths"])
    def test_bad_config_or_layer_count_is_refused(self, tmp_path, capsys, config):
        out = tmp_path / "a.safetensors"
        if config is None:
            argv, named = ("--layers", "0"), "--layers"
        else:
            cfg = tmp_path / "spec.json"
            cfg.write_text(json.dumps(config))
            argv, named = ("--config", cfg), f"{cfg}: "
        capsys.readouterr()
        assert run("synth", "--out", out, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {named}") and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--sigma", "-1"), "sigma must be positive"),
        (("-N", "0"), "rows, cols and tokens must all be at least 1"),
        (("--kind", "mixture", "--mixture-sigmas", "1"),
         "mixture weights and sigmas must have equal length"),
    ])
    def test_bad_flags_keep_their_text(self, tmp_path, capsys, flags, message):
        out = tmp_path / "a.safetensors"
        capsys.readouterr()
        assert run("synth", "--out", out, *flags) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


class TestQuantize:
    def test_int4_fine_selection_has_bitsets(self, tmp_path, archive):
        out = tmp_path / "m.aaacq"
        assert run("quantize", archive, "--out", out, "--method", "aaac",
                   "--format", "int4", "-g", "128", "-S", "16") == 0
        layers = read_pack(out)
        assert len(layers) == 2
        for _, p in layers:
            assert p.has_bitset and p.sel_size == 16 and p.group_size == 128
            assert p.method == "aaac"

    def test_nvfp4_defaults_have_no_bitsets(self, tmp_path, archive):
        out = tmp_path / "m.aaacq"
        assert run("quantize", archive, "--out", out, "--method", "aaac",
                   "--format", "nvfp4") == 0
        for _, p in read_pack(out):
            assert not p.has_bitset and p.group_size == 16 and p.sel_size == 16
            assert p.table_size == 15

    def test_constant_layer(self, tmp_path):
        # Every weight in a group is its absmax, so a learned table collapses
        # onto one value and Lloyd steps must keep it sorted.
        src = tmp_path / "const.safetensors"
        write_tensors(src, {"c.weight": np.full((4, 64), 0.37, dtype=np.float32)})
        out = tmp_path / "m.aaacq"
        assert run("quantize", src, "--out", out, "--method", "aaac",
                   "--format", "int4", "-g", "16") == 0
        [(name, _)] = read_pack(out)
        assert name == "c"

    def test_selection_coarser_than_scale_fails(self, tmp_path, archive):
        out = tmp_path / "m.aaacq"
        assert run("quantize", archive, "--out", out, "--method", "aaac",
                   "-S", "256", "-g", "128", "--format", "int4") == 1

    @pytest.mark.parametrize("flags", [
        ["--method", "rtn", "-g", "-16"],
        ["--method", "aaac", "-g", "-16"],
        ["--method", "aaac", "-g", "16", "-S", "-4"],
    ])
    def test_non_positive_group_size_exits_1(self, tmp_path, archive, flags):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aaacq.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "aaacq.cli", "quantize", str(archive),
             "--out", str(tmp_path / "m.aaacq"), *flags],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    def test_rtn_and_if4_methods(self, tmp_path, archive):
        for method in ("rtn", "if4"):
            out = tmp_path / f"{method}.aaacq"
            assert run("quantize", archive, "--out", out, "--method", method,
                       "--format", "nvfp4") == 0
            for _, p in read_pack(out):
                assert p.method == method

    def test_layer_failure_names_the_layer(self, tmp_path, capsys):
        from aaacq.tensors import LayerBundle, save_tensor_archive

        arch = tmp_path / "odd.safetensors"
        save_tensor_archive(
            arch, [LayerBundle("oddball", np.ones((2, 72), np.float32))]
        )
        out = tmp_path / "m.aaacq"
        assert run("quantize", arch, "--out", out, "--method", "rtn",
                   "--format", "nvfp4") == 1
        assert "oddball" in capsys.readouterr().err

    def test_missing_input_fails_before_work(self, tmp_path):
        assert run("quantize", tmp_path / "nope.safetensors",
                   "--out", tmp_path / "m.aaacq") == 1
        assert run("quantize", tmp_path / "nope.safetensors",
                   "--out", tmp_path / "no-dir" / "m.aaacq") == 1

    def test_seed_is_not_a_quantize_flag(self, tmp_path, archive):
        # Only compare's pinned suite is seeded.
        with pytest.raises(SystemExit) as exc:
            run("quantize", archive, "--out", tmp_path / "m.aaacq", "--seed", "1")
        assert exc.value.code == 2

    def test_weight_only_archive(self, tmp_path):
        from aaacq.tensors import LayerBundle, save_tensor_archive

        arch = tmp_path / "w.safetensors"
        rng = np.random.default_rng(21)
        save_tensor_archive(
            arch,
            [LayerBundle("solo", rng.standard_normal((8, 128)).astype(np.float32))],
        )
        out = tmp_path / "w.aaacq"
        report = tmp_path / "w.csv"
        assert run("quantize", arch, "--out", out, "--method", "aaac",
                   "--format", "nvfp4") == 0
        assert run("eval", out, arch, "--csv", "--out", report) == 0
        row = report.read_text().splitlines()[1].split(",")
        assert row[4] == ""  # no activations, no output-error metric

    def test_e4m3_scale_mode_round_trips(self, tmp_path, archive):
        out = tmp_path / "m.aaacq"
        assert run("quantize", archive, "--out", out, "--method", "aaac",
                   "--format", "nvfp4", "--scale-mode", "emulate-e4m3") == 0
        assert len(read_pack(out)) == 2

    def test_objective_lines_read_the_full_trace(self, tmp_path, archive):
        # `quantize` learns without the full trace; each layer's line must
        # still give the full trace's first and last objectives and length.
        cfg = AaacConfig.for_format(NVFP4)
        want = []
        for bundle in load_bundles(archive):
            trace = learn(bundle, cfg).trace
            want.append(f"  {bundle.name}: objective {trace[0]:.6e} -> {trace[-1]:.6e} "
                        f"({trace.size} steps)")
        for threads in ("1", "2"):
            err = _python("-m", "aaacq.cli", "quantize", str(archive), "--out",
                          str(tmp_path / f"m{threads}.aaacq"), "--method", "aaac",
                          "--threads", threads).stderr
            assert [x for x in err.splitlines() if " objective " in x] == want

    def test_log_is_in_layer_order_whatever_the_workers(self, tmp_path):
        # Forked workers finish in any order; their objective lines are
        # logged as their packs are written, in layer order.
        path = tmp_path / "layers.safetensors"
        assert run("synth", "--out", path, "--layers", "4", "--kind", "mixture",
                   "-N", "16", "-K", "256", "-T", "16", "--seed", "5") == 0
        logs = []
        for threads in ("1", "2"):
            err = _python("-m", "aaacq.cli", "quantize", str(path), "--out",
                          str(tmp_path / "m.aaacq"), "--method", "aaac", "--threads", threads).stderr
            logs.append(re.sub(r" in [0-9.]+s ", " in <time> ", err))
        assert logs[0].count(" objective ") == 4
        assert logs[1] == logs[0]

    def test_default_worker_count_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for threads, want in (("0", 1), ("3", 3)):
            args = build_parser().parse_args(["compare", "--threads", threads])
            assert _resolve_config(args)[1] == want

    @pytest.mark.parametrize("flag", ["-3", "-1"])
    def test_negative_worker_count_is_rejected(self, tmp_path, capsys, archive, flag):
        capsys.readouterr()
        for command in (["quantize", archive, "--out", tmp_path / "m.aaacq"], ["compare"]):
            assert run(*command, "--threads", flag) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "must be 0 (all cores) or positive" in err
        assert not (tmp_path / "m.aaacq").exists()


def test_directory_as_output_fails_before_work(tmp_path, capsys, archive):
    pack_path = tmp_path / "m.aaacq"
    assert run("quantize", archive, "--out", pack_path, "--method", "rtn") == 0
    out = tmp_path / "out"
    out.mkdir()
    (out / "kept").write_bytes(b"kept")
    capsys.readouterr()
    for command in (
        ["quantize", archive, "--method", "rtn"],
        ["compare", archive, "--methods", "rtn"],
        ["eval", pack_path, archive],
        ["synth"],
        ["dequantize", pack_path],
    ):
        for path in (out, f"{tmp_path / 'new'}{os.sep}"):
            assert run(*command, "--out", path) == 1, command
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, (command, err)
        assert sorted(os.listdir(tmp_path)) == ["layers.safetensors", "m.aaacq", "out"]
        assert os.listdir(out) == ["kept"] and (out / "kept").read_bytes() == b"kept"


def test_output_that_is_an_input_fails_before_work(tmp_path, capsys, archive):
    pack_path = tmp_path / "m.aaacq"
    assert run("quantize", archive, "--out", pack_path, "--method", "rtn") == 0
    # The same file under another name, too: a hard link and a relative path.
    link = tmp_path / "link.aaacq"
    os.link(pack_path, link)
    relative = os.path.relpath(archive)
    inputs = {path: path.read_bytes() for path in (archive, pack_path)}
    capsys.readouterr()
    for command, outs in (
        (["eval", pack_path, archive, "--json"], [pack_path, archive, link]),
        (["compare", archive, "--methods", "rtn", "--json"], [archive, relative]),
        (["quantize", archive, "--method", "rtn"], [archive, relative]),
        (["dequantize", pack_path], [pack_path, link]),
    ):
        for out in outs:
            assert run(*command, "--out", out) == 1, (command, out)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, (command, err)
            assert "is the input" in err, err
    for path, data in inputs.items():
        assert path.read_bytes() == data
    assert sorted(os.listdir(tmp_path)) == ["layers.safetensors", "link.aaacq", "m.aaacq"]
    assert run("eval", pack_path, archive, "--json") == 0


# Runs `aaacq.cli.main` with files limited to LIMIT bytes and SIGXFSZ
# ignored, so that a longer write fails with EFBIG, as on a full disk.
_FILE_SIZE_LIMITED = """
import resource, signal, sys
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (int(sys.argv[1]), int(sys.argv[1])))
from aaacq.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("command", ["eval", "compare"])
def test_a_report_that_fails_to_write_leaves_the_earlier_one(tmp_path, archive, command):
    pack_path = tmp_path / "m.aaacq"
    assert run("quantize", archive, "--out", pack_path, "--method", "rtn") == 0
    argv = {"eval": ["eval", pack_path, archive], "compare": ["compare", archive, "--methods", "rtn"]}
    report = tmp_path / "report.json"
    assert run(*argv[command], "--json", "--out", report) == 0
    earlier = report.read_bytes()
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(aaacq.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _FILE_SIZE_LIMITED, str(len(earlier) // 2),
         *map(str, argv[command]), "--json", "--out", str(report)],
        capture_output=True, text=True, env=env)
    assert proc.returncode != 0 and "File too large" in proc.stderr, proc.stderr
    assert report.read_bytes() == earlier
    assert sorted(os.listdir(tmp_path)) == ["layers.safetensors", "m.aaacq", "report.json"]


@pytest.mark.parametrize("name, shape, flags, message", [
    ("wide", (1, 65536), ["--format", "int4", "-g", "65536"], "scale group size 65536"),
    ("n" * 70_000, (2, 32), [], "layer name of 70000 UTF-8 bytes"),
    ("bad\ud800", (2, 32), [], "does not encode as UTF-8"),
], ids=["group-size", "long-name", "surrogate-name"])
def test_pack_header_limits_fail_before_work(tmp_path, capsys, monkeypatch,
                                             name, shape, flags, message):
    arch = tmp_path / "layers.safetensors"
    write_tensors(arch, {f"{name}.weight": np.ones(shape, np.float32)})
    monkeypatch.setattr(metrics, "quantize_layer", None)  # any layer quantized fails
    capsys.readouterr()
    for command in (["quantize", arch, "--method", "rtn"], ["compare", arch, "--methods", "rtn"]):
        assert run(*command, *flags, "--out", tmp_path / "out") == 1, command
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and message in err[0], err
    assert os.listdir(tmp_path) == ["layers.safetensors"]


class TestDequantize:
    def test_round_trip_matches_library(self, tmp_path, archive):
        pack_path = tmp_path / "m.aaacq"
        deq_path = tmp_path / "m.deq.safetensors"
        assert run("quantize", archive, "--out", pack_path, "--method", "rtn",
                   "--format", "nvfp4") == 0
        assert run("dequantize", pack_path, "--out", deq_path) == 0
        tensors = read_tensors(deq_path)
        bundles = {b.name: b for b in load_bundles(archive)}
        for name, bundle in bundles.items():
            codes, scales = rtn_quantize(bundle.weights, NVFP4, 16)
            want = dequantize_rtn(codes, scales, NVFP4, 16)
            assert np.array_equal(tensors[name + ".weight"], want)


@pytest.mark.parametrize("shape", [(0, 16), (2, 0, 16)], ids=["no-tokens", "batch-of-none"])
def test_calibration_without_tokens_is_refused(tmp_path, capsys, shape):
    w = np.linspace(-1, 1, 32, dtype=np.float32).reshape(2, 16)
    weights, archive = tmp_path / "w.safetensors", tmp_path / "a.safetensors"
    write_tensors(weights, {"a.weight": w})
    write_tensors(archive, {"a.weight": w, "a.calib": np.zeros(shape, np.float32)})
    pack = tmp_path / "m.aaacq"
    assert run("quantize", weights, "--out", pack, "--method", "rtn") == 0
    for argv in (("quantize", archive, "--out", tmp_path / "q.aaacq"),
                 ("eval", pack, archive, "--json"),
                 ("compare", archive, "--json")):
        capsys.readouterr()
        assert run(*argv) == 1, argv[0]
        captured = capsys.readouterr()
        assert captured.err.startswith("error: layer 'a': "), (argv[0], captured.err)
        assert captured.out == "", argv[0]


class TestEval:
    def test_rtn_eval_matches_direct_computation(self, tmp_path, archive):
        pack_path = tmp_path / "m.aaacq"
        report_path = tmp_path / "report.json"
        assert run("quantize", archive, "--out", pack_path, "--method", "rtn",
                   "--format", "int4") == 0
        assert run("eval", pack_path, archive, "--json", "--out", report_path) == 0
        doc = json.loads(report_path.read_text())
        bundles = {b.name: b for b in load_bundles(archive)}
        for row in doc["layers"]:
            b = bundles[row["layer"]]
            codes, scales = rtn_quantize(b.weights, INT4, 128)
            w_hat = dequantize_rtn(codes, scales, INT4, 128)
            d = b.weights.astype(np.float64) - w_hat.astype(np.float64)
            assert row["mse"] == float((d * d).mean())

    def test_w4a8_changes_only_output_mse(self, tmp_path, archive):
        pack_path = tmp_path / "m.aaacq"
        plain, fp8 = tmp_path / "plain.json", tmp_path / "fp8.json"
        assert run("quantize", archive, "--out", pack_path, "--method", "aaac",
                   "--format", "int4", "-S", "16") == 0
        assert run("eval", pack_path, archive, "--json", "--out", plain) == 0
        assert run("eval", pack_path, archive, "--w4a8", "--json", "--out", fp8) == 0
        a = json.loads(plain.read_text())["layers"]
        b = json.loads(fp8.read_text())["layers"]
        for ra, rb in zip(a, b):
            assert ra["mse"] == rb["mse"]
            assert ra["weighted_err"] == rb["weighted_err"]
            assert ra["bpw"] == rb["bpw"]
            assert ra["output_mse"] != rb["output_mse"]

    @pytest.mark.parametrize("flags", [[], ["--w4a8"]], ids=["plain", "w4a8"])
    def test_one_score_per_layer(self, tmp_path, archive, monkeypatch, flags):
        pack_path = tmp_path / "m.aaacq"
        assert run("quantize", archive, "--out", pack_path, "--method", "rtn") == 0
        scored, score = [], metrics.score
        monkeypatch.setattr(metrics, "score",
                            lambda b, *args: scored.append(b.name) or score(b, *args))
        assert run("eval", pack_path, archive, *flags, "--json", "--out", tmp_path / "r.json") == 0
        assert sorted(scored) == [b.name for b in load_bundles(archive)]

    def test_name_mismatch_is_an_error(self, tmp_path, archive):
        pack_path = tmp_path / "m.aaacq"
        other = tmp_path / "other.safetensors"
        assert run("quantize", archive, "--out", pack_path, "--method", "rtn") == 0
        assert run("synth", "--out", other, "--layers", "1", "--seed", "1") == 0
        assert run("eval", pack_path, other) == 1


class TestCompare:
    def test_byte_identical_reports(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for path in (a, b):
            assert run("compare", "--methods", "rtn,if4,aaac", "--seed", "7",
                       "--out", path) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_method_lists_supported(self, tmp_path, capsys):
        assert run("compare", "--methods", "gptq", "--seed", "1") == 1
        err = capsys.readouterr().err
        assert "gptq" in err and "rtn" in err and "aaac" in err

    def test_more_outer_iterations_do_not_hurt(self, tmp_path):
        reports = {}
        for n in (1, 3):
            path = tmp_path / f"it{n}.json"
            assert run("compare", "--methods", "aaac", "--seed", "11",
                       "--iters-outer", n, "--json", "--out", path) == 0
            reports[n] = json.loads(path.read_text())
        assert (
            reports[3]["aggregates"]["aaac"]["weighted_err"]
            <= reports[1]["aggregates"]["aaac"]["weighted_err"]
        )

    def test_archive_input(self, tmp_path, archive):
        path = tmp_path / "r.csv"
        assert run("compare", archive, "--methods", "rtn", "--csv", "--out", path) == 0
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 3  # header + 2 layers


    def test_one_worker_two_and_eval_write_the_same_bytes(self, tmp_path):
        # Big, small and big layers, so each worker's scratch grows and is reused.
        path, pack_path = tmp_path / "mixed.safetensors", tmp_path / "m.aaacq"
        save_tensor_archive(path, [
            synth_layer(SynthSpec(kind, rows, cols, 16, seed=i), name=f"layer{i}")
            for i, (kind, rows, cols) in enumerate([
                ("mixture", 24, 512), ("laplace", 8, 128), ("gaussian", 32, 768),
                ("mixture", 4, 256), ("laplace", 16, 512),
            ])
        ])
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"compare{threads}.json"
            assert run("compare", path, "--methods", "rtn", "--threads", threads,
                       "--json", "--out", out) == 0
            reports.append(out.read_bytes())
        assert run("quantize", path, "--out", pack_path, "--method", "rtn") == 0
        assert run("eval", pack_path, path, "--json", "--out", tmp_path / "eval.json") == 0
        reports.append((tmp_path / "eval.json").read_bytes())
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("method", ["rtn", "if4", "aaac"])
    @pytest.mark.parametrize("flags", [
        ("--format", "nvfp4"),
        ("--format", "int4", "-g", "128", "-S", "16"),
    ], ids=["nvfp4", "int4-g128-s16"])
    def test_scores_what_quantize_ships(self, tmp_path, archive, method, flags):
        # Every compare row equals, field for field, the eval row of the pack
        # quantize writes with the same flags.
        compared, pack_path, evaluated = (
            tmp_path / "compare.json", tmp_path / "m.aaacq", tmp_path / "eval.json"
        )
        assert run("compare", archive, "--methods", method, "--json",
                   "--out", compared, *flags) == 0
        assert run("quantize", archive, "--out", pack_path, "--method", method, *flags) == 0
        assert run("eval", pack_path, archive, "--json", "--out", evaluated) == 0
        rows = json.loads(compared.read_text())["layers"]
        assert len(rows) == 2
        assert rows == json.loads(evaluated.read_text())["layers"]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _python(*argv, **env_vars):
    """Run `python *argv` with this checkout's aaacq, no BLAS thread settings but `env_vars`."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    env.update(env_vars, PYTHONPATH=os.path.dirname(os.path.dirname(aaacq.__file__)))
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


# Runs `aaacq.cli.main(argv)` with OpenBLAS first set to two threads, as a
# multi-core machine would start it, and logs the count each quantize or
# score task sees, forked workers' included.
_LOG_TASK_THREADS = """
import os, sys
from aaacq import cli, metrics
get, put = cli._openblas_threads()
put(2)

def logged(fn):
    def task(*args, **kwargs):
        os.write(2, f"task blas threads {get()}\\n".encode())
        return fn(*args, **kwargs)
    return task

metrics.quantize_layer, metrics.score = logged(metrics.quantize_layer), logged(metrics.score)
sys.exit(cli.main(sys.argv[1:]))
"""


class TestBlasThreads:
    """Every command runs OpenBLAS on one thread unless the environment chooses."""

    @pytest.fixture
    def blas(self, monkeypatch):
        """(get, set) of numpy's OpenBLAS thread count, set to 2 for the test."""
        for var in BLAS_VARS:
            monkeypatch.delenv(var, raising=False)
        blas = cli._openblas_threads()
        if blas is None:
            pytest.skip("numpy's OpenBLAS is not the bundled wheel copy")
        get, put = blas
        before = get()
        put(2)
        yield get, put
        put(before)

    @staticmethod
    def task_threads(*argv, **env_vars):
        """The OpenBLAS thread count each task of `aaacq *argv` sees."""
        err = _python("-c", _LOG_TASK_THREADS, *map(str, argv), **env_vars).stderr
        seen = [line.split()[-1] for line in err.splitlines() if line.startswith("task blas")]
        assert seen, err
        return set(seen)

    @pytest.mark.parametrize("command, threads", [
        ("quantize-aaac", "1"), ("quantize-aaac", "2"), ("quantize-rtn", "2"),
        ("compare", "1"), ("compare", "2"), pytest.param("eval", None, id="eval"),
    ])
    def test_every_command_runs_one_thread(self, blas, tmp_path, archive, command, threads):
        if command == "eval":
            pack = tmp_path / "m.aaacq"
            assert run("quantize", archive, "--out", pack, "--method", "rtn") == 0
            argv = ["eval", pack, archive, "--json", "--out", tmp_path / "r.json"]
        elif command == "compare":
            argv = ["compare", archive, "--methods", "rtn,aaac", "--threads", threads, "--json",
                    "--out", tmp_path / "r.json"]
        else:
            argv = ["quantize", archive, "--out", tmp_path / "m.aaacq",
                    "--method", command.split("-")[1], "--threads", threads]
        assert self.task_threads(*argv) == {"1"}

    @pytest.mark.parametrize("var", BLAS_VARS)
    def test_a_count_the_environment_sets_wins(self, blas, tmp_path, archive, var):
        assert self.task_threads("compare", archive, "--methods", "rtn,aaac", "--threads", "2",
                                 "--out", tmp_path / "r.txt", **{var: "2"}) == {"2"}

    @pytest.mark.parametrize("threads, fork", [(1, False), (2, False), (2, True)],
                             ids=["serial", "threads", "fork"])
    def test_parallel_map_leaves_the_count_as_it_found_it(self, blas, threads, fork):
        get, _ = blas
        assert metrics.parallel_map(lambda item: get(), range(4), threads, fork) == [2] * 4
        assert get() == 2

    def test_importing_aaacq_leaves_the_environment_alone(self, blas):
        # Importing the modules again after the count is set must leave it.
        show = ("import importlib, os, aaacq.cli as cli, aaacq.metrics as metrics; "
                "get, put = cli._openblas_threads(); put(2); "
                "importlib.reload(metrics); importlib.reload(cli); "
                "print(get(), os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert _python("-c", show).stdout.split() == ["2", "None"]

    def test_reports_do_not_depend_on_blas_threads(self, tmp_path):
        # Large enough that OpenBLAS splits the output-error products.
        archive = tmp_path / "big.safetensors"
        assert run("synth", "--out", archive, "--layers", "2", "-N", "256", "-K", "512",
                   "-T", "128", "--seed", "4") == 0
        outputs = {}
        for tag, env_vars in (("unset", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
            for threads in ("1", "2"):
                d = tmp_path / f"{tag}{threads}"
                d.mkdir()
                argvs = [["compare", archive, "--threads", threads, "--json", "--out", d / "c"]]
                for method in ("aaac", "rtn"):
                    pack = d / f"{method}.aaacq"
                    argvs += [
                        ["quantize", archive, "--out", pack, "--method", method,
                         "--threads", threads],
                        ["eval", pack, archive, "--json", "--out", d / f"{method}.json"],
                        ["dequantize", pack, "--out", d / f"{method}.safetensors"],
                    ]
                # One process runs the commands in turn, as a shell would one after another.
                _python("-c", "import json, sys; from aaacq.cli import main; "
                        "sys.exit(any(main(argv) for argv in json.loads(sys.argv[1])))",
                        json.dumps([[str(a) for a in argv] for argv in argvs]), **env_vars)
                outputs[tag, threads] = {p.name: p.read_bytes() for p in d.iterdir()}
        assert len(outputs[("unset", "1")]) == 7
        assert all(out == outputs[("unset", "1")] for out in outputs.values())


class TestEndToEndDeterminism:
    def test_full_pipeline_twice(self, tmp_path):
        outputs = []
        for tag in ("x", "y"):
            arch = tmp_path / f"{tag}.safetensors"
            packed = tmp_path / f"{tag}.aaacq"
            report = tmp_path / f"{tag}.json"
            assert run("synth", "--out", arch, "--layers", "2", "--kind", "mixture",
                       "--seed", "5", "-N", "8", "-K", "256", "-T", "16") == 0
            assert run("quantize", arch, "--out", packed, "--method", "aaac",
                       "--format", "int4", "-S", "16", "--threads", "2") == 0
            assert run("eval", packed, arch, "--json", "--out", report) == 0
            outputs.append((arch.read_bytes(), packed.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]


def _pad16(n):
    return -(-n // 16) * 16


def _layer_spans(path):
    """Per layer: where its header, scales and codes start, and its payload (start, end)."""
    spans = []
    with PackReader(path) as pack:
        for e in pack.layers:
            p = pack.read(e)
            header = e.start + 2 + len(e.name.encode("utf-8"))
            payload = header + _HEADER.size + 4
            scales = payload + _pad16(4 * p.table_size)
            codes = scales + _pad16(2 * p.scale_bits.size)
            spans.append({"header": header, "scales": scales, "codes": codes,
                          "payload": (payload, e.end)})
    return spans


def _poke(fmt, at, value, refresh_crc=True):
    """A mutation that writes `value` at byte `at(spans)` of the container."""
    def mutate(blob, spans):
        struct.pack_into(fmt, blob, at(spans), value)
        for span in spans if refresh_crc else ():
            start, end = span["payload"]
            blob[start - 4:start] = struct.pack("<I", zlib.crc32(bytes(blob[start:end])))
        return blob
    return mutate


def _cut(at):
    return lambda blob, spans: blob[:at(spans)]


def _field(offset, fmt, value, layer=0):
    return _poke(fmt, lambda spans: spans[layer]["header"] + offset, value, refresh_crc=False)


# Layer 0 is rtn nvfp4 (15-entry tables, selection bits in the scale signs),
# layer 1 aaac int4 -g 128 -S 16 (16-entry tables and a selection bitset).
# Each mutation makes a pack that must be refused.
MUTATIONS = {
    # Payload bytes under a refreshed CRC.
    "scale-inf": _poke("<H", lambda spans: spans[0]["scales"], 0x7F80),
    "scale-zero": _poke("<H", lambda spans: spans[1]["scales"], 0x0000),
    "scale-negative-zero": _poke("<H", lambda spans: spans[0]["scales"] + 2, 0x8000),
    "table-nan": _poke("<H", lambda spans: spans[1]["payload"][0], 0x7FC1),
    "code-out-of-range": _poke("<B", lambda spans: spans[0]["codes"] + 3, 0xFF),
    # Payload bytes under a stale CRC.
    "payload-bitflip": _poke("<B", lambda spans: spans[1]["codes"], 0xAB, refresh_crc=False),
    # Truncations.
    "cut-in-count": _cut(lambda spans: len(MAGIC) + 4),
    "cut-in-header": _cut(lambda spans: spans[0]["header"] + 5),
    "cut-in-payload": _cut(lambda spans: spans[0]["codes"]),
    "cut-last-byte": _cut(lambda spans: spans[1]["payload"][1] - 1),
    # Header fields.
    "magic": _poke("<B", lambda spans: 0, ord("B"), refresh_crc=False),
    "version": _poke("<H", lambda spans: len(MAGIC), 7, refresh_crc=False),
    "count-plus-one": _poke("<I", lambda spans: len(MAGIC) + 2, 3, refresh_crc=False),
    "count-near-2**32": _poke("<I", lambda spans: len(MAGIC) + 2, 2**32 - 1, refresh_crc=False),
    "name-length": _poke("<H", lambda spans: len(MAGIC) + 6, 0xFFFF, refresh_crc=False),
    "kind": _field(0, "<B", 7),
    "rows-zero": _field(1, "<I", 0),
    "rows-near-2**32": _field(1, "<I", 2**32 - 1),
    "cols-plus-group": _field(5, "<I", 256 + 16),
    "group-size-zero": _field(9, "<H", 0),
    "sel-size-coarser": _field(11, "<H", 32),
    "table-size-17": _field(13, "<B", 17),
    "bitset-flag": _field(14, "<B", 0x01, layer=0),
    "no-bitset-flag": _field(14, "<B", 0x06, layer=1),
}

# The layer a refusal names: every damaged header field or payload, and every
# cut or size the header scan at open runs into once it has read a layer's
# name.  A header whose name does not read is charged to the layer before it,
# whose sizes placed it (cols-plus-group).  Damage to the container header
# names no layer.
NAMED_LAYER = {
    "cut-in-header": "layer000",
    "cut-in-payload": "layer000",
    "cut-last-byte": "layer001",
    "cols-plus-group": "layer000",
    "rows-near-2**32": "layer000",
    "scale-inf": "layer000",
    "scale-zero": "layer001",
    "scale-negative-zero": "layer000",
    "table-nan": "layer001",
    "code-out-of-range": "layer000",
    "payload-bitflip": "layer001",
    "kind": "layer000",
    "rows-zero": "layer000",
    "group-size-zero": "layer000",
    "sel-size-coarser": "layer000",
    "table-size-17": "layer000",
    "bitset-flag": "layer000",
    "no-bitset-flag": "layer001",
}


class TestMutatedPacks:
    """`eval` and `dequantize` refuse a damaged pack: exit 1, one `error:` line
    and no traceback, and no report or tensor file left behind."""

    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("good")
        archive, pack = d / "layers.safetensors", d / "m.aaacq"
        assert run("synth", "--out", archive, "--layers", "2", "--kind", "mixture",
                   "-N", "8", "-K", "256", "-T", "16", "--seed", "3") == 0
        bundles = load_bundles(archive)
        pack.write_bytes(model_to_bytes([
            (bundles[0].name, quantize_layer(bundles[0], "rtn", AaacConfig.for_format(NVFP4),
                                             Scratch())[0]),
            (bundles[1].name, quantize_layer(
                bundles[1], "aaac", AaacConfig.for_format(INT4, sel_size=16, n_outer=1),
                Scratch())[0]),
        ]))
        return archive, pack.read_bytes(), _layer_spans(pack)

    def test_the_unmutated_pack_is_accepted(self, tmp_path, good):
        archive, blob, _ = good
        pack = tmp_path / "m.aaacq"
        pack.write_bytes(blob)
        assert run("eval", pack, archive, "--json", "--out", tmp_path / "r.json") == 0
        assert run("dequantize", pack, "--out", tmp_path / "d.safetensors") == 0

    @pytest.mark.parametrize("mutation", sorted(MUTATIONS))
    def test_mutated_pack_is_refused(self, tmp_path, capsys, good, mutation):
        archive, blob, spans = good
        mutated = MUTATIONS[mutation](bytearray(blob), spans)
        assert bytes(mutated) != blob
        pack = tmp_path / "m.aaacq"
        pack.write_bytes(bytes(mutated))
        (tmp_path / "out").mkdir()
        for argv in (("eval", pack, archive, "--json", "--out", tmp_path / "out" / "r.json"),
                     ("dequantize", pack, "--out", tmp_path / "out" / "d.safetensors")):
            capsys.readouterr()
            assert run(*argv) == 1, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv[0], err)
            assert "Traceback" not in err
            if mutation in NAMED_LAYER:
                # Named once, whether the header check or the decoder refused.
                assert err.count(f"layer {NAMED_LAYER[mutation]!r}") == 1, (argv[0], err)
                assert err.startswith(f"error: layer {NAMED_LAYER[mutation]!r}: "), (argv[0], err)
            else:
                assert "error: layer " not in err, (argv[0], err)
            assert os.listdir(tmp_path / "out") == [], argv[0]


# Where the last row block of the second 600x256 rtn nvfp4 layer keeps its
# last scale word (of 9600) and its last code byte (of 76800).
def _last_scale(spans):
    return spans[1]["scales"] + 2 * (600 * 256 // 16 - 1)


def _last_codes(spans):
    return spans[1]["codes"] + 600 * 256 // 2 - 1


class TestLastRowBlockDamage:
    """A pack is checked a row block at a time, as it is decoded: damage in the
    last row block of the last layer still fails `eval` and `dequantize` with
    a `CorruptionError` that names the layer, writes no output and leaves the
    earlier output as it was."""

    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("blocks")
        archive, pack = d / "layers.safetensors", d / "m.aaacq"
        assert run("synth", "--out", archive, "--layers", "2", "--kind", "mixture",
                   "-N", "600", "-K", "256", "-T", "16", "--seed", "3") == 0
        assert run("quantize", archive, "--out", pack, "--method", "rtn") == 0
        return archive, pack.read_bytes(), _layer_spans(pack)

    @pytest.mark.parametrize("mutation, message", [
        (_poke("<H", _last_scale, 0x0000), "stored scales must decode finite"),
        (_poke("<H", _last_scale, 0x7F80), "stored scales must decode finite"),
        (_poke("<H", _last_scale, 0x7FC1), "stored scales must decode finite"),
        (_poke("<B", _last_codes, 0xFF), "code nibble 15 out of range"),
    ], ids=["scale-zero", "scale-inf", "scale-nan", "code-out-of-range"])
    def test_damage_in_the_last_row_block_is_refused(self, tmp_path, good, mutation, message):
        archive, blob, spans = good
        assert [r.start for r in row_blocks(600, 256)] == [0, 256, 512]
        good_pack, bad_pack = tmp_path / "good.aaacq", tmp_path / "bad.aaacq"
        good_pack.write_bytes(blob)
        bad_pack.write_bytes(bytes(mutation(bytearray(blob), spans)))
        for command, out, extra in (("eval", tmp_path / "r.json", [archive, "--json"]),
                                    ("dequantize", tmp_path / "d.safetensors", [])):
            assert run(command, good_pack, *extra, "--out", out) == 0
            earlier = out.read_bytes()
            args = build_parser().parse_args(list(map(str, [command, bad_pack, *extra, "--out", out])))
            with pytest.raises(CorruptionError, match=f"^layer 'layer001': {message}"):
                args.func(args)
            assert out.read_bytes() == earlier, command
        assert sorted(os.listdir(tmp_path)) == ["bad.aaacq", "d.safetensors", "good.aaacq", "r.json"]
