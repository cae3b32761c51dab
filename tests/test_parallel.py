"""Per-layer worker pools: thread and forked-process routes, worker counts, failures."""

import concurrent.futures
import os
import threading
import time

import numpy as np
import pytest

from aaacq import metrics
from aaacq.cli import main
from aaacq.codebooks import AaacConfig
from aaacq.errors import AaacqError
from aaacq.grids import NVFP4
from aaacq.tensors import LayerBundle, SynthSpec, save_tensor_archive, synth_layer

needs_fork = pytest.mark.skipif(not metrics._CAN_FORK, reason="platform cannot fork")

# Live threads seen by every fork of this process while a test listens.
# Fork hooks cannot be unregistered, so one hook serves the whole test run.
_fork_probe: list | None = None


def _before_fork():
    if _fork_probe is not None:
        _fork_probe.append([t.name for t in threading.enumerate()])


if hasattr(os, "register_at_fork"):
    os.register_at_fork(before=_before_fork)


def run(*argv):
    return main([str(a) for a in argv])


def suite(n=3, rows=16, cols=512):
    return [
        synth_layer(SynthSpec("mixture", rows, cols, 32, seed=40 + i), name=f"mix{i}")
        for i in range(n)
    ]


@pytest.fixture()
def archive(tmp_path):
    path = tmp_path / "layers.safetensors"
    save_tensor_archive(path, suite())
    return path


@pytest.fixture()
def spy(monkeypatch, tmp_path):
    """Record (method, layer, pid) of every `metrics.quantize_layer` call, across forks."""
    calls = tmp_path / "calls"
    calls.mkdir()
    real = metrics.quantize_layer

    def quantize_layer(bundle, method, cfg, scratch, col_importance=None):
        (calls / f"{method}.{bundle.name}.{os.getpid()}").touch()
        return real(bundle, method, cfg, scratch, col_importance)

    monkeypatch.setattr(metrics, "quantize_layer", quantize_layer)

    def seen():
        return sorted(tuple(p.name.split(".")) for p in calls.iterdir())

    return seen


class TestRoute:
    def test_only_learner_calls_fork(self):
        assert metrics.runs_forked(["aaac"])
        assert metrics.runs_forked(["aaac", "if4", "rtn"])
        assert not metrics.runs_forked(["rtn"])
        assert not metrics.runs_forked(["if4", "rtn"])

    @needs_fork
    def test_compare_forks_only_learner_tasks(self, spy):
        cfg, parent = AaacConfig.for_format(NVFP4), str(os.getpid())
        metrics.compare(suite(), ["rtn", "if4", "aaac"], cfg, threads=2)
        calls = spy()
        assert len(calls) == 9
        pids = {}
        for _, layer, pid in calls:
            pids.setdefault(layer, set()).add(pid)
        # With aaac requested, every method of a layer runs in one forked worker.
        assert all(len(p) == 1 and parent not in p for p in pids.values()), calls
        metrics.compare(suite(), ["rtn", "if4"], cfg, threads=2)
        fixed_grid_calls = set(spy()) - set(calls)
        assert len(fixed_grid_calls) == 6 and {pid for *_, pid in fixed_grid_calls} == {parent}

    @needs_fork
    def test_large_learner_layers_fork_with_the_same_bytes(self, spy, tmp_path):
        # 65,536 weights per layer: a learner layer forks whatever its size.
        arch = tmp_path / "large.safetensors"
        save_tensor_archive(arch, suite(n=2, rows=128, cols=512))
        packs = []
        for threads in ("1", "2"):
            out = tmp_path / f"t{threads}.aaacq"
            assert run("quantize", arch, "--out", out, "--method", "aaac",
                       "--iters-outer", "1", "--iters-inner", "2", "--threads", threads) == 0
            packs.append(out.read_bytes())
        assert packs[0] == packs[1]
        parent = str(os.getpid())
        pids = [pid for *_, pid in spy()]
        assert len(pids) == 4 and pids.count(parent) == 2, pids

    @needs_fork
    def test_another_live_thread_keeps_forking_calls_on_threads(self, spy, monkeypatch,
                                                                 archive, tmp_path):
        pools, real = [], metrics._thread_map
        monkeypatch.setattr(metrics, "_thread_map",
                            lambda *args: pools.append(args[2]) or real(*args))
        cfg = AaacConfig.for_format(NVFP4)
        want = [metrics.compare(suite(), ["aaac", "rtn"], cfg, threads=1).to_json()]
        assert run("quantize", archive, "--out", tmp_path / "t1.aaacq", "--threads", "1") == 0
        want.append((tmp_path / "t1.aaacq").read_bytes())
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            got = [metrics.compare(suite(), ["aaac", "rtn"], cfg, threads=2).to_json()]
            assert run("quantize", archive, "--out", tmp_path / "t2.aaacq", "--threads", "2") == 0
            got.append((tmp_path / "t2.aaacq").read_bytes())
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert got == want
        assert pools == [2, 2]
        assert {pid for *_, pid in spy()} == {str(os.getpid())}

    @pytest.mark.parametrize("fork", [False, pytest.param(True, marks=needs_fork)])
    def test_consume_sees_results_in_item_order(self, fork):
        def finish_late_first(i):
            time.sleep(0.05 * (4 - i))
            return i, time.monotonic(), os.getpid()

        seen = []
        out = metrics.parallel_map(finish_late_first, range(4), 2, fork,
                                   consume=lambda r: seen.append(r) or r[0])
        assert out == [0, 1, 2, 3] and [i for i, *_ in seen] == out
        assert seen[1][1] < seen[0][1]  # item 1 finished before item 0
        assert (os.getpid() not in {pid for *_, pid in seen}) == fork

    @needs_fork
    def test_quantize_forks_learner_layers(self, spy, archive, tmp_path):
        parent = str(os.getpid())
        for method in ("aaac", "rtn", "if4"):
            assert run("quantize", archive, "--out", tmp_path / f"{method}.aaacq",
                       "--method", method, "--threads", "2") == 0
        calls = spy()
        assert len(calls) == 9
        for method, _, pid in calls:
            assert (pid != parent) == (method == "aaac"), calls

    def test_one_thread_stays_in_process(self, spy, archive, tmp_path):
        assert run("quantize", archive, "--out", tmp_path / "m.aaacq",
                   "--method", "aaac", "--threads", "1") == 0
        assert {pid for _, _, pid in spy()} == {str(os.getpid())}

    @needs_fork
    def test_no_other_thread_is_alive_when_the_pool_forks(self, archive, tmp_path):
        global _fork_probe
        _fork_probe = []
        try:
            assert run("compare", archive, "--threads", "2", "--json",
                       "--out", tmp_path / "c.json") == 0
            assert run("quantize", archive, "--out", tmp_path / "m.aaacq",
                       "--method", "aaac", "--threads", "2") == 0
            seen = _fork_probe
        finally:
            _fork_probe = None
        assert len(seen) == 4  # two workers per pool
        assert all(names == [threading.main_thread().name] for names in seen), seen


class Recorder:
    """Stands in for a pool executor: records `max_workers`, runs in-process."""

    sizes: list = []

    def __init__(self, max_workers, initializer=None, initargs=(), **kwargs):
        Recorder.sizes.append(max_workers)
        if initializer is not None:
            initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return [fn(item) for item in items]


class TestWorkerCount:
    @pytest.fixture(autouse=True)
    def recorder(self, monkeypatch):
        Recorder.sizes = []
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)

    def test_pools_start_no_more_workers_than_tasks(self):
        assert metrics.parallel_map(lambda x: x * x, [1, 2, 3], 8) == [1, 4, 9]
        assert metrics.parallel_map(lambda x: -x, [1, 2, 3], 8, fork=True) == [-1, -2, -3]
        assert Recorder.sizes == [3, 3]

    def test_single_task_batches_run_in_process(self):
        assert metrics.parallel_map(str, [1], 4) == ["1"]
        assert metrics.parallel_map(str, [1], 4, fork=True) == ["1"]
        assert Recorder.sizes == []

    def test_compare_caps_workers_at_the_task_count(self, archive):
        assert run("compare", archive, "--methods", "rtn", "--threads", "8") == 0
        assert Recorder.sizes == [3]  # one task per layer


@needs_fork
class TestForkedFailures:
    @staticmethod
    def odd_archive(path):
        # 72 columns do not split into 16-wide nvfp4 groups.
        rng = np.random.default_rng(5)
        save_tensor_archive(path, [
            LayerBundle(name, rng.standard_normal((2, 72)).astype(np.float32))
            for name in ("odd-a", "odd-b", "odd-c")
        ])
        return path

    def test_learner_error_reads_as_on_threads(self, tmp_path, capsys):
        arch = self.odd_archive(tmp_path / "odd.safetensors")
        for command in (["quantize", arch, "--out", tmp_path / "m.aaacq", "--method", "aaac"],
                        ["compare", arch]):
            errors = []
            for threads in ("1", "2"):
                assert run(*command, "--format", "nvfp4", "--threads", threads) == 1
                errors.append([line for line in capsys.readouterr().err.splitlines()
                               if line.startswith("error: ")])
            assert errors[0] == errors[1], command
            assert len(errors[0]) == 1 and errors[0][0].startswith("error: layer 'odd-a': ")

    def test_dead_worker_is_an_aaacq_error(self, monkeypatch, archive, tmp_path, capsys):
        parent, real = os.getpid(), metrics.quantize_layer

        def dies_in_a_worker(bundle, method, cfg, scratch, col_importance=None):
            if os.getpid() != parent:
                os._exit(3)
            return real(bundle, method, cfg, scratch, col_importance)

        monkeypatch.setattr(metrics, "quantize_layer", dies_in_a_worker)
        with pytest.raises(AaacqError, match="worker process died"):
            metrics.compare(suite(), ["aaac"], AaacConfig.for_format(NVFP4), threads=2)
        assert run("quantize", archive, "--out", tmp_path / "m.aaacq",
                   "--method", "aaac", "--threads", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
