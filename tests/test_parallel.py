"""Per-layer worker pools: thread and forked-process routes, worker counts, failures."""

import concurrent.futures
import os
import threading

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

    def quantize_layer(bundle, method, cfg, col_importance=None):
        (calls / f"{method}.{bundle.name}.{os.getpid()}").touch()
        return real(bundle, method, cfg, col_importance)

    monkeypatch.setattr(metrics, "quantize_layer", quantize_layer)

    def seen():
        return sorted(tuple(p.name.split(".")) for p in calls.iterdir())

    return seen


class TestRoute:
    def test_small_learner_layers_fork_and_large_ones_do_not(self):
        small = LayerBundle("small", np.zeros((64, 512), np.float32))
        large = LayerBundle("large", np.zeros((512, 4096), np.float32))
        assert metrics.runs_forked("aaac", small)
        assert not metrics.runs_forked("aaac", large)
        assert not metrics.runs_forked("rtn", small)
        assert not metrics.runs_forked("if4", small)

    @needs_fork
    def test_compare_forks_only_learner_tasks(self, spy):
        metrics.compare(suite(), ["rtn", "if4", "aaac"], AaacConfig.for_format(NVFP4), threads=2)
        calls = spy()
        assert len(calls) == 9
        parent = str(os.getpid())
        for method, _, pid in calls:
            assert (pid != parent) == (method == "aaac"), calls

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
        monkeypatch.setattr(metrics, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)

    def test_pools_start_no_more_workers_than_tasks(self):
        assert metrics.parallel_map(lambda x: x * x, [1, 2, 3], 8) == [1, 4, 9]
        assert Recorder.sizes == [3]

    def test_each_route_is_capped_by_its_own_tasks(self):
        out = metrics.parallel_map(lambda x: -x, range(7), 5, forks=lambda x: x % 3 == 0)
        assert out == [0, -1, -2, -3, -4, -5, -6]
        expected = [3, 4] if metrics._CAN_FORK else [5]
        assert Recorder.sizes == expected

    def test_single_task_batches_run_in_process(self):
        assert metrics.parallel_map(str, [1, 2], 4, forks=lambda x: x == 1) == ["1", "2"]
        assert Recorder.sizes == []

    def test_compare_caps_workers_at_the_task_count(self, archive):
        assert run("compare", archive, "--methods", "rtn", "--threads", "8") == 0
        assert Recorder.sizes == [3, 3]  # importances, then the rtn tasks


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
        errors = []
        for threads in ("1", "2"):
            assert run("quantize", arch, "--out", tmp_path / "m.aaacq", "--method", "aaac",
                       "--format", "nvfp4", "--threads", threads) == 1
            errors.append([line for line in capsys.readouterr().err.splitlines()
                           if line.startswith("error: ")])
        assert errors[0] == errors[1]
        assert len(errors[0]) == 1 and errors[0][0].startswith("error: layer 'odd-a': ")

    def test_dead_worker_is_an_aaacq_error(self, monkeypatch, archive, tmp_path, capsys):
        parent, real = os.getpid(), metrics.quantize_layer

        def dies_in_a_worker(bundle, method, cfg, col_importance=None):
            if os.getpid() != parent:
                os._exit(3)
            return real(bundle, method, cfg, col_importance)

        monkeypatch.setattr(metrics, "quantize_layer", dies_in_a_worker)
        with pytest.raises(AaacqError, match="worker process died"):
            metrics.compare(suite(), ["aaac"], AaacConfig.for_format(NVFP4), threads=2)
        assert run("quantize", archive, "--out", tmp_path / "m.aaacq",
                   "--method", "aaac", "--threads", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
