"""aaacq benchmark: real CLI commands on seeded inputs, timed from outside.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is taken from `src/` next to this directory.
With `--trace 0` the workload's commands run in fresh child processes, in
passes until S seconds have passed, and the end-to-end metrics are medians
over those passes.  Throughputs use the children's CPU time from `wait4`,
which CPU steal on a shared VM does not inflate the way it inflates wall
time, divided by the CPU time of a fixed reference job (reference.py) run
next to each command, which takes out how fast the shared machine runs at the
moment.  Raw CPU and wall-clock figures are printed and recorded beside them.
How well the threaded commands use their threads is measured against wall
time with the steal `/proc/stat` counted taken out (see `parallelism`).  With
`--trace 1` one untraced pass and one pass with every module boundary traced
(see tracer.py) run instead, and the per-module metrics come from the traced
pass.  Every pass's outputs are checked (see checks.py).  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  A record of the run with its environment and every sample goes
to `.bench_results/`.  See README.md.
"""

from __future__ import annotations

import os

# Pinned before numpy loads, here and in every child.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("AAAC_THREADS", None)

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_REPEATS = 3
# Whole-run budget; a pass is not started when the last one would overrun it.
BUDGET_S = 150.0

KINDS = ("quantize", "eval", "dequantize", "compare")
# The commands that spread per-layer work over `--threads` workers.
THREADED = ("quantize", "compare")
END_TO_END = {
    "setup_s": "s",
    **{f"{kind}_mw_per_ref": "MW/ref" for kind in KINDS},
    **{f"{kind}_parallelism": "ratio" for kind in THREADED},
    "quantize_rss_mb": "MiB",
    "readback_rss_mb": "MiB",
    "compare_rss_mb": "MiB",
    "gap_recovery_pct": "%",
}


def environment(threads: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_flag": threads,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "AAAC_THREADS": os.environ.get("AAAC_THREADS", "unset"),
    }


def cpu_stat() -> tuple[int, int] | None:
    """Busy and stolen CPU ticks of the whole machine so far, from /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return user + nice + system + irq + softirq, steal


def steal_share(before, after) -> float:
    """The share of the machine's demand for CPU that the host did not serve.

    Steal is counted only on a vCPU that wanted to run, so the share is steal
    over busy plus steal.  0 when /proc/stat gives nothing.
    """
    if before is None or after is None:
        return 0.0
    busy, steal = after[0] - before[0], after[1] - before[1]
    return steal / (busy + steal) if busy + steal > 0 else 0.0


class Runner:
    """Starts child processes with the pinned environment and a deadline."""

    def __init__(self, deadline: float):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.deadline = deadline

    def run(self, argv, log: Path) -> dict:
        """Run to completion; wall time, exit code and peak RSS from wait4."""
        with open(log, "wb") as out:
            stat_before = cpu_stat()
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, env=self.env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=out, stderr=out
            )
            watchdog = threading.Timer(max(self.deadline - time.monotonic(), 0.0), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            steal = steal_share(stat_before, cpu_stat())
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = log.read_text(errors="replace")
        error = None
        if proc.returncode != 0:
            error = f"exit code {proc.returncode}"
        elif "Traceback" in text:
            error = "traceback on stderr"
        if error:
            print(f"  {' '.join(map(str, argv[1:]))}: {error}\n{text[-2000:]}", file=sys.stderr)
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "steal_share": steal, "rss_mib": usage.ru_maxrss / 1024, "error": error}


def run_pass(runner, commands, in_dir, out_dir, spans_dir=None, timed=True) -> list[dict]:
    """One pass over the workload's commands; traced when `spans_dir` is given.

    In a `timed` pass each command runs its `repeat` times in a row, and the
    reference job runs before the first command and after every command.  A
    command's samples carry as `ref_cpu_s` the mean CPU time of the two
    reference jobs around it.  Else each command runs once.
    """
    import workloads

    def reference(i):
        job = runner.run([sys.executable, str(HERE / "reference.py")], out_dir / f"{i}.ref.log")
        if job["error"]:
            raise RuntimeError(f"the reference job failed: {job['error']}")
        return job["cpu_s"]

    out_dir.mkdir(parents=True, exist_ok=True)
    samples = []
    before = reference(0) if timed else None
    for i, cmd in enumerate(commands):
        args = [a.replace("{in}", str(in_dir)).replace("{out}", str(out_dir)) for a in cmd.args]
        if spans_dir is None:
            argv = workloads.cli_argv(*args)
        else:
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans_dir / f"{i}.json"), *args]
        mine = []
        for _ in range(cmd.repeat if timed else 1):
            sample = runner.run(argv, out_dir / f"{i}.log")
            sample.update(command=i, kind=cmd.kind, mweights=cmd.mweights)
            mine.append(sample)
        if timed:
            after = reference(i + 1)
            for sample in mine:
                sample.update(ref_cpu_s=(before + after) / 2)
            before = after
        samples += mine
    return samples


def parallelism(samples, threads: int) -> float:
    """Child CPU seconds ÷ (threads × wall seconds the host served).

    A command that kept every thread busy scores 1 whatever the steal: its
    CPU time and its served wall time shrink together.  One that runs
    serially scores 1/threads.  Served wall time is the wall time less the
    steal share of the machine over the command's life.
    """
    cpu = served = 0.0
    for s in samples:
        cpu += s["cpu_s"]
        served += threads * s["wall_s"] * (1.0 - s["steal_share"])
    return cpu / served


def pass_metrics(samples, threads: int) -> tuple[dict[str, float], dict[str, float]]:
    """End-to-end metrics of one pass, and the unbounded figures recorded beside them.

    A repeated command counts once, with its median times.  The CPU time of
    a command in reference units is its CPU time ÷ its `ref_cpu_s`.
    """
    runs: dict[int, list[dict]] = {}
    for s in samples:
        runs.setdefault(s["command"], []).append(s)
    m, recorded = {}, {}
    for kind in KINDS:
        mine = [r for r in runs.values() if r[0]["kind"] == kind]
        mw = sum(r[0]["mweights"] for r in mine)
        m[f"{kind}_mw_per_ref"] = mw / sum(
            statistics.median(s["cpu_s"] / s["ref_cpu_s"] for s in r) for r in mine)
        recorded[f"{kind}_mw_per_cpu_s"] = mw / sum(
            statistics.median(s["cpu_s"] for s in r) for r in mine)
        recorded[f"{kind}_mw_per_wall_s"] = mw / sum(
            statistics.median(s["wall_s"] for s in r) for r in mine)
        if kind in THREADED:
            # The run of each command whose parallelism is its median.
            middle = [sorted(r, key=lambda s: parallelism([s], threads))[len(r) // 2]
                     for r in mine]
            m[f"{kind}_parallelism"] = parallelism(middle, threads)
    rss = {k: max(s["rss_mib"] for s in samples if s["kind"] in kinds)
           for k, kinds in (("quantize_rss_mb", ("quantize",)),
                            ("readback_rss_mb", ("eval", "dequantize")),
                            ("compare_rss_mb", ("compare",)))}
    m.update(rss)
    return m, recorded


def cpu_seconds() -> float:
    """CPU time of this process plus its waited-for children so far."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def setup(runner, workload, seed, in_dir, repeats) -> tuple[list[float], list[float]]:
    """Write the inputs and warm the imports `repeats` times; CPU and wall times."""
    import checks

    cpu, wall, digests = [], [], set()
    for _ in range(repeats):
        shutil.rmtree(in_dir, ignore_errors=True)
        in_dir.mkdir(parents=True)
        start, start_cpu = time.perf_counter(), cpu_seconds()
        workload.make_inputs(in_dir, seed, runner.env)
        subprocess.run([sys.executable, "-c", "import aaacq.cli"], env=runner.env, check=True)
        cpu.append(cpu_seconds() - start_cpu)
        wall.append(time.perf_counter() - start)
        digests.add(tuple(checks.sha256(p) for p in sorted(in_dir.iterdir())))
    if len(digests) != 1:
        raise RuntimeError("input generation is not deterministic for a fixed seed")
    return cpu, wall


def pinned_digests(workload, args) -> dict[str, str] | None:
    """The digests a run's outputs must match: seed 0 only."""
    if args.seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload.name, {})


def check_pass(workload, commands, out_dir, samples, reference=None, pinned=None):
    """Apply the output checks to one pass; mark failed samples; digests and gap.

    `reference` holds the first pass's digests, which later passes must
    reproduce; `pinned` the digests the first pass must match.
    """
    import checks

    failures, digests, gap = checks.check_outputs(workload, commands, out_dir)
    writer = {name: i for i, c in enumerate(commands) for name in (c.pack, c.report, c.tensors) if name}
    if reference is not None:
        for name, digest in digests.items():
            if reference.get(name) != digest:
                failures.setdefault(writer[name], f"{name}: bytes differ from the first pass")
    if pinned is not None:
        for i, reason in checks.check_pinned(digests, pinned, writer).items():
            failures.setdefault(i, reason)
    for i, reason in failures.items():
        print(f"  check failed: {reason}", file=sys.stderr)
        # The last run of a command wrote the outputs that were checked.
        last = [s for s in samples if s["command"] == i][-1]
        last["error"] = last["error"] or reason
    return digests, gap


def summarize(values) -> dict:
    # A tail percentile needs at least ten samples beyond it: p90 from 100 up.
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[-1]
    return out


def roadmap_table(metrics, runs, samples) -> list[str]:
    """The learn-large figures beside the baseline ROADMAP.md records.

    ROADMAP measured one 1024x4096 layer; per-layer times here are scaled
    to that size by weight count, which the learner's cost follows.  Times
    are the CPU seconds of the calling thread, which CPU steal and the other
    worker thread do not inflate the way they inflate wall time.
    """
    import workloads

    rows, cols = workloads.LL_SHAPE
    scale = 1024 * 4096 / (rows * cols)

    def per_call(name):
        spans = [s for spans in runs for s in spans if s["name"] == name]
        return sum(s["cpu"] for s in spans) / max(len(spans), 1)

    quantize_rss = max(s["rss_mib"] for s in samples if s["kind"] == "quantize")
    figures = [
        ("learn s per 1024x4096", f"{scale * per_call('codebooks.learn'):.1f}", "30-33"),
        ("recon_codes share of learn (wall)",
         f"{100 * metrics['codebooks.learn_recon_share']:.0f}%", "86%"),
        (f"quantize peak RSS MiB, 2 x {rows}x{cols} at once", f"{quantize_rss:.0f}",
         "~570 for 1 x 1024x4096"),
        ("rtn_quantize s per 1024x4096", f"{scale * per_call('quantizers.rtn_quantize'):.2f}",
         "0.75"),
        ("dequantize s per 1024x4096", f"{scale * per_call('quantizers.dequantize'):.3f}", "0.1"),
        (f"pack ms per {rows}x{cols}", f"{1e3 * per_call('packfmt.pack'):.1f}", "<10"),
        ("write_pack (serialize) ms per pack", f"{1e3 * per_call('packfmt.write_pack'):.1f}",
         "<10"),
        (f"unpack ms per {rows}x{cols}", f"{1e3 * per_call('packfmt.unpack'):.1f}", "<10"),
    ]
    lines = ["learn-large vs ROADMAP.md's baseline (traced thread CPU time):",
             f"  {'figure':46} {'here':>8}  ROADMAP"]
    lines += [f"  {name:46} {here:>8}  {base}" for name, here, base in figures]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "aaacq" / "cli.py").is_file():
        print(f"error: no aaacq package at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    threads = len(os.sched_getaffinity(0))
    commands = workload.commands(threads)
    runner = Runner(deadline=started + 170.0)
    env = environment(threads)
    print("environment: " + json.dumps(env, sort_keys=True))

    work = ROOT / ".bench_work" / f"{workload.name}-{os.getpid()}"
    in_dir = work / "inputs"
    try:
        setup_cpu, setup_wall = setup(
            runner, workload, args.seed, in_dir, 1 if args.trace else SETUP_REPEATS)
        if args.trace:
            record = traced_run(runner, workload, commands, args, in_dir, work, threads)
        else:
            record = untraced_run(runner, workload, commands, args, in_dir, work, started,
                                  threads)
            record["metrics"]["setup_s"] = summarize(setup_cpu)
            record["recorded"]["setup_wall_s"] = summarize(setup_wall)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = record.pop("samples")
    failed = sum(1 for s in samples if s["error"])
    print(f"failed_ratio: {failed}/{len(samples)} = {failed / len(samples):.3f}")
    metrics = {}
    for name, value in record["metrics"].items():
        unit = END_TO_END.get(name) or _unit(name)
        metrics[name] = {"value": _show(name, value, unit), "unit": unit}
    if record.get("recorded"):
        print("recorded, not bounded (the shared machine's load moves them):")
        for name, value in record["recorded"].items():
            _show(name, value, "MW/cpu-s" if "_cpu_s" in name else "MW/s" if "_mw_" in name else "s")

    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(
        {"workload": workload.name, "seed": args.seed, "environment": env,
         "samples": samples, "metrics": metrics, **record}, indent=1, default=str) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


def _show(name, value, unit) -> float:
    """Print one metric line; the value, taking the median of a summary."""
    if isinstance(value, dict):
        detail = ", ".join(f"{k}={v:.6g}" for k, v in value.items() if k != "median")
        print(f"  {name:34} {value['median']:14.6g} {unit:8} ({detail})")
        return value["median"]
    print(f"  {name:34} {value:14.6g} {unit}")
    return value


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_share", "_efficiency")):
        return "ratio"
    return "count"


def untraced_run(runner, workload, commands, args, in_dir, work, started, threads) -> dict:
    out_dir = work / "out"
    passes, samples, reference, gap = [], [], None, None
    measure_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        pass_samples = run_pass(runner, commands, in_dir, out_dir)
        digests, pass_gap = check_pass(
            workload, commands, out_dir, pass_samples, reference,
            None if reference else pinned_digests(workload, args))
        if reference is None:
            reference, gap = digests, pass_gap
        samples += pass_samples
        if not any(s["error"] for s in pass_samples):
            passes.append(pass_metrics(pass_samples, threads))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - measure_start
        if elapsed >= args.seconds or time.monotonic() - started + last > BUDGET_S:
            break
    metrics, recorded = {}, {}
    if passes:
        for name in passes[0][0]:
            metrics[name] = summarize([p[0][name] for p in passes])
        for name in passes[0][1]:
            recorded[name] = summarize([p[1][name] for p in passes])
    if gap is not None:
        metrics["gap_recovery_pct"] = gap
    return {"metrics": metrics, "recorded": recorded, "samples": samples, "digests": reference}


def traced_run(runner, workload, commands, args, in_dir, work, threads) -> dict:
    import tracer

    plain = run_pass(runner, commands, in_dir, work / "untraced", timed=False)
    reference, _ = check_pass(workload, commands, work / "untraced", plain,
                              pinned=pinned_digests(workload, args))
    spans_dir = work / "spans"
    spans_dir.mkdir()
    traced = run_pass(runner, commands, in_dir, work / "traced", spans_dir, timed=False)
    check_pass(workload, commands, work / "traced", traced, reference)

    runs = []
    for i in range(len(commands)):
        path = spans_dir / f"{i}.json"
        runs.append(json.loads(path.read_text()) if path.is_file() else [])
    metrics = tracer.derive(runs, threads)
    for key, name in (("wall_s", "trace.overhead_s"), ("cpu_s", "trace.overhead_cpu_s")):
        base = sum(s[key] for s in plain)
        metrics[name] = sum(s[key] for s in traced) - base
        print(f"tracing overhead: {metrics[name]:.3f} {key[:-2]} s over {base:.3f} s untraced")
    if workload.name == "learn-large":
        print("\n".join(roadmap_table(metrics, runs, plain)))
    return {"metrics": metrics, "samples": plain + traced, "digests": reference}


if __name__ == "__main__":
    raise SystemExit(main())
