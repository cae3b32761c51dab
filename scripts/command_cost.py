#!/usr/bin/env python3
"""The cost of one `aaacq` command under two source trees, run alternately.

Runs the command `--runs` times under each tree's `src/`, one tree after the
other, and prints per tree the median CPU seconds, wall seconds, peak RSS
and minor page faults of the command's process, from `wait4`.  A child's
peak RSS counts from the launcher's: the high-water mark of the process it
is forked from carries across `exec`.  So this launcher imports neither
numpy nor aaacq and stays far below any command, and the peak is the
command's own, where a benchmark runner's `*_rss_mb` can read its own peak
instead.  Linux and macOS (`os.wait4`); RSS is read as KiB, Linux's unit.

    python3 scripts/command_cost.py --runs 5 ../parent . -- \\
        compare model.safetensors --methods rtn --threads 2 --json --out c.json
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time

_LAUNCH = "import sys; from aaacq.cli import main; sys.exit(main())"


def _run(tree: str, command: list) -> dict:
    """One run of `aaacq command` under `tree`'s sources: its costs, from `wait4`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    with tempfile.TemporaryFile() as err:
        wall = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", _LAUNCH, *command], env=env,
                                 stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - wall
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            err.seek(0)
            raise SystemExit(f"{tree}: aaacq {' '.join(command)} exited {child.returncode}:\n"
                             + err.read().decode(errors="replace"))
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "wall_s": wall,
            "rss_mib": usage.ru_maxrss / 1024, "minflt": usage.ru_minflt}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "--" not in argv:
        raise SystemExit("usage: command_cost.py [--runs N] TREE TREE -- AAACQ-ARGS...")
    at = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("trees", nargs=2, help="two source trees, each with the package under src/")
    parser.add_argument("--runs", type=int, default=5, help="runs per tree (default 5)")
    args = parser.parse_args(argv[:at])
    command = argv[at + 1:]
    if args.runs < 1 or not command:
        raise SystemExit("need at least one run and an aaacq command after --")

    costs = [[] for _ in args.trees]
    for _ in range(args.runs):
        for tree, runs in zip(args.trees, costs):
            runs.append(_run(tree, command))
    for tree, runs in zip(args.trees, costs):
        median = {key: statistics.median(r[key] for r in runs) for key in runs[0]}
        print(f"{tree}: median of {len(runs)}: {median['cpu_s']:.3f} CPU-s, "
              f"{median['wall_s']:.3f} wall-s, {median['rss_mib']:.1f} MiB peak RSS, "
              f"{median['minflt']:.0f} minor faults")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
