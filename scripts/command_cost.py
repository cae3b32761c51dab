#!/usr/bin/env python3
"""The cost of one `aaacq` command under two source trees, run alternately.

Runs the command `--runs` times under each tree's `src/`, one tree after the
other, and prints per tree the median CPU seconds, wall seconds, peak RSS
and minor page faults of the command's process, from `wait4`, each with
its spread, the least and the greatest over the runs, in parentheses.
After each command it times a bare `import aaacq.cli` under the same tree,
and prints that start-up's median CPU seconds last: a change to the
command's own work shows as a change in the difference of the two.  Then
it prints, per tree, how many of its `src/aaacq` modules had up-to-date
cached bytecode before the runs and after them: a module compiled during a
run frees memory that moves glibc's allocation thresholds, so fault counts
compare only between trees that load their modules from bytecode.  A child's
peak RSS counts from the launcher's: the high-water mark of the process it
is forked from carries across `exec`.  So this launcher imports neither
numpy nor aaacq and stays far below any command, and the peak is the
command's own, where a benchmark runner's `*_rss_mb` can read its own peak
instead.  Linux and macOS (`os.wait4`); RSS is read as KiB, Linux's unit.

    python3 scripts/command_cost.py --runs 5 ../parent . -- \\
        compare model.safetensors --methods rtn --threads 2 --json --out c.json
"""

import argparse
import glob
import importlib.util
import os
import statistics
import subprocess
import sys
import tempfile
import time

_LAUNCH = "import sys; from aaacq.cli import main; sys.exit(main())"
_START_UP = "import aaacq.cli"
# Each cost's unit and decimals, in the order they are printed.
_FIGURES = {"cpu_s": ("CPU-s", 3), "wall_s": ("wall-s", 3), "rss_mib": ("MiB peak RSS", 1),
            "minflt": ("minor faults", 0), "start_up_cpu_s": ("start-up CPU-s", 3)}


def _run(tree: str, code: str, args: list) -> dict:
    """One run of `python -c code args` under `tree`'s sources: its costs, from `wait4`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"))
    with tempfile.TemporaryFile() as err:
        wall = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", code, *args], env=env,
                                 stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - wall
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode:
            err.seek(0)
            raise SystemExit(f"{tree}: python -c {code!r} {' '.join(args)} exited {child.returncode}:\n"
                             + err.read().decode(errors="replace"))
    return {"cpu_s": usage.ru_utime + usage.ru_stime, "wall_s": wall,
            "rss_mib": usage.ru_maxrss / 1024, "minflt": usage.ru_minflt}


def _bytecode_current(source: str) -> bool:
    """Whether `source` has cached bytecode that this Python loads without compiling it."""
    try:
        with open(importlib.util.cache_from_source(source), "rb") as fh:
            head = fh.read(16)
    except OSError:
        return False
    if len(head) < 16 or head[:4] != importlib.util.MAGIC_NUMBER:
        return False
    if int.from_bytes(head[4:8], "little") & 1:  # hash-based (PEP 552)
        with open(source, "rb") as fh:
            return head[8:16] == importlib.util.source_hash(fh.read())
    st = os.stat(source)
    return head[8:16] == ((int(st.st_mtime) & 0xFFFFFFFF).to_bytes(4, "little")
                          + (st.st_size & 0xFFFFFFFF).to_bytes(4, "little"))


def _bytecode(tree: str) -> tuple[int, int]:
    """(modules with current bytecode, modules) of `tree`'s `src/aaacq`."""
    sources = glob.glob(os.path.join(os.path.abspath(tree), "src", "aaacq", "*.py"))
    return sum(map(_bytecode_current, sources)), len(sources)


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
    before = [_bytecode(tree) for tree in args.trees]
    for _ in range(args.runs):
        for tree, runs in zip(args.trees, costs):
            runs.append(_run(tree, _LAUNCH, command))
            runs[-1]["start_up_cpu_s"] = _run(tree, _START_UP, [])["cpu_s"]
    for tree, runs in zip(args.trees, costs):
        figures = []
        for key, (unit, places) in _FIGURES.items():
            values = [r[key] for r in runs]
            figures.append(f"{statistics.median(values):.{places}f} {unit} "
                           f"({min(values):.{places}f}-{max(values):.{places}f})")
        print(f"{tree}: median of {len(runs)}: " + ", ".join(figures))
    for tree, (was, modules) in zip(args.trees, before):
        now = _bytecode(tree)[0]
        print(f"{tree}: src/aaacq bytecode up to date for {was} of {modules} modules "
              f"before the runs, {now} after")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
