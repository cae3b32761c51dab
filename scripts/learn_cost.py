#!/usr/bin/env python3
"""The cost of one `codebooks.learn`: CPU time per weight, RSS growth and traced peak.

Builds one synthetic mixture layer, then learns it in a forked child, whose
CPU time and peak RSS count from the fork: what the learn itself takes, not
the layer's synthesis.  RSS growth is the child's peak above its RSS at the
fork, also given as a multiple of the float32 layer.  A child reuses heap
pages its parent freed, so the growth can read well below what the learn
allocates; a second child learns the layer under tracemalloc, whose peak
counts every numpy allocation the learn makes.  Linux only.

    OPENBLAS_NUM_THREADS=1 python3 scripts/learn_cost.py --rows 11008 --cols 4096
"""

import argparse
import json
import os
import resource
import time
import tracemalloc

from aaacq.codebooks import AaacConfig, learn
from aaacq.grids import get_format
from aaacq.tensors import SynthSpec, synth_layer


def _learn_in_child(bundle, cfg, traced=False) -> dict:
    """CPU seconds, wall seconds and peak RSS growth (KiB) of `learn` in a
    forked child, or with `traced` its tracemalloc peak (bytes)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: its rusage and RSS peak start at the fork
        os.close(read)
        start = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # the RSS at the fork
        if traced:
            tracemalloc.start()
        wall = time.perf_counter()
        learn(bundle, cfg, full_trace=False)
        wall = time.perf_counter() - wall
        usage = resource.getrusage(resource.RUSAGE_SELF)
        cost = {"cpu_s": usage.ru_utime + usage.ru_stime, "wall_s": wall,
                "rss_kib": usage.ru_maxrss - start}
        if traced:
            cost = {"peak": tracemalloc.get_traced_memory()[1]}
        os.write(write, json.dumps(cost).encode())
        os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        cost = json.loads(fh.read() or "null")
    _, status = os.waitpid(pid, 0)
    if cost is None or os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"the learn failed in its child (wait status {status})")
    return cost


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--rows", type=int, default=512)
    parser.add_argument("--cols", type=int, default=4096)
    parser.add_argument("-T", "--tokens", type=int, default=64)
    parser.add_argument("--format", default="nvfp4", choices=["nvfp4", "int4"])
    parser.add_argument("-g", "--group-size", type=int, default=0)
    parser.add_argument("-S", "--sel-size", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    fmt = get_format(args.format)
    g = args.group_size or fmt.group_size
    cfg = AaacConfig(fmt=fmt, group_size=g, sel_size=args.sel_size or g)
    bundle = synth_layer(SynthSpec("mixture", args.rows, args.cols, args.tokens, seed=args.seed))
    cost = _learn_in_child(bundle, cfg)
    peak_mib = _learn_in_child(bundle, cfg, traced=True)["peak"] / 2**20
    weights, layer_mib = bundle.weights.size, bundle.weights.nbytes / 2**20
    rss_mib = cost["rss_kib"] / 1024
    print(f"{args.rows}x{args.cols} {args.format} g={g} S={cfg.sel_size} T={args.tokens}: "
          f"{cost['cpu_s']:.3f} CPU-s ({cost['cpu_s'] / weights * 1e6:.3f} CPU-us per weight), "
          f"{cost['wall_s']:.3f} s wall, RSS +{rss_mib:.1f} MiB "
          f"({rss_mib / layer_mib:.2f}x the float32 layer), "
          f"traced peak {peak_mib:.1f} MiB ({peak_mib / layer_mib:.2f}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
