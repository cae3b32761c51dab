"""A fixed CPU job that gauges how fast the machine runs at the moment.

    python3 benchmark/reference.py

It starts Python, imports numpy and does a fixed mix of the kinds of work
aaacq's commands do: group absmax scales, division, a table search, rounding,
a sort, reductions over a few MiB of float32, filling fresh 32 MiB arrays
(whose pages fault in, as the commands' large temporaries do), and a
Python-level loop.  It does not import aaacq, so no change to the program
moves it.  run.py runs it around each timed command and divides the
command's CPU time by its own, so that the neighbours' load on a shared
machine, which slows both alike, drops out (see README.md).
"""

from __future__ import annotations

import numpy as np

ROUNDS = 6
FRESH_ARRAYS = 4


def main() -> float:
    rng = np.random.default_rng(0)
    w = rng.standard_normal((512, 1024), dtype=np.float32).reshape(-1, 16)
    table = np.sort(rng.standard_normal(15).astype(np.float32))
    total = 0.0
    for _ in range(ROUNDS):
        scales = np.abs(w).max(axis=1, keepdims=True) / np.float32(6.0)
        codes = np.searchsorted(table, w / scales).astype(np.uint8)
        total += float(np.square(w - np.rint(w * 4) / 4).sum()) + int(codes.sum())
        total += float(np.sort(w[:4096], axis=None)[2048])
    for _ in range(FRESH_ARRAYS):
        fresh = np.empty(8 << 20, dtype=np.float32)
        fresh.fill(1.0)
        total += float(fresh[::4096].sum())
        del fresh
    acc = 0
    for i in range(300_000):
        acc += i * i % 7
    return total + acc


if __name__ == "__main__":
    print(main())
