"""Run one `aaacq` command in-process with its module boundaries traced.

    python3 benchmark/traced_cli.py SPANS.json COMMAND [ARGS...]

Behaves like `python3 -m aaacq.cli COMMAND [ARGS...]` (the package must be
importable, e.g. through PYTHONPATH) and writes the spans of the run, with
`tracemalloc` on, to SPANS.json.
"""

from __future__ import annotations

import json
import sys
import tracemalloc

import aaacq
import aaacq.cli

from tracer import Tracer, install, uninstall


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    undo = install(tracer, aaacq)
    tracemalloc.start()
    root = tracer.open(f"cli.{argv[0]}")
    try:
        return aaacq.cli.main(argv)
    finally:
        tracer.close(root)
        tracemalloc.stop()
        uninstall(undo)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.records(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
