"""Output checks: every failing check fails the command that wrote the output.

The package is imported from the checkout's `src/` so the checks use the
same code the commands ran.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def check_pack(path: Path) -> str | None:
    """The pack parses and re-serializes to the same bytes."""
    from aaacq import packfmt

    blob = path.read_bytes()
    if packfmt.model_to_bytes(packfmt.read_pack(path)) != blob:
        return f"{path.name}: re-serialized pack differs from the file"
    return None


def load_report(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise ValueError(f"{path.name}: report has no layer list")
    return doc


def check_dequantized(path: Path, pack_path: Path) -> str | None:
    """The dequantized archive equals quantizers.dequantize of the unpacked pack."""
    from aaacq import packfmt, quantizers, tensors

    got = tensors.read_tensors(path)
    layers = packfmt.read_pack(pack_path)
    if sorted(got) != sorted(name + ".weight" for name, _ in layers):
        return f"{path.name}: tensor names do not match the pack's layers"
    for name, p in layers:
        t0, t1, sel, codes, scales = packfmt.unpack(p)
        want = quantizers.dequantize(codes, scales, t0, t1, sel, p.group_size, p.sel_size)
        if not np.array_equal(got[name + ".weight"], want):
            return f"{path.name}: layer {name!r} differs from dequantize of the pack"
    return None


def gap_recovery(method_doc: dict, rtn_doc: dict, method: str) -> float:
    """Weighted-error gap recovery of `method` against rtn, in percent.

    A compare report holding both methods has it in its `recovery` block;
    across two reports, aaacq's own formula is applied to their aggregates.
    """
    from aaacq import metrics

    if method_doc is rtn_doc:
        return float(method_doc["recovery"][method])
    return metrics.gap_recovery(0.0, rtn_doc["aggregates"]["rtn"]["weighted_err"],
                                method_doc["aggregates"][method]["weighted_err"])


def rtn_rows_agree(report: dict, compare: dict) -> str | None:
    """The rtn eval report's per-layer rows equal compare's rtn rows."""
    def rows(doc):
        return {
            r["layer"]: tuple(r[f] for f in ("mse", "weighted_err", "output_mse", "bpw"))
            for r in doc["layers"] if r["method"] == "rtn"
        }

    want, got = rows(compare), rows(report)
    if not want or want != got:
        return "rtn rows of the report differ from the compare report"
    return None


def check_outputs(workload, commands, out_dir: Path) -> tuple[dict[int, str], dict, float | None]:
    """Run every output check; return failures by command index, digests, gap.

    A command whose output is missing or malformed, or whose output disagrees
    with another command's, is failed with the reason.
    """
    failures: dict[int, str] = {}
    digests: dict[str, str] = {}
    reports: dict[str, dict] = {}
    writer: dict[str, int] = {}

    def fail(index, reason):
        failures.setdefault(index, reason)

    for i, cmd in enumerate(commands):
        for name in (cmd.pack, cmd.report, cmd.tensors):
            if name is None:
                continue
            writer[name] = i
            path = out_dir / name
            if not path.is_file():
                fail(i, f"{name}: missing")
                continue
            digests[name] = sha256(path)
            try:
                if name == cmd.pack:
                    reason = check_pack(path)
                elif name == cmd.report:
                    reports[name] = load_report(path)
                    reason = None
                elif writer.get(cmd.source_pack) in failures:
                    reason = None  # the bad pack already failed its writer
                else:
                    reason = check_dequantized(path, out_dir / cmd.source_pack)
            except Exception as exc:  # any error reading an output fails its command
                reason = f"{name}: {type(exc).__name__}: {exc}"
            if reason:
                fail(i, reason)

    gap = None
    method, method_report, rtn_report = workload.gap
    if method_report in reports and rtn_report in reports:
        from aaacq.errors import UndefinedGapError

        try:
            gap = gap_recovery(reports[method_report], reports[rtn_report], method)
        except (KeyError, TypeError, UndefinedGapError) as exc:
            fail(writer[method_report], f"gap recovery unreadable: {exc!r}")
        else:
            if not gap > 0:
                fail(writer[method_report], f"{method} gap recovery {gap} is not positive")

    # Every workload evaluates an rtn pack into rtn.json and runs compare with rtn.
    compare = next((c.report for c in commands if c.kind == "compare"), None)
    if "rtn.json" in reports and compare in reports:
        try:
            reason = rtn_rows_agree(reports["rtn.json"], reports[compare])
        except (KeyError, TypeError) as exc:
            reason = f"rows unreadable: {exc!r}"
        if reason:
            fail(writer["rtn.json"], f"rtn.json: {reason}")
    return failures, digests, gap


def check_pinned(digests: dict[str, str], pinned: dict[str, str], writer) -> dict[int, str]:
    """Failures for outputs whose digest differs from the pinned one."""
    failures = {}
    for name, want in sorted(pinned.items()):
        if digests.get(name) != want:
            failures.setdefault(writer[name], f"{name}: digest differs from the pinned one")
    return failures
