"""Experiment scripts run end to end on a tiny input."""

import importlib.util
import py_compile
import re
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_selection_sweep_prints_one_row_per_selection_size(capsys):
    spec = importlib.util.spec_from_file_location("selection_sweep", SCRIPTS / "selection_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.main(["--layers", "1", "--format", "nvfp4"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # nvfp4's 16-wide scale groups split into selections of 4, 8 and 16.
    assert [row[0] for row in rows if row[0].isdigit()] == ["4", "8", "16"]


def test_learn_cost_prints_cost_per_weight_and_rss(capsys):
    spec = importlib.util.spec_from_file_location("learn_cost", SCRIPTS / "learn_cost.py")
    cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cost)
    assert cost.main(["--rows", "8", "--cols", "128", "-T", "8", "--format", "int4",
                      "-g", "64", "-S", "16"]) == 0
    line = capsys.readouterr().out
    assert line.startswith("8x128 int4 g=64 S=16 T=8: ")
    assert "CPU-us per weight" in line and "RSS +" in line and "traced peak " in line


def test_command_cost_prints_one_median_line_per_tree(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("command_cost", SCRIPTS / "command_cost.py")
    cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cost)
    tree = str(SCRIPTS.parent)
    out = tmp_path / "s.safetensors"
    assert cost.main(["--runs", "2", tree, tree, "--", "synth", "--out", str(out),
                      "-N", "2", "-K", "16", "-T", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and out.is_file()
    for line in lines[:2]:
        assert line.startswith(f"{tree}: median of 2: ")
        # Each figure is its median, then its least and greatest value over the runs.
        figures = re.findall(r"([\d.]+) ([A-Za-z -]+?) \(([\d.]+)-([\d.]+)\)", line)
        assert [unit for _, unit, _, _ in figures] == ["CPU-s", "wall-s", "MiB peak RSS", "minor faults",
                                                       "start-up CPU-s"]
        for median, _, least, greatest in figures:
            assert float(least) <= float(median) <= float(greatest)
    # Then, per tree, its modules with current cached bytecode before and after
    # the runs: the runs import every module, so after them all are current
    # unless bytecode is not written.
    modules = len(list((SCRIPTS.parent / "src" / "aaacq").glob("*.py")))
    for line in lines[2:]:
        match = re.fullmatch(rf"{re.escape(tree)}: src/aaacq bytecode up to date for "
                             rf"(\d+) of {modules} modules before the runs, (\d+) after", line)
        assert match and int(match[1]) <= modules
        if not sys.dont_write_bytecode:
            assert int(match[2]) == modules


def test_command_cost_tells_stale_bytecode_from_current(tmp_path):
    spec = importlib.util.spec_from_file_location("command_cost", SCRIPTS / "command_cost.py")
    cost = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cost)
    package = tmp_path / "src" / "aaacq"
    package.mkdir(parents=True)
    for name in ("a", "b", "c"):
        (package / f"{name}.py").write_text(f"NAME = {name!r}\n")
    assert cost._bytecode(str(tmp_path)) == (0, 3)
    py_compile.compile(str(package / "a.py"), doraise=True)
    py_compile.compile(str(package / "b.py"), doraise=True,
                       invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)
    assert cost._bytecode(str(tmp_path)) == (2, 3)
    (package / "a.py").write_text("NAME = 'changed'\n")  # a new size: stale whatever the mtime
    (package / "b.py").write_text("NAME = 'B'\n")  # the same size, a new hash
    assert cost._bytecode(str(tmp_path)) == (0, 3)
