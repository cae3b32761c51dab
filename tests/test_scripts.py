"""Experiment scripts run end to end on a tiny input."""

import importlib.util
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
    assert cost.main(["--runs", "1", tree, tree, "--", "synth", "--out", str(out),
                      "-N", "2", "-K", "16", "-T", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and out.is_file()
    for line in lines:
        assert line.startswith(f"{tree}: median of 1: ")
        assert all(word in line for word in ("CPU-s", "wall-s", "MiB peak RSS", "minor faults"))
