"""Commands that build no k-d tree must not import scipy.

A one-shot ``ik`` or ``workspace accuracy`` call scans the index exactly
instead of building a tree (see ``plc.workspace.SCAN_BUDGET``).

Each case runs in a fresh interpreter, because the test process itself has
scipy loaded already.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import desc_with

SRC = Path(__file__).resolve().parents[1] / "src"

NO_TREE_COMMANDS = [
    ["fk", "--robot", "default", "--config", "0,1,2,3,4"],
    ["plan", "--robot", "default", "--start", "0,0,0,0,0", "--goal", "0,9,0,2,0", "--verify"],
    ["stiffness", "firm", "--robot", "default", "--config", "0,0,0,0,0", "--direction", "1,0,0"],
    ["stiffness", "firm", "--robot", "default", "--config", "1,2,3,4,5", "--sphere", "20"],
    ["stiffness", "curve", "--robot", "default", "--config", "0,0,0,0,0", "--tension", "50",
     "--direction", "1,0,0"],
    ["stiffness", "twist", "--robot", "default", "--skin", "--torque", "1000"],
    ["stiffness", "twist", "--robot", "default", "--spine", "--torque", "1000"],
    ["normalize", "--designs", "builtin"],
    # building, saving and reading an index need no tree
    ["workspace", "build", "--robot", "default", "--out", "ws.plcw"],
    ["workspace", "export", "--robot", "default", "--index", "ws.plcw", "--format", "csv"],
    ["workspace", "omnivariance", "--robot", "default", "--index", "ws.plcw"],
    # a few queries scan the index within SCAN_BUDGET
    ["ik", "--robot", "default", "--index", "ws.plcw", "--target", "60,20,35"],
    ["workspace", "accuracy", "--robot", "default", "--index", "ws.plcw", "--queries", "queries.csv"],
]

CHILD = """
import contextlib, io, json, sys
import plc
import plc.cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(plc.cli.main(argv))
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def run_fresh(commands, tmp_path):
    env = dict(os.environ, PLC_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(commands)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_commands_without_a_tree_never_import_scipy(tmp_path):
    rows = np.random.default_rng(3).uniform(-150.0, 150.0, size=(20, 3))
    (tmp_path / "queries.csv").write_text(
        "x,y,z\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    )
    result = run_fresh(NO_TREE_COMMANDS, tmp_path)
    assert result["codes"] == [0] * len(NO_TREE_COMMANDS)
    assert result["scipy"] == []


def test_local_omnivariance_loads_scipy_spatial(tmp_path):
    # guards the guard: the probe must see scipy once a tree is built
    robot = tmp_path / "robot.yaml"
    robot.write_text("segment_count: 2\n")
    index = tmp_path / "ws.plcw"
    from plc import enumerate_workspace

    enumerate_workspace(desc_with(segment_count=2)).save(index)
    argv = ["workspace", "omnivariance", "--robot", str(robot), "--index", str(index), "--local", "4"]
    result = run_fresh([argv], tmp_path)
    assert result["codes"] == [0]
    assert "scipy.spatial" in result["scipy"]
