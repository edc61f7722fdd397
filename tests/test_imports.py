"""Each command loads only the third-party modules it runs.

``import plc`` loads none of them.  numpy is loaded by the commands that
compute with arrays: the workspace commands, ``ik`` and ``stiffness firm
--sphere``.  ``fk``, ``stiffness firm --direction``, ``stiffness curve`` and
``stiffness twist`` compute one pose or one direction in Python floats, and
``plan`` and ``normalize`` are scalar too, so none of them loads it.  PyYAML is loaded only to read a ``--robot`` description file.  scipy
is loaded only to build a k-d tree: a one-shot ``ik`` or ``workspace
accuracy`` call scans the index exactly instead (see
``plc.workspace.SCAN_BUDGET``).

Each case runs in its own fresh interpreter, because the test process has
all of them loaded already, and one command must not hide what another
loads.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import desc_with
from plc import RobotDescription, enumerate_workspace, serialize_robot_description

SRC = Path(__file__).resolve().parents[1] / "src"
PROBED = ("numpy", "yaml", "scipy", "scipy.spatial")
ROBOT = "robot.yaml"  # the reference robot, written as a description file
NUMPY = ["numpy"]
NUMPY_YAML = ["numpy", "yaml"]

# argv, and the PROBED modules it loads
COMMANDS = [
    # one pose, one direction or one curve is computed in Python floats
    (["fk", "--robot", "default", "--config", "0,1,2,3,4"], []),
    (["fk", "--robot", ROBOT, "--config", "0,1,2,3,4"], ["yaml"]),
    (["plan", "--robot", "default", "--start", "0,0,0,0,0", "--goal", "0,9,0,2,0", "--verify"], []),
    (["plan", "--robot", ROBOT, "--start", "0,0,0,0,0", "--goal", "0,9,0,2,0", "--out", "plan.txt"],
     ["yaml"]),
    (["stiffness", "firm", "--robot", "default", "--config", "0,0,0,0,0", "--direction", "1,0,0"],
     []),
    (["stiffness", "firm", "--robot", ROBOT, "--config", "1,2,3,4,5", "--direction", "1,2,3",
      "--literal-polar"], ["yaml"]),
    (["stiffness", "curve", "--robot", "default", "--config", "0,0,0,0,0", "--tension", "50",
      "--direction", "1,0,0"], []),
    (["stiffness", "curve", "--robot", ROBOT, "--config", "3,1,4,1,5", "--tension", "20",
      "--direction", "0,1,1", "--out", "curve.csv"], ["yaml"]),
    # a sphere map is an array
    (["stiffness", "firm", "--robot", "default", "--config", "1,2,3,4,5", "--sphere", "20"], NUMPY),
    (["stiffness", "firm", "--robot", ROBOT, "--config", "1,2,3,4,5", "--sphere", "20"], NUMPY_YAML),
    # the twist formulas are scalar: no numpy
    (["stiffness", "twist", "--robot", "default", "--skin", "--torque", "1000"], []),
    (["stiffness", "twist", "--robot", ROBOT, "--spine", "--torque", "1000"], ["yaml"]),
    (["normalize", "--designs", "builtin"], []),
    (["normalize", "--designs", "builtin", "--out", "table.csv"], []),
    # building, saving and reading an index need no tree
    (["workspace", "build", "--robot", "default", "--out", "built.plcw"], NUMPY),
    (["workspace", "export", "--robot", "default", "--index", "ws.plcw", "--format", "csv"], NUMPY),
    (["workspace", "omnivariance", "--robot", ROBOT, "--index", "ws.plcw"], NUMPY_YAML),
    # a few queries scan the index within SCAN_BUDGET
    (["ik", "--robot", "default", "--index", "ws.plcw", "--target", "60,20,35"], NUMPY),
    (["workspace", "accuracy", "--robot", ROBOT, "--index", "ws.plcw", "--queries", "queries.csv"],
     NUMPY_YAML),
]

CHILD = """
import contextlib, io, json, sys
probed = json.loads(sys.argv[2])
import plc
package = [m for m in probed if m in sys.modules]
import plc.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = plc.cli.main(json.loads(sys.argv[1]))
print(json.dumps({"code": code, "package": package, "loaded": [m for m in probed if m in sys.modules]}))
"""


# the import perfbench's sweep workload times as its set-up
SWEEP_IMPORT = """
import json, sys
import plc.stiffness, plc.planner
print(json.dumps([m for m in json.loads(sys.argv[1]) if m in sys.modules]))
"""


def run_child(code, args, tmp_path):
    env = dict(os.environ, PLC_CACHE_DIR=str(tmp_path / "cache"))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def run_fresh(argv, tmp_path):
    return run_child(CHILD, [json.dumps(argv), json.dumps(PROBED)], tmp_path)


def test_each_command_loads_only_the_modules_it_runs(tmp_path):
    desc = RobotDescription()
    (tmp_path / ROBOT).write_text(serialize_robot_description(desc))
    enumerate_workspace(desc).save(tmp_path / "ws.plcw")
    rows = np.random.default_rng(3).uniform(-150.0, 150.0, size=(20, 3))
    (tmp_path / "queries.csv").write_text(
        "x,y,z\n" + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows)
    )
    seen = {" ".join(argv): run_fresh(argv, tmp_path) for argv, _ in COMMANDS}
    want = {" ".join(argv): {"code": 0, "package": [], "loaded": loads} for argv, loads in COMMANDS}
    assert seen == want


def test_stiffness_and_planner_modules_load_no_third_party_module(tmp_path):
    # numpy is imported inside the functions that build arrays, never at
    # module level, so the import itself loads none of the PROBED modules
    assert run_child(SWEEP_IMPORT, [json.dumps(PROBED)], tmp_path) == []


def test_local_omnivariance_loads_scipy_spatial(tmp_path):
    # guards the guard: the probe must see scipy once a tree is built
    robot = tmp_path / "robot.yaml"
    robot.write_text("segment_count: 2\n")
    index = tmp_path / "ws.plcw"
    enumerate_workspace(desc_with(segment_count=2)).save(index)
    argv = ["workspace", "omnivariance", "--robot", str(robot), "--index", str(index), "--local", "4"]
    result = run_fresh(argv, tmp_path)
    assert result["code"] == 0
    assert "scipy.spatial" in result["loaded"]


def test_oracles_import_nothing_from_plc():
    # the oracles check the library, so no part of them may come from it
    tree = ast.parse((Path(__file__).parent / "_oracles.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    assert modules and not {m for m in modules if m.split(".")[0] in ("plc", "")}
