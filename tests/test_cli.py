import hashlib
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plc import (
    Configuration,
    RobotDescription,
    WorkspaceIndex,
    parse_robot_description,
    tool_position,
    workspace,
)
from plc.cli import _fmt, _force_grid, main
from plc.files import INDEX_FORMAT_VERSION, MAX_DOCUMENT_BYTES
from plc.stiffness import stiffness_map
from plc.workspace import _HEADER, BYTES_PER_CONFIGURATION, BYTES_PER_TOOTH

from conftest import desc_with, write_sparse_index

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL_ROBOT = "segment_count: 2\n"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("PLC_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def robot_file(tmp_path, text=SMALL_ROBOT):
    path = tmp_path / "robot.yaml"
    path.write_text(text)
    return str(path)


def test_fk_default_robot(capsys):
    code, out, _ = run(capsys, "fk", "--robot", "default", "--config", "0,0,0,0,0")
    assert code == 0
    header, row = out.strip().splitlines()
    values = dict(zip(header.split(","), row.split(",")))
    assert float(values["y_mm"]) == 0.0
    assert float(values["z_mm"]) == pytest.approx(28.6478898, abs=1e-6)
    assert values["tip_x_mm"] == values["x_mm"]  # zero tool offset


def test_fk_rejects_wrong_length_config(capsys):
    code, _, err = run(capsys, "fk", "--robot", "default", "--config", "0,0")
    assert code == 2
    assert "joints" in err


def test_ik_requires_index(capsys):
    code, _, err = run(capsys, "ik", "--target", "1,2,3")
    assert code == 1
    assert "--index" in err


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 1
    assert err


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0


def test_missing_robot_file(capsys, tmp_path):
    code, _, err = run(capsys, "fk", "--robot", str(tmp_path / "nope.yaml"), "--config", "0")
    assert code == 3
    assert "i/o error" in err


def test_budget_exceeded(capsys, tmp_path):
    # 10**12 configurations need about 80 TB, more than any host's memory
    path = robot_file(tmp_path, "segment_count: 12\n")
    code, _, err = run(capsys, "workspace", "build", "--robot", path)
    assert_domain_error(code, err)
    assert "count 1000000000000 needs about" in err


def test_build_is_refused_past_the_address_space_limit(tmp_path):
    # 10**7 configurations need more than an RLIMIT_AS of 3/4 of that
    # allows whatever the host's free memory; without the limit in the
    # check, numpy ran out of address space mid-build (exit 1, traceback)
    path = robot_file(tmp_path, "segment_count: 7\n")
    env = dict(os.environ, PLC_CACHE_DIR=str(tmp_path / "cache"), OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    needed = 10**7 * BYTES_PER_CONFIGURATION + 10 * BYTES_PER_TOOTH
    limit = needed * 3 // 4
    proc = subprocess.run(
        [sys.executable, "-m", "plc.cli", "workspace", "build", "--robot", path],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert_domain_error(proc.returncode, proc.stderr)
    assert f"count 10000000 needs about {needed / 1e9:.3g} GB" in proc.stderr



@pytest.mark.parametrize(
    "command", [["ik", "--target", "1,2,3"], ["workspace", "export", "--format", "csv"]]
)
def test_index_load_is_refused_past_the_address_space_limit(tmp_path, command):
    # a sparse n=8 index (3.3 GB to load, no disk blocks) under an RLIMIT_AS
    # of 1.5 GB: numpy ran out of address space reading it (exit 1, traceback)
    path = robot_file(tmp_path, "segment_count: 8\n")
    index = tmp_path / "n8.plcw"
    write_sparse_index(index, parse_robot_description("segment_count: 8\n"), 10**8)
    env = dict(os.environ, PLC_CACHE_DIR=str(tmp_path / "cache"), OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    limit = 1_500_000_000
    proc = subprocess.run(
        [sys.executable, "-m", "plc.cli", *command, "--robot", path, "--index", str(index)],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert_domain_error(proc.returncode, proc.stderr)
    assert "n8.plcw needs about 3.3 GB to load, more than the" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "command", [["workspace", "accuracy", "--queries"], ["workspace", "omnivariance", "--local", "4"]]
)
def test_tree_is_refused_past_the_address_space_limit(tmp_path, command):
    # an n=6 index that loads under the limit, but whose k-d tree (43 MB by
    # TREE_BYTES_PER_POINT) and scipy import (TREE_IMPORT_BYTES) do not fit
    # beside it, with room for half the tree or for the tree and half the
    # import: the import ran out of address space (exit 1, traceback), or,
    # with room for the tree, spun inside OpenBLAS's import or ended in
    # std::bad_alloc (the timeout fails that); 5 query rows pass
    # SCAN_BUDGET, so accuracy builds the tree
    text = "segment_count: 6\n"
    path = robot_file(tmp_path, text)
    index_path = tmp_path / "n6.plcw"
    index = workspace.enumerate_workspace(parse_robot_description(text))
    index.save(index_path)
    points = index.point_count
    del index
    queries = tmp_path / "queries.csv"
    queries.write_text("0,0,0\n" * 5)
    if command[-1] == "--queries":
        command = [*command, str(queries)]
    env = dict(os.environ, PLC_CACHE_DIR=str(tmp_path / "cache"), OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # the address space in use when the command loads the index, which the
    # limit exceeds by what the load needs and the room
    probe = (
        "import numpy, yaml, plc.cli, plc.workspace as w;"
        "print(w._field_bytes('/proc/self/status', 'VmSize'))"
    )
    in_use = int(subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    ).stdout)
    load = index_path.stat().st_size + 10**6 + workspace._CHECK_BYTES
    tree = points * workspace.TREE_BYTES_PER_POINT
    needed = tree + workspace.TREE_IMPORT_BYTES
    for room in (tree // 2, tree + workspace.TREE_IMPORT_BYTES // 2):
        limit = in_use + load + room
        proc = subprocess.run(
            [sys.executable, "-m", "plc.cli", *command, "--robot", path, "--index", str(index_path)],
            capture_output=True, text=True, env=env, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert_domain_error(proc.returncode, proc.stderr)
        assert f"a k-d tree of {points} points needs about {needed / 1e9:.3g} GB to build" in proc.stderr
        assert proc.stdout == ""


def test_build_refuses_a_tip_past_the_key_range(capsys, tmp_path):
    # tips near 1e16 mm: the int64 cast used to merge 16 tips into 8, with a warning
    path = robot_file(tmp_path, "segment_count: 2\ntooth_count: 4\ncurve_length: 10000000000000000\n")
    out = tmp_path / "ws.plcw"
    code, stdout, err = run(capsys, "workspace", "build", "--robot", path, "--out", str(out))
    assert_domain_error(code, err)
    assert "outside the key range" in err
    assert stdout == ""
    assert not out.exists()


def test_build_is_refused_past_the_cgroup_limit(capsys, tmp_path, monkeypatch):
    # the limit leaves half of what six segments need, once the group's
    # inactive page cache counts as free
    left, inactive = 10**6 * BYTES_PER_CONFIGURATION // 2, 50000000
    limit, usage = tmp_path / "memory.max", tmp_path / "memory.current"
    stat = tmp_path / "memory.stat"
    limit.write_text("300000000\n")
    usage.write_text(f"{300000000 - left + inactive}\n")
    stat.write_text(f"active_file 7\ninactive_file {inactive}\n")
    files = ((str(limit), str(usage), str(stat), "inactive_file"),)
    monkeypatch.setattr(workspace, "CGROUP_MEMORY_FILES", files)
    out = tmp_path / "ws.plcw"
    robot = robot_file(tmp_path, "segment_count: 6\n")
    code, _, err = run(capsys, "workspace", "build", "--robot", robot, "--out", str(out))
    assert_domain_error(code, err)
    assert f"more than the {left / 1e9:.3g} GB available" in err
    assert not out.exists()

# 10**12 configurations: far past any host's memory, fine for every
# command that does not enumerate
LONG_CHAIN = "segment_count: 12\n"
LONG_CONFIG = ",".join(str(k % 10) for k in range(12))


@pytest.mark.parametrize(
    "argv",
    [
        ["fk", "--config", LONG_CONFIG],
        ["plan", "--start", "0," * 11 + "0", "--goal", LONG_CONFIG, "--verify"],
        ["stiffness", "firm", "--config", LONG_CONFIG, "--direction", "1,0,0"],
        ["stiffness", "curve", "--config", LONG_CONFIG, "--tension", "20", "--direction", "0,0,1"],
        ["stiffness", "twist", "--skin", "--torque", "500"],
    ],
)
def test_commands_that_never_enumerate_take_any_chain_length(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--robot", robot_file(tmp_path, LONG_CHAIN))
    assert code == 0, err
    assert out and err == ""


@pytest.mark.parametrize(
    "argv", [["fk", "--config", LONG_CONFIG], ["workspace", "build"]], ids=["fk", "build"]
)
def test_budget_is_a_usage_error(capsys, tmp_path, argv):
    robot = robot_file(tmp_path, LONG_CHAIN)
    code, _, err = run(capsys, *argv, "--robot", robot, "--budget", "1e9")
    assert code == 1
    assert "--budget" in err


@pytest.mark.parametrize(
    "text",
    [
        "curve_length: 1" + "0" * 400,  # too large for the constructor's float()
        "bend_angle: 1" + "0" * 400,  # too large for the parser's radians()
        "curve_length: 1" + "0" * 5000,  # too many digits for the YAML loader
    ],
    ids=["length", "angle", "digits"],
)
def test_integer_literals_too_large_for_a_float(capsys, tmp_path, text):
    robot = robot_file(tmp_path, text + "\n")
    code, _, err = run(capsys, "fk", "--robot", robot, "--config", "0,0,0,0,0")
    assert_domain_error(code, err)
    assert "0" * 100 not in err


@pytest.mark.parametrize(
    "text, message",
    [
        ("segment_count: " + "[" * 1000, "unparseable description document: maximum recursion"),
        ("segment_count: " + "{a: " * 1000, "unparseable description document: maximum recursion"),
        ("segment_count: " + "[" * 400, "unparseable description document"),
    ],
    ids=["lists", "maps", "lists-400"],
)
def test_deeply_nested_documents(capsys, tmp_path, text, message):
    # 1,000 levels took PyYAML's composer past the recursion limit: a
    # RecursionError traceback, exit 1
    robot = robot_file(tmp_path, text + "\n")
    code, out, err = run(capsys, "fk", "--robot", robot, "--config", "1")
    assert_domain_error(code, err)
    assert message in err
    assert out == ""


def test_tooth_count_is_bounded_for_every_command(capsys, tmp_path):
    # 10**10 teeth would need about 1 TB of per-tooth tables
    robot = robot_file(tmp_path, "segment_count: 1\ntooth_count: 10000000000\n")
    code, _, err = run(capsys, "fk", "--robot", robot, "--config", "0")
    assert_domain_error(code, err)
    assert "tooth_count must be in" in err


def test_workspace_build_and_export(capsys, tmp_path):
    robot = robot_file(tmp_path)
    index_path = tmp_path / "ws.plcw"
    code, _, err = run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    assert code == 0 and index_path.exists()
    assert "100 configurations" in err

    desc = parse_robot_description(SMALL_ROBOT)
    index = WorkspaceIndex.load(index_path, desc)

    code, out, _ = run(
        capsys, "workspace", "export", "--robot", robot, "--index", str(index_path),
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z,bucket_size"
    assert len(lines) == index.point_count + 1
    assert sum(int(line.rsplit(",", 1)[1]) for line in lines[1:]) == 100

    code, ply, _ = run(
        capsys, "workspace", "export", "--robot", robot, "--index", str(index_path),
        "--format", "ply",
    )
    assert code == 0
    ply_lines = ply.splitlines()
    assert ply_lines[0] == "ply" and ply_lines[1] == "format ascii 1.0"
    assert f"element vertex {index.point_count}" in ply_lines
    assert len(ply_lines) == 7 + index.point_count

    # byte-identical on a second run
    code, ply2, _ = run(
        capsys, "workspace", "export", "--robot", robot, "--index", str(index_path),
        "--format", "ply",
    )
    assert ply2 == ply


def test_export_csv_lists_each_points_bucket_size(capsys, tmp_path):
    # 60 points, 4 of them reached by two configurations
    text = "segment_count: 3\ntooth_count: 4\nbend_angle: 45\n"
    robot = robot_file(tmp_path, text)
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    index = WorkspaceIndex.load(index_path, parse_robot_description(text))
    code, out, _ = run(
        capsys, "workspace", "export", "--robot", robot, "--index", str(index_path),
        "--format", "csv",
    )
    assert code == 0
    sizes = [int(line.rsplit(",", 1)[1]) for line in out.splitlines()[1:]]
    assert sizes == [len(index.bucket_ranks(g)) for g in range(index.point_count)]
    assert sorted(set(sizes)) == [1, 2]


# SHA-256 of `workspace export` stdout: the stored points' bits do not depend
# on the BLAS kernel, so neither do these; the default robot's 98,910 rows
# cross a 65,536-row block
EXPORT_DIGESTS = {
    ("default", "csv"): "64cade5ff80fde13f78a864bc5f9bdf69f0c862720ce8a1d42d9d6da6895c1ee",
    ("default", "ply"): "c0ad5364441fd5e8cf7ef1dfe05bb002f6dbcfe7cddc7ec6affbc191ac0ea6e8",
    ("offset", "csv"): "b699c2b60a129b213b824a557f6ea96cf2f62b188839b25aa390909e59fcc566",
    ("offset", "ply"): "2a807ba8131d9bea8bf206e6090825111f5babf031078a469fe4936698a35b38",
}


@pytest.mark.parametrize("robot, form", sorted(EXPORT_DIGESTS))
def test_export_keeps_its_digests(capsys, tmp_path, robot, form):
    path = "default" if robot == "default" else robot_file(tmp_path, OFFSET_ROBOT)
    code, out, err = run(capsys, "workspace", "export", "--robot", path, "--format", form)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EXPORT_DIGESTS[robot, form]


@pytest.mark.parametrize(
    "argv, lines",
    [
        # the map's 16 blocks of rows (57 MB) outgrow any pipe, so the
        # printer meets the pipe closed mid-table
        (["stiffness", "firm", "--config", "1,7,3,0,5", "--sphere", "1000000"], 1),
        # the reader is gone before the first byte: the one row, or the
        # version argparse prints, waits in stdout's buffer until main
        # flushes it
        (["fk", "--config", "1,7,3,0,5"], 0),
        (["--version"], 0),
    ],
    ids=["mid-table", "before-any-output", "version"],
)
def test_a_reader_that_leaves_early_is_an_io_error(tmp_path, argv, lines):
    # one stderr line and exit 3, and the interpreter's own flush at exit
    # neither reports the pipe again nor exits 120; stdout is block-buffered,
    # as it is without PYTHONUNBUFFERED
    env = dict(os.environ, PLC_CACHE_DIR=str(tmp_path / "cache"), OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    with open(read, "rb") as reader, open(write, "wb") as writer:
        proc = subprocess.Popen(
            [sys.executable, "-m", "plc.cli", *argv], stdout=writer, stderr=subprocess.PIPE, env=env
        )
        writer.close()
        for _ in range(lines):
            assert reader.readline().startswith(b"ux,uy,uz,")
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (3, b"i/o error: [Errno 32] Broken pipe\n")


def rendered(header, *columns):
    """The table a printer should print: ``header``, then one line per row of
    the columns, each value to 9 significant digits with -0.0 as 0."""
    rows = np.column_stack(columns).tolist()
    lines = [",".join(format(v, ".9g") if v else "0" for v in row) for row in rows]
    return "\n".join([header, *lines]) + "\n"


def test_local_omnivariance_prints_the_library_values(capsys, tmp_path, index_n5):
    path = tmp_path / "n5.plcw"
    index_n5.save(path)
    code, out, err = run(capsys, "workspace", "omnivariance", "--index", str(path), "--local", "8")
    assert (code, err) == (0, "")
    values = workspace.local_omnivariance(index_n5.points, 8)
    assert out == rendered("x,y,z,local_omnivariance", index_n5.points, values)


def test_stiffness_sphere_prints_the_library_map(capsys):
    config = "1,7,3,0,5"
    code, out, err = run(capsys, "stiffness", "firm", "--config", config, "--sphere", "100000")
    assert (code, err) == (0, "")
    samples = stiffness_map(RobotDescription(), Configuration((1, 7, 3, 0, 5), 10), 100000)
    header = "ux,uy,uz,stiffness_n_per_mm,compliance_mm_per_n"
    assert out == rendered(header, samples["direction"], samples["stiffness"], samples["compliance"])


def test_workspace_omnivariance_uses_cache(capsys, tmp_path):
    robot = robot_file(tmp_path)
    code, _, _ = run(capsys, "workspace", "build", "--robot", robot)
    assert code == 0
    code, out, _ = run(capsys, "workspace", "omnivariance", "--robot", robot)
    assert code == 0
    assert float(out.strip()) > 0.0


def test_workspace_local_omnivariance(capsys, tmp_path):
    robot = robot_file(tmp_path)
    code, out, _ = run(capsys, "workspace", "omnivariance", "--robot", robot, "--local", "8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "x,y,z,local_omnivariance"
    assert len(lines) > 1



def test_local_omnivariance_is_bounded(capsys, tmp_path, index_n5):
    # 1012 neighbors x 98,910 points is the first K past 10**8: refused before any query
    path = tmp_path / "n5.plcw"
    index_n5.save(path)
    argv = ["workspace", "omnivariance", "--index", str(path), "--local", "1012"]
    code, out, err = run(capsys, *argv)
    assert_domain_error(code, err)
    assert "1012 x 98910 points exceeds 100000000 neighbors" in err
    assert out == ""

def test_workspace_accuracy(capsys, tmp_path):
    robot = robot_file(tmp_path)
    queries = tmp_path / "queries.csv"
    queries.write_text("x,y,z\n0,0,0\n10,10,40\n")
    code, out, _ = run(capsys, "workspace", "accuracy", "--robot", robot, "--queries", str(queries))
    assert code == 0
    assert float(out.strip()) > 0.0


def test_ik_end_to_end(capsys, tmp_path):
    robot = robot_file(tmp_path)
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    desc = parse_robot_description(SMALL_ROBOT)
    index = WorkspaceIndex.load(index_path, desc)
    target = index.points[7]
    target_flag = "--target=" + ",".join(repr(float(v)) for v in target)
    code, out, _ = run(
        capsys, "ik", "--robot", robot, "--index", str(index_path), target_flag,
    )
    assert code == 0
    header, row = out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    assert float(fields["error_mm"]) < 1e-6
    assert int(fields["candidate_count"]) >= 1
    assert len(fields["config"].split()) == 2


def test_ik_index_robot_mismatch(capsys, tmp_path):
    robot = robot_file(tmp_path)
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    other = tmp_path / "other.yaml"
    other.write_text("segment_count: 2\ncurve_length: 31\n")
    code, _, err = run(
        capsys, "ik", "--robot", str(other), "--index", str(index_path), "--target", "1,2,3"
    )
    assert code == 2
    assert "different robot" in err


def test_plan_and_verify(capsys):
    code, out, _ = run(
        capsys, "plan", "--robot", "default", "--start", "0,0,0,0,0",
        "--goal", "0,9,0,2,0", "--verify",
    )
    assert code == 0
    assert out.splitlines() == [
        "unlock 2",
        "rotate -36",
        "lock 2",
        "unlock 4",
        "rotate +72",
        "lock 4",
        "final 0,9,0,2,0",
    ]
    code, out, _ = run(
        capsys, "plan", "--robot", "default", "--start", "1,1,1,1,1", "--goal", "1,1,1,1,1"
    )
    assert code == 0
    assert out == ""


# robot description text, or "default" for --robot default
PLAN_ROBOTS = {
    "default": "default",
    "seven": "segment_count: 7\ntooth_count: 12\nbend_angle: 45\n",
    "odd": "segment_count: 4\ntooth_count: 7\n",
    "bad": "segment_count: 0\n",
}


def plan_invocations():
    """(robot, arguments) of seeded `plc plan` runs: five random start and
    goal pairs per robot, each with and without --verify, a half turn and an
    empty plan, then usage (exit 1) and domain (exit 2) refusals."""
    def joined(indices):
        return ",".join(map(str, indices))

    rng = random.Random(34)
    cases = []
    for robot, joints, teeth in (("default", 5, 10), ("seven", 7, 12), ("odd", 4, 7)):
        for _ in range(5):
            start, goal = ([rng.randrange(teeth) for _ in range(joints)] for _ in range(2))
            plan = f"--start {joined(start)} --goal {joined(goal)}"
            cases += [(robot, plan), (robot, plan + " --verify")]
        zeros, half = joined([0] * joints), joined([teeth // 2] * joints)
        cases += [
            (robot, f"--start {zeros} --goal {half} --verify"),
            (robot, f"--start {half} --goal {half} --verify"),
        ]
    cases += [
        ("default", "--start 0,0,0,0,0"),
        ("default", "--start 0,0,0,0,0 --goal"),
        ("default", "--start 0,0,0,0,0 --goal 1,1,1,1,1 --verbose"),
        ("default", "--start 0,0,0,0,0 --goal 1,1,1,1,10 --verify"),
        ("default", "--start 0,0,0,0,-1 --goal 0,0,0,0,0"),
        ("default", "--start 0,0,0,0 --goal 1,1,1,1 --verify"),
        ("default", "--start a,b --goal 1"),
        ("seven", "--start 0,0,0,0,0,0,12 --goal 0,0,0,0,0,0,0 --verify"),
        ("bad", "--start 0 --goal 0 --verify"),
    ]
    return cases


# SHA-256 of "<exit code>\0<stdout>\0<stderr>" of each plan_invocations() run
PLAN_DIGESTS = {
    ('default', '--start 8,5,9,0,3 --goal 0,6,5,1,6'): "782557d3f30e2f5d99d054a535e6b2faac5fcbd9dad340de8b72a0a668c4dc05",
    ('default', '--start 8,5,9,0,3 --goal 0,6,5,1,6 --verify'): "9cb6ef55d44f0671a46468dba8c384f19d85c9a1d57fad9a663414d833fcb42e",
    ('default', '--start 4,5,1,9,8 --goal 2,1,4,5,9'): "7c2610d5b4672ca2ca3dc23a9a5ad6e29a7a5ff6544f2ac0764cd25d13f858b0",
    ('default', '--start 4,5,1,9,8 --goal 2,1,4,5,9 --verify'): "fd1ec7f42365804ad8a68c7aaeefd2b73305cdd610db3d7552f8057490958fce",
    ('default', '--start 0,2,8,1,0 --goal 5,4,8,0,6'): "bf5f1e2c8acca123bd703a5862caa16b17919538f8163ff7e5f762f8c98918d0",
    ('default', '--start 0,2,8,1,0 --goal 5,4,8,0,6 --verify'): "2f2a4af74d37b9f4a787ef71060f1632fa5d59b4f6b75d239f4d5e614097bf5d",
    ('default', '--start 2,9,4,4,6 --goal 5,3,3,7,8'): "896e7fa39fe9a6c34f1f37b8fae00624b54395095407ce60c301a1163520154c",
    ('default', '--start 2,9,4,4,6 --goal 5,3,3,7,8 --verify'): "1eb49b53e925ed95ae994db5d505c27bf5f0d63e09bbc5c67d2c872e08f71306",
    ('default', '--start 2,9,2,9,6 --goal 8,6,3,3,1'): "246ef02189553321eab1decc61e97f41b5390e46617de9c9dddcbd9329dc2275",
    ('default', '--start 2,9,2,9,6 --goal 8,6,3,3,1 --verify'): "be2158d637cd8f46e223de7ad0bfda24717c8daf9d64b0d7372e2794d5ccf6fa",
    ('default', '--start 0,0,0,0,0 --goal 5,5,5,5,5 --verify'): "03e66811006f48e4d5076410bf4d690056402dd0ac3f72d1f27fbdee31e9c4bb",
    ('default', '--start 5,5,5,5,5 --goal 5,5,5,5,5 --verify'): "b3063531ad1435d9cb965359d91ef4ca0c5295e002f65a56e5dd14d0a6a4c79d",
    ('seven', '--start 9,10,11,1,7,4,6 --goal 1,9,4,3,2,6,5'): "65c5ed378eb6d10f2130fe95ffdbd1134d9549298df4d16df9958621e812cbc7",
    ('seven', '--start 9,10,11,1,7,4,6 --goal 1,9,4,3,2,6,5 --verify'): "49415862a8a75523815264662a8b7d5e35beda91ac6d64ac933b6ffe7eac1c35",
    ('seven', '--start 7,1,8,11,7,6,7 --goal 5,2,7,4,2,3,2'): "c8ae3c720c81ea4f7550823a2371cd3bb825b80badcc6c30c209c701f9414ca2",
    ('seven', '--start 7,1,8,11,7,6,7 --goal 5,2,7,4,2,3,2 --verify'): "da000b5a5c486ca70438b1fd4182a7194a8e0fe5d3cf3791c7b239b2bb8601a7",
    ('seven', '--start 4,4,1,4,8,1,9 --goal 8,4,6,3,6,4,8'): "5c23b1adfb0d9c7c5f16d349bf889a886b159aacfc8f4e052efb8db32ce9e7d9",
    ('seven', '--start 4,4,1,4,8,1,9 --goal 8,4,6,3,6,4,8 --verify'): "5fa196736738845af4d0cf0e865e1a54618bc93b47040010188e514bc219552b",
    ('seven', '--start 11,5,11,9,7,1,1 --goal 11,0,5,6,5,2,2'): "7c4bf473d45bb0605dc6a33bd0f0e1232cb181f756ebbc9c17ea199b701b48b1",
    ('seven', '--start 11,5,11,9,7,1,1 --goal 11,0,5,6,5,2,2 --verify'): "0914f9ffe9cd1085f26f163f72ac141898e68aa2ad86fd58e038d2981ce5fa14",
    ('seven', '--start 11,6,5,7,5,10,4 --goal 0,11,9,10,4,8,8'): "b168dcbfd147f0e11f377c846af27d7dae02b66a4ddbadcbbb2f8c073eedd1c2",
    ('seven', '--start 11,6,5,7,5,10,4 --goal 0,11,9,10,4,8,8 --verify'): "02dbde9b7810ef60c257eeff88d8b88781d772bafd42424482add3db520e9396",
    ('seven', '--start 0,0,0,0,0,0,0 --goal 6,6,6,6,6,6,6 --verify'): "1867102f5ce06f717dd55b4864b89f583cfd537120cdc5f879183522e90e6242",
    ('seven', '--start 6,6,6,6,6,6,6 --goal 6,6,6,6,6,6,6 --verify'): "c0b8f022749dded92993b4fd569826ac445cd0340834479785222d6d6aec486a",
    ('odd', '--start 6,0,1,2 --goal 0,4,2,0'): "9b6bee442526b44941aa8da98e328b1055b748497a6982f1f985ddff91db1c42",
    ('odd', '--start 6,0,1,2 --goal 0,4,2,0 --verify'): "11e198097160d20b6cd29673957f0d7f5f2741d2dfb88c3e0b30b3b37b2bdd0b",
    ('odd', '--start 6,5,4,3 --goal 6,1,2,5'): "a28459fee7fd56f48d0717b1863d23d6f92729a67899299981bc3df42dd369dc",
    ('odd', '--start 6,5,4,3 --goal 6,1,2,5 --verify'): "d4cb35e220c0e39255cd49f7b84576c7ac2977f055f8196dbbf03c74777305fa",
    ('odd', '--start 5,6,1,3 --goal 1,5,2,5'): "21e8c909d41cf634faf8bf53e61d5ebe4cf6c7dea6554d80ec3a89ad9061c8b6",
    ('odd', '--start 5,6,1,3 --goal 1,5,2,5 --verify'): "00302dd2a1cfa08143b0fc6ad971d690cc85ec091f6809c7325129fde511ec95",
    ('odd', '--start 6,3,1,0 --goal 3,2,4,1'): "ba735a6224ffd3b56fc5aa104e05b282305f1a81a6a6eaef30c41e48cbf373b8",
    ('odd', '--start 6,3,1,0 --goal 3,2,4,1 --verify'): "7150af3c0eccabe330453fc6be35317a44d2da71646021bdac34d27e7279b471",
    ('odd', '--start 6,1,2,5 --goal 6,3,5,6'): "5bb1f60f7410b0a46928e519c1c7333a8f7000c3870a44e547a461d56ef1b53f",
    ('odd', '--start 6,1,2,5 --goal 6,3,5,6 --verify'): "e44f3a787679f7196df4089127c047169810048d897c5d3a2c7e1121c27a0839",
    ('odd', '--start 0,0,0,0 --goal 3,3,3,3 --verify'): "6c153325bcabe53638f693025f1db24d957df4e2dbbc9d224a100bd29fb667db",
    ('odd', '--start 3,3,3,3 --goal 3,3,3,3 --verify'): "adae2df77360229fd1647c9c10104f37f7a8961e9dd7313178914db73a3aa15d",
    ('default', '--start 0,0,0,0,0'): "9b5493a9160dbf39841ef110127fcb631abf5ecb0187a7104a6358164f826d36",
    ('default', '--start 0,0,0,0,0 --goal'): "996cb5e4c63e5907cedbad5aab48ee4a909ad76fe3fb92a0860731c6ec380f05",
    ('default', '--start 0,0,0,0,0 --goal 1,1,1,1,1 --verbose'): "24d0df0dd1fd0eac2e14a46ae96bad5da55c0f1617db0d1ce12a75be55554c51",
    ('default', '--start 0,0,0,0,0 --goal 1,1,1,1,10 --verify'): "bfbb16601498c0c6b65127064dbd621fd71c95ad87a804e2da98764b62b81438",
    ('default', '--start 0,0,0,0,-1 --goal 0,0,0,0,0'): "4361e7b320192da42b392bfde9a6119bd9511f1039dea4f08e8dc2190e461776",
    ('default', '--start 0,0,0,0 --goal 1,1,1,1 --verify'): "7b7e1b6bd4261914d65cfc6a25fb22fa6b7a6ffac5d559038e7e7edb47fbe97e",
    ('default', '--start a,b --goal 1'): "153628bcbc98a5bde5b35e4d238b40e4ed37eafeb8b2f0cba30d37cab5123a5b",
    ('seven', '--start 0,0,0,0,0,0,12 --goal 0,0,0,0,0,0,0 --verify'): "a236e99af2d8b6b9c702c3587f90af0cf0283b4f3665b3d0ddbfe9e7e25e2feb",
    ('bad', '--start 0 --goal 0 --verify'): "49ff69fa817247bb4fdf37e24301c3139086117700d696f07efdd55798b02db9",
}


def test_plan_outputs_keep_their_digests(capsys, tmp_path):
    digests = {}
    for robot, arguments in plan_invocations():
        text = PLAN_ROBOTS[robot]
        if text != "default":
            (tmp_path / f"{robot}.yaml").write_text(text)
        path = "default" if text == "default" else str(tmp_path / f"{robot}.yaml")
        code, out, err = run(capsys, "plan", "--robot", path, *arguments.split())
        digests[robot, arguments] = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
    assert digests == PLAN_DIGESTS


def test_stiffness_firm_direction(capsys):
    code, out, _ = run(
        capsys, "stiffness", "firm", "--robot", "default", "--config", "0,0,0,0,0",
        "--direction", "0,0,1",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    stiffness = float(fields["stiffness_n_per_mm"])
    assert stiffness > 0.0
    assert float(fields["compliance_mm_per_n"]) == pytest.approx(1.0 / stiffness, rel=1e-6)


def test_stiffness_firm_sphere(capsys):
    code, out, _ = run(
        capsys, "stiffness", "firm", "--robot", "default", "--config", "0,0,0,0,0",
        "--sphere", "12",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 13
    code, _, err = run(
        capsys, "stiffness", "firm", "--robot", "default", "--config", "0,0,0,0,0",
        "--sphere", "1000001",
    )
    assert_domain_error(code, err)
    assert "at most 1000000 sphere samples" in err


def test_stiffness_curve(capsys):
    code, out, _ = run(
        capsys, "stiffness", "curve", "--robot", "default", "--config", "0,0,0,0,0",
        "--tension", "50", "--direction", "1,0,0",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "force_n,deflection_mm"
    forces = [float(line.split(",")[0]) for line in lines[1:]]
    deflections = [float(line.split(",")[1]) for line in lines[1:]]
    assert 30.0 in forces  # breakpoint for 50 N tension is sampled exactly
    assert all(b >= a for a, b in zip(deflections, deflections[1:]))


def test_stiffness_curve_names_the_slope_in_printed_digits(capsys, tmp_path):
    # the firmed slope is printed as stdout prints numbers (.9g), not with
    # all 17 digits of the float
    robot = robot_file(tmp_path, "tendon_stiffness: 2.0\n")
    code, out, err = run(
        capsys, "stiffness", "curve", "--robot", robot, "--config", "0,0,0,0,0",
        "--tension", "20", "--direction", "0,1,0",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: tendon stiffness 2.0 N/mm is not below the firmed slope "
        "0.511817803 N/mm along this direction\n"
    )


def test_force_grid_has_the_bits_of_numpys():
    # np.unique(np.append(np.linspace(0, top, 81), threshold)), as the curve
    # command formed it, down to a step that underflows to 0
    thresholds = [5e-324, 1e-323, 3e-320, 1e-300, 0.3, 30.0, 8e307]
    thresholds += np.random.default_rng(2704).lognormal(0.0, 20.0, size=500).tolist()
    for threshold in thresholds:
        for top in (2.0 * threshold, 10.0):
            expected = np.unique(np.append(np.linspace(0.0, top, 81), threshold))
            assert np.array(_force_grid(top, threshold)).tobytes() == expected.tobytes()
    # at zero tension the threshold, 0 or -0, is the grid's first point
    for zero in (0.0, -0.0):
        assert _force_grid(10.0, zero) == np.linspace(0.0, 10.0, 81).tolist()


def test_stiffness_twist(capsys):
    code, spine_out, _ = run(
        capsys, "stiffness", "twist", "--robot", "default", "--spine", "--torque", "1000"
    )
    assert code == 0
    assert float(spine_out.strip()) == pytest.approx(1.75843825, abs=1e-6)
    code, skin_out, _ = run(
        capsys, "stiffness", "twist", "--robot", "default", "--skin", "--torque", "1000"
    )
    assert code == 0
    assert float(skin_out.strip()) > 0.0


def test_normalize_builtin_and_atomic_out(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, _, _ = run(capsys, "normalize", "--designs", "builtin", "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "name,k_max,k_max_normalized,k_min,k_min_normalized,ratio"
    assert lines[1].startswith("PLC (ours),8.07,NA,0.85,NA,9.494")
    assert len(lines) == 20

    bad = tmp_path / "bad.csv"
    bad.write_text("name,k_max,k_min\nx,1,2\n")  # k_min > k_max
    missing_out = tmp_path / "never.csv"
    code, _, err = run(capsys, "normalize", "--designs", str(bad), "--out", str(missing_out))
    assert code == 2
    assert not missing_out.exists()  # domain errors leave no partial output


def test_normalize_refuses_non_finite_cells(capsys, tmp_path):
    path = tmp_path / "designs.csv"
    path.write_text("name,k_max,k_min,length_mm,radius_mm\na,1e400,1,,\nb,1e400,1e400,,\n")
    code, out, err = run(capsys, "normalize", "--designs", str(path))
    assert_domain_error(code, err)
    assert "k_max must be finite" in err
    assert out == ""


def test_out_errors_name_the_given_path(capsys, tmp_path):
    # not the temporary file beside it, whose random name changes from run to run
    missing = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, "fk", "--config", "0,0,0,0,0", "--out", str(missing))
    assert (code, out) == (3, "")
    assert err == f"i/o error: [Errno 2] No such file or directory: '{missing}'\n"
    directory = tmp_path / "taken"
    directory.mkdir()
    code, out, err = run(capsys, "plan", "--start", "0,0,0,0,0", "--goal", "0,1,0,0,0", "--out", str(directory))
    assert (code, out) == (3, "")
    assert err.startswith("i/o error: ") and err.endswith(f": '{directory}'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["stiffness", "firm", "--config", "0,0", "--direction="], 2,
         "error: expected comma-separated numbers, got ''"),
        (["ik", "--index", "ws.plcw", "--target", "1,2,3", "--reference="], 2,
         "error: expected comma-separated integers, got ''"),
        (["workspace", "omnivariance", "--index", "ws.plcw", "--local", "0"], 2,
         "error: neighborhood size 0 outside [2, "),
        (["workspace", "export", "--index=", "--format", "csv"], 3,
         "i/o error: [Errno 2] No such file or directory: ''"),
        (["plan", "--start", "0,0", "--goal", "0,1", "--out="], 3,
         "i/o error: [Errno 2] No such file or directory: ''"),
        (["stiffness", "firm", "--config", "0,0", "--out="], 3,
         "i/o error: [Errno 2] No such file or directory: ''"),
        (["workspace", "build", "--out="], 3,
         "i/o error: [Errno 2] No such file or directory: ''"),
    ],
    ids=["direction", "reference", "local", "index", "plan-out", "firm-out", "build-out"],
)
def test_empty_or_zero_options_are_not_taken_as_absent(capsys, tmp_path, monkeypatch, argv, code, message):
    # an empty --direction, --reference, --index or --out, or --local 0, is
    # refused like its sibling inputs, not run as if the option were absent
    monkeypatch.chdir(tmp_path)
    robot = robot_file(tmp_path)
    run(capsys, "workspace", "build", "--robot", robot, "--out", "ws.plcw")
    got, out, err = run(capsys, *argv, "--robot", robot)
    assert (got, out) == (code, "")
    assert err.startswith(message)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["robot.yaml", "ws.plcw"]


@pytest.mark.parametrize(
    "target, message",
    [
        ("", "[Errno 2] No such file or directory: ''"),
        ("file/x.plcw", "[Errno 17] File exists: 'file'"),
    ],
    ids=["empty", "under-a-file"],
)
def test_build_refuses_an_unwritable_out_before_enumerating(capsys, tmp_path, monkeypatch, target, message):
    # the target is opened first: the enumeration (about 3 s and 737 MiB at
    # n=7) used to run before the same refusal
    calls = []
    monkeypatch.setattr(workspace, "enumerate_workspace", calls.append)
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("")
    robot = robot_file(tmp_path)
    code, out, err = run(capsys, "workspace", "build", "--robot", robot, f"--out={target}")
    assert (code, out, calls) == (3, "", [])
    assert err == f"i/o error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "robot.yaml"]


@pytest.mark.parametrize(
    "command",
    [["export", "--format", "csv"], ["omnivariance"], ["accuracy", "--queries", "queries.csv"]],
    ids=["export", "omnivariance", "accuracy"],
)
def test_cache_that_cannot_be_written_is_refused_before_enumerating(
    capsys, tmp_path, monkeypatch, command
):
    # without --index these commands build the cache entry; its target is
    # opened first, as workspace build's is
    calls = []
    monkeypatch.setattr(workspace, "enumerate_workspace", calls.append)
    monkeypatch.chdir(tmp_path)
    Path("file").write_text("")
    Path("queries.csv").write_text("1,2,3\n")
    monkeypatch.setenv("PLC_CACHE_DIR", str(tmp_path / "file" / "cache"))
    robot = robot_file(tmp_path)
    code, out, err = run(capsys, "workspace", *command, "--robot", robot)
    assert (code, out, calls) == (3, "", [])
    assert err.startswith("i/o error: [Errno 20] Not a directory")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "queries.csv", "robot.yaml"]


def test_interrupted_build_leaves_nothing_behind(capsys, tmp_path, monkeypatch):
    def interrupted(desc):
        raise KeyboardInterrupt

    monkeypatch.setattr(workspace, "enumerate_workspace", interrupted)
    robot = robot_file(tmp_path)
    with pytest.raises(KeyboardInterrupt):
        main(["workspace", "build", "--robot", robot, "--out", str(tmp_path / "ws.plcw")])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["robot.yaml"]


@pytest.mark.parametrize(
    "argv",
    [
        ["fk", "--config", "0,0,0", "--robot"],
        ["workspace", "accuracy", "--robot", SMALL_ROBOT, "--queries"],
        ["normalize", "--designs"],
    ],
    ids=["robot", "queries", "designs"],
)
def test_input_files_that_are_not_utf8_are_refused(capsys, tmp_path, argv):
    # a byte 0xff used to end in a UnicodeDecodeError traceback with exit 1
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"segment_count: 3\n\xff\n")
    argv = [robot_file(tmp_path) if arg == SMALL_ROBOT else arg for arg in argv]
    code, out, err = run(capsys, *argv, str(bad))
    assert_domain_error(code, err)
    assert err.startswith(f"error: {bad} is not UTF-8 text: ")
    assert out == ""


@pytest.mark.parametrize(
    "argv, body",
    [
        (["fk", "--config", "0,0,0,0,0", "--robot"], "segment_count: 5\n"),
        (["normalize", "--designs"], "name,k_max,k_min,length_mm,radius_mm\nmine,5,1,50,2\n"),
    ],
    ids=["robot", "designs"],
)
def test_description_and_designs_files_past_their_cap_are_refused(capsys, tmp_path, argv, body):
    # a file of MAX_DOCUMENT_BYTES is read; one byte more is refused before
    # it is read, so even bytes that are not UTF-8 are refused for their
    # size, and a device that reports no size and never ends is read no
    # further than the cap (/dev/zero used to be read until memory ran out);
    # each refusal is exit 2 naming the file
    path = tmp_path / "input.txt"
    cap = f"holds more than {MAX_DOCUMENT_BYTES} bytes, the most this file may hold"
    for extra in (0, 1):
        path.write_text(body + "#" * (MAX_DOCUMENT_BYTES - len(body) - 1 + extra) + "\n")
        assert path.stat().st_size == MAX_DOCUMENT_BYTES + extra
        code, out, err = run(capsys, *argv, str(path))
        if extra:
            assert_domain_error(code, err)
            assert err == f"error: {path} {cap}\n"
            assert out == ""
        else:
            assert code == 0 and out and err == ""
    path.write_bytes(b"\xff" * (MAX_DOCUMENT_BYTES + 1))  # not UTF-8, and not read
    code, out, err = run(capsys, *argv, str(path))
    assert_domain_error(code, err)
    assert err == f"error: {path} {cap}\n"
    code, out, err = run(capsys, *argv, "/dev/zero")
    assert_domain_error(code, err)
    assert err == f"error: /dev/zero {cap}\n"
    assert out == ""


def test_normalize_missing_file(capsys, tmp_path):
    code, _, _ = run(capsys, "normalize", "--designs", str(tmp_path / "nope.csv"))
    assert code == 3


def assert_domain_error(code, err):
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("target", ["nan,0,0", "0,inf,0", "0,0,-inf"])
def test_ik_rejects_non_finite_target(capsys, tmp_path, target):
    robot = robot_file(tmp_path)
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    code, out, err = run(
        capsys, "ik", "--robot", robot, "--index", str(index_path), f"--target={target}"
    )
    assert_domain_error(code, err)
    assert out == ""


def test_ik_rejects_a_negative_seed(capsys, tmp_path):
    robot = robot_file(tmp_path)
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    code, out, err = run(
        capsys, "ik", "--robot", robot, "--index", str(index_path), "--target=0,0,60", "--seed=-1"
    )
    assert_domain_error(code, err)
    assert "seed" in err
    assert out == ""


def test_targets_too_far_to_measure_exit_2(capsys, tmp_path):
    # finite, but the squared distance, the loosening threshold, the deflection
    # at the top of the force grid, the twist angle, or a section term or the
    # compliance of a valid description leaves the float range: refused, not a
    # traceback, a numpy warning or "inf"
    robot = robot_file(tmp_path)
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    queries = tmp_path / "queries.csv"
    queries.write_text("x,y,z\n0,0,0\n1e200,0,0\n")
    descriptions = {
        "slack": "tendon_stiffness: 1.0e-310\n",
        "subnormal": "youngs_modulus: 1.0e-310\n",  # a = L/(EA) overflows
        "soft": "youngs_modulus: 1.0e-300\n",  # |C u| squared overflows
        "long": "curve_length: 1.0e+120\n",  # L**3 overflows
        "thick": "spine_outer_diameter: 1.0e+100\n",  # D**4 overflows
        "wide": "skin_outer_diameter: 1.0e+200\nskin_inner_diameter: 1.0e+100\n",
    }
    for name, text in descriptions.items():
        (tmp_path / f"{name}.yaml").write_text(text)
    slack, subnormal, soft, long, thick, wide = (str(tmp_path / f"{name}.yaml") for name in descriptions)
    index_args = ["--robot", robot, "--index", str(index_path)]
    curve = ["stiffness", "curve", "--config", "0,0,0,0,0", "--direction", "1,0,0"]
    firm = ["stiffness", "firm", "--config", "0,0,0,0,0"]
    for argv in (
        ["ik", "--target=1e200,0,0", *index_args],
        ["workspace", "accuracy", "--queries", str(queries), *index_args],
        [*curve, "--tension", "1e308"],
        [*curve, "--tension", "1.5e307"],  # 2 r T overflows before the division by the lever arm
        [*curve, "--tension", "1e10", "--robot", slack],
        [*curve, "--tension", "0", "--robot", slack],  # drawn to 10 N at zero threshold
        ["stiffness", "twist", "--skin", "--torque", "1e308"],
        ["stiffness", "twist", "--spine", "--torque", "1e308"],
        ["stiffness", "twist", "--spine", "--torque=-1e308"],
        [*firm, "--direction", "1,0,0", "--robot", subnormal],
        [*firm, "--sphere", "6", "--robot", subnormal],
        [*curve, "--tension", "20", "--robot", subnormal],
        [*firm, "--direction", "1,0,0", "--robot", soft],
        [*firm, "--sphere", "6", "--robot", soft],
        [*firm, "--robot", long],
        [*firm, "--robot", thick],
        [*curve, "--tension", "20", "--robot", thick],
        ["stiffness", "twist", "--spine", "--torque", "1000", "--robot", thick],
        ["stiffness", "twist", "--skin", "--torque", "1000", "--robot", wide],
    ):
        code, out, err = run(capsys, *argv)
        assert_domain_error(code, err)
        assert out == ""


@pytest.mark.parametrize("scaled, plain", [("1e-200,0,0", "1,0,0"), ("1e200,1e200,0", "1,1,0")])
@pytest.mark.parametrize("command", [["firm"], ["curve", "--tension", "20"]])
def test_direction_norm_neither_underflows_nor_overflows(capsys, command, scaled, plain):
    # the square of 1e-200 underflows to 0 and that of 1e200 overflows, but
    # the norm is taken of the vector scaled by a power of two
    base = ["stiffness", *command, "--robot", "default", "--config", "0,0,0,0,0"]
    code, out, err = run(capsys, *base, f"--direction={scaled}")
    assert (code, out, err) == run(capsys, *base, f"--direction={plain}")
    assert (code, err) == (0, "")
    if command == ["firm"]:  # the row starts with the unit direction
        unit = {"1,0,0": "1,0,0,", "1,1,0": "0.707106781,0.707106781,0,"}[plain]
        assert out.splitlines()[1].startswith(unit)


def test_stiffness_rejects_non_finite_direction(capsys):
    code, _, err = run(
        capsys, "stiffness", "firm", "--robot", "default", "--config", "0,0,0,0,0",
        "--direction", "1,nan,0",
    )
    assert_domain_error(code, err)


@pytest.mark.parametrize(
    "body", ["x,y,z\n1,2,3\n4,5\n", "x,y,z\n1,2\n3,4,5\n", "1,2,3\nnan,0,0\n"]
)
def test_workspace_accuracy_rejects_bad_query_rows(capsys, tmp_path, body):
    robot = robot_file(tmp_path)
    queries = tmp_path / "queries.csv"
    queries.write_text(body)
    code, out, err = run(capsys, "workspace", "accuracy", "--robot", robot, "--queries", str(queries))
    assert_domain_error(code, err)
    assert out == ""


def test_query_file_takes_one_header_line(capsys, tmp_path):
    robot = robot_file(tmp_path)
    queries = tmp_path / "queries.csv"
    accuracy = ["workspace", "accuracy", "--robot", robot, "--queries", str(queries)]
    queries.write_text("60,20,35\n")
    plain = run(capsys, *accuracy)
    assert plain[0] == 0
    # comments and blank lines may come before the header
    queries.write_text("# targets\n\nx,y,z\n60,20,35\n")
    assert run(capsys, *accuracy) == plain
    # a byte order mark is not part of the first row: it stayed on the line,
    # so float() refused it, the row was skipped as a header, and the
    # accuracy came from the other rows alone, with exit 0
    queries.write_text("1000,0,0\n60,20,35\n")
    both = run(capsys, *accuracy)
    queries.write_text("1000,0,0\n60,20,35\n", encoding="utf-8-sig")
    assert run(capsys, *accuracy) == both != plain
    # a second unparsable line is a bad row, not another header: it used to
    # be skipped, and the accuracy came from the last row alone
    queries.write_text("x,y,z\nfoo,bar,baz\nqux\n60,20,35\n")
    code, out, err = run(capsys, *accuracy)
    assert_domain_error(code, err)
    assert "bad query row: 'foo,bar,baz'" in err
    assert out == ""


OFFSET_ROBOT = "segment_count: 3\ntool_offset: [0, 0, 15]\n"


def test_fk_tip_round_trips_through_ik(capsys, tmp_path):
    robot = robot_file(tmp_path, OFFSET_ROBOT)
    code, out, _ = run(capsys, "fk", "--robot", robot, "--config", "3,7,1")
    assert code == 0
    header, row = out.strip().splitlines()
    fk = dict(zip(header.split(","), row.split(",")))
    tip = [fk["tip_x_mm"], fk["tip_y_mm"], fk["tip_z_mm"]]
    assert tip != [fk["x_mm"], fk["y_mm"], fk["z_mm"]]
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    code, out, _ = run(
        capsys, "ik", "--robot", robot, "--index", str(index_path),
        "--target=" + ",".join(tip), "--reference", "3,7,1",
    )
    assert code == 0
    header, row = out.strip().splitlines()
    ik = dict(zip(header.split(","), row.split(",")))
    assert ik["config"] == "3 7 1"
    assert [ik["achieved_x_mm"], ik["achieved_y_mm"], ik["achieved_z_mm"]] == tip
    # the target carries fk's 9 significant digits, so it misses the tip by their rounding
    assert float(ik["error_mm"]) < 1e-6


def test_fk_tip_is_the_stored_tool_tip(capsys, tmp_path):
    # an offset whose tip x cancels to rounding at config 3: the end pose
    # applied to the offset prints -4.4408921e-16 there, and the tip that
    # tool_position and the index store, p + R (t_k + R_k o), prints 0
    offset = (-23.097981066342907, 5.5, -9.2)
    robot = robot_file(tmp_path, f"segment_count: 1\ntool_offset: {list(offset)}\n")
    code, out, _ = run(capsys, "fk", "--robot", robot, "--config", "3")
    assert code == 0
    header, row = out.strip().splitlines()
    fk = dict(zip(header.split(","), row.split(",")))
    walked = tool_position(desc_with(segment_count=1, tool_offset=offset), Configuration((3,), 10))
    tip = [fk["tip_x_mm"], fk["tip_y_mm"], fk["tip_z_mm"]]
    assert tip == [_fmt(v) for v in walked]
    assert tip[0] == "0"


def test_negative_zero_prints_as_0(capsys, tmp_path):
    # a one-segment robot at tooth 0 is its unit row: r12 = -sin 0 = -0.0
    robot = robot_file(tmp_path, "segment_count: 1\n")
    code, out, _ = run(capsys, "fk", "--robot", robot, "--config", "0")
    assert code == 0
    header, row = out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["r12"] == "0"


def _as_version(path, version):
    # version 1 stored flange positions under the same digest, version 2
    # points whose bits could depend on the host's BLAS kernel, and version 3
    # int64 bucket offsets and members
    data = path.read_bytes()
    assert data[4:8] == INDEX_FORMAT_VERSION.to_bytes(4, "little")
    path.write_bytes(data[:4] + version.to_bytes(4, "little") + data[8:])


def test_version_1_index_is_refused(capsys, tmp_path):
    robot = robot_file(tmp_path)
    index_path = tmp_path / "ws.plcw"
    for version in (1, 2, 3):
        run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
        _as_version(index_path, version)
        code, out, err = run(
            capsys, "ik", "--robot", robot, "--index", str(index_path), "--target", "1,2,3"
        )
        assert_domain_error(code, err)
        assert f"version {version} unsupported (expected {INDEX_FORMAT_VERSION})" in err
        assert out == ""


def test_index_with_points_out_of_key_order_is_refused(capsys, tmp_path):
    robot = robot_file(tmp_path)
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    data = bytearray(index_path.read_bytes())
    first, second = _HEADER.size, _HEADER.size + 24  # the first two point rows
    data[first:second], data[second : second + 24] = data[second : second + 24], data[first:second]
    index_path.write_bytes(bytes(data))
    code, out, err = run(
        capsys, "ik", "--robot", robot, "--index", str(index_path), "--target", "1,2,3"
    )
    assert_domain_error(code, err)
    assert "ascending key order" in err
    assert out == ""


def test_index_with_a_non_finite_point_is_refused(capsys, tmp_path):
    # the default robot has two scan blocks: a NaN in the first one used to
    # hide that block from the scan, and ik answered from the other
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", "default", "--out", str(index_path))
    data = bytearray(index_path.read_bytes())
    data[_HEADER.size : _HEADER.size + 8] = np.array([np.nan], dtype="<f8").tobytes()
    index_path.write_bytes(bytes(data))
    code, out, err = run(
        capsys, "ik", "--robot", "default", "--index", str(index_path), "--target", "1,2,30"
    )
    assert_domain_error(code, err)
    assert "finite" in err
    assert out == ""


@pytest.mark.parametrize("rank", [-1, 10**5 + 12345, 2**62, 0])
def test_index_with_a_wrong_member_rank_is_refused(capsys, tmp_path, rank):
    # a one-member bucket's rank overwritten: out of range, or a repeat of
    # rank 0; ik on its stored point answered a configuration 67 to 223 mm
    # from it, with exit 0.  The file holds the rank's low 32 bits, as a
    # writer that wraps would store it: -1 is 2**32 - 1, and 2**62 is 0
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", "default", "--out", str(index_path))
    index = WorkspaceIndex.load(index_path, RobotDescription())
    g = int(np.flatnonzero(np.diff(index.bucket_offsets) == 1)[1])
    target = ",".join(repr(v) for v in index.points[g].tolist())
    ik = ["ik", "--robot", "default", "--index", str(index_path), f"--target={target}"]
    code, out, _ = run(capsys, *ik)
    assert code == 0 and out.splitlines()[1].split(",")[4] == "0"  # error_mm
    data = bytearray(index_path.read_bytes())
    at = _HEADER.size + index.point_count * 28 + 4 + int(index.bucket_offsets[g]) * 4
    data[at : at + 4] = np.array([rank % 2**32], dtype="<u4").tobytes()
    index_path.write_bytes(bytes(data))
    code, out, err = run(capsys, *ik)
    assert_domain_error(code, err)
    assert f"index file {index_path} has bucket members that are not each rank" in err
    assert out == ""


def test_version_1_cache_entry_is_rebuilt(capsys, tmp_path):
    robot = robot_file(tmp_path)
    run(capsys, "workspace", "build", "--robot", robot)
    (cache,) = (tmp_path / "cache").iterdir()
    fresh = cache.read_bytes()
    for version in (1, 2, 3):
        _as_version(cache, version)
        code, out, _ = run(capsys, "workspace", "omnivariance", "--robot", robot)
        assert code == 0
        assert float(out.strip()) > 0.0
        assert cache.read_bytes() == fresh
