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
    cli,
    parse_robot_description,
    tool_position,
    workspace,
)
from plc.cli import _fmt, _force_grid, main
from plc.files import INDEX_FORMAT_VERSION, MAX_DOCUMENT_BYTES
from plc.stiffness import stiffness_map
from plc.workspace import _HEADER, BYTES_PER_CONFIGURATION, BYTES_PER_TOOTH

from conftest import desc_with, traced_peak, write_sparse_index

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL_ROBOT = "segment_count: 2\n"
OFFSET_ROBOT = "segment_count: 3\ntool_offset: [0, 0, 15]\n"


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


# robot description text, or "default" for --robot default
COMMAND_ROBOTS = {
    "default": "default",
    "offset": OFFSET_ROBOT,
    "stiff": "tendon_stiffness: 2.0\n",  # not below the firmed slope
    "slack": "tendon_stiffness: 1.0e-310\n",  # the deflection at the top force overflows
}
# the designs files of the normalize runs, by file name
DESIGNS_FILES = {
    # ties of ratio (b, c) keep their input order; NA and empty geometry print NA
    "na.csv": "name,k_max,k_min,length_mm,radius_mm\na,9,1,100,5\nb,4,2,NA,NA\nc,6,3,,\nd,8,2,50,2.5\n",
    # both normalizations overflow: the first in input order is the one refused
    "overflow.csv": "name,k_max,k_min,length_mm,radius_mm\nlow,2e300,1e300,1e100,1\nhigh,1e300,1,1e100,1\n",
    "columns.csv": "x,y,z\n1,2,3\n",
}


def command_invocations(points):
    """(robot, arguments) of seeded `plc ik`, `plc stiffness curve` and
    `plc normalize` runs, refusals included; ``points`` maps "default" and
    "offset" to the stored points of their indexes, which the ik runs read
    as default.plcw and offset.plcw.  ``robot`` is None for a command that
    takes no --robot."""
    def joined(values):
        return ",".join(map(repr, values))

    rng = random.Random(35)
    cases = []
    for robot, joints in (("default", 5), ("offset", 3)):
        stored = [points[robot][rng.randrange(len(points[robot]))].tolist() for _ in range(3)]
        jittered = [[v + rng.uniform(-2.0, 2.0) for v in point] for point in stored]
        far = [[rng.uniform(-500.0, 500.0) for _ in range(3)] for _ in range(2)]
        reference = ",".join(str(rng.randrange(10)) for _ in range(joints))
        for target in stored + jittered + far:
            query = f"ik --index {robot}.plcw --target={joined(target)}"
            for option in ("", f" --reference {reference}", " --seed 7", " --metric euclidean"):
                cases.append((robot, query + option))
    cases += [
        ("default", "ik --index default.plcw"),
        ("default", "ik --index default.plcw --target=0,0,60 --metric manhattan"),
        ("default", "ik --index default.plcw --target=0,0,60 --reference 0,0"),
        ("default", "ik --index default.plcw --target=nan,0,0"),
        ("offset", "ik --index default.plcw --target=0,0,60"),
        ("default", "ik --index missing.plcw --target=0,0,60"),
    ]
    for _ in range(3):
        config = ",".join(str(rng.randrange(10)) for _ in range(5))
        direction = joined([rng.uniform(-1.0, 1.0) for _ in range(3)])
        for tension in ("0", "20"):
            curve = f"stiffness curve --config {config} --direction={direction}"
            cases.append(("default", f"{curve} --tension {tension}"))
    curve = "stiffness curve --config 0,0,0,0,0 --direction 1,0,0"
    cases += [
        ("default", "stiffness curve --config 0,0,0,0,0 --direction 1e-200,0,0 --tension 20"),
        ("default", curve),
        ("default", f"{curve} --tension 1e308"),
        ("stiff", f"{curve} --tension 20"),
        ("slack", f"{curve} --tension 0"),
        ("slack", f"{curve} --tension 20"),
    ]
    cases += [(None, f"normalize --designs {name}") for name in ("builtin", *DESIGNS_FILES)]
    return cases


# SHA-256 of "<exit code>\0<stdout>\0<stderr>" of each command_invocations() run
COMMAND_DIGESTS = {
    ('default', 'ik --index default.plcw --target=39.28985871686545,-85.36160216737684,101.96339151125775'): "fb7161644cc4ce71afd7ae9f07ce22a148c2d1dc5669a7901f63b613e88b24ad",
    ('default', 'ik --index default.plcw --target=39.28985871686545,-85.36160216737684,101.96339151125775 --reference 8,0,1,7,5'): "fb7161644cc4ce71afd7ae9f07ce22a148c2d1dc5669a7901f63b613e88b24ad",
    ('default', 'ik --index default.plcw --target=39.28985871686545,-85.36160216737684,101.96339151125775 --seed 7'): "fb7161644cc4ce71afd7ae9f07ce22a148c2d1dc5669a7901f63b613e88b24ad",
    ('default', 'ik --index default.plcw --target=39.28985871686545,-85.36160216737684,101.96339151125775 --metric euclidean'): "fb7161644cc4ce71afd7ae9f07ce22a148c2d1dc5669a7901f63b613e88b24ad",
    ('default', 'ik --index default.plcw --target=-9.475646370441272,-97.6976515791703,96.09671823652114'): "382bed8a71a75522b72589bb03a3545523f7c3d54f05c6fb2ed9180099483729",
    ('default', 'ik --index default.plcw --target=-9.475646370441272,-97.6976515791703,96.09671823652114 --reference 8,0,1,7,5'): "382bed8a71a75522b72589bb03a3545523f7c3d54f05c6fb2ed9180099483729",
    ('default', 'ik --index default.plcw --target=-9.475646370441272,-97.6976515791703,96.09671823652114 --seed 7'): "382bed8a71a75522b72589bb03a3545523f7c3d54f05c6fb2ed9180099483729",
    ('default', 'ik --index default.plcw --target=-9.475646370441272,-97.6976515791703,96.09671823652114 --metric euclidean'): "382bed8a71a75522b72589bb03a3545523f7c3d54f05c6fb2ed9180099483729",
    ('default', 'ik --index default.plcw --target=108.68532282585018,-24.8028011154556,71.33203901987366'): "81f45b8abce139023b30a808f52af8968c21d805ba5156bbea17fd284a828331",
    ('default', 'ik --index default.plcw --target=108.68532282585018,-24.8028011154556,71.33203901987366 --reference 8,0,1,7,5'): "81f45b8abce139023b30a808f52af8968c21d805ba5156bbea17fd284a828331",
    ('default', 'ik --index default.plcw --target=108.68532282585018,-24.8028011154556,71.33203901987366 --seed 7'): "81f45b8abce139023b30a808f52af8968c21d805ba5156bbea17fd284a828331",
    ('default', 'ik --index default.plcw --target=108.68532282585018,-24.8028011154556,71.33203901987366 --metric euclidean'): "81f45b8abce139023b30a808f52af8968c21d805ba5156bbea17fd284a828331",
    ('default', 'ik --index default.plcw --target=37.816760550498245,-85.99973075006169,100.57958636402435'): "a6c188209302cbc81b44d803e8e04cb61cd7b12883e42c3b475e6c436e3b5b4a",
    ('default', 'ik --index default.plcw --target=37.816760550498245,-85.99973075006169,100.57958636402435 --reference 8,0,1,7,5'): "a6c188209302cbc81b44d803e8e04cb61cd7b12883e42c3b475e6c436e3b5b4a",
    ('default', 'ik --index default.plcw --target=37.816760550498245,-85.99973075006169,100.57958636402435 --seed 7'): "a6c188209302cbc81b44d803e8e04cb61cd7b12883e42c3b475e6c436e3b5b4a",
    ('default', 'ik --index default.plcw --target=37.816760550498245,-85.99973075006169,100.57958636402435 --metric euclidean'): "a6c188209302cbc81b44d803e8e04cb61cd7b12883e42c3b475e6c436e3b5b4a",
    ('default', 'ik --index default.plcw --target=-9.748744542224586,-98.6890573473639,94.34396330231124'): "031368e01965a8470c2ea67038acd8d54140db582b1f071abe02f17bf77b65ae",
    ('default', 'ik --index default.plcw --target=-9.748744542224586,-98.6890573473639,94.34396330231124 --reference 8,0,1,7,5'): "031368e01965a8470c2ea67038acd8d54140db582b1f071abe02f17bf77b65ae",
    ('default', 'ik --index default.plcw --target=-9.748744542224586,-98.6890573473639,94.34396330231124 --seed 7'): "031368e01965a8470c2ea67038acd8d54140db582b1f071abe02f17bf77b65ae",
    ('default', 'ik --index default.plcw --target=-9.748744542224586,-98.6890573473639,94.34396330231124 --metric euclidean'): "031368e01965a8470c2ea67038acd8d54140db582b1f071abe02f17bf77b65ae",
    ('default', 'ik --index default.plcw --target=108.78833737709928,-23.351606831219186,72.53190603815942'): "720a9ee38fc7ac7730604368532b87661fc7b146fc40492ee195b7e409816d5f",
    ('default', 'ik --index default.plcw --target=108.78833737709928,-23.351606831219186,72.53190603815942 --reference 8,0,1,7,5'): "720a9ee38fc7ac7730604368532b87661fc7b146fc40492ee195b7e409816d5f",
    ('default', 'ik --index default.plcw --target=108.78833737709928,-23.351606831219186,72.53190603815942 --seed 7'): "720a9ee38fc7ac7730604368532b87661fc7b146fc40492ee195b7e409816d5f",
    ('default', 'ik --index default.plcw --target=108.78833737709928,-23.351606831219186,72.53190603815942 --metric euclidean'): "720a9ee38fc7ac7730604368532b87661fc7b146fc40492ee195b7e409816d5f",
    ('default', 'ik --index default.plcw --target=152.89770339892664,305.4122233192958,419.448752591734'): "375187fb484b953c23e8c1b28b64189e05a8e1d493f882141dbf37f34e9770c8",
    ('default', 'ik --index default.plcw --target=152.89770339892664,305.4122233192958,419.448752591734 --reference 8,0,1,7,5'): "375187fb484b953c23e8c1b28b64189e05a8e1d493f882141dbf37f34e9770c8",
    ('default', 'ik --index default.plcw --target=152.89770339892664,305.4122233192958,419.448752591734 --seed 7'): "375187fb484b953c23e8c1b28b64189e05a8e1d493f882141dbf37f34e9770c8",
    ('default', 'ik --index default.plcw --target=152.89770339892664,305.4122233192958,419.448752591734 --metric euclidean'): "375187fb484b953c23e8c1b28b64189e05a8e1d493f882141dbf37f34e9770c8",
    ('default', 'ik --index default.plcw --target=430.76256476616754,-403.2871174492639,-491.37915704223366'): "8ca230abc9503a6f3fe0fd40f6b707cb414ef96214feafba1e59dfec2c95d73e",
    ('default', 'ik --index default.plcw --target=430.76256476616754,-403.2871174492639,-491.37915704223366 --reference 8,0,1,7,5'): "8ca230abc9503a6f3fe0fd40f6b707cb414ef96214feafba1e59dfec2c95d73e",
    ('default', 'ik --index default.plcw --target=430.76256476616754,-403.2871174492639,-491.37915704223366 --seed 7'): "8ca230abc9503a6f3fe0fd40f6b707cb414ef96214feafba1e59dfec2c95d73e",
    ('default', 'ik --index default.plcw --target=430.76256476616754,-403.2871174492639,-491.37915704223366 --metric euclidean'): "8ca230abc9503a6f3fe0fd40f6b707cb414ef96214feafba1e59dfec2c95d73e",
    ('offset', 'ik --index offset.plcw --target=27.557389547783764,44.531594626793776,81.17372237562745'): "f5a49d5c54b657b3309f6529c5cda8005cba827f082592aa4b5ac4c9de9bb9e7",
    ('offset', 'ik --index offset.plcw --target=27.557389547783764,44.531594626793776,81.17372237562745 --reference 7,5,6'): "f5a49d5c54b657b3309f6529c5cda8005cba827f082592aa4b5ac4c9de9bb9e7",
    ('offset', 'ik --index offset.plcw --target=27.557389547783764,44.531594626793776,81.17372237562745 --seed 7'): "f5a49d5c54b657b3309f6529c5cda8005cba827f082592aa4b5ac4c9de9bb9e7",
    ('offset', 'ik --index offset.plcw --target=27.557389547783764,44.531594626793776,81.17372237562745 --metric euclidean'): "f5a49d5c54b657b3309f6529c5cda8005cba827f082592aa4b5ac4c9de9bb9e7",
    ('offset', 'ik --index offset.plcw --target=-62.55933081207529,-34.42587495680971,59.80586084472475'): "fd4942c5ece2fc9dc4192072322809ce57acead8f6ff4b4a4c8179e102d4c452",
    ('offset', 'ik --index offset.plcw --target=-62.55933081207529,-34.42587495680971,59.80586084472475 --reference 7,5,6'): "fd4942c5ece2fc9dc4192072322809ce57acead8f6ff4b4a4c8179e102d4c452",
    ('offset', 'ik --index offset.plcw --target=-62.55933081207529,-34.42587495680971,59.80586084472475 --seed 7'): "fd4942c5ece2fc9dc4192072322809ce57acead8f6ff4b4a4c8179e102d4c452",
    ('offset', 'ik --index offset.plcw --target=-62.55933081207529,-34.42587495680971,59.80586084472475 --metric euclidean'): "fd4942c5ece2fc9dc4192072322809ce57acead8f6ff4b4a4c8179e102d4c452",
    ('offset', 'ik --index offset.plcw --target=-16.69175821115552,-29.718564392274597,97.00460033395223'): "cf16ffd9a862617299e1b54ef42df1e45e94ca6af115c139af1569662977e4eb",
    ('offset', 'ik --index offset.plcw --target=-16.69175821115552,-29.718564392274597,97.00460033395223 --reference 7,5,6'): "cf16ffd9a862617299e1b54ef42df1e45e94ca6af115c139af1569662977e4eb",
    ('offset', 'ik --index offset.plcw --target=-16.69175821115552,-29.718564392274597,97.00460033395223 --seed 7'): "cf16ffd9a862617299e1b54ef42df1e45e94ca6af115c139af1569662977e4eb",
    ('offset', 'ik --index offset.plcw --target=-16.69175821115552,-29.718564392274597,97.00460033395223 --metric euclidean'): "cf16ffd9a862617299e1b54ef42df1e45e94ca6af115c139af1569662977e4eb",
    ('offset', 'ik --index offset.plcw --target=28.257725184404674,42.73790522753261,80.11232872663896'): "984c935deff0143138e25736cfe1fa08440f1bc3d81d97973b57a72eb93a2e82",
    ('offset', 'ik --index offset.plcw --target=28.257725184404674,42.73790522753261,80.11232872663896 --reference 7,5,6'): "984c935deff0143138e25736cfe1fa08440f1bc3d81d97973b57a72eb93a2e82",
    ('offset', 'ik --index offset.plcw --target=28.257725184404674,42.73790522753261,80.11232872663896 --seed 7'): "984c935deff0143138e25736cfe1fa08440f1bc3d81d97973b57a72eb93a2e82",
    ('offset', 'ik --index offset.plcw --target=28.257725184404674,42.73790522753261,80.11232872663896 --metric euclidean'): "984c935deff0143138e25736cfe1fa08440f1bc3d81d97973b57a72eb93a2e82",
    ('offset', 'ik --index offset.plcw --target=-63.25938694538544,-35.797699389994065,58.46243132594047'): "e00750fc8646aa6ab9eeb0b52c0036bdcdb42ea60e3178cb0fccfc449a7dc256",
    ('offset', 'ik --index offset.plcw --target=-63.25938694538544,-35.797699389994065,58.46243132594047 --reference 7,5,6'): "e00750fc8646aa6ab9eeb0b52c0036bdcdb42ea60e3178cb0fccfc449a7dc256",
    ('offset', 'ik --index offset.plcw --target=-63.25938694538544,-35.797699389994065,58.46243132594047 --seed 7'): "e00750fc8646aa6ab9eeb0b52c0036bdcdb42ea60e3178cb0fccfc449a7dc256",
    ('offset', 'ik --index offset.plcw --target=-63.25938694538544,-35.797699389994065,58.46243132594047 --metric euclidean'): "e00750fc8646aa6ab9eeb0b52c0036bdcdb42ea60e3178cb0fccfc449a7dc256",
    ('offset', 'ik --index offset.plcw --target=-18.39729861552091,-28.334221234231315,95.33683710952812'): "293c22da5d2390cfbaac70db7bca0955437f4b34b1c277b06765d2bff816981a",
    ('offset', 'ik --index offset.plcw --target=-18.39729861552091,-28.334221234231315,95.33683710952812 --reference 7,5,6'): "293c22da5d2390cfbaac70db7bca0955437f4b34b1c277b06765d2bff816981a",
    ('offset', 'ik --index offset.plcw --target=-18.39729861552091,-28.334221234231315,95.33683710952812 --seed 7'): "293c22da5d2390cfbaac70db7bca0955437f4b34b1c277b06765d2bff816981a",
    ('offset', 'ik --index offset.plcw --target=-18.39729861552091,-28.334221234231315,95.33683710952812 --metric euclidean'): "293c22da5d2390cfbaac70db7bca0955437f4b34b1c277b06765d2bff816981a",
    ('offset', 'ik --index offset.plcw --target=-339.190180774428,-423.0018356874596,409.42097552125983'): "a583f671174e4ba3e7fc453b564ab66090b5f49ec53eb3d552d581fcf85c0633",
    ('offset', 'ik --index offset.plcw --target=-339.190180774428,-423.0018356874596,409.42097552125983 --reference 7,5,6'): "a583f671174e4ba3e7fc453b564ab66090b5f49ec53eb3d552d581fcf85c0633",
    ('offset', 'ik --index offset.plcw --target=-339.190180774428,-423.0018356874596,409.42097552125983 --seed 7'): "a583f671174e4ba3e7fc453b564ab66090b5f49ec53eb3d552d581fcf85c0633",
    ('offset', 'ik --index offset.plcw --target=-339.190180774428,-423.0018356874596,409.42097552125983 --metric euclidean'): "a583f671174e4ba3e7fc453b564ab66090b5f49ec53eb3d552d581fcf85c0633",
    ('offset', 'ik --index offset.plcw --target=45.86112298925286,322.48309582837965,472.4625931322828'): "024293006cb0c6b6ca6872ddf7838bcc9957c428f4d7c828831de33daa9b567a",
    ('offset', 'ik --index offset.plcw --target=45.86112298925286,322.48309582837965,472.4625931322828 --reference 7,5,6'): "024293006cb0c6b6ca6872ddf7838bcc9957c428f4d7c828831de33daa9b567a",
    ('offset', 'ik --index offset.plcw --target=45.86112298925286,322.48309582837965,472.4625931322828 --seed 7'): "024293006cb0c6b6ca6872ddf7838bcc9957c428f4d7c828831de33daa9b567a",
    ('offset', 'ik --index offset.plcw --target=45.86112298925286,322.48309582837965,472.4625931322828 --metric euclidean'): "024293006cb0c6b6ca6872ddf7838bcc9957c428f4d7c828831de33daa9b567a",
    ('default', 'ik --index default.plcw'): "b52ba39400937e1df3ab5fd1f4a1ca96695cf962df57d7e9c195fecb4ece0778",
    ('default', 'ik --index default.plcw --target=0,0,60 --metric manhattan'): "18a00c9c518d878d8cebf829802881ad5d2dfbc8ef61c41e5ce4eaeaae21e638",
    ('default', 'ik --index default.plcw --target=0,0,60 --reference 0,0'): "ca0a6aaf01c33aaa3e491893a3bccb98a7d046ac4d69dada5af6fcbefea6e27e",
    ('default', 'ik --index default.plcw --target=nan,0,0'): "d6f8122de9b17b34895f5d048ee3d04940545581b3981d633b4dce454369a557",
    ('offset', 'ik --index default.plcw --target=0,0,60'): "4474428259bb3e8b1ba625d296670857304c3946935fdc94fbd72a97a88a9f94",
    ('default', 'ik --index missing.plcw --target=0,0,60'): "446077a43f94135105036bf92c7168378b1bd2fee91526a5bf9312701a7c7fa9",
    ('default', 'stiffness curve --config 9,6,0,4,9 --direction=0.5392827535612847,-0.08760610962818438,0.10954986150037804 --tension 0'): "f182c4f9bcbe2c5e003dd79f4645939e3755f67f7897d5adf26eb44c1d4f262b",
    ('default', 'stiffness curve --config 9,6,0,4,9 --direction=0.5392827535612847,-0.08760610962818438,0.10954986150037804 --tension 20'): "066e4bef10bc7a3184b2797eb57036d08236e1ffac28efffd4440ff6e45446f4",
    ('default', 'stiffness curve --config 0,1,5,8,7 --direction=-0.8042778361825622,-0.2452641665015658,0.706318634716901 --tension 0'): "f182c4f9bcbe2c5e003dd79f4645939e3755f67f7897d5adf26eb44c1d4f262b",
    ('default', 'stiffness curve --config 0,1,5,8,7 --direction=-0.8042778361825622,-0.2452641665015658,0.706318634716901 --tension 20'): "6153b360746d0edd5cd85eb60333dc3810c675f46d99322b33c24f657dd00e3e",
    ('default', 'stiffness curve --config 7,6,0,4,9 --direction=0.444916415501142,-0.506879839511444,0.1590195568417203 --tension 0'): "f182c4f9bcbe2c5e003dd79f4645939e3755f67f7897d5adf26eb44c1d4f262b",
    ('default', 'stiffness curve --config 7,6,0,4,9 --direction=0.444916415501142,-0.506879839511444,0.1590195568417203 --tension 20'): "13bda1a8069a6d0b36aebb63b55a1351117fe2ff3cc40252c1626fe6d17f7c90",
    ('default', 'stiffness curve --config 0,0,0,0,0 --direction 1e-200,0,0 --tension 20'): "8f55977a53b83d6d5b3766303347a02b7901b7bb985b876784383138667cdc62",
    ('default', 'stiffness curve --config 0,0,0,0,0 --direction 1,0,0'): "37b000e6ae585823aa2c3b795473407a829d715bd10630684f703f7c8e0f62a1",
    ('default', 'stiffness curve --config 0,0,0,0,0 --direction 1,0,0 --tension 1e308'): "a42a14bfd612152571bdce7a1daeb657301369205a63b1f63dd73b6deeeeddce",
    ('stiff', 'stiffness curve --config 0,0,0,0,0 --direction 1,0,0 --tension 20'): "fb49be0ed5a8938f65dd1fd3efec273c92cdcdb739d0a2b7fcede1e6494c0f99",
    ('slack', 'stiffness curve --config 0,0,0,0,0 --direction 1,0,0 --tension 0'): "8c0b5ff526d309b03141e7649705b1b35528503449e086e8c637ba514b0f2e3a",
    ('slack', 'stiffness curve --config 0,0,0,0,0 --direction 1,0,0 --tension 20'): "b1767b075802858a277bd5d3740f37cf89f85f345d32642297c3df4883f56862",
    (None, 'normalize --designs builtin'): "0557a0829398168c5d68a036f1f12d675b46c7bcae13142719b4932213066d00",
    (None, 'normalize --designs na.csv'): "bc28e05cdb62351dc23319dc1cf644a22744a1f3852e2d65b5d63cbf4d8dda44",
    (None, 'normalize --designs overflow.csv'): "190648ec7e22f7147ef69f26ed5f9c0920c28beed372b7bff1453e2eef6a49df",
    (None, 'normalize --designs columns.csv'): "a0b7ba058d944b8ed651b334b03e4cab8d94d15badab9815023ffb84cc67593d",
}


def test_command_outputs_keep_their_digests(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the runs name their files by relative paths, which messages print
    for name, text in DESIGNS_FILES.items():
        Path(name).write_text(text)
    for robot, text in COMMAND_ROBOTS.items():
        if text != "default":
            Path(f"{robot}.yaml").write_text(text)
    points = {}
    for robot in ("default", "offset"):
        text = COMMAND_ROBOTS[robot]
        desc = RobotDescription() if text == "default" else parse_robot_description(text)
        index = workspace.enumerate_workspace(desc)
        index.save(f"{robot}.plcw")
        points[robot] = index.points
    digests = {}
    for robot, arguments in command_invocations(points):
        argv = arguments.split()
        if robot is not None:
            argv += ["--robot", "default" if robot == "default" else f"{robot}.yaml"]
        code, out, err = run(capsys, *argv)
        digests[robot, arguments] = hashlib.sha256(f"{code}\0{out}\0{err}".encode()).hexdigest()
    assert digests == COMMAND_DIGESTS


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


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
@pytest.mark.parametrize("at", [6, 8191, 8192, 30000])
@pytest.mark.parametrize("bad", [b"\xff", b"\xe2\x28", b"\xf0\x90\x80"])
def test_a_bad_byte_in_the_query_stream_is_placed_in_the_whole_text(capsys, tmp_path, bom, at, bad):
    # the query file is decoded a chunk at a time, on either side of the
    # first chunk's edge and far past it, but the message gives the bad
    # bytes' position in the whole text, as a whole read does; the last
    # case is a truncated sequence at the end of the file
    rows = ("1,2,3\n" * (at // 6 + 1)).encode()[:at]
    data = bom + rows + bad
    queries = tmp_path / "queries.csv"
    queries.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8-sig")
    code, out, err = run(capsys, "workspace", "accuracy", "--robot", robot_file(tmp_path), "--queries", str(queries))
    assert (code, out) == (2, "")
    assert err == f"error: {queries} is not UTF-8 text: {whole.value}\n"


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
    "body",
    [
        "x,y,z\n1,2,3\n4,5\n",
        "x,y,z\n1,2\n3,4,5\n",
        "1,2,3\nnan,0,0\n",
        "x,y,z\n1,2,3,4\n",  # a fourth field is not ignored
        "1,2,3,\n",  # nor is an empty one after a trailing comma
    ],
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


def test_query_file_is_read_in_blocks(capsys, tmp_path, monkeypatch):
    robot = robot_file(tmp_path)
    queries = tmp_path / "queries.csv"
    accuracy = ["workspace", "accuracy", "--robot", robot, "--queries", str(queries)]
    # ten rows, the farthest in the last block of three
    rows = [f"{x},{-x / 2},{40 - x}" for x in range(0, 90, 10)] + ["500,0,0"]
    body = "# targets\nx,y,z\n" + "\n".join(rows) + "\n"
    queries.write_text(body)
    whole = run(capsys, *accuracy)
    assert whole[0] == 0 and float(whole[1]) > 400.0
    blocks = []
    reach_accuracy = workspace.reach_accuracy

    def measured(index, block):
        blocks.append(len(block))
        return reach_accuracy(index, block)

    monkeypatch.setattr(workspace, "reach_accuracy", measured)
    monkeypatch.setattr(cli, "_ROWS", 3)
    # the header takes no row of the first block, and the largest of the
    # blocks' accuracies prints the bytes of a one-block read
    assert run(capsys, *accuracy) == whole
    assert blocks == [3, 3, 3, 1]
    # the header is counted once: the same line as the first of the second
    # block is a bad row, as is a short one, and either prints nothing after
    # the block before it
    for bad in ("x,y,z", "1,2"):
        blocks.clear()
        queries.write_text("x,y,z\n" + "\n".join([*rows[:3], bad, *rows[3:]]) + "\n")
        code, out, err = run(capsys, *accuracy)
        assert_domain_error(code, err)
        assert bad in err
        assert out == ""
        assert blocks == [3]


def test_query_reader_peak_does_not_grow_with_the_rows(capsys, tmp_path, monkeypatch):
    # a whole-file read held about 265 B per row.  The blocks are cut to
    # 1024 rows, so 10**4 and 5 * 10**4 rows are 10 and 49 of them: a row
    # costs 20-40 us under tracemalloc, so 65,536-row blocks would need
    # 10**6 rows and 20 s or more to show as many
    monkeypatch.setattr(cli, "_ROWS", 2**10)
    # 9,951 points: a block's queries pass SCAN_BUDGET, so both files take
    # the k-d tree from their first block.  The scipy import is a one-off,
    # not the reader's, so it comes first
    import scipy.spatial  # noqa: F401

    robot = robot_file(tmp_path, "segment_count: 4\n")
    index = tmp_path / "ws.plcw"
    assert run(capsys, "workspace", "build", "--robot", robot, "--out", str(index))[0] == 0
    peaks, codes = [], []
    for count in (10**4, 5 * 10**4):
        queries = tmp_path / f"{count}.csv"
        queries.write_text("".join(f"{i % 97},{i % 89 - 40},{i % 83}\n" for i in range(count)))
        argv = ["workspace", "accuracy", "--robot", robot, "--index", str(index), "--queries", str(queries)]
        peaks.append(traced_peak(lambda: codes.append(main(argv))))
    small, large = peaks
    assert codes == [0, 0]
    assert large <= 1.05 * small
    assert large < 265 * 10**4  # below a whole read of the smaller file


def test_a_query_line_past_the_cap_is_refused(capsys, tmp_path):
    robot = robot_file(tmp_path)
    index = tmp_path / "ws.plcw"
    assert run(capsys, "workspace", "build", "--robot", robot, "--out", str(index))[0] == 0
    queries = tmp_path / "queries.csv"
    accuracy = ["workspace", "accuracy", "--robot", robot, "--index", str(index), "--queries", str(queries)]
    queries.write_text("60,20,35\n1,2,3\n")
    plain = run(capsys, *accuracy)
    assert plain[0] == 0
    # a line of MAX_DOCUMENT_BYTES characters, its newline included, is read
    line = "1,2,3\n".rjust(MAX_DOCUMENT_BYTES)
    queries.write_text("60,20,35\n" + line)
    assert run(capsys, *accuracy) == plain
    # one character more is refused, as is a line with no newline, which
    # used to be held whole (about 4 B traced per byte): the reader stops
    # one character past the cap
    for body in ("60,20,35\n " + line, "60,20,35\n" + " " * 10**6 + "1,2,3"):
        queries.write_text(body)
        codes = []
        peak = traced_peak(lambda: codes.append(main(accuracy)))
        out, err = capsys.readouterr()
        assert_domain_error(codes[0], err)
        assert err == (
            f"error: {queries} has a line of more than {MAX_DOCUMENT_BYTES} characters, "
            "the most a line may hold\n"
        )
        assert out == ""
        assert peak < 10**6


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
