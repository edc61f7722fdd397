import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from plc import WorkspaceIndex, parse_robot_description, workspace
from plc.cli import main
from plc.workspace import _HEADER, BYTES_PER_CONFIGURATION

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
    # 10**12 configurations need about 100 TB, more than any host's memory
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
    needed = 10**7 * BYTES_PER_CONFIGURATION
    limit = needed * 3 // 4
    proc = subprocess.run(
        [sys.executable, "-m", "plc.cli", "workspace", "build", "--robot", path],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert_domain_error(proc.returncode, proc.stderr)
    assert f"count 10000000 needs about {needed / 1e9:.3g} GB" in proc.stderr



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
    # the limit leaves half of what six segments need
    left = 10**6 * BYTES_PER_CONFIGURATION // 2
    limit, usage = tmp_path / "memory.max", tmp_path / "memory.current"
    limit.write_text("300000000\n")
    usage.write_text(f"{300000000 - left}\n")
    monkeypatch.setattr(workspace, "CGROUP_MEMORY_FILES", ((str(limit), str(usage)),))
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


def test_targets_too_far_to_measure_exit_2(capsys, tmp_path):
    # finite, but the squared distance overflows: refused, not a traceback or "inf"
    robot = robot_file(tmp_path)
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    queries = tmp_path / "queries.csv"
    queries.write_text("x,y,z\n0,0,0\n1e200,0,0\n")
    for argv in (
        ["ik", "--target=1e200,0,0"],
        ["workspace", "accuracy", "--queries", str(queries)],
    ):
        code, out, err = run(capsys, *argv, "--robot", robot, "--index", str(index_path))
        assert_domain_error(code, err)
        assert out == ""


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


def _as_version_1(path):
    # version 1 stored flange positions under the same digest
    data = path.read_bytes()
    assert data[4:8] == (2).to_bytes(4, "little")
    path.write_bytes(data[:4] + (1).to_bytes(4, "little") + data[8:])


def test_version_1_index_is_refused(capsys, tmp_path):
    robot = robot_file(tmp_path)
    index_path = tmp_path / "ws.plcw"
    run(capsys, "workspace", "build", "--robot", robot, "--out", str(index_path))
    _as_version_1(index_path)
    code, out, err = run(
        capsys, "ik", "--robot", robot, "--index", str(index_path), "--target", "1,2,3"
    )
    assert_domain_error(code, err)
    assert "version 1 unsupported" in err
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


def test_version_1_cache_entry_is_rebuilt(capsys, tmp_path):
    robot = robot_file(tmp_path)
    run(capsys, "workspace", "build", "--robot", robot)
    (cache,) = (tmp_path / "cache").iterdir()
    fresh = cache.read_bytes()
    _as_version_1(cache)
    code, out, _ = run(capsys, "workspace", "omnivariance", "--robot", robot)
    assert code == 0
    assert float(out.strip()) > 0.0
    assert cache.read_bytes() == fresh
