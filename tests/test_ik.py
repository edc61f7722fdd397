import dataclasses
import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plc
from plc import (
    Configuration,
    PlcError,
    enumerate_workspace,
    ik,
    kinematics,
    solve_ik,
    workspace,
)
from plc.ik import configuration_distance
from plc.model import InvariantError
from plc.workspace import _HEADER, WorkspaceIndex, configuration_from_rank, reach_accuracy

from _oracles import (
    IkOracle,
    all_configurations,
    ik_choice,
    nearest_by_scan,
    quantize,
    tip_position,
)
from conftest import desc_with, load_arrays


def bucket_of_size(index, minimum):
    sizes = np.diff(index.bucket_offsets)
    candidates = np.flatnonzero(sizes >= minimum)
    assert candidates.size, f"no bucket with >= {minimum} configurations"
    return int(candidates[0])


def redundant_index(members_per_bucket):
    """Single-joint, 10-tooth robot index with hand-chosen redundant buckets,
    each in ascending rank order, at (10 (g + 1), 0, 5), and one more point
    after them holding every rank they leave out."""
    desc = desc_with(segment_count=1)
    buckets = [sorted(bucket) for bucket in members_per_bucket]
    chosen = {rank for bucket in buckets for rank in bucket}
    buckets.append([rank for rank in range(desc.tooth_count) if rank not in chosen])
    points = [[10.0 * (g + 1), 0.0, 5.0] for g in range(len(buckets))]
    offsets = np.cumsum([0] + [len(bucket) for bucket in buckets])
    return load_arrays(desc, points, offsets, [rank for bucket in buckets for rank in bucket])


def member(index, g, k=0):
    """The k-th configuration of point g's bucket (the first by default)."""
    digits = configuration_from_rank(index.bucket_ranks(g)[k], index.desc)
    return Configuration(tuple(digits.tolist()), index.desc.tooth_count)


def assert_walked(solution, desc):
    walked = kinematics.tool_position(desc, solution.config)
    assert solution.achieved_position.tobytes() == walked.tobytes()


@pytest.fixture
def walks(monkeypatch):
    """The arguments of every ``tool_position`` call ``solve_ik`` makes."""
    calls = []

    def counted(*args):
        calls.append(args)
        return kinematics.tool_position(*args)

    monkeypatch.setattr(ik, "tool_position", counted)
    return calls


def test_exact_target_with_unique_preimage(index_n3):
    desc = index_n3.desc
    g = bucket_of_size(index_n3, 1)
    assert len(index_n3.bucket_ranks(g)) == 1
    reference = Configuration((0, 0, 0), 10)
    solution = solve_ik(index_n3, desc, index_n3.points[g], reference)
    expected = configuration_from_rank(int(index_n3.bucket_ranks(g)[0]), desc)
    assert solution.config.indices == tuple(int(v) for v in expected)
    assert solution.position_error < 1e-9
    assert solution.candidate_count == 1


def test_reference_member_selects_itself(index_n5):
    desc = index_n5.desc
    g = bucket_of_size(index_n5, 2)
    digits = configuration_from_rank(index_n5.bucket_ranks(g), desc).tolist()
    configs = [Configuration(tuple(row), desc.tooth_count) for row in digits]
    for reference in configs:
        solution = solve_ik(index_n5, desc, index_n5.points[g], reference)
        assert solution.config == reference
        assert solution.candidate_count == len(configs)
        assert_walked(solution, desc)  # the stored point is the first member's tip only


def test_matches_exhaustive_oracle(index_n3):
    desc = index_n3.desc
    oracle = IkOracle(desc)
    rng = np.random.default_rng(41)
    lo = index_n3.points.min(axis=0)
    hi = index_n3.points.max(axis=0)
    for _ in range(60):
        target = rng.uniform(lo, hi)
        reference = Configuration(tuple(int(v) for v in rng.integers(0, 10, 3)), 10)
        solution = solve_ik(index_n3, desc, target, reference)
        assert solution.config.indices == oracle.solve(target, reference.indices)


def test_solution_error_is_bounded_by_reach_accuracy(index_n3):
    rng = np.random.default_rng(43)
    reference = Configuration((0, 0, 0), 10)
    targets = rng.uniform(-50.0, 80.0, size=(20, 3))
    for target in targets:
        solution = solve_ik(index_n3, index_n3.desc, target, reference)
        assert solution.position_error <= reach_accuracy(index_n3, [target]) + 1e-9


def test_resolving_again_with_answer_is_idempotent(index_n5):
    desc = index_n5.desc
    rng = np.random.default_rng(47)
    for _ in range(10):
        target = rng.uniform(-80.0, 110.0, size=3)
        first = solve_ik(index_n5, desc, target, Configuration((0,) * 5, 10))
        second = solve_ik(index_n5, desc, target, first.config)
        assert second.config == first.config


def assert_achieved_is_the_tool_tip(solution, desc, target):
    assert_walked(solution, desc)
    # bit for bit the error in the order solve_ik states, with no BLAS call
    dx, dy, dz = (solution.achieved_position - np.asarray(target, dtype=float)).tolist()
    assert solution.position_error.hex() == math.sqrt((dx * dx + dz * dz) + dy * dy).hex()


# the reference choice, a seeded pick and the other metric
OPTIONS = [{}, {"seed": 5}, {"metric": "euclidean"}]


def test_achieved_position_matches_error(index_n4_45deg):
    rng = np.random.default_rng(53)
    for tool_offset in [(0.0, 0.0, 0.0), (3.0, -2.0, 15.0)]:
        desc = desc_with(segment_count=3, tool_offset=tool_offset)
        index = enumerate_workspace(desc)
        for target in rng.uniform(-40.0, 60.0, size=(20, 3)):
            for options in OPTIONS:
                solution = solve_ik(index, desc, target, Configuration((0, 0, 0), 10), **options)
                assert_achieved_is_the_tool_tip(solution, desc, target)
    # the redundant robot, with targets as the ik benchmark draws them:
    # stored points jittered by 1 mm, and points 400 mm beyond the reach
    index, desc = index_n4_45deg, index_n4_45deg.desc
    points = index.points[rng.choice(index.point_count, 60, replace=False)]
    directions = rng.normal(size=(20, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    reach = float(np.linalg.norm(index.points, axis=1).max())
    targets = [*(points + rng.normal(0.0, 1.0, points.shape)), *(directions * (reach + 400.0))]
    for target in targets:
        ranks = index.bucket_ranks(index.nearest_point_index(target))
        candidates = configuration_from_rank(ranks, desc).tolist()
        reference = Configuration(tuple(rng.integers(0, 4, 10).tolist()), 4)
        for options in OPTIONS:
            solution = solve_ik(index, desc, target, reference, **options)
            assert_achieved_is_the_tool_tip(solution, desc, target)
            # the Python-int digits of the chosen rank are the array digits
            assert list(solution.config.indices) in candidates
            assert solution.config.indices == ik_choice(ranks, reference.indices, 4, 10, **options)
            assert solution.candidate_count == len(ranks)


def test_only_an_unseeded_multi_member_choice_forms_digit_arrays(index_n4, monkeypatch):
    desc = index_n4.desc
    calls = []

    def counted(*args):
        calls.append(args)
        return configuration_from_rank(*args)

    monkeypatch.setattr(ik, "configuration_from_rank", counted)
    sizes = np.diff(index_n4.bucket_offsets)
    single = int(np.flatnonzero(sizes == 1)[0])
    multi = int(np.flatnonzero(sizes > 1)[0])
    reference = Configuration((0, 0, 0, 0), 10)
    for g, options, expected in [
        (single, {}, 0),
        (single, {"seed": 7}, 0),
        (multi, {"seed": 7}, 0),
        (multi, {}, 1),
        (multi, {"metric": "euclidean"}, 1),
    ]:
        calls.clear()
        solution = solve_ik(index_n4, desc, index_n4.points[g], reference, **options)
        assert len(calls) == expected
        assert_walked(solution, desc)


def test_solve_ik_does_not_walk_chain_pose(index_n3, monkeypatch):
    def refuse(*args):
        raise AssertionError("solve_ik called chain_pose")

    for module in (kinematics, ik):  # also the name solve_ik's module would import
        monkeypatch.setattr(module, "chain_pose", refuse, raising=False)
    target = index_n3.points[7]
    solution = solve_ik(index_n3, index_n3.desc, target, Configuration((0, 0, 0), 10))
    assert solution.position_error < 1e-9


def test_first_member_answers_from_the_stored_point(index_n4, walks):
    desc = index_n4.desc
    sizes = np.diff(index_n4.bucket_offsets)
    singles = np.flatnonzero(sizes == 1).tolist()
    reference = Configuration((0, 0, 0, 0), 10)
    # from the first query on, a bucket's first configuration is the stored point
    for g in singles[:50]:
        solution = solve_ik(index_n4, desc, index_n4.points[g], reference)
        assert solution.achieved_position.tobytes() == index_n4.points[g].tobytes()
        assert solution.achieved_position.flags.writeable  # a copy, not a view
    assert walks == []
    # any other member of a bucket is walked
    g = int(np.flatnonzero(sizes > 1)[0])
    second = member(index_n4, g, 1)
    solution = solve_ik(index_n4, desc, index_n4.points[g], second)
    assert solution.config == second
    assert len(walks) == 1
    assert_walked(solution, desc)


OFFSET_ROBOT = desc_with(segment_count=4, tool_offset=(3.0, -2.0, 15.0))


def test_index_from_another_blas_kernel_has_this_hosts_bytes(tmp_path, walks):
    # the FK makes no BLAS call, so an index built under any OpenBLAS CPU
    # kernel, with FMA or without, holds this host's bytes; before format 3
    # a third of the n=3 points differed between the two kinds of kernel,
    # and an index loaded from such a file walked every answer
    robots = {"n3": desc_with(segment_count=3), "offset": OFFSET_ROBOT}
    build = (
        "import sys; from plc import RobotDescription, enumerate_workspace\n"
        "for name, desc in [\n"
        "    ('n3', RobotDescription(segment_count=3)),\n"
        "    ('offset', RobotDescription(segment_count=4, tool_offset=(3.0, -2.0, 15.0))),\n"
        "]:\n"
        "    enumerate_workspace(desc).save(f'{sys.argv[1]}/{name}.plcw')"
    )
    source = str(Path(plc.__file__).parents[1])
    for name, desc in robots.items():
        enumerate_workspace(desc).save(tmp_path / f"{name}.plcw")
    for kernel in ["Haswell", "SkylakeX", "Nehalem", "Prescott"]:
        out = tmp_path / kernel
        out.mkdir()
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": source}
        subprocess.run([sys.executable, "-c", build, str(out)], env=env, check=True, timeout=120)
        for name in robots:
            built = (out / f"{name}.plcw").read_bytes()
            assert built == (tmp_path / f"{name}.plcw").read_bytes(), (kernel, name)
    # a loaded index answers a bucket's first configuration with its point
    for name, desc in robots.items():
        index = WorkspaceIndex.load(tmp_path / "Nehalem" / f"{name}.plcw", desc)
        for g in np.flatnonzero(np.diff(index.bucket_offsets) == 1)[::20].tolist():
            reference = Configuration((0,) * desc.segment_count, 10)
            solution = solve_ik(index, desc, index.points[g], reference)
            assert solution.achieved_position.tobytes() == index.points[g].tobytes()
    assert walks == []


def test_index_files_keep_their_digests(index_n5, index_n4_45deg, index_offset, tmp_path):
    # the same bytes on every host, whatever its BLAS kernel (CI runs this
    # under three); a change that means to move them updates these digests
    digests = {
        "n5": "bc4ddd38d3c4c7dbb5dcad55118b85b3f230c3a6489bfdcf3cd77e2091b4eb6e",
        "ik": "598459f70ff83efc9c05728e1c9c43afc58342da194709e7c99c627cbd7d89e3",
        "offset": "969b1ce3f31027b7dc0d3c8b9150fe32265f15c88e0434350d94c91b4c04ef78",
    }
    indexes = {"n5": index_n5, "ik": index_n4_45deg, "offset": index_offset}
    for name, index in indexes.items():
        path = tmp_path / f"{name}.plcw"
        index.save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[name], name


def test_format_4_holds_the_values_of_format_3(index_n5, index_n4_45deg, index_offset, tmp_path):
    # format 3 stored the same header and points, and the offsets and
    # members as int64: widened back, a format 4 file has format 3's digest
    format_3_digests = {
        "n5": "4cb1ca7cbfb8d3daef639a905eb1e9f461950f26d3bbb08fb83a812abda75486",
        "ik": "51059f59080a8a99e28f019ca0a173b55f3510759a8387ba9e2c4eaf24364ad9",
        "offset": "7cbed3aa9d5d711e47503efa9b525a65d62dacaeb0242f864de059121a31d129",
    }
    indexes = {"n5": index_n5, "ik": index_n4_45deg, "offset": index_offset}
    for name, index in indexes.items():
        path = tmp_path / f"{name}.plcw"
        index.save(path)
        data = path.read_bytes()
        points_end = _HEADER.size + index.point_count * 24
        offsets = np.frombuffer(data, "<u4", index.point_count + 1, points_end)
        members = np.frombuffer(data, "<u4", offset=points_end + offsets.nbytes)
        assert members.shape[0] == index.configuration_count
        assert data[4:8] == (4).to_bytes(4, "little")
        widened = b"".join(
            [
                data[:4],
                (3).to_bytes(4, "little"),
                data[8:points_end],
                offsets.astype("<i8").tobytes(),
                members.astype("<i8").tobytes(),
            ]
        )
        assert hashlib.sha256(widened).hexdigest() == format_3_digests[name], name


@pytest.mark.parametrize(
    "fixture, sample",
    [
        ("index_n3", None),
        ("index_n4", None),
        ("index_n4_45deg", 2000),
        ("index_offset", None),
        ("index_one_joint_offset", None),
    ],
)
def test_every_stored_point_is_its_first_members_walk(fixture, sample, request):
    # what solve_ik answers from the stored point, at any tool offset
    index = request.getfixturevalue(fixture)
    rows = range(index.point_count)
    if sample is not None:
        rows = np.random.default_rng(67).choice(index.point_count, sample, replace=False).tolist()
    for g in rows:
        walked = kinematics.tool_position(index.desc, member(index, g))
        assert walked.tobytes() == index.points[g].tobytes()


@pytest.mark.parametrize(
    "fixture",
    [
        "index_n2",
        "index_n3",
        "index_n4",
        "index_n5",
        "index_n4_45deg",
        "index_offset",
        "index_one_joint_offset",
    ],
)
def test_the_builds_arrays_pass_the_checks_load_runs(fixture, request):
    # the constructor checks nothing, and solve_ik answers from the stored
    # points, so a build must hold what load checks in a file
    index = request.getfixturevalue(fixture)
    workspace._check_arrays(index.points, index.bucket_offsets, index.bucket_members)
    assert workspace._members_are_ranks(index.bucket_offsets, index.bucket_members)
    assert index.points.dtype == np.float64
    assert index.bucket_offsets.dtype == index.bucket_members.dtype == np.uint32


@pytest.fixture(scope="module")
def index_offset():
    return enumerate_workspace(OFFSET_ROBOT)


@pytest.fixture(scope="module")
def index_one_joint_offset():
    return enumerate_workspace(desc_with(segment_count=1, tool_offset=(0.5, 0.0, -4.0)))


def test_wrapped_metric_measures_actual_rotation():
    # tooth indices 9 and 0 are one step apart on a freely rotating joint
    assert configuration_distance([9], [0], 10, "wrapped") == 1
    assert configuration_distance([9], [0], 10, "euclidean") == 81
    index = redundant_index([[9, 2]])
    desc = index.desc
    reference = Configuration((0,), 10)
    wrapped = solve_ik(index, desc, index.points[0], reference, metric="wrapped")
    assert wrapped.config.indices == (9,)
    euclid = solve_ik(index, desc, index.points[0], reference, metric="euclidean")
    assert euclid.config.indices == (2,)
    with pytest.raises(PlcError, match="metric"):
        solve_ik(index, desc, index.points[0], reference, metric="manhattan")


def test_tie_breaks_lexicographically():
    # both candidates are two steps from the reference; the smaller tuple wins
    index = redundant_index([[3, 7]])
    solution = solve_ik(index, index.desc, index.points[0], Configuration((5,), 10))
    assert solution.config.indices == (3,)


def test_seeded_choice_ignores_reference():
    index = redundant_index([[1, 4, 8]])
    reference = Configuration((0,), 10)
    picks = {
        solve_ik(index, index.desc, index.points[0], reference, seed=s).config.indices[0]
        for s in range(12)
    }
    assert picks <= {1, 4, 8}
    assert len(picks) > 1  # genuinely random across seeds
    again = solve_ik(index, index.desc, index.points[0], reference, seed=3)
    assert again.config == solve_ik(index, index.desc, index.points[0], reference, seed=3).config


def test_seed_must_be_a_non_negative_integer():
    index = redundant_index([[1, 4, 8]])
    reference = Configuration((0,), 10)
    for seed in (-1, True, 2.0, "3", np.int64(-1)):
        with pytest.raises(PlcError, match="seed must be a non-negative integer"):
            solve_ik(index, index.desc, index.points[0], reference, seed=seed)
    numpy_seed = solve_ik(index, index.desc, index.points[0], reference, seed=np.int64(3))
    assert numpy_seed.config == solve_ik(index, index.desc, index.points[0], reference, seed=3).config


def test_description_mismatch_is_rejected(index_n3):
    other = desc_with(segment_count=3, curve_length=29.0)
    with pytest.raises(InvariantError, match="different robot"):
        solve_ik(index_n3, other, [0.0, 0.0, 0.0], Configuration((0, 0, 0), 10))
    # an equal description that is another object matches
    copy = dataclasses.replace(index_n3.desc)
    assert copy is not index_n3.desc
    solution = solve_ik(index_n3, copy, index_n3.points[0], Configuration((0, 0, 0), 10))
    assert solution.position_error == 0.0


def test_tool_offset_targets_reach_their_own_tip(walks):
    desc = desc_with(segment_count=3, tool_offset=(0.0, 0.0, 15.0))
    index = enumerate_workspace(desc)
    for indices in all_configurations(desc):
        config = Configuration(indices, desc.tooth_count)
        target = tip_position(desc, indices)
        for options in OPTIONS:
            walks.clear()
            solution = solve_ik(index, desc, target, config, **options)
            assert solution.position_error <= 1e-9
            assert_achieved_is_the_tool_tip(solution, desc, target)
            if "seed" not in options:
                assert solution.config == config
            # n=3 buckets hold one member: every answer is the stored point
            assert walks == []


def test_errors_keep_their_digest(index_n4_45deg):
    # 600 seeded queries on the redundant robot: stored points, stored points
    # jittered by 1 mm and points in a box around the workspace.  Their
    # errors have the same bits under every BLAS kernel (CI runs this under
    # three); sqrt(d.dot(d)) differed from them in 52 (SkylakeX) and 42
    # (Nehalem) of these rows.  Where the answer is the stored point, the
    # error is reach_accuracy's distance for the target, bit for bit
    index, desc = index_n4_45deg, index_n4_45deg.desc
    rng = np.random.default_rng(71)
    points = index.points[rng.choice(index.point_count, 400, replace=False)]
    jittered = points[200:] + rng.normal(0.0, 1.0, (200, 3))
    targets = [*points[:200], *jittered, *rng.uniform(-150.0, 150.0, (200, 3))]
    errors, stored = [], 0
    for target in targets:
        reference = Configuration(tuple(rng.integers(0, 4, 10).tolist()), 4)
        solution = solve_ik(index, desc, target, reference)
        errors.append(solution.position_error.hex())
        nearest = index.points[index.nearest_point_index(target)]
        if solution.achieved_position.tobytes() == nearest.tobytes():
            stored += 1
            assert solution.position_error == reach_accuracy(index, target)
    assert stored == 513
    digest = hashlib.sha256("\n".join(errors).encode()).hexdigest()
    assert digest == "9e86bdc8efc0ff30a18456243e65bf54a09757d9f51dbb981d0e4da7dc733cd6"


@pytest.fixture(scope="module")
def index_n4_45deg():
    # the redundant N=4, n=10, 45 deg robot: 573,339 points, largest bucket 100
    return enumerate_workspace(
        desc_with(tooth_count=4, segment_count=10, bend_angle=math.radians(45.0))
    )


def choice_targets(index, rng):
    """Stored points of the largest bucket and of random one-member and
    multi-member buckets (n=3 has only one-member buckets), and the midpoint
    of the closest pair of points: a near-tie that takes the tree's exact
    tie-break."""
    sizes = np.diff(index.bucket_offsets)
    chosen = [int(np.argmax(sizes))]
    for group in (np.flatnonzero(sizes == 1), np.flatnonzero(sizes > 1)):
        if group.size:
            chosen += rng.choice(group, 6).tolist()
    targets = [index.points[g] for g in chosen]
    dist, pair = index.tree.query(index.points, k=2)
    first = int(np.argmin(dist[:, 1]))
    a, b = index.points[first], index.points[pair[first, 1]]
    midpoint = (a + b) / 2.0
    assert abs(np.linalg.norm(midpoint - a) - np.linalg.norm(midpoint - b)) <= 1e-9
    return targets + [midpoint]


@pytest.mark.parametrize("fixture", ["index_n3", "index_n4", "index_n4_45deg"])
def test_choice_matches_the_choice_oracle(fixture, request):
    index = request.getfixturevalue(fixture)
    desc = index.desc
    teeth, n = desc.tooth_count, desc.segment_count
    rng = np.random.default_rng(59)
    keys = quantize(index.points)
    for target in choice_targets(index, rng):
        g = nearest_by_scan(index.points, keys, target)
        ranks = index.bucket_ranks(g).tolist()
        for _ in range(3):
            reference = tuple(int(v) for v in rng.integers(0, teeth, n))
            for metric in ("wrapped", "euclidean"):
                for seed in (None, 0, 7):
                    solution = solve_ik(
                        index, desc, target, Configuration(reference, teeth), metric, seed
                    )
                    expected = ik_choice(ranks, reference, teeth, n, metric, seed)
                    assert solution.config.indices == expected
                    assert solution.candidate_count == len(ranks)
