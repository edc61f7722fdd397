import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from plc import Configuration, RobotDescription, chain_pose, tool_position
from plc.cli import main
from plc import kinematics, stiffness
from plc.kinematics import (
    _rotate,
    _stepped,
    _translate,
    _unit_row,
    _unit_rows,
    tip_positions,
)
from plc.model import InvariantError, RigidTransform, index_angle
from plc.workspace import configuration_from_rank

from _oracles import fk_matrix, fk_position
from conftest import desc_with, traced_peak


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


# direct evaluation of the arc formula with L=30mm, beta=30deg
SAG_AT_30DEG = 7.676178925121034
RISE_AT_30DEG = 28.64788975654116


def unit_row(desc, k: int) -> RigidTransform:
    """Transform across one unit at tooth index ``k``: ``_unit_row`` of k."""
    rotation, translation, _ = _unit_row(desc, k)
    return RigidTransform(np.array(rotation).reshape(3, 3), np.array(translation))


def test_segment_translation_at_zero():
    desc = RobotDescription()
    pose = unit_row(desc, 0)
    radius = desc.curve_length / desc.bend_angle
    expected = np.array(
        [radius * (1.0 - math.cos(desc.bend_angle)), 0.0, radius * math.sin(desc.bend_angle)]
    )
    assert np.allclose(pose.translation, expected, rtol=1e-15, atol=0.0)
    assert pose.translation == pytest.approx([SAG_AT_30DEG, 0.0, RISE_AT_30DEG], abs=1e-9)


def test_segment_rotation_at_zero_is_pure_pitch():
    desc = RobotDescription()
    pose = unit_row(desc, 0)
    assert np.array_equal(pose.rotation, rot_y(desc.bend_angle))


def test_segment_translation_at_half_turn():
    desc = RobotDescription()
    pose = unit_row(desc, 5)
    assert pose.translation[0] == pytest.approx(-SAG_AT_30DEG, abs=1e-9)
    assert pose.translation[1] == pytest.approx(0.0, abs=1e-12)
    assert pose.translation[2] == pytest.approx(RISE_AT_30DEG, abs=1e-9)


def test_single_segment_chain_equals_unit_table_row():
    desc = desc_with(segment_count=1)
    end, axes = chain_pose(desc, Configuration((3,), 10))
    direct = unit_row(desc, 3)
    assert np.array_equal(end.rotation, direct.rotation)
    assert np.array_equal(end.translation, direct.translation)
    assert axes.shape == (1, 3)


def test_all_zero_chain_stays_in_xz_plane():
    for k in range(1, 6):
        end, _ = chain_pose(desc_with(segment_count=k), Configuration((0,) * k, 10))
        assert end.translation[1] == 0.0


def test_intermediate_transforms_compose_to_end_pose():
    desc = RobotDescription()
    config = Configuration((2, 9, 0, 5, 7), 10)
    end, _ = chain_pose(desc, config)
    rotation, translation = np.eye(3), np.zeros(3)
    for k in config.indices:
        unit = unit_row(desc, k)
        rotation, translation = rotation @ unit.rotation, rotation @ unit.translation + translation
    assert np.allclose(translation, end.translation, atol=1e-10)
    assert np.allclose(rotation, end.rotation, atol=1e-10)


def test_chain_matches_homogeneous_oracle():
    desc = desc_with(segment_count=4)
    rng = np.random.default_rng(7)
    for _ in range(25):
        indices = tuple(int(v) for v in rng.integers(0, 10, 4))
        end, _ = chain_pose(desc, Configuration(indices, 10))
        expected = fk_matrix(desc, indices)
        assert np.allclose(end.translation, expected[:3, 3], atol=1e-12)
        assert np.allclose(end.rotation, expected[:3, :3], atol=1e-12)


def test_segment_axes_match_cumulative_frames():
    desc = desc_with(segment_count=4)
    indices = (1, 4, 8, 2)
    axes = chain_pose(desc, Configuration(indices, 10))[1]
    assert np.array_equal(axes[0], [0.0, 0.0, 1.0])
    for i in range(1, 4):
        prefix = fk_matrix(desc, indices[:i])
        assert np.allclose(axes[i], prefix[:3, 2], atol=1e-12)
        assert np.linalg.norm(axes[i]) == pytest.approx(1.0, abs=1e-12)


def test_tool_tip():
    desc = RobotDescription()
    end, _ = chain_pose(desc, Configuration((1, 2, 3, 4, 5), 10))
    assert np.array_equal(end.transform_point((0.0, 0.0, 0.0)), end.translation)
    identity = RigidTransform(np.eye(3), np.zeros(3))
    assert np.allclose(identity.transform_point((1.0, 2.0, 3.0)), [1.0, 2.0, 3.0])
    turned = RigidTransform(rot_z(math.pi / 2.0), np.array([10.0, 0.0, 0.0]))
    assert np.allclose(turned.transform_point((1.0, 0.0, 0.0)), [10.0, 1.0, 0.0], atol=1e-12)


def test_end_position_within_arc_length_bound():
    rng = np.random.default_rng(11)
    for n in range(1, 9):
        desc = desc_with(segment_count=n)
        for _ in range(25):
            indices = tuple(int(v) for v in rng.integers(0, 10, n))
            end, _ = chain_pose(desc, Configuration(indices, 10))
            assert np.linalg.norm(end.translation) <= n * desc.curve_length + 1e-9


def test_base_joint_shift_rotates_end_position():
    desc = RobotDescription()
    rng = np.random.default_rng(3)
    for _ in range(20):
        indices = [int(v) for v in rng.integers(0, 10, 5)]
        shift = int(rng.integers(1, 10))
        end, _ = chain_pose(desc, Configuration(tuple(indices), 10))
        shifted = list(indices)
        shifted[0] = (shifted[0] + shift) % 10
        end_shifted, _ = chain_pose(desc, Configuration(tuple(shifted), 10))
        wrapped = (indices[0] + shift) % 10 - indices[0]
        rotation = rot_z(float(index_angle(wrapped, 10)))
        assert np.allclose(end_shifted.translation, rotation @ end.translation, atol=1e-9)


def test_rotation_stays_orthonormal_after_100_segments():
    desc = desc_with(segment_count=100)
    rng = np.random.default_rng(42)
    indices = tuple(int(v) for v in rng.integers(0, 10, 100))
    end, _ = chain_pose(desc, Configuration(indices, 10))
    drift = np.abs(end.rotation.T @ end.rotation - np.eye(3)).max()
    assert drift < 1e-10


@pytest.mark.parametrize(
    "overrides",
    [
        dict(tooth_count=3, segment_count=2),
        dict(),  # the reference robot, N=10
        dict(tooth_count=4, segment_count=10, bend_angle=math.radians(45.0)),
        dict(tooth_count=7, segment_count=4, tool_offset=(3.0, -2.0, 15.0)),
        dict(tooth_count=12, segment_count=7, bend_angle=math.radians(45.0)),
        dict(tooth_count=360, segment_count=1, tool_offset=(0.5, 0.0, -4.0)),
        dict(tooth_count=997, segment_count=2, bend_angle=math.radians(12.5)),
        dict(tooth_count=1000, segment_count=3, tool_offset=(1.0, 2.0, 3.0), curve_length=31.25),
    ],
)
def test_float_rows_equal_the_unit_table_bitwise(overrides):
    # the single-pose walk reads rows of an int index in Python floats and
    # the enumeration the columns of an index array: every rotation entry,
    # translation component and tip vector component has the same bits
    # (CI also runs this under other BLAS kernels)
    desc = desc_with(**overrides)
    columns = _unit_row(desc, np.arange(desc.tooth_count)[:, None])
    rotation, translation, tips = (np.concatenate(np.broadcast_arrays(*c), axis=1) for c in columns)
    rows = [_unit_row(desc, k) for k in range(desc.tooth_count)]
    assert all(type(v) is float for row in rows for part in row for v in part)
    assert np.array([r for r, _, _ in rows]).tobytes() == rotation.tobytes()
    assert np.array([t for _, t, _ in rows]).tobytes() == translation.tobytes()
    assert np.array([tip for _, _, tip in rows]).tobytes() == tips.tobytes()


def test_walks_take_only_the_steps_their_callers_read(monkeypatch):
    # n - 2 steps to the pose before the last joint, then one step for the
    # end pose, one position for the tip, or rotations alone for the axes;
    # the compliance walks on its memo's first call at a pose, and takes no
    # step on a second
    desc = RobotDescription()
    config = Configuration((1, 7, 3, 0, 5), 10)
    kinematics._walk(desc, config, tip=True)  # fills the row cache first
    stiffness._firmed_compliance.cache_clear()
    calls = []

    def counted(name, product):
        def call(*args):
            calls.append(name)
            return product(*args)

        return call

    monkeypatch.setattr(kinematics, "_rotate", counted("rotate", _rotate))
    monkeypatch.setattr(kinematics, "_translate", counted("translate", _translate))
    for call, rotations, translations in [
        (lambda: chain_pose(desc, config), 4, 4),
        (lambda: tool_position(desc, config), 3, 4),
        (lambda: stiffness.firmed_compliance(desc, config), 3, 0),
        (lambda: stiffness.firmed_compliance(desc, config), 0, 0),
        (lambda: main(["fk", "--config", "1,7,3,0,5"]), 4, 5),
    ]:
        calls.clear()
        call()
        assert (calls.count("rotate"), calls.count("translate")) == (rotations, translations)
        assert len(calls) == rotations + translations


def test_fk_at_the_tooth_bound_builds_no_per_tooth_table(capsys, tmp_path, monkeypatch):
    # a single pose reads the rows of its own indices: no index-array call,
    # and under 1 MB of traced memory (87 kB, mostly the argument parser and
    # the YAML reader, with Python 3.11), where the per-tooth tables took
    # 912 MB
    robot = tmp_path / "robot.yaml"
    robot.write_text("tooth_count: 1000000\n")
    argv = ["fk", "--robot", str(robot), "--config", "1,2,3,4,5"]
    assert main(argv) == 0  # loads PyYAML and the modules
    capsys.readouterr()
    rows = mock.Mock(wraps=_unit_row)
    monkeypatch.setattr(kinematics, "_unit_row", rows)
    assert traced_peak(lambda: main(argv)) < 2**20
    assert all(type(c.args[1]) is int for c in rows.call_args_list)
    assert _unit_rows(desc_with(tooth_count=10**6)).cache_info().currsize == 5
    assert capsys.readouterr().out.splitlines()[0].startswith("x_mm,")


def test_row_caches_keep_a_bounded_number_of_descriptions():
    # a library process that walks many large-N descriptions keeps the rows
    # of the last _CACHED_DESCRIPTIONS only, each at most _CACHED_ROWS rows
    # of about 0.76 kB: twice as many descriptions hold no more memory
    bound = kinematics._CACHED_DESCRIPTIONS
    _unit_rows.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(2 * bound):
            rows = _unit_rows(desc_with(tooth_count=10**6 - i))
            for k in range(kinematics._CACHED_ROWS + 1):
                rows(k)
            assert rows.cache_info().currsize == kinematics._CACHED_ROWS
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert _unit_rows.cache_info().currsize == bound
    assert held <= bound * kinematics._CACHED_ROWS * 1000


# poses per block in the stack tests, whatever the tooth count
ROWS = 4096


def as_poses(rotation, position):
    """Poses (12, P) as ``_stepped`` reads them: the nine rotation entries
    row-major, then the position, a row each."""
    return np.concatenate([rotation.reshape(-1, 9), position], axis=1).T


def as_columns(rows):
    """Unit columns (N, 1) of table rows (N, c), one per entry."""
    return tuple(rows.reshape(len(rows), -1).T[:, :, None])


def float_positions(rotation, position, translation):
    """p + R t of every pose and table row in Python floats, one
    ``_translate`` per pair, pose-major as ``_stepped`` returns them."""
    teeth = translation.tolist()
    rows = [
        _translate(r, p, t)
        for r, p in zip(rotation.reshape(-1, 9).tolist(), position.tolist())
        for t in teeth
    ]
    return np.array(rows).reshape(-1, 3)


def column_positions(rotation, position, translation):
    """p + R t of every pose and table row by the enumeration's columns."""
    return _stepped(as_poses(rotation, position), None, as_columns(translation))


def float_poses(rotation, position, unit_rotation, translation):
    """(R R_k, p + R t_k) of every pose and table row in Python floats, one
    ``_rotate`` and one ``_translate`` per pair, pose-major as rows of 12."""
    units = list(zip(unit_rotation.reshape(-1, 9).tolist(), translation.tolist()))
    rows = [
        _rotate(r, b) + _translate(r, p, t)
        for r, p in zip(rotation.reshape(-1, 9).tolist(), position.tolist())
        for b, t in units
    ]
    return np.array(rows).reshape(-1, 12)


def tip_by_step(rows, digits):
    """Tool tip of one configuration walked one pose at a time in Python
    floats from the int-index rows ``rows`` of ``_unit_row``, in
    ``tip_positions``' order: the prefix joints, then the last joint's tip
    vector t_k + R_k tool_offset."""
    *head, last = digits
    tip = rows[last][2]
    if not head:
        return np.array(tip)
    rotation, position, _ = rows[head[0]]
    for k in head[1:]:
        r, t, _ = rows[k]
        rotation, position = _rotate(rotation, r), _translate(rotation, position, t)
    return np.array(_translate(rotation, position, tip))


@pytest.mark.parametrize("poses", [1, 2, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
@pytest.mark.parametrize("teeth", [1, 4, 7])
def test_positions_match_step_bitwise_on_random_stacks(poses, teeth, monkeypatch):
    monkeypatch.setattr(kinematics, "_BLOCK", ROWS * teeth)
    rng = np.random.default_rng(poses * 10 + teeth)
    rotation = rng.normal(size=(poses, 3, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(poses, 3, 3))
    position = rng.normal(size=(poses, 3)) * 100.0
    translation = rng.normal(size=(teeth, 3)) * 30.0
    expected = float_positions(rotation, position, translation)
    assert column_positions(rotation, position, translation).tobytes() == expected.tobytes()


@pytest.mark.parametrize("poses", [1, 2, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
@pytest.mark.parametrize("teeth", [1, 4, 7])
def test_rotations_match_step_bitwise_on_random_stacks(poses, teeth, monkeypatch):
    monkeypatch.setattr(kinematics, "_BLOCK", ROWS * teeth)
    rng = np.random.default_rng(poses * 10 + teeth + 1)
    scales = [1e-3, 1.0, 1e3]
    rotation = rng.normal(size=(poses, 3, 3)) * rng.choice(scales, size=(poses, 3, 3))
    position = rng.normal(size=(poses, 3)) * 100.0
    unit_rotation = rng.normal(size=(teeth, 3, 3)) * rng.choice(scales, size=(teeth, 3, 3))
    translation = rng.normal(size=(teeth, 3)) * 30.0
    expected = float_poses(rotation, position, unit_rotation, translation)
    got = _stepped(as_poses(rotation, position), as_columns(unit_rotation), as_columns(translation))
    assert got.shape == (12, poses * teeth)
    assert got.T.tobytes() == expected.tobytes()


def test_rotation_entries_sum_in_the_stated_order():
    # entry (i, j) is (a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j: with a all ones
    # and every column of b (1e16, 1, -1e16), (1e16 + 1) - 1e16 is 0.0 where
    # summing the outer terms first keeps the 1; with (1, 1e16, -1e16),
    # (1 + 1e16) - 1e16 is 0.0 where summing the last two terms first keeps it
    a = np.ones((1, 3, 3))
    origin = np.zeros((1, 3))
    for column in [(1e16, 1.0, -1e16), (1.0, 1e16, -1e16)]:
        b = np.repeat(np.array(column)[None, :, None], 3, axis=2)
        entries = _stepped(as_poses(a, origin), as_columns(b), as_columns(origin))[:9, 0]
        assert entries.tolist() == [0.0] * 9
        assert _rotate(a.ravel().tolist(), b.ravel().tolist()) == (0.0,) * 9


def test_position_components_sum_in_the_stated_order():
    # component i is p_i + (((a_i0 t0 + a_i2 t2) + a_i1 t1) + 0.0): with t all
    # ones and every row of a (1e16, 1, -1e16), (1e16 - 1e16) + 1 is 1.0
    # where the order of the terms gives 0.0; with (1, -1e16, 1e16),
    # (1 + 1e16) - 1e16 is 0.0 where summing the last two terms first keeps
    # the 1
    ones, origin = np.ones((1, 3)), np.zeros((1, 3))
    for row, expected in [((1e16, 1.0, -1e16), 1.0), ((1.0, -1e16, 1e16), 0.0)]:
        a = np.repeat(np.array(row)[None, None, :], 3, axis=1)
        assert column_positions(a, origin, ones).tolist() == [[expected] * 3]
        assert _translate(a.ravel().tolist(), (0.0,) * 3, (1.0,) * 3) == (expected,) * 3


def test_positions_turn_an_all_negative_zero_sum_into_positive_zero():
    # in the first pose against the first row, each component's three
    # products are -0.0 and so is the base: both evaluations add +0.0 to the
    # products' sum before the base (einsum's +0.0 start), so p + R t is +0.0
    # where a plain sum would give -0.0
    rotation = np.array([[[-1.0, -2.0, 3.0], [-1.0, -2.0, 3.0], [-1.0, -2.0, 3.0]]] * 3)
    position = np.array([[-0.0, -0.0, -0.0], [-0.0, 1.0, -0.0], [5.0, -0.0, -0.0]])
    translation = np.array([[0.0, 0.0, -0.0], [-0.0, -0.0, 0.0], [0.0, 2.0, 0.0]])
    got = column_positions(rotation, position, translation)
    assert got.tobytes() == float_positions(rotation, position, translation).tobytes()
    assert not np.signbit(got[0]).any()  # -0.0 + (-0.0) would keep the sign


@pytest.mark.parametrize(
    "overrides",
    [
        dict(tooth_count=2, segment_count=6),  # a description has N >= 2; N=1 is a stack above
        dict(tooth_count=997, segment_count=2),
        dict(tooth_count=7, segment_count=4, tool_offset=(3.0, -2.0, 15.0)),
        dict(tooth_count=4, segment_count=8, bend_angle=math.radians(45.0)),
        dict(segment_count=1, tool_offset=(0.5, 0.0, -4.0)),
    ],
)
def test_tip_positions_match_the_step_walk_bitwise(overrides):
    # every configuration up to 10**5 of them, else the first, the last and
    # a seeded sample of 2,000
    desc = desc_with(**overrides)
    count = desc.raw_configuration_count
    ranks = np.arange(count)
    if count > 10**5:
        sample = np.random.default_rng(count).choice(count - 2, 2000, replace=False) + 1
        ranks = np.concatenate(([0], np.sort(sample), [count - 1]))
    rows = [_unit_row(desc, k) for k in range(desc.tooth_count)]
    walked = [tip_by_step(rows, digits) for digits in configuration_from_rank(ranks, desc).tolist()]
    assert tip_positions(desc)[ranks].tobytes() == np.array(walked).tobytes()


def test_tip_positions_peak_memory_is_bounded():
    # 24 B of tips and 24 B of the last prefix level per configuration, plus
    # one block's columns and the 4-tooth unit columns; unblocked, the last
    # level's working columns of 8 B per configuration would add 40 B
    desc = desc_with(tooth_count=4, segment_count=9, bend_angle=math.radians(45.0))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        tip_positions(desc)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 56 * 4**9


@pytest.mark.parametrize("fk", [chain_pose, tool_position])
def test_configuration_must_fit_the_robot(fk):
    desc = desc_with(segment_count=3)
    with pytest.raises(InvariantError, match="2 joints, robot has 3"):
        fk(desc, Configuration((1, 2), 10))
    with pytest.raises(InvariantError, match="tooth count 12 != robot tooth count 10"):
        fk(desc, Configuration((1, 2, 11), 12))


FK_DIGESTS = {
    ("default", "0,0,0,0,0"): "25e53dd892640bd9a4822d771ddc6c14e5620e8010705d21ae9aa90ccfb2af85",
    ("default", "9,9,9,9,9"): "650ccebda9f369b631282bbe93549020954a84a288cc2b62c1ebb24a2371e53e",
    ("default", "1,7,3,0,5"): "52279df80b662490b324850f5ecaea5b4ce42bf1deb2f345b1969d6ff2210404",
    ("default", "2,9,0,5,7"): "cc7719544530bc90a59acee803b8893d7e4e0cefb14ba371c612c0ba1cc79a84",
    ("default", "5,0,5,0,5"): "c3e4178d45624940875b933124d755964693208355b9f9999febd842f28666d1",
    ("default", "3,1,4,1,5"): "5150bab20bbc6a554511424d556cc0a6005f6ad54b2cc1dd9c9a8bfd827047d2",
    ("ik", "0,0,0,0,0,0,0,0,0,0"): "2564264ea8205eb5b16765cf039762f624d9c73604ff64d842e2216e118b18df",
    ("ik", "3,3,3,3,3,3,3,3,3,3"): "a10e97b24552f5674d70a09fca8e23354365074c882ede463c8e3c1c36024590",
    ("ik", "0,1,2,3,0,1,2,3,0,1"): "8c6f120b6b32439e6376e3343916524ac70d809d850c1e6233e6724be52e6b9c",
    ("ik", "1,3,0,2,2,0,3,1,1,2"): "7bd12ee98ab8a3b27e6c435ad05ae0af7f15a568d9cf991df36f87093cbfc12c",
    ("ik", "2,0,0,0,0,0,0,0,0,3"): "f8255530d367c912cf779690b7f0e9e55b661656f9d5727355cf49d07c7f2d17",
    ("ik", "3,2,1,0,3,2,1,0,3,2"): "e5b5e8d0777a8cc480f24d50b3d9b5ce20ee716a6f70b43301f062f15eace376",
    ("offset", "0,0,0,0"): "58dfb61f23c0906fcccdcc36688429bd001748df5dd3e8154f9faa493338a65d",
    ("offset", "9,9,9,9"): "1104e82f5e84eebaeed1040f17ebcadc6c5a709fa8b18aacb5acbaf991efbef6",
    ("offset", "1,7,3,0"): "8d8c2e34ff51705ac722c6ea530fac2829753cefa0f42d50eee0bd23e7dc9286",
    ("offset", "5,5,0,2"): "8a754935fc3407c05ba154b89f0e57aa2f6a3745caff56f08d35083aa3d1ce67",
    ("offset", "8,1,6,4"): "826df781dcdee9aaf4f3914bd79df1fa1026ec608617e6dddb86037814359957",
    ("offset", "0,0,0,9"): "0c83768cc4a6ac2878b2b2f40730910d27245397d76c4bef81c48456ed2b2ff9",
}


def test_fk_outputs_keep_their_digests(capsys, tmp_path):
    # the end pose and the tool tip as `plc fk` prints them, the same on every
    # host (CI also runs this under a non-FMA BLAS kernel); a change that
    # means to move them updates these digests
    robots = {
        "default": "default",
        "ik": tmp_path / "ik.yaml",
        "offset": tmp_path / "offset.yaml",
    }
    robots["ik"].write_text("segment_count: 10\ntooth_count: 4\nbend_angle: 45\n")
    robots["offset"].write_text("segment_count: 4\ntool_offset: [3, -2, 15]\n")
    digests = {}
    for robot, config in FK_DIGESTS:
        assert main(["fk", "--robot", str(robots[robot]), "--config", config]) == 0
        digests[robot, config] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == FK_DIGESTS
