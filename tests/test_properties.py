"""Property tests over small random robots: FK against the homogeneous
oracle, the scalar chain walk against the batched enumeration bit for bit,
every enumerated tool tip inside its bucket's key cell, and the same nearest
point from the exact scan and from the k-d tree."""
import dataclasses
import math
from unittest import mock

import numpy as np
from hypothesis import example, given, settings, strategies as st

from plc import (
    Configuration,
    chain_pose,
    enumerate_workspace,
    tool_position,
)
from plc import kinematics
from plc.kinematics import _stepped, _unit_row, tip_positions
from plc.workspace import KEY_CELL, WorkspaceIndex, configuration_from_rank

from _oracles import all_tips, fk_matrix, quantize
from conftest import desc_with

offsets = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


def robots_with(tool_offsets):
    return st.builds(
        lambda teeth, segments, degrees, offset: desc_with(
            tooth_count=teeth,
            segment_count=segments,
            bend_angle=math.radians(degrees),
            tool_offset=offset,
        ),
        st.integers(min_value=2, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=1.0, max_value=89.0),
        tool_offsets,
    )


robots = robots_with(st.tuples(offsets, offsets, offsets))
# at zero offset the tool tip is the flange, the end translation of chain_pose
flange_robots = robots_with(st.just((0.0, 0.0, 0.0)))

checked = settings(derandomize=True, deadline=None, max_examples=100)


@checked
@given(robots, st.data())
def test_chain_pose_matches_oracle(desc, data):
    indices = data.draw(
        st.tuples(*[st.integers(0, desc.tooth_count - 1)] * desc.segment_count)
    )
    end, _ = chain_pose(desc, Configuration(indices, desc.tooth_count))
    expected = fk_matrix(desc, indices)
    assert np.allclose(end.translation, expected[:3, 3], rtol=0.0, atol=1e-9)
    assert np.allclose(end.rotation, expected[:3, :3], rtol=0.0, atol=1e-9)


def assert_chain_pose_reproduces_tips(desc, ranks):
    tips = tip_positions(desc)
    for rank, digits in zip(ranks, configuration_from_rank(ranks, desc)):
        end, _ = chain_pose(desc, Configuration(tuple(digits.tolist()), desc.tooth_count))
        assert end.translation.tobytes() == tips[rank].tobytes()


@checked
@given(flange_robots, st.data())
def test_chain_pose_reproduces_tip_positions_bitwise(desc, data):
    # the scalar walk and the batched enumeration share one step
    ranks = data.draw(
        st.lists(st.integers(0, desc.raw_configuration_count - 1), min_size=1, max_size=20)
    )
    assert_chain_pose_reproduces_tips(desc, np.array(ranks))


def test_chain_pose_reproduces_tip_positions_bitwise_ten_joints():
    desc = desc_with(tooth_count=4, segment_count=10, bend_angle=math.radians(45.0))
    ranks = np.random.default_rng(10).integers(desc.raw_configuration_count, size=300)
    assert_chain_pose_reproduces_tips(desc, ranks)


@checked
@given(robots)
def test_prefix_poses_match_chain_pose_of_the_prefix_bitwise(desc):
    # every level of tip_positions' loop: the poses each step reads, and the
    # full poses of the last level, which tip_positions forms as tips only
    levels = []

    def recorded(poses, rotation, translation):
        levels.append(poses)
        return _stepped(poses, rotation, translation)

    with mock.patch.object(kinematics, "_stepped", recorded):
        tip_positions(desc)
    rotation, translation, _ = _unit_row(desc, np.arange(desc.tooth_count)[:, None])
    if levels:
        levels.append(_stepped(levels[-1], rotation, translation))
    else:
        levels.append(np.concatenate(np.broadcast_arrays(*rotation, *translation), axis=1).T)
    assert len(levels) == desc.segment_count
    for count, poses in enumerate(levels, 1):
        prefix = dataclasses.replace(desc, segment_count=count)
        assert poses.shape == (12, prefix.raw_configuration_count)
        for rank, digits in enumerate(configuration_from_rank(np.arange(poses.shape[1]), prefix)):
            end, _ = chain_pose(prefix, Configuration(tuple(digits.tolist()), desc.tooth_count))
            assert end.rotation.tobytes() == poses[:9, rank].tobytes()
            assert end.translation.tobytes() == poses[9:, rank].tobytes()


@checked
@given(robots, st.data())
def test_tool_position_matches_tool_tip_of_chain_pose_bitwise(desc, data):
    configs = data.draw(
        st.lists(
            st.tuples(*[st.integers(0, desc.tooth_count - 1)] * desc.segment_count),
            min_size=1,
            max_size=10,
        )
    )
    # the tool tip is the stored form p + R (t_k + R_k o): at any offset it
    # is the enumeration's row bit for bit, and the end pose applied to the
    # offset to rounding
    tips = tip_positions(desc)
    for indices in configs:
        config = Configuration(indices, desc.tooth_count)
        rank = int(np.ravel_multi_index(indices, (desc.tooth_count,) * desc.segment_count))
        tip = tool_position(desc, config)
        assert tip.tobytes() == tips[rank].tobytes()
        expected = chain_pose(desc, config)[0].transform_point(desc.tool_offset)
        assert np.allclose(tip, expected, rtol=0.0, atol=1e-9)


@checked
@given(robots)
@example(  # the largest robot the strategy can draw
    desc_with(
        tooth_count=12, segment_count=4, bend_angle=math.radians(89.0),
        tool_offset=(100.0, -100.0, 100.0),
    )
)
def test_every_tip_lies_in_its_bucket_cell(desc):
    index = enumerate_workspace(desc)
    tips = all_tips(desc)[index.bucket_members]
    keys = np.repeat(quantize(index.points), np.diff(index.bucket_offsets), axis=0)
    assert np.all(np.abs(tips - keys * KEY_CELL) <= KEY_CELL / 2 + 1e-9)


@checked
@given(robots, st.data())
def test_scan_and_tree_find_the_same_nearest_point(desc, data):
    scanning = enumerate_workspace(desc)
    treed = WorkspaceIndex(desc, scanning.points, scanning.bucket_offsets, scanning.bucket_members)
    treed.tree
    points = scanning.points
    g = st.integers(0, scanning.point_count - 1)
    pairs = data.draw(st.lists(st.tuples(g, g), min_size=1, max_size=10))
    shift = st.floats(min_value=-500.0, max_value=500.0)
    moved = data.draw(st.lists(st.tuples(g, st.tuples(shift, shift, shift)), max_size=10))
    targets = [(points[a] + points[b]) / 2 for a, b in pairs]  # near and exact ties
    targets += [points[a] + np.array(d) for a, d in moved]  # stored, jittered and far
    nearest = [scanning.nearest_point_index(target) for target in targets]
    assert [treed.nearest_point_index(target) for target in targets] == nearest
    assert treed.nearest_point_indices(targets).tolist() == nearest
    assert "tree" not in vars(scanning)  # every query above took the scan
