"""Property tests over small random robots: FK against the homogeneous
oracle, and every enumerated tool tip inside its bucket's key cell."""
import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from plc import Configuration, chain_pose, enumerate_workspace
from plc.workspace import KEY_CELL

from _oracles import all_tips, fk_matrix
from conftest import desc_with

offsets = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)

robots = st.builds(
    lambda teeth, segments, degrees, offset: desc_with(
        tooth_count=teeth,
        segment_count=segments,
        bend_angle=math.radians(degrees),
        tool_offset=offset,
    ),
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=1.0, max_value=89.0),
    st.tuples(offsets, offsets, offsets),
)

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
    keys = np.repeat(index.keys, np.diff(index.bucket_offsets), axis=0)
    assert np.all(np.abs(tips - keys * KEY_CELL) <= KEY_CELL / 2 + 1e-9)
