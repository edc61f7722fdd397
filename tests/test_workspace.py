import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from plc import (
    Configuration,
    chain_pose,
    PlcError,
    RobotDescription,
    enumerate_workspace,
    local_omnivariance,
    omnivariance,
    position_key,
    reach_accuracy,
    solve_ik,
)
from plc.cli import _fmt
from plc.model import InvariantError, description_digest
from plc import workspace
from plc.workspace import (
    _HEADER,
    _SCAN_ROWS,
    BYTES_PER_CONFIGURATION,
    KEY_CELL,
    SCAN_BUDGET,
    WorkspaceIndex,
    _sort_and_group,
    configuration_from_rank,
)
from plc.kinematics import tip_positions

from _oracles import all_configurations, fk_position, nearest_by_scan, quantize
from conftest import desc_with


def synthetic_index(points):
    """Index over hand-picked points, one configuration per point."""
    desc = desc_with(segment_count=1)
    points = np.asarray(points, dtype=float)
    count = points.shape[0]
    return WorkspaceIndex(
        desc,
        points,
        np.arange(count + 1, dtype=np.int64),
        np.arange(count, dtype=np.int64),
    )


def fresh_copy(index):
    """A new index over the same arrays: no tree, nothing scanned yet."""
    return WorkspaceIndex(index.desc, index.points, index.bucket_offsets, index.bucket_members)


def scan_and_tree(index):
    """Two fresh copies of ``index``: one that still scans, one whose tree is built."""
    scanning, treed = fresh_copy(index), fresh_copy(index)
    treed.tree
    return scanning, treed


def test_enumeration_counts(index_n2):
    assert index_n2.configuration_count == 100
    sizes = np.diff(index_n2.bucket_offsets)
    assert sizes.sum() == 100


def test_single_segment_workspace_is_a_circle():
    index = enumerate_workspace(desc_with(segment_count=1))
    assert index.point_count <= 10
    assert np.all(index.points[:, 2] == index.points[0, 2])


@pytest.fixture
def index_offset():
    """A 7-tooth, 3-segment, 17-degree robot with a tool offset."""
    return enumerate_workspace(
        desc_with(
            tooth_count=7,
            segment_count=3,
            bend_angle=math.radians(17.0),
            tool_offset=(3.0, -2.0, 15.0),
        )
    )


@pytest.mark.parametrize("fixture", ["index_n3", "index_offset"])
def test_reachable_set_is_n_fold_symmetric(fixture, request):
    # joint 1 spins the whole chain about the base z-axis by whole tooth pitches
    index = request.getfixturevalue(fixture)
    angle = 2.0 * math.pi / index.desc.tooth_count
    c, s = math.cos(angle), math.sin(angle)
    rotated = index.points @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]]).T
    gaps = np.linalg.norm(rotated[:, None] - index.points[None], axis=2).min(axis=1)
    assert gaps.max() < 1e-9


def test_enumeration_order_is_canonical():
    desc = desc_with(segment_count=2, tooth_count=3)
    digits = configuration_from_rank(np.arange(9), desc)
    assert digits.tolist() == [[a, b] for a in range(3) for b in range(3)]
    assert [tuple(row) for row in digits.tolist()] == all_configurations(desc)


def test_enumeration_is_deterministic():
    desc = desc_with(segment_count=3)
    a = enumerate_workspace(desc)
    b = enumerate_workspace(desc)
    assert np.array_equal(a.points, b.points)
    assert np.array_equal(a.bucket_offsets, b.bucket_offsets)
    assert np.array_equal(a.bucket_members, b.bucket_members)


def test_enumeration_is_refused_past_the_available_memory(monkeypatch):
    desc = desc_with(segment_count=3)
    needed = 1000 * BYTES_PER_CONFIGURATION
    assert workspace._available_memory() > needed  # the real memory builds it
    assert enumerate_workspace(desc).configuration_count == 1000
    monkeypatch.setattr(workspace, "_available_memory", lambda: needed - 1)
    with pytest.raises(InvariantError, match=r"count 1000 needs about .* GB available"):
        enumerate_workspace(desc)
    monkeypatch.setattr(workspace, "_available_memory", lambda: needed)
    assert enumerate_workspace(desc).configuration_count == 1000


def test_available_memory_is_capped_by_the_address_space_limit(monkeypatch):
    resource = workspace.resource
    unlimited = workspace._available_memory()
    in_use = workspace._proc_bytes("/proc/self/status", "VmSize")
    assert in_use > 0
    monkeypatch.setattr(resource, "getrlimit", lambda _: (resource.RLIM_INFINITY,) * 2)
    assert workspace._available_memory() == pytest.approx(unlimited, rel=0.05)
    limit = in_use + 10**8  # VmSize may grow a little between the two reads
    monkeypatch.setattr(resource, "getrlimit", lambda _: (limit, resource.RLIM_INFINITY))
    assert 0 < workspace._available_memory() <= 10**8
    monkeypatch.setattr(resource, "getrlimit", lambda _: (in_use // 2, resource.RLIM_INFINITY))
    assert workspace._available_memory() == 0


def test_available_memory_is_capped_by_the_cgroup_limit(monkeypatch, tmp_path):
    resource = workspace.resource
    monkeypatch.setattr(resource, "getrlimit", lambda _: (resource.RLIM_INFINITY,) * 2)

    def available(*pairs):
        """_available_memory() with cgroup (limit, usage) files holding ``pairs``
        (None: no such file)."""
        files = []
        for i, pair in enumerate(pairs):
            paths = (tmp_path / f"limit{i}", tmp_path / f"usage{i}")
            for path, text in zip(paths, pair):
                path.unlink(missing_ok=True)
                if text is not None:
                    path.write_text(text + "\n")
            files.append(tuple(map(str, paths)))
        monkeypatch.setattr(workspace, "CGROUP_MEMORY_FILES", tuple(files))
        return workspace._available_memory()

    unlimited = available()
    assert unlimited > 5 * 10**8
    # no limit: v2 "max", v1's largest page-aligned count, missing or garbled files
    for pair in [("max", "123"), ("9223372036854771712", "883355648"), (None, "1"), ("x", "1")]:
        assert available(pair) == pytest.approx(unlimited, rel=0.05)
    assert available(("300000000", "100000000")) == 2 * 10**8
    assert available(("300000000", "400000000")) == 0
    assert available(("300000000", None)) == 3 * 10**8  # unread usage counts as 0
    assert available(("max", "1"), ("500000000", "100000000")) == 4 * 10**8
    assert available(("300000000", "0"), ("500000000", "0")) == 3 * 10**8


def test_budget_refuses_a_vast_chain_without_printing_its_count():
    # 10**5000 has more digits than Python will turn into a string
    with pytest.raises(InvariantError, match=r"count 10\*\*5000 is at least 2\*\*64$"):
        enumerate_workspace(desc_with(segment_count=5000))
    with pytest.raises(InvariantError, match=r"count 2\*\*64 is at least 2\*\*64$"):
        enumerate_workspace(desc_with(segment_count=64, tooth_count=2))
    # one configuration fewer than 2**64 is formed exactly and needs too much memory
    with pytest.raises(InvariantError, match=f"count {2**63} needs about"):
        enumerate_workspace(desc_with(segment_count=63, tooth_count=2))


def test_enumeration_is_refused_past_32_bit_ranks(monkeypatch):
    # the memory check passes on a host with 2**62 bytes; the sort's ranks do not
    monkeypatch.setattr(workspace, "_available_memory", lambda: 2**62)

    def enumerated(desc):
        raise AssertionError("the refusal must come before any enumeration")

    monkeypatch.setattr(workspace, "tip_positions", enumerated)
    with pytest.raises(InvariantError, match=r"count 4294967296 is at least 2\*\*32$"):
        enumerate_workspace(desc_with(segment_count=32, tooth_count=2))


def test_every_configuration_lands_in_exactly_one_bucket(index_n3):
    members = np.sort(index_n3.bucket_members)
    assert np.array_equal(members, np.arange(index_n3.configuration_count))
    assert np.all(np.diff(index_n3.bucket_offsets) >= 1)
    assert index_n3.tree.n == index_n3.point_count


def test_fixture_indexes_start_fresh(index_n3):
    # the test above built its index_n3's tree; this one gets a new index
    assert "tree" not in vars(index_n3)
    assert index_n3._scanned == 0


def test_stored_keys_are_requantized_points(index_n3):
    keys = position_key(index_n3.points)
    assert np.array_equal(keys, quantize(index_n3.points))
    keys = [tuple(k) for k in keys.tolist()]
    assert keys == sorted(set(keys))  # one point per key, in ascending key order


def test_points_out_of_key_order_are_refused(index_n3):
    swapped = index_n3.points.copy()
    swapped[[4, 5]] = swapped[[5, 4]]
    duplicate = index_n3.points.copy()
    duplicate[5] = duplicate[4] + KEY_CELL / 4  # other bits, the same key
    for points in (swapped, duplicate):
        with pytest.raises(InvariantError, match="ascending key order"):
            WorkspaceIndex(index_n3.desc, points, index_n3.bucket_offsets, index_n3.bucket_members)


@pytest.mark.parametrize("row, bad", [(0, np.nan), (1000, np.inf)])
def test_non_finite_points_are_refused(tmp_path, index_n4, row, bad):
    points = index_n4.points.copy()
    points[row, 1] = bad
    with pytest.raises(InvariantError, match="points must be finite"):
        WorkspaceIndex(index_n4.desc, points, index_n4.bucket_offsets, index_n4.bucket_members)
    path = tmp_path / "n4.plcw"
    index_n4.save(path)
    data = bytearray(path.read_bytes())
    at = _HEADER.size + (row * 3 + 1) * 8  # the y coordinate of point ``row``
    data[at : at + 8] = np.array([bad], dtype="<f8").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(InvariantError, match="points must be finite"):
        WorkspaceIndex.load(path, index_n4.desc)


@pytest.mark.parametrize(
    "first, second, ordered",
    [
        ((0.0, 0.0, 0.0), (0.0, 0.0, 1e-6), True),  # keys differ in z alone
        ((0.0, 0.0, 1e-6), (0.0, 0.0, 0.0), False),
        ((0.0, 0.0, 5.0), (0.0, 1e-6, 0.0), True),  # y decides before z
        ((0.0, 1e-6, 0.0), (0.0, 0.0, 5.0), False),
        ((0.0, 5.0, 5.0), (1e-6, 0.0, 0.0), True),  # x decides before y and z
        ((1e-6, 0.0, 0.0), (0.0, 5.0, 5.0), False),
        ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0 + 1e-7), False),  # one key twice
    ],
)
def test_key_order_is_lexicographic(first, second, ordered):
    if ordered:
        synthetic_index([first, second])
    else:
        with pytest.raises(InvariantError, match="ascending key order"):
            synthetic_index([first, second])


def test_buckets_agree_with_oracle_fk(index_n2):
    # every bucket: its members' oracle tips are its point, and its point is
    # the nearest one to each of them
    desc = index_n2.desc
    for g, point in enumerate(index_n2.points):
        members = configuration_from_rank(index_n2.bucket_ranks(g).tolist(), desc).tolist()
        for indices in members:
            oracle_pos = fk_position(desc, indices)
            assert np.linalg.norm(point - oracle_pos) < 1e-9
            assert index_n2.nearest_point_index(oracle_pos) == g


def test_config_map_covers_every_point(index_n2):
    # the point -> configurations map read through bucket_ranks: every point
    # has a non-empty bucket keyed by its first member's oracle tip, and the
    # buckets together hold all 100 configurations once each
    desc, seen = index_n2.desc, []
    for g, point in enumerate(index_n2.points):
        ranks = index_n2.bucket_ranks(g).tolist()
        assert len(ranks) >= 1
        first = configuration_from_rank(ranks[0], desc).tolist()
        assert tuple(quantize(fk_position(desc, first))) == tuple(position_key(point))
        seen += ranks
    assert len(seen) == 100
    assert sorted(seen) == list(range(desc.raw_configuration_count))


@pytest.mark.parametrize("fixture", ["index_n3", "index_n4"])
def test_chain_pose_reproduces_every_stored_point_bitwise(fixture, request):
    # one FK formula: the scalar walk and the batched enumeration agree to the bit
    index = request.getfixturevalue(fixture)
    teeth = index.desc.tooth_count
    for g in range(index.point_count):
        first = configuration_from_rank(index.bucket_ranks(g)[0], index.desc)
        end, _ = chain_pose(index.desc, Configuration(tuple(first.tolist()), teeth))
        assert end.translation.tobytes() == index.points[g].tobytes()


def test_position_key_quantization():
    assert np.array_equal(position_key([0.0, 0.0, 0.0]), [0, 0, 0])
    a = position_key([1.0000001e-6, -3.3e-7, 2.0])
    b = position_key([1.0000004e-6, -3.4e-7, 2.0])
    assert np.array_equal(a, b)
    assert a[2] == 2_000_000


def test_position_key_spans_the_int64_range():
    top = np.nextafter(2.0**63 * KEY_CELL, 0.0)  # its key is just below 2**63
    keys = position_key([-(2.0**63) * KEY_CELL, top, 9.2e12])
    assert keys[0] == -(2**63)
    assert 2**63 - 4096 <= keys[1] < 2**63
    assert keys[2] == 9_200_000_000_000_000_000


@pytest.mark.parametrize("coordinate", [2.0**63 * KEY_CELL, -9.3e12, 1e300, np.nan, np.inf])
def test_position_key_refuses_coordinates_past_the_int64_range(coordinate):
    # the cast would wrap or saturate, and merge the point with others
    with pytest.raises(InvariantError, match="outside the key range"):
        position_key([[0.0, 0.0, 0.0], [1.0, coordinate, 2.0]])


def test_load_refuses_a_point_past_the_int64_key_range(tmp_path, index_n2):
    path = tmp_path / "n2.plcw"
    index_n2.save(path)
    data = bytearray(path.read_bytes())
    at = _HEADER.size + (index_n2.point_count - 1) * 24  # x of the last point: still in order
    data[at : at + 8] = np.array([1e13], dtype="<f8").tobytes()
    path.write_bytes(bytes(data))
    with pytest.raises(InvariantError, match="outside the key range"):
        WorkspaceIndex.load(path, index_n2.desc)


def lexsort_groups(keys):
    """Reference grouping: stable lexsort by (x, y, z), then a new group at
    every row that differs from the one before."""
    order = np.lexsort((keys[:, 2], keys[:, 1], keys[:, 0]))
    ordered = keys[order]
    new_group = np.ones(order.shape[0], dtype=bool)
    new_group[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    return order, np.flatnonzero(new_group)


_I64 = (-(2**63), 2**63 - 1)
# a few values per column, so rows repeat; wide ones leave y or z partly packed
column_values = st.lists(
    st.one_of(
        st.integers(-3, 3),
        st.integers(-(2**30), 2**30),
        st.integers(-(2**40), 2**40),
        st.integers(*_I64),
        st.sampled_from([*_I64, 2**32, 2**32 + 1, 2**62]),
    ),
    min_size=1,
    max_size=4,
)


@st.composite
def key_arrays(draw):
    pools = [draw(column_values) for _ in range(3)]
    rows = draw(st.integers(1, 40))
    picks = [draw(st.lists(st.integers(0, len(p) - 1), min_size=rows, max_size=rows)) for p in pools]
    return np.array([[p[i] for i in pick] for p, pick in zip(pools, picks)], dtype=np.int64).T


@settings(derandomize=True, deadline=None, max_examples=300)
@given(key_arrays())
@example(np.array([[5, -7, 11]]))  # a single row
@example(np.array([[0, 0, 0], [1, 1, 1], [0, 0, 0], [1, 1, 1], [0, 0, 0]]))  # duplicates
# x and y take 29 bits each and z the top 6 of 41: rows 0-2 share a primary key
@example(np.array([[0, 2**29 - 1, 1], [0, 2**29 - 1, 0], [0, 2**29 - 1, 1], [2**29 - 1, 0, 2**40], [0, 0, 2]]))
# a packed z bit spilling into y's last bit would put row 0 after row 1
@example(np.array([[0, 0, 3 * 2**39], [0, 1, 0], [2**29 - 1, 2**29 - 1, 0]]))
# x and y spans above 2**32: y is partly packed and z not at all
@example(np.array([[2**33, 2**40, 0], [0, 1, 5], [2**33, 2**40 + 1, 0], [0, 0, 7], [0, 1, 4]]))
# spans near 2**63 and 2**64: x alone fills the primary key
@example(np.array([[_I64[1], 3, 1], [_I64[0], 2, 2], [_I64[1], 3, 0], [_I64[0], 2, 2], [0, _I64[0], 9]]))
@example(np.array([[2**62, 1, 1], [-(2**62), 0, 0], [2**62, 0, 1], [2**62, 1, 0]]))
def test_sort_and_group_matches_lexsort(keys):
    order, starts = _sort_and_group(keys)
    expected_order, expected_starts = lexsort_groups(keys)
    assert order.dtype == starts.dtype == np.int64
    assert np.array_equal(order, expected_order)
    assert np.array_equal(starts, expected_starts)


def test_sort_and_group_resorts_runs_of_a_real_workspace(monkeypatch):
    # 300 mm units: keys span 31 + 31 + 30 bits, so the primary key holds 2
    # bits of z, and points on the symmetry axis share it with other points
    keys = position_key(tip_positions(desc_with(segment_count=4, curve_length=300.0)))
    subsets = []
    lexsort = np.lexsort

    def spy(columns):
        subsets.append(len(columns[0]))
        return lexsort(columns)

    monkeypatch.setattr(np, "lexsort", spy)
    order, starts = _sort_and_group(keys)
    monkeypatch.undo()
    assert len(subsets) == 1 and 0 < subsets[0] < keys.shape[0]
    expected_order, expected_starts = lexsort_groups(keys)
    assert np.array_equal(order, expected_order)
    assert np.array_equal(starts, expected_starts)
    assert starts.shape[0] < keys.shape[0]  # some points merge


def test_knn_exact_point_returns_full_bucket(index_n4):
    sizes = np.diff(index_n4.bucket_offsets)
    g = int(np.argmax(sizes))
    assert sizes[g] > 1  # the 4-segment robot has genuinely redundant points
    assert index_n4.nearest_point_index(index_n4.points[g]) == g
    members = configuration_from_rank(index_n4.bucket_ranks(g), index_n4.desc)
    assert members.shape == (sizes[g], 4)
    for indices in members.tolist():
        assert np.linalg.norm(fk_position(index_n4.desc, indices) - index_n4.points[g]) < 1e-9


def test_knn_matches_linear_scan(index_n2, index_n3):
    rng = np.random.default_rng(17)
    for index in (index_n2, index_n3):
        points = index.points
        lo = points.min(axis=0) - 5.0
        hi = points.max(axis=0) + 5.0
        reach = np.sqrt(np.einsum("ij,ij->i", points, points).max())
        far = rng.normal(size=(100, 3))
        far *= (reach + 400.0) / np.linalg.norm(far, axis=1, keepdims=True)
        pairs = rng.integers(index.point_count, size=(100, 2))
        targets = np.concatenate([
            rng.uniform(lo, hi, size=(300, 3)),  # inside a +-5 mm box
            points[rng.integers(index.point_count, size=100)],  # stored points
            far,  # 400 mm beyond reach
            (points[pairs[:, 0]] + points[pairs[:, 1]]) / 2,  # near ties
        ])
        expected = [nearest_by_scan(points, quantize(points), target) for target in targets]
        scanning, treed = scan_and_tree(index)
        assert [scanning.nearest_point_index(target) for target in targets] == expected
        assert [treed.nearest_point_index(target) for target in targets] == expected
        assert scanning.nearest_point_indices(targets).tolist() == expected
        assert treed.nearest_point_indices(targets).tolist() == expected
        assert "tree" not in vars(scanning)  # every target above took the scan


# rows of blocks_index holding the first, middle and last candidate: one per scan block
BLOCK_ROWS = (0, _SCAN_ROWS + 5, 2 * _SCAN_ROWS)


def blocks_index(first_z, middle_z):
    """Key-ordered index whose BLOCK_ROWS hold (0, -1, first_z), (0, 0, middle_z)
    and (0, 1, 0); every other point is more than 1 mm from the origin."""
    points = np.zeros((2 * _SCAN_ROWS + 1, 3))
    first, middle, last = BLOCK_ROWS
    points[first] = (0.0, -1.0, first_z)
    points[first + 1 : middle, 1] = -1.0  # (0, -1, k) for k = 1, 2, ...
    points[first + 1 : middle, 2] = np.arange(1, middle - first)
    points[middle] = (0.0, 0.0, middle_z)
    points[middle + 1 : last, 2] = np.arange(2, last - middle + 1)  # (0, 0, k) for k = 2, 3, ...
    points[last] = (0.0, 1.0, 0.0)
    return synthetic_index(points)


def test_scan_breaks_ties_across_blocks():
    for first_z, middle_z, nearest in (
        (0.0, -1.0, 0),  # tied at 1 mm in all three blocks: the earliest row
        (-2.0, -1.0, 1),  # tied in the middle and last blocks
        (-2.0, -2.0, 2),  # the last block alone at 1 mm
        (0.0, -0.5, 1),  # a later block strictly closer beats an earlier tie
    ):
        scanning, treed = scan_and_tree(blocks_index(first_z, middle_z))
        assert scanning.nearest_point_index([0.0, 0.0, 0.0]) == BLOCK_ROWS[nearest]
        assert treed.nearest_point_index([0.0, 0.0, 0.0]) == BLOCK_ROWS[nearest]
        assert "tree" not in vars(scanning)


def test_tree_is_built_once_scanning_would_pass_the_budget(tmp_path, default_desc):
    index = enumerate_workspace(default_desc)
    index.save(tmp_path / "ws.plcw")
    assert "tree" not in vars(index)  # building and saving need no tree
    scans = SCAN_BUDGET // index.point_count
    assert scans >= 2
    for g in range(scans):  # these queries fit the budget: no tree
        assert index.nearest_point_index(index.points[g]) == g
        assert "tree" not in vars(index)
    assert index._scanned == scans * index.point_count
    assert index.nearest_point_index(index.points[0]) == 0  # one more would not
    assert vars(index)["tree"].n == index.point_count
    index.nearest_point_index(index.points[1])
    reach_accuracy(index, index.points[:3])
    assert index._scanned == scans * index.point_count  # the tree answers from now on
    # a batch that would pass the budget goes to the tree without scanning
    fresh = fresh_copy(index)
    assert reach_accuracy(fresh, index.points[: scans + 1]) == 0.0
    assert fresh._scanned == 0 and "tree" in vars(fresh)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])  # 1e200 squared overflows
def test_non_finite_targets_raise_on_both_paths(index_n2, bad):
    reference = Configuration((0, 0), index_n2.desc.tooth_count)
    for index, has_tree in zip(scan_and_tree(index_n2), (False, True)):
        target = [0.0, bad, 0.0]
        for query in (
            index.nearest_point_index,
            lambda t: solve_ik(index, index.desc, t, reference),
            lambda t: index.nearest_point_indices([index.points[0], t]),
            lambda t: reach_accuracy(index, [index.points[0], t]),
        ):
            with pytest.raises(PlcError, match="non-finite or too far"):
                query(target)
        assert ("tree" in vars(index)) == has_tree  # each path was the one under test


def test_knn_tie_breaks_by_lexicographic_key():
    tied = [[-1.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    for index in scan_and_tree(synthetic_index(tied)):
        assert index.nearest_point_index([0.0, 0.0, 0.0]) == 0
    # the smallest key is the smallest index only because insertion order is checked
    with pytest.raises(InvariantError, match="ascending key order"):
        synthetic_index(tied[::-1])


def test_reach_accuracy():
    single = synthetic_index([[0.0, 0.0, 0.0]])
    assert reach_accuracy(single, [[3.0, 4.0, 0.0]]) == 5.0
    with pytest.raises(PlcError):
        reach_accuracy(single, np.empty((0, 3)))
    with pytest.raises(PlcError, match="3-vectors"):
        reach_accuracy(single, np.zeros((2, 3, 3)))


def test_reach_accuracy_of_stored_points_is_zero(index_n3):
    assert reach_accuracy(index_n3, index_n3.points[::37]) == 0.0


def test_reach_accuracy_matches_double_loop(index_n2):
    rng = np.random.default_rng(23)
    queries = rng.uniform(-60.0, 60.0, size=(50, 3))
    best = max(
        min(float(np.linalg.norm(p - q)) for p in index_n2.points) for q in queries
    )
    for index in scan_and_tree(index_n2):
        assert reach_accuracy(index, queries) == pytest.approx(best, rel=1e-12)


def test_reach_accuracy_is_bitwise_equal_by_scan_and_tree(index_n4):
    # both paths pick the same points and measure them the same way, so the
    # CLI's nine digits agree because the raw floats do
    rng = np.random.default_rng(29)
    offset_index = enumerate_workspace(desc_with(segment_count=3, tool_offset=(0.0, 4.0, 15.0)))
    for index in (index_n4, offset_index):
        _, treed = scan_and_tree(index)
        for _ in range(300):
            queries = rng.uniform(-150.0, 150.0, size=(20, 3))
            scanning = fresh_copy(index)
            by_scan, by_tree = reach_accuracy(scanning, queries), reach_accuracy(treed, queries)
            assert by_scan.hex() == by_tree.hex()
            assert _fmt(by_scan) == _fmt(by_tree)
            assert "tree" not in vars(scanning)


def test_omnivariance_unit_cube():
    corners = [
        [x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)
    ]
    assert omnivariance(corners) == pytest.approx(0.25, abs=1e-12)


def test_omnivariance_planar_cloud_is_zero():
    rng = np.random.default_rng(29)
    flat = np.column_stack([rng.normal(size=50), rng.normal(size=50), np.full(50, 3.0)])
    assert abs(omnivariance(flat)) <= 1e-10
    tilted = flat @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
    assert abs(omnivariance(tilted)) <= 1e-10


def test_omnivariance_scales_quadratically():
    rng = np.random.default_rng(31)
    cloud = rng.normal(size=(200, 3))
    base = omnivariance(cloud)
    for scale in (0.25, 3.0, 17.5):
        assert omnivariance(scale * cloud) == pytest.approx(scale**2 * base, rel=1e-10)


def test_omnivariance_degenerate_inputs():
    with pytest.raises(PlcError):
        omnivariance([[1.0, 2.0, 3.0]])
    assert omnivariance([[1.0, 2.0, 3.0]] * 5) == 0.0


def test_local_omnivariance():
    rng = np.random.default_rng(37)
    cloud = rng.normal(size=(40, 3))
    values = local_omnivariance(cloud, 40)
    assert values.shape == (40,)
    assert np.allclose(values, omnivariance(cloud), rtol=1e-9)
    flat = np.column_stack([rng.normal(size=30), rng.normal(size=30), np.zeros(30)])
    assert np.all(local_omnivariance(flat, 8) <= 1e-10)
    with pytest.raises(PlcError):
        local_omnivariance(cloud, 41)


def test_local_omnivariance_bounds_neighbors_times_points(monkeypatch):
    cloud = np.random.default_rng(43).normal(size=(100, 3))
    monkeypatch.setattr(workspace, "MAX_LOCAL_NEIGHBORS", 100 * 50)
    assert local_omnivariance(cloud, 50).shape == (100,)
    with pytest.raises(PlcError, match=r"size 51 x 100 points exceeds 5000 neighbors"):
        local_omnivariance(cloud, 51)


def test_local_omnivariance_in_blocks_matches_each_point_alone():
    rng = np.random.default_rng(41)
    cloud = rng.normal(size=(3000, 3))
    k = 50
    assert cloud.shape[0] > 2 * (_SCAN_ROWS // k)  # the cloud spans three blocks
    values = local_omnivariance(cloud, k)
    for i in range(0, cloud.shape[0], 7):
        hood = np.argsort(np.sum((cloud - cloud[i]) ** 2, axis=1))[:k]
        assert values[i] == pytest.approx(omnivariance(cloud[hood]), rel=1e-9)


def test_save_load_round_trip(tmp_path, index_n3):
    path = tmp_path / "n3.plcw"
    index_n3.save(path)
    loaded = WorkspaceIndex.load(path, index_n3.desc)
    assert np.array_equal(loaded.points, index_n3.points)
    assert np.array_equal(loaded.bucket_offsets, index_n3.bucket_offsets)
    assert np.array_equal(loaded.bucket_members, index_n3.bucket_members)


def test_failed_save_leaves_nothing_behind(tmp_path, index_n2, monkeypatch):
    target = tmp_path / "n2.plcw"
    real_fdopen = os.fdopen

    class FailingWriter:
        """File handle whose writes stop after a few bytes, like a full disk."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:7])
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fdopen", lambda *a, **kw: FailingWriter(real_fdopen(*a, **kw)))
    with pytest.raises(OSError, match="No space"):
        index_n2.save(target)
    assert list(tmp_path.iterdir()) == []

    # a failed overwrite keeps the previous index intact
    monkeypatch.undo()
    index_n2.save(target)
    before = target.read_bytes()
    monkeypatch.setattr(os, "fdopen", lambda *a, **kw: FailingWriter(real_fdopen(*a, **kw)))
    with pytest.raises(OSError):
        index_n2.save(target)
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["n2.plcw"]
    assert target.read_bytes() == before


def test_load_rejects_other_robot(tmp_path, index_n3):
    path = tmp_path / "n3.plcw"
    index_n3.save(path)
    other = desc_with(segment_count=3, curve_length=31.0)
    with pytest.raises(PlcError, match="different robot"):
        WorkspaceIndex.load(path, other)


def test_load_rejects_corrupt_files(tmp_path, index_n3):
    path = tmp_path / "n3.plcw"
    index_n3.save(path)
    data = path.read_bytes()
    (tmp_path / "trunc.plcw").write_bytes(data[:-16])
    with pytest.raises(PlcError, match="truncated"):
        WorkspaceIndex.load(tmp_path / "trunc.plcw", index_n3.desc)
    (tmp_path / "magic.plcw").write_bytes(b"XXXX" + data[4:])
    with pytest.raises(PlcError, match="not a workspace index"):
        WorkspaceIndex.load(tmp_path / "magic.plcw", index_n3.desc)
    (tmp_path / "vers.plcw").write_bytes(data[:4] + b"\x63\x00\x00\x00" + data[8:])
    with pytest.raises(PlcError, match="version"):
        WorkspaceIndex.load(tmp_path / "vers.plcw", index_n3.desc)


@pytest.mark.parametrize("segment_count", [3, 10**9])
def test_load_rejects_a_header_that_claims_another_chain_length(
    tmp_path, index_n2, segment_count
):
    # a forged header can carry the digest of any robot; its configuration
    # count must still be tooth_count ** segment_count
    path = tmp_path / "n2.plcw"
    index_n2.save(path)
    data = path.read_bytes()
    magic, version, _, _, teeth, points_n, configs_n = _HEADER.unpack(data[: _HEADER.size])
    desc = desc_with(segment_count=segment_count)
    digest = description_digest(desc)
    header = _HEADER.pack(magic, version, digest, segment_count, teeth, points_n, configs_n)
    path.write_bytes(header + data[_HEADER.size :])
    with pytest.raises(PlcError, match="header disagrees"):
        WorkspaceIndex.load(path, desc)


def test_load_rejects_short_reads(tmp_path, index_n2, monkeypatch):
    path = tmp_path / "n2.plcw"
    index_n2.save(path)
    real_fromfile = np.fromfile
    # a read comes back short, as when the file shrinks after its size was checked
    monkeypatch.setattr(
        np, "fromfile", lambda fh, dtype, count: real_fromfile(fh, dtype=dtype, count=count)[:-1]
    )
    with pytest.raises(PlcError, match="truncated"):
        WorkspaceIndex.load(path, index_n2.desc)
