import copy
import dataclasses
import functools
import os
import tempfile
import tracemalloc

import numpy as np
import pytest

from plc import RobotDescription, WorkspaceIndex, enumerate_workspace
from plc.files import INDEX_FORMAT_VERSION
from plc.model import description_digest
from plc.workspace import _HEADER


def desc_with(**overrides) -> RobotDescription:
    return dataclasses.replace(RobotDescription(), **overrides)


def traced_peak(call):
    """Peak traced memory of ``call()`` above what was traced before it, bytes."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def write_sparse_index(path, desc: RobotDescription, point_count: int) -> None:
    """An index file for ``desc`` whose header is valid for ``point_count``
    points and every configuration, and whose arrays are a hole: the file
    takes no disk blocks, however large its size."""
    count = desc.raw_configuration_count
    header = _HEADER.pack(
        b"PLCW",
        INDEX_FORMAT_VERSION,
        description_digest(desc),
        desc.segment_count,
        desc.tooth_count,
        point_count,
        count,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.truncate(_HEADER.size + point_count * 24 + (point_count + 1) * 4 + count * 4)


def load_arrays(desc: RobotDescription, points, offsets, members) -> WorkspaceIndex:
    """``WorkspaceIndex.load`` of a ``.plcw`` file that holds ``desc``'s
    header and these arrays, as float64 and uint32: the one way a test makes
    an index of arrays it chose, so every such index has passed ``load``'s
    checks, and a test of those checks gets load's exception."""
    points = np.ascontiguousarray(points, dtype="<f8")
    header = _HEADER.pack(
        b"PLCW",
        INDEX_FORMAT_VERSION,
        description_digest(desc),
        desc.segment_count,
        desc.tooth_count,
        points.shape[0],
        len(members),
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "index.plcw")
        with open(path, "wb") as fh:
            fh.write(header)
            fh.write(points)
            fh.write(np.ascontiguousarray(offsets, dtype="<u4"))
            fh.write(np.ascontiguousarray(members, dtype="<u4"))
        return WorkspaceIndex.load(path, desc)


@functools.cache
def _enumerated(segment_count: int) -> WorkspaceIndex:
    """Index of the reference robot with ``segment_count`` segments,
    enumerated once per session and never queried itself (its arrays are
    read-only)."""
    return enumerate_workspace(desc_with(segment_count=segment_count))


@pytest.fixture(scope="session")
def default_desc():
    return RobotDescription()


# Each test gets a new index over the session's arrays, with no tree and
# nothing scanned, so the query path a test takes never depends on the
# tests that ran before it; as a copy of an enumerated index, it answers
# first configurations from its stored points.


@pytest.fixture
def index_n2():
    return copy.copy(_enumerated(2))


@pytest.fixture
def index_n3():
    return copy.copy(_enumerated(3))


@pytest.fixture
def index_n4():
    return copy.copy(_enumerated(4))


@pytest.fixture
def index_n5():
    return copy.copy(_enumerated(5))
