import dataclasses
import functools

import pytest

from plc import RobotDescription, WorkspaceIndex, enumerate_workspace


def desc_with(**overrides) -> RobotDescription:
    return dataclasses.replace(RobotDescription(), **overrides)


@functools.cache
def _enumerated(segment_count: int) -> tuple:
    """Index arrays of the reference robot with ``segment_count`` segments,
    enumerated once per session (they are read-only)."""
    index = enumerate_workspace(desc_with(segment_count=segment_count))
    return index.desc, index.points, index.bucket_offsets, index.bucket_members


@pytest.fixture(scope="session")
def default_desc():
    return RobotDescription()


# Each test gets a new index over the session's arrays, with no tree and
# nothing scanned, so the query path a test takes never depends on the
# tests that ran before it.


@pytest.fixture
def index_n2():
    return WorkspaceIndex(*_enumerated(2))


@pytest.fixture
def index_n3():
    return WorkspaceIndex(*_enumerated(3))


@pytest.fixture
def index_n4():
    return WorkspaceIndex(*_enumerated(4))


@pytest.fixture
def index_n5():
    return WorkspaceIndex(*_enumerated(5))
