"""Inverse kinematics by nearest-neighbor lookup in the workspace index.

The discrete workspace makes IK a two-stage selection: find the reachable
point nearest the target, then pick one configuration out of that point's
bucket.  Redundant candidates are disambiguated against a reference
configuration; by default the distance between configurations is the sum of
wrapped per-joint rotations, which reflects what the hardware would actually
turn (a joint may rotate freely through a full revolution, so 324 deg and
0 deg are one tooth apart, not nine).

The chosen configuration's indices are the digits of its enumeration rank,
taken with Python ``divmod``; only an unseeded choice among several
candidates forms the candidates' digits as an array to score them.  The
achieved position is the tool tip of the chosen configuration, bit for bit
what :func:`~plc.kinematics.tool_position` walks.  When the choice is the
bucket's first configuration on an index that ``enumerate_workspace`` built
or ``WorkspaceIndex.load`` read, it is read from the stored point, which is
that tip on any host and at any tool offset; any other choice, or any choice
on a hand-built index, walks the chain.  The error is the correctly rounded
square root of the workspace's one squared distance, ``(dx dx + dz dz) + dy
dy`` in Python floats, for the offset ``d`` from the target: the expression
that the nearest-point scan and :func:`~plc.workspace.reach_accuracy` run on
numpy columns.  So it makes no BLAS call, has the same bits under every
kernel, and equals ``reach_accuracy`` of the target bit for bit whenever the
answer is the stored point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kinematics import tool_position
from .model import METRICS, Configuration, InvariantError, PlcError, RobotDescription
from .workspace import WorkspaceIndex, _rank_indices, _squared_distance, configuration_from_rank


@dataclass(frozen=True)
class IkSolution:
    config: Configuration
    achieved_position: np.ndarray
    position_error: float
    candidate_count: int


def configuration_distance(a, b, tooth_count: int, metric: str = "wrapped"):
    """Distance between joint-index vectors, in tooth-pitch units.

    wrapped:   sum_j min(|dk|, N - |dk|)        (circular per joint)
    euclidean: sum_j dk^2                        (raw index differences)

    Both are computed on integers, so comparisons between candidates are
    exact.  Works on a single vector or on a stack of candidates.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    delta = np.abs(a - b)
    if metric == "wrapped":
        return np.minimum(delta, tooth_count - delta).sum(axis=-1)
    if metric == "euclidean":
        return (delta**2).sum(axis=-1)
    raise PlcError(f"unknown configuration metric '{metric}'")


def solve_ik(
    index: WorkspaceIndex,
    desc: RobotDescription,
    target,
    reference: Configuration,
    metric: str = "wrapped",
    seed: int | None = None,
) -> IkSolution:
    """Bring the tool tip as close to ``target`` as possible, staying near ``reference``.

    Among the configurations of the nearest reachable point, returns the one
    minimizing the configuration distance to ``reference`` (ties go to the
    lexicographically smallest joint-index tuple).  ``seed`` replaces the
    reference-based choice with a seeded uniform pick over the candidates.

    ``achieved_position`` is the chosen configuration's ``tool_position``:
    a copy of the stored point when it is the bucket's first configuration
    on an index that ``enumerate_workspace`` built or ``load`` read, at any
    tool offset, else a walk of the chain.  The chosen indices come from its
    rank in Python ints, and ``position_error`` is ``math.sqrt`` of the
    offset's squared length, ``(dx dx + dz dz) + dy dy`` in Python floats:
    the expression ``reach_accuracy`` runs on numpy columns, so the same bits
    on every host.
    """
    if desc is not index.desc and desc != index.desc:
        raise InvariantError("index was built from a different robot description")
    desc.check_configuration(reference)
    if metric not in METRICS:
        raise PlcError(f"unknown configuration metric '{metric}'")
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0
    ):
        raise PlcError(f"seed must be a non-negative integer, got {seed!r}")

    target = np.asarray(target, dtype=float)
    g = index.nearest_point_index(target)
    ranks = index.bucket_ranks(g)
    if len(ranks) == 1:
        # the one candidate is both the reference choice and the seeded pick
        # (default_rng(seed).integers(1) is always 0), so nothing is scored
        best = 0
    elif seed is not None:
        best = int(np.random.default_rng(seed).integers(len(ranks)))
    else:
        digits = configuration_from_rank(ranks, desc)
        scores = configuration_distance(digits, reference.indices, desc.tooth_count, metric)
        # buckets are in canonical order, so argmin's first hit is the
        # lexicographically smallest tied candidate
        best = int(np.argmin(scores))

    config = Configuration(_rank_indices(int(ranks[best]), desc), desc.tooth_count)
    if best == 0 and index._points_are_tips:
        achieved = index.points[g].copy()  # the first configuration's tip
    else:
        achieved = tool_position(desc, config)
    return IkSolution(
        config=config,
        achieved_position=achieved,
        position_error=math.sqrt(_squared_distance(*(achieved - target).tolist())),
        candidate_count=len(ranks),
    )
