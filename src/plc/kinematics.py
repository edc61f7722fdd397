"""Closed-form forward kinematics for chains of identical inclined units.

Each unit is a constant-curvature arc of length L bent by a fixed angle beta;
joint q spins the arc's bending plane about the local z-axis.  The distal
end of one unit sits at

    x = (L/beta) (1 - cos beta) cos q
    y = (L/beta) (1 - cos beta) sin q
    z = (L/beta) sin beta

with frame rotation RotZ(q) * RotY(beta).

This module holds the library's only FK, and each of its products is
written once.  :func:`_unit_row` evaluates the unit transform of tooth
index k on the angle ``(2 pi k) / N`` and its ``math`` cosine and sine: the
rotation R_k, the translation t_k, and the tip vector t_k + R_k o of the
tool offset o.  A chain is built by one step per joint, ``(R, p) <- (R R_k,
p + R t_k)``, with R R_k spelled by :func:`_rotate` and p + R t by
:func:`_translate`, and the tool tip takes the last joint with the tip
vector, so it is p + R (t_k + R_k o).  The three are plain arithmetic, so
each runs on Python floats for one pose and on numpy columns for the
workspace enumeration, with the same IEEE operations in the same order.

One loop, :func:`_walk`, walks one pose in Python floats, joint by joint
from the first, on the rows of its own indices (cached per description, one
at a time as walks read them, so no single-pose call builds an N-row
table); it collects the segment axes as float triples, forms the positions
only if its caller reads a position, and steps the last joint only for what
its caller reads: the end pose, the tip, both, or neither.  It is the one
walk behind :func:`chain_pose`, which wraps its end pose and axes in a
checked end pose and an (n, 3) axes array, :func:`tool_position`, which
returns its tip as an array, ``plc fk``, which prints its floats, and the
firmed compliance of :mod:`plc.stiffness`, which reads its axes as they are.
:func:`tip_positions` evaluates every tooth's row at once as (N, 1)
columns, and steps every prefix pose of the canonical enumeration by them,
level by level, in fixed blocks (:func:`_stepped`).

numpy is imported inside the functions that build arrays, so ``plc fk``
and the single-direction stiffness commands, which walk one pose, load none.

Every product is one stated order of IEEE float operations, with no BLAS
call, so its bits are the same on every host: entry (i, j) of R R_k is
``(a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j``, and component i of p + R t (t a
unit translation, a tip vector, or o in t_k + R_k o) is ``p_i + (((r_i0 t0
+ r_i2 t2) + r_i1 t1) + 0.0)``.  The rotation order is that of an OpenBLAS
kernel without FMA, and the position order that of numpy's x86-64 einsum,
which once formed these products, so zero-offset index files written then
under such a kernel keep their points; the added +0.0 (einsum's start of
the sum) turns a row whose three products are all -0.0 into +0.0.  So the
single-pose walk and the enumeration agree bit for bit on any host and at
any tool offset: :func:`tool_position` equals the workspace point stored
for its configuration, and at zero tool offset so does the end translation
of :func:`chain_pose`.
"""
from __future__ import annotations

import functools
import math

from .model import Configuration, RigidTransform, RobotDescription, index_angle

# (pose, tooth) pairs per block of _stepped.  Timing tip_positions of the
# N=4, n=10 robot (2-core Xeon, numpy 2.4), 2**14-2**16 were alike and 2**13
# took 1.25x as long; the last level's working columns then take about 1 MB
# (tracemalloc on the N=4, n=9 robot: 52 B per configuration at 2**14, 55 B
# at 2**15, where the tips and the last prefix level hold 48 B)
_BLOCK = 2**14
# rows of _unit_row kept per description: 0.76 kB each with the cache's own
# entry (tracemalloc, Python 3.11), so about 3 MB at most, where the rows of
# a whole N=1e6 table took 768 MB
_CACHED_ROWS = 4096
# descriptions whose rows are kept, so about 25 MB of rows at most
_CACHED_DESCRIPTIONS = 8


def _rotate(a, b) -> tuple:
    """R R_k of a rotation ``a`` and a unit rotation ``b``, nine entries
    row-major each (Python floats, or numpy columns that broadcast):
    entry (i, j) is ``(a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j``."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = b
    return (
        (a0 * b0 + a1 * b3) + a2 * b6,
        (a0 * b1 + a1 * b4) + a2 * b7,
        (a0 * b2 + a1 * b5) + a2 * b8,
        (a3 * b0 + a4 * b3) + a5 * b6,
        (a3 * b1 + a4 * b4) + a5 * b7,
        (a3 * b2 + a4 * b5) + a5 * b8,
        (a6 * b0 + a7 * b3) + a8 * b6,
        (a6 * b1 + a7 * b4) + a8 * b7,
        (a6 * b2 + a7 * b5) + a8 * b8,
    )


def _translate(a, p, t) -> tuple:
    """p + R t of a rotation ``a`` (nine entries row-major), a position
    ``p`` and a vector ``t`` (three components each; Python floats, or numpy
    columns that broadcast): component i is ``p_i + (((a_i0 t0 + a_i2 t2) +
    a_i1 t1) + 0.0)``."""
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = a
    x, y, z = p
    t0, t1, t2 = t
    return (
        x + (((a0 * t0 + a2 * t2) + a1 * t1) + 0.0),
        y + (((a3 * t0 + a5 * t2) + a4 * t1) + 0.0),
        z + (((a6 * t0 + a8 * t2) + a7 * t1) + 0.0),
    )


def _unit_row(desc: RobotDescription, k) -> tuple:
    """Unit transform of tooth index ``k``: the rotation R_k (nine entries
    row-major), the translation t_k and the tip vector t_k + R_k o of the
    tool offset o (three components each).

    An int ``k`` gives Python floats, for the single-pose walk; an array of
    indices gives numpy arrays of its shape, or Python floats for the
    entries that do not depend on k.  Either way the cosine and sine of
    each angle are taken by ``math``, so an index has the same bits in both.
    """
    beta = desc.bend_angle
    radius = desc.curve_length / beta
    sag = radius * (1.0 - math.cos(beta))
    q = index_angle(k, desc.tooth_count)
    if type(k) is int:
        cq, sq = math.cos(q), math.sin(q)
    else:
        import numpy as np

        angles = q.ravel().tolist()
        cq, sq = (np.fromiter(map(f, angles), float, q.size).reshape(q.shape) for f in (math.cos, math.sin))
    cb, sb = math.cos(beta), math.sin(beta)
    rotation = (cq * cb, -sq, cq * sb, sq * cb, cq, sq * sb, -sb, 0.0, cb)
    translation = (sag * cq, sag * sq, radius * sb)
    return rotation, translation, _translate(rotation, translation, desc.tool_offset)


@functools.lru_cache(maxsize=_CACHED_DESCRIPTIONS)
def _unit_rows(desc: RobotDescription):
    """:func:`_unit_row` of ``desc`` by tooth index, each row computed on
    its first read, so a walk computes the rows of its own indices only.
    Cached for the last ``_CACHED_DESCRIPTIONS`` descriptions, and the last
    ``_CACHED_ROWS`` rows read of each."""
    return functools.lru_cache(maxsize=_CACHED_ROWS)(functools.partial(_unit_row, desc))


def _walk(desc: RobotDescription, config: Configuration, end: bool = True, tip: bool = False) -> tuple:
    """End pose (rotation as nine floats row-major, position as three
    floats), segment base axes (n triples of floats) and tool tip (three
    floats) of a full chain, walked joint by joint with :func:`_rotate` and
    :func:`_translate`.

    Axis i is the world-frame z-axis of the frame segment i is attached to:
    the axial unit vector used by the stiffness model.  The last joint is
    stepped only for what the caller asks for, the end pose with ``end`` and
    the tip with ``tip``, and what is not asked for is None; without either,
    no position is formed.  The tip is p + R (t_k + R_k o) from the pose
    before the last joint: the arithmetic of :func:`tip_positions`, so it is
    bit for bit its row.
    """
    desc.check_configuration(config)
    rows = _unit_rows(desc)
    *head, last = config.indices
    unit_rotation, unit_translation, tip_vector = rows(last)
    end_pose = unit_rotation, unit_translation
    axes = [(0.0, 0.0, 1.0)]
    if head:
        rotation, position, _ = rows(head[0])
        for k in head[1:]:
            axes.append(rotation[2::3])
            r, t, _ = rows(k)
            if end or tip:
                position = _translate(rotation, position, t)
            rotation = _rotate(rotation, r)
        axes.append(rotation[2::3])
        if end:
            end_pose = _rotate(rotation, unit_rotation), _translate(rotation, position, unit_translation)
        if tip:
            tip_vector = _translate(rotation, position, tip_vector)
    return end_pose if end else None, axes, tip_vector if tip else None


def chain_pose(desc: RobotDescription, config: Configuration) -> tuple[RigidTransform, np.ndarray]:
    """End pose of a full chain and its segment base axes, shape (n, 3).

    Row i of the axes is the world-frame z-axis of the frame segment i is
    attached to: the axial unit vector used by the stiffness model.
    """
    import numpy as np

    (rotation, position), axes, _ = _walk(desc, config)
    return RigidTransform(np.array(rotation).reshape(3, 3), np.array(position)), np.array(axes)


def _stepped(poses: np.ndarray, rotation, translation) -> np.ndarray:
    """Every pose of ``poses`` (12, P: nine rotation entries row-major, then
    three position components, a row each) stepped by every tooth's unit
    columns (N, 1), pose-major, so canonical rank order carries over: the
    poses (12, P * N) with a ``rotation``, else only the positions
    p + R ``translation``, (P * N, 3).

    A block of prefix poses is a row of columns (1, poses) against the
    teeth's (N, 1), so the inner loops run over the poses; its products are
    written transposed into the output.
    """
    import numpy as np

    count, teeth = poses.shape[1], len(translation[0])
    if rotation is None:
        out = np.empty((count, teeth, 3))
        columns = np.moveaxis(out, 2, 0)
    else:
        out = columns = np.empty((12, count, teeth))
    rows = max(1, _BLOCK // teeth)
    for lo in range(0, count, rows):
        *a, x, y, z = poses[:, lo : lo + rows]
        block = _translate(a, (x, y, z), translation)
        if rotation is not None:
            block = _rotate(a, rotation) + block
        for column, entry in zip(columns[:, lo : lo + rows], block):
            column[...] = entry.T
    return out.reshape(-1, 3) if rotation is None else out.reshape(12, -1)


def tip_positions(desc: RobotDescription) -> np.ndarray:
    """Tool-tip positions of every configuration in canonical rank order, (N**n, 3).

    Level by level, every prefix pose is stepped by every tooth; the last
    joint takes the per-tooth tip vector t_k + R_k tool_offset on every
    (n-1)-joint prefix pose, so it needs no rotation.
    """
    import numpy as np

    rotation, translation, tip = _unit_row(desc, np.arange(desc.tooth_count)[:, None])
    if desc.segment_count == 1:
        return np.concatenate(np.broadcast_arrays(*tip), axis=1)
    poses = np.concatenate(np.broadcast_arrays(*rotation, *translation), axis=1).T
    for _ in range(desc.segment_count - 2):
        poses = _stepped(poses, rotation, translation)
    return _stepped(poses, None, tip)


def tool_position(desc: RobotDescription, config: Configuration) -> np.ndarray:
    """Base-frame tool tip of a full chain: the tip of :func:`_walk`, bit
    for bit the row :func:`tip_positions` gives its configuration."""
    import numpy as np

    return np.array(_walk(desc, config, end=False, tip=True)[2])
