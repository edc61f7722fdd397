"""Closed-form forward kinematics for chains of identical inclined units.

Each unit is a constant-curvature arc of length L bent by a fixed angle beta;
joint q spins the arc's bending plane about the local z-axis.  The distal
end of one unit sits at

    x = (L/beta) (1 - cos beta) cos q
    y = (L/beta) (1 - cos beta) sin q
    z = (L/beta) sin beta

with frame rotation RotZ(q) * RotY(beta).

This module holds the library's only FK.  The unit transform above is
evaluated per tooth index k in one set of expressions, on the angle
``(2 pi k) / N`` and its ``math`` cosine and sine: :func:`unit_table` gives
every tooth's row at once as arrays (rotations (N, 3, 3), translations
(N, 3)) for the workspace enumeration, and :func:`_unit_row` one row in
Python floats for a single pose, with the per-tooth tip vector t_k + R_k o
of the tool offset o.  The rows are cached per description, one at a time
as walks read them, so no single-pose call builds an N-row table; the
table is built anew for each enumeration, so none outlives its build.  A
chain is built by one step per joint, ``(R, p) <- (R R_k, p + R t_k)``,
and the tool tip takes the last joint with the tip vector, so it is
p + R (t_k + R_k o).  One loop, :func:`_walk`, walks one pose at a time
with :func:`_step`, joint by joint from the first; it collects the segment
axes as float triples, and steps the last joint only for what its caller
reads: the end pose, the tip (a second step from the same pose, with the
tip vector), both, or neither.  It is the one walk behind
:func:`chain_pose`, which wraps its end pose and axes in a checked end pose
and an (n, 3) axes array, :func:`tool_position`, which returns its tip as an
array, ``plc fk``, which prints its floats, and the firmed compliance of
:mod:`plc.stiffness`, which reads its axes as they are.
:func:`_prefix_poses` applies the step to every prefix of the canonical
enumeration at once, level by level, for :func:`tip_positions`.

numpy is imported inside the functions that build arrays, so ``plc fk``
and the single-direction stiffness commands, which walk one pose, load none.

Every product is written out in one stated order of IEEE float operations,
with no BLAS call, so its bits are the same on every host: entry (i, j) of
R R_k is ``(a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j``, and component i of p + R t
(t a unit translation, a tip vector, or o in t_k + R_k o) is
``p_i + (((r_i0 t0 + r_i2 t2) + r_i1 t1) + 0.0)``.  :func:`_step` spells
them in Python floats and :func:`_products` in blocked ufuncs.  The rotation
order is that of an OpenBLAS kernel without FMA, and the position order that
of numpy's x86-64 einsum, which once formed these products, so zero-offset
index files written then under such a kernel keep their points; the added
+0.0 (einsum's start of the sum) turns a row whose three products are all
-0.0 into +0.0.  So the single-pose walk and the batched levels agree bit
for bit on any host and at any tool offset: :func:`tool_position` equals the
workspace point stored for its configuration, and at zero tool offset so
does the end translation of :func:`chain_pose`.
"""
from __future__ import annotations

import functools
import math

from .model import Configuration, RigidTransform, RobotDescription, index_angle

# poses per block of _products: its at most 30 working rows of this many
# floats take 960 KiB, within a 2 MiB L2.  Timing tip_positions of the N=4,
# n=10 and N=10, n=6 robots (2-core Xeon, numpy 2.4), 2048-8192 were alike,
# and on the N=4 robot 512 took 2.5x and 65536 1.4x as long as 4096.
_BLOCK_POSES = 4096
# rows of _unit_row kept per description: 0.76 kB each with the cache's own
# entry (tracemalloc, Python 3.11), so about 3 MB at most, where the rows of
# a whole N=1e6 table took 768 MB
_CACHED_ROWS = 4096
# the stated orders of the terms of R R_k and of R t (see the module docstring)
_ROTATION_TERMS, _POSITION_TERMS = (0, 1, 2), (0, 2, 1)


def unit_table(desc: RobotDescription) -> tuple[np.ndarray, np.ndarray]:
    """Per-tooth-index unit rotation (N, 3, 3) and translation (N, 3) tables,
    for the workspace enumeration.

    Each entry is the expression of :func:`_unit_row`, with the cosine and
    sine of each angle taken by ``math``, so the two agree bit for bit.
    Built anew on each call, so a build's table (96 B per tooth) is freed
    with the build.
    """
    import numpy as np

    teeth = desc.tooth_count
    beta = desc.bend_angle
    radius = desc.curve_length / beta
    sag = radius * (1.0 - math.cos(beta))
    q = index_angle(np.arange(teeth), teeth).tolist()
    cq = np.fromiter(map(math.cos, q), float, teeth)
    sq = np.fromiter(map(math.sin, q), float, teeth)
    cb, sb = math.cos(beta), math.sin(beta)
    rot = np.zeros((teeth, 3, 3))
    rot[:, 0, 0] = cq * cb
    rot[:, 0, 1] = -sq
    rot[:, 0, 2] = cq * sb
    rot[:, 1, 0] = sq * cb
    rot[:, 1, 1] = cq
    rot[:, 1, 2] = sq * sb
    rot[:, 2, 0] = -sb
    rot[:, 2, 2] = cb
    tra = np.stack([sag * cq, sag * sq, np.full(teeth, radius * sb)], axis=1)
    return rot, tra


def _unit_row(desc: RobotDescription, k: int) -> tuple:
    """Row ``k`` of the unit table in Python floats, for the single-pose
    walk: the rotation R_k as nine floats row-major, the translation t_k
    and the tip vector t_k + R_k o of the tool offset o, three floats each.

    The entries are :func:`unit_table`'s expressions, and the tip vector is
    the position of a :func:`_step` from (R_k, t_k) by o.
    """
    beta = desc.bend_angle
    radius = desc.curve_length / beta
    sag = radius * (1.0 - math.cos(beta))
    q = index_angle(k, desc.tooth_count)
    cq, sq = math.cos(q), math.sin(q)
    cb, sb = math.cos(beta), math.sin(beta)
    rotation = (cq * cb, -sq, cq * sb, sq * cb, cq, sq * sb, -sb, 0.0, cb)
    translation = (sag * cq, sag * sq, radius * sb)
    return rotation, translation, _step(rotation, translation, rotation, desc.tool_offset)[1]


@functools.lru_cache
def _unit_rows(desc: RobotDescription):
    """:func:`_unit_row` of ``desc`` by tooth index, each row computed on
    its first read, so a walk computes the rows of its own indices only.
    Cached per description, and the last ``_CACHED_ROWS`` rows read."""
    return functools.lru_cache(maxsize=_CACHED_ROWS)(functools.partial(_unit_row, desc))


def _step(rotation, position, unit_rotation, unit_translation):
    """One joint on one pose in Python floats: (R, p) <- (R R_k, p + R t_k),
    with rotations nine floats row-major and positions and translations three
    floats each.

    Each entry of R R_k is ``(a_i0 b_0j + a_i1 b_1j) + a_i2 b_2j`` and each
    component of p + R t_k is ``p_i + (((a_i0 t0 + a_i2 t2) + a_i1 t1) +
    0.0)``, the orders of :func:`_products`, so the single-pose walk and the
    batched levels agree bit for bit.
    """
    a0, a1, a2, a3, a4, a5, a6, a7, a8 = rotation
    b0, b1, b2, b3, b4, b5, b6, b7, b8 = unit_rotation
    t0, t1, t2 = unit_translation
    x, y, z = position
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
    ), (
        x + (((a0 * t0 + a2 * t2) + a1 * t1) + 0.0),
        y + (((a3 * t0 + a5 * t2) + a4 * t1) + 0.0),
        z + (((a6 * t0 + a8 * t2) + a7 * t1) + 0.0),
    )


def _products(rotation, table, order, position=None) -> np.ndarray:
    """Products R B_k (P * N, 3c) of every pose's rotation R (``rotation``,
    P rotations) and table entry B_k (``table`` (N, 3, c)), pose-major, each
    a row of 3c floats: entry (i, j) adds the terms R[i, m] B_k[m, j] left to
    right in the index ``order`` of m.  With the poses' ``position`` (P, 3)
    each entry is p_i + (that sum + 0.0), so c = 1 gives positions p + R t_k.

    The bits of :func:`_step` on each pose and entry, given its order: per
    block of ``_BLOCK_POSES`` poses, the rotations are transposed to one
    contiguous row per entry, and each table entry is summed by in-place
    ufuncs, a column of R against a row of B_k at a time.
    """
    import numpy as np

    count, (teeth, _, width) = rotation.shape[0], table.shape
    out = np.empty((count, teeth, 3 * width))
    rows = min(count, _BLOCK_POSES)
    matrix, base = np.empty((3, 3, rows)), np.empty((3, 1, rows))
    sums, term = np.empty((3, width, rows)), np.empty((3, width, rows))
    first, *rest = order
    for lo in range(0, count, rows):
        size = min(rows, count - lo)
        a, p, s, t = matrix[..., :size], base[..., :size], sums[..., :size], term[..., :size]
        a[...] = rotation[lo : lo + size].reshape(size, 3, 3).transpose(1, 2, 0)
        if position is not None:
            p[:, 0] = position[lo : lo + size].T
        for k, b in enumerate(table):
            np.multiply(a[:, first, None], b[first, :, None], out=s)
            for m in rest:
                np.multiply(a[:, m, None], b[m, :, None], out=t)
                s += t
            if position is not None:
                s += 0.0  # an all -0.0 sum becomes +0.0, as in _step
                s += p
            out[lo : lo + size, k] = s.reshape(3 * width, size).T
    return out.reshape(count * teeth, 3 * width)


def _walk(desc: RobotDescription, config: Configuration, end: bool = True, tip: bool = False) -> tuple:
    """End pose (rotation as nine floats row-major, position as three
    floats), segment base axes (n triples of floats) and tool tip (three
    floats) of a full chain, walked joint by joint with :func:`_step`.

    Axis i is the world-frame z-axis of the frame segment i is attached to:
    the axial unit vector used by the stiffness model.  The last joint is
    stepped only for what the caller asks for, the end pose with ``end`` and
    the tip with ``tip``, and what is not asked for is None.  The tip is a
    step from the same pose by the tip vector t_k + R_k o for t_k: the
    arithmetic of :func:`tip_positions`, so it is bit for bit its row.
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
            rotation, position = _step(rotation, position, r, t)
        axes.append(rotation[2::3])
        if end:
            end_pose = _step(rotation, position, unit_rotation, unit_translation)
        if tip:
            tip_vector = _step(rotation, position, unit_rotation, tip_vector)[1]
    return end_pose if end else None, axes, tip_vector if tip else None


def chain_pose(desc: RobotDescription, config: Configuration) -> tuple[RigidTransform, np.ndarray]:
    """End pose of a full chain and its segment base axes, shape (n, 3).

    Row i of the axes is the world-frame z-axis of the frame segment i is
    attached to: the axial unit vector used by the stiffness model.
    """
    import numpy as np

    (rotation, position), axes, _ = _walk(desc, config)
    return RigidTransform(np.array(rotation).reshape(3, 3), np.array(position)), np.array(axes)


def _prefix_poses(rot: np.ndarray, tra: np.ndarray, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (N**levels, 9), as rows of nine floats row-major, and
    positions (N**levels, 3) of every ``levels``-joint prefix, in canonical
    rank order, from the unit table ``rot``, ``tra`` of :func:`unit_table`.

    Level by level, the N**k prefix poses are multiplied by the N table rows
    (prefix-major, so canonical rank order carries over).
    """
    rotation, position = rot.reshape(-1, 9), tra
    for _ in range(levels - 1):
        position = _products(rotation, tra[:, :, None], _POSITION_TERMS, position)
        rotation = _products(rotation, rot, _ROTATION_TERMS)
    return rotation, position


def tip_positions(desc: RobotDescription) -> np.ndarray:
    """Tool-tip positions of every configuration in canonical rank order, (N**n, 3).

    The last joint takes the per-tooth tip vector t_k + R_k tool_offset on
    every (n-1)-joint prefix pose, so it needs no rotation.
    """
    import numpy as np

    rot, tra = unit_table(desc)
    tip = _products(rot, np.reshape(desc.tool_offset, (1, 3, 1)), _POSITION_TERMS, tra)
    if desc.segment_count == 1:
        return tip
    rotation, position = _prefix_poses(rot, tra, desc.segment_count - 1)
    return _products(rotation, tip[:, :, None], _POSITION_TERMS, position)


def tool_position(desc: RobotDescription, config: Configuration) -> np.ndarray:
    """Base-frame tool tip of a full chain: the tip of :func:`_walk`, bit
    for bit the row :func:`tip_positions` gives its configuration."""
    import numpy as np

    return np.array(_walk(desc, config, end=False, tip=True)[2])
