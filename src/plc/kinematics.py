"""Closed-form forward kinematics for chains of identical inclined units.

Each unit is a constant-curvature arc of length L bent by a fixed angle beta;
joint q spins the arc's bending plane about the local z-axis.  The distal
end of one unit sits at

    x = (L/beta) (1 - cos beta) cos q
    y = (L/beta) (1 - cos beta) sin q
    z = (L/beta) sin beta

with frame rotation RotZ(q) * RotY(beta).

This module holds the library's only FK.  :func:`unit_table` evaluates the
unit transform above once per tooth index (rotations (N, 3, 3), translations
(N, 3)) and caches it per description, and a chain is built by one step per
joint, ``(R, p) <- (R R_k, p + R t_k)``.  :func:`chain_pose` and
:func:`tool_position` walk that step one pose at a time with :func:`_step`;
:func:`_prefix_poses` applies it to every prefix of the canonical enumeration
at once, level by level, for :func:`tip_positions` and for the cached prefix
table that :func:`tool_position` starts its walk from.

Positions are written out in one stated order, in IEEE float operations that
no library can reorder: each component of p + R t is
``p[i] + (((R[i,0] t0 + R[i,2] t2) + R[i,1] t1) + 0.0)``, in Python floats
by :func:`_step` and in blocked ufuncs by :func:`_positions`.  It is the
order of numpy's x86-64 einsum, ``np.einsum("...ij,...j->...i")``, which
once formed these positions, so index files written then keep their bytes;
the added +0.0 (einsum's start of the sum) turns a row whose three products
are all -0.0 into +0.0.  Rotations are the one BLAS
dependency left: both paths form them as the matmul ``R @ R_k``
(``R[:, None] @ R_k`` batched), which rounds as the host's BLAS kernel
does (with FMA or without), and so may differ between hosts.  So every
path shares one arithmetic on a host: at zero tool offset the end
translation of :func:`chain_pose` equals the stored workspace point bit for
bit, and :func:`tool_position` equals the tool offset carried through the
end pose of :func:`chain_pose` (``RigidTransform.transform_point``) bit for
bit.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .model import Configuration, RigidTransform, RobotDescription, index_angle

# the cached prefix table holds at most this many poses (about 400 KB)
PREFIX_TABLE_ROWS = 4096

# poses per block of _positions: its 16 working rows of this many floats
# take 512 KiB, within a 2 MiB L2.  Timing tip_positions of the N=4, n=10
# and N=10, n=6 robots (2-core Xeon, numpy 2.4), 2048-8192 were alike, and
# on the N=4 robot 512 took 2.5x and 65536 1.4x as long as 4096.
_BLOCK_POSES = 4096


@functools.lru_cache
def unit_table(desc: RobotDescription) -> tuple[np.ndarray, np.ndarray]:
    """Per-tooth-index unit rotation (N, 3, 3) and translation (N, 3) tables.

    Cached per description; the arrays are read-only because every caller
    shares them.
    """
    teeth = desc.tooth_count
    beta = desc.bend_angle
    radius = desc.curve_length / beta
    sag = radius * (1.0 - math.cos(beta))
    q = index_angle(np.arange(teeth), teeth)
    cq, sq = np.cos(q), np.sin(q)
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
    rot.setflags(write=False)
    tra.setflags(write=False)
    return rot, tra


def _step(rotation, position, unit_rotation, unit_translation):
    """One joint on one pose: (R, p) <- (R R_k, p + R t_k), with ``rotation``
    and ``unit_rotation`` (3, 3) arrays and ``position`` and
    ``unit_translation`` three floats each; the new position is three floats.

    Each position component is ``p + (((r0 t0 + r2 t2) + r1 t1) + 0.0)`` in
    Python floats, the kernel order and signed zero of :func:`_positions`,
    so the single-pose walks and the batched levels agree bit for bit.  The
    rotation is the matmul the batched levels use, the one BLAS dependency
    left.
    """
    (r0, r1, r2), (r3, r4, r5), (r6, r7, r8) = rotation.tolist()
    t0, t1, t2 = unit_translation
    x, y, z = position
    return rotation @ unit_rotation, (
        x + (((r0 * t0 + r2 * t2) + r1 * t1) + 0.0),
        y + (((r3 * t0 + r5 * t2) + r4 * t1) + 0.0),
        z + (((r6 * t0 + r8 * t2) + r7 * t1) + 0.0),
    )


def _positions(rotation, position, translation) -> np.ndarray:
    """Positions p + R t_k (P * N, 3) of every pose (``rotation`` (P, 3, 3),
    ``position`` (P, 3)) and table row (``translation`` (N, 3)), pose-major.

    The bits of :func:`_step` on each pose and row: per block of
    ``_BLOCK_POSES`` poses, the rotations and positions are transposed to
    one contiguous row per component, and each tooth's components are summed
    in :func:`_step`'s order, plus 0.0, by in-place ufuncs.
    """
    count = rotation.shape[0]
    out = np.empty((count, translation.shape[0], 3))
    rows = min(count, _BLOCK_POSES)
    matrix, base = np.empty((9, rows)), np.empty((3, rows))
    sums, term = np.empty((3, rows)), np.empty(rows)
    teeth = translation.tolist()
    for lo in range(0, count, rows):
        size = min(rows, count - lo)
        r, p, s, t = matrix[:, :size], base[:, :size], sums[:, :size], term[:size]
        r[...] = rotation[lo : lo + size].reshape(size, 9).T
        p[...] = position[lo : lo + size].T
        for k, (t0, t1, t2) in enumerate(teeth):
            for i in range(3):
                np.multiply(r[3 * i], t0, out=s[i])
                np.multiply(r[3 * i + 2], t2, out=t)
                s[i] += t
                np.multiply(r[3 * i + 1], t1, out=t)
                s[i] += t
                s[i] += 0.0  # an all -0.0 sum becomes +0.0, as in _step
                s[i] += p[i]
            out[lo : lo + size, k] = s.T
    return out.reshape(-1, 3)


def chain_pose(desc: RobotDescription, config: Configuration) -> tuple[RigidTransform, np.ndarray]:
    """End pose of a full chain and its segment base axes, shape (n, 3).

    Row i of the axes is the world-frame z-axis of the frame segment i is
    attached to: the axial unit vector used by the stiffness model.
    """
    desc.check_configuration(config)
    rot, tra = unit_table(desc)
    first, *rest = config.indices
    rotation, position = rot[first], tra[first].tolist()
    axes = np.empty((desc.segment_count, 3))
    axes[0] = (0.0, 0.0, 1.0)
    for i, k in enumerate(rest, start=1):
        axes[i] = rotation[:, 2]
        rotation, position = _step(rotation, position, rot[k], tra[k].tolist())
    return RigidTransform(rotation, np.array(position)), axes


def _prefix_poses(desc: RobotDescription, levels: int) -> tuple[np.ndarray, np.ndarray]:
    """Rotations (N**levels, 3, 3) and positions (N**levels, 3) of every
    ``levels``-joint prefix, in canonical rank order.

    Level by level, the N**k prefix poses are multiplied by the N table rows
    (prefix-major, so canonical rank order carries over).
    """
    rot, tra = unit_table(desc)
    rotation, position = rot, tra
    for _ in range(levels - 1):
        position = _positions(rotation, position, tra)
        rotation = (rotation[:, None] @ rot).reshape(-1, 3, 3)
    return rotation, position


def tip_positions(desc: RobotDescription) -> np.ndarray:
    """Tool-tip positions of every configuration in canonical rank order, (N**n, 3).

    The last joint uses the per-tooth tip vector t_k + R_k tool_offset on
    every (n-1)-joint prefix pose, so it needs only mat-vecs.
    """
    rot, tra = unit_table(desc)
    tip = tra + rot @ np.asarray(desc.tool_offset)
    if desc.segment_count == 1:
        return tip
    rotation, position = _prefix_poses(desc, desc.segment_count - 1)
    return _positions(rotation, position, tip)


@functools.lru_cache
def _prefix_table(desc: RobotDescription) -> tuple[int, np.ndarray, np.ndarray]:
    """Depth m and the read-only :func:`_prefix_poses` of the first m joints.

    m is the largest depth <= n whose N**m poses fit in
    ``PREFIX_TABLE_ROWS``, and at least 1 (then the table is
    :func:`unit_table` itself).  Cached per description.
    """
    teeth, levels = desc.tooth_count, 1
    while levels < desc.segment_count and teeth ** (levels + 1) <= PREFIX_TABLE_ROWS:
        levels += 1
    rotation, position = _prefix_poses(desc, levels)
    rotation.setflags(write=False)
    position.setflags(write=False)
    return levels, rotation, position


def tool_position(desc: RobotDescription, config: Configuration) -> np.ndarray:
    """Base-frame tool tip of a full chain, without the axes or the checked
    end pose of :func:`chain_pose`.

    The first m joints are one row of the cached prefix table; the rest are
    walked with :func:`_step`.  Bit-identical to
    ``chain_pose(desc, config)[0].transform_point(desc.tool_offset)``.
    """
    desc.check_configuration(config)
    indices = config.indices
    levels, prefix_rotation, prefix_position = _prefix_table(desc)
    rank = 0
    for k in indices[:levels]:
        rank = rank * desc.tooth_count + k
    rotation, position = prefix_rotation[rank], prefix_position[rank].tolist()
    rot, tra = unit_table(desc)
    for k in indices[levels:]:
        rotation, position = _step(rotation, position, rot[k], tra[k].tolist())
    return rotation @ np.asarray(desc.tool_offset, dtype=float) + np.array(position)
