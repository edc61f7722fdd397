"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with different machinery than the
package (4x4 homogeneous matrices, per-config loops, full linear scans) so
the tests do not certify the code against itself.
"""
import itertools
import math

import numpy as np

KEY_CELL = 1e-6


def homogeneous_segment(desc, q):
    beta = desc.bend_angle
    radius = desc.curve_length / beta
    sag = radius * (1.0 - math.cos(beta))
    cq, sq = math.cos(q), math.sin(q)
    cb, sb = math.cos(beta), math.sin(beta)
    rot_z = np.array(
        [[cq, -sq, 0, 0], [sq, cq, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1.0]]
    )
    rot_y = np.array(
        [[cb, 0, sb, 0], [0, 1, 0, 0], [-sb, 0, cb, 0], [0, 0, 0, 1.0]]
    )
    mat = rot_z @ rot_y
    mat[0, 3] = sag * cq
    mat[1, 3] = sag * sq
    mat[2, 3] = radius * sb
    return mat


def fk_matrix(desc, indices):
    mat = np.eye(4)
    for k in indices:
        q = 2.0 * math.pi * k / desc.tooth_count
        mat = mat @ homogeneous_segment(desc, q)
    return mat


def fk_position(desc, indices):
    return fk_matrix(desc, indices)[:3, 3]


def tip_position(desc, indices):
    """Tool tip: the tool offset carried through the end frame."""
    return (fk_matrix(desc, indices) @ np.append(desc.tool_offset, 1.0))[:3]


def all_tips(desc):
    """Tool tip of every configuration, in all_configurations order."""
    units = [
        homogeneous_segment(desc, 2.0 * math.pi * k / desc.tooth_count)
        for k in range(desc.tooth_count)
    ]
    tool = np.append(desc.tool_offset, 1.0)
    tips = []
    for config in all_configurations(desc):
        mat = np.eye(4)
        for k in config:
            mat = mat @ units[k]
        tips.append((mat @ tool)[:3])
    return np.array(tips)


def quantize(position):
    return np.rint(np.asarray(position, dtype=float) / KEY_CELL).astype(np.int64)


def all_configurations(desc):
    return list(itertools.product(range(desc.tooth_count), repeat=desc.segment_count))


def nearest_by_scan(points, keys, target):
    """Index of the nearest point; exact ties go to the smaller key."""
    diffs = np.asarray(points) - np.asarray(target, dtype=float)
    sq = np.einsum("ij,ij->i", diffs, diffs)
    best = sq.min()
    tied = np.flatnonzero(sq == best)
    return int(min(tied, key=lambda g: tuple(keys[g])))


class IkOracle:
    """Exhaustive IK: scan every configuration, scoring by (distance of its
    merged workspace point to the target, point key, wrapped distance to the
    reference, joint indices)."""

    def __init__(self, desc):
        self.desc = desc
        configs = all_configurations(desc)
        self.digits = np.array(configs, dtype=np.int64)
        positions = np.array([fk_position(desc, c) for c in configs])
        self.keys = quantize(positions)
        reps = {}
        self.rep_positions = np.empty_like(positions)
        for i, key in enumerate(map(tuple, self.keys)):
            if key not in reps:
                reps[key] = positions[i]
            self.rep_positions[i] = reps[key]

    def solve(self, target, reference):
        diffs = self.rep_positions - np.asarray(target, dtype=float)
        sq = np.einsum("ij,ij->i", diffs, diffs)
        delta = np.abs(self.digits - np.asarray(reference, dtype=np.int64))
        wrapped = np.minimum(delta, self.desc.tooth_count - delta).sum(axis=1)
        # np.lexsort sorts by the last key first
        order = np.lexsort(
            (*self.digits.T[::-1], wrapped, *self.keys.T[::-1], sq)
        )
        return tuple(int(v) for v in self.digits[order[0]])


def ik_choice(ranks, reference, tooth_count, segment_count, metric="wrapped", seed=None):
    """Joint indices IK picks from a bucket's enumeration ``ranks`` (in bucket
    order): with ``seed``, the seeded uniform pick; otherwise the candidate
    nearest ``reference`` by the wrapped or euclidean metric, scored on ints,
    with ties to the lexicographically smallest candidate."""
    candidates = []
    for rank in ranks:
        rank, digits = int(rank), []
        for _ in range(segment_count):
            rank, digit = divmod(rank, tooth_count)
            digits.append(digit)
        candidates.append(tuple(digits[::-1]))
    if seed is not None:
        return candidates[int(np.random.default_rng(seed).integers(len(candidates)))]

    def score(candidate):
        deltas = [abs(a - b) for a, b in zip(candidate, reference)]
        if metric == "wrapped":
            return sum(min(d, tooth_count - d) for d in deltas)
        return sum(d * d for d in deltas)

    return min(candidates, key=lambda candidate: (score(candidate), candidate))


def segment_strain_energy(desc, axis, force, literal_polar=False):
    """Bending + axial strain energy of one segment under a tip force, N*mm.

    The bending moment grows linearly from the tip and the axial load is
    constant, so the length integrals collapse to

        U_b = (|F|^2 - (v.F)^2) L^3 / (6 E I)
        U_n = (v.F)^2 L / (2 E A)

    with the annular section's A and I from the spine diameters (I the polar
    moment, twice the bending one, under ``literal_polar``).
    """
    outer, inner = desc.spine_outer_diameter, desc.spine_inner_diameter
    area = math.pi * (outer**2 - inner**2) / 4.0
    inertia = math.pi * (outer**4 - inner**4) / (32.0 if literal_polar else 64.0)
    v, f = np.asarray(axis, dtype=float), np.asarray(force, dtype=float)
    axial = float(v @ f)
    bending_sq = float(f @ f) - axial**2
    length, e = desc.curve_length, desc.youngs_modulus
    return bending_sq * length**3 / (6.0 * e * inertia) + axial**2 * length / (2.0 * e * area)


def total_strain_energy(desc, indices, force, literal_polar=False):
    """Chain strain energy: the same tip force loads every segment, and
    segment i's axis is the z-column of the frame the first i joints reach."""
    return sum(
        segment_strain_energy(desc, fk_matrix(desc, indices[:i])[:3, 2], force, literal_polar)
        for i in range(len(indices))
    )
