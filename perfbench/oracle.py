"""Reference forward kinematics for the benchmark's correctness gates.

Written with 4x4 homogeneous matrices composed from elementary motions, and
deliberately not routed through ``plc.kinematics`` or ``plc.workspace``, so
the gates do not certify the library against itself.  Each unit is
RotZ(q) * Trans(sag, 0, R sin b) * RotY(b) with R = L / b and
sag = R (1 - cos b).
"""
from __future__ import annotations

import math

import numpy as np


def _rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(4)
    m[:2, :2] = [[c, -s], [s, c]]
    return m


def _rot_y(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    m = np.eye(4)
    m[0, 0], m[0, 2], m[2, 0], m[2, 2] = c, s, -s, c
    return m


def _trans(x: float, y: float, z: float) -> np.ndarray:
    m = np.eye(4)
    m[:3, 3] = (x, y, z)
    return m


def unit_matrices(curve_length: float, bend_angle: float, tooth_count: int) -> list[np.ndarray]:
    """Homogeneous transform of one unit for every tooth index."""
    radius = curve_length / bend_angle
    arc = _trans(radius * (1.0 - math.cos(bend_angle)), 0.0, radius * math.sin(bend_angle))
    bend = _rot_y(bend_angle)
    return [
        _rot_z(2.0 * math.pi * k / tooth_count) @ arc @ bend for k in range(tooth_count)
    ]


def digits(rank: int, tooth_count: int, segment_count: int) -> list[int]:
    """Joint indices of an enumeration rank (joint 1 is the most significant)."""
    out = []
    for _ in range(segment_count):
        rank, k = divmod(rank, tooth_count)
        out.append(k)
    return out[::-1]


def flange_position(units: list[np.ndarray], indices) -> np.ndarray:
    mat = np.eye(4)
    for k in indices:
        mat = mat @ units[k]
    return mat[:3, 3]
