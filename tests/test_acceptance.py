"""Acceptance suite: every exit criterion of the build, one test each.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live; ``pytest -v`` shows the same verdicts as test outcomes).
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from plc import (
    Configuration,
    RobotDescription,
    RotateShaft,
    all_locked,
    builtin_designs,
    enumerate_workspace,
    firmed_compliance,
    force_deflection,
    loosening_threshold,
    normalize_stiffness,
    omnivariance,
    plan_to,
    simulate,
    skin_twist,
    solve_ik,
)
from plc.stiffness import bellows_twist

from _oracles import IkOracle, nearest_by_scan, quantize, total_strain_energy
from conftest import desc_with


def report(label, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {label}")
    assert ok, label


def random_config(rng, n, teeth=10):
    return Configuration(tuple(int(v) for v in rng.integers(0, teeth, n)), teeth)


def test_01_enumeration_count():
    started = time.perf_counter()
    index = enumerate_workspace(RobotDescription())
    elapsed = time.perf_counter() - started
    ok = index.configuration_count == 100000 and elapsed < 10.0
    report(
        f"criterion 1: default robot enumerates 100000 configurations "
        f"({index.configuration_count} in {elapsed:.2f}s)",
        ok,
    )


def test_02_knn_matches_linear_scan_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = mismatched = 0
    for n in (1, 2, 3, 4):
        index = enumerate_workspace(desc_with(segment_count=n))
        lo = index.points.min(axis=0) - 10.0
        hi = index.points.max(axis=0) + 10.0
        for _ in range(250):
            target = rng.uniform(lo, hi)
            checked += 1
            if index.nearest_point_index(target) != nearest_by_scan(
                index.points, quantize(index.points), target
            ):
                mismatched += 1
    elapsed = time.perf_counter() - started
    ok = checked == 1000 and mismatched == 0 and elapsed < 30.0
    report(
        f"criterion 2: k-NN equals linear scan on {checked} targets "
        f"({mismatched} mismatches, {elapsed:.2f}s)",
        ok,
    )


def test_03_ik_matches_exhaustive_oracle():
    desc = desc_with(segment_count=3)
    index = enumerate_workspace(desc)
    oracle = IkOracle(desc)
    rng = np.random.default_rng(103)
    lo = index.points.min(axis=0) - 5.0
    hi = index.points.max(axis=0) + 5.0
    mismatched = 0
    for _ in range(500):
        target = rng.uniform(lo, hi)
        reference = random_config(rng, 3)
        got = solve_ik(index, desc, target, reference).config.indices
        if got != oracle.solve(target, reference.indices):
            mismatched += 1
    report(
        f"criterion 3: IK equals the 1000-configuration oracle on 500 pairs "
        f"({mismatched} mismatches)",
        mismatched == 0,
    )


def test_04_loosening_thresholds():
    desc = RobotDescription()  # 6 mm anchors, 20 mm lever
    predicted = [loosening_threshold(desc, t) for t in (30.0, 40.0, 50.0)]
    exact = all(
        math.isclose(p, e, rel_tol=1e-12)
        for p, e in zip(predicted, (18.0, 24.0, 30.0))
    )
    intervals = [(14.0, 19.0), (24.0, 26.0), (28.0, 33.0)]
    inside = all(lo <= p <= hi for p, (lo, hi) in zip(predicted, intervals))
    report(
        "criterion 4: thresholds 18/24/30 N fall in the measured intervals "
        f"(predicted {predicted})",
        exact and inside,
    )


def test_05_castigliano_consistency():
    rng = np.random.default_rng(105)
    step = 1e-4
    worst = 0.0
    descs = {n: desc_with(segment_count=n) for n in range(1, 9)}
    for _ in range(100):
        n = int(rng.integers(1, 9))
        desc = descs[n]
        config = random_config(rng, n)
        force = rng.normal(0.0, 20.0, size=3)
        predicted = firmed_compliance(desc, config).displacement(force)
        gradient = np.empty(3)
        for axis in range(3):
            bump = np.zeros(3)
            bump[axis] = step
            gradient[axis] = (
                total_strain_energy(desc, config.indices, force + bump)
                - total_strain_energy(desc, config.indices, force - bump)
            ) / (2.0 * step)
        rel = float(np.linalg.norm(gradient - predicted) / np.linalg.norm(predicted))
        worst = max(worst, rel)
    report(
        f"criterion 5: energy-gradient check on 100 random pairs "
        f"(worst relative error {worst:.2e} < 1e-6)",
        worst < 1e-6,
    )


def test_06_closed_form_extremes():
    desc = desc_with(segment_count=1)
    matrix = firmed_compliance(desc, Configuration((0,), 10)).matrix
    e = desc.youngs_modulus
    axial = desc.curve_length / (e * desc.spine_cross_section_area)
    transverse = desc.curve_length**3 / (3.0 * e * desc.spine_bending_inertia)
    ok = (
        math.isclose(matrix[2, 2], axial, rel_tol=1e-15)
        and math.isclose(matrix[0, 0], transverse, rel_tol=1e-15)
        and math.isclose(matrix[1, 1], transverse, rel_tol=1e-15)
    )
    report(
        "criterion 6: single-segment axial L/EA and transverse L^3/3EI "
        "to machine precision",
        ok,
    )


def test_07_parallel_force_deflection_curves():
    desc = RobotDescription()
    config = Configuration((0, 2, 5, 7, 9), 10)
    direction = np.array([1.0, 0.0, 0.0])
    curves = [force_deflection(desc, config, t, direction) for t in (30.0, 40.0, 50.0)]
    same_loose = len({c.loose_slope for c in curves}) == 1
    same_firm = len({c.firm_slope for c in curves}) == 1
    distinct_breaks = len({c.breakpoint_deflection for c in curves}) == 3
    report(
        "criterion 7: 30/40/50 N curves share both slopes and differ only "
        "in breakpoint",
        same_loose and same_firm and distinct_breaks,
    )


def test_08_convolution_invariance_and_tube_limit():
    desc = RobotDescription()
    torque = 1000.0
    values = [
        skin_twist(dataclasses.replace(desc, skin_convolutions=n), torque)
        for n in (2, 4, 6, 8)
    ]
    spread = max(abs(v - values[0]) / abs(values[0]) for v in values)
    diameter, thickness = 20.0, 0.75
    constant = bellows_twist(
        torque, desc.curve_length, diameter, diameter, thickness, 4, desc.shear_modulus
    )
    outer_r, inner_r = diameter / 2.0, diameter / 2.0 - thickness
    tube = 2.0 * desc.curve_length * torque / (
        math.pi * (outer_r**4 - inner_r**4) * desc.shear_modulus
    )
    tube_rel = abs(constant - tube) / tube
    report(
        f"criterion 8: skin twist invariant over 2/4/6/8 convolutions "
        f"(spread {spread:.2e} <= 1e-9) and matches the tube form "
        f"(rel {tube_rel:.2e} <= 1e-8)",
        spread <= 1e-9 and tube_rel <= 1e-8,
    )


def test_09_normalization_table():
    records = builtin_designs()
    worst = 0.0
    for i, record in enumerate(records):
        length = 50.0 + 25.0 * i  # geometry unpublished: any positive values work
        radius = 2.0 + 0.5 * i
        normalized_ratio = normalize_stiffness(
            record.k_max, length, radius
        ) / normalize_stiffness(record.k_min, length, radius)
        worst = max(worst, abs(normalized_ratio - record.ratio) / record.ratio)
    ours = next(rec for rec in records if rec.name == "PLC (ours)")
    ours_ok = abs(ours.k_max / ours.k_min - 9.5) <= 0.01
    report(
        f"criterion 9: ratio invariance on all {len(records)} records "
        f"(worst rel {worst:.2e} <= 1e-12) and flagship ratio "
        f"{ours.ratio:.4f} within 0.01 of 9.5",
        worst <= 1e-12 and ours_ok,
    )


def test_10_planner_soundness():
    desc = desc_with(segment_count=7)
    rng = np.random.default_rng(110)
    sound = True
    for _ in range(1000):
        start = random_config(rng, 7)
        goal = random_config(rng, 7)
        steps = plan_to(desc, start, goal)
        state = all_locked(start)
        for step in steps:
            if isinstance(step, RotateShaft) and not isinstance(step.pitch_steps, int):
                sound = False
            state = simulate(state, [step])
            if len(state.unlocked_joints) > 1:
                sound = False
        if state.config != goal or state.unlocked_joints != ():
            sound = False
    report(
        "criterion 10: 1000 random plans reach the goal exactly, one joint "
        "loosened at a time, pitch-multiple rotations only",
        sound,
    )


def test_11_omnivariance():
    corners = [
        [x, y, z] for x in (-0.5, 0.5) for y in (-0.5, 0.5) for z in (-0.5, 0.5)
    ]
    cube_ok = abs(omnivariance(corners) - 0.25) <= 1e-12
    rng = np.random.default_rng(111)
    planar = np.column_stack(
        [rng.normal(size=64), rng.normal(size=64), np.full(64, 2.5)]
    )
    rotation = np.linalg.qr(rng.normal(size=(3, 3)))[0]
    planar_ok = (
        abs(omnivariance(planar)) <= 1e-10
        and abs(omnivariance(planar @ rotation)) <= 1e-10
    )
    cloud = rng.normal(size=(300, 3))
    base = omnivariance(cloud)
    scale_ok = all(
        abs(omnivariance(s * cloud) - s**2 * base) <= 1e-10 * s**2 * base
        for s in (0.5, 2.0, 11.0)
    )
    report(
        "criterion 11: omnivariance cube=0.25, planar=0, quadratic scaling",
        cube_ok and planar_ok and scale_ok,
    )


def test_12_compliance_matrix_properties():
    rng = np.random.default_rng(112)
    descs = {n: desc_with(segment_count=n) for n in range(1, 9)}
    symmetric = positive = True
    floor = math.inf
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        compliance = firmed_compliance(descs[n], random_config(rng, n))
        matrix = compliance.matrix
        if not np.array_equal(matrix, matrix.T):
            symmetric = False
        smallest = float(np.linalg.eigvalsh(matrix)[0])
        floor = min(floor, smallest)
        if smallest <= 0.0:
            positive = False
    report(
        f"criterion 12: 1000 random compliance matrices symmetric and "
        f"positive definite (eigenvalue floor {floor:.3e})",
        symmetric and positive,
    )
