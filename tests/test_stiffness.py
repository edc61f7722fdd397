import dataclasses
import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from scipy import integrate

from plc import (
    ComplianceMatrix,
    Configuration,
    PlcError,
    RobotDescription,
    chain_pose,
    directional_stiffness,
    firmed_compliance,
    force_deflection,
    loosening_threshold,
    skin_twist,
    spine_twist,
    stiffness_map,
)
from plc.cli import main
from plc.model import InvariantError
from plc import kinematics
from plc.stiffness import (
    _CACHED_POSES,
    COMPLIANCE_RANGE,
    _check_unit,
    _firmed_compliance,
    _scaled,
    bellows_twist,
    compliance_from_axes,
    fibonacci_sphere,
)

from _oracles import segment_strain_energy, total_strain_energy
from conftest import desc_with, traced_peak

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def random_config(rng, n, teeth=10):
    return Configuration(tuple(int(v) for v in rng.integers(0, teeth, n)), teeth)


def test_strain_energy_axial_only():
    desc = RobotDescription()
    force = 12.5 * Z
    expected = 12.5**2 * desc.curve_length / (2.0 * desc.youngs_modulus * desc.spine_cross_section_area)
    assert segment_strain_energy(desc, Z, force) == pytest.approx(expected, rel=1e-15)


def test_strain_energy_transverse_only():
    desc = RobotDescription()
    force = 8.0 * X
    expected = 8.0**2 * desc.curve_length**3 / (6.0 * desc.youngs_modulus * desc.spine_bending_inertia)
    assert segment_strain_energy(desc, Z, force) == pytest.approx(expected, rel=1e-15)


def test_strain_energy_oblique_matches_quadrature():
    desc = RobotDescription()
    force = 50.0 / math.sqrt(2.0) * np.array([1.0, 0.0, 1.0])
    e, inertia, area = (
        desc.youngs_modulus,
        desc.spine_bending_inertia,
        desc.spine_cross_section_area,
    )

    def density(r):
        moment = np.cross(-r * Z, force)
        axial = (Z @ force) * Z
        return (moment @ moment) / (2.0 * e * inertia) + (axial @ axial) / (2.0 * e * area)

    quadrature, _ = integrate.quad(density, 0.0, desc.curve_length, epsrel=1e-12)
    assert segment_strain_energy(desc, Z, force) == pytest.approx(quadrature, rel=1e-9)


def test_single_segment_compliance_is_diagonal():
    desc = desc_with(segment_count=1)
    matrix = firmed_compliance(desc, Configuration((4,), 10)).matrix
    e = desc.youngs_modulus
    transverse = desc.curve_length**3 / (3.0 * e * desc.spine_bending_inertia)
    axial = desc.curve_length / (e * desc.spine_cross_section_area)
    assert matrix[0, 0] == pytest.approx(transverse, rel=1e-15)
    assert matrix[1, 1] == pytest.approx(transverse, rel=1e-15)
    assert matrix[2, 2] == pytest.approx(axial, rel=1e-15)
    off_diagonal = matrix[~np.eye(3, dtype=bool)]
    assert np.all(off_diagonal == 0.0)


def test_compliance_matches_finite_differences():
    rng = np.random.default_rng(61)
    step = 1e-4
    for n in (1, 3, 5):
        desc = desc_with(segment_count=n)
        for _ in range(4):
            config = random_config(rng, n)
            force = rng.normal(0.0, 20.0, size=3)
            compliance = firmed_compliance(desc, config)
            predicted = compliance.displacement(force)
            gradient = np.empty(3)
            for axis in range(3):
                bump = np.zeros(3)
                bump[axis] = step
                gradient[axis] = (
                    total_strain_energy(desc, config.indices, force + bump)
                    - total_strain_energy(desc, config.indices, force - bump)
                ) / (2.0 * step)
            assert np.linalg.norm(gradient - predicted) / np.linalg.norm(predicted) < 1e-6


def test_compliance_is_additive_over_segments():
    desc = RobotDescription()
    axis = np.array([0.6, 0.0, 0.8])
    single = compliance_from_axes(desc, [axis]).matrix
    double = compliance_from_axes(desc, [axis, axis]).matrix
    assert np.allclose(double, 2.0 * single, rtol=1e-15)


def test_directional_extremes_on_straight_segment():
    desc = desc_with(segment_count=1)
    config = Configuration((0,), 10)
    e = desc.youngs_modulus
    axial = e * desc.spine_cross_section_area / desc.curve_length
    transverse = 3.0 * e * desc.spine_bending_inertia / desc.curve_length**3
    assert directional_stiffness(desc, config, Z) == pytest.approx(axial, rel=1e-12)
    assert directional_stiffness(desc, config, X) == pytest.approx(transverse, rel=1e-12)
    # stiffest direction is the axis exactly when axial beats bending stiffness
    if axial > transverse:
        assert directional_stiffness(desc, config, Z) > directional_stiffness(desc, config, X)
    else:
        assert directional_stiffness(desc, config, Z) <= directional_stiffness(desc, config, X)
    with pytest.raises(InvariantError, match="unit"):
        directional_stiffness(desc, config, [1.0, 1.0, 0.0])


def test_in_plane_directional_stiffness_matches_energy_gradient(default_desc):
    config = Configuration((1, 7, 3, 0, 5), 10)
    step = 1e-4
    for angle in np.arange(8) * math.pi / 4.0:
        direction = np.array([math.cos(angle), math.sin(angle), 0.0])
        gradient = np.empty(3)
        for axis in range(3):
            bump = np.zeros(3)
            bump[axis] = step
            gradient[axis] = (
                total_strain_energy(default_desc, config.indices, direction + bump)
                - total_strain_energy(default_desc, config.indices, direction - bump)
            ) / (2.0 * step)
        from_energy = 1.0 / float(np.linalg.norm(gradient))
        direct = directional_stiffness(default_desc, config, direction)
        assert direct == pytest.approx(from_energy, rel=1e-6)


def test_stiffness_map_properties(default_desc):
    config = Configuration((0, 3, 6, 1, 8), 10)
    samples = stiffness_map(default_desc, config, 2000)
    assert len(samples) == 2000
    compliance = firmed_compliance(default_desc, config)
    eigenvalues = np.linalg.eigvalsh(compliance.matrix)
    values = samples["stiffness"]
    assert np.all(values >= 1.0 / eigenvalues[-1] - 1e-12)
    assert np.all(values <= 1.0 / eigenvalues[0] + 1e-12)
    assert values.min() == pytest.approx(1.0 / eigenvalues[-1], rel=0.05)
    assert values.max() == pytest.approx(1.0 / eigenvalues[0], rel=0.05)
    for direction in fibonacci_sphere(16):
        forward = directional_stiffness(default_desc, config, direction)
        backward = directional_stiffness(default_desc, config, -direction)
        assert forward == pytest.approx(backward, rel=1e-12)
    with pytest.raises(PlcError):
        stiffness_map(default_desc, config, 5)
    with pytest.raises(PlcError, match="at most 1000000 sphere samples"):
        stiffness_map(default_desc, config, 10**6 + 1)


def test_stiffness_map_refuses_a_sample_count_that_is_not_an_integer(default_desc):
    # 200.5 and 200.0 raised numpy's TypeError, "200" a comparison TypeError,
    # and True was refused as too few samples, "got True"
    config = Configuration((1, 7, 3, 0, 5), 10)
    for count in (200.5, 200.0, "200", True, np.float64(200.0), np.bool_(True), None):
        with pytest.raises(PlcError) as refused:
            stiffness_map(default_desc, config, count)
        assert str(refused.value) == f"sphere sample count must be an integer, got {count!r}"
    with pytest.raises(PlcError, match="at least 6 sphere samples, got 5"):
        stiffness_map(default_desc, config, np.int64(5))
    expected = stiffness_map(default_desc, config, 200)
    for count in (np.int64(200), np.int32(200), np.uint16(200)):
        assert stiffness_map(default_desc, config, count).tobytes() == expected.tobytes()


MAP_ROBOTS = {
    "default": {},
    "seven": {"segment_count": 7, "tooth_count": 12, "bend_angle": math.radians(45.0)},
    "ik": {"segment_count": 10, "tooth_count": 4, "bend_angle": math.radians(45.0)},
}


@pytest.mark.parametrize("literal_polar", [False, True])
@pytest.mark.parametrize("robot", sorted(MAP_ROBOTS))
def test_map_rows_equal_single_directions_bitwise(robot, literal_polar):
    # the map computes every row in one batch; each row must round as the
    # single direction does, bit for bit, under every BLAS kernel the suite
    # runs with.  np.linalg.norm(C @ u) is BLAS arithmetic whose bits vary
    # with the kernel, so the stated order need only lie within 2 ulp of it
    desc = desc_with(**MAP_ROBOTS[robot])
    rng = np.random.default_rng(2101)
    for count in (6, 7, 201):
        config = random_config(rng, desc.segment_count, desc.tooth_count)
        compliance = firmed_compliance(desc, config, literal_polar)
        samples = stiffness_map(desc, config, count, literal_polar)
        assert samples.dtype.names == ("direction", "stiffness", "compliance")
        assert samples.shape == (count,) and len(samples) == count
        directions = samples["direction"]
        assert directions.tobytes() == fibonacci_sphere(count).tobytes()
        for direction, (_, stiff, per_newton) in zip(directions, samples.tolist()):
            single = directional_stiffness(desc, config, direction, literal_polar)
            looped = float(np.linalg.norm(compliance.displacement(direction)))
            assert stiff.hex() == single.hex() == (1.0 / per_newton).hex()
            assert abs(per_newton - looped) <= 4e-16 * looped


# SHA-256 of stiffness_map(...).tobytes() and directional_stiffness(...).hex()
# over 40 seeded configurations and 400 seeded directions per robot: |C u| is
# written in one stated order with no BLAS call, so its bits are the same
# under every kernel the suite runs with (and are the bits
# np.linalg.norm(C @ u) gives under a kernel without FMA, such as Nehalem)
MAP_DIGESTS = {
    ("default", False): "725cdf49f1de884a7a036b74c616f1bd45079eb78c77ff1a3e1538bf8271adf0",
    ("default", True): "dadb8d877c2382d3d4d48a350e99fa5d505b3fc04cbd0e7c2ed52c590a13b123",
    ("ik", False): "0de75f4e11471f19ab947cf499ddb6718780169ef85e2254dbbb32338d3b5ddf",
    ("ik", True): "2c8b3beb836349bd91c7e479760605405755dfcb555ca3d28122dae7bb291dca",
    ("seven", False): "d54b6fa231494aec27bf6058abd0a070f251b2be885e95ad248bdbf6a1272fd9",
    ("seven", True): "e71cedc24484d8ab3673522311a286b7f9fe551934a7950a322933a1caeae7e4",
}


def _map_digest(desc, literal_polar):
    rng = np.random.default_rng(2601)
    sha = hashlib.sha256()
    for count in (6, 7, 200, 201) * 10:
        config = random_config(rng, desc.segment_count, desc.tooth_count)
        sha.update(stiffness_map(desc, config, count, literal_polar).tobytes())
        for v in rng.normal(size=(10, 3)).tolist():
            norm = math.hypot(*v)
            direction = [x / norm for x in v]
            stiffness = directional_stiffness(desc, config, direction, literal_polar)
            sha.update(stiffness.hex().encode())
    return sha.hexdigest()


def test_stiffness_maps_keep_their_digests():
    # cold, from an empty compliance memo (40 poses, a miss each), and
    # warm, every pose a hit
    for memo in ("cold", "warm"):
        digests = {}
        for robot, literal_polar in MAP_DIGESTS:
            desc = desc_with(**MAP_ROBOTS[robot])
            _firmed_compliance.cache_clear()
            if memo == "warm":
                _map_digest(desc, literal_polar)
            misses = _firmed_compliance.cache_info().misses
            digests[robot, literal_polar] = _map_digest(desc, literal_polar)
            assert _firmed_compliance.cache_info().misses == (misses if memo == "warm" else 40)
        assert digests == MAP_DIGESTS, memo


# SHA-256 of firmed_compliance(...).matrix.tobytes() over 200 seeded
# configurations per robot: C is formed in Python floats with no BLAS call,
# so its bits are the same under every kernel the suite runs with
COMPLIANCE_DIGESTS = {
    ("default", False): "6b5a009e6b72f52acb19543f77485452d4560b1825ab605c2aa01d541e4e10a4",
    ("default", True): "9c5d52072c1ed3f0fda062faf4f8f5a7f9392dcff2bf91079ea16ddec430a1e2",
    ("ik", False): "ca05594725d2f4ab58adb8011f1d20667eacb44390f061a6faa90752151d836b",
    ("ik", True): "dea9f57f78e423087598d1a46ed7f62b078883357bdfa1be5ffec12245f0f074",
    ("seven", False): "ee98e9b258555e4e8631e63800dacb3710617e8d2ca9b46b13af7af078bec9c5",
    ("seven", True): "c2bb41f44f786a9efa01b357d456b595fadfa7ef3af9690253c4b9d11ba24bbb",
}


def _compliance_digest(desc, literal_polar):
    rng = np.random.default_rng(2501)
    sha = hashlib.sha256()
    for _ in range(200):
        config = random_config(rng, desc.segment_count, desc.tooth_count)
        matrix = firmed_compliance(desc, config, literal_polar).matrix
        axes = chain_pose(desc, config)[1]
        assert matrix.tobytes() == compliance_from_axes(desc, axes, literal_polar).matrix.tobytes()
        assert matrix.tobytes() == matrix.T.tobytes()
        sha.update(matrix.tobytes())
    return sha.hexdigest()


def test_firmed_compliance_keeps_its_digests():
    # cold, from an empty compliance memo, and warm, every pose a hit (200
    # poses, within _CACHED_POSES)
    for memo in ("cold", "warm"):
        digests = {}
        for robot, literal_polar in COMPLIANCE_DIGESTS:
            desc = desc_with(**MAP_ROBOTS[robot])
            _firmed_compliance.cache_clear()
            if memo == "warm":
                _compliance_digest(desc, literal_polar)
            misses = _firmed_compliance.cache_info().misses
            digests[robot, literal_polar] = _compliance_digest(desc, literal_polar)
            assert (_firmed_compliance.cache_info().misses == misses) == (memo == "warm")
        assert digests == COMPLIANCE_DIGESTS, memo


@pytest.mark.parametrize("literal_polar", [False, True])
@pytest.mark.parametrize("robot", ["default", "ik"])
def test_compliance_memo_hits_return_the_bits_of_a_walk(robot, literal_polar):
    # a hit, on an equal configuration object, is the matrix the walk forms
    desc = desc_with(**MAP_ROBOTS[robot])
    rng = np.random.default_rng(3301)
    configs = [random_config(rng, desc.segment_count, desc.tooth_count) for _ in range(200)]
    _firmed_compliance.cache_clear()
    cold = [firmed_compliance(desc, config, literal_polar) for config in configs]
    hits = _firmed_compliance.cache_info().hits
    for config, first in zip(configs, cold):
        again = Configuration(tuple(config.indices), config.tooth_count)
        assert firmed_compliance(desc, again, int(literal_polar)) is first
        walked = _firmed_compliance.__wrapped__(desc, config, literal_polar)
        assert first.matrix.tobytes() == walked.matrix.tobytes()
    assert _firmed_compliance.cache_info().hits == hits + len(configs)


def test_equal_descriptions_share_a_compliance_memo_entry(default_desc):
    # equal fields hash and compare equal; -0.0 == 0.0 in the tool offset,
    # which the compliance never reads, so another offset has the same bits
    config = Configuration((1, 7, 3, 0, 5), 10)
    _firmed_compliance.cache_clear()
    first = firmed_compliance(default_desc, config)
    assert firmed_compliance(RobotDescription(), config) is first
    assert firmed_compliance(desc_with(tool_offset=(-0.0, 0.0, -0.0)), config) is first
    assert _firmed_compliance.cache_info().currsize == 1
    offset = firmed_compliance(desc_with(tool_offset=(5.0, -2.0, 40.0)), config)
    assert offset is not first and offset.matrix.tobytes() == first.matrix.tobytes()
    assert firmed_compliance(desc_with(curve_length=31.0), config) is not first


def test_compliance_memo_keeps_no_refusal(default_desc):
    # a refused configuration and an out-of-range section raise the same
    # error on every call, and the memo keeps nothing of them; a list in
    # place of a configuration is refused by the check, as before the memo,
    # not by the memo's hash
    teeth = Configuration((1, 2, 3, 4, 5), 12)
    joints = Configuration((1, 2, 3), 10)
    tiny = desc_with(youngs_modulus=1e-300)
    _firmed_compliance.cache_clear()
    for desc, config, error in [
        (default_desc, teeth, InvariantError),
        (default_desc, joints, InvariantError),
        (tiny, Configuration((1, 2, 3, 4, 5), 10), PlcError),
        (default_desc, [1, 2, 3, 4, 5], AttributeError),
    ]:
        messages = set()
        for call in [
            lambda: firmed_compliance(desc, config),
            lambda: stiffness_map(desc, config, 6),
            lambda: force_deflection(desc, config, 10.0, [1.0, 0.0, 0.0]),
        ] * 2:
            with pytest.raises(error) as caught:
                call()
            assert type(caught.value) is error
            messages.add(str(caught.value))
        assert len(messages) == 1
    assert _firmed_compliance.cache_info().currsize == 0


def test_compliance_memo_holds_its_bound(default_desc):
    count = _CACHED_POSES + 20
    configs = [Configuration((k // 100, k // 10 % 10, k % 10, 0, 0), 10) for k in range(count)]
    _firmed_compliance.cache_clear()
    for config in configs:
        firmed_compliance(default_desc, config)
    assert _firmed_compliance.cache_info().currsize == _CACHED_POSES
    misses = _firmed_compliance.cache_info().misses
    firmed_compliance(default_desc, configs[-1])  # the newest is kept
    firmed_compliance(default_desc, configs[0])  # the oldest is gone
    assert _firmed_compliance.cache_info().misses == misses + 1
    assert _firmed_compliance.cache_info().currsize == _CACHED_POSES


def test_one_pose_is_walked_once(default_desc, monkeypatch):
    # the compliance, the sphere map and the force-deflection curve of one
    # pose read one walk, wherever the pose comes from
    walk = mock.Mock(wraps=kinematics._walk)
    monkeypatch.setattr(kinematics, "_walk", walk)
    _firmed_compliance.cache_clear()
    config = Configuration((1, 7, 3, 0, 5), 10)
    firmed_compliance(default_desc, config)
    stiffness_map(default_desc, Configuration((1, 7, 3, 0, 5), 10), 200)
    force_deflection(default_desc, config, 20.0, [0.0, 0.6, 0.8])
    assert walk.call_count == 1


def test_sphere_samples_stay_within_their_memory_bound(default_desc):
    # MAX_SPHERE_SAMPLES' comment: under 80 B of traced memory per sample
    # (72 B with numpy 2.4 and Python 3.11), so under 80 MB at the limit
    count = 10**5
    config = Configuration((1, 7, 3, 0, 5), 10)
    stiffness_map(default_desc, config, 6)  # numpy's first-call allocations
    assert traced_peak(lambda: stiffness_map(default_desc, config, count)) <= 80 * count


@pytest.mark.parametrize("edge, inside", [(0, 2.0), (1, 0.5)])
def test_firmed_model_is_refused_past_its_float_range(edge, inside):
    # a factor of 2 inside COMPLIANCE_RANGE the map is finite and raises no
    # numpy warning (the suite makes warnings errors); a factor of 2 outside,
    # it is refused
    base = desc_with(segment_count=1)
    config = Configuration((0,), 10)
    terms = np.diag(firmed_compliance(base, config).matrix)  # b, b, a
    term = terms.max() if edge else terms.min()
    for factor in (inside, 1.0 / inside):
        scale = term / (COMPLIANCE_RANGE[edge] * factor)  # the terms go as 1 / E
        desc = dataclasses.replace(base, youngs_modulus=base.youngs_modulus * scale)
        if factor == inside:
            samples = stiffness_map(desc, config, 50)
            products = samples["stiffness"] * samples["compliance"]
            assert products.tolist() == pytest.approx([1.0] * 50, rel=1e-15)
        else:
            with pytest.raises(PlcError, match="outside the float range"):
                stiffness_map(desc, config, 50)


def test_unit_vectors_refuse_nan(default_desc):
    config = Configuration((0, 3, 6, 1, 8), 10)
    nan = [math.nan, 0.0, 0.0]
    with pytest.raises(InvariantError, match="direction must be a unit 3-vector"):
        directional_stiffness(default_desc, config, nan)
    with pytest.raises(InvariantError, match="direction must be a unit 3-vector"):
        force_deflection(default_desc, config, 20.0, nan)


@pytest.mark.parametrize(
    "direction",
    [
        [1e200, 1e200, 0.0],  # its square overflows: refused without a warning
        [1e-200, 0.0, 0.0],  # its square underflows
        [1.7e308, 1.7e308, 1.7e308],  # its norm overflows, scaled or not
        [1.0 + 2e-9, 0.0, 0.0],
        [0.5, 0.5, 0.5],
    ],
)
def test_unit_vectors_refuse_non_units(default_desc, direction):
    config = Configuration((0, 3, 6, 1, 8), 10)
    with pytest.raises(InvariantError, match="direction must be a unit 3-vector"):
        directional_stiffness(default_desc, config, direction)
    with pytest.raises(InvariantError, match="direction must be a unit 3-vector"):
        force_deflection(default_desc, config, 20.0, direction)


def test_loosening_threshold_values(default_desc):
    assert loosening_threshold(default_desc, 50.0) == pytest.approx(30.0, rel=1e-15)
    assert loosening_threshold(default_desc, 30.0) == pytest.approx(18.0, rel=1e-15)
    assert loosening_threshold(default_desc, 0.0) == 0.0
    for tension in [-1.0, math.inf, math.nan]:
        with pytest.raises(PlcError, match=f"tension must be finite and >= 0, got {tension}"):
            loosening_threshold(default_desc, tension)
    with pytest.raises(PlcError, match="too large"):  # 2 r T overflows
        loosening_threshold(default_desc, 1.5e307)


def test_loosening_threshold_is_homogeneous(default_desc):
    rng = np.random.default_rng(67)
    for _ in range(20):
        tension = float(rng.uniform(0.0, 200.0))
        scale = float(rng.uniform(0.1, 10.0))
        assert loosening_threshold(default_desc, scale * tension) == pytest.approx(
            scale * loosening_threshold(default_desc, tension), rel=1e-12
        )


def test_force_deflection_curves_are_parallel(default_desc):
    config = Configuration((0, 0, 0, 0, 0), 10)
    curves = [force_deflection(default_desc, config, t, X) for t in (30.0, 40.0, 50.0)]
    assert len({c.firm_slope for c in curves}) == 1
    assert len({c.loose_slope for c in curves}) == 1
    breakpoints = [c.breakpoint_deflection for c in curves]
    assert breakpoints == sorted(breakpoints)
    assert len(set(breakpoints)) == 3


def test_force_deflection_piecewise_evaluation(default_desc):
    config = Configuration((0, 0, 0, 0, 0), 10)
    curve = force_deflection(default_desc, config, 50.0, X)
    threshold = curve.threshold_force
    assert curve.deflection(0.5 * threshold) == 0.5 * threshold / curve.firm_slope
    below = curve.deflection(threshold)
    beyond = curve.breakpoint_deflection + 1e-12 / curve.loose_slope
    assert below == curve.breakpoint_deflection
    assert curve.deflection(threshold + 1e-12) == pytest.approx(beyond, rel=1e-9)
    assert curve.top_force == 2 * threshold
    forces = np.array([0.0, threshold / 2, threshold, threshold * 2])
    deflections = curve.deflection(forces)
    assert np.all(np.diff(deflections) > 0.0)


def test_force_deflection_zero_tension(default_desc):
    config = Configuration((0, 0, 0, 0, 0), 10)
    curve = force_deflection(default_desc, config, 0.0, X)
    assert curve.threshold_force == 0.0
    assert curve.breakpoint_deflection == 0.0
    assert curve.deflection(5.0) == 5.0 / curve.loose_slope
    assert curve.top_force == 10.0


def test_force_deflection_requires_soft_tendon():
    desc = desc_with(tendon_stiffness=1000.0)
    config = Configuration((0,) * 5, 10)
    with pytest.raises(PlcError, match="firmed slope"):
        force_deflection(desc, config, 30.0, X)


def test_compliance_matrix_invariants():
    with pytest.raises(InvariantError, match="symmetric"):
        ComplianceMatrix(np.array([[1.0, 0.1, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    with pytest.raises(InvariantError, match="positive definite"):
        ComplianceMatrix(np.diag([1.0, 1.0, -0.1]))


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_compliance_matrix_refuses_non_finite_entries(entry):
    diagonal = np.eye(3)
    diagonal[1, 1] = entry
    off_diagonal = np.eye(3)
    off_diagonal[0, 2] = off_diagonal[2, 0] = entry
    for matrix in (diagonal, off_diagonal):
        with pytest.raises(InvariantError, match="entries must be finite"):
            ComplianceMatrix(matrix)


@pytest.mark.parametrize("scale", [1e-140, 1.0, 1e20, 1e140])
def test_compliance_matrix_symmetry_is_relative_to_its_largest_entry(scale):
    # one ulp of asymmetry is rounding at any scale, also where the largest
    # |entry| is negative; 50% is not
    spd = np.array([[3.0, 1.0, 0.5], [1.0, 2.0, 0.25], [0.5, 0.25, 1.0]]) * scale
    for i, j in ((1, 0), (2, 0), (2, 1)):
        matrix = spd.copy()
        matrix[i, j] = np.nextafter(matrix[i, j], math.inf)
        assert ComplianceMatrix(matrix).matrix.tobytes() == matrix.tobytes()
        with pytest.raises(InvariantError, match="positive definite"):
            ComplianceMatrix(-matrix)
        matrix[i, j] *= 1.5
        with pytest.raises(InvariantError, match="symmetric"):
            ComplianceMatrix(matrix)


def test_displacement_sums_in_the_stated_order():
    # d_i = (c_i0 f0 + c_i1 f1) + c_i2 f2, the order of |C u|, with no BLAS
    # call: pinned bitwise on seeded matrices and forces, and on one where
    # the order shows, (1e16 + 1) - 1e16 = 0 where (1e16 - 1e16) + 1 = 1
    rng = np.random.default_rng(2701)
    for _ in range(200):
        desc = desc_with(segment_count=int(rng.integers(1, 9)))
        compliance = firmed_compliance(desc, random_config(rng, desc.segment_count))
        f0, f1, f2 = force = rng.normal(size=3) * 10.0 ** rng.integers(-3, 4)
        rows = compliance.matrix.tolist()
        expected = [(c0 * f0 + c1 * f1) + c2 * f2 for c0, c1, c2 in rows]
        assert compliance.displacement(force).tobytes() == np.array(expected).tobytes()
        assert compliance.displacement(force.tolist()).tobytes() == np.array(expected).tobytes()
        columns = np.stack([force, -force], axis=1)  # one column per force, as C @ F takes them
        assert compliance.displacement(columns)[:, 0].tobytes() == np.array(expected).tobytes()
    spd = ComplianceMatrix([[1.0, 0.5, 0.5], [0.5, 1.0, 0.5], [0.5, 0.5, 1.0]])
    assert spd.displacement([1e16, 2.0, -2e16])[0] == 0.0


def test_compliance_matrix_is_read_only_and_built_once():
    compliance = firmed_compliance(RobotDescription(), Configuration((1, 7, 3, 0, 5), 10))
    assert compliance.matrix is compliance.matrix
    assert compliance.matrix.shape == (3, 3)
    with pytest.raises(ValueError):
        compliance.matrix[0, 0] = 0.0
    with pytest.raises(AttributeError):
        compliance.matrix = np.eye(3)
    for bad in (np.eye(2), np.eye(3)[:, :2], np.ones((3, 3, 1)), [[1.0, 0.0, 0.0]] * 2):
        with pytest.raises(InvariantError, match="must be 3x3"):
            ComplianceMatrix(bad)


@pytest.mark.parametrize("scale", [1e-300, 1e-140, 1.0, 1e140, 1e300])
def test_compliance_matrix_definiteness_at_any_scale(scale):
    # the factorization's pivots are scaled by a power of two first, so
    # neither their products nor the entries' squares leave the float range;
    # a clearly positive or negative eigenvalue decides as eigvalsh does
    rng = np.random.default_rng(2702)
    for _ in range(100):
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        eigenvalues = rng.uniform(0.1, 1.0, size=3)
        eigenvalues[int(rng.integers(3))] *= rng.choice([-1.0, 1e-6, -1e-6])
        matrix = (q * eigenvalues) @ q.T
        matrix = (matrix + matrix.T) / 2.0 * scale
        if np.linalg.eigvalsh(matrix)[0] > 0.0:
            assert ComplianceMatrix(matrix).matrix.tobytes() == matrix.tobytes()
        else:
            with pytest.raises(InvariantError, match="positive definite"):
                ComplianceMatrix(matrix)
    for singular in ([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]], np.zeros((3, 3))):
        with pytest.raises(InvariantError, match="positive definite"):
            ComplianceMatrix(np.array(singular) * scale)


def test_unit_norm_sums_in_the_stated_order():
    # sqrt((x x + y y) + z z) of the vector scaled by the power of two that
    # brings its largest |component| into [0.5, 1): exact, so the scaled
    # vector keeps its bits; on this vector either other order of the sum
    # gives a norm one ulp larger
    x, y, z = 0.6966275474821131, 0.3411339961775049, 0.020602734615138334
    e, scaled, norm = _scaled([4.0 * x, 4.0 * y, 4.0 * z])
    assert (e, scaled) == (2, (x, y, z))
    assert norm == math.sqrt((x * x + y * y) + z * z)
    assert norm < math.sqrt(x * x + (y * y + z * z)) == math.sqrt((x * x + z * z) + y * y)
    # squares of 2**-700 underflow and of 2**700 overflow, scaled ones do not
    assert _scaled([2.0**-700, 0.0, 0.0]) == (-699, (0.5, 0.0, 0.0), 0.5)
    assert _scaled([2.0**700, 2.0**700, 0.0]) == (701, (0.5, 0.5, 0.0), math.sqrt(0.5))
    rng = np.random.default_rng(2703)
    for v in rng.normal(size=(200, 3)).tolist():
        v = [x / math.hypot(*v) for x in v]
        assert _check_unit(v, "u") == _check_unit(np.array(v), "u") == tuple(v)


def test_curve_deflection_of_a_number_has_the_arrays_bits(default_desc):
    config = Configuration((1, 7, 3, 0, 5), 10)
    for tension in (0.0, 5.0, 50.0):
        curve = force_deflection(default_desc, config, tension, X)
        forces = np.linspace(0.0, curve.top_force, 101).tolist() + [curve.threshold_force, 1e300]
        deflections = [curve.deflection(force) for force in forces]
        assert all(type(d) is float for d in deflections)
        assert np.array(deflections).tobytes() == curve.deflection(np.array(forces)).tobytes()
        assert curve.deflection(int(curve.top_force)) == curve.deflection(float(int(curve.top_force)))


def test_compliance_spd_property():
    rng = np.random.default_rng(71)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        desc = desc_with(segment_count=n)
        compliance = firmed_compliance(desc, random_config(rng, n))
        matrix = compliance.matrix
        assert np.array_equal(matrix, matrix.T)
        assert np.linalg.eigvalsh(matrix)[0] > 0.0


def test_spine_twist_closed_form(default_desc):
    torque = 1000.0
    shear = default_desc.youngs_modulus / (2.0 * (1.0 + default_desc.poisson_ratio))
    polar = math.pi * (8.0**4 - 2.0**4) / 32.0
    expected = torque * 30.0 / (polar * shear)
    assert spine_twist(default_desc, torque) == pytest.approx(expected, rel=1e-14)
    # cross-check via quadrature of the per-length twist density
    quadrature, _ = integrate.quad(lambda l: torque / (polar * shear), 0.0, 30.0)
    assert spine_twist(default_desc, torque) == pytest.approx(quadrature, rel=1e-12)
    assert spine_twist(default_desc, 0.0) == 0.0
    assert spine_twist(default_desc, 2.0 * torque) == pytest.approx(
        2.0 * spine_twist(default_desc, torque), rel=1e-14
    )
    with pytest.raises(PlcError):
        spine_twist(default_desc, math.inf)


def test_skin_twist_independent_of_convolutions(default_desc):
    torque = 500.0
    values = [
        skin_twist(dataclasses.replace(default_desc, skin_convolutions=n), torque)
        for n in (2, 4, 6, 8)
    ]
    for value in values[1:]:
        assert value == pytest.approx(values[0], rel=1e-9)
    assert skin_twist(default_desc, 0.0) == 0.0


def test_constant_diameter_skin_matches_tube_formula(default_desc):
    torque, diameter, thickness = 800.0, 20.0, 0.75
    shear = default_desc.shear_modulus
    length = default_desc.curve_length
    value = bellows_twist(torque, length, diameter, diameter, thickness, 5, shear)
    outer_r, inner_r = diameter / 2.0, diameter / 2.0 - thickness
    tube = 2.0 * length * torque / (math.pi * (outer_r**4 - inner_r**4) * shear)
    assert value == pytest.approx(tube, rel=1e-8)


def _bellows_twist_by_quadrature(torque, length, d_in, d_out, thickness, convolutions, shear):
    """Reference: numerically integrate T / (J(l) G) over each half convolution."""
    half = length / (2.0 * convolutions)
    slope = (d_out - d_in) / half

    def density(l):
        radius = (d_in + slope * l) / 2.0
        polar = 0.5 * math.pi * (radius**4 - (radius - thickness) ** 4)
        return torque / (polar * shear)

    value, _ = integrate.quad(density, 0.0, half, epsabs=0.0, epsrel=1e-13)
    return 2.0 * convolutions * value


@pytest.mark.parametrize("d_in,d_out", [(17.0, 22.0), (4.0, 30.0), (12.0, 12.5), (2.0, 2.4)])
@pytest.mark.parametrize("thickness", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("convolutions", [1, 4, 9])
def test_bellows_twist_matches_quadrature(default_desc, d_in, d_out, thickness, convolutions):
    shear = default_desc.shear_modulus
    value = bellows_twist(750.0, 30.0, d_in, d_out, thickness, convolutions, shear)
    reference = _bellows_twist_by_quadrature(750.0, 30.0, d_in, d_out, thickness, convolutions, shear)
    assert value == pytest.approx(reference, rel=1e-10)


def test_near_tube_bellows_matches_tube_formula(default_desc):
    torque, diameter, thickness = 800.0, 20.0, 0.75
    shear = default_desc.shear_modulus
    length = default_desc.curve_length
    value = bellows_twist(torque, length, diameter, diameter + 1e-6, thickness, 3, shear)
    # a 1e-6 mm ramp is a tube of the mean diameter up to O((1e-6 / r)^2)
    outer_r = (diameter + 0.5e-6) / 2.0
    inner_r = outer_r - thickness
    tube = 2.0 * length * torque / (math.pi * (outer_r**4 - inner_r**4) * shear)
    assert value == pytest.approx(tube, rel=1e-8)


def test_bellows_twist_rejects_bad_geometry(default_desc):
    shear = default_desc.shear_modulus
    with pytest.raises(PlcError):
        bellows_twist(1.0, 30.0, 22.0, 17.0, 0.5, 4, shear)  # inner > outer
    with pytest.raises(PlcError):
        bellows_twist(1.0, 30.0, 17.0, 22.0, 9.0, 4, shear)  # wall too thick
    with pytest.raises(PlcError):
        bellows_twist(1.0, 30.0, 17.0, 22.0, 0.5, 0, shear)


def test_literal_polar_flag_halves_transverse_compliance():
    desc = desc_with(segment_count=1)
    config = Configuration((0,), 10)
    standard = firmed_compliance(desc, config).matrix
    literal = firmed_compliance(desc, config, literal_polar=True).matrix
    assert literal[0, 0] == pytest.approx(standard[0, 0] / 2.0, rel=1e-15)
    assert literal[2, 2] == standard[2, 2]


# stdout SHA-256 of stiffness commands on the reference robot and on a
# 7-segment, 12-tooth, 45-degree one, as the per-segment sum printed them
# before the closed form replaced it; the same under FMA and non-FMA BLAS
STIFFNESS_DIGESTS = {
    ("default", "firm --sphere 500"): "ab31dacfcc5c577da61a19f30910d83b204699a8200f4ca0e416d002419ada71",
    ("default", "firm --sphere 500 --literal-polar"): "3aedc1659b77da52b1bf4afed36e93e36ce661cf078f6a68acde26f3539d7769",
    ("default", "firm --direction 1,2,3"): "62baee226cf29b5e89bb98c2d12b3fd23240cb3d43f7d5c5f9999966804ca4f8",
    ("default", "curve --tension 20 --direction 0,1,1"): "71b53a78cae1738c0356a9749c7e1b8173c2b351f0cdfbe708b2f6b9fd229093",
    ("seven", "firm --sphere 500"): "abc02f5ee97107ec9cf5d49020b01346b75adf068b599ab5bac2dac6165933be",
    ("seven", "firm --sphere 500 --literal-polar"): "2cbdb70d7b8dabc241cae17f27abc56e39622d5d70359d5b9a34c61e989de8bf",
    ("seven", "firm --direction 1,2,3"): "a35372d8ab10aa45899d25c36ec866d497552585c157e2d34bebddba54cc5702",
    ("seven", "curve --tension 20 --direction 0,1,1"): "5ca9a8d650a35207177f472590cd108d4ce1b316235389f813c31e23aa38f00c",
}


def test_stiffness_outputs_keep_their_digests(capsys, tmp_path):
    seven = tmp_path / "seven.yaml"
    seven.write_text("segment_count: 7\ntooth_count: 12\nbend_angle: 45\n")
    robots = {"default": ("default", "1,7,3,0,5"), "seven": (str(seven), "0,3,6,9,11,2,5")}
    digests = {}
    for robot, command in STIFFNESS_DIGESTS:
        path, config = robots[robot]
        assert main(["stiffness", *command.split(), "--robot", path, "--config", config]) == 0
        digests[robot, command] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == STIFFNESS_DIGESTS
