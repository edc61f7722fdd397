import dataclasses
import math

import numpy as np
import pytest

from plc import (
    Configuration,
    InvariantError,
    RigidTransform,
    RobotDescription,
    SchemaError,
    enumerate_workspace,
    parse_robot_description,
    serialize_robot_description,
)
from plc.model import MAX_TOOTH_COUNT, description_digest, index_angle

from conftest import desc_with

REFERENCE_DOCUMENT = """
segment_count: 5
curve_length: 30
bend_angle: 30
tooth_count: 10
youngs_modulus: 115
spine_outer_diameter: 8
spine_inner_diameter: 2
skin_outer_diameter: 22
skin_inner_diameter: 17
"""


def test_defaults_match_reference_robot():
    desc = RobotDescription()
    assert desc.segment_count == 5
    assert desc.curve_length == 30.0
    assert desc.bend_angle == math.radians(30.0)
    assert desc.tooth_count == 10
    assert 100.0 <= desc.youngs_modulus <= 130.0
    assert desc.spine_outer_diameter == 8.0
    assert desc.spine_inner_diameter == 2.0
    assert desc.skin_outer_diameter == 22.0
    assert desc.skin_inner_diameter == 17.0
    assert desc.tendon_anchor_radius == 6.0
    assert desc.lever_arm == 20.0


def test_parse_reference_document():
    desc = parse_robot_description(REFERENCE_DOCUMENT)
    assert desc.curve_length == 30.0
    assert desc.bend_angle == math.radians(30.0)
    assert desc.spine_outer_diameter == 8.0
    assert desc.segment_count == 5


def test_parse_fills_defaults():
    desc = parse_robot_description("curve_length: 25\n")
    assert desc.curve_length == 25.0
    assert desc.tooth_count == 10  # default matches the discrete 36-degree grid
    assert desc.tool_offset == (0.0, 0.0, 0.0)


def test_parse_rejects_equal_spine_diameters():
    doc = "spine_inner_diameter: 8\nspine_outer_diameter: 8\n"
    with pytest.raises(InvariantError, match="inner diameter must be < outer"):
        parse_robot_description(doc)


def test_parse_rejects_unknown_field():
    with pytest.raises(SchemaError, match="spine_diameter"):
        parse_robot_description("spine_diameter: 8\n")
    # keys of mixed types do not sort, so they are named in string order
    with pytest.raises(SchemaError, match="unknown field '1'"):
        parse_robot_description("1: 2\na: 3\n")


def test_parse_rejects_bad_types():
    with pytest.raises(SchemaError, match="tooth_count"):
        parse_robot_description("tooth_count: ten\n")
    with pytest.raises(SchemaError, match="tooth_count"):
        parse_robot_description("tooth_count: 10.5\n")
    with pytest.raises(SchemaError, match="youngs_modulus"):
        parse_robot_description("youngs_modulus: [100, 130]\n")
    with pytest.raises(SchemaError, match="tool_offset"):
        parse_robot_description("tool_offset: [1, 2]\n")
    with pytest.raises(SchemaError):
        parse_robot_description("- just\n- a list\n")


def test_parse_accepts_any_chain_length_and_enumeration_checks_the_budget():
    # parsing never enumerates, so it takes a 10**12-configuration robot;
    # only the enumeration refuses it, as more than any host's memory
    desc = parse_robot_description("segment_count: 12\ntooth_count: 10\n")
    assert desc.segment_count == 12
    with pytest.raises(InvariantError, match="raw configuration count 1000000000000 needs about"):
        enumerate_workspace(desc)


@pytest.mark.parametrize("bad", ["a", None, True])
@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RobotDescription)])
def test_constructor_refuses_wrong_types(name, bad):
    with pytest.raises(SchemaError, match=f"field '{name}'"):
        RobotDescription(**{name: bad})


@pytest.mark.parametrize("bad", ["a", None, True])
def test_constructor_refuses_wrong_tool_offset_components(bad):
    with pytest.raises(SchemaError, match="field 'tool_offset' must be a number"):
        RobotDescription(tool_offset=(0.0, bad, 0.0))


def test_constructor_stores_numbers_as_float():
    desc = RobotDescription(curve_length=30, bend_angle=np.float64(0.5), tool_offset=[0, 1, 2])
    assert type(desc.curve_length) is float and type(desc.bend_angle) is float
    assert desc.tool_offset == (0.0, 1.0, 2.0)
    assert all(type(v) is float for v in desc.tool_offset)
    assert desc == RobotDescription(curve_length=30.0, bend_angle=0.5, tool_offset=(0.0, 1.0, 2.0))


@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"bend_angle": 0.523598775598, "curve_length": 29.1234567890123},
        {"tendon_stiffness": 1.2e-07, "tool_offset": (0.1, -2.5e-11, 3.0)},
        {"segment_count": 2, "tooth_count": 24, "poisson_ratio": 0.499999},
        {"bend_angle": 1.5707963267948965 - 1e-9},
    ],
)
def test_serialize_parse_round_trip(overrides):
    desc = desc_with(**overrides)
    # one trip settles bend_angle onto a degree-representable value (worst
    # case 1 ulp off a purely programmatic radian value); every further
    # serialize/parse trip is then an exact identity, field for field
    settled = parse_robot_description(serialize_robot_description(desc))
    assert settled.bend_angle == pytest.approx(desc.bend_angle, rel=1e-15)
    assert dataclasses.replace(settled, bend_angle=desc.bend_angle) == desc
    again = parse_robot_description(serialize_robot_description(settled))
    assert again == settled
    assert description_digest(again) == description_digest(settled)


def test_parsed_documents_round_trip_exactly():
    document = "bend_angle: 28.7341\ncurve_length: 31.25\ntooth_count: 12\n"
    desc = parse_robot_description(document)
    assert parse_robot_description(serialize_robot_description(desc)) == desc


@pytest.mark.parametrize("teeth,degrees", [(10, 36.0), (360, 1.0), (24, 15.0)])
def test_tooth_pitch(teeth, degrees):
    desc = desc_with(tooth_count=teeth)
    pitch = index_angle(1, desc.tooth_count)
    assert pitch == 2.0 * math.pi / teeth
    assert math.degrees(pitch) == pytest.approx(degrees, rel=1e-12)


def test_configuration_angles_are_exact():
    config = Configuration((0, 3, 7, 9), 10)
    expected = np.array([(2.0 * math.pi * k) / 10 for k in (0, 3, 7, 9)])
    assert np.array_equal(index_angle(config.indices, config.tooth_count), expected)


def test_configuration_validation():
    with pytest.raises(InvariantError):
        Configuration((10,), 10)
    with pytest.raises(InvariantError):
        Configuration((-1,), 10)
    with pytest.raises(InvariantError):
        Configuration((0.5,), 10)
    with pytest.raises(InvariantError):
        Configuration((), 10)
    for flag in (True, np.bool_(False)):
        with pytest.raises(InvariantError, match="must be an integer"):
            Configuration((flag,), 10)
    config = Configuration((np.int64(3), np.uint8(7)), 10)  # numpy integers, stored as int
    assert config.indices == (3, 7) and {type(k) for k in config.indices} == {int}

    class Tooth(int):
        pass

    # int subclasses and mixes with numpy ints take the slow path, stored as int
    for indices in ((Tooth(3), 4), (1, np.int64(2), 3)):
        config = Configuration(indices, 10)
        assert config.indices == tuple(int(k) for k in indices)
        assert {type(k) for k in config.indices} == {int}
    with pytest.raises(InvariantError, match=r"tooth index 10 outside \[0, 10\)"):
        Configuration((0, 10, True), 10)  # the first offending element is named
    for teeth in (np.int64(10), True):
        with pytest.raises(InvariantError, match="tooth_count must be an integer"):
            Configuration((0,), teeth)
    assert Configuration((0, 9), Tooth(10)).indices == (0, 9)
    desc = RobotDescription()
    with pytest.raises(InvariantError, match="joints"):
        desc.check_configuration(Configuration((0, 0), 10))
    with pytest.raises(InvariantError, match="tooth count"):
        desc.check_configuration(Configuration((0,) * 5, 12))


def test_rigid_transform_validation():
    with pytest.raises(InvariantError, match="orthonormal"):
        RigidTransform(np.eye(3) * 1.001, np.zeros(3))
    # every entry of R^T R - I within 1e-12: 2e-11 on the diagonal or 1e-11
    # off it is refused, 2e-13 is rounding
    sheared = np.eye(3)
    sheared[0, 1] = 1e-11
    for matrix in (np.eye(3) * (1.0 + 1e-11), sheared):
        with pytest.raises(InvariantError, match="orthonormal"):
            RigidTransform(matrix, np.zeros(3))
    RigidTransform(np.eye(3) * (1.0 + 1e-13), np.zeros(3))
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(InvariantError, match="determinant"):
        RigidTransform(reflection, np.zeros(3))
    with pytest.raises(InvariantError):
        RigidTransform(np.eye(3), np.zeros(2))


def test_rigid_transform_rejects_non_finite_values():
    with pytest.raises(InvariantError, match=r"orthonormal \(max error nan\)"):
        RigidTransform(np.full((3, 3), np.nan), np.zeros(3))
    for bad in (np.nan, np.inf):
        with pytest.raises(InvariantError, match="translation must be finite"):
            RigidTransform(np.eye(3), np.array([bad, 0.0, 0.0]))


def test_rigid_transform_compose_and_apply():
    quarter = RigidTransform(
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]),
        np.array([1.0, 0.0, 0.0]),
    )
    half = RigidTransform(
        quarter.rotation @ quarter.rotation,
        quarter.rotation @ quarter.translation + quarter.translation,
    )
    assert np.allclose(quarter.transform_point([1.0, 0.0, 0.0]), [1.0, 1.0, 0.0])
    twice = quarter.transform_point(quarter.transform_point([1.0, 0.0, 0.0]))
    assert np.allclose(half.transform_point([1.0, 0.0, 0.0]), twice)


def test_types_are_immutable():
    desc = RobotDescription()
    with pytest.raises(dataclasses.FrozenInstanceError):
        desc.curve_length = 10.0
    config = Configuration((0,), 10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.indices = (1,)
    transform = RigidTransform(np.eye(3), np.zeros(3))
    with pytest.raises(ValueError):
        transform.rotation[0, 0] = 2.0  # arrays are write-locked


@pytest.mark.parametrize(
    "overrides,message",
    [
        ({"bend_angle": math.pi / 2}, "bend_angle"),
        ({"bend_angle": 0.0}, "bend_angle"),
        ({"poisson_ratio": 0.5}, "poisson_ratio"),
        ({"curve_length": 0.0}, "curve_length"),
        ({"tendon_stiffness": -1.0}, "tendon_stiffness"),
        ({"skin_thickness": 9.0}, "skin_thickness"),
        ({"segment_count": 0}, "segment_count"),
        ({"tooth_count": 1}, "tooth_count"),
        ({"skin_inner_diameter": 22.0}, "inner diameter must be < outer"),
        ({"youngs_modulus": 0.0}, "youngs_modulus must be > 0"),
    ],
)
def test_description_invariants(overrides, message):
    with pytest.raises(InvariantError, match=message):
        desc_with(**overrides)


def test_tooth_count_is_bounded():
    # every command builds per-tooth tables, so the bound guards them all
    assert desc_with(tooth_count=MAX_TOOTH_COUNT).tooth_count == MAX_TOOTH_COUNT
    with pytest.raises(InvariantError, match=f"tooth_count must be in \\[2, {MAX_TOOTH_COUNT}\\]"):
        desc_with(tooth_count=MAX_TOOTH_COUNT + 1)
    with pytest.raises(InvariantError, match="tooth_count"):
        parse_robot_description("segment_count: 1\ntooth_count: 10000000000\n")
