"""The package's public surface: what ``plc`` exports, which functions its
modules define, the members of its value types, and the keyword options its
functions take.  Each job has one way to do it, so a second way added back
shows up here."""
import dataclasses
import inspect
import sys

import plc
from plc import (
    ComplianceMatrix,
    Configuration,
    DesignRecord,
    ForceDeflectionCurve,
    RigidTransform,
    RobotDescription,
    WorkspaceIndex,
    files,
    kinematics,
    normalize,
    planner,
    stiffness,
    workspace,
)


def functions_of(module, private=False):
    """Names of the functions ``module`` defines (not the ones it imports),
    cached ones included."""
    return {
        name
        for name, value in vars(module).items()
        if inspect.isfunction(inspect.unwrap(value))
        and value.__module__ == module.__name__
        and (private or not name.startswith("_"))
    }


def members_of(cls):
    """The fields of ``cls`` and every name its class body defines, less the
    entries Python and ``dataclass`` add (``__doc__``, ``__init__``, ...)."""
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    source = sys.modules[cls.__module__].__file__
    for name, value in vars(cls).items():
        written = inspect.isfunction(value) and value.__code__.co_filename == source
        if written or not name.startswith("__"):
            names.add(name)
    return names


def test_all_is_sorted_unique_and_resolves():
    assert plc.__all__ == sorted(plc.__all__)
    assert len(set(plc.__all__)) == len(plc.__all__)
    for name in plc.__all__:
        assert getattr(plc, name) is not None, name


def test_all_lists_every_public_name_of_the_package():
    # dir(), not vars(): the package loads its names on first use, so vars()
    # holds only those some earlier code happened to read
    public = {
        name
        for name in dir(plc)
        if not name.startswith("_") and not inspect.ismodule(getattr(plc, name))
    }
    assert public | {"__version__"} == set(plc.__all__)


def test_modules_define_one_way_to_do_each_job():
    # one unit transform (_unit_row), and R R_k (_rotate) and p + R t
    # (_translate) once each, in one stated order: each runs on Python
    # floats for a single pose and on numpy columns for the enumeration
    # (_stepped, one block of prefix poses against every tooth at a time);
    # one walk (_walk) serves chain_pose, tool_position, the firmed
    # compliance and `plc fk`
    assert functions_of(kinematics, private=True) == {
        "_rotate",
        "_translate",
        "_unit_row",
        "_unit_rows",
        "_walk",
        "chain_pose",
        "_stepped",
        "tip_positions",
        "tool_position",
    }
    # buckets are read through bucket_ranks and configuration_from_rank
    assert functions_of(workspace) == {
        "position_key",
        "configuration_from_rank",
        "enumerate_workspace",
        "reach_accuracy",
        "omnivariance",
        "local_omnivariance",
    }
    # a capped document is read whole, a query file one line at a time
    assert functions_of(files) == {"read_text", "read_lines", "atomic_open"}
    assert functions_of(normalize) == {
        "normalize_stiffness",
        "build_comparison",
        "parse_designs_csv",
        "load_designs",
        "builtin_designs",
    }
    # one statement of the firmed compliance; the energy method that checks
    # it lives in the test oracles
    assert functions_of(stiffness) == {
        "compliance_from_axes",
        "firmed_compliance",
        "directional_stiffness",
        "fibonacci_sphere",
        "stiffness_map",
        "loosening_threshold",
        "force_deflection",
        "spine_twist",
        "bellows_twist",
        "skin_twist",
    }
    # one step is simulate(state, [step]), so the step rules are written once
    assert functions_of(planner) == {"all_locked", "simulate", "plan_to"}
    assert "angle" not in vars(planner.RotateShaft)


def test_stiffness_functions_take_no_unused_options():
    def parameters(function):
        return list(inspect.signature(function).parameters)

    assert parameters(stiffness.skin_twist) == ["desc", "torque"]
    assert parameters(stiffness.stiffness_map) == [
        "desc",
        "config",
        "sphere_samples",
        "literal_polar",
    ]
    assert "SAMPLE_FORCE" not in vars(stiffness)  # a linear map needs no sample force
    # a sphere map is one structured array, with no record type of its own
    assert "StiffnessSample" not in vars(stiffness)


def test_value_types_carry_only_what_the_library_reads():
    description_fields = {f.name for f in dataclasses.fields(RobotDescription)}
    assert members_of(RobotDescription) - description_fields == {
        "__post_init__",
        "raw_configuration_count",
        "shear_modulus",
        "spine_cross_section_area",
        "spine_bending_inertia",
        "spine_polar_inertia",
        "check_configuration",
    }
    assert members_of(Configuration) == {"indices", "tooth_count", "__post_init__"}
    assert members_of(RigidTransform) == {
        "rotation",
        "translation",
        "__post_init__",
        "transform_point",
    }
    # the rows as Python floats, and the array built from them on first read
    assert members_of(ComplianceMatrix) == {"__init__", "_rows", "_matrix", "matrix", "displacement"}
    # the breakpoint is derived, so it cannot disagree with the slopes
    assert [f.name for f in dataclasses.fields(ForceDeflectionCurve)] == [
        "threshold_force",
        "firm_slope",
        "loose_slope",
    ]
    assert members_of(ForceDeflectionCurve) == {
        "threshold_force",
        "firm_slope",
        "loose_slope",
        "__post_init__",
        "breakpoint_deflection",
        "top_force",
        "deflection",
    }
    # the normalized extremes are derived, so no second record type carries them
    assert members_of(DesignRecord) == {
        "name",
        "k_max",
        "k_min",
        "length",
        "radius",
        "__post_init__",
        "has_geometry",
        "ratio",
        "k_max_normalized",
        "k_min_normalized",
    }
    assert "ComparisonRow" not in vars(normalize)
    # an index is a build or a file that load checked: no caller's arrays to
    # cast, and no flag for whether the points are tool tips
    assert "_as_uint32" not in vars(workspace)
    index = workspace.enumerate_workspace(RobotDescription(segment_count=1))
    assert set(vars(index)) == {"desc", "points", "bucket_offsets", "bucket_members", "_scanned"}
    assert members_of(WorkspaceIndex) == {
        "__init__",
        "tree",
        "_scans",
        "point_count",
        "configuration_count",
        "bucket_ranks",
        "nearest_point_indices",
        "nearest_point_index",
        "save",
        "_write",
        "load",
    }
