"""The package's public surface: what ``plc`` exports, which functions its
modules define, and the keyword options its functions take.  Each job has
one way to do it, so a second way added back shows up here."""
import inspect

import plc
from plc import WorkspaceIndex, kinematics, normalize, planner, stiffness, workspace


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


def test_all_is_sorted_unique_and_resolves():
    assert plc.__all__ == sorted(plc.__all__)
    assert len(set(plc.__all__)) == len(plc.__all__)
    for name in plc.__all__:
        assert getattr(plc, name) is not None, name


def test_all_lists_every_public_name_of_the_package():
    public = {
        name
        for name, value in vars(plc).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public | {"__version__"} == set(plc.__all__)


def test_modules_define_one_way_to_do_each_job():
    # one unit transform (the cached table) and one tool-tip expression
    assert functions_of(kinematics, private=True) == {
        "unit_table",
        "_step",
        "chain_pose",
        "_prefix_poses",
        "tip_positions",
        "_prefix_table",
        "tool_position",
    }
    # buckets are read through bucket_ranks and configuration_from_rank
    assert functions_of(workspace) == {
        "position_key",
        "atomic_open",
        "configuration_from_rank",
        "enumerate_workspace",
        "reach_accuracy",
        "omnivariance",
        "local_omnivariance",
    }
    assert {name for name in vars(WorkspaceIndex) if not name.startswith("_")} == {
        "tree",
        "point_count",
        "configuration_count",
        "bucket_size",
        "bucket_ranks",
        "nearest_point_indices",
        "nearest_point_index",
        "save",
        "load",
    }
    assert functions_of(normalize) == {
        "normalize_stiffness",
        "build_comparison",
        "parse_designs_csv",
        "load_designs",
        "builtin_designs",
    }
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
    assert stiffness.SAMPLE_FORCE == 50.0
