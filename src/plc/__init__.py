"""Discrete kinematics, workspace indexing, stiffness models, and actuation
planning for tendon-driven locking-cell modular robots.

The public names below are loaded on first use (PEP 562), so ``import plc``
loads no submodule, and with them neither numpy nor PyYAML: each ``plc``
command pays only for the modules it runs.
"""
import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines
_PUBLIC = {
    "model": (
        "Configuration",
        "InvariantError",
        "PlcError",
        "RigidTransform",
        "RobotDescription",
        "SchemaError",
        "parse_robot_description",
        "serialize_robot_description",
    ),
    "kinematics": ("chain_pose", "tool_position"),
    "workspace": (
        "WorkspaceIndex",
        "enumerate_workspace",
        "local_omnivariance",
        "omnivariance",
        "position_key",
        "reach_accuracy",
    ),
    "ik": ("IkSolution", "solve_ik"),
    "stiffness": (
        "ComplianceMatrix",
        "ForceDeflectionCurve",
        "directional_stiffness",
        "firmed_compliance",
        "force_deflection",
        "loosening_threshold",
        "skin_twist",
        "spine_twist",
        "stiffness_map",
    ),
    "planner": (
        "ActuationStep",
        "JointState",
        "Lock",
        "RotateShaft",
        "Unlock",
        "all_locked",
        "plan_to",
        "simulate",
    ),
    "normalize": (
        "DesignRecord",
        "build_comparison",
        "builtin_designs",
        "load_designs",
        "normalize_stiffness",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
