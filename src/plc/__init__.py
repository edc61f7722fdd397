"""Discrete kinematics, workspace indexing, stiffness models, and actuation
planning for tendon-driven locking-cell modular robots."""

from .model import (
    Configuration,
    InvariantError,
    PlcError,
    RigidTransform,
    RobotDescription,
    SchemaError,
    parse_robot_description,
    serialize_robot_description,
)
from .kinematics import chain_pose, tool_position
from .workspace import (
    WorkspaceIndex,
    enumerate_workspace,
    local_omnivariance,
    omnivariance,
    position_key,
    reach_accuracy,
)
from .ik import IkSolution, solve_ik
from .stiffness import (
    ComplianceMatrix,
    ForceDeflectionCurve,
    directional_stiffness,
    firmed_compliance,
    force_deflection,
    loosening_threshold,
    segment_strain_energy,
    skin_twist,
    spine_twist,
    stiffness_map,
)
from .planner import (
    ActuationStep,
    JointState,
    Lock,
    RotateShaft,
    Unlock,
    all_locked,
    plan_to,
    simulate,
    simulate_step,
)
from .normalize import (
    DesignRecord,
    build_comparison,
    builtin_designs,
    load_designs,
    normalize_stiffness,
)

__version__ = "0.1.0"

__all__ = [
    "ActuationStep",
    "ComplianceMatrix",
    "Configuration",
    "DesignRecord",
    "ForceDeflectionCurve",
    "IkSolution",
    "InvariantError",
    "JointState",
    "Lock",
    "PlcError",
    "RigidTransform",
    "RobotDescription",
    "RotateShaft",
    "SchemaError",
    "Unlock",
    "WorkspaceIndex",
    "__version__",
    "all_locked",
    "build_comparison",
    "builtin_designs",
    "chain_pose",
    "directional_stiffness",
    "enumerate_workspace",
    "firmed_compliance",
    "force_deflection",
    "load_designs",
    "local_omnivariance",
    "loosening_threshold",
    "normalize_stiffness",
    "omnivariance",
    "parse_robot_description",
    "plan_to",
    "position_key",
    "reach_accuracy",
    "segment_strain_energy",
    "serialize_robot_description",
    "simulate",
    "simulate_step",
    "skin_twist",
    "solve_ik",
    "spine_twist",
    "stiffness_map",
    "tool_position",
]
