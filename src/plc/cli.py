"""Command-line front end: fk, workspace, ik, stiffness, plan, normalize.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 I/O error.
All numeric output is fixed at 9 significant digits so identical inputs
produce byte-identical files across runs and platforms.  File outputs are
written to a temporary file and renamed, so failed runs never leave partial
files behind.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .ik import METRICS, solve_ik
from .kinematics import chain_pose, tool_tip
from .model import (
    Configuration,
    PlcError,
    RobotDescription,
    description_digest,
    parse_robot_description,
)
from .normalize import build_comparison, builtin_designs, load_designs
from .planner import Lock, RotateShaft, Unlock, all_locked, plan_to, simulate
from .stiffness import (
    directional_stiffness,
    force_deflection,
    skin_twist,
    spine_twist,
    stiffness_map,
)
from .workspace import (
    DEFAULT_ENUMERATION_BUDGET,
    INDEX_FORMAT_VERSION,
    WorkspaceIndex,
    atomic_open,
    enumerate_workspace,
    local_omnivariance,
    omnivariance,
    reach_accuracy,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_IO = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract says 1
        raise _UsageError(message)


def _fmt(value: float) -> str:
    value = float(value)
    if value == 0.0:
        value = 0.0  # collapse -0.0 for stable goldens
    return format(value, ".9g")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with atomic_open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise PlcError(f"expected comma-separated integers, got {text!r}") from None


def _parse_vector(text: str) -> np.ndarray:
    try:
        parts = [float(part.strip()) for part in text.split(",")]
    except ValueError:
        raise PlcError(f"expected comma-separated numbers, got {text!r}") from None
    if len(parts) != 3:
        raise PlcError(f"expected 3 components, got {len(parts)}")
    if not all(math.isfinite(p) for p in parts):
        raise PlcError(f"vector components must be finite, got {text!r}")
    return np.array(parts)


def _parse_direction(text: str) -> np.ndarray:
    v = _parse_vector(text)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise PlcError("direction must be nonzero")
    return v / norm


def _load_description(args) -> RobotDescription:
    if args.robot == "default":
        return RobotDescription()
    with open(args.robot, "r", encoding="utf-8") as fh:
        return parse_robot_description(fh.read())


def _config_for(desc: RobotDescription, text: str) -> Configuration:
    config = Configuration(_parse_indices(text), desc.tooth_count)
    desc.check_configuration(config)
    return config


def _cache_path(desc: RobotDescription) -> Path:
    root = Path(os.environ.get("PLC_CACHE_DIR", "~/.cache/plc")).expanduser()
    return root / f"workspace-{description_digest(desc).hex()[:16]}.plcw"


def _load_or_build_index(desc: RobotDescription, args) -> WorkspaceIndex:
    if getattr(args, "index", None):
        return WorkspaceIndex.load(args.index, desc)
    cache = _cache_path(desc)
    if cache.exists():
        try:
            return WorkspaceIndex.load(cache, desc)
        except PlcError:
            pass  # stale or foreign cache entry: rebuild below
    index = enumerate_workspace(desc, budget=args.budget)
    cache.parent.mkdir(parents=True, exist_ok=True)
    index.save(cache)
    return index


def _read_queries(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            try:
                row = [float(p) for p in parts[:3]]
            except ValueError:
                if rows:
                    raise PlcError(f"bad query row: {line!r}") from None
                continue  # header line
            if len(row) != 3:
                raise PlcError(f"query rows must have 3 columns (x,y,z), got {line!r}")
            if not all(math.isfinite(v) for v in row):
                raise PlcError(f"query coordinates must be finite, got {line!r}")
            rows.append(row)
    if not rows:
        raise PlcError("query file contains no points")
    return np.array(rows)


# -- subcommands ---------------------------------------------------------------


def _cmd_fk(args) -> int:
    desc = _load_description(args)
    config = _config_for(desc, args.config)
    end, _ = chain_pose(desc, config)
    tip = tool_tip(end, desc.tool_offset)
    header = (
        "x_mm,y_mm,z_mm,"
        "r11,r12,r13,r21,r22,r23,r31,r32,r33,"
        "tip_x_mm,tip_y_mm,tip_z_mm"
    )
    values = [*end.translation, *end.rotation.ravel(), *tip]
    _emit(args, header + "\n" + ",".join(_fmt(v) for v in values) + "\n")
    return EXIT_OK


def _cmd_workspace_build(args) -> int:
    desc = _load_description(args)
    index = enumerate_workspace(desc, budget=args.budget)
    path = Path(args.out) if args.out else _cache_path(desc)
    path.parent.mkdir(parents=True, exist_ok=True)
    index.save(path)
    print(
        f"wrote {path} ({index.point_count} points, "
        f"{index.configuration_count} configurations)",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_workspace_export(args) -> int:
    desc = _load_description(args)
    index = _load_or_build_index(desc, args)
    if args.format == "csv":
        lines = ["x,y,z,bucket_size"]
        for g in range(index.point_count):
            x, y, z = index.points[g]
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(z)},{index.bucket_size(g)}")
        _emit(args, "\n".join(lines) + "\n")
    else:
        lines = [
            "ply",
            "format ascii 1.0",
            f"element vertex {index.point_count}",
            "property double x",
            "property double y",
            "property double z",
            "end_header",
        ]
        for point in index.points:
            lines.append(" ".join(_fmt(v) for v in point))
        _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_workspace_omnivariance(args) -> int:
    desc = _load_description(args)
    index = _load_or_build_index(desc, args)
    if args.local:
        values = local_omnivariance(index.points, args.local)
        lines = ["x,y,z,local_omnivariance"]
        for point, value in zip(index.points, values):
            lines.append(",".join(_fmt(v) for v in (*point, value)))
        _emit(args, "\n".join(lines) + "\n")
    else:
        _emit(args, _fmt(omnivariance(index.points)) + "\n")
    return EXIT_OK


def _cmd_workspace_accuracy(args) -> int:
    desc = _load_description(args)
    index = _load_or_build_index(desc, args)
    queries = _read_queries(args.queries)
    _emit(args, _fmt(reach_accuracy(index, queries)) + "\n")
    return EXIT_OK


def _cmd_ik(args) -> int:
    desc = _load_description(args)
    index = WorkspaceIndex.load(args.index, desc)
    target = _parse_vector(args.target)
    if args.reference:
        reference = _config_for(desc, args.reference)
    else:
        reference = Configuration((0,) * desc.segment_count, desc.tooth_count)
    solution = solve_ik(index, desc, target, reference, metric=args.metric, seed=args.seed)
    header = "config,achieved_x_mm,achieved_y_mm,achieved_z_mm,error_mm,candidate_count"
    row = ",".join(
        [
            " ".join(str(k) for k in solution.config.indices),
            *(_fmt(v) for v in solution.achieved_position),
            _fmt(solution.position_error),
            str(solution.candidate_count),
        ]
    )
    _emit(args, header + "\n" + row + "\n")
    return EXIT_OK


def _cmd_stiffness_firm(args) -> int:
    desc = _load_description(args)
    config = _config_for(desc, args.config)
    header = "ux,uy,uz,stiffness_n_per_mm,compliance_mm_per_n"
    lines = [header]
    if args.direction:
        direction = _parse_direction(args.direction)
        stiff = directional_stiffness(desc, config, direction, args.literal_polar)
        lines.append(
            ",".join(_fmt(v) for v in (*direction, stiff, 1.0 / stiff))
        )
    else:
        for sample in stiffness_map(
            desc, config, args.sphere, literal_polar=args.literal_polar
        ):
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (*sample.direction, sample.stiffness, sample.compliance)
                )
            )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_stiffness_curve(args) -> int:
    desc = _load_description(args)
    config = _config_for(desc, args.config)
    direction = _parse_direction(args.direction)
    curve = force_deflection(desc, config, args.tension, direction, args.literal_polar)
    top = 2.0 * curve.threshold_force if curve.threshold_force > 0 else 10.0
    forces = np.unique(np.append(np.linspace(0.0, top, 81), curve.threshold_force))
    lines = ["force_n,deflection_mm"]
    for force in forces:
        lines.append(f"{_fmt(force)},{_fmt(curve.deflection(force))}")
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_stiffness_twist(args) -> int:
    desc = _load_description(args)
    if args.skin:
        value = skin_twist(desc, args.torque)
    else:
        value = spine_twist(desc, args.torque)
    _emit(args, _fmt(value) + "\n")
    return EXIT_OK


def _cmd_plan(args) -> int:
    desc = _load_description(args)
    start = _config_for(desc, args.start)
    goal = _config_for(desc, args.goal)
    steps = plan_to(desc, start, goal)
    degrees_per_pitch = 360.0 / desc.tooth_count
    lines = []
    for step in steps:
        if isinstance(step, Unlock):
            lines.append(f"unlock {step.joint}")
        elif isinstance(step, Lock):
            lines.append(f"lock {step.joint}")
        elif isinstance(step, RotateShaft):
            lines.append(f"rotate {step.pitch_steps * degrees_per_pitch:+.9g}")
    if args.verify:
        final = simulate(all_locked(start), steps)
        if final.config != goal or final.unlocked_joints:
            raise PlcError("plan verification failed to reach the goal")
        lines.append("final " + ",".join(str(k) for k in final.config.indices))
    _emit(args, ("\n".join(lines) + "\n") if lines else "")
    return EXIT_OK


def _cmd_normalize(args) -> int:
    if args.designs == "builtin":
        records = builtin_designs()
    else:
        records = load_designs(args.designs)
    rows = build_comparison(records)
    lines = ["name,k_max,k_max_normalized,k_min,k_min_normalized,ratio"]
    for row in rows:
        lines.append(
            ",".join(
                [
                    row.name,
                    _fmt(row.k_max),
                    _fmt(row.k_max_normalized) if row.k_max_normalized is not None else "NA",
                    _fmt(row.k_min),
                    _fmt(row.k_min_normalized) if row.k_min_normalized is not None else "NA",
                    _fmt(row.ratio),
                ]
            )
        )
    _emit(args, "\n".join(lines) + "\n")
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def _budget(text: str) -> int:
    try:
        value = int(float(text))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad budget {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("budget must be >= 1")
    return value


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--robot",
        default="default",
        help="robot description file, or 'default' for the reference robot",
    )
    enumerating = _Parser(add_help=False)  # commands that may enumerate the workspace
    enumerating.add_argument(
        "--budget",
        type=_budget,
        default=DEFAULT_ENUMERATION_BUDGET,
        help="cap on tooth_count ** segment_count (default 1e8)",
    )
    out = _Parser(add_help=False)
    out.add_argument("--out", help="write output to this file instead of stdout")

    parser = _Parser(prog="plc", description=__doc__.splitlines()[0])
    parser.add_argument(
        "--version",
        action="version",
        version=f"plc {__version__} (workspace index format {INDEX_FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fk", parents=[common, out], help="forward kinematics")
    p.add_argument("--config", required=True, help="comma-separated tooth indices")
    p.set_defaults(func=_cmd_fk)

    ws = sub.add_parser("workspace", help="enumerate and query the workspace")
    wssub = ws.add_subparsers(dest="workspace_command", required=True)

    p = wssub.add_parser(
        "build", parents=[common, enumerating], help="enumerate and save an index"
    )
    p.add_argument("--out", help="index file (default: the cache directory)")
    p.set_defaults(func=_cmd_workspace_build)

    p = wssub.add_parser(
        "export", parents=[common, enumerating, out], help="export reachable points"
    )
    p.add_argument("--index", help="existing index file (default: cache)")
    p.add_argument("--format", choices=("ply", "csv"), required=True)
    p.set_defaults(func=_cmd_workspace_export)

    p = wssub.add_parser(
        "omnivariance",
        parents=[common, enumerating, out],
        help="spread measure of the point cloud",
    )
    p.add_argument("--index", help="existing index file (default: cache)")
    p.add_argument(
        "--local",
        type=int,
        metavar="K",
        help="per-point omnivariance over K-nearest neighborhoods",
    )
    p.set_defaults(func=_cmd_workspace_omnivariance)

    p = wssub.add_parser(
        "accuracy",
        parents=[common, enumerating, out],
        help="worst-case distance to the workspace",
    )
    p.add_argument("--index", help="existing index file (default: cache)")
    p.add_argument("--queries", required=True, help="CSV of query points x,y,z")
    p.set_defaults(func=_cmd_workspace_accuracy)

    p = sub.add_parser("ik", parents=[common, out], help="nearest-point inverse kinematics")
    p.add_argument("--index", required=True, help="workspace index file")
    p.add_argument("--target", required=True, help="target position 'x,y,z' (mm)")
    p.add_argument("--reference", help="reference configuration (default: all zeros)")
    p.add_argument("--metric", choices=METRICS, default="wrapped")
    p.add_argument("--seed", type=int, help="pick randomly among candidates (seeded)")
    p.set_defaults(func=_cmd_ik)

    st = sub.add_parser("stiffness", help="stiffness models")
    stsub = st.add_subparsers(dest="stiffness_command", required=True)

    p = stsub.add_parser("firm", parents=[common, out], help="firmed directional stiffness")
    p.add_argument("--config", required=True, help="comma-separated tooth indices")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--direction", help="single direction 'x,y,z' (normalized)")
    group.add_argument("--sphere", type=int, default=100, help="sample N sphere directions")
    p.add_argument("--literal-polar", action="store_true", dest="literal_polar")
    p.set_defaults(func=_cmd_stiffness_firm)

    p = stsub.add_parser("curve", parents=[common, out], help="force-deflection curve")
    p.add_argument("--config", required=True, help="comma-separated tooth indices")
    p.add_argument("--tension", type=float, required=True, help="tendon tension, N")
    p.add_argument("--direction", required=True, help="push direction 'x,y,z'")
    p.add_argument("--literal-polar", action="store_true", dest="literal_polar")
    p.set_defaults(func=_cmd_stiffness_curve)

    p = stsub.add_parser("twist", parents=[common, out], help="torsion of spine or skin")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--skin", action="store_true", help="bellows skin twist")
    group.add_argument("--spine", action="store_true", help="rigid spine twist")
    p.add_argument("--torque", type=float, required=True, help="axial torque, N*mm")
    p.set_defaults(func=_cmd_stiffness_twist)

    p = sub.add_parser("plan", parents=[common, out], help="lock-rotate-lock schedule")
    p.add_argument("--start", required=True, help="start configuration indices")
    p.add_argument("--goal", required=True, help="goal configuration indices")
    p.add_argument("--verify", action="store_true", help="simulate and print the end state")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("normalize", parents=[out], help="stiffness comparison table")
    p.add_argument(
        "--designs",
        required=True,
        help="designs CSV (name,k_max,k_min,length_mm,radius_mm) or 'builtin'",
    )
    p.set_defaults(func=_cmd_normalize)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except PlcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
