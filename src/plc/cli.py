"""Command-line front end: fk, workspace, ik, stiffness, plan, normalize.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 I/O error.
All numeric output is fixed at 9 significant digits so identical inputs
produce byte-identical files across runs and platforms.  Every command
prints through one writer, ``_emit``: a command that prints a few lines
passes them as a list, and the whole-table printers (``workspace export``,
``workspace omnivariance --local``, ``stiffness firm --sphere``) pass
``_table``, a generator that formats ``_ROWS`` rows at a time straight from
the arrays, so a table's text is never held whole.  Every check runs before
the first line is written.  File outputs are written to a temporary file
and renamed, so failed runs never leave partial files behind.  A reader
that closes stdout early (``| head``) is an I/O error, exit 3.

Each command imports the library modules it runs when it runs, and numpy
only where it builds an array: ``fk``, ``stiffness firm --direction`` and
``stiffness curve`` compute one pose or one direction in Python floats, so
they, ``stiffness twist``, ``plan`` and ``normalize`` load no numpy, and a
``--robot default`` command loads no PyYAML.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import __version__
from .files import INDEX_FORMAT_VERSION, MAX_DOCUMENT_BYTES, atomic_open, read_text
from .model import (
    METRICS,
    Configuration,
    PlcError,
    RobotDescription,
    description_digest,
    parse_robot_description,
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


# rows per block of a whole-table printer: bounds the text it holds at once
_ROWS = 1 << 16


def _fmt(*values) -> str:
    """``values`` to 9 significant digits, comma-separated; + 0.0 prints
    -0.0 as 0, for stable goldens."""
    return ",".join(["%.9g" % (float(v) + 0.0) for v in values])


def _table(header: str, fmt: str, *columns):
    """``header``, then the rows of ``columns`` (arrays of one length, 1-D
    or 2-D) formatted by ``fmt``, one text block per ``_ROWS`` rows: one
    ``%`` on the block's values plus 0.0, the bits ``_fmt`` prints."""
    import numpy as np

    yield header
    for lo in range(0, len(columns[0]), _ROWS):
        block = np.column_stack([column[lo : lo + _ROWS] for column in columns]) + 0.0
        yield "\n".join([fmt] * len(block)) % tuple(block.ravel().tolist())


def _emit(args, lines) -> None:
    """Write each of ``lines``, a line or a block of lines, and a newline,
    to the ``--out`` file, atomically, or to stdout."""
    out = getattr(args, "out", None)
    with nullcontext(sys.stdout) if out is None else atomic_open(out, "w", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def _parse_indices(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise PlcError(f"expected comma-separated integers, got {text!r}") from None


def _parse_vector(text: str) -> list[float]:
    try:
        parts = [float(part.strip()) for part in text.split(",")]
    except ValueError:
        raise PlcError(f"expected comma-separated numbers, got {text!r}") from None
    if len(parts) != 3:
        raise PlcError(f"expected 3 components, got {len(parts)}")
    if not all(math.isfinite(p) for p in parts):
        raise PlcError(f"vector components must be finite, got {text!r}")
    return parts


def _parse_direction(text: str) -> tuple[float, float, float]:
    from .stiffness import _scaled

    # divided by its norm once scaled by the power of two that brings the
    # largest |component| into [0.5, 1): exact, so v / |v| keeps its bits
    _, (x, y, z), norm = _scaled(_parse_vector(text))
    if norm == 0.0:
        raise PlcError("direction must be nonzero")
    return x / norm, y / norm, z / norm


def _load_description(args) -> RobotDescription:
    if args.robot == "default":
        return RobotDescription()
    return parse_robot_description(read_text(args.robot, MAX_DOCUMENT_BYTES))


def _config_for(desc: RobotDescription, text: str) -> Configuration:
    config = Configuration(_parse_indices(text), desc.tooth_count)
    desc.check_configuration(config)
    return config


def _cache_path(desc: RobotDescription) -> Path:
    root = Path(os.environ.get("PLC_CACHE_DIR", "~/.cache/plc")).expanduser()
    return root / f"workspace-{description_digest(desc).hex()[:16]}.plcw"


def _build_index(desc: RobotDescription, path) -> WorkspaceIndex:
    """Enumerate ``desc``'s workspace into a new index file at ``path``.

    The file is opened first, so a target that cannot be written is refused
    before the enumeration is paid for.
    """
    from .workspace import enumerate_workspace

    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with atomic_open(path) as fh:
        index = enumerate_workspace(desc)
        index._write(fh)
    return index


def _load_or_build_index(desc: RobotDescription, args) -> WorkspaceIndex:
    from .workspace import WorkspaceIndex

    if getattr(args, "index", None) is not None:
        return WorkspaceIndex.load(args.index, desc)
    cache = _cache_path(desc)
    if cache.exists():
        try:
            return WorkspaceIndex.load(cache, desc)
        except PlcError:
            pass  # stale or foreign cache entry: rebuild below
    return _build_index(desc, cache)


def _read_queries(path) -> np.ndarray:
    import numpy as np

    rows, lines = [], 0
    for line in read_text(path).split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        lines += 1
        parts = line.split(",")
        try:
            row = [float(p) for p in parts[:3]]
        except ValueError:
            if lines > 1:
                raise PlcError(f"bad query row: {line!r}") from None
            continue  # a header: the first line that is not blank or a comment
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
    from .kinematics import _walk
    from .model import _check_pose

    desc = _load_description(args)
    config = _config_for(desc, args.config)
    (rotation, position), _, tip = _walk(desc, config, tip=True)
    _check_pose(rotation, position)  # chain_pose's RigidTransform checks
    header = "x_mm,y_mm,z_mm,r11,r12,r13,r21,r22,r23,r31,r32,r33,tip_x_mm,tip_y_mm,tip_z_mm"
    _emit(args, [header, _fmt(*position, *rotation, *tip)])
    return EXIT_OK


def _cmd_workspace_build(args) -> int:
    desc = _load_description(args)
    path = _cache_path(desc) if args.out is None else args.out
    index = _build_index(desc, path)
    print(
        f"wrote {path} ({index.point_count} points, "
        f"{index.configuration_count} configurations)",
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_workspace_export(args) -> int:
    import numpy as np

    desc = _load_description(args)
    index = _load_or_build_index(desc, args)
    if args.format == "csv":
        sizes = np.diff(index.bucket_offsets)
        _emit(args, _table("x,y,z,bucket_size", "%.9g,%.9g,%.9g,%d", index.points, sizes))
    else:
        header = "\n".join(
            [
                "ply",
                "format ascii 1.0",
                f"element vertex {index.point_count}",
                "property double x",
                "property double y",
                "property double z",
                "end_header",
            ]
        )
        _emit(args, _table(header, "%.9g %.9g %.9g", index.points))
    return EXIT_OK


def _cmd_workspace_omnivariance(args) -> int:
    from .workspace import local_omnivariance, omnivariance

    desc = _load_description(args)
    index = _load_or_build_index(desc, args)
    if args.local is not None:
        values = local_omnivariance(index.points, args.local)
        _emit(args, _table("x,y,z,local_omnivariance", "%.9g,%.9g,%.9g,%.9g", index.points, values))
    else:
        _emit(args, [_fmt(omnivariance(index.points))])
    return EXIT_OK


def _cmd_workspace_accuracy(args) -> int:
    from .workspace import reach_accuracy

    desc = _load_description(args)
    index = _load_or_build_index(desc, args)
    queries = _read_queries(args.queries)
    _emit(args, [_fmt(reach_accuracy(index, queries))])
    return EXIT_OK


def _cmd_ik(args) -> int:
    from .ik import solve_ik
    from .workspace import WorkspaceIndex

    desc = _load_description(args)
    index = WorkspaceIndex.load(args.index, desc)
    target = _parse_vector(args.target)
    if args.reference is not None:
        reference = _config_for(desc, args.reference)
    else:
        reference = Configuration((0,) * desc.segment_count, desc.tooth_count)
    solution = solve_ik(index, desc, target, reference, metric=args.metric, seed=args.seed)
    header = "config,achieved_x_mm,achieved_y_mm,achieved_z_mm,error_mm,candidate_count"
    config = " ".join(map(str, solution.config.indices))
    row = _fmt(*solution.achieved_position, solution.position_error)
    _emit(args, [header, f"{config},{row},{solution.candidate_count}"])
    return EXIT_OK


def _cmd_stiffness_firm(args) -> int:
    from .stiffness import directional_stiffness, stiffness_map

    desc = _load_description(args)
    config = _config_for(desc, args.config)
    header = "ux,uy,uz,stiffness_n_per_mm,compliance_mm_per_n"
    if args.direction is not None:
        direction = _parse_direction(args.direction)
        stiff = directional_stiffness(desc, config, direction, args.literal_polar)
        _emit(args, [header, _fmt(*direction, stiff, 1.0 / stiff)])
    else:
        samples = stiffness_map(desc, config, args.sphere, literal_polar=args.literal_polar)
        columns = samples["direction"], samples["stiffness"], samples["compliance"]
        _emit(args, _table(header, "%.9g,%.9g,%.9g,%.9g,%.9g", *columns))
    return EXIT_OK


def _force_grid(top: float, threshold: float) -> list[float]:
    """``np.unique(np.append(np.linspace(0.0, top, 81), threshold))`` in
    Python floats, with its bits: k * (top / 80) for k < 80, or (k / 80) *
    top where top / 80 underflows to 0, then top itself, and the threshold
    unless it is one of them, ascending."""
    step = top / 80
    grid = [k * step if step else (k / 80) * top for k in range(80)]
    return sorted({*grid, top, threshold})


def _cmd_stiffness_curve(args) -> int:
    from .stiffness import force_deflection

    desc = _load_description(args)
    config = _config_for(desc, args.config)
    direction = _parse_direction(args.direction)
    curve = force_deflection(desc, config, args.tension, direction, args.literal_polar)
    grid = _force_grid(curve.top_force, curve.threshold_force)
    _emit(args, ["force_n,deflection_mm", *(_fmt(f, curve.deflection(f)) for f in grid)])
    return EXIT_OK


def _cmd_stiffness_twist(args) -> int:
    from .stiffness import skin_twist, spine_twist

    desc = _load_description(args)
    if args.skin:
        value = skin_twist(desc, args.torque)
    else:
        value = spine_twist(desc, args.torque)
    _emit(args, [_fmt(value)])
    return EXIT_OK


def _cmd_plan(args) -> int:
    from .planner import Lock, RotateShaft, Unlock, all_locked, plan_to, simulate

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
    _emit(args, lines)
    return EXIT_OK


def _cmd_normalize(args) -> int:
    from .normalize import build_comparison, builtin_designs, load_designs

    if args.designs == "builtin":
        records = builtin_designs()
    else:
        records = load_designs(args.designs)
    lines = ["name,k_max,k_max_normalized,k_min,k_min_normalized,ratio"]
    for row in build_comparison(records):
        values = row.k_max, row.k_max_normalized, row.k_min, row.k_min_normalized, row.ratio
        lines.append(",".join([row.name, *("NA" if v is None else _fmt(v) for v in values)]))
    _emit(args, lines)
    return EXIT_OK


# -- parser --------------------------------------------------------------------


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--robot",
        default="default",
        help="robot description file, or 'default' for the reference robot",
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

    p = wssub.add_parser("build", parents=[common], help="enumerate and save an index")
    p.add_argument("--out", help="index file (default: the cache directory)")
    p.set_defaults(func=_cmd_workspace_build)

    p = wssub.add_parser("export", parents=[common, out], help="export reachable points")
    p.add_argument("--index", help="existing index file (default: cache)")
    p.add_argument("--format", choices=("ply", "csv"), required=True)
    p.set_defaults(func=_cmd_workspace_export)

    p = wssub.add_parser(
        "omnivariance",
        parents=[common, out],
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
        parents=[common, out],
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
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help / --version
            code = int(exc.code or 0)
        else:
            code = args.func(args)
        sys.stdout.flush()  # a reader that has left fails here, not at exit
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PlcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # so the flush at exit has nowhere to fail
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
