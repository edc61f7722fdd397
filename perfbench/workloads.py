"""The benchmark workloads: closed loop, one client, one process each.

Every workload derives its inputs from the seed alone.  ``prepare`` is one
set-up repetition and holds only the program's own set-up work; ``op`` runs
one timed operation and then checks its outputs outside the timed region,
returning ``(seconds, correct)``.  Calls go through module attributes
(``ws.enumerate_workspace``), so the tracer's rebinding reaches them.

Why these three (each stresses one family of optimisations and bypasses the
others):

* ``ik``     -- the read path: k-d tree query, bucket disambiguation on a
  redundant robot, scalar ``chain_pose``.  Its set-up is the workspace write
  path (FK kernel, quantize, sort/group, k-d tree, save/load, peak memory of
  a 2**20-configuration build), timed in ``setup_s``.
* ``sweep``  -- stiffness and planner code, which no other in-process
  workload times.  Never touches ``plc.workspace``.
* ``cli``    -- interpreter start and imports of real ``plc`` invocations;
  their compute is negligible.
"""
from __future__ import annotations

import math
import os
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

import oracle
import tracing
from plc import ik, kinematics, model, normalize, planner, stiffness
from plc import workspace as ws

HERE = os.path.dirname(os.path.abspath(__file__))

#: what ``plc.cli`` imports from outside the package, and the time a fresh
#: interpreter takes to import it on the reference host when quiet
IMPORT_KERNEL = "import numpy, scipy.spatial, scipy.integrate, yaml"
IMPORT_REF = 1.0


def import_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return perf_counter() - t0


def _random_config(rng, desc) -> model.Configuration:
    indices = rng.integers(desc.tooth_count, size=desc.segment_count)
    return model.Configuration(tuple(int(k) for k in indices), desc.tooth_count)


def _unit_vector(rng) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _index_counters(index, desc, path) -> dict:
    sizes = np.diff(index.bucket_offsets)
    return {
        "workspace.points": index.point_count,
        "workspace.max_bucket": int(sizes.max()),
        "workspace.useful_ratio": index.point_count / desc.raw_configuration_count,
        "workspace.index_bytes": os.path.getsize(path),
    }


class Workload:
    name = ""
    #: modules a user of this workload imports before the first operation
    imports: tuple[str, ...] = ()
    #: operations a measuring phase runs even when its time is up
    min_ops = 1
    #: when set, op times are reported at the machine speed where
    #: ``calibrate`` takes this many seconds (see run.run_phase)
    cal_ref = None

    def __init__(self, seed: int, tmp: str):
        self.rng = np.random.default_rng(seed)
        self.tmp = tmp
        self.counters: dict[str, float] = {}

    def prepare(self) -> None:
        raise NotImplementedError

    def op(self, i: int, tracer) -> tuple[float, bool]:
        raise NotImplementedError

    def named_metrics(self, durations: list[float]) -> list[tuple]:
        """Workload-specific report rows: (name, value, unit, samples)."""
        raise NotImplementedError

    def check_setup(self) -> bool:
        """Correctness gates on what ``prepare`` built, run untimed."""
        return True

    def trace_extras(self) -> dict[str, float]:
        return {}

    def calibrate(self) -> float:
        """Median time of a fixed kernel owned by the benchmark (three
        10-unit 4x4 chain products, five samples): the current speed of the
        core this process runs on."""
        if not hasattr(self, "_cal_units"):
            self._cal_units = oracle.unit_matrices(30.0, 0.5, 10)
        times = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(3):
                oracle.flange_position(self._cal_units, range(10))
            times.append(perf_counter() - t0)
        return float(np.median(times))


def _latency_rows(prefix: str, rate_name: str, durations) -> list[tuple]:
    """Median and (with at least ten samples beyond it) p99 in ms, and ops
    per second of summed op time."""
    n = len(durations)
    rows = [(f"{prefix}_ms_p50", float(np.median(durations)) * 1e3, "ms", n)]
    if n >= 1000:
        rows.append((f"{prefix}_ms_p99", float(np.percentile(durations, 99)) * 1e3, "ms", n))
    rows.append((rate_name, n / float(np.sum(durations)), "1/s", n))
    return rows


class Ik(Workload):
    """One solve_ik per op on a redundant robot (N=4, n=10, 45 deg)."""

    name = "ik"
    imports = ("plc.ik",)
    cal_ref = 35e-6
    block = 1024
    brute_every = 64  # brute-force nearest-distance check on 1 query in 64
    far_mm = 400.0

    def prepare(self):
        self.index = None  # free the previous repetition's index first
        self.desc = model.RobotDescription(
            tooth_count=4, segment_count=10, bend_angle=math.radians(45.0)
        )
        path = os.path.join(self.tmp, "ik.plcw")
        self._built = ws.enumerate_workspace(self.desc)
        self._built.save(path)
        self.index = ws.WorkspaceIndex.load(path, self.desc)
        self.counters.update(_index_counters(self.index, self.desc, path))
        self._queue = []
        self._candidates = 0

    def check_setup(self) -> bool:
        """Gates on the write path: raw-config count, offsets spanning the
        members, every rank once, a bit-identical save -> load round trip,
        and 16 seeded buckets against the oracle FK."""
        desc, built, loaded = self.desc, self._built, self.index
        del self._built
        offsets, members = built.bucket_offsets, built.bucket_members
        ok = members.shape[0] == desc.raw_configuration_count
        ok = ok and offsets[0] == 0 and offsets[-1] == members.shape[0]
        ok = ok and bool(np.all(np.diff(offsets) >= 1))
        ok = ok and np.array_equal(np.sort(members), np.arange(members.shape[0]))
        for a, b in (
            (built.points, loaded.points),
            (offsets, loaded.bucket_offsets),
            (members, loaded.bucket_members),
        ):
            ok = ok and a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        units = oracle.unit_matrices(desc.curve_length, desc.bend_angle, desc.tooth_count)
        for g in self.rng.integers(loaded.point_count, size=16):
            for rank in loaded.bucket_ranks(int(g)):
                indices = oracle.digits(int(rank), desc.tooth_count, desc.segment_count)
                position = oracle.flange_position(units, indices)
                # bucket members share a 1e-6 mm quantization cell
                ok = ok and float(np.max(np.abs(position - loaded.points[g]))) <= 1.5e-6
        return bool(ok)

    def _refill(self):
        """Next block of queries: 50% exact points, 40% jittered by 1 mm,
        10% placed 400 mm beyond the farthest point."""
        if not hasattr(self, "_units"):
            d = self.desc
            self._units = oracle.unit_matrices(d.curve_length, d.bend_angle, d.tooth_count)
            self._reach = float(np.sqrt(np.einsum("ij,ij->i", self.index.points, self.index.points).max()))
        rng, n = self.rng, self.block
        kind = rng.random(n)
        targets = self.index.points[rng.integers(self.index.point_count, size=n)].copy()
        jitter = (kind >= 0.5) & (kind < 0.9)
        targets[jitter] += rng.normal(0.0, 1.0, size=(int(jitter.sum()), 3))
        for row in np.flatnonzero(kind >= 0.9):
            targets[row] = _unit_vector(rng) * (self._reach + self.far_mm)
        refs = [_random_config(rng, self.desc) for _ in range(n)]
        self._queue = list(zip(targets, refs))[::-1]

    def op(self, i, tracer):
        if not self._queue:
            self._refill()
        target, reference = self._queue.pop()
        t0 = perf_counter()
        sol = ik.solve_ik(self.index, self.desc, target, reference)
        seconds = perf_counter() - t0
        self._candidates += sol.candidate_count
        fk = oracle.flange_position(self._units, sol.config.indices)
        ok = float(np.max(np.abs(sol.achieved_position - fk))) <= 1e-9
        if i % self.brute_every == 0:
            diffs = self.index.points - target
            nearest = math.sqrt(float(np.einsum("ij,ij->i", diffs, diffs).min()))
            ok = ok and sol.position_error <= nearest + 1e-9
        self.counters["ik.candidates_mean"] = self._candidates / (i + 1)
        return seconds, ok

    def named_metrics(self, durations):
        return _latency_rows("ik", "ik_qps", durations)


class Sweep(Workload):
    """Stiffness queries plus a verified plan along a seeded config walk."""

    name = "sweep"
    imports = ("plc.stiffness", "plc.planner")
    cal_ref = 35e-6
    directions = 200

    def prepare(self):
        self.desc = model.RobotDescription()
        self._prev = None
        self._steps = 0

    def op(self, i, tracer):
        desc, rng = self.desc, self.rng
        if self._prev is None:
            self._prev = _random_config(rng, desc)
        prev, config = self._prev, _random_config(rng, desc)
        direction = _unit_vector(rng)
        tension = float(rng.uniform(5.0, 50.0))
        torque = float(rng.uniform(100.0, 2000.0))
        t0 = perf_counter()
        stiffness.firmed_compliance(desc, config)
        samples = stiffness.stiffness_map(desc, config, self.directions)
        stiffness.force_deflection(desc, config, tension, direction)
        stiffness.skin_twist(desc, torque)
        steps = planner.plan_to(desc, prev, config)
        final = planner.simulate(planner.all_locked(prev), steps)
        seconds = perf_counter() - t0
        self._prev = config
        self._steps += len(steps)
        self.counters["planner.steps_per_op"] = self._steps / (i + 1)
        ok = final.config == config and not final.unlocked_joints
        return seconds, ok and len(samples) == self.directions

    def named_metrics(self, durations):
        return _latency_rows("sweep", "sweep_evals_per_s", durations)


def _close(got, want, rtol=1e-8, atol=1e-9) -> bool:
    return bool(np.allclose(np.asarray(got, float), np.asarray(want, float), rtol=rtol, atol=atol))


def _csv_rows(stdout: str) -> list[list[str]]:
    return [line.split(",") for line in stdout.splitlines()[1:]]


class Cli(Workload):
    """One ``python -m plc.cli`` subprocess per op, cycling a fixed mix."""

    name = "cli"
    imports = ("plc.cli",)
    commands = (
        "fk", "plan", "stiffness_firm", "stiffness_curve",
        "stiffness_twist", "normalize", "ik", "workspace_accuracy",
    )
    min_ops = len(commands)  # every command runs at least once per phase
    cal_ref = IMPORT_REF

    def calibrate(self):
        """The import kernel: the current speed of process start and
        imports, which dominate every invocation."""
        return import_seconds(IMPORT_KERNEL)

    def prepare(self):
        desc = model.RobotDescription()
        self.index_path = os.path.join(self.tmp, "cli.plcw")
        index = ws.enumerate_workspace(desc)
        index.save(self.index_path)
        self.counters.update(_index_counters(index, desc, self.index_path))
        self.robot_path = os.path.join(self.tmp, "robot.yaml")
        with open(self.robot_path, "w", encoding="utf-8") as fh:
            fh.write(model.serialize_robot_description(desc))
        self.desc = desc
        self._mix = None
        self.by_command = defaultdict(list)  # raw seconds of untraced ops
        self.done = []  # command of every op that returned, in order

    def _build_mix(self):
        """Sixteen invocations: every command once with each robot source
        (``normalize`` takes none), alternating so each half of the mix runs
        every command.  Expected outputs come from the library in-process."""
        desc, rng = self.desc, self.rng
        index = ws.WorkspaceIndex.load(self.index_path, desc)

        def fmt_vec(v):
            return ",".join(repr(float(x)) for x in v)

        def fmt_cfg(c):
            return ",".join(str(k) for k in c.indices)

        def make(command, robot, slot):
            robot_args = ["--robot", robot]
            if command == "fk":
                cfg = _random_config(rng, desc)
                end, _ = kinematics.chain_pose(desc, cfg)
                want = [*end.translation, *end.rotation.ravel(), *end.transform_point(desc.tool_offset)]
                return ["fk", *robot_args, "--config", fmt_cfg(cfg)], lambda out: _close(
                    [float(x) for x in _csv_rows(out)[0]], want
                )
            if command == "plan":
                start, goal = _random_config(rng, desc), _random_config(rng, desc)
                steps = planner.plan_to(desc, start, goal)
                pitch_deg = 360.0 / desc.tooth_count
                return [
                    "plan", *robot_args, "--start", fmt_cfg(start), "--goal", fmt_cfg(goal), "--verify",
                ], lambda out: _check_plan(out, steps, goal, pitch_deg)
            if command == "stiffness_firm":
                cfg, direction = _random_config(rng, desc), _unit_vector(rng)
                k = stiffness.directional_stiffness(desc, cfg, direction)
                return [
                    "stiffness", "firm", *robot_args, "--config", fmt_cfg(cfg), "--direction=" + fmt_vec(direction),
                ], lambda out: _close([float(x) for x in _csv_rows(out)[0]], [*direction, k, 1.0 / k])
            if command == "stiffness_curve":
                cfg, direction = _random_config(rng, desc), _unit_vector(rng)
                tension = float(rng.uniform(5.0, 50.0))
                curve = stiffness.force_deflection(desc, cfg, tension, direction)
                return [
                    "stiffness", "curve", *robot_args, "--config", fmt_cfg(cfg),
                    "--tension", repr(tension), "--direction=" + fmt_vec(direction),
                ], lambda out: _check_curve(out, curve)
            if command == "stiffness_twist":
                torque = float(rng.uniform(100.0, 2000.0))
                skin = bool(rng.integers(2))
                want = stiffness.skin_twist(desc, torque) if skin else stiffness.spine_twist(desc, torque)
                return [
                    "stiffness", "twist", *robot_args, "--skin" if skin else "--spine", "--torque", repr(torque),
                ], lambda out: _close([float(out)], [want])
            if command == "normalize":
                rows = normalize.build_comparison(normalize.builtin_designs())
                return ["normalize", "--designs", "builtin"], lambda out: _check_normalize(out, rows)
            if command == "ik":
                target = index.points[rng.integers(index.point_count)] + rng.normal(0.0, 1.0, size=3)
                reference = _random_config(rng, desc)
                sol = ik.solve_ik(index, desc, target, reference)
                return [
                    "ik", *robot_args, "--index", self.index_path,
                    "--target=" + fmt_vec(target), "--reference", fmt_cfg(reference),
                ], lambda out: _check_ik(out, sol)
            if command == "workspace_accuracy":
                queries = rng.uniform(-150.0, 150.0, size=(20, 3))
                path = os.path.join(self.tmp, f"queries{slot}.csv")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write("x,y,z\n" + "".join(fmt_vec(q) + "\n" for q in queries))
                want = ws.reach_accuracy(index, queries)
                return [
                    "workspace", "accuracy", *robot_args, "--index", self.index_path, "--queries", path,
                ], lambda out: _close([float(out)], [want])
            raise ValueError(command)

        mix = []
        for half in range(2):
            for j, command in enumerate(self.commands):
                robot = "default" if (j + half) % 2 == 0 else self.robot_path
                argv, check = make(command, robot, len(mix))
                mix.append((command, argv, check))
        self._mix = mix

    def op(self, i, tracer):
        if self._mix is None:
            self._build_mix()
        command, argv, check = self._mix[i % len(self._mix)]
        if tracer is None:
            cmd = [sys.executable, "-m", "plc.cli", *argv]
        else:
            spans_path = os.path.join(self.tmp, f"cli-spans-{i}.jsonl")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), spans_path, *argv]
        t0 = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        seconds = perf_counter() - t0
        self.done.append(command)
        if tracer is None:
            self.by_command[command].append(seconds)
        else:
            tracer.extend(tracing.read_spans(spans_path), i)
        if proc.returncode != 0:
            sys.stderr.write(f"cli {argv} exited {proc.returncode}: {proc.stderr}\n")
            return seconds, False
        try:
            return seconds, bool(check(proc.stdout))
        except (ValueError, IndexError):
            return seconds, False

    def named_metrics(self, durations):
        """``cli_mix_s`` is the whole 16-invocation mix, each invocation
        taken at its command's median time."""
        per_command = defaultdict(list)
        for command, seconds in zip(self.done, durations):
            per_command[command].append(seconds)
        mix = sum(float(np.median(per_command[command])) for command, _, _ in self._mix)
        return [
            ("cli_s_p50", float(np.median(durations)), "s", len(durations)),
            ("cli_mix_s", mix, "s", len(durations)),
        ]

    def trace_extras(self):
        def wall(code):
            times = []
            for _ in range(5):
                t0 = perf_counter()
                subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
                times.append(perf_counter() - t0)
            return float(np.median(times))

        interpreter = wall("pass")
        extras = {
            "cli.interpreter_s": interpreter,
            "cli.import_s": wall("import plc.cli") - interpreter,
        }
        for command, times in self.by_command.items():
            extras[f"cli.{command}.s_p50"] = float(np.median(times))
        return extras


def _check_plan(out, steps, goal, pitch_deg) -> bool:
    lines = out.splitlines()
    if len(lines) != len(steps) + 1:
        return False
    for line, step in zip(lines, steps):
        word, value = line.split()
        if isinstance(step, planner.RotateShaft):
            if word != "rotate" or not _close([float(value)], [step.pitch_steps * pitch_deg]):
                return False
        elif (word, int(value)) != (type(step).__name__.lower(), step.joint):
            return False
    return lines[-1] == "final " + ",".join(str(k) for k in goal.indices)


def _check_curve(out, curve) -> bool:
    rows = _csv_rows(out)
    forces = [float(r[0]) for r in rows]
    got = [float(r[1]) for r in rows]
    return len(rows) >= 81 and _close(got, curve.deflection(np.array(forces)), rtol=1e-7)


def _check_normalize(out, rows) -> bool:
    got = _csv_rows(out)
    if len(got) != len(rows):
        return False
    for fields, row in zip(got, rows):
        want = [row.k_max, row.k_max_normalized, row.k_min, row.k_min_normalized, row.ratio]
        if fields[0] != row.name:
            return False
        for text, value in zip(fields[1:], want):
            if (text == "NA") != (value is None):
                return False
            if value is not None and not _close([float(text)], [value]):
                return False
    return True


def _check_ik(out, sol) -> bool:
    fields = _csv_rows(out)[0]
    config = tuple(int(k) for k in fields[0].split())
    return (
        config == sol.config.indices
        and _close([float(x) for x in fields[1:5]], [*sol.achieved_position, sol.position_error])
        and int(fields[5]) == sol.candidate_count
    )


WORKLOADS = {w.name: w for w in (Ik, Sweep, Cli)}
