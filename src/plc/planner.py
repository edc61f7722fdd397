"""Lock-rotate-lock actuation planning and its verifying state machine.

The drive shaft applies torque at the top of the chain; everything above the
single loosened joint turns rigidly with it, so a shaft rotation changes only
the relative angle at that joint.  A plan therefore visits each joint whose
angle differs, base to tip: unlock it, rotate by the shortest wrapped delta,
lock it again.  At most one joint is ever unlocked.

Joints are numbered 1..n (base to tip), matching how the hardware units are
counted and how the CLI prints steps.

:func:`simulate` is the state machine that verifies a schedule.  It folds
the steps over a list of lock flags and a list of tooth indices, with the
same checks in the same order as each step would meet them, and builds one
:class:`JointState` at the end, with one :class:`Configuration` only if a
rotation ran, not a state per step.  One step is the schedule ``[step]``,
so the step rules are written once.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .model import Configuration, InvariantError, PlcError, RobotDescription


@dataclass(frozen=True)
class Unlock:
    joint: int


@dataclass(frozen=True)
class Lock:
    joint: int


@dataclass(frozen=True)
class RotateShaft:
    """Shaft rotation by an exact number of tooth pitches (signed)."""

    pitch_steps: int

    def __post_init__(self):
        if isinstance(self.pitch_steps, bool) or not isinstance(self.pitch_steps, int):
            raise InvariantError(
                f"shaft rotation must be an integer pitch count, got {self.pitch_steps!r}"
            )


ActuationStep = Union[Unlock, Lock, RotateShaft]


@dataclass(frozen=True)
class JointState:
    """Lock flags plus the current configuration of every joint."""

    lock_flags: tuple[bool, ...]
    config: Configuration

    def __post_init__(self):
        # the common case, a tuple of bools, is kept as it is; any other
        # sequence of flags is converted flag by flag
        flags = self.lock_flags
        if type(flags) is not tuple or not all(type(f) is bool for f in flags):
            object.__setattr__(self, "lock_flags", tuple(bool(f) for f in flags))
        if len(self.lock_flags) != len(self.config.indices):
            raise InvariantError(
                f"{len(self.lock_flags)} lock flags for "
                f"{len(self.config.indices)} joints"
            )

    @property
    def unlocked_joints(self) -> tuple[int, ...]:
        """1-based numbers of the currently loosened joints."""
        return tuple(j + 1 for j, locked in enumerate(self.lock_flags) if not locked)


def all_locked(config: Configuration) -> JointState:
    return JointState((True,) * len(config.indices), config)


def _check_joint(joint: int, count: int) -> int:
    """0-based position of ``joint``, refused unless an int in 1..count."""
    if isinstance(joint, bool) or not isinstance(joint, int):
        raise InvariantError(f"joint must be an integer, got {joint!r}")
    if not 1 <= joint <= count:
        raise InvariantError(f"joint {joint} outside 1..{count}")
    return joint - 1


def simulate(state: JointState, steps) -> JointState:
    """Run ``steps`` from ``state``; raises at the first illegal step.

    One fold over a list of lock flags and, once a rotation runs, a list of
    tooth indices: it builds one ``JointState`` at the end, and one
    ``Configuration`` only if a rotation ran.  An empty schedule returns
    ``state`` itself.
    """
    config = state.config
    flags = list(state.lock_flags)
    indices = None
    step = None
    for step in steps:
        if isinstance(step, Unlock):
            flags[_check_joint(step.joint, len(flags))] = False
        elif isinstance(step, Lock):
            flags[_check_joint(step.joint, len(flags))] = True
        elif isinstance(step, RotateShaft):
            if flags.count(False) != 1:
                raise PlcError("rotation requires exactly one loosened joint")
            if indices is None:
                indices = list(config.indices)
            j = flags.index(False)
            indices[j] = (indices[j] + step.pitch_steps) % config.tooth_count
        else:
            raise PlcError(f"unknown actuation step {step!r}")
    # a step that is not an actuation step raises, so step is None here
    # only when the schedule was empty
    if step is None:
        return state
    if indices is not None:
        config = Configuration(tuple(indices), config.tooth_count)
    return JointState(tuple(flags), config)


def plan_to(
    desc: RobotDescription, start: Configuration, goal: Configuration
) -> list[ActuationStep]:
    """Schedule turning ``start`` into ``goal``, one loosened joint at a time.

    Joints are visited base to tip; each differing joint gets the triple
    unlock / rotate by the shortest wrapped delta / lock.  Executing the
    schedule from ``start`` with every joint locked ends exactly at ``goal``.
    """
    desc.check_configuration(start)
    desc.check_configuration(goal)
    teeth = desc.tooth_count
    steps: list[ActuationStep] = []
    for j, (s, g) in enumerate(zip(start.indices, goal.indices), start=1):
        if s == g:
            continue
        delta = (g - s) % teeth
        if delta > teeth // 2:
            delta -= teeth
        steps.extend([Unlock(j), RotateShaft(delta), Lock(j)])
    return steps
