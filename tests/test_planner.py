import math

import numpy as np
import pytest

from plc import (
    Configuration,
    InvariantError,
    JointState,
    Lock,
    PlcError,
    RotateShaft,
    Unlock,
    all_locked,
    plan_to,
    simulate,
    simulate_step,
)

from conftest import desc_with


def random_config(rng, n, teeth=10):
    return Configuration(tuple(int(v) for v in rng.integers(0, teeth, n)), teeth)


def test_lock_is_idempotent():
    state = all_locked(Configuration((0, 0, 0), 10))
    assert simulate_step(state, Lock(2)) == state
    unlocked = simulate_step(state, Unlock(2))
    assert unlocked.unlocked_joints == (2,)
    assert simulate_step(unlocked, Unlock(2)) == unlocked


def test_unlock_rotate_lock_trace():
    state = all_locked(Configuration((0, 0, 0, 0, 0), 10))
    state = simulate_step(state, Unlock(3))
    state = simulate_step(state, RotateShaft(2))
    state = simulate_step(state, Lock(3))
    assert state.config.indices == (0, 0, 2, 0, 0)
    assert state.unlocked_joints == ()
    # +2 teeth of a 10-tooth joint is a 72 degree turn
    assert math.degrees(2 * 2 * math.pi / 10) == pytest.approx(72.0)


def test_rotation_wraps_around():
    state = all_locked(Configuration((9,), 10))
    state = simulate_step(state, Unlock(1))
    state = simulate_step(state, RotateShaft(3))
    assert state.config.indices == (2,)
    state = simulate_step(state, RotateShaft(-4))
    assert state.config.indices == (8,)


def test_rotation_requires_exactly_one_loosened_joint():
    locked = all_locked(Configuration((0, 0, 0), 10))
    with pytest.raises(PlcError, match="exactly one loosened joint"):
        simulate_step(locked, RotateShaft(1))
    two_open = simulate_step(simulate_step(locked, Unlock(1)), Unlock(2))
    with pytest.raises(PlcError, match="exactly one loosened joint"):
        simulate_step(two_open, RotateShaft(1))


def test_step_validation():
    state = all_locked(Configuration((0, 0), 10))
    with pytest.raises(InvariantError, match="joint"):
        simulate_step(state, Unlock(0))
    with pytest.raises(InvariantError, match="joint"):
        simulate_step(state, Lock(3))
    with pytest.raises(InvariantError, match="integer pitch count"):
        RotateShaft(1.5)


def test_plan_trivial_cases():
    desc = desc_with(segment_count=4)
    same = Configuration((1, 2, 3, 4), 10)
    assert plan_to(desc, same, same) == []
    goal = Configuration((1, 2, 9, 4), 10)
    steps = plan_to(desc, same, goal)
    assert steps == [Unlock(3), RotateShaft(-4), Lock(3)]


def test_plan_uses_shortest_wrapped_rotation():
    desc = desc_with(segment_count=1)
    steps = plan_to(desc, Configuration((9,), 10), Configuration((0,), 10))
    assert steps[1] == RotateShaft(1)
    steps = plan_to(desc, Configuration((0,), 10), Configuration((5,), 10))
    assert steps[1] == RotateShaft(5)  # exact half turn keeps the positive sign


def test_plan_round_trip():
    desc = desc_with(segment_count=6)
    rng = np.random.default_rng(73)
    start = random_config(rng, 6)
    goal = random_config(rng, 6)
    mid = simulate(all_locked(start), plan_to(desc, start, goal))
    back = simulate(mid, plan_to(desc, mid.config, start))
    assert back.config == start
    assert back.unlocked_joints == ()


def test_random_plans_reach_goal_without_double_unlock():
    desc = desc_with(segment_count=7)
    rng = np.random.default_rng(79)
    for _ in range(100):
        start = random_config(rng, 7)
        goal = random_config(rng, 7)
        steps = plan_to(desc, start, goal)
        state = all_locked(start)
        for step in steps:
            state = simulate_step(state, step)
            assert len(state.unlocked_joints) <= 1
        assert state.config == goal
        assert state.unlocked_joints == ()


def test_total_rotation_budget():
    desc = desc_with(segment_count=7)
    rng = np.random.default_rng(83)
    pitch = 2 * math.pi / desc.tooth_count
    for _ in range(50):
        steps = plan_to(desc, random_config(rng, 7), random_config(rng, 7))
        total = sum(abs(s.pitch_steps) * pitch for s in steps if isinstance(s, RotateShaft))
        assert total <= 7 * math.pi + 7 * pitch / 2.0 + 1e-12


def test_joint_state_validation():
    config = Configuration((0, 0, 0), 10)
    with pytest.raises(InvariantError, match="lock flags"):
        JointState((True, True), config)
    with pytest.raises(InvariantError, match="2 lock flags for 3 joints"):
        JointState([True, False], config)
    # a tuple of bools is kept as it is; any other flags become one
    flags = (True, False, True)
    assert JointState(flags, config).lock_flags is flags
    for given in ([True, False, True], np.array([True, False, True]), (1, 0, 2), (True, 0, True)):
        state = JointState(given, config)
        assert type(state.lock_flags) is tuple
        assert [type(f) for f in state.lock_flags] == [bool] * 3
        assert state.lock_flags == flags and state.unlocked_joints == (2,)
