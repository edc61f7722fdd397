import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
)

from conftest import desc_with


def random_config(rng, n, teeth=10):
    return Configuration(tuple(int(v) for v in rng.integers(0, teeth, n)), teeth)


def test_lock_is_idempotent():
    state = all_locked(Configuration((0, 0, 0), 10))
    assert simulate(state, [Lock(2)]) == state
    unlocked = simulate(state, [Unlock(2)])
    assert unlocked.unlocked_joints == (2,)
    assert simulate(unlocked, [Unlock(2)]) == unlocked


def test_unlock_rotate_lock_trace():
    state = all_locked(Configuration((0, 0, 0, 0, 0), 10))
    state = simulate(state, [Unlock(3)])
    state = simulate(state, [RotateShaft(2)])
    state = simulate(state, [Lock(3)])
    assert state.config.indices == (0, 0, 2, 0, 0)
    assert state.unlocked_joints == ()
    # +2 teeth of a 10-tooth joint is a 72 degree turn
    assert math.degrees(2 * 2 * math.pi / 10) == pytest.approx(72.0)


def test_rotation_wraps_around():
    state = all_locked(Configuration((9,), 10))
    state = simulate(state, [Unlock(1)])
    state = simulate(state, [RotateShaft(3)])
    assert state.config.indices == (2,)
    state = simulate(state, [RotateShaft(-4)])
    assert state.config.indices == (8,)


def test_rotation_requires_exactly_one_loosened_joint():
    locked = all_locked(Configuration((0, 0, 0), 10))
    with pytest.raises(PlcError, match="exactly one loosened joint"):
        simulate(locked, [RotateShaft(1)])
    two_open = simulate(simulate(locked, [Unlock(1)]), [Unlock(2)])
    with pytest.raises(PlcError, match="exactly one loosened joint"):
        simulate(two_open, [RotateShaft(1)])


def test_step_validation():
    state = all_locked(Configuration((0, 0), 10))
    with pytest.raises(InvariantError, match="joint"):
        simulate(state, [Unlock(0)])
    with pytest.raises(InvariantError, match="joint"):
        simulate(state, [Lock(3)])
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
            state = simulate(state, [step])
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


# a joint number a step may carry: in range for some robots and out of range
# for others, or not an integer at all
joint_numbers = st.one_of(st.integers(-1, 8), st.sampled_from([True, 1.0, "1", None]))
any_steps = st.one_of(
    st.builds(Unlock, joint_numbers),
    st.builds(Lock, joint_numbers),
    st.builds(RotateShaft, st.integers(-25, 25)),
    st.sampled_from([None, 3, "unlock 1", ("rotate", 1), Configuration((0,), 10)]),
)


def schedules(n):
    """Step lists that mix unlock / rotate / lock triples on joints 1..n, as
    plan_to writes them, with single steps of any kind."""
    triples = st.builds(
        lambda joint, pitch_steps: [Unlock(joint), RotateShaft(pitch_steps), Lock(joint)],
        st.integers(1, n),
        st.integers(-25, 25),
    )
    # three triples to one single step
    groups = st.integers(0, 3).flatmap(lambda k: triples if k else any_steps.map(lambda step: [step]))
    return st.lists(groups, max_size=6).map(lambda groups: [step for group in groups for step in group])


def reference_fold(flags, indices, teeth, schedule):
    """The end lock flags and tooth indices of ``schedule`` run from
    ``flags`` and ``indices``, or the exception type and message of its
    first illegal step: the step rules written out again, with no library
    call."""
    flags, indices = list(flags), list(indices)
    for step in schedule:
        if isinstance(step, (Unlock, Lock)):
            joint = step.joint
            if isinstance(joint, bool) or not isinstance(joint, int):
                return InvariantError, f"joint must be an integer, got {joint!r}"
            if not 1 <= joint <= len(flags):
                return InvariantError, f"joint {joint} outside 1..{len(flags)}"
            flags[joint - 1] = isinstance(step, Lock)
        elif isinstance(step, RotateShaft):
            loosened = [j for j, locked in enumerate(flags) if not locked]
            if len(loosened) != 1:
                return PlcError, "rotation requires exactly one loosened joint"
            j = loosened[0]
            indices[j] = (indices[j] + step.pitch_steps) % teeth
        else:
            return PlcError, f"unknown actuation step {step!r}"
    return tuple(flags), tuple(indices)


def outcome(run, state, schedule):
    """``run(state, schedule)`` as the state it returns, or as the type and
    message of what it raises."""
    try:
        return run(state, schedule)
    except Exception as exc:
        return type(exc), str(exc)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_simulate_is_the_reference_fold(data):
    n = data.draw(st.integers(1, 6))
    teeth = data.draw(st.integers(2, 13))
    flags = data.draw(st.one_of(st.just([True] * n), st.lists(st.booleans(), min_size=n, max_size=n)))
    indices = data.draw(st.lists(st.integers(0, teeth - 1), min_size=n, max_size=n))
    schedule = data.draw(schedules(n))
    state = JointState(tuple(flags), Configuration(tuple(indices), teeth))
    want = reference_fold(flags, indices, teeth, schedule)
    for given_schedule in (list(schedule), (step for step in schedule)):
        got = outcome(simulate, state, given_schedule)
        if isinstance(got, JointState):
            assert [type(f) for f in got.lock_flags] == [bool] * n
            assert got.config.tooth_count == teeth
            got = got.lock_flags, got.config.indices
        assert got == want


def test_simulate_builds_one_state(monkeypatch):
    start, goal = Configuration((3, 1, 4, 1, 5), 10), Configuration((3, 9, 4, 6, 0), 10)
    state = all_locked(start)
    plan = plan_to(desc_with(), start, goal)
    assert len(plan) == 9
    built = collections.Counter()
    for cls in (JointState, Configuration):
        def spy(self, post_init=cls.__post_init__, cls=cls):
            built[cls.__name__] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", spy)
    end = simulate(state, plan)
    assert built == {"JointState": 1, "Configuration": 1}
    assert end.lock_flags == (True,) * 5 and end.config == goal
    built.clear()
    end = simulate(state, iter([Unlock(2), Lock(2), Unlock(5)]))
    assert built == {"JointState": 1}
    assert end.unlocked_joints == (5,) and end.config is start
    built.clear()
    for empty in ([], (), iter([])):
        assert simulate(state, empty) is state
    assert built == {}
    assert simulate(state, [Lock(1)]) == state
    assert built == {"JointState": 1}
