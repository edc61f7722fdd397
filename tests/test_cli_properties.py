"""Property tests of the CLI contract: whatever the arguments and whatever the
description document, ``fk``, ``plan``, ``stiffness`` and ``normalize`` end
in exit code 0 (result), 1 (usage), 2 (domain) or 3 (I/O), never in an
exception.  Robots stay small and every file lives in a temporary directory."""
import contextlib
import io
import math

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from plc.cli import main

checked = settings(derandomize=True, deadline=None, max_examples=300)

# a number as the user might type it, or something that is not one
number_texts = st.one_of(
    st.integers(-12, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "-0", "0x10", "1_0", "x", "1" + "0" * 400]),
)
lists = st.lists(number_texts, max_size=6).map(",".join)
texts = st.one_of(lists, st.text(max_size=12))
# mostly well-formed configurations and directions, so the commands run
configs = st.one_of(
    st.lists(st.integers(0, 11), min_size=1, max_size=6).map(lambda v: ",".join(map(str, v))),
    lists,
)
vectors = st.one_of(
    st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3).map(lambda v: ",".join(map(repr, v))),
    lists,
)

# description fields, each with well-formed and ill-formed values
field_values = {
    "segment_count": st.one_of(st.integers(-1, 6), st.just(True), st.floats()),
    "tooth_count": st.one_of(st.integers(-1, 24), st.just("ten"), st.floats()),
    "bend_angle": st.one_of(st.floats(-10.0, 100.0), st.floats(), st.just(None)),
    "curve_length": st.one_of(st.floats(0.0, 1e3), st.floats(), st.integers()),
    "youngs_modulus": st.one_of(st.floats(0.0, 1e6), st.floats()),
    "poisson_ratio": st.floats(),
    "spine_outer_diameter": st.floats(0.0, 50.0),
    "spine_inner_diameter": st.floats(0.0, 50.0),
    "skin_outer_diameter": st.floats(0.0, 50.0),
    "skin_inner_diameter": st.floats(0.0, 50.0),
    "skin_thickness": st.one_of(st.floats(0.0, 10.0), st.floats()),
    "skin_convolutions": st.one_of(st.integers(-1, 10), st.text(max_size=3)),
    "tendon_anchor_radius": st.floats(),
    "lever_arm": st.floats(),
    "tendon_stiffness": st.one_of(st.floats(0.0, 1e3), st.floats()),
    "tool_offset": st.one_of(
        st.lists(st.floats(), min_size=3, max_size=3),
        st.lists(st.integers(), max_size=4),
        st.text(max_size=3),
    ),
}
small_robots = st.fixed_dictionaries(
    {"segment_count": st.integers(1, 6), "tooth_count": st.integers(2, 12)},
    optional={
        "bend_angle": st.floats(1.0, 89.0),
        "tool_offset": st.lists(st.floats(-100.0, 100.0), min_size=3, max_size=3),
    },
)
documents = st.one_of(
    small_robots.map(yaml.safe_dump),
    st.fixed_dictionaries({}, optional=field_values).map(yaml.safe_dump),
    st.dictionaries(st.text(max_size=5), st.integers(), max_size=2).map(yaml.safe_dump),
    st.text(max_size=40),
)
# a designs CSV: the header, then rows of text and numbers, and named rows
# of numbers that mostly reach the table
design_rows = st.one_of(
    st.lists(st.one_of(number_texts, st.text(max_size=4)), min_size=1, max_size=6).map(",".join),
    st.lists(number_texts, min_size=2, max_size=4).map(lambda cells: ",".join(["a", *cells])),
)
designs = st.lists(design_rows, max_size=4).map(
    lambda rows: "\n".join(["name,k_max,k_min,length_mm,radius_mm", *rows])
)


def commands(configs):
    """Argument lists of the commands that take a robot, with ``configs``
    as their configuration values."""
    return st.one_of(
        configs.map(lambda config: ["fk", f"--config={config}"]),
        st.builds(
            lambda start, goal, verify: ["plan", f"--start={start}", f"--goal={goal}", *verify],
            configs,
            configs,
            st.sampled_from([[], ["--verify"]]),
        ),
        st.builds(
            lambda config, how, polar: ["stiffness", "firm", f"--config={config}", *how, *polar],
            configs,
            st.one_of(
                st.just([]),
                vectors.map(lambda v: [f"--direction={v}"]),
                st.one_of(st.integers(-2, 300).map(str), texts).map(lambda n: [f"--sphere={n}"]),
            ),
            st.sampled_from([[], ["--literal-polar"]]),
        ),
        st.builds(
            lambda config, tension, direction: [
                "stiffness", "curve", f"--config={config}", f"--tension={tension}",
                f"--direction={direction}",
            ],
            configs,
            number_texts,
            vectors,
        ),
        st.builds(
            lambda part, torque: ["stiffness", "twist", part, f"--torque={torque}"],
            st.sampled_from(["--skin", "--spine"]),
            number_texts,
        ),
    )


@st.composite
def invocations(draw):
    """(robot source, description document, argument list); a small robot's
    configurations mostly fit it, so most of its commands run to the end."""
    source = draw(st.sampled_from(["robot", "document", "default", "missing"]))
    document, segments, teeth = "", 5, 10
    if source == "robot":
        robot = draw(small_robots)
        document, segments, teeth = yaml.safe_dump(robot), robot["segment_count"], robot["tooth_count"]
    elif source == "document":
        document = draw(documents)
    fitting = st.lists(st.integers(0, teeth - 1), min_size=segments, max_size=segments)
    fitting = fitting.map(lambda v: ",".join(map(str, v)))
    return source, document, draw(commands(st.one_of(fitting, configs)))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


def assert_contract(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in stderr.getvalue()
    if code:
        assert stderr.getvalue(), argv  # every failure says why
    return code, stdout.getvalue()


@checked
@given(invocations(), st.booleans(), st.lists(texts, max_size=2))
def test_commands_end_in_an_exit_code(workdir, invocation, out, extra):
    source, document, command = invocation
    robot = {"default": "default", "missing": str(workdir / "none")}.get(source)
    if robot is None:
        robot = workdir / "robot.yaml"
        robot.write_text(document, encoding="utf-8")
    out = ["--out", str(workdir / "out.csv")] if out else []
    assert_contract([*command, "--robot", str(robot), *out, *extra])


@checked
@given(st.one_of(designs, st.text(max_size=60)), st.booleans())
def test_normalize_ends_in_an_exit_code(workdir, document, out):
    path = workdir / "designs.csv"
    path.write_text(document, encoding="utf-8")
    out = ["--out", str(workdir / "table.csv")] if out else []
    code, stdout = assert_contract(["normalize", "--designs", str(path), *out])
    if code == 0:  # every number in the table is finite
        table = (workdir / "table.csv").read_text(encoding="utf-8") if out else stdout
        for line in table.splitlines()[1:]:
            for cell in line.rsplit(",", 5)[1:]:
                assert cell == "NA" or math.isfinite(float(cell)), line
