import math

import numpy as np
import pytest

from plc import (
    DesignRecord,
    PlcError,
    build_comparison,
    builtin_designs,
    load_designs,
    normalize_stiffness,
)
from plc.model import InvariantError
from plc.normalize import parse_designs_csv


def test_unit_case():
    assert normalize_stiffness(1.0, 1.0, 1.0) == 1.0


def test_monomial_scaling():
    base = normalize_stiffness(2.5, 10.0, 3.0)
    assert normalize_stiffness(2.5, 20.0, 3.0) == pytest.approx(8.0 * base, rel=1e-15)
    assert normalize_stiffness(2.5, 10.0, 6.0) == pytest.approx(base / 16.0, rel=1e-15)
    with pytest.raises(PlcError):
        normalize_stiffness(1.0, 0.0, 1.0)
    # R^4 past the float range, R^4 down to 0, k * L^3 to inf
    for k, length, radius in [(1.0, 1.0, 1.2e77), (1.0, 1.0, 5e-324), (1e300, 1e10, 1.0)]:
        with pytest.raises(PlcError, match="out of the float range"):
            normalize_stiffness(k, length, radius)


def test_ratio_is_invariant_under_normalization():
    rng = np.random.default_rng(89)
    for _ in range(50):
        k_min = float(rng.uniform(0.01, 5.0))
        k_max = k_min * float(rng.uniform(1.0, 20.0))
        length = float(rng.uniform(5.0, 500.0))
        radius = float(rng.uniform(0.5, 50.0))
        raw = k_max / k_min
        normalized = normalize_stiffness(k_max, length, radius) / normalize_stiffness(
            k_min, length, radius
        )
        assert abs(normalized - raw) <= 1e-12 * raw


def test_ideal_cantilever_is_size_independent():
    # an ideal cantilever normalizes to 3 E pi / 64 whatever its length and radius
    modulus = 115.0
    expected = 3.0 * modulus * math.pi / 64.0
    for length, radius in [(10.0, 1.0), (250.0, 4.0), (30.0, 11.0)]:
        inertia = math.pi * radius**4 / 64.0
        stiffness = 3.0 * modulus * inertia / length**3
        assert normalize_stiffness(stiffness, length, radius) == pytest.approx(
            expected, rel=1e-12
        )


def test_design_record_invariants():
    with pytest.raises(InvariantError):
        DesignRecord("bad", k_max=1.0, k_min=2.0)
    with pytest.raises(InvariantError):
        DesignRecord("bad", k_max=1.0, k_min=0.0)
    with pytest.raises(InvariantError):
        DesignRecord("bad", k_max=1.0, k_min=0.5, length=-1.0)
    with pytest.raises(InvariantError):
        DesignRecord("", k_max=1.0, k_min=0.5)


@pytest.mark.parametrize(
    "fields",
    [
        dict(k_max=math.inf, k_min=1.0),
        dict(k_max=math.inf, k_min=math.inf),
        dict(k_max=2.0, k_min=1.0, length=math.inf, radius=1.0),
        dict(k_max=2.0, k_min=1.0, length=1.0, radius=math.inf),
    ],
)
def test_design_record_refuses_non_finite_values(fields):
    with pytest.raises(InvariantError, match="must be finite"):
        DesignRecord("inf", **fields)


def test_build_comparison_sorting_and_na():
    records = [
        DesignRecord("alpha", 2.0, 1.0),
        DesignRecord("beta", 9.0, 1.0, length=100.0, radius=5.0),
        DesignRecord("gamma", 4.0, 1.0),
    ]
    rows = build_comparison(records)
    assert [row.name for row in rows] == ["beta", "gamma", "alpha"]
    assert rows[0].k_max_normalized == pytest.approx(9.0 * 100.0**3 / 5.0**4)
    assert rows[1].k_max_normalized is None
    assert rows[2].ratio == 2.0
    single = build_comparison([DesignRecord("solo", 1.0, 0.5)])
    assert len(single) == 1
    with pytest.raises(PlcError):
        build_comparison([])


def test_builtin_designs_table():
    records = builtin_designs()
    assert len(records) == 19
    by_name = {rec.name: rec for rec in records}
    ours = by_name["PLC (ours)"]
    assert (ours.k_max, ours.k_min) == (8.07, 0.85)
    assert abs(ours.ratio - 9.5) <= 0.01
    assert ours.ratio == max(rec.ratio for rec in records)
    kim = by_name["Kim et al. (tendon)"]
    assert kim.ratio == pytest.approx(0.48 / 0.16, rel=1e-12)
    assert kim.ratio == pytest.approx(3.0, rel=1e-9)
    assert not any(rec.has_geometry for rec in records)  # geometry unpublished


def test_parse_designs_csv():
    text = (
        "# comment line\n"
        "name,k_max,k_min,length_mm,radius_mm,notes\n"
        "a,2.0,1.0,100,5,extra column ignored\n"
        "b,3.5,0.5,,\n"
    )
    records = parse_designs_csv(text)
    assert records[0].has_geometry and records[0].length == 100.0
    assert not records[1].has_geometry
    with pytest.raises(PlcError, match="columns"):
        parse_designs_csv("foo,bar\n1,2\n")
    with pytest.raises(PlcError, match="k_max"):
        parse_designs_csv("name,k_max,k_min\nx,abc,1\n")
    with pytest.raises(PlcError):
        parse_designs_csv("name,k_max,k_min\n")


def test_load_designs(tmp_path):
    path = tmp_path / "designs.csv"
    path.write_text("name,k_max,k_min,length_mm,radius_mm\nmine,5,1,50,2\n")
    records = load_designs(path)
    assert records[0].name == "mine"
    assert records[0].ratio == 5.0
    # a byte order mark is not part of the first column name: it stayed on
    # "name", and the file was refused for missing the name column
    path.write_text("name,k_max,k_min,length_mm,radius_mm\nmine,5,1,50,2\n", encoding="utf-8-sig")
    assert load_designs(path) == records
