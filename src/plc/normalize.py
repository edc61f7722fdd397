"""Size-independent stiffness normalization and design comparison tables.

A cantilever of length L and radius R has bending stiffness 3EI/L^3 with
I = pi R^4 / 64, so multiplying a measured stiffness by L^3 / R^4 strips the
beam-size dependence and leaves a material-level comparator (N/mm^2).  The
max/min stiffness ratio of a design is unchanged by the normalization.

A :class:`DesignRecord` derives its normalized extremes from its own fields,
and :func:`build_comparison` orders the records themselves, so the
comparison table is the records, sorted.
"""
from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from importlib import resources

from .files import MAX_DOCUMENT_BYTES, read_text
from .model import InvariantError, PlcError

BUILTIN_DESIGNS_RESOURCE = "varying_stiffness_designs.csv"


@dataclass(frozen=True)
class DesignRecord:
    """One variable-stiffness design: raw stiffness extremes plus optional
    beam geometry (unknown geometry keeps normalization unavailable)."""

    name: str
    k_max: float
    k_min: float
    length: float | None = None
    radius: float | None = None

    def __post_init__(self):
        if not self.name:
            raise InvariantError("design record needs a name")
        if not (self.k_max >= self.k_min > 0.0):
            raise InvariantError(
                f"need k_max >= k_min > 0, got {self.k_max} / {self.k_min}"
            )
        for attr in ("length", "radius"):
            value = getattr(self, attr)
            if value is not None and not value > 0.0:
                raise InvariantError(f"{attr} must be > 0 when present, got {value}")
        for attr in ("k_max", "k_min", "length", "radius"):  # a CSV cell of 1e400 reads as inf
            value = getattr(self, attr)
            if value is not None and not math.isfinite(value):
                raise InvariantError(f"{attr} must be finite, got {value}")

    @property
    def has_geometry(self) -> bool:
        return self.length is not None and self.radius is not None

    @property
    def ratio(self) -> float:
        return self.k_max / self.k_min

    @property
    def k_max_normalized(self) -> float | None:
        """``normalize_stiffness`` of ``k_max``, or None without geometry."""
        return normalize_stiffness(self.k_max, self.length, self.radius) if self.has_geometry else None

    @property
    def k_min_normalized(self) -> float | None:
        """``normalize_stiffness`` of ``k_min``, or None without geometry."""
        return normalize_stiffness(self.k_min, self.length, self.radius) if self.has_geometry else None


def normalize_stiffness(k: float, length: float, radius: float) -> float:
    """k * L^3 / R^4, the size-independent bending-stiffness comparator."""
    if not (length > 0.0 and radius > 0.0):
        raise PlcError(f"length and radius must be > 0, got {length}, {radius}")
    try:
        value = k * length**3 / radius**4
    except (OverflowError, ZeroDivisionError):  # a power past the float range, or R^4 down to 0
        value = math.inf
    if not math.isfinite(value):
        raise PlcError(f"k * L^3 / R^4 is out of the float range for {k}, {length}, {radius}")
    return value


def build_comparison(records) -> list[DesignRecord]:
    """The records, sorted by ratio descending; equal ratios keep their order.

    Each record's normalized extremes are computed first, in input order, so
    a normalization past the float range is refused here, not when a row is
    printed.
    """
    records = list(records)
    if not records:
        raise PlcError("no design records given")
    for rec in records:
        rec.k_max_normalized, rec.k_min_normalized  # read for the refusal only
    return sorted(records, key=lambda rec: -rec.ratio)


def _parse_optional(field: str, row_name: str, column: str) -> float | None:
    field = field.strip()
    if field in ("", "NA", "na"):
        return None
    try:
        return float(field)
    except ValueError:
        raise PlcError(
            f"design '{row_name}': column '{column}' is not a number: {field!r}"
        ) from None


def parse_designs_csv(text: str) -> list[DesignRecord]:
    """Parse a designs CSV: name,k_max,k_min,length_mm,radius_mm.

    Geometry cells may be empty; lines starting with '#' are comments; extra
    columns are ignored.
    """
    lines = [line for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#")]
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    required = {"name", "k_max", "k_min"}
    if reader.fieldnames is None or not required <= set(reader.fieldnames):
        raise PlcError(
            "designs CSV needs columns name,k_max,k_min[,length_mm,radius_mm]"
        )
    records = []
    for row in reader:
        name = (row.get("name") or "").strip()
        k_max = _parse_optional(row.get("k_max") or "", name, "k_max")
        k_min = _parse_optional(row.get("k_min") or "", name, "k_min")
        if k_max is None or k_min is None:
            raise PlcError(f"design '{name}': k_max and k_min are required")
        records.append(
            DesignRecord(
                name=name,
                k_max=k_max,
                k_min=k_min,
                length=_parse_optional(row.get("length_mm") or "", name, "length_mm"),
                radius=_parse_optional(row.get("radius_mm") or "", name, "radius_mm"),
            )
        )
    if not records:
        raise PlcError("designs CSV contains no records")
    return records


def load_designs(path) -> list[DesignRecord]:
    return parse_designs_csv(read_text(path, MAX_DOCUMENT_BYTES))


def builtin_designs() -> list[DesignRecord]:
    """Bundled literature survey of varying-stiffness designs."""
    data = resources.files("plc").joinpath("data").joinpath(BUILTIN_DESIGNS_RESOURCE)
    return parse_designs_csv(data.read_text("utf-8"))
