"""Robot description, discrete joint configurations, and rigid transforms.

Internal units are fixed across the whole package: millimetres for lengths,
newtons for forces, MPa (N/mm^2) for moduli, radians for angles.
Description files and the CLI use degrees for angles; the conversion happens
exactly once, on ingest.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
import yaml

TWO_PI = 2.0 * math.pi


class PlcError(Exception):
    """Base class for domain errors raised by this package."""


class SchemaError(PlcError):
    """A robot-description field has the wrong type.

    Raised by the :class:`RobotDescription` constructor, which checks every
    field, and by :func:`parse_robot_description` for a document that is not
    a mapping of known fields.
    """


class InvariantError(PlcError):
    """A value violates a model invariant."""


def index_angle(index, tooth_count):
    """Rotation angle (rad) of a tooth index: 2*pi*k / tooth_count.

    Works element-wise on arrays.  All modules derive angles through this
    single expression so index -> angle is bit-for-bit reproducible.
    """
    return (TWO_PI * np.asarray(index, dtype=float)) / tooth_count


_INT_FIELDS = {"segment_count", "tooth_count", "skin_convolutions"}
MAX_TOOTH_COUNT = 10**6  # every command builds per-tooth tables: about 140 MB at the bound
_POSITIVE_FIELDS = (
    "youngs_modulus",
    "tendon_stiffness",
    "curve_length",
    "spine_outer_diameter",
    "spine_inner_diameter",
    "skin_outer_diameter",
    "skin_inner_diameter",
    "skin_thickness",
    "tendon_anchor_radius",
    "lever_arm",
)


@dataclass(frozen=True)
class RobotDescription:
    """Geometry, material, tendon, and discretization parameters of a chain
    of identical inclined locking-cell units.

    Defaults describe the reference five-unit robot.  Angles are stored in
    radians, every length in mm, moduli in MPa.
    """

    segment_count: int = 5
    curve_length: float = 30.0              # centre-curve arc length per unit
    bend_angle: float = math.radians(30.0)  # fixed inclination per unit
    tooth_count: int = 10                   # discrete stable positions per turn
    youngs_modulus: float = 115.0           # resin, mid of the 100..130 MPa band
    poisson_ratio: float = 0.35
    spine_outer_diameter: float = 8.0
    spine_inner_diameter: float = 2.0
    skin_outer_diameter: float = 22.0       # bellows skin, crest
    skin_inner_diameter: float = 17.0       # bellows skin, root
    skin_thickness: float = 0.5             # bellows wall
    skin_convolutions: int = 4
    tendon_anchor_radius: float = 6.0       # radius of the two-anchor circle
    lever_arm: float = 20.0                 # external force height above fulcrum
    tendon_stiffness: float = 0.3           # N/mm, post-detachment slope
    tool_offset: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        # types first, so the range checks below compare numbers
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if name in _INT_FIELDS:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise SchemaError(f"field '{name}' must be an integer, got {value!r}")
                continue
            if name == "tool_offset":
                if not isinstance(value, (list, tuple)) or len(value) != 3:
                    raise SchemaError("field 'tool_offset' must be a list of 3 numbers")
                numbers = value
            else:
                numbers = (value,)
            for v in numbers:
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise SchemaError(f"field '{name}' must be a number, got {v!r}")
            floats = tuple(float(v) for v in numbers)
            object.__setattr__(self, name, floats if name == "tool_offset" else floats[0])
        if self.segment_count < 1:
            raise InvariantError(f"segment_count must be >= 1, got {self.segment_count}")
        if not 2 <= self.tooth_count <= MAX_TOOTH_COUNT:
            raise InvariantError(
                f"tooth_count must be in [2, {MAX_TOOTH_COUNT}], got {self.tooth_count}"
            )
        if self.skin_convolutions < 1:
            raise InvariantError(
                f"skin_convolutions must be >= 1, got {self.skin_convolutions}"
            )
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise InvariantError(f"{name} must be > 0, got {value}")
        if self.spine_inner_diameter >= self.spine_outer_diameter:
            raise InvariantError(
                "spine inner diameter must be < outer "
                f"(got {self.spine_inner_diameter} >= {self.spine_outer_diameter})"
            )
        if self.skin_inner_diameter >= self.skin_outer_diameter:
            raise InvariantError(
                "skin inner diameter must be < outer "
                f"(got {self.skin_inner_diameter} >= {self.skin_outer_diameter})"
            )
        if not (0.0 < self.bend_angle < math.pi / 2.0):
            raise InvariantError(
                f"bend_angle must lie in (0, pi/2) rad, got {self.bend_angle}"
            )
        if not (0.0 < self.poisson_ratio < 0.5):
            raise InvariantError(
                f"poisson_ratio must lie in (0, 0.5), got {self.poisson_ratio}"
            )
        if self.skin_thickness > self.skin_inner_diameter / 2.0:
            raise InvariantError(
                "skin_thickness must not exceed the skin inner radius "
                f"(got {self.skin_thickness} > {self.skin_inner_diameter / 2.0})"
            )
        if not all(math.isfinite(v) for v in self.tool_offset):
            raise InvariantError(f"tool_offset must be 3 finite numbers, got {self.tool_offset!r}")

    # -- derived quantities -------------------------------------------------

    @property
    def tooth_pitch(self) -> float:
        """Angular spacing of stable joint positions: 2*pi / tooth_count."""
        return TWO_PI / self.tooth_count

    @property
    def raw_configuration_count(self) -> int:
        """tooth_count ** segment_count, before duplicate-position merging."""
        return self.tooth_count**self.segment_count

    @property
    def shear_modulus(self) -> float:
        """G = E / (2 (1 + nu)), MPa."""
        return self.youngs_modulus / (2.0 * (1.0 + self.poisson_ratio))

    @property
    def spine_cross_section_area(self) -> float:
        """Annular spine cross-section area, mm^2."""
        return math.pi * (self.spine_outer_diameter**2 - self.spine_inner_diameter**2) / 4.0

    @property
    def spine_bending_inertia(self) -> float:
        """Area moment of the annular spine section, mm^4 (bending)."""
        return math.pi * (self.spine_outer_diameter**4 - self.spine_inner_diameter**4) / 64.0

    @property
    def spine_polar_inertia(self) -> float:
        """Polar moment of the annular spine section, mm^4 (torsion)."""
        return math.pi * (self.spine_outer_diameter**4 - self.spine_inner_diameter**4) / 32.0

    def check_configuration(self, config: "Configuration") -> None:
        """Raise unless ``config`` is valid for this robot."""
        if config.tooth_count != self.tooth_count:
            raise InvariantError(
                f"configuration tooth count {config.tooth_count} != robot "
                f"tooth count {self.tooth_count}"
            )
        if len(config.indices) != self.segment_count:
            raise InvariantError(
                f"configuration has {len(config.indices)} joints, robot has "
                f"{self.segment_count}"
            )


@dataclass(frozen=True)
class Configuration:
    """Per-joint rotation state stored as integer tooth indices.

    Indices are kept instead of angles so equality and hashing are exact;
    the angle of joint j is 2*pi*indices[j] / tooth_count.
    """

    indices: tuple[int, ...]
    tooth_count: int

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        if isinstance(self.tooth_count, bool) or not isinstance(self.tooth_count, int):
            raise InvariantError(f"tooth_count must be an integer, got {self.tooth_count!r}")
        if self.tooth_count < 2:
            raise InvariantError(f"tooth_count must be >= 2, got {self.tooth_count}")
        if not self.indices:
            raise InvariantError("configuration needs at least one joint")
        for k in self.indices:
            if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
                raise InvariantError(f"tooth index must be an integer, got {k!r}")
            if not 0 <= k < self.tooth_count:
                raise InvariantError(
                    f"tooth index {k} outside [0, {self.tooth_count})"
                )
        object.__setattr__(self, "indices", tuple(int(k) for k in self.indices))

    @property
    def angles(self) -> np.ndarray:
        """Joint angles in radians, exactly 2*pi*k / tooth_count per joint."""
        return index_angle(np.array(self.indices, dtype=float), self.tooth_count)

    def with_index(self, joint: int, index: int) -> "Configuration":
        """Copy with joint ``joint`` (0-based) set to tooth index ``index``."""
        new = list(self.indices)
        new[joint] = index
        return Configuration(tuple(new), self.tooth_count)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Rotation + translation pair; rotation is checked proper-orthonormal."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=float)
        tra = np.array(self.translation, dtype=float)
        if rot.shape != (3, 3):
            raise InvariantError(f"rotation must be 3x3, got shape {rot.shape}")
        if tra.shape != (3,):
            raise InvariantError(f"translation must be a 3-vector, got shape {tra.shape}")
        # written so that a NaN error or determinant fails the bound too
        err = np.abs(rot.T @ rot - np.eye(3)).max()
        if not err <= 1e-12:
            raise InvariantError(f"rotation is not orthonormal (max error {err:.3e})")
        (a, b, c), (d, e, f), (g, h, i) = rot.tolist()
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if not abs(det - 1.0) <= 1e-12:
            raise InvariantError(f"rotation determinant {det} != +1")
        x, y, z = tra.tolist()
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
            raise InvariantError(f"translation must be finite, got {tra.tolist()}")
        rot.setflags(write=False)
        tra.setflags(write=False)
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tra)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(3), np.zeros(3))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self followed by other expressed in self's frame: T_self * T_other."""
        return RigidTransform(
            self.rotation @ other.rotation,
            self.rotation @ other.translation + self.translation,
        )

    def transform_point(self, point) -> np.ndarray:
        return self.rotation @ np.asarray(point, dtype=float) + self.translation


# -- description documents ---------------------------------------------------

_FIELD_NAMES = tuple(f.name for f in fields(RobotDescription))


def parse_robot_description(text: str) -> RobotDescription:
    """Read a key/value description document (YAML mapping, JSON works too).

    Field names match :class:`RobotDescription`; lengths are in mm, angles in
    degrees, moduli in MPa.  Missing fields take the reference-robot defaults.
    The parser only reads the document: it refuses a non-mapping or an
    unknown field, turns a numeric ``bend_angle`` into radians, and leaves
    every type and range check to the constructor.
    """
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise SchemaError(f"unparseable description document: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise SchemaError("description document must be a key/value mapping")

    unknown = sorted(set(doc) - set(_FIELD_NAMES))
    if unknown:
        raise SchemaError(f"unknown field '{unknown[0]}' in description document")

    angle = doc.get("bend_angle")
    if isinstance(angle, (int, float)) and not isinstance(angle, bool):
        doc["bend_angle"] = math.radians(angle)
    return RobotDescription(**doc)


def _exact_degrees(radians_value: float) -> float:
    """Degree value whose radians() conversion reproduces the input exactly."""
    deg = math.degrees(radians_value)
    for _ in range(4):
        if math.radians(deg) == radians_value:
            return deg
        deg = math.nextafter(deg, math.inf if math.radians(deg) < radians_value else -math.inf)
    return math.degrees(radians_value)


def _number_literal(value: float) -> str:
    # repr round-trips doubles; normalize exponent spelling so YAML keeps the
    # float tag ('1e-06' would load as a string, '1.0e-06' does not).
    s = repr(float(value))
    if "e" in s:
        mantissa, _, exponent = s.partition("e")
        if "." not in mantissa:
            mantissa += ".0"
        if exponent[0] not in "+-":
            exponent = "+" + exponent
        s = f"{mantissa}e{exponent}"
    return s


def serialize_robot_description(desc: RobotDescription) -> str:
    """Emit a description document that parses back field-for-field equal."""
    lines = []
    for name in _FIELD_NAMES:
        value = getattr(desc, name)
        if name in _INT_FIELDS:
            lines.append(f"{name}: {value}")
        elif name == "bend_angle":
            lines.append(f"{name}: {_number_literal(_exact_degrees(value))}")
        elif name == "tool_offset":
            inner = ", ".join(_number_literal(v) for v in value)
            lines.append(f"{name}: [{inner}]")
        else:
            lines.append(f"{name}: {_number_literal(value)}")
    return "\n".join(lines) + "\n"


def description_digest(desc: RobotDescription) -> bytes:
    """32-byte digest identifying a description (used by the index cache)."""
    import hashlib

    return hashlib.sha256(serialize_robot_description(desc).encode("utf-8")).digest()
