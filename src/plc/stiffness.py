"""Stiffness models: firmed-state compliance, loosening threshold and
post-detachment force-deflection law, and torsion of spine and bellows skin.

Firmed state: with every locking ring engaged the chain behaves as one
elastic body.  The tip force transmits unchanged along the unloaded chain,
so each segment adds its axial and cantilever bending compliance about its
own axis, and the tip force -> tip displacement map is

    delta = C F,   C = sum_i [ a v_i v_i^T + b (I - v_i v_i^T) ]
                     = a A^T A + b (n I - A^T A)

with v_i the world-frame axial unit vector of segment i, A the (n, 3) stack
of them, a = L/(EA) and b = L^3/(3EI).  This closed form is the only
statement of the model here; its derivation by the energy method
(Castigliano: C is the Hessian of the chain's strain energy in F) lives in
``tests/_oracles.py``, which the tests differentiate to check C.  C maps
N -> mm, so it is a compliance; directional stiffness is reported as
|F| / |delta|.

C is formed in Python floats, with no BLAS call, so its bits are the same
on every host: each of the six distinct Gram entries g_ij = sum_s v_si v_sj
(i <= j) is summed from 0.0 over the segments s = 0 .. n-1 in order, the
other three mirror them, so C is exactly symmetric, and each entry is then
a g_ij + b (n delta_ij - g_ij).  :func:`firmed_compliance` reads the axes
as float triples from the single-pose walk of :mod:`plc.kinematics`, with
no end pose, tip or axes array built.  :class:`ComplianceMatrix` checks the
nine entries as Python floats (finite, symmetric, and positive definite by
the pivots of a Cholesky factorization) and builds its array only when
``matrix`` is read.

A pose is described by its compliance, its sphere map and its
force-deflection curve, and each of those reads C, so
:func:`firmed_compliance` keeps C of the last ``_CACHED_POSES`` poses in a
``functools.lru_cache`` memo keyed on the description, the configuration
and ``literal_polar``: the three calls at one pose walk the chain and check
C once, where each paid for both before.  The configuration is checked
against the description before the lookup, and a refusal is never kept, so
every error keeps its type and message on every call.  A hit returns the
matrix of a walk bit for bit: equal descriptions have equal fields, and C
never reads ``tool_offset``, the only field that can hold -0.0 (which
equals 0.0).  The matrix holds its entries in tuples and its array
read-only, so the callers that share it cannot change it for each other.

|C u| is written once too, in one stated order with no BLAS call:
``d_i = (c_i0 u0 + c_i1 u1) + c_i2 u2`` and ``|C u|^2 = (d0 d0 + d1 d1) +
d2 d2``.  ``_squared_displacement`` spells it for three Python floats (one
direction) or three numpy columns (a sphere map), so a map row and the same
single direction agree bit for bit on every host, and
:meth:`ComplianceMatrix.displacement` forms C F with the same d_i.  The
norm of a direction is one stated order too, ``sqrt((x x + y y) + z z)`` of
the vector scaled exactly by a power of two (``_scaled``), for the unit
check here and for the CLI's ``--direction``.  A sphere map is one
structured array, a record of direction, stiffness and compliance per
direction, filled by whole-column operations.

Loosening state: an external force large enough to out-lever the tendon
tension opens the locking ring; past that threshold further deflection is
dominated by tendon stretch, giving a shallower second slope.

All lengths mm, forces N, moduli MPa, torques N*mm, angles rad.

numpy and :mod:`plc.kinematics` are imported inside the functions that use
them, so the twist formulas (``plc stiffness twist``) load neither, and one
direction or one force-deflection curve (``plc stiffness firm --direction``,
``plc stiffness curve``) loads no numpy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral

from .model import Configuration, InvariantError, PlcError, RobotDescription

# poses whose firmed compliance is kept: 0.64 kB each with the memo's own
# entry and the configuration it keeps alive, 0.84 kB once ``matrix`` is
# read (tracemalloc, Python 3.11, 5 and 10 segments), so about 0.2 MB at most
_CACHED_POSES = 256

#: Most directions ``stiffness_map`` samples: under 80 B of traced memory
#: each (``tracemalloc``: 72 B, the 40-byte record beside the direction and
#: norm it is filled from, numpy 2.4 and Python 3.11), so under 80 MB.
MAX_SPHERE_SAMPLES = 10**6

#: Range, mm/N, that a chain's n*min(a, b) and n*max(a, b) must lie in: |C u|
#: of a unit u lies between those two, so its square (the sum
#: ``_squared_displacement`` returns) stays a normal float and its
#: reciprocal, the stiffness, is finite, with four decades to spare for
#: rounding.
COMPLIANCE_RANGE = (1e-150, 1e150)


def _bending_inertia(desc: RobotDescription, literal_polar: bool) -> float:
    # literal_polar doubles the bending inertia (uses the torsion polar moment
    # in the bending terms); kept for sensitivity checks only
    return desc.spine_polar_inertia if literal_polar else desc.spine_bending_inertia


def _scaled(vector) -> tuple[int, tuple[float, float, float], float]:
    """The exponent e of the largest |component| of ``vector``, three floats
    (``math.frexp``), the vector scaled by 2**-e, and the norm of the scaled
    vector, ``sqrt((x x + y y) + z z)`` in that order.

    The scaling is exact, so the scaled vector keeps its bits and its norm
    neither underflows (1e-200,0,0) nor overflows (1e200,1e200,0).
    """
    x, y, z = vector
    e = math.frexp(max(abs(x), abs(y), abs(z)))[1]
    x, y, z = math.ldexp(x, -e), math.ldexp(y, -e), math.ldexp(z, -e)
    return e, (x, y, z), math.sqrt((x * x + y * y) + z * z)


def _check_unit(vector, what: str) -> tuple[float, float, float]:
    """``vector`` as three Python floats, refused unless it is a unit vector."""
    if type(vector) in (list, tuple) and all(isinstance(c, (int, float)) for c in vector):
        v = tuple(map(float, vector))
    else:
        import numpy as np

        v = np.asarray(vector, dtype=float)
        v = tuple(v.tolist()) if v.shape == (3,) else ()
    # a unit vector's largest |component| lies in [3**-0.5, 1 + 1e-9], so
    # its math.frexp exponent is 0 or 1, and its norm is that of the scaled
    # vector times 2**e, exactly.  Written so that a NaN fails too
    if len(v) == 3:
        e, _, norm = _scaled(v)
        if e in (0, 1) and abs(math.ldexp(norm, e) - 1.0) <= 1e-9:
            return v
    raise InvariantError(f"{what} must be a unit 3-vector")


class ComplianceMatrix:
    """Symmetric positive-definite tip force -> tip displacement map, mm/N.

    Built from a 3x3 array-like.  Its entries must be finite, symmetric to
    within 1e-12 of the largest |entry|, and positive definite, all checked
    on the nine entries as Python floats.  ``matrix`` is the map as a
    read-only (3, 3) array, built on its first read.
    """

    __slots__ = ("_rows", "_matrix")

    def __init__(self, matrix):
        if type(matrix) in (list, tuple) and all(
            type(row) in (list, tuple) and len(row) == 3 and all(type(x) is float for x in row)
            for row in matrix
        ):
            rows = matrix  # three rows of Python floats: no array to build
        else:
            import numpy as np

            m = np.array(matrix, dtype=float)
            rows = m.tolist() if m.shape == (3, 3) else []
        if len(rows) != 3:
            raise InvariantError("compliance matrix must be 3x3")
        (a, b, c), (d, e, f), (g, h, i) = rows
        entries = a, b, c, d, e, f, g, h, i
        if not all(map(math.isfinite, entries)):
            raise InvariantError("compliance matrix entries must be finite")
        largest = max(map(abs, entries))
        if max(abs(b - d), abs(c - g), abs(f - h)) > 1e-12 * largest:
            raise InvariantError("compliance matrix must be symmetric")
        # the pivots of a Cholesky factorization (L D L^T) of the lower
        # triangle, once scaled exactly by the power of two that brings the
        # largest |entry| into [0.5, 1), so no product overflows
        scale = -math.frexp(largest)[1]
        a, d, e, g, h, i = (math.ldexp(x, scale) for x in (a, d, e, g, h, i))
        if not a > 0.0:
            raise InvariantError("compliance matrix must be positive definite")
        l1, l2 = d / a, g / a
        pivot, l3 = e - l1 * d, h - l2 * d
        if not pivot > 0.0 or not (i - l2 * g) - l3 * l3 / pivot > 0.0:
            raise InvariantError("compliance matrix must be positive definite")
        self._rows = tuple(map(tuple, rows))
        self._matrix = None

    @property
    def matrix(self) -> np.ndarray:
        """The map as a read-only (3, 3) float array."""
        if self._matrix is None:
            import numpy as np

            self._matrix = np.array(self._rows)
            self._matrix.setflags(write=False)
        return self._matrix

    def displacement(self, force) -> np.ndarray:
        """Tip displacement (mm) under a tip force (N): each component
        ``d_i = (c_i0 f0 + c_i1 f1) + c_i2 f2``, in the order of |C u|."""
        import numpy as np

        return np.array(_displacement(self._rows, *np.asarray(force, dtype=float)))


def compliance_from_axes(
    desc: RobotDescription, axes, literal_polar: bool = False
) -> ComplianceMatrix:
    """Compliance of a chain whose segments have the given axial unit vectors:
    ``a A^T A + b (n I - A^T A)`` (see the module docstring).

    Refused unless ``n a`` and ``n b`` lie in :data:`COMPLIANCE_RANGE`.
    """
    import numpy as np

    return _compliance(desc, np.atleast_2d(np.asarray(axes, dtype=float)).tolist(), literal_polar)


def _compliance(desc: RobotDescription, axes, literal_polar: bool) -> ComplianceMatrix:
    """:func:`compliance_from_axes` of ``axes`` given as triples of floats."""
    count = len(axes)
    length = desc.curve_length
    e = desc.youngs_modulus
    try:
        axial = length / (e * desc.spine_cross_section_area)
        bending = length**3 / (3.0 * e * _bending_inertia(desc, literal_polar))
    except (OverflowError, ZeroDivisionError):  # a power overflows or a product underflows to 0
        raise PlcError("a section term, L/(EA) or L^3/(3EI), leaves the float range") from None
    low, high = COMPLIANCE_RANGE
    if not (low <= count * min(axial, bending) and count * max(axial, bending) <= high):
        raise PlcError(
            f"the firmed compliance of {count} segments of L/(EA) = {axial:.3g} and "
            f"L^3/(3EI) = {bending:.3g} mm/N lies outside the float range {low:g} to "
            f"{high:g} mm/N the model computes in"
        )
    # the six distinct entries of A^T A, in the order of the module docstring
    gxx = gxy = gxz = gyy = gyz = gzz = 0.0
    for x, y, z in axes:
        gxx += x * x
        gxy += x * y
        gxz += x * z
        gyy += y * y
        gyz += y * z
        gzz += z * z
    gram = ((gxx, gxy, gxz), (gxy, gyy, gyz), (gxz, gyz, gzz))
    # a v v^T + b (I - v v^T) summed over the rows v; a straight segment's
    # axial entry is a itself, as b (1 - 1) is exactly 0
    return ComplianceMatrix(
        [
            [axial * g + bending * ((count if i == j else 0.0) - g) for j, g in enumerate(row)]
            for i, row in enumerate(gram)
        ]
    )


def firmed_compliance(
    desc: RobotDescription, config: Configuration, literal_polar: bool = False
) -> ComplianceMatrix:
    """Maximum-stiffness-state compliance of the chain at ``config``.

    Served from the memo of the last ``_CACHED_POSES`` poses (see the
    module docstring); ``config`` is checked against ``desc`` first, and a
    refusal is never kept."""
    desc.check_configuration(config)
    return _firmed_compliance(desc, config, bool(literal_polar))


@functools.lru_cache(maxsize=_CACHED_POSES)
def _firmed_compliance(
    desc: RobotDescription, config: Configuration, literal_polar: bool
) -> ComplianceMatrix:
    """:func:`firmed_compliance` of a checked ``config``, walked once per pose."""
    from .kinematics import _walk

    return _compliance(desc, _walk(desc, config, end=False)[1], literal_polar)


def _displacement(rows, u0, u1, u2):
    """C u, C given as three ``rows`` of three floats, of a u given as three
    Python floats (one vector) or three numpy columns (one entry per
    vector): ``d_i = (c_i0 u0 + c_i1 u1) + c_i2 u2``, as a list of three."""
    return [(c0 * u0 + c1 * u1) + c2 * u2 for c0, c1, c2 in rows]


def _squared_displacement(rows, u0, u1, u2):
    """|C u|^2 (mm^2/N^2) of a unit u, in the order of the module docstring:
    ``(d0 d0 + d1 d1) + d2 d2`` of :func:`_displacement`."""
    d0, d1, d2 = _displacement(rows, u0, u1, u2)
    return (d0 * d0 + d1 * d1) + d2 * d2


def directional_stiffness(
    desc: RobotDescription, config: Configuration, direction, literal_polar: bool = False
) -> float:
    """|F| / |delta| for a unit force along ``direction``, N/mm."""
    u = _check_unit(direction, "direction")
    rows = firmed_compliance(desc, config, literal_polar)._rows
    return 1.0 / math.sqrt(_squared_displacement(rows, *u))


def fibonacci_sphere(samples: int) -> np.ndarray:
    """Near-uniform unit directions, shape (samples, 3)."""
    import numpy as np

    i = np.arange(samples, dtype=float)
    z = 1.0 - 2.0 * (i + 0.5) / samples
    r = np.sqrt(np.maximum(0.0, 1.0 - z**2))
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def stiffness_map(
    desc: RobotDescription,
    config: Configuration,
    sphere_samples: int,
    literal_polar: bool = False,
) -> np.ndarray:
    """Directional stiffness sampled over the sphere for plotting/export.

    Returns one record per row of ``fibonacci_sphere(sphere_samples)``, an
    array of shape ``(sphere_samples,)`` whose structured dtype has the
    fields, in the CLI's column order:

    - ``direction``: the unit push direction, 3 float64;
    - ``stiffness``: |F|/|delta|, N/mm, float64;
    - ``compliance``: the reciprocal |delta|/|F|, mm/N, float64, that
      stiffness plots usually color by.
    """
    # int first: the Integral check (numpy integers) is several times slower
    if isinstance(sphere_samples, bool) or not (
        isinstance(sphere_samples, int) or isinstance(sphere_samples, Integral)
    ):
        raise PlcError(f"sphere sample count must be an integer, got {sphere_samples!r}")
    if sphere_samples < 6:
        raise PlcError(f"need at least 6 sphere samples, got {sphere_samples}")
    if sphere_samples > MAX_SPHERE_SAMPLES:
        raise PlcError(f"need at most {MAX_SPHERE_SAMPLES} sphere samples, got {sphere_samples}")
    import numpy as np

    rows = firmed_compliance(desc, config, literal_polar)._rows
    directions = fibonacci_sphere(sphere_samples)
    # the norms are taken from the directions' columns before the records
    # exist, which keeps the peak at MAX_SPHERE_SAMPLES' 72 B per sample
    per_newton = np.sqrt(_squared_displacement(rows, *directions.T))
    samples = np.empty(
        sphere_samples,
        dtype=[("direction", float, (3,)), ("stiffness", float), ("compliance", float)],
    )
    samples["direction"] = directions
    samples["compliance"] = per_newton
    np.divide(1.0, per_newton, out=samples["stiffness"])
    return samples


def loosening_threshold(desc: RobotDescription, tension: float) -> float:
    """External force (N) at which the locking ring starts to open.

    Lever balance about the ring-edge fulcrum: the two tendon anchors sit
    symmetrically on a circle of radius r, so their resisting torque is
    2 r T, while the external force acts lever_arm above the fulcrum:

        F_th = 2 r T / lever_arm
    """
    if tension < 0.0 or not math.isfinite(tension):
        raise PlcError(f"tension must be finite and >= 0, got {tension}")
    threshold = 2.0 * desc.tendon_anchor_radius * tension / desc.lever_arm
    if not math.isfinite(threshold):
        raise PlcError(f"tension {tension} N is too large to compute the loosening threshold")
    return threshold


@dataclass(frozen=True)
class ForceDeflectionCurve:
    """Piecewise-linear force -> deflection law across the detachment point.

    Below threshold_force the chain deflects at the firmed slope; past it,
    tendon stretch takes over at the (shallower) loose slope.  The curve is
    continuous at the breakpoint by construction.  It is drawn over forces
    from 0 to ``top_force``, so a curve whose deflection there leaves the
    float range is refused.
    """

    threshold_force: float
    firm_slope: float
    loose_slope: float

    def __post_init__(self):
        if self.threshold_force < 0.0:
            raise InvariantError("threshold force must be >= 0")
        if not self.firm_slope > self.loose_slope > 0.0:
            raise InvariantError(
                "slopes must satisfy firm > loose > 0, got "
                f"firm={self.firm_slope}, loose={self.loose_slope}"
            )
        if not math.isfinite(self.deflection(self.top_force)):
            raise InvariantError(
                f"deflection at {self.top_force} N is out of the float range"
            )

    @property
    def breakpoint_deflection(self) -> float:
        """Deflection (mm) at the threshold force: threshold_force / firm_slope."""
        return self.threshold_force / self.firm_slope

    @property
    def top_force(self) -> float:
        """Top of the force range (N) the curve is drawn over: twice the
        threshold, or 10 N when the threshold is zero."""
        return 2.0 * self.threshold_force if self.threshold_force > 0 else 10.0

    def deflection(self, force):
        """Deflection (mm) at external force(s) (N): a float for a number,
        else an array of the shape of ``force``, with the same bits."""
        number = isinstance(force, (int, float))
        if number:
            force = float(force)
        else:
            import numpy as np

            force = np.asarray(force, dtype=float)
        firm = force / self.firm_slope
        loose = self.breakpoint_deflection + (force - self.threshold_force) / self.loose_slope
        if number:
            return firm if force <= self.threshold_force else loose
        result = np.where(force <= self.threshold_force, firm, loose)
        return float(result) if result.ndim == 0 else result


def force_deflection(
    desc: RobotDescription,
    config: Configuration,
    tension: float,
    direction,
    literal_polar: bool = False,
) -> ForceDeflectionCurve:
    """Force-deflection curve along ``direction`` at a given tendon tension.

    Zero tension gives a zero threshold: the curve is tendon-dominated from
    the origin.
    """
    firm = directional_stiffness(desc, config, direction, literal_polar)
    loose = desc.tendon_stiffness
    if not firm > loose:
        raise PlcError(
            f"tendon stiffness {loose} N/mm is not below the firmed slope "
            f"{firm:.9g} N/mm along this direction"
        )
    threshold = loosening_threshold(desc, tension)
    return ForceDeflectionCurve(threshold_force=threshold, firm_slope=firm, loose_slope=loose)


def spine_twist(desc: RobotDescription, torque: float) -> float:
    """Twist angle (rad) of one rigid spine segment under an axial torque.

    Hollow-shaft torsion with uniform section: twist = T l / (J G).
    """
    if not math.isfinite(torque):
        raise PlcError(f"torque must be finite, got {torque}")
    try:
        stiffness = desc.spine_polar_inertia * desc.shear_modulus
    except OverflowError:  # the fourth power of the diameter
        stiffness = math.inf
    if not 0.0 < stiffness < math.inf:
        raise PlcError("the spine's torsional stiffness J G lies outside the float range")
    return _finite_twist(torque * desc.curve_length / stiffness, torque)


def _finite_twist(angle: float, torque: float) -> float:
    if not math.isfinite(angle):
        raise PlcError(f"torque {torque} N*mm is too large to compute the twist angle")
    return angle


def bellows_twist(
    torque: float,
    segment_length: float,
    inner_diameter: float,
    outer_diameter: float,
    thickness: float,
    convolutions: int,
    shear_modulus: float,
) -> float:
    """Twist angle (rad) of a zig-zag bellows shell under an axial torque.

    The diameter ramps linearly from root to crest over half a convolution;
    integrating T / (J(l) G) over that half and doubling per convolution gives
    the segment twist.  The result depends only on segment length, diameters,
    and wall thickness, not on the convolution count.
    """
    if convolutions < 1:
        raise PlcError(f"convolutions must be >= 1, got {convolutions}")
    if min(segment_length, inner_diameter, outer_diameter, thickness) <= 0.0:
        raise PlcError("bellows geometry must be positive")
    if inner_diameter > outer_diameter:
        raise PlcError("bellows inner diameter must be <= outer diameter")
    if thickness > inner_diameter / 2.0:
        raise PlcError("bellows wall thickness must not exceed the inner radius")
    if not math.isfinite(torque):
        raise PlcError(f"torque must be finite, got {torque}")

    # Over half a convolution the wall radius r ramps linearly from r_in to
    # r_out.  With u = r - t/2 and a = t/2 the polar moment factors as
    # J = (pi/2) (r^4 - (r - t)^4) = 2 pi t u (u^2 + a^2), whose reciprocal
    # integrates in closed form:
    #
    #   int dr / J = (2 / (pi t^3)) [ln(u / sqrt(u^2 + a^2))]_{u_in}^{u_out}
    #
    # The bracket is written as log1p of a ratio proportional to
    # r_out - r_in, so it stays accurate as the profile approaches a tube.
    # Each of the 2 * convolutions ramps has dl = L / (2 convolutions
    # (r_out - r_in)) dr, so their sum depends on L alone, not on the count.
    a = thickness / 2.0
    u_in = inner_diameter / 2.0 - a
    u_out = outer_diameter / 2.0 - a
    rise = (outer_diameter - inner_diameter) / 2.0
    try:
        if rise == 0.0:  # tube: constant J along the segment
            polar = 2.0 * math.pi * thickness * u_in * (u_in**2 + a**2)
            angle = torque * segment_length / (polar * shear_modulus)
        else:
            ratio = a**2 * rise * (u_out + u_in) / (u_in**2 * (u_out**2 + a**2))
            angle = (
                torque * segment_length * math.log1p(ratio)
                / (math.pi * thickness**3 * rise * shear_modulus)
            )
    except (OverflowError, ZeroDivisionError):  # a power overflows or a product underflows to 0
        raise PlcError("the bellows' torsional compliance lies outside the float range") from None
    return _finite_twist(angle, torque)


def skin_twist(desc: RobotDescription, torque: float) -> float:
    """Twist angle (rad) of one unit's bellows skin under an axial torque."""
    return bellows_twist(
        torque,
        desc.curve_length,
        desc.skin_inner_diameter,
        desc.skin_outer_diameter,
        desc.skin_thickness,
        desc.skin_convolutions,
        desc.shear_modulus,
    )
