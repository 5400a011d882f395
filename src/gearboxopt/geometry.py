"""
Involute spur-gear geometry and feasibility rules for single-stage
planetary gearboxes.

Covers the two quasi-direct-drive actuator layouts:

- ISSPG: gearbox nested inside the motor stator bore (compact, the ring
  gear must fit within the stator inner diameter).
- ESSPG: gearbox stacked outside the motor body (ring gear may grow up
  to the motor outer diameter).

All diameters follow the standard involute relations (DIN 867 basic
rack, 20 deg full depth): pitch d = m*N, base d_b = m*N*cos(alpha),
tip d_a = m*N +/- 2m (external/internal teeth).

Units: lengths in mm, angles in rad, masses in kg unless suffixed
otherwise.
"""

from dataclasses import dataclass, fields
from enum import Enum
from math import acos, cos, isfinite, pi, sin, tan
from typing import Optional

import numpy as np


# Standard metric module steps within typical small-actuator limits (mm)
STANDARD_MODULE_SET_MM = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]


class Architecture(Enum):
    """Planetary gearbox placement relative to the motor."""
    ISSPG = "isspg"  # inside the stator bore
    ESSPG = "esspg"  # external, stacked on the motor


# hot-path aliases: an enum member read costs ~160 ns on Python 3.11
_ESSPG = Architecture.ESSPG
_ISSPG = Architecture.ISSPG


def require_finite(record) -> None:
    """Reject a record whose float field is nan or infinite."""
    for spec in fields(record):
        value = getattr(record, spec.name)
        if spec.type is float and not isfinite(value):
            raise ValueError(f"{spec.name} must be finite, got {value}")


# numpy counterparts of the operations model formulas use on one design
_COLUMN_OPS = {acos: np.arccos, tan: np.tan, min: np.minimum, max: np.maximum}


def pick(value, *scalar_ops) -> tuple:
    """``scalar_ops`` (math, builtins) for a Python float, else their numpy
    counterparts: numpy's acos and tan differ from libm's in the last bit,
    so one design stays on math."""
    if value.__class__ is float:
        return scalar_ops
    return tuple(_COLUMN_OPS[op] for op in scalar_ops)


class GearRole(Enum):
    """Position of a gear in the planetary stage (sets tip-circle sign)."""
    SUN = "sun"
    PLANET = "planet"
    RING = "ring"


@dataclass(frozen=True)
class GearboxDesign:
    """Decision vector of a single-stage planetary gearbox."""
    arch: Architecture
    sun_teeth: int       # N_s
    planet_teeth: int    # N_p
    ring_teeth: int      # N_r
    module_mm: float     # gear module m (mm)
    num_planets: int     # n_p, count of planet gears

    def __post_init__(self):
        if self.sun_teeth < 1 or self.planet_teeth < 1 or self.ring_teeth < 1:
            raise ValueError("tooth counts must be >= 1")
        if self.num_planets < 1:
            raise ValueError("num_planets must be >= 1")
        if not self.module_mm > 0:  # nan too
            raise ValueError("module_mm must be positive")

    @property
    def gear_ratio(self) -> float:
        """Speed ratio G = N_s/(N_s+N_r), carrier output over sun input."""
        return self.sun_teeth / (self.sun_teeth + self.ring_teeth)

    @property
    def reduction_ratio(self) -> float:
        """Reduction R = 1/G = (N_s+N_r)/N_s, quoted as "R:1"."""
        return (self.sun_teeth + self.ring_teeth) / self.sun_teeth


@dataclass(frozen=True)
class ConstraintParams:
    """Manufacturing and assembly limits for the feasibility checks."""
    module_min_mm: float = 0.5        # smallest cuttable module
    module_max_mm: float = 1.2        # largest allowed module
    min_teeth: int = 20               # undercutting bound for sun/planet
    max_teeth: Optional[int] = None   # optional sun/planet tooth cap
    min_planets: int = 2              # lower planet-count bound
    max_planets: int = 7              # upper planet-count bound
    planet_clearance_mm: float = 5.0  # delta_p, min gap between planets
    ring_clearance_mm: float = 10.0   # delta_clr, ring-to-housing margin

    def __post_init__(self):
        require_finite(self)
        if self.min_teeth < 1:
            raise ValueError("min_teeth must be >= 1")
        if self.module_min_mm <= 0:
            raise ValueError("module_min_mm must be positive")
        if self.module_min_mm > self.module_max_mm:
            raise ValueError("module_min_mm must not exceed module_max_mm")
        if self.max_teeth is not None and self.max_teeth < self.min_teeth:
            raise ValueError("max_teeth must be >= min_teeth")
        if self.min_planets < 2:
            raise ValueError("min_planets must be >= 2")
        if self.min_planets > self.max_planets:
            raise ValueError("min_planets must not exceed max_planets")
        if self.planet_clearance_mm <= 0:
            raise ValueError("planet_clearance_mm must be positive")
        if self.ring_clearance_mm < 0:
            raise ValueError("ring_clearance_mm must be >= 0")


@dataclass(frozen=True)
class MotorSpec:
    """Envelope and performance limits of the driving motor (datasheet)."""
    outer_diameter_mm: float         # motor body OD
    stator_inner_diameter_mm: float  # clear bore inside the stator
    height_mm: float                 # axial body length
    mass_kg: float
    max_torque_nm: float             # peak torque applied at the sun gear
    max_speed_rad_s: float           # no-load speed bound
    name: str = "unnamed-motor"      # datasheet label

    def __post_init__(self):
        require_finite(self)
        if not 0 < self.stator_inner_diameter_mm < self.outer_diameter_mm:
            raise ValueError(
                "stator_inner_diameter_mm must be positive and smaller "
                "than outer_diameter_mm")
        if not isfinite(self.outer_diameter_mm * self.outer_diameter_mm):
            raise ValueError("outer_diameter_mm is too large to square")
        for field_name in ("height_mm", "mass_kg", "max_torque_nm",
                           "max_speed_rad_s"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")


def pitch_diameter(tooth_count: int, module_mm: float) -> float:
    """Pitch circle diameter d = m*N (mm)."""
    if tooth_count < 1:
        raise ValueError("tooth_count must be >= 1")
    if module_mm <= 0:
        raise ValueError("module_mm must be positive")
    return module_mm * tooth_count


def base_diameter(tooth_count: int, module_mm: float,
                  pressure_angle_rad: float) -> float:
    """Base circle diameter d_b = m*N*cos(alpha) (mm)."""
    if not 0 < pressure_angle_rad < pi / 2:
        raise ValueError("pressure_angle_rad must lie in (0, pi/2)")
    return pitch_diameter(tooth_count, module_mm) * cos(pressure_angle_rad)


def tip_diameter(tooth_count: int, module_mm: float, role: GearRole) -> float:
    """
    Tip circle diameter d_a = m*N + sgn*2m (mm).

    sgn = +1 for external teeth (sun, planet), -1 for the internal ring.
    """
    sgn = -1.0 if role is GearRole.RING else 1.0
    d_a = module_mm * tooth_count + sgn * 2.0 * module_mm
    if d_a <= 0:
        raise ValueError(
            f"degenerate ring tip circle: m*N - 2m = {d_a:.3f} mm <= 0")
    return d_a


def interference_margin_mm(design: GearboxDesign) -> float:
    """
    Clearance between adjacent planet gears:
    2m(N_s+N_p)sin(pi/n_p) - 2mN_p (mm).
    """
    m = design.module_mm
    spread = 2.0 * m * (design.sun_teeth + design.planet_teeth)
    return spread * sin(pi / design.num_planets) - 2.0 * m * design.planet_teeth


def max_gearbox_diameter(motor: MotorSpec, arch: Architecture,
                         params: ConstraintParams) -> float:
    """
    Largest ring-gear pitch diameter the motor envelope admits (mm).

    ESSPG rings may grow to the motor OD minus clearance; ISSPG rings
    must fit inside the stator bore minus the same clearance.
    """
    if arch is _ESSPG:
        bound = motor.outer_diameter_mm - params.ring_clearance_mm
    else:
        bound = motor.stator_inner_diameter_mm - params.ring_clearance_mm
    if bound <= 0:
        raise ValueError(
            f"motor {motor.name} leaves no room for a {arch.value} gearbox "
            f"(diameter bound {bound:.1f} mm)")
    return bound


def constraint_failures(design: GearboxDesign, motor: MotorSpec,
                        params: ConstraintParams) -> list[str]:
    """
    Names of all violated feasibility constraints (empty when feasible).

    Bound checks are reported individually so empty search bins can name
    their dominant blocker.
    """
    sun, planet, ring, planets, m = (design.sun_teeth, design.planet_teeth,
                                     design.ring_teeth, design.num_planets,
                                     design.module_mm)
    failures = []
    # concentric assembly: N_r = N_s + 2*N_p
    if ring != sun + 2 * planet:
        failures.append("geometric")
    # equal planet spacing: (N_s + N_r) divisible by n_p
    if (sun + ring) % planets != 0:
        failures.append("meshing")
    # adjacent planets keep planet_clearance_mm apart; a single planet
    # has no neighbour, and planet_count names that design
    if planets >= 2 and not (interference_margin_mm(design)
                             >= params.planet_clearance_mm):
        failures.append("planet_interference")
    if not params.module_min_mm <= m <= params.module_max_mm:
        failures.append("module_range")
    if sun < params.min_teeth or planet < params.min_teeth:
        failures.append("undercutting")
    if params.max_teeth is not None and max(sun, planet) > params.max_teeth:
        failures.append("tooth_count_cap")
    if m * ring > max_gearbox_diameter(motor, design.arch, params):
        failures.append("ring_diameter")
    if not params.min_planets <= planets <= params.max_planets:
        failures.append("planet_count")
    return failures


_RULE_ORDER = ("geometric", "meshing", "planet_interference",
               "module_range", "undercutting", "tooth_count_cap",
               "ring_diameter", "planet_count")


def module_free_masks(num_planets, sun_teeth, planet_teeth, ring_teeth,
                      params: ConstraintParams) -> dict[str, np.ndarray]:
    """
    The ``constraint_masks`` rules that do not read the module:
    geometric, meshing, undercutting, tooth_count_cap and planet_count,
    each at the broadcast shape of the columns it reads (``False`` for
    tooth_count_cap without ``max_teeth``).
    """
    planets = np.asarray(num_planets, dtype=np.int64)
    sun = np.asarray(sun_teeth, dtype=np.int64)
    planet = np.asarray(planet_teeth, dtype=np.int64)
    ring = np.asarray(ring_teeth, dtype=np.int64)
    return {
        "geometric": ring != sun + 2 * planet,
        "meshing": (sun + ring) % planets != 0,
        "undercutting": (sun < params.min_teeth)
        | (planet < params.min_teeth),
        "tooth_count_cap": (np.maximum(sun, planet) > params.max_teeth
                            if params.max_teeth is not None else False),
        "planet_count": ~((params.min_planets <= planets)
                          & (planets <= params.max_planets)),
    }


def module_masks(arch: Architecture, module_mm, num_planets, sun_teeth,
                 planet_teeth, ring_teeth, motor: MotorSpec,
                 params: ConstraintParams) -> dict[str, np.ndarray]:
    """
    The ``constraint_masks`` rules that read the module:
    planet_interference, module_range and ring_diameter, each at the
    broadcast shape of the columns it reads.
    """
    m = np.asarray(module_mm, dtype=np.float64)
    planets = np.asarray(num_planets, dtype=np.int64)
    sun = np.asarray(sun_teeth, dtype=np.int64)
    planet = np.asarray(planet_teeth, dtype=np.int64)
    ring = np.asarray(ring_teeth, dtype=np.int64)
    # math.sin from a table over the planet counts' range: np.sin may
    # differ from libm in the last bit, moving designs across the clearance
    low = int(planets.min()) if planets.size else 0
    sines = np.array([sin(pi / k) if k >= 2 else 0.0 for k in range(
        low, int(planets.max(initial=low)) + 1)])[planets - low]
    two_m = 2.0 * m
    margin = (two_m * (sun + planet)) * sines
    # in place: one float grid less, the same values
    margin -= two_m * planet
    return {
        "planet_interference": (planets >= 2)
        & ~(margin >= params.planet_clearance_mm),
        "module_range": ~((params.module_min_mm <= m)
                          & (m <= params.module_max_mm)),
        "ring_diameter": m * ring > max_gearbox_diameter(motor, arch,
                                                         params),
    }


def constraint_masks(arch: Architecture, module_mm, num_planets, sun_teeth,
                     planet_teeth, ring_teeth, motor: MotorSpec,
                     params: ConstraintParams) -> dict[str, np.ndarray]:
    """
    Columnar ``constraint_failures``: one boolean mask per rule, True
    on the rows that violate it.

    The tooth counts and planet counts are integer columns of equal
    length; ``module_mm`` is a scalar or a column. Rules carry the same
    names in the same order and use the same float64 expressions, so
    every mask equals the scalar rule row by row. The masks are
    ``module_free_masks`` and ``module_masks`` merged and broadcast to
    the shape of all the columns.
    """
    shape = np.broadcast_shapes(*(np.shape(column) for column in (
        module_mm, num_planets, sun_teeth, planet_teeth, ring_teeth)))
    masks = {**module_free_masks(num_planets, sun_teeth, planet_teeth,
                                 ring_teeth, params),
             **module_masks(arch, module_mm, num_planets, sun_teeth,
                            planet_teeth, ring_teeth, motor, params)}
    return {name: np.broadcast_to(masks[name], shape)
            for name in _RULE_ORDER}
