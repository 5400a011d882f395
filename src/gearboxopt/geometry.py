"""
Design vector, motor envelope and feasibility rules for single-stage
planetary gearboxes.

Covers the two quasi-direct-drive actuator layouts:

- ISSPG: gearbox nested inside the motor stator bore (compact, the ring
  gear must fit within the stator inner diameter).
- ESSPG: gearbox stacked outside the motor body (ring gear may grow up
  to the motor outer diameter).

The gears follow the DIN 867 basic rack (full depth, profile shift 0);
their pitch, base and tip circles are computed by
``efficiency.mesh_chain``.

Units: lengths in mm, angles in rad, masses in kg unless suffixed
otherwise.
"""

from dataclasses import dataclass, fields
from enum import Enum
from itertools import compress
from math import isfinite, pi, sin
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


def per_key(func, value, *keys):
    """``func`` (a ``math`` function) of one float, or of each entry of a
    numpy column that the integer ``keys`` columns, broadcast to its shape,
    determine: then ``func`` runs once per distinct key, found by
    ``np.bincount``, and equals one design's call bit for bit, where
    numpy's counterparts may differ in the last bit."""
    if value.__class__ is float:
        return func(value)
    if not value.size:
        return np.empty(value.shape)
    index = 0
    for key in keys:
        low = key.min()
        index = index * (key.max() - low + 1) + (key - low)
    count = np.bincount(index.ravel())
    # each key's value, then in place its func value
    table = np.empty(len(count))
    table[index] = value
    present = np.flatnonzero(count)
    table[present] = [func(x) for x in table[present].tolist()]
    return table[index]


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
        if not isfinite(self.module_mm):
            raise ValueError(f"module_mm must be finite, got {self.module_mm}")

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
        for field_name in ("min_teeth", "min_planets", "max_planets"):
            # the search holds them, and max_planets + 1, in int64 columns
            if getattr(self, field_name) >= 2 ** 63 - 1:
                raise ValueError(f"{field_name} must be below 2**63 - 1")
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


def interference_margin_mm(module_mm, sun_teeth, planet_teeth, num_planets):
    """Clearance between adjacent planet gears, 2m(N_s+N_p)sin(pi/n_p) -
    2mN_p (mm), for one design's numbers or numpy columns."""
    two_m = 2.0 * module_mm
    margin = two_m * (sun_teeth + planet_teeth) * per_key(
        sin, pi / num_planets, num_planets)
    # in place on columns: one float grid less, the same values
    margin -= two_m * planet_teeth
    return margin


def max_gearbox_diameter(motor: MotorSpec, arch: Architecture,
                         params: ConstraintParams) -> float:
    """
    Largest ring-gear pitch diameter the motor envelope admits (mm).

    ESSPG rings may grow to the motor OD minus clearance; ISSPG rings
    must fit inside the stator bore minus the same clearance. A bound
    <= 0 leaves no room: ``ring_diameter`` then fails every design.
    """
    if arch is _ESSPG:
        return motor.outer_diameter_mm - params.ring_clearance_mm
    return motor.stator_inner_diameter_mm - params.ring_clearance_mm


# the feasibility rules, in the order ``constraint_rules`` returns their
# verdicts and failures are named
_RULE_ORDER = ("geometric", "meshing", "planet_interference", "module_range",
               "undercutting", "tooth_count_cap", "ring_diameter",
               "planet_count")


def constraint_rules(arch: Architecture, module_mm, num_planets, sun_teeth,
                     planet_teeth, ring_teeth, motor: MotorSpec,
                     params: ConstraintParams) -> tuple:
    """The verdicts (True: violated) of the rules of ``_RULE_ORDER``, in
    that order, for one design's numbers or numpy columns. Each verdict
    has the shape of the inputs it reads: a rule that does not read the
    module is computed once for a whole module axis."""
    m, planets, sun, planet = module_mm, num_planets, sun_teeth, planet_teeth
    cap = params.max_teeth
    return (
        # concentric assembly: N_r = N_s + 2*N_p
        ring_teeth != sun + 2 * planet,
        # equal planet spacing: (N_s + N_r) divisible by n_p
        (sun + ring_teeth) % planets != 0,
        # a lone planet has no neighbour (planet_count names it); ``^ True``
        # negates a bool or a mask (``~True`` is -2) and fails a nan margin;
        # no local keeps the margin grid alive while the later rules run
        (planets >= 2) & ((interference_margin_mm(m, sun, planet, planets)
                           >= params.planet_clearance_mm) ^ True),
        (m < params.module_min_mm) | (m > params.module_max_mm),
        (sun < params.min_teeth) | (planet < params.min_teeth),
        cap is not None and (sun > cap) | (planet > cap),
        m * ring_teeth > max_gearbox_diameter(motor, arch, params),
        (planets < params.min_planets) | (planets > params.max_planets))


def constraint_failures(design: GearboxDesign, motor: MotorSpec,
                        params: ConstraintParams) -> list[str]:
    """Names of all violated feasibility constraints (empty when
    feasible), in ``_RULE_ORDER``, so empty search bins can name their
    dominant blocker."""
    return list(compress(_RULE_ORDER, constraint_rules(
        design.arch, design.module_mm, design.num_planets, design.sun_teeth,
        design.planet_teeth, design.ring_teeth, motor, params)))
