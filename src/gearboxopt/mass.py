"""
Parametric mass model of the complete actuator.

Component rules:

- Gears are steel cylinders at pitch diameter; with the fastener-offset
  flag on (default) their bores are not subtracted, standing in for the
  mass of small fasteners excluded elsewhere.
- The ring gear is a steel annulus from its tip circle out to the pitch
  circle plus twice a radial wall (default 2.5 modules).
- Bearings follow a power law value ~ c*bore^k per column (mass, OD,
  width) of a thin-section deep-groove table shipped as CSV, fitted at
  startup; OD and width dimension the neighbors.
- Carriers are aluminum hollow disks spanning the planet orbit, plus
  steel planet pins; the secondary (support) carrier repeats the disk
  without the pins.
- The casing is an aluminum hollow cylinder at the motor OD: motor
  height alone for ISSPG (gear train lives inside the stator), motor
  height plus the gearbox stack for ESSPG; a base-plate disk closes it.

Units: mm in, kg out; densities in kg/m^3.
"""

import csv
from dataclasses import dataclass, fields
from math import inf, nan, pi
from pathlib import Path
from importlib import resources
from typing import NamedTuple

import numpy as np

from .geometry import (_ISSPG, Architecture, MotorSpec, per_key,
                       require_finite)

_MM3_TO_M3 = 1e-9
_BEARING_CSV_HEADER = ["bore_mm", "od_mm", "width_mm", "mass_kg"]


@dataclass(frozen=True)
class MaterialSpec:
    """Densities of the two stock materials."""
    steel_density_kg_m3: float = 7850.0     # gears, pins, bearings
    aluminum_density_kg_m3: float = 2700.0  # carrier disks, casing, plate

    def __post_init__(self):
        require_finite(self)
        if self.steel_density_kg_m3 <= 0 or self.aluminum_density_kg_m3 <= 0:
            raise ValueError("densities must be positive")


@dataclass(frozen=True)
class MassModelParams:
    """Assembly defaults that the mass rules need but the design vector
    does not carry; all are echoed into reports."""
    ring_radial_thickness_coeff: float = 2.5  # ring wall = coeff * module
    carrier_disk_thickness_mm: float = 5.0
    casing_wall_mm: float = 3.0
    base_plate_thickness_mm: float = 3.0
    pin_engagement_mm: float = 4.0            # pin length = face width + this
    planet_bearing_bore_mm: float = 10.0      # needle/ball bore in planets
    input_bearing_bore_mm: float = 15.0       # sun shaft support
    fastener_offset: bool = True              # keep gear bores solid

    def __post_init__(self):
        require_finite(self)
        for field_name in ("ring_radial_thickness_coeff",
                           "carrier_disk_thickness_mm", "casing_wall_mm",
                           "base_plate_thickness_mm",
                           "planet_bearing_bore_mm",
                           "input_bearing_bore_mm"):
            if getattr(self, field_name) <= 0:
                raise ValueError(f"{field_name} must be positive")
        if self.pin_engagement_mm < 0:
            raise ValueError("pin_engagement_mm must be >= 0")


@dataclass(frozen=True)
class BearingRow:
    """One datasheet row of the thin-section bearing table."""
    bore_mm: float
    od_mm: float
    width_mm: float
    mass_kg: float


@dataclass(frozen=True)
class BearingModel:
    """Per fitted column of a bearing table, (c, k) of value ~ c*bore^k."""
    table: tuple[BearingRow, ...]
    mass_kg: tuple[float, float]
    od_mm: tuple[float, float]
    width_mm: tuple[float, float]

    @property
    def bore_min_mm(self) -> float:
        return self.table[0].bore_mm

    @property
    def bore_max_mm(self) -> float:
        return self.table[-1].bore_mm


# the table columns fitted against the bore, in report order
_FITTED_COLUMNS = tuple(spec.name for spec in fields(BearingModel)[1:])


class MassBreakdown(NamedTuple):
    """Per-component actuator masses, kg."""
    sun: float
    planets_total: float
    ring: float
    carrier: float
    secondary_carrier: float
    bearings_total: float
    casing: float
    base_plate: float
    motor: float
    total: float


def default_bearing_table_path() -> Path:
    """Path of the packaged thin-section bearing CSV."""
    return Path(str(resources.files("gearboxopt").joinpath(
        "data/bearings_thin_section.csv")))


def load_bearing_table(path: str | Path) -> tuple[BearingRow, ...]:
    """
    Read a bearing CSV with header bore_mm,od_mm,width_mm,mass_kg.

    Rows must be strictly increasing in bore with positive, finite
    entries.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _BEARING_CSV_HEADER:
            raise ValueError(
                f"bearing table {path}: expected header "
                f"{','.join(_BEARING_CSV_HEADER)}, got {header}")
        rows = []
        for line_no, raw in enumerate(reader, start=2):
            if not raw or all(not cell.strip() for cell in raw):
                continue
            if len(raw) != 4:
                raise ValueError(
                    f"bearing table {path} line {line_no}: "
                    f"expected 4 columns, got {len(raw)}")
            try:
                row = BearingRow(*(float(cell) for cell in raw))
            except ValueError as exc:
                raise ValueError(
                    f"bearing table {path} line {line_no}: {exc}") from exc
            if not all(0 < value < inf for value in (
                    row.bore_mm, row.od_mm, row.width_mm, row.mass_kg)):
                raise ValueError(
                    f"bearing table {path} line {line_no}: "
                    "all values must be positive and finite")
            rows.append(row)
    if len(rows) < 3:
        raise ValueError(f"bearing table {path}: need at least 3 rows")
    bores = [row.bore_mm for row in rows]
    if any(b2 <= b1 for b1, b2 in zip(bores, bores[1:])):
        raise ValueError(
            f"bearing table {path}: bores must be strictly increasing")
    return tuple(rows)


def _power_law_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Least-squares fit of y = c*x^k in log-log space; returns (c, k)."""
    k, log_c = np.polyfit(np.log(x), np.log(y), 1)
    return float(np.exp(log_c)), float(k)


def _column(table: tuple[BearingRow, ...], name: str) -> np.ndarray:
    return np.array([getattr(row, name) for row in table])


def fit_bearing_model(table: tuple[BearingRow, ...]) -> BearingModel:
    """Fit the power law of each fitted column over a loaded table."""
    bore = _column(table, "bore_mm")
    fits = {name: _power_law_fit(bore, _column(table, name))
            for name in _FITTED_COLUMNS}
    mass_k = fits["mass_kg"][1]
    if mass_k <= 0:
        raise ValueError(
            f"bearing mass fit is not monotone increasing (k={mass_k:.3f})")
    return BearingModel(table=tuple(table), **fits)


def load_bearing_model(path: str | Path | None = None) -> BearingModel:
    """Load and fit a bearing table (packaged table when path is None)."""
    table_path = default_bearing_table_path() if path is None else path
    return fit_bearing_model(load_bearing_table(table_path))


def bearing_value(column: str, bore_mm: float, model: BearingModel) -> float:
    """A fitted column (``mass_kg``, ``od_mm`` or ``width_mm``) at a bore;
    rejects out-of-range bores."""
    if not model.bore_min_mm <= bore_mm <= model.bore_max_mm:
        raise ValueError(
            f"bearing bore {bore_mm:.2f} mm outside the fitted range "
            f"[{model.bore_min_mm:.0f}, {model.bore_max_mm:.0f}] mm")
    c, k = getattr(model, column)
    return c * bore_mm ** k


def bearing_fit_report(model: BearingModel) -> dict:
    """
    Fit quality per column: coefficients, R^2 (in log space), and the
    per-row relative residuals of the fitted curve against the table.
    A column of equal values has no variance to explain and reports
    R^2 = 1: its fit reproduces it to rounding.
    """
    bore = _column(model.table, "bore_mm")
    report = {}
    for name in _FITTED_COLUMNS:
        actual, (c, k) = _column(model.table, name), getattr(model, name)
        fitted = c * bore ** k
        log_actual = np.log(actual)
        ss_res = float(np.sum((log_actual - np.log(fitted)) ** 2))
        ss_tot = float(np.sum((log_actual - log_actual.mean()) ** 2))
        residuals = np.abs(fitted - actual) / actual
        report[name] = {
            "c": c,
            "k": k,
            "r_squared": (1.0 - ss_res / ss_tot
                          if actual.min() < actual.max() else 1.0),
            "max_relative_residual": float(residuals.max()),
            "relative_residuals": [float(r) for r in residuals],
        }
    return report


def _annulus_kg(density_kg_m3, length_mm, outer_mm, inner_mm):
    """A hollow cylinder's mass (kg), for one design or numpy columns."""
    return (density_kg_m3 * (length_mm * pi / 4.0
                             * (outer_mm * outer_mm - inner_mm * inner_mm))
            * _MM3_TO_M3)


def planet_pin_mass(face_width_mm: float, materials: MaterialSpec,
                    params: MassModelParams) -> float:
    """One steel planet pin: bearing-bore diameter, width plus engagement."""
    return _annulus_kg(materials.steel_density_kg_m3,
                       face_width_mm + params.pin_engagement_mm,
                       params.planet_bearing_bore_mm, 0.0)


def gearbox_stack_height_mm(face_width_mm: float,
                            params: MassModelParams) -> float:
    """Axial span of the gear train: face width between two carrier disks."""
    return face_width_mm + 2.0 * params.carrier_disk_thickness_mm


def base_plate_mass(motor: MotorSpec, materials: MaterialSpec,
                    params: MassModelParams) -> float:
    """Aluminum disk closing the casing at the motor OD (kg)."""
    return _annulus_kg(materials.aluminum_density_kg_m3,
                       params.base_plate_thickness_mm,
                       motor.outer_diameter_mm, 0.0)


def context_terms(motor: MotorSpec, bearing: BearingModel,
                  materials: MaterialSpec, params: MassModelParams) -> tuple:
    """The ``component_masses`` terms that read only its context inputs:
    gear bores, the table's bore range, the shaft and planet bearing
    verdicts, casing bore, bearing values (nan for a bore outside the
    table, which its verdict fails) and base plate mass."""
    shaft, planet = params.input_bearing_bore_mm, params.planet_bearing_bore_mm
    low, high = bearing.bore_min_mm, bearing.bore_max_mm
    shaft_ok, planet_ok = low <= shaft <= high, low <= planet <= high
    return ((0.0, 0.0) if params.fastener_offset else (shaft, planet),
            low, high, shaft_ok, planet_ok,
            motor.outer_diameter_mm - 2.0 * params.casing_wall_mm,
            bearing_value("od_mm", shaft, bearing) if shaft_ok else nan,
            bearing_value("mass_kg", shaft, bearing) if shaft_ok else nan,
            bearing_value("mass_kg", planet, bearing) if planet_ok else nan,
            base_plate_mass(motor, materials, params))


def mass_verdicts(module_mm, sun_teeth, planet_teeth, ring_teeth,
                  params: MassModelParams, terms: tuple) -> tuple:
    """Whether the mass rules admit a design, their verdicts in component
    order (gears, sun-shaft bearing, disk clearance, planet bearing,
    output bearing, casing, a ring outer diameter whose square is finite)
    and the sun, planet, ring tip, ring outer, pin circle and carrier disk
    diameters they check, for one design or numpy columns, given the
    ``context_terms`` of the other inputs. None reads the face width, the
    planet count or the efficiency."""
    ((sun_bore, planet_bore), low, high, shaft_ok, planet_ok, casing_inner,
     shaft_od) = terms[:7]
    m = module_mm
    d_sun, d_planet, d_ring = m * sun_teeth, m * planet_teeth, m * ring_teeth
    ring_wall = params.ring_radial_thickness_coeff * m
    ring_tip, ring_outer = d_ring - 2.0 * m, d_ring + 2.0 * ring_wall
    pin_circle = m * (sun_teeth + planet_teeth)
    disk_od = pin_circle + (d_planet + 2.0 * m) / 2.0
    verdicts = gears_ok, _, disk_ok, _, output_ok, casing_ok, squares = (
        (sun_bore < d_sun) & (planet_bore < d_planet) & (ring_wall > 0)
        & (ring_tip > 0), shaft_ok, shaft_od < disk_od, planet_ok,
        (low <= pin_circle) & (pin_circle <= high), casing_inner > 0,
        ring_outer * ring_outer < inf)
    return (gears_ok & shaft_ok & disk_ok & planet_ok & output_ok & casing_ok
            & squares), verdicts, (d_sun, d_planet, ring_tip, ring_outer,
                                   pin_circle, disk_od)


def component_masses(arch: Architecture, module_mm, num_planets, sun_teeth,
                     planet_teeth, ring_teeth, face_width_mm,
                     motor: MotorSpec, bearing: BearingModel,
                     materials: MaterialSpec, params: MassModelParams,
                     terms: tuple, module_index=None) -> tuple:
    """Whether the mass rules admit a design and their verdicts, both from
    ``mass_verdicts``, the ``MassBreakdown`` fields before the total and
    the dimensions they are priced at: the pin circle (the output
    bearing's bore), the carrier disk OD, the sun-shaft bearing OD (the
    disk's ID) and the casing length. Both are none for one design not
    admitted, or for columns whose context fails a verdict. For one
    design or numpy columns, given the ``context_terms`` of the other
    inputs. On columns, the output bearing's mass is taken once per
    (``module_index``, N_s + N_p), nan outside the table.

    The sun and planets are steel cylinders at pitch diameter, solid with
    ``fastener_offset`` on (the extra material stands in for excluded
    nuts, bolts and circlips); the ring is a steel annulus from its
    inward tip circle out to the pitch circle plus twice its radial wall.
    The secondary carrier is the bare disk."""
    ((sun_bore, planet_bore), low, high, shaft_ok, planet_ok, casing_inner,
     shaft_od, shaft_kg, planet_kg, plate) = terms
    m, n, width = module_mm, num_planets, face_width_mm
    sound, verdicts, (d_sun, d_planet, ring_tip, ring_outer, pin_circle,
                      disk_od) = mass_verdicts(m, sun_teeth, planet_teeth,
                                               ring_teeth, params, terms)
    # a failed verdict of the context alone fails every row of columns too
    if sound is False or not (shaft_ok and planet_ok and casing_inner > 0):
        return sound, verdicts, None, None
    steel, aluminum = (materials.steel_density_kg_m3,
                       materials.aluminum_density_kg_m3)
    disk = _annulus_kg(aluminum, params.carrier_disk_thickness_mm, disk_od,
                       shaft_od)
    casing_length = motor.height_mm
    if arch is not _ISSPG:
        casing_length = casing_length + gearbox_stack_height_mm(width, params)
    if module_index is None:
        output_kg = bearing_value("mass_kg", pin_circle, bearing)
    else:
        (c, k), key = bearing.mass_kg, sun_teeth + planet_teeth
        output_kg = c * per_key(lambda bore: bore ** k if low <= bore <= high
                                else nan, pin_circle, module_index, key)
    return sound, verdicts, (
        _annulus_kg(steel, width, d_sun, sun_bore),
        n * _annulus_kg(steel, width, d_planet, planet_bore),
        _annulus_kg(steel, width, ring_outer, ring_tip),
        disk + n * planet_pin_mass(width, materials, params), disk,
        n * planet_kg + shaft_kg + output_kg,
        _annulus_kg(aluminum, casing_length, motor.outer_diameter_mm,
                    casing_inner), plate, motor.mass_kg), (
        pin_circle, disk_od, shaft_od, casing_length)
