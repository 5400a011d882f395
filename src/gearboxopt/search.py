"""
Per-ratio-bin candidate generation and cost minimization.

Candidates are generated per ratio window, not enumerated over the
whole (m, n_p, N_s, N_p) box and then binned. Since the reduction is
R = (N_s+N_r)/N_s = 2 + 2*N_p/N_s, the planets of each sun that fall
in a half-open bin [lo, hi) form one short integer range. A window is
walked one module at a time as numpy columns in lexicographic
(n_p, N_s, N_p) order, with one failure mask per feasibility rule.

The search keeps the rows that fail no rule and scores them with

    cost = K_m * actuator_mass - K_e * efficiency

in two steps. ``score_columns`` evaluates a whole bin as numpy
columns: the efficiency chain, Lewis width and full actuator mass in
closed form, with one feasibility mask that equals
``evaluate(...).feasible`` row by row. Every feasible row within a
small tolerance of the cheapest columnar cost is then scored again by
scalar ``evaluate``, which settles the winner, so every reported
number comes from the scalar model.

The cheapest feasible design per bin (default [5,6) ... [14,15)) and
architecture is reported. Ties break deterministically: lower mass,
then higher efficiency, then lexicographic (m, n_p, N_s, N_p). An
empty bin sums the failure masks of its window instead and reports
the most frequent blocker.
"""

from dataclasses import dataclass
from math import cos, floor, inf, pi, tan
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .efficiency import (EfficiencyBreakdown, EfficiencyParams,
                         GeometryInfeasibleError, ModelRangeError,
                         loss_parameter, overall_efficiency,
                         planetary_efficiency)
from .geometry import (Architecture, ConstraintParams, GearboxDesign,
                       MotorSpec, constraint_failures, constraint_masks,
                       max_gearbox_diameter)
from .mass import (_MM3_TO_M3, BearingModel, MassBreakdown,
                   MassModelParams, MaterialSpec, actuator_mass,
                   base_plate_mass, bearing_mass, bearing_od,
                   gearbox_stack_height_mm, load_bearing_model,
                   planet_pin_mass)
from .strength import (LoadCase, StrengthParams, face_width,
                       lewis_form_factor)

# sun-teeth ceiling for empty-bin diagnostics; feasibility always
# appears first at small suns (smallest ring for a given ratio), so
# scanning this far is enough to name the dominant blocker
_DIAG_SUN_TEETH_CAP = 60

# relative tolerance, scaled by max(1, |value|), within which columnar
# costs and mesh efficiencies are left to scalar ``evaluate``: numpy's
# arccos, tan and power may differ from libm in the last bit
_SETTLE_TOL = 1e-9


@dataclass(frozen=True)
class CostWeights:
    """Weights of the scalarized mass/efficiency objective."""
    k_m: float = 1.0  # per-kg penalty on actuator mass
    k_e: float = 2.0  # reward on overall efficiency

    def __post_init__(self):
        if self.k_m < 0 or self.k_e < 0:
            raise ValueError("cost weights must be >= 0")


@dataclass(frozen=True)
class EvalContext:
    """Everything ``evaluate`` needs to score one design; fully immutable."""
    motor: MotorSpec
    load: LoadCase
    constraints: ConstraintParams
    efficiency: EfficiencyParams
    strength: StrengthParams
    materials: MaterialSpec
    mass_params: MassModelParams
    bearing: BearingModel
    cost: CostWeights

    @classmethod
    def with_defaults(cls, motor: MotorSpec, load: LoadCase) -> "EvalContext":
        """Context with every model parameter at its default and the
        packaged bearing table."""
        return cls(motor=motor, load=load, constraints=ConstraintParams(),
                   efficiency=EfficiencyParams(), strength=StrengthParams(),
                   materials=MaterialSpec(), mass_params=MassModelParams(),
                   bearing=load_bearing_model(), cost=CostWeights())


@dataclass(frozen=True)
class DesignEvaluation:
    """Scored design: the ranking unit of the search."""
    design: GearboxDesign
    feasible: bool
    failure_reasons: tuple[str, ...]
    reduction_ratio: float
    efficiency: Optional[EfficiencyBreakdown]
    face_width_mm: Optional[float]
    mass: Optional[MassBreakdown]
    cost: Optional[float]


@dataclass(frozen=True)
class BinResult:
    """Outcome of one (ratio bin, architecture) cell of the sweep."""
    lo: float                         # bin lower edge, inclusive
    hi: float                         # bin upper edge, exclusive
    arch: Architecture
    best: Optional[DesignEvaluation]  # min-cost feasible design
    candidates_examined: int          # enumerated designs in the bin
    feasible_count: int               # of those, fully evaluable
    empty_reason: Optional[str]       # dominant blocker when best is None


@dataclass(frozen=True)
class BinComparison:
    """Head-to-head verdict for one ratio bin."""
    lo: float
    hi: float
    winner: Optional[Architecture]
    mass_margin_kg: Optional[float]     # loser total minus winner total
    efficiency_margin: Optional[float]  # winner eta minus loser eta
    isspg_feasible: bool
    esspg_feasible: bool


class ColumnScores(NamedTuple):
    """``evaluate`` over the rows of a bin, one column per quantity."""
    feasible: np.ndarray     # equals evaluate(...).feasible row by row
    cost: np.ndarray         # meaningful on feasible rows only
    mass_total: np.ndarray   # kg
    eta_overall: np.ndarray


def validate_bins(bins: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Require ascending, non-overlapping, non-empty half-open bins."""
    if not bins:
        raise ValueError("at least one ratio bin is required")
    for lo, hi in bins:
        if not lo < hi:
            raise ValueError(f"bin [{lo}, {hi}) is empty")
    for (_, hi_prev), (lo_next, _) in zip(bins, bins[1:]):
        if lo_next < hi_prev:
            raise ValueError("bins must be ascending and non-overlapping")
    return list(bins)


def validate_workers(workers: Optional[int]) -> None:
    """Require None or a worker count >= 1; evaluation is serial either
    way."""
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")


def default_bins() -> list[tuple[float, float]]:
    """Unit-width reduction bins [5,6) through [14,15)."""
    return [(float(lo), float(lo + 1)) for lo in range(5, 15)]


def _ratio_window(motor: MotorSpec, arch: Architecture,
                  constraints: ConstraintParams, module_set: list[float],
                  lo: float, hi: float, sun_cap: Optional[int] = None
                  ) -> Iterator[tuple[float, np.ndarray, np.ndarray,
                                      np.ndarray, dict[str, np.ndarray]]]:
    """
    Walk the ratio window lo <= R < hi one module at a time, yielding
    (module_mm, n_p, N_s, N_p, masks): integer columns in lexicographic
    (n_p, N_s, N_p) order and the ``constraint_masks`` of those rows.

    R = 2 + 2*N_p/N_s, so each sun's planets lie in
    [ceil((lo-2)*N_s/2), ceil((hi-2)*N_s/2)), floored at min_teeth.
    Without ``sun_cap`` this is the search window: suns and planets stop
    at the ring envelope and the tooth cap, and the planet range is
    widened by one tooth at each end, because rounding of the window
    edges can drop a design whose float ratio lies in [lo, hi); callers
    filter on that ratio. With ``sun_cap`` it is the diagnosis window:
    suns from min_teeth to sun_cap and planets exactly the ratio window.
    """
    n_min = constraints.min_teeth
    n_cap = constraints.max_teeth
    d_max = max_gearbox_diameter(motor, arch, constraints)
    planet_counts = np.arange(constraints.min_planets,
                              constraints.max_planets + 1)
    for module_mm in sorted(module_set):
        if sun_cap is None:
            max_ring = floor(d_max / module_mm + 1e-9)
            sun_max = max_ring - 2 * n_min
            if n_cap is not None:
                sun_max = min(sun_max, n_cap)
            suns = np.arange(n_min, sun_max + 1)
            planet_max = (max_ring - suns) // 2
            if n_cap is not None:
                planet_max = np.minimum(planet_max, n_cap)
            slack = 1
        else:
            suns = np.arange(n_min, sun_cap + 1)
            planet_max = np.inf
            slack = 0
        first = np.maximum(np.ceil((lo - 2.0) * suns / 2.0) - slack, n_min)
        stop = np.minimum(np.ceil((hi - 2.0) * suns / 2.0) + slack,
                          planet_max + 1)
        sizes = np.maximum(stop - first, 0).astype(np.int64)
        offsets = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes,
                                                     sizes)
        sun = np.tile(np.repeat(suns, sizes), len(planet_counts))
        planet = np.tile(np.repeat(first.astype(np.int64), sizes) + offsets,
                         len(planet_counts))
        num_planets = np.repeat(planet_counts, sizes.sum())
        yield module_mm, num_planets, sun, planet, constraint_masks(
            arch, module_mm, num_planets, sun, planet, sun + 2 * planet,
            motor, constraints)


def _bin_columns(motor: MotorSpec, arch: Architecture,
                 constraints: ConstraintParams, module_set: list[float],
                 lo: float, hi: float) -> tuple[np.ndarray, ...]:
    """
    (module_mm, n_p, N_s, N_p) columns of every feasible design with
    lo <= R < hi, in lexicographic (m, n_p, N_s, N_p) order; R is the
    float (N_s+N_r)/N_s.
    """
    empty = np.empty(0, dtype=np.int64)
    parts = [(np.empty(0), empty, empty, empty)]
    for module_mm, num_planets, sun, planet, masks in _ratio_window(
            motor, arch, constraints, module_set, lo, hi):
        ratio = (2 * sun + 2 * planet) / sun
        keep = (~np.any(list(masks.values()), axis=0)
                & (lo <= ratio) & (ratio < hi))
        parts.append((np.full(np.count_nonzero(keep), module_mm,
                              dtype=np.float64),
                      num_planets[keep], sun[keep], planet[keep]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def _designs(arch: Architecture, columns: tuple[np.ndarray, ...],
             rows=slice(None)) -> list[GearboxDesign]:
    """The designs of ``_bin_columns`` rows (all rows by default)."""
    modules, planets, suns, planet_teeth = (column[rows].tolist()
                                            for column in columns)
    return [GearboxDesign(arch=arch, sun_teeth=s, planet_teeth=p,
                          ring_teeth=s + 2 * p, module_mm=m, num_planets=n)
            for m, n, s, p in zip(modules, planets, suns, planet_teeth)]


def bin_candidates(motor: MotorSpec, arch: Architecture,
                   constraints: ConstraintParams, module_set: list[float],
                   lo: float, hi: float) -> list[GearboxDesign]:
    """
    Every feasible design with lo <= R < hi, in lexicographic
    (m, n_p, N_s, N_p) order; R is the float (N_s+N_r)/N_s.
    """
    return _designs(arch, _bin_columns(motor, arch, constraints,
                                       module_set, lo, hi))


def enumerate_feasible(motor: MotorSpec, arch: Architecture,
                       constraints: ConstraintParams,
                       module_set: list[float]) -> Iterator[GearboxDesign]:
    """
    Yield every feasible decision vector in lexicographic
    (m, n_p, N_s, N_p) order: the candidates of an unbounded ratio
    window.
    """
    yield from bin_candidates(motor, arch, constraints, module_set,
                              -inf, inf)


def evaluate(design: GearboxDesign, ctx: EvalContext) -> DesignEvaluation:
    """
    Score one design: constraints, efficiency chain, Lewis width, mass,
    cost. Model errors become infeasibility reasons, never crashes.
    """
    reduction = design.reduction_ratio
    failures = tuple(constraint_failures(design, ctx.motor, ctx.constraints))
    if not failures:
        try:
            efficiency = planetary_efficiency(design, ctx.efficiency)
            width_mm = face_width(ctx.load, design, ctx.strength)
            mass = actuator_mass(design, ctx.motor, width_mm, ctx.bearing,
                                 ctx.materials, ctx.mass_params)
        # both named errors subclass ValueError, so they come first
        except GeometryInfeasibleError as exc:
            failures = (f"tooth_form: {exc}",)
        except ModelRangeError as exc:
            failures = (f"efficiency_range: {exc}",)
        except ValueError as exc:
            failures = (f"model_error: {exc}",)
    if failures:
        return DesignEvaluation(design=design, feasible=False,
                                failure_reasons=failures,
                                reduction_ratio=reduction, efficiency=None,
                                face_width_mm=None, mass=None, cost=None)
    cost = (ctx.cost.k_m * mass.total
            - ctx.cost.k_e * efficiency.eta_overall)
    return DesignEvaluation(design=design, feasible=True,
                            failure_reasons=(), reduction_ratio=reduction,
                            efficiency=efficiency, face_width_mm=width_mm,
                            mass=mass, cost=cost)


def ranking_key(evaluation: DesignEvaluation) -> tuple:
    """
    Total order over feasible evaluations: cost, then mass, then
    efficiency (higher wins), then the lexicographic design vector.
    """
    d = evaluation.design
    return (evaluation.cost, evaluation.mass.total,
            -evaluation.efficiency.eta_overall, d.module_mm, d.num_planets,
            d.sun_teeth, d.planet_teeth)


def score_columns(arch: Architecture, ctx: EvalContext, module_mm,
                  num_planets, sun_teeth, planet_teeth) -> ColumnScores:
    """
    Columnar ``evaluate`` over designs that pass every constraint, such
    as the rows of a bin's window: the same efficiency chain, Lewis
    width and actuator mass, in closed form over numpy columns.

    A row is feasible when ``evaluate`` would raise none of its model
    errors: every tooth form (sun, planet, ring) keeps its base circle
    inside a positive tip circle, both mesh efficiencies are > 0, the
    Lewis form factor and velocity factor are > 0, gear bores stay
    inside their pitch circles, the carrier disk clears the sun-shaft
    bearing, and every bearing bore lies in the bearing table. Rows
    whose mesh efficiency lies within ``_SETTLE_TOL`` of 0 are settled
    by scalar ``evaluate``. The other columns follow the scalar
    expressions operation by operation, so they agree with ``evaluate``
    to the last bits of numpy's transcendental functions.
    """
    m = np.asarray(module_mm, dtype=np.float64)
    n = np.asarray(num_planets, dtype=np.int64)
    s = np.asarray(sun_teeth, dtype=np.int64)
    p = np.asarray(planet_teeth, dtype=np.int64)
    r = s + 2 * p
    eff, load, strength = ctx.efficiency, ctx.load, ctx.strength
    materials, params, bearing = ctx.materials, ctx.mass_params, ctx.bearing

    def in_table(bore_mm):
        return ((bearing.bore_min_mm <= bore_mm)
                & (bore_mm <= bearing.bore_max_mm))

    def annulus_kg(density, length_mm, outer_mm, inner_mm):
        volume_mm3 = length_mm * pi / 4.0 * (outer_mm ** 2 - inner_mm ** 2)
        return density * volume_mm3 * _MM3_TO_M3

    # degenerate rows (ring tip circle <= 0, non-positive Lewis factor)
    # produce nan or inf here and are masked out below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # tip_pressure_angle and contact_ratios, zero profile shift
        cos_alpha = cos(eff.pressure_angle_rad)
        tan_alpha = tan(eff.pressure_angle_rad)
        tooth_ok = np.ones(len(s), dtype=bool)
        tan_tip = []
        for teeth, sgn in ((s, 1.0), (p, 1.0), (r, -1.0)):
            d_b = m * teeth * cos_alpha
            d_a = m * teeth + sgn * 2.0 * m
            tooth_ok &= d_b < d_a
            tan_tip.append(np.tan(np.arccos(d_b / d_a)))
        tan_s, tan_p, tan_r = tan_tip
        eps_a1 = (p / (2.0 * pi)) * (tan_p - tan_alpha)
        eps_a2 = (s / (2.0 * pi)) * (tan_s - tan_alpha)
        eps_b1 = -(r / (2.0 * pi)) * (tan_r - tan_alpha)
        eps_b2 = (p / (2.0 * pi)) * (tan_p - tan_alpha)
        eta_a = 1.0 - eff.mu * pi * (1.0 / s + 1.0 / p) * loss_parameter(
            eps_a1, eps_a2)
        eta_b = 1.0 - eff.mu * pi * (1.0 / p - 1.0 / r) * loss_parameter(
            eps_b1, eps_b2)
        eta_overall = overall_efficiency(s, r, eta_a, eta_b)

        # face_width, Barth velocity factor
        r_sun_m = m * s / 2.0 / 1000.0
        f_t = load.sun_torque_nm / (n * r_sun_m)
        y = lewis_form_factor(np.minimum(s, p), strength.lewis_formula)
        k_v = 3.0 / (3.0 + load.sun_speed_rad_s * r_sun_m)
        pitch_m = pi * m / 1000.0
        width = np.maximum(
            strength.fos * f_t / (strength.allowable_bending_stress_pa * y
                                  * k_v * pitch_m) * 1000.0,
            strength.min_face_width_mm)

        # actuator_mass
        if params.fastener_offset:
            sun_bore = planet_bore = 0.0
        else:
            sun_bore = params.input_bearing_bore_mm
            planet_bore = params.planet_bearing_bore_mm
        steel = materials.steel_density_kg_m3
        aluminum = materials.aluminum_density_kg_m3
        sun = annulus_kg(steel, width, m * s, sun_bore)
        planets_total = n * annulus_kg(steel, width, m * p, planet_bore)
        ring = annulus_kg(steel, width,
                          m * r + 2.0 * (params.ring_radial_thickness_coeff
                                         * m),
                          m * r - 2.0 * m)
        pin_circle = m * (s + p)
        disk_od = pin_circle + (m * p + 2.0 * m) / 2.0
        shaft_od = bearing_od(params.input_bearing_bore_mm, bearing,
                              extrapolate=True)
        disk = annulus_kg(aluminum, params.carrier_disk_thickness_mm,
                          disk_od, shaft_od)
        carrier = disk + n * planet_pin_mass(width, materials, params)
        bearings = (n * bearing_mass(params.planet_bearing_bore_mm, bearing,
                                     extrapolate=True)
                    + bearing_mass(params.input_bearing_bore_mm, bearing,
                                   extrapolate=True)
                    + bearing_mass(pin_circle, bearing, extrapolate=True))
        casing_od = ctx.motor.outer_diameter_mm
        casing_id = casing_od - 2.0 * params.casing_wall_mm
        casing_length = ctx.motor.height_mm
        if arch is Architecture.ESSPG:
            casing_length = casing_length + gearbox_stack_height_mm(width,
                                                                    params)
        casing = annulus_kg(aluminum, casing_length, casing_od, casing_id)
        total = (sun + planets_total + ring + carrier + disk + bearings
                 + casing + base_plate_mass(ctx.motor, materials, params)
                 + ctx.motor.mass_kg)
        cost = ctx.cost.k_m * total - ctx.cost.k_e * eta_overall

        eta_mesh = np.minimum(eta_a, eta_b)
        model_ok = (tooth_ok & (y > 0) & (k_v > 0)
                    & (sun_bore < m * s) & (planet_bore < m * p)
                    & (shaft_od < disk_od) & in_table(pin_circle)
                    & in_table(params.planet_bearing_bore_mm)
                    & in_table(params.input_bearing_bore_mm)
                    & (casing_id > 0))
        feasible = model_ok & (eta_mesh > _SETTLE_TOL)
        unsure = model_ok & (np.abs(eta_mesh) <= _SETTLE_TOL)
    if unsure.any():
        columns = (np.broadcast_to(m, s.shape), n, s, p)
        feasible[unsure] = [evaluate(design, ctx).feasible
                            for design in _designs(arch, columns, unsure)]
    return ColumnScores(feasible=feasible, cost=cost, mass_total=total,
                        eta_overall=eta_overall)


def failure_tallies(motor: MotorSpec, arch: Architecture,
                    constraints: ConstraintParams, module_set: list[float],
                    lo: float, hi: float) -> dict[str, int]:
    """
    Violations per constraint over a bin's raw candidate rectangle: the
    ratio window intersected with the tooth-count floor, suns capped at
    a diagnostic ceiling, without the feasibility filter. Rules that no
    candidate violates are left out.
    """
    counts: dict[str, int] = {}
    for *_, masks in _ratio_window(motor, arch, constraints, module_set,
                                   lo, hi, sun_cap=_DIAG_SUN_TEETH_CAP):
        for name, mask in masks.items():
            counts[name] = counts.get(name, 0) + int(np.count_nonzero(mask))
    return {name: count for name, count in counts.items() if count}


def diagnose_empty_bin(motor: MotorSpec, arch: Architecture,
                       constraints: ConstraintParams,
                       module_set: list[float], lo: float,
                       hi: float) -> str:
    """
    Name the constraint that blocks an empty ratio bin: the most
    frequent one in ``failure_tallies``.
    """
    counts = failure_tallies(motor, arch, constraints, module_set, lo, hi)
    if not counts:
        return "no_candidates_in_ratio_window"
    return max(sorted(counts), key=lambda name: counts[name])


def optimize_bins(arch: Architecture, ctx: EvalContext,
                  module_set: list[float],
                  bins: list[tuple[float, float]],
                  workers: Optional[int] = None) -> list[BinResult]:
    """
    Evaluate all candidates whose reduction ratio falls in some bin and
    keep the min-cost feasible design per bin. Empty bins carry the
    dominant blocking constraint instead.

    Each bin is scored by ``score_columns``; only the feasible rows
    within ``_SETTLE_TOL`` of the cheapest columnar cost are built as
    designs and scored by ``evaluate``, and the least ``ranking_key``
    among them wins.

    ``workers`` is validated (None or an int >= 1) and otherwise
    ignored: evaluation is serial, and is kept as an argument only for
    existing callers.
    """
    bins = validate_bins(bins)
    validate_workers(workers)
    results = []
    for lo, hi in bins:
        columns = _bin_columns(ctx.motor, arch, ctx.constraints, module_set,
                               lo, hi)
        scores = score_columns(arch, ctx, *columns)
        feasible_count = int(np.count_nonzero(scores.feasible))
        best = None
        empty_reason = None
        if feasible_count:
            cost_min = float(scores.cost[scores.feasible].min())
            shortlist = scores.feasible & (
                scores.cost <= cost_min
                + _SETTLE_TOL * max(1.0, abs(cost_min)))
            best = min((evaluate(design, ctx)
                        for design in _designs(arch, columns, shortlist)),
                       key=ranking_key)
        else:
            empty_reason = diagnose_empty_bin(ctx.motor, arch,
                                              ctx.constraints, module_set,
                                              lo, hi)
        results.append(BinResult(lo=lo, hi=hi, arch=arch, best=best,
                                 candidates_examined=len(columns[0]),
                                 feasible_count=feasible_count,
                                 empty_reason=empty_reason))
    return results


def compare_architectures(
        results: dict[Architecture, list[BinResult]]) -> list[BinComparison]:
    """
    Per-bin head-to-head: the architecture with the cheaper winner takes
    the bin; margins report how much mass and efficiency separate them.
    """
    isspg = results.get(Architecture.ISSPG)
    esspg = results.get(Architecture.ESSPG)
    if isspg is None or esspg is None:
        raise ValueError("comparison needs results for both architectures")
    if [(r.lo, r.hi) for r in isspg] != [(r.lo, r.hi) for r in esspg]:
        raise ValueError("architecture sweeps used different bins")

    comparisons = []
    for bin_i, bin_e in zip(isspg, esspg):
        winner = None
        mass_margin = None
        eta_margin = None
        if bin_i.best is not None and bin_e.best is not None:
            key_i = ranking_key(bin_i.best)
            key_e = ranking_key(bin_e.best)
            # exact key tie falls to ISSPG (fixed, documented preference)
            winner_eval, loser_eval = ((bin_i.best, bin_e.best)
                                       if key_i <= key_e
                                       else (bin_e.best, bin_i.best))
            winner = winner_eval.design.arch
            mass_margin = loser_eval.mass.total - winner_eval.mass.total
            eta_margin = (winner_eval.efficiency.eta_overall
                          - loser_eval.efficiency.eta_overall)
        elif bin_i.best is not None:
            winner = Architecture.ISSPG
        elif bin_e.best is not None:
            winner = Architecture.ESSPG
        comparisons.append(BinComparison(
            lo=bin_i.lo, hi=bin_i.hi, winner=winner,
            mass_margin_kg=mass_margin, efficiency_margin=eta_margin,
            isspg_feasible=bin_i.best is not None,
            esspg_feasible=bin_e.best is not None))
    return comparisons
