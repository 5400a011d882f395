"""
Per-ratio-bin candidate generation and cost minimization.

Candidates are generated per ratio window, not enumerated over the
whole (m, n_p, N_s, N_p) box and then binned. Since the reduction is
R = (N_s+N_r)/N_s = 2 + 2*N_p/N_s, the planets of each sun that fall
in a half-open bin [lo, hi) form one short integer range. A window is
walked one module at a time as numpy columns in lexicographic
(n_p, N_s, N_p) order, with one failure mask per feasibility rule.

The search keeps the rows that fail no rule, evaluates them for
efficiency, face width, and full actuator mass, and scores them with

    cost = K_m * actuator_mass - K_e * efficiency

The cheapest feasible design per bin (default [5,6) ... [14,15)) and
architecture is reported. Ties break deterministically: lower mass,
then higher efficiency, then lexicographic (m, n_p, N_s, N_p). An
empty bin sums the failure masks of its window instead and reports
the most frequent blocker.
"""

from dataclasses import dataclass
from math import floor, inf
from typing import Iterator, Optional

import numpy as np

from .efficiency import (EfficiencyBreakdown, EfficiencyParams,
                         GeometryInfeasibleError, ModelRangeError,
                         planetary_efficiency)
from .geometry import (Architecture, ConstraintParams, GearboxDesign,
                       MotorSpec, constraint_failures, constraint_masks,
                       max_gearbox_diameter)
from .mass import (BearingModel, MassBreakdown, MassModelParams,
                   MaterialSpec, actuator_mass, load_bearing_model)
from .strength import LoadCase, StrengthParams, face_width

# sun-teeth ceiling for empty-bin diagnostics; feasibility always
# appears first at small suns (smallest ring for a given ratio), so
# scanning this far is enough to name the dominant blocker
_DIAG_SUN_TEETH_CAP = 60


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


def bin_candidates(motor: MotorSpec, arch: Architecture,
                   constraints: ConstraintParams, module_set: list[float],
                   lo: float, hi: float) -> list[GearboxDesign]:
    """
    Every feasible design with lo <= R < hi, in lexicographic
    (m, n_p, N_s, N_p) order; R is the float (N_s+N_r)/N_s.
    """
    designs = []
    for module_mm, num_planets, sun, planet, masks in _ratio_window(
            motor, arch, constraints, module_set, lo, hi):
        ratio = (2 * sun + 2 * planet) / sun
        keep = (~np.any(list(masks.values()), axis=0)
                & (lo <= ratio) & (ratio < hi))
        designs.extend(
            GearboxDesign(arch=arch, sun_teeth=s, planet_teeth=p,
                          ring_teeth=s + 2 * p, module_mm=module_mm,
                          num_planets=n)
            for n, s, p in zip(num_planets[keep].tolist(),
                               sun[keep].tolist(), planet[keep].tolist()))
    return designs


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

    ``workers`` is validated (None or an int >= 1) and otherwise
    ignored: evaluation is serial, and is kept as an argument only for
    existing callers.
    """
    bins = validate_bins(bins)
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    results = []
    for lo, hi in bins:
        candidates = bin_candidates(ctx.motor, arch, ctx.constraints,
                                    module_set, lo, hi)
        best = None
        feasible_count = 0
        for design in candidates:
            evaluation = evaluate(design, ctx)
            if not evaluation.feasible:
                continue
            feasible_count += 1
            if best is None or ranking_key(evaluation) < ranking_key(best):
                best = evaluation
        empty_reason = None
        if best is None:
            empty_reason = diagnose_empty_bin(ctx.motor, arch,
                                              ctx.constraints, module_set,
                                              lo, hi)
        results.append(BinResult(lo=lo, hi=hi, arch=arch, best=best,
                                 candidates_examined=len(candidates),
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
