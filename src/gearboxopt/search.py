"""
Per-ratio-bin candidate generation and cost minimization.

Candidates are generated per ratio window, not enumerated over the
whole (m, n_p, N_s, N_p) box and then binned. Since the reduction is
R = (N_s+N_r)/N_s = 2 + 2*N_p/N_s, the planets of each sun that fall
in a half-open bin [lo, hi) form one short integer range. One window
per architecture spans all bins and modules: one ``_window_rows`` call
builds its (m, N_s, N_p) rows as numpy columns, the planet counts are a
broadcast axis, and one ``geometry.constraint_rules`` call gives every
rule's verdict. No window may exceed ``_WINDOW_BOUND`` suns or (planet
count, row) cells, nor any diagnosis grid (module, planet count, row)
cells. Each row goes to its bin once, and a stable sort on (bin, module)
keeps each bin in lexicographic order next to an ascending bin column.

The search keeps the cells that fail no rule and scores them with

    cost = K_m * actuator_mass - K_e * efficiency

The mass rules that read neither the face width nor the planet count
(``mass.mass_verdicts``) decide each window row once, before its planet
counts expand it into cells: on a large motor most rows put the output
bearing's bore past the bearing table, and their cells are examined
but never gathered or scored. ``score_columns`` runs the model
functions of scalar ``evaluate`` (``mesh_chain``, ``lewis_width``,
``component_masses``, each written once for floats and numpy columns)
once on the admitted rows' cells, equal to ``evaluate`` bit for bit
cell by cell. The bin column then gives each bin's feasible count and
its cheapest cost; scalar ``evaluate`` builds the records of the
feasible cells at exactly that cost, and ``ranking_key`` picks the
winner. ``evaluate`` reads the models' verdicts itself: a design that
passes the constraints is dropped by the first model rule of
``_MODEL_RULES`` it fails, by name.

The cheapest feasible design per bin (default [5,6) ... [14,15)) and
architecture is reported. Ties break deterministically: lower mass,
then higher efficiency, then lexicographic (m, n_p, N_s, N_p). An
empty bin that holds no row of the window lies outside the ring
envelope and is named ``ring_diameter`` in closed form, or
``module_range`` when no module of the set is allowed. Each other empty
bin reports the most frequent blocker of its diagnosis window; the rows
of all such bins are built once, each bin's rows one slice, and each
slice is checked by its own ``constraint_rules`` call with the modules
as a leading axis.
"""

from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import groupby
from math import inf, isfinite, nan
from operator import itemgetter, or_
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .efficiency import EfficiencyBreakdown, EfficiencyParams, mesh_chain
from .geometry import (_RULE_ORDER, Architecture, ConstraintParams,
                       GearboxDesign, MotorSpec, constraint_failures,
                       constraint_rules, max_gearbox_diameter, require_finite)
from .mass import (BearingModel, MassBreakdown, MassModelParams,
                   MaterialSpec, component_masses, context_terms,
                   load_bearing_model, mass_verdicts)
from .strength import LoadCase, StrengthParams, lewis_width

# sun-teeth ceiling for empty-bin diagnostics; feasibility always
# appears first at small suns (smallest ring for a given ratio), so
# scanning this far is enough to name the dominant blocker
_DIAG_SUN_TEETH_CAP = 60

# most suns or (planet count, row) cells a window, or (module, planet
# count, row) cells the diagnosis grid of one empty bin that the window
# reaches, may hold, checked before any of its arrays is built: 16x
# scale's unbounded window (41,776 rows x 6 planet counts)
_WINDOW_BOUND = 4_000_000

# the model rules of ``evaluate``, in the order it checks them; the
# verdicts of ``component_masses`` are the last seven, in order
_MODEL_RULES = ("tooth_form", "efficiency_range", "lewis_range", "gear_bore",
                "input_bearing_range", "carrier_clearance",
                "planet_bearing_range", "output_bearing_range", "casing_wall",
                "mass_range")
_TOOTH_FORM, _EFFICIENCY_RANGE, _LEWIS_RANGE, *_MASS_RULES = _MODEL_RULES


@dataclass(frozen=True)
class CostWeights:
    """Weights of the scalarized mass/efficiency objective."""
    k_m: float = 1.0  # per-kg penalty on actuator mass
    k_e: float = 2.0  # reward on overall efficiency

    def __post_init__(self):
        require_finite(self)
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

    @cached_property
    def mass_terms(self) -> tuple:
        """``context_terms`` of this context, computed at first use."""
        return context_terms(self.motor, self.bearing, self.materials,
                             self.mass_params)


@dataclass(frozen=True)
class DesignEvaluation:
    """Scored design: the ranking unit of the search."""
    design: GearboxDesign
    failure_reasons: tuple[str, ...]    # empty exactly when feasible
    efficiency: Optional[EfficiencyBreakdown]
    face_width_mm: Optional[float]
    mass: Optional[MassBreakdown]
    cost: Optional[float]

    def __init__(self, design, failure_reasons, efficiency, face_width_mm,
                 mass, cost):
        # kept by @dataclass: one dict fill, not a setattr call per field
        vars(self).update(design=design, failure_reasons=failure_reasons,
                          efficiency=efficiency, face_width_mm=face_width_mm,
                          mass=mass, cost=cost)

    @property
    def feasible(self) -> bool:
        return not self.failure_reasons


@dataclass(frozen=True)
class BinResult:
    """Outcome of one (ratio bin, architecture) cell of the sweep."""
    lo: float                         # bin lower edge, inclusive
    hi: float                         # bin upper edge, exclusive
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
    """``evaluate`` over the rows it is given, one column per quantity."""
    feasible: np.ndarray     # equals evaluate(...).feasible row by row
    cost: np.ndarray         # equals evaluate(...).cost on feasible rows
    mass_total: np.ndarray   # kg
    eta_overall: np.ndarray


def validate_bins(bins: list[tuple[float, float]]
                  ) -> list[tuple[float, float]]:
    """Require ascending, non-overlapping, non-empty, finite bins, each
    with an upper edge above 2."""
    if not bins:
        raise ValueError("at least one ratio bin is required")
    for lo, hi in bins:
        if not (isfinite(lo) and isfinite(hi)):
            raise ValueError(f"bin [{lo}, {hi}) has a non-finite edge")
        if not lo < hi:
            raise ValueError(f"bin [{lo}, {hi}) is empty")
        if not hi > 2:
            raise ValueError(f"bin [{lo}, {hi}) holds no design: every "
                             f"reduction 2 + 2*N_p/N_s is above 2")
    for (_, hi_prev), (lo_next, _) in zip(bins, bins[1:]):
        if lo_next < hi_prev:
            raise ValueError("bins must be ascending and non-overlapping")
    return list(bins)


def validate_module_set(module_set: list[float]) -> list[float]:
    """Require at least one module, each finite and > 0, and no module
    twice; returns the modules ascending."""
    for module_mm in module_set:
        if not (isfinite(module_mm) and module_mm > 0):
            raise ValueError(f"module {module_mm:g} mm must be finite, > 0")
    modules = sorted(module_set)
    if not modules:
        raise ValueError("at least one module is required")
    for previous, module_mm in zip(modules, modules[1:]):
        if module_mm == previous:
            raise ValueError(f"module {module_mm:g} mm given twice")
    return modules


def default_bins() -> list[tuple[float, float]]:
    """Unit-width reduction bins [5,6) through [14,15)."""
    return [(float(lo), float(lo + 1)) for lo in range(5, 15)]


def _segment_offsets(sizes: np.ndarray) -> np.ndarray:
    """0, 1, ..., size - 1 for each of ``sizes``, concatenated."""
    return np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)


def _bounded(arch: Architecture, count, what: str) -> None:
    """Reject a candidate window of more than ``_WINDOW_BOUND`` suns or
    cells before it is built."""
    if count > _WINDOW_BOUND:
        raise ValueError(
            f"the {arch.value} candidate window needs {count:.3g} {what}, "
            f"more than the bound of {_WINDOW_BOUND:,}")


def _window_rows(arch: Architecture, constraints: ConstraintParams,
                 suns: np.ndarray, edges_lo: np.ndarray, edges_hi: np.ndarray,
                 planet_max=inf, slack: int = 0) -> tuple[np.ndarray, ...]:
    """
    The (N_s, N_p, N_r) rows of a ratio window, its planet counts as a
    (k, 1) column, and the row count of each (edge pair, sun), edge
    pairs outermost: each edge pair's rows are one lexicographic slice.
    R = 2 + 2*N_p/N_s, so a sun's planets in [lo, hi) lie in
    [ceil((lo-2)*N_s/2), ceil((hi-2)*N_s/2)), floored at min_teeth,
    capped at planet_max (one cap, or one per sun) and widened by
    ``slack`` teeth at each end. The (planet count, row) cells, counted
    as if there were one row at least, must stay within
    ``_WINDOW_BOUND``.
    """
    low, high = constraints.min_planets, constraints.max_planets
    first = np.maximum(np.ceil((edges_lo[:, None] - 2.0) * suns / 2.0)
                       - slack, constraints.min_teeth).ravel()
    stop = np.minimum(np.ceil((edges_hi[:, None] - 2.0) * suns / 2.0)
                      + slack, planet_max + 1).ravel()
    sizes = np.maximum(stop - first, 0)
    _bounded(arch, max(sizes.sum(), 1) * (high - low + 1),
             "(planet count, row) cells")
    sizes = sizes.astype(np.int64)
    sun = np.repeat(np.tile(suns, len(edges_lo)), sizes)
    planet = np.repeat(first.astype(np.int64), sizes) + _segment_offsets(sizes)
    return (sun, planet, sun + 2 * planet, np.arange(low, high + 1)[:, None],
            sizes)


class _Window(NamedTuple):
    """The (m, N_s, N_p) rows of an architecture's search window."""
    modules: np.ndarray        # the allowed modules of the set, ascending
    module_index: np.ndarray   # each row's index into ``modules``
    sun: np.ndarray
    planet: np.ndarray
    ring: np.ndarray
    row_bin: np.ndarray        # each row's bin index, -1 outside every bin
    planet_counts: np.ndarray  # the (k, 1) planet-count axis of the cells
    reasons: list              # each bin's closed-form empty reason


def _search_window(motor: MotorSpec, arch: Architecture,
                   constraints: ConstraintParams, module_set: list[float],
                   bins: list[tuple[float, float]]) -> _Window:
    """
    The rows of the search window of ascending, disjoint bins [lo, hi)
    and the ascending, distinct modules of ``validate_module_set``, each
    row tagged with the bin that holds its float ratio (N_s+N_r)/N_s,
    and each bin's closed-form empty reason: None where the window holds
    a row of the bin, else ``ring_diameter``, which every design of an
    allowed module in the bin fails, or ``module_range`` when no module
    of the set is allowed. The window is the ring envelope: each module
    adds one planet range per sun over [bins[0].lo, bins[-1].hi), with
    m*N_r <= d_max, widened by one tooth at each end because rounding of
    the edges can drop a design whose float ratio lies in a bin; one
    ``_window_rows`` call builds the rows of every module. Modules
    outside [module_min_mm, module_max_mm] add no rows (module_range);
    every other rule, the tooth cap too, is left to ``_window_cells``.
    """
    n_min = constraints.min_teeth
    d_max = max_gearbox_diameter(motor, arch, constraints)
    los, his = np.array(bins, dtype=np.float64).reshape(-1, 2).T
    modules = np.array([m for m in module_set if constraints.module_min_mm
                        <= m <= constraints.module_max_mm], dtype=np.float64)
    # each module's suns run from n_min to its ring envelope, the largest
    # ring that ring_diameter admits; an envelope that overflows to inf is
    # refused by the sun bound
    with np.errstate(over="ignore"):
        max_ring = np.floor(d_max / modules + 1e-9)
        max_ring -= modules * max_ring > d_max
    sun_counts = np.maximum(max_ring - 3 * n_min + 1, 0)
    _bounded(arch, sun_counts.sum(), "suns")
    sun_counts = sun_counts.astype(np.int64)
    sun_module = np.repeat(np.arange(len(modules)), sun_counts)
    suns = n_min + _segment_offsets(sun_counts)
    sun, planet, ring, planet_counts, sizes = _window_rows(
        arch, constraints, suns, los[:1], his[-1:],
        (max_ring[sun_module] - suns) // 2, slack=1)
    ratio = (sun + ring) / sun
    index = np.searchsorted(los, ratio, side="right") - 1
    row_bin = np.where((index >= 0) & (ratio < his[index]), index, -1)
    outside = "ring_diameter" if len(modules) else "module_range"
    reasons = [None if reached else outside
               for reached in np.isin(np.arange(len(los)), row_bin).tolist()]
    return _Window(modules, np.repeat(sun_module, sizes), sun, planet, ring,
                   row_bin, planet_counts, reasons)


def _window_cells(arch: Architecture, motor: MotorSpec,
                  constraints: ConstraintParams, window: _Window,
                  rows: np.ndarray) -> tuple:
    """
    The (planet count, row) cells of ``window`` that fail no rule: each
    row's count of them, and the cells of the rows that the mask
    ``rows`` keeps, which must lie in bins, as their bin index,
    ascending, and their (module_mm, n_p, N_s, N_p, module index)
    columns, each bin's cells in lexicographic order. One
    ``constraint_rules`` call checks every cell; ``np.nonzero`` finds
    the kept cells, and each column is indexed by row or planet-count
    index once, in sorted order.
    """
    modules, module_index, sun, planet, ring, row_bin, planet_counts, _ = (
        window)
    passed = ~reduce(or_, constraint_rules(
        arch, modules[module_index], planet_counts, sun, planet, ring, motor,
        constraints))
    # the kept (n_p, row) cells come in (n_p, m, N_s, N_p) order, so a
    # stable sort on (bin, module) puts each bin in (m, n_p, N_s, N_p)
    # order; the smallest key type lets argsort use a radix sort
    planet_index, row = np.nonzero(passed & rows)
    key = row_bin[row] * len(modules) + module_index[row]
    order = np.argsort(key.astype(np.min_scalar_type(len(window.reasons)
                                                     * len(modules))),
                       kind="stable")
    planet_index, row = planet_index[order], row[order]
    module_index = module_index[row]
    return np.count_nonzero(passed, axis=0), row_bin[row], (
        modules[module_index], planet_counts[planet_index, 0], sun[row],
        planet[row], module_index)


def _bin_columns(motor: MotorSpec, arch: Architecture,
                 constraints: ConstraintParams, module_set: list[float],
                 bins: list[tuple[float, float]]) -> tuple:
    """
    Every feasible design with lo <= R < hi, R the float (N_s+N_r)/N_s:
    the ``_window_cells`` of every row of ``_search_window`` that lies
    in a bin, as each design's bin index, ascending, and the designs'
    (module_mm, n_p, N_s, N_p, module index) columns, each bin's rows in
    lexicographic order, and each bin's closed-form empty reason.
    """
    window = _search_window(motor, arch, constraints, module_set, bins)
    _, row_bin, columns = _window_cells(arch, motor, constraints, window,
                                        window.row_bin >= 0)
    return row_bin, columns, window.reasons


def _designs(arch: Architecture, columns: tuple[np.ndarray, ...],
             rows=slice(None)) -> list[GearboxDesign]:
    """The designs of ``_bin_columns`` rows (all rows by default)."""
    modules, planets, suns, planet_teeth = (column[rows].tolist()
                                            for column in columns[:4])
    return [GearboxDesign(arch=arch, sun_teeth=s, planet_teeth=p,
                          ring_teeth=s + 2 * p, module_mm=m, num_planets=n)
            for m, n, s, p in zip(modules, planets, suns, planet_teeth)]


def enumerate_feasible(motor: MotorSpec, arch: Architecture,
                       constraints: ConstraintParams,
                       module_set: list[float]) -> Iterator[GearboxDesign]:
    """Every feasible design in lexicographic (m, n_p, N_s, N_p) order:
    the rows of an unbounded ratio window."""
    _, columns, _ = _bin_columns(motor, arch, constraints,
                                 validate_module_set(module_set),
                                 [(-inf, inf)])
    yield from _designs(arch, columns)


def _dropped(design: GearboxDesign, reasons: tuple) -> DesignEvaluation:
    return DesignEvaluation(design, reasons, None, None, None, None)


def evaluate(design: GearboxDesign, ctx: EvalContext) -> DesignEvaluation:
    """
    Score one design: constraints, efficiency chain, Lewis width, mass,
    cost. A dropped design names its violated constraints, or else its
    first failed model rule. Each term is computed once, and the mass
    terms that read only the context once per context: reuse one ``ctx``.
    """
    failures = tuple(constraint_failures(design, ctx.motor, ctx.constraints))
    if failures:
        return _dropped(design, failures)
    m, n, s, p, r = (design.module_mm, design.num_planets, design.sun_teeth,
                     design.planet_teeth, design.ring_teeth)
    sound, chain, _ = mesh_chain(m, s, p, r, ctx.efficiency)
    if not sound:
        return _dropped(design, (_TOOTH_FORM,))
    *_, eta_a, eta_b, eta_overall = chain
    if not (eta_a > 0 and eta_b > 0):
        return _dropped(design, (_EFFICIENCY_RANGE,))
    sound, _, _, width_mm = lewis_width(m, s, p, n, ctx.load, ctx.strength)
    if not sound:
        return _dropped(design, (_LEWIS_RANGE,))
    sound, verdicts, parts, _ = component_masses(
        design.arch, m, n, s, p, r, width_mm, ctx.motor, ctx.bearing,
        ctx.materials, ctx.mass_params, ctx.mass_terms)
    if not sound:
        return _dropped(design, (_MASS_RULES[verdicts.index(False)],))
    total = sum(parts)
    cost = ctx.cost.k_m * total - ctx.cost.k_e * eta_overall
    if not isfinite(cost):
        return _dropped(design, (_MASS_RULES[-1],))
    return DesignEvaluation(design, (), EfficiencyBreakdown._make(chain),
                            width_mm, MassBreakdown(*parts, total), cost)


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
                  num_planets, sun_teeth, planet_teeth,
                  module_index) -> ColumnScores:
    """Columnar ``evaluate`` over designs that pass every constraint, such
    as every row of an architecture's search window: ``mesh_chain``,
    ``lewis_width`` and ``component_masses`` on numpy columns, with
    ``module_index`` equal exactly where the module is. Each row's
    feasibility, cost, mass and efficiency equal ``evaluate``'s bit for
    bit: a row is feasible when every model admits it, both mesh
    efficiencies are > 0 and the cost is finite. A context that fails a
    mass rule on its own drops every row (nan cost and mass)."""
    m = np.asarray(module_mm, dtype=np.float64)
    n, s, p, index = (np.asarray(column, dtype=np.int64) for column
                      in (num_planets, sun_teeth, planet_teeth, module_index))
    r = s + 2 * p
    # degenerate rows (ring tip circle <= 0, non-positive Lewis factor)
    # produce nan or inf here and are masked out below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tooth_ok, (*_, eta_a, eta_b, eta_overall), _ = mesh_chain(
            m, s, p, r, ctx.efficiency, index)
        lewis_ok, _, _, width = lewis_width(m, s, p, n, ctx.load,
                                            ctx.strength)
        mass_ok, _, parts, _ = component_masses(
            arch, m, n, s, p, r, width, ctx.motor, ctx.bearing,
            ctx.materials, ctx.mass_params, ctx.mass_terms, index)
        # no parts: a mass rule of the context alone drops every row
        total = sum(parts) if parts is not None else np.full(s.shape, nan)
        cost = ctx.cost.k_m * total - ctx.cost.k_e * eta_overall
        feasible = (tooth_ok & (eta_a > 0) & (eta_b > 0) & lewis_ok & mass_ok
                    & np.isfinite(cost))
    return ColumnScores(feasible=feasible, cost=cost, mass_total=total,
                        eta_overall=eta_overall)


def _bin_tallies(motor: MotorSpec, arch: Architecture,
                 constraints: ConstraintParams, module_set: list[float],
                 bins: list[tuple[float, float]]) -> list[dict[str, int]]:
    """
    Violations per rule, zero counts left out, in the diagnosis window of
    each of ascending, disjoint bins over distinct modules: suns up to
    the diagnostic ceiling, each with exactly every bin's planet range,
    and no feasibility filter.

    The rows do not depend on the module. One ``_window_rows`` call
    builds every bin's rows as one slice, and no bin's (module, planet
    count, row) grid may exceed ``_WINDOW_BOUND``. Each bin with rows
    takes one ``constraint_rules`` call with the modules as a leading
    (M, 1, 1) axis, so a rule that does not read the module is computed
    once per bin, and each verdict's count is scaled by the grid axes it
    lacks.
    """
    los, his = np.array(bins, dtype=np.float64).reshape(-1, 2).T
    sun, planet, ring, planet_counts, sizes = _window_rows(
        arch, constraints,
        np.arange(constraints.min_teeth, _DIAG_SUN_TEETH_CAP + 1), los, his)
    rows = sizes.reshape(len(bins), -1).sum(axis=1)
    grids = (len(module_set) * len(planet_counts) * rows).tolist()
    _bounded(arch, max(grids), "(module, planet count, row) cells")
    modules = np.array(module_set, dtype=np.float64)[:, None, None]
    slices = zip(*(np.split(column, np.cumsum(rows)[:-1])
                   for column in (sun, planet, ring)))
    tallies = []
    for cells, window in zip(grids, slices):
        verdicts = constraint_rules(arch, modules, planet_counts, *window,
                                    motor, constraints) if cells else ()
        tallies.append({name: count for name, verdict
                        in zip(_RULE_ORDER, verdicts)
                        if (count := np.count_nonzero(verdict)
                            * (cells // np.size(verdict)))})
    return tallies


def _dominant_rule(counts: dict[str, int]) -> str:
    """The most frequent rule of a tally; ties go to the first name."""
    return min(counts, key=lambda name: (-counts[name], name),
               default="no_candidates_in_ratio_window")


def optimize_bins(arch: Architecture, ctx: EvalContext,
                  module_set: list[float],
                  bins: list[tuple[float, float]]) -> list[BinResult]:
    """
    Evaluate all candidates whose reduction ratio falls in some bin and
    keep the min-cost feasible design per bin. ``mass_verdicts``, which
    reads neither the face width nor the planet count, admits or drops
    each (m, N_s, N_p) row of the window once, before the rows expand
    into (planet count, row) cells. Every cell that passes the
    constraints counts as examined, summed from each row's pass count;
    the cells of a dropped row are infeasible unscored, and one
    ``score_columns`` call scores the cells of the admitted rows. Their
    bin column gives each bin's feasible count, its cheapest cost and
    the feasible rows at exactly that cost, which ``evaluate`` scores in
    (m, n_p, N_s, N_p) order for ``ranking_key``. Empty bins carry the
    dominant blocking constraint instead: a bin that holds no row of the
    window lies outside the ring envelope and takes its closed-form
    reason from ``_search_window``. Each other empty bin is named by the
    most frequent rule of ``_bin_tallies``, which builds one diagnosis
    window for all of them and checks each bin's slice of it on its own.
    """
    bins = validate_bins(bins)
    module_set = validate_module_set(module_set)
    window = _search_window(ctx.motor, arch, ctx.constraints, module_set,
                            bins)
    in_bin = window.row_bin >= 0
    # a row that a mass rule fails without its face width or planet count
    # drops each of its cells; deciding it before the rows expand into
    # cells keeps these temporaries out of the cell grid's lifetime
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        admitted = in_bin & mass_verdicts(
            window.modules[window.module_index], window.sun, window.planet,
            window.ring, ctx.mass_params, ctx.mass_terms)[0]
    passes, row_bin, columns = _window_cells(arch, ctx.motor,
                                             ctx.constraints, window,
                                             admitted)
    examined = np.bincount(window.row_bin[in_bin], weights=passes[in_bin],
                           minlength=len(bins)).astype(np.int64)
    feasible_count = np.zeros_like(examined)
    best = [None] * len(bins)
    if len(row_bin):
        scores = score_columns(arch, ctx, *columns)
        feasible_bin = row_bin[scores.feasible]
        feasible_count = np.bincount(feasible_bin, minlength=len(bins))
        cost_min = np.full(len(bins), inf)
        np.minimum.at(cost_min, feasible_bin, scores.cost[scores.feasible])
        shortlist = scores.feasible & (scores.cost == cost_min[row_bin])
        shortlisted = zip(row_bin[shortlist].tolist(),
                          _designs(arch, columns, shortlist))
        for i, group in groupby(shortlisted, key=itemgetter(0)):
            best[i] = min((evaluate(design, ctx) for _, design in group),
                          key=ranking_key)
    empty = [bin_ for bin_, winner, reason in zip(bins, best, window.reasons)
             if winner is None and reason is None]
    reasons = map(_dominant_rule, _bin_tallies(
        ctx.motor, arch, ctx.constraints, module_set, empty) if empty else [])
    return [BinResult(lo=lo, hi=hi, best=winner,
                      candidates_examined=n_examined,
                      feasible_count=n_feasible,
                      empty_reason=None if winner is not None
                      else reason or next(reasons))
            for (lo, hi), winner, reason, n_examined, n_feasible
            in zip(bins, best, window.reasons, examined.tolist(),
                   feasible_count.tolist())]


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
        # sorted is stable: an exact key tie falls to ISSPG, listed first
        ranked = sorted((result.best for result in (bin_i, bin_e)
                         if result.best is not None), key=ranking_key)
        winner, loser = (*ranked, None, None)[:2]
        margins = (None, None) if loser is None else (
            loser.mass.total - winner.mass.total,
            winner.efficiency.eta_overall - loser.efficiency.eta_overall)
        comparisons.append(BinComparison(
            bin_i.lo, bin_i.hi, winner.design.arch if winner else None,
            *margins, bin_i.best is not None, bin_e.best is not None))
    return comparisons
