"""Enumeration, scoring, per-bin optimization, and the architecture
comparison, cross-checked against naive nested-loop scans."""

from dataclasses import replace
from math import ceil, pi, radians

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gearboxopt import (Architecture, BinResult, ConstraintParams,
                        CostWeights, DesignEvaluation, EfficiencyParams,
                        EvalContext, GearboxDesign, LoadCase,
                        MassModelParams, MaterialSpec, MeshKind, MotorSpec,
                        StrengthParams, compare_architectures,
                        contact_ratios, loss_parameter,
                        constraint_failures, default_bins, diagnose_empty_bin,
                        evaluate, max_gearbox_diameter, optimize_bins,
                        ranking_key, validate_bins)
from gearboxopt.cli import load_config, run_sweep
from gearboxopt.geometry import constraint_masks
from gearboxopt.search import (_DIAG_SUN_TEETH_CAP, _bin_columns,
                               bin_candidates, enumerate_feasible,
                               failure_tallies, score_columns)

from conftest import U12

REFERENCE = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                          planet_teeth=40, ring_teeth=100, module_mm=0.5,
                          num_planets=3)
REFERENCE_COST = -0.5970515307822426  # k_m=1, k_e=2, U12 load
ALL_MODULES = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
# the benchmark's scale motor: most of its binned esspg designs put the
# output bearing bore above the bearing table
SCALE_MOTOR = replace(U12, outer_diameter_mm=160.0,
                      stator_inner_diameter_mm=110.0, name="U12-scale")


def naive_rectangle(arch, constraints, modules, motor=U12):
    """Dumb 5-nested-loop feasibility scan used as the search oracle."""
    d_max = max_gearbox_diameter(motor, arch, constraints)
    found = []
    for module_mm in modules:
        for num_planets in range(constraints.min_planets,
                                 constraints.max_planets + 1):
            top = int(d_max / module_mm) + 1
            for sun in range(constraints.min_teeth, top):
                for planet in range(constraints.min_teeth, top):
                    design = GearboxDesign(
                        arch=arch, sun_teeth=sun, planet_teeth=planet,
                        ring_teeth=sun + 2 * planet, module_mm=module_mm,
                        num_planets=num_planets)
                    if not constraint_failures(design, motor, constraints):
                        found.append(design)
    return found


def scalar_bins(arch, ctx, modules, bins):
    """optimize_bins as a plain loop of scalar evaluate calls over
    every bin candidate."""
    results = []
    for lo, hi in bins:
        candidates = bin_candidates(ctx.motor, arch, ctx.constraints,
                                    modules, lo, hi)
        feasible = [evaluation for evaluation
                    in (evaluate(design, ctx) for design in candidates)
                    if evaluation.feasible]
        best = min(feasible, key=ranking_key, default=None)
        results.append(BinResult(
            lo=lo, hi=hi, arch=arch, best=best,
            candidates_examined=len(candidates),
            feasible_count=len(feasible),
            empty_reason=None if best is not None else diagnose_empty_bin(
                ctx.motor, arch, ctx.constraints, modules, lo, hi)))
    return results


@pytest.fixture(scope="module")
def bin_results(default_ctx):
    return {arch: optimize_bins(arch, default_ctx, ALL_MODULES,
                                default_bins(), workers=1)
            for arch in (Architecture.ISSPG, Architecture.ESSPG)}


class TestHelpers:
    def test_cost_weights_validation(self):
        CostWeights(k_m=0.0, k_e=0.0)
        with pytest.raises(ValueError):
            CostWeights(k_m=-1.0)

    def test_worker_count_validated(self, default_ctx, u12_config_path,
                                    tmp_path):
        with pytest.raises(ValueError):
            optimize_bins(Architecture.ISSPG, default_ctx, ALL_MODULES,
                          default_bins(), workers=0)
        # rejected before the output directory is created
        out_dir = tmp_path / "sweep"
        with pytest.raises(ValueError):
            run_sweep(load_config(u12_config_path), out_dir=out_dir,
                      workers=0)
        assert not out_dir.exists()

    def test_validate_bins(self):
        bins = [(5.0, 6.0), (6.0, 7.0)]
        assert validate_bins(bins) == bins
        with pytest.raises(ValueError):
            validate_bins([])
        with pytest.raises(ValueError):
            validate_bins([(6.0, 6.0)])
        with pytest.raises(ValueError):
            validate_bins([(5.0, 6.5), (6.0, 7.0)])

    def test_default_bins(self):
        bins = default_bins()
        assert bins[0] == (5.0, 6.0)
        assert bins[-1] == (14.0, 15.0)
        assert len(bins) == 10

    def test_context_with_defaults(self, default_ctx, u12, u12_load):
        assert EvalContext.with_defaults(u12, u12_load) == default_ctx


class TestEnumeration:
    def test_all_yielded_designs_are_feasible(self):
        constraints = ConstraintParams()
        for design in enumerate_feasible(U12, Architecture.ISSPG,
                                         constraints, ALL_MODULES):
            assert constraint_failures(design, U12, constraints) == []
            assert design.arch is Architecture.ISSPG

    def test_lexicographic_order(self):
        designs = list(enumerate_feasible(U12, Architecture.ISSPG,
                                          ConstraintParams(), ALL_MODULES))
        keys = [(d.module_mm, d.num_planets, d.sun_teeth, d.planet_teeth)
                for d in designs]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_membership(self):
        designs = set(enumerate_feasible(U12, Architecture.ISSPG,
                                         ConstraintParams(), ALL_MODULES))
        assert REFERENCE in designs
        # ring pitch diameter 60 mm exceeds the 55 mm stator allowance
        assert replace(REFERENCE, planet_teeth=50, ring_teeth=120) \
            not in designs

    def test_matches_naive_scan_on_capped_space(self):
        constraints = ConstraintParams(max_teeth=60)
        modules = [0.5, 1.0]
        for arch in (Architecture.ISSPG, Architecture.ESSPG):
            fast = set(enumerate_feasible(U12, arch, constraints, modules))
            naive = set(naive_rectangle(arch, constraints, modules))
            assert fast == naive
            assert len(fast) > 0


class TestEvaluate:
    def test_reference_design_frozen_cost(self, default_ctx):
        result = evaluate(REFERENCE, default_ctx)
        assert result.feasible
        assert result.failure_reasons == ()
        assert result.reduction_ratio == pytest.approx(6.0, rel=1e-15)
        assert result.cost == pytest.approx(REFERENCE_COST, rel=1e-12)
        assert result.mass.total == pytest.approx(1.3818381711166409,
                                                  rel=1e-12)

    def test_constraint_violations_reported(self, default_ctx):
        # 56 mm ring on a 55 mm stator-bore envelope; meshing and
        # clearance still hold, so exactly one reason is reported
        oversized = replace(REFERENCE, planet_teeth=46, ring_teeth=112)
        result = evaluate(oversized, default_ctx)
        assert not result.feasible
        assert result.failure_reasons == ("ring_diameter",)
        assert result.cost is None and result.mass is None

    def test_one_planet_design_reported(self, default_ctx):
        result = evaluate(replace(REFERENCE, num_planets=1), default_ctx)
        assert not result.feasible
        assert result.failure_reasons == ("planet_count",)

    def test_degenerate_tooth_form_reported(self, default_ctx):
        # a 13-tooth ring passes the relaxed constraints but has no
        # usable involute tip region
        relaxed = replace(default_ctx,
                          constraints=ConstraintParams(min_teeth=4))
        tiny = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=5,
                             planet_teeth=4, ring_teeth=13, module_mm=0.5,
                             num_planets=2)
        result = evaluate(tiny, relaxed)
        assert not result.feasible
        assert result.failure_reasons[0].startswith("tooth_form:")

    @staticmethod
    def _assert_unscored(result, prefix):
        assert not result.feasible
        assert len(result.failure_reasons) == 1
        assert result.failure_reasons[0].startswith(prefix)
        assert result.efficiency is None and result.face_width_mm is None
        assert result.mass is None and result.cost is None

    def test_efficiency_range_reported(self, default_ctx):
        # a 4-tooth planet in a 34-tooth ring at mu=0.95 drives the
        # planet-ring mesh efficiency below zero
        ctx = replace(default_ctx, efficiency=EfficiencyParams(mu=0.95),
                      constraints=ConstraintParams(min_teeth=4))
        small_planet = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=26,
                                     planet_teeth=4, ring_teeth=34,
                                     module_mm=0.5, num_planets=2)
        self._assert_unscored(evaluate(small_planet, ctx),
                              "efficiency_range:")

    def test_bearing_table_range_reported(self, default_ctx):
        # passes every rule, but its output bearing bore m(N_s+N_p) is
        # 60.5 mm, above the 60 mm top of the packaged bearing table
        wide = GearboxDesign(arch=Architecture.ESSPG, sun_teeth=100,
                             planet_teeth=21, ring_teeth=142, module_mm=0.5,
                             num_planets=2)
        assert constraint_failures(wide, default_ctx.motor,
                                   default_ctx.constraints) == []
        self._assert_unscored(evaluate(wide, default_ctx), "model_error:")

    def test_ranking_key_tie_breaking(self, default_ctx):
        base = evaluate(REFERENCE, default_ctx)
        finer = replace(base, design=replace(REFERENCE, module_mm=0.4))
        assert ranking_key(finer) < ranking_key(base)
        more_planets = replace(base,
                               design=replace(REFERENCE, num_planets=4))
        assert ranking_key(base) < ranking_key(more_planets)


class TestOptimizeBins:
    def test_winner_matches_naive_argmin(self, default_ctx, bin_results):
        # independent nested-loop argmin over the [6,7) window
        constraints = default_ctx.constraints
        best = None
        for design in naive_rectangle(Architecture.ISSPG, constraints,
                                      ALL_MODULES):
            if not 6.0 <= design.reduction_ratio < 7.0:
                continue
            candidate = evaluate(design, default_ctx)
            assert candidate.feasible
            if best is None or ranking_key(candidate) < ranking_key(best):
                best = candidate
        result = bin_results[Architecture.ISSPG][1]
        assert (result.lo, result.hi) == (6.0, 7.0)
        assert result.best.design == best.design
        assert result.best.cost == best.cost

    def test_reference_bin_winner(self, bin_results):
        winner = bin_results[Architecture.ISSPG][1].best
        assert winner.design == REFERENCE
        assert winner.cost == pytest.approx(REFERENCE_COST, rel=1e-12)

    def test_feasible_count_matches_naive(self, default_ctx, bin_results):
        naive = sum(1 for d in naive_rectangle(Architecture.ISSPG,
                                               default_ctx.constraints,
                                               ALL_MODULES)
                    if 6.0 <= d.reduction_ratio < 7.0)
        result = bin_results[Architecture.ISSPG][1]
        assert result.feasible_count == naive
        assert result.candidates_examined == naive

    def test_winners_live_inside_their_bins(self, bin_results):
        for results in bin_results.values():
            for result in results:
                if result.best is not None:
                    assert result.lo <= result.best.reduction_ratio \
                        < result.hi
                    assert result.empty_reason is None

    def test_empty_bins_name_the_blocker(self, bin_results):
        for result in bin_results[Architecture.ISSPG][2:]:
            assert result.best is None
            assert result.candidates_examined == 0
            assert result.empty_reason == "ring_diameter"
        for result in bin_results[Architecture.ESSPG][6:]:
            assert result.best is None
            assert result.empty_reason == "ring_diameter"
        assert bin_results[Architecture.ESSPG][5].best is not None

    def test_worker_count_does_not_change_results(self, default_ctx,
                                                  bin_results):
        parallel = optimize_bins(Architecture.ESSPG, default_ctx,
                                 ALL_MODULES, default_bins(), workers=2)
        assert parallel == bin_results[Architecture.ESSPG]

    def test_equals_scalar_loop_when_evaluation_drops_designs(
            self, default_ctx):
        ctx = replace(default_ctx, motor=SCALE_MOTOR)
        results = optimize_bins(Architecture.ESSPG, ctx, ALL_MODULES,
                                default_bins())
        assert results == scalar_bins(Architecture.ESSPG, ctx, ALL_MODULES,
                                      default_bins())
        assert any(0 < r.feasible_count < r.candidates_examined
                   for r in results)
        assert any(r.candidates_examined and not r.feasible_count
                   for r in results)

    def test_equals_scalar_loop_when_every_cost_ties(self, default_ctx):
        # zero weights make every cost 0, so the shortlist holds every
        # feasible design and ranking_key decides on mass, then eta
        ctx = replace(default_ctx, cost=CostWeights(k_m=0.0, k_e=0.0))
        for arch in Architecture:
            results = optimize_bins(arch, ctx, ALL_MODULES, default_bins())
            assert results == scalar_bins(arch, ctx, ALL_MODULES,
                                          default_bins())
            assert any(r.feasible_count > 1 for r in results)


class TestDiagnosis:
    def test_ring_diameter_blocks_high_ratios(self, default_ctx):
        reason = diagnose_empty_bin(U12, Architecture.ISSPG,
                                    default_ctx.constraints, ALL_MODULES,
                                    7.0, 8.0)
        assert reason == "ring_diameter"

    def test_window_without_integer_candidates(self, default_ctx):
        reason = diagnose_empty_bin(U12, Architecture.ISSPG,
                                    default_ctx.constraints, ALL_MODULES,
                                    5.001, 5.002)
        assert reason == "no_candidates_in_ratio_window"


class TestComparison:
    def test_winners_by_bin(self, bin_results):
        rows = compare_architectures(bin_results)
        assert [row.winner for row in rows[:3]] == [
            Architecture.ISSPG, Architecture.ISSPG, Architecture.ESSPG]
        assert all(row.winner is None for row in rows[6:])

    def test_margins_when_both_feasible(self, bin_results):
        rows = compare_architectures(bin_results)
        first = rows[0]
        assert first.isspg_feasible and first.esspg_feasible
        assert first.mass_margin_kg > 0
        # both architectures settle on the same gear train, so the
        # efficiency margin is exactly zero
        assert first.efficiency_margin == 0.0

    def test_one_sided_bins(self, bin_results):
        rows = compare_architectures(bin_results)
        third = rows[2]
        assert third.winner is Architecture.ESSPG
        assert not third.isspg_feasible
        assert third.mass_margin_kg is None
        empty = rows[-1]
        assert empty.winner is None
        assert not empty.isspg_feasible and not empty.esspg_feasible

    def test_requires_matching_sweeps(self, bin_results):
        with pytest.raises(ValueError, match="both architectures"):
            compare_architectures(
                {Architecture.ISSPG: bin_results[Architecture.ISSPG]})
        shifted = bin_results[Architecture.ESSPG][1:]
        with pytest.raises(ValueError, match="different bins"):
            compare_architectures({
                Architecture.ISSPG: bin_results[Architecture.ISSPG],
                Architecture.ESSPG: shifted})


# --- columnar window against the scalar rules ------------------------------

MODULE_CHOICES = [0.5, 0.6, 0.75, 0.8, 1.0, 1.1, 1.25, 1.5]


@st.composite
def motors(draw):
    outer = draw(st.floats(45.0, 75.0))
    return MotorSpec(outer_diameter_mm=outer,
                     stator_inner_diameter_mm=draw(st.floats(30.0,
                                                             outer - 5.0)),
                     height_mm=40.0, mass_kg=0.5, max_torque_nm=2.0,
                     max_speed_rad_s=300.0)


@st.composite
def constraint_sets(draw):
    min_teeth = draw(st.integers(12, 20))
    min_planets = draw(st.integers(2, 4))
    return ConstraintParams(
        module_min_mm=draw(st.sampled_from([0.5, 0.6, 0.8])),
        module_max_mm=draw(st.sampled_from([0.8, 1.0, 1.1, 1.2, 1.5])),
        min_teeth=min_teeth,
        max_teeth=draw(st.none() | st.integers(min_teeth, 80)),
        min_planets=min_planets,
        max_planets=draw(st.integers(min_planets, min_planets + 2)),
        planet_clearance_mm=draw(st.floats(0.5, 6.0)),
        ring_clearance_mm=draw(st.floats(0.0, 15.0)))


@st.composite
def fractional_bins(draw):
    """Two to three adjacent bins with edges k/q: many such edges are
    not exact in binary and round onto a design's float ratio."""
    q = draw(st.sampled_from([3, 6, 7, 10]))
    ks = draw(st.lists(st.integers(3 * q, 9 * q), min_size=3, max_size=4,
                       unique=True))
    edges = sorted(k / q for k in ks)
    return list(zip(edges, edges[1:]))


module_sets = st.lists(st.sampled_from(MODULE_CHOICES), min_size=1,
                       max_size=2, unique=True).map(sorted)


def scalar_tallies(motor, arch, constraints, modules, lo, hi):
    """The diagnosis window scanned one design at a time."""
    counts = {}
    for module_mm in sorted(modules):
        for num_planets in range(constraints.min_planets,
                                 constraints.max_planets + 1):
            for sun in range(constraints.min_teeth,
                             _DIAG_SUN_TEETH_CAP + 1):
                planet_lo = max(constraints.min_teeth,
                                ceil((lo - 2.0) * sun / 2.0))
                for planet in range(planet_lo,
                                    ceil((hi - 2.0) * sun / 2.0)):
                    design = GearboxDesign(
                        arch=arch, sun_teeth=sun, planet_teeth=planet,
                        ring_teeth=sun + 2 * planet, module_mm=module_mm,
                        num_planets=num_planets)
                    for name in constraint_failures(design, motor,
                                                    constraints):
                        counts[name] = counts.get(name, 0) + 1
    return counts


class TestRatioWindow:
    @settings(max_examples=60)
    @given(motor=motors(), constraints=constraint_sets(),
           arch=st.sampled_from(list(Architecture)),
           rows=st.lists(st.tuples(st.sampled_from(MODULE_CHOICES),
                                   st.integers(1, 9), st.integers(1, 120),
                                   st.integers(1, 120),
                                   st.none() | st.integers(1, 300)),
                         min_size=1, max_size=40))
    def test_masks_equal_scalar_rules(self, motor, constraints, arch, rows):
        # ring None: the concentric ring N_s + 2*N_p
        designs = [GearboxDesign(arch=arch, sun_teeth=sun,
                                 planet_teeth=planet,
                                 ring_teeth=(sun + 2 * planet
                                             if ring is None else ring),
                                 module_mm=module_mm, num_planets=planets)
                   for module_mm, planets, sun, planet, ring in rows]
        masks = constraint_masks(
            arch, np.array([d.module_mm for d in designs]),
            np.array([d.num_planets for d in designs]),
            np.array([d.sun_teeth for d in designs]),
            np.array([d.planet_teeth for d in designs]),
            np.array([d.ring_teeth for d in designs]), motor, constraints)
        for i, design in enumerate(designs):
            assert [name for name, mask in masks.items() if mask[i]] == \
                constraint_failures(design, motor, constraints)

    @settings(max_examples=25)
    @given(motor=motors(), constraints=constraint_sets(),
           arch=st.sampled_from(list(Architecture)), modules=module_sets,
           bins=fractional_bins())
    def test_bin_candidates_equal_naive_scan(self, motor, constraints, arch,
                                             modules, bins):
        naive = naive_rectangle(arch, constraints, modules, motor)
        for lo, hi in bins:
            assert bin_candidates(motor, arch, constraints, modules, lo,
                                  hi) == [d for d in naive
                                          if lo <= d.reduction_ratio < hi]

    @settings(max_examples=30)
    @given(motor=motors(), constraints=constraint_sets(),
           arch=st.sampled_from(list(Architecture)), modules=module_sets,
           bins=fractional_bins())
    def test_diagnosis_tallies_equal_scalar_scan(self, motor, constraints,
                                                 arch, modules, bins):
        for lo, hi in bins:
            counts = scalar_tallies(motor, arch, constraints, modules, lo,
                                    hi)
            assert failure_tallies(motor, arch, constraints, modules, lo,
                                   hi) == counts
            verdict = (max(sorted(counts), key=lambda name: counts[name])
                       if counts else "no_candidates_in_ratio_window")
            assert diagnose_empty_bin(motor, arch, constraints, modules,
                                      lo, hi) == verdict


# --- columnar scoring against scalar evaluate ------------------------------

@st.composite
def eval_contexts(draw, bearing):
    """Motors, loads and model parameters that reach every way
    ``evaluate`` can drop a design: rings under 34 teeth (tooth form),
    steep pressure angles with high friction (mesh efficiency <= 0),
    gears under 6 teeth (Lewis factor), gear bores in small gears,
    carrier disks inside a large sun-shaft bearing, bearing bores on
    both sides of the table, and casing walls past the motor radius."""
    outer = draw(st.floats(40.0, 170.0))
    motor = MotorSpec(outer_diameter_mm=outer,
                      stator_inner_diameter_mm=draw(st.floats(30.0,
                                                              outer - 5.0)),
                      height_mm=draw(st.floats(20.0, 80.0)),
                      mass_kg=draw(st.floats(0.2, 2.0)),
                      max_torque_nm=5.0, max_speed_rad_s=400.0)
    min_teeth = draw(st.integers(3, 20))
    min_planets = draw(st.integers(2, 4))
    constraints = ConstraintParams(
        min_teeth=min_teeth,
        max_teeth=draw(st.none() | st.integers(min_teeth, 60)),
        min_planets=min_planets,
        max_planets=draw(st.integers(min_planets, min_planets + 2)),
        planet_clearance_mm=draw(st.floats(0.5, 6.0)),
        ring_clearance_mm=draw(st.floats(0.0, 15.0)))
    alpha_deg = draw(st.floats(14.5, 30.0) | st.floats(60.0, 85.0))
    return EvalContext(
        motor=motor,
        load=LoadCase(sun_torque_nm=draw(st.floats(0.0, 30.0)),
                      sun_speed_rad_s=draw(st.floats(0.0, 1000.0))),
        constraints=constraints,
        efficiency=EfficiencyParams(mu=draw(st.floats(0.0, 0.9)),
                                    pressure_angle_rad=radians(alpha_deg)),
        strength=StrengthParams(fos=draw(st.floats(1.0, 3.0)),
                                min_face_width_mm=draw(st.floats(0.5,
                                                                 5.0))),
        materials=MaterialSpec(),
        mass_params=MassModelParams(
            planet_bearing_bore_mm=draw(st.sampled_from([10.0, 12.0, 8.0])),
            input_bearing_bore_mm=draw(st.sampled_from([15.0, 10.0, 25.0,
                                                        40.0, 65.0])),
            casing_wall_mm=draw(st.sampled_from([3.0, 3.0, 90.0])),
            fastener_offset=draw(st.booleans())),
        bearing=bearing,
        cost=CostWeights(k_m=draw(st.floats(0.0, 5.0)),
                         k_e=draw(st.floats(0.0, 5.0))))


class TestScoreColumns:
    @settings(max_examples=150)
    @given(data=st.data(), arch=st.sampled_from(list(Architecture)),
           module_mm=st.sampled_from([0.5, 0.8, 1.0, 1.2]),
           lo=st.integers(6, 24).map(lambda k: k / 2.0),
           width=st.sampled_from([0.5, 1.0]))
    def test_columns_equal_scalar_evaluate(self, bearing_model, data, arch,
                                           module_mm, lo, width):
        ctx = data.draw(eval_contexts(bearing_model))
        columns = _bin_columns(ctx.motor, arch, ctx.constraints,
                               [module_mm], lo, lo + width)
        scores = score_columns(arch, ctx, *columns)
        designs = bin_candidates(ctx.motor, arch, ctx.constraints,
                                 [module_mm], lo, lo + width)
        assert len(scores.feasible) == len(designs)
        for i, design in enumerate(designs):
            evaluation = evaluate(design, ctx)
            assert scores.feasible[i] == evaluation.feasible, \
                evaluation.failure_reasons
            if evaluation.feasible:
                assert scores.cost[i] == pytest.approx(
                    evaluation.cost, rel=1e-12, abs=1e-12)
                assert scores.mass_total[i] == pytest.approx(
                    evaluation.mass.total, rel=1e-12)
                assert scores.eta_overall[i] == pytest.approx(
                    evaluation.efficiency.eta_overall, rel=1e-12)

    def test_negative_lewis_factor_alone_drops_a_design(self, default_ctx):
        # a 5-tooth sun passes every other check; its negative Lewis
        # factor only clamps the columnar face width to the floor
        ctx = replace(default_ctx, constraints=ConstraintParams(min_teeth=5))
        design = GearboxDesign(arch=Architecture.ESSPG, sun_teeth=5,
                               planet_teeth=25, ring_teeth=55, module_mm=1.2,
                               num_planets=2)
        evaluation = evaluate(design, ctx)
        assert evaluation.failure_reasons[0].startswith(
            "model_error: non-positive Lewis form factor")
        scores = score_columns(Architecture.ESSPG, ctx, [1.2], [2], [5],
                               [25])
        assert not scores.feasible[0]

    def test_mesh_efficiency_near_zero_settled_by_evaluate(self,
                                                           default_ctx):
        # at an 80 deg pressure angle a 12/12 sun-planet mesh reaches
        # eta = 0 at mu ~ 0.46; step mu across that point one ulp at a
        # time so the columnar efficiency sits within rounding of 0
        design = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=12,
                               planet_teeth=12, ring_teeth=36,
                               module_mm=1.2, num_planets=3)
        alpha = radians(80.0)
        eps1, eps2 = contact_ratios(12, 12, 1.2, MeshKind.SUN_PLANET, alpha)
        mu = 1.0 / (pi * (1.0 / 12 + 1.0 / 12) * loss_parameter(eps1, eps2))
        mus = [mu]
        for _ in range(6):
            mus = [np.nextafter(mus[0], 0.0)] + mus + [np.nextafter(mus[-1],
                                                                 1.0)]
        verdicts = set()
        for mu_k in mus:
            ctx = replace(default_ctx,
                          constraints=ConstraintParams(min_teeth=12),
                          efficiency=EfficiencyParams(
                              mu=float(mu_k), pressure_angle_rad=alpha))
            scores = score_columns(Architecture.ISSPG, ctx, [1.2], [3],
                                   [12], [12])
            evaluation = evaluate(design, ctx)
            assert scores.feasible[0] == evaluation.feasible
            verdicts.add(evaluation.feasible)
        assert verdicts == {True, False}
