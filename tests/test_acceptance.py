"""End-to-end acceptance gate for the design-optimization toolkit.

Each test prints a single `criterion N: PASS/FAIL - ...` line before its
assertions so the verdicts are readable from the captured output. The
checks cross-validate the optimizer against naive nested-loop scans,
exercise exact frictionless limits, re-check every feasibility rule with
independent predicates, compare totals against known actuator builds,
and pin down determinism and numerical hygiene.
"""

import math
import random
import time

import numpy as np
import pytest

from gearboxopt import (Architecture, ConstraintParams, CostWeights,
                        EfficiencyParams, EvalContext, GearboxDesign,
                        LoadCase, MassModelParams, MaterialSpec,
                        StrengthParams, bearing_fit_report,
                        compare_architectures, constraint_failures,
                        default_bins, evaluate, overall_efficiency,
                        optimize_bins, ranking_key)
from gearboxopt.cli import load_config, run_sweep
from gearboxopt.efficiency import mesh_chain
from gearboxopt.search import enumerate_feasible, score_columns
from gearboxopt.strength import lewis_width

from conftest import U12, U12_LOAD

ALL_MODULES = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
BOTH_ARCHS = (Architecture.ISSPG, Architecture.ESSPG)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def full_bin_results(default_ctx):
    return {arch: optimize_bins(arch, default_ctx, ALL_MODULES,
                                default_bins())
            for arch in BOTH_ARCHS}


def test_criterion_1_oracle_equivalence(bearing_model):
    start = time.perf_counter()
    constraints = ConstraintParams(max_teeth=60, min_planets=2,
                                   max_planets=5)
    ctx = EvalContext(motor=U12, load=U12_LOAD, constraints=constraints,
                      efficiency=EfficiencyParams(),
                      strength=StrengthParams(), materials=MaterialSpec(),
                      mass_params=MassModelParams(), bearing=bearing_model,
                      cost=CostWeights())
    modules = [0.5, 1.0]
    bins = default_bins()
    mismatches = []
    for arch in BOTH_ARCHS:
        optimized = optimize_bins(arch, ctx, modules, bins)
        naive_best = [None] * len(bins)
        for module_mm in modules:
            for num_planets in range(2, 6):
                for sun in range(20, 61):
                    for planet in range(20, 61):
                        design = GearboxDesign(
                            arch=arch, sun_teeth=sun, planet_teeth=planet,
                            ring_teeth=sun + 2 * planet,
                            module_mm=module_mm, num_planets=num_planets)
                        if constraint_failures(design, U12, constraints):
                            continue
                        ratio = design.reduction_ratio
                        index = next((i for i, (lo, hi) in enumerate(bins)
                                      if lo <= ratio < hi), None)
                        if index is None:
                            continue
                        candidate = evaluate(design, ctx)
                        if not candidate.feasible:
                            continue
                        incumbent = naive_best[index]
                        if (incumbent is None or ranking_key(candidate)
                                < ranking_key(incumbent)):
                            naive_best[index] = candidate
        for result, naive in zip(optimized, naive_best):
            if (result.best is None) != (naive is None):
                mismatches.append((arch.value, result.lo, "presence"))
            elif result.best is not None and (
                    result.best.design != naive.design
                    or result.best.cost != naive.cost):
                mismatches.append((arch.value, result.lo,
                                   result.best.design, naive.design))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 10.0
    _report(1, ok, "per-bin winners equal the naive 5-loop filter-and-"
            f"argmin scan for both architectures on the capped space "
            f"(teeth <= 60, 2 modules, 2-5 planets) in {elapsed:.1f} s")
    assert mismatches == []
    assert elapsed < 10.0


def test_criterion_2_frictionless_limits(default_ctx):
    rng = random.Random(20260814)
    pool = [design for arch in BOTH_ARCHS
            for design in enumerate_feasible(U12, arch, ConstraintParams(),
                                             ALL_MODULES)]
    sample = rng.sample(pool, 1000)

    frictionless = EfficiencyParams(mu=0.0)
    exact_unity = all(
        mesh_chain(design.module_mm, design.sun_teeth, design.planet_teeth,
                   design.ring_teeth, frictionless)[1][-1] == 1.0
        for design in sample)
    blend_unity = all(
        overall_efficiency(design.sun_teeth, design.ring_teeth, 1.0, 1.0)
        == 1.0 for design in sample)
    # the sample's rows scored as each layout
    columns = [[getattr(design, name) for design in sample] for name in
               ("module_mm", "num_planets", "sun_teeth", "planet_teeth")]
    columns.append([ALL_MODULES.index(module_mm) for module_mm in columns[0]])
    arch_free = np.array_equal(
        score_columns(Architecture.ISSPG, default_ctx, *columns).eta_overall,
        score_columns(Architecture.ESSPG, default_ctx, *columns).eta_overall)
    ok = exact_unity and blend_unity and arch_free
    _report(2, ok, "mu=0 yields stage efficiency exactly 1.0 on 1000 "
            "random feasible designs; unity mesh efficiencies blend to "
            "exactly 1.0; scoring the sample as isspg and as esspg gives "
            "the same stage efficiency on every design")
    assert exact_unity
    assert blend_unity
    assert arch_free


def test_criterion_3_constraint_suite():
    constraints = ConstraintParams()

    def independent_ok(arch, sun, planet, ring, module_mm, planets):
        if ring != sun + 2 * planet:
            return False
        if (sun + ring) % planets != 0:
            return False
        gap = (2.0 * module_mm * (sun + planet)
               * math.sin(math.pi / planets) - 2.0 * module_mm * planet)
        if gap < constraints.planet_clearance_mm:
            return False
        if not (constraints.module_min_mm <= module_mm
                <= constraints.module_max_mm):
            return False
        if min(sun, planet) < constraints.min_teeth:
            return False
        envelope = (U12.outer_diameter_mm if arch is Architecture.ESSPG
                    else U12.stator_inner_diameter_mm) \
            - constraints.ring_clearance_mm
        if module_mm * ring > envelope:
            return False
        return constraints.min_planets <= planets <= constraints.max_planets

    total = 0
    agreement = True
    for arch in BOTH_ARCHS:
        enumerated = {(d.module_mm, d.num_planets, d.sun_teeth,
                       d.planet_teeth)
                      for d in enumerate_feasible(U12, arch, constraints,
                                                  ALL_MODULES)}
        total += len(enumerated)
        rechecked = set()
        envelope = (U12.outer_diameter_mm if arch is Architecture.ESSPG
                    else U12.stator_inner_diameter_mm) \
            - constraints.ring_clearance_mm
        for module_mm in ALL_MODULES:
            top = int(envelope / module_mm) + 1
            for planets in range(2, 8):
                for sun in range(20, top):
                    for planet in range(20, top):
                        if independent_ok(arch, sun, planet,
                                          sun + 2 * planet, module_mm,
                                          planets):
                            rechecked.add((module_mm, planets, sun, planet))
        if rechecked != enumerated:
            agreement = False
    _report(3, agreement, f"all {total} enumerated designs across both "
            "architectures satisfy independently re-implemented assembly, "
            "spacing, clearance, and bound predicates, and the independent "
            "full-rectangle scan finds exactly the same sets")
    assert agreement


def _center_distance_contact_ratio(teeth_1, teeth_2, module_mm, internal,
                                   alpha):
    """
    Total contact ratio of a zero-shift, full-depth involute mesh from
    the length of the line of action:

        S = (sqrt(ra1^2 - rb1^2) +/- sqrt(ra2^2 - rb2^2) -/+ a*sin(alpha))
            / (pi * m * cos(alpha))

    gear 1 external, gear 2 external (upper signs, a = m(N1+N2)/2) or
    an internal ring (lower signs, a = m(N2-N1)/2, tip radius m(N2-2)/2).
    """
    def flank(radius_tip, teeth):
        radius_base = module_mm * teeth * math.cos(alpha) / 2.0
        return math.sqrt(radius_tip ** 2 - radius_base ** 2)

    sgn = -1.0 if internal else 1.0
    along_1 = flank(module_mm * (teeth_1 + 2) / 2.0, teeth_1)
    along_2 = flank(module_mm * (teeth_2 + 2 * sgn) / 2.0, teeth_2)
    center = module_mm * (teeth_2 + sgn * teeth_1) / 2.0
    return ((along_1 + sgn * along_2 - sgn * center * math.sin(alpha))
            / (math.pi * module_mm * math.cos(alpha)))


def test_criterion_4_loss_parameter_bound(default_ctx):
    # The loss parameter of a mesh with approach and recess contact
    # ratios e1, e2 is
    #     eps = e1^2 + e2^2 - e1 - e2 + 1 = (e1-1/2)^2 + (e2-1/2)^2 + 1/2,
    # and e1 + e2 is the total contact ratio S of the mesh. For a fixed
    # S the two squares are smallest at e1 = e2 = S/2, so
    #     eps >= g(S) = S^2/2 - S + 1,
    # which rises with S for S >= 1. Every admitted mesh therefore has a
    # loss parameter of at least g(S_floor), where S_floor is the contact
    # ratio of the smallest mesh the constraints and bins admit. External
    # contact ratios grow with both tooth counts; the ratio is
    # R = 2 + 2*Np/Ns, so the lowest bin forces Np >= (lo - 2)*Ns/2 and
    # the undercutting rule forces Ns, Np >= min_teeth. The scan checks
    # S >= S_floor on every mesh, internal ones included. A 0.75 floor
    # would need S >= 1 + 1/sqrt(2) ~ 1.707, which no admitted
    # zero-shift 20 degree mesh reaches.
    alpha = math.radians(default_ctx.efficiency.pressure_angle_deg)
    bins = default_bins()
    min_teeth = ConstraintParams().min_teeth
    lowest_bin = min(lo for lo, _ in bins)
    floor_sun = min_teeth
    floor_planet = max(min_teeth, math.ceil((lowest_bin - 2.0) * floor_sun
                                            / 2.0))
    floor_ratio = _center_distance_contact_ratio(floor_sun, floor_planet,
                                                 1.0, False, alpha)
    floor = floor_ratio ** 2 / 2.0 - floor_ratio + 1.0

    lowest = None
    lowest_design = None
    smallest_ratio = math.inf
    worst_sum_error = 0.0
    evaluated = 0
    for arch in BOTH_ARCHS:
        for design in enumerate_feasible(U12, arch, ConstraintParams(),
                                         ALL_MODULES):
            ratio = design.reduction_ratio
            if not any(lo <= ratio < hi for lo, hi in bins):
                continue
            result = evaluate(design, default_ctx)
            if not result.feasible:
                continue
            evaluated += 1
            eff = result.efficiency
            meshes = (
                (eff.eps_a1, eff.eps_a2, _center_distance_contact_ratio(
                    design.sun_teeth, design.planet_teeth, design.module_mm,
                    False, alpha)),
                (eff.eps_b1, eff.eps_b2, _center_distance_contact_ratio(
                    design.planet_teeth, design.ring_teeth, design.module_mm,
                    True, alpha)))
            for eps1, eps2, total in meshes:
                worst_sum_error = max(worst_sum_error,
                                      abs(eps1 + eps2 - total))
                smallest_ratio = min(smallest_ratio, total)
            smallest = min(eff.eps_a, eff.eps_b)
            if lowest is None or smallest < lowest:
                lowest = smallest
                lowest_design = design
    if lowest is None:
        _report(4, False, "no sweep-evaluated designs to bound")
    assert lowest is not None
    sums_ok = worst_sum_error <= 1e-12
    ratios_ok = smallest_ratio >= max(1.0, floor_ratio - 1e-12)
    ok = sums_ok and ratios_ok and lowest >= floor
    _report(4, ok, f"approach plus recess contact ratio equals the center-"
            f"distance contact ratio to {worst_sum_error:.1e} on both "
            f"meshes of {evaluated} sweep-evaluated designs, smallest "
            f"{smallest_ratio:.4f} against the Ns={floor_sun}, "
            f"Np={floor_planet} floor {floor_ratio:.4f}; smallest mesh loss "
            f"parameter {lowest:.4f} (Ns={lowest_design.sun_teeth}, "
            f"Np={lowest_design.planet_teeth}, "
            f"Nr={lowest_design.ring_teeth}) against the derived bound "
            f"S^2/2 - S + 1 = {floor:.4f}")
    assert sums_ok
    assert ratios_ok
    assert lowest >= floor


def test_criterion_5_feasibility_cutoffs(full_bin_results):
    internal = full_bin_results[Architecture.ISSPG]
    external = full_bin_results[Architecture.ESSPG]
    internal_ok = (all(r.best is not None for r in internal[:2])
                   and all(r.best is None for r in internal[2:]))
    external_ok = (all(r.best is not None for r in external[:6])
                   and all(r.best is None for r in external[6:]))
    reasons_ok = all(r.empty_reason == "ring_diameter"
                     for r in internal[2:] + external[6:])
    ok = internal_ok and external_ok and reasons_ok
    _report(5, ok, "internal layout feasible up to ratio 7 and external up "
            "to ratio 11, every empty bin blocked by the ring-diameter "
            "envelope; sensitivity: the internal cutoff reaches bin [7,8) "
            "only if the usable stator bore exceeds 70 mm (65 mm here) and "
            "the external cutoff reaches [11,12) only if the motor OD "
            "exceeds 110 mm (105.6 mm here)")
    assert internal_ok
    assert external_ok
    assert reasons_ok


def test_criterion_6_mass_anchors(default_ctx):
    internal = evaluate(GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                                      planet_teeth=40, ring_teeth=100,
                                      module_mm=0.5, num_planets=3),
                        default_ctx)
    external = evaluate(GearboxDesign(arch=Architecture.ESSPG, sun_teeth=25,
                                      planet_teeth=65, ring_teeth=155,
                                      module_mm=0.5, num_planets=3),
                        default_ctx)
    assert internal.feasible and external.feasible
    internal_delta = internal.mass.total / 1.386 - 1.0
    external_delta = external.mass.total / 1.657 - 1.0
    ok = abs(internal_delta) <= 0.15 and abs(external_delta) <= 0.15
    _report(6, ok, f"6.0:1 internal actuator {internal.mass.total:.3f} kg "
            f"vs the 1.386 kg reference build ({internal_delta:+.1%}); "
            f"7.2:1 external actuator {external.mass.total:.3f} kg vs the "
            f"1.657 kg reference build ({external_delta:+.1%}); "
            "tolerance +/-15%")
    assert abs(internal_delta) <= 0.15
    assert abs(external_delta) <= 0.15


def test_criterion_7_architecture_ordering(full_bin_results):
    internal = full_bin_results[Architecture.ISSPG]
    external = full_bin_results[Architecture.ESSPG]
    margins = []
    for i in range(2):
        assert internal[i].best is not None and external[i].best is not None
        margins.append(external[i].best.mass.total
                       - internal[i].best.mass.total)
    rows = compare_architectures(full_bin_results)
    ok = all(m > 0 for m in margins) and all(
        row.winner is Architecture.ISSPG for row in rows[:2])
    _report(7, ok, "internal layout wins ratio bins [5,6) and [6,7) by "
            f"{margins[0] * 1000:.0f} g and {margins[1] * 1000:.0f} g of "
            "actuator mass at equal efficiency")
    assert margins[0] > 0 and margins[1] > 0
    assert ok


def test_criterion_8_determinism_and_runtime(u12_config_path, tmp_path):
    cfg = load_config(u12_config_path)
    start = time.perf_counter()
    run_sweep(cfg, out_dir=tmp_path / "a", workers=1)
    elapsed = time.perf_counter() - start
    run_sweep(cfg, out_dir=tmp_path / "b", workers=2)
    reports_a = sorted(p.name for p in (tmp_path / "a").glob("*.json"))
    reports_b = sorted(p.name for p in (tmp_path / "b").glob("*.json"))
    same_names = reports_a == reports_b and len(reports_a) >= 9
    identical = same_names and all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes() for name in reports_a)
    ok = identical and elapsed < 60.0
    _report(8, ok, f"all {len(reports_a)} JSON reports byte-identical "
            f"between 1-worker and 2-worker sweeps; full sweep took "
            f"{elapsed:.1f} s (bound 60 s)")
    assert identical
    assert elapsed < 60.0


def test_criterion_9_numerical_hygiene(bearing_model):
    rng = random.Random(19)
    designs = list(enumerate_feasible(U12, Architecture.ESSPG,
                                      ConstraintParams(), ALL_MODULES))
    params = StrengthParams()
    worst = 0.0
    for _ in range(20):
        design = rng.choice(designs)
        torque = rng.uniform(0.2, 12.0)
        speed = rng.uniform(0.0, 900.0)
        # independent hand evaluation in SI units
        module_m = design.module_mm / 1000.0
        radius_m = module_m * design.sun_teeth / 2.0
        force_n = torque / (design.num_planets * radius_m)
        velocity = speed * radius_m
        k_v = 3.0 / (3.0 + velocity)
        form = 0.154 - 0.912 / min(design.sun_teeth, design.planet_teeth)
        width_mm = 1000.0 * 2.0 * force_n / (138.0e6 * form * k_v
                                             * math.pi * module_m)
        expected = max(width_mm, 3.0)
        load = LoadCase(sun_torque_nm=torque, sun_speed_rad_s=speed)
        _, _, _, actual = lewis_width(design.module_mm, design.sun_teeth,
                                      design.planet_teeth,
                                      design.num_planets, load, params)
        worst = max(worst, abs(actual - expected) / expected)
    fit = bearing_fit_report(bearing_model)["mass_kg"]
    ok = worst <= 1e-9 and fit["r_squared"] >= 0.95
    _report(9, ok, f"face width matches a hand SI evaluation to "
            f"{worst:.2e} relative on 20 random load cases; bearing mass "
            f"regression R^2 = {fit['r_squared']:.4f} (bound 0.95)")
    assert worst <= 1e-9
    assert fit["r_squared"] >= 0.95
