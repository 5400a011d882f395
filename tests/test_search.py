"""Enumeration, scoring, per-bin optimization, and the architecture
comparison, cross-checked against naive nested-loop scans."""

import csv
from bisect import bisect_right
from dataclasses import fields, replace
from functools import lru_cache, reduce
from hashlib import sha256
from itertools import count
from math import inf, isfinite, nan, pi
from operator import or_
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gearboxopt import (Architecture, BinResult, ConstraintParams,
                        CostWeights, EfficiencyParams, EvalContext,
                        GearboxDesign, LoadCase, MassModelParams,
                        MaterialSpec, MotorSpec, StrengthParams,
                        compare_architectures, constraint_failures,
                        default_bins, evaluate, max_gearbox_diameter,
                        optimize_bins, ranking_key, validate_bins)
from gearboxopt import search
from gearboxopt.cli import build_context, load_config, run_sweep
from gearboxopt.efficiency import mesh_chain
from gearboxopt.geometry import _RULE_ORDER, constraint_rules
from gearboxopt.mass import (component_masses, load_bearing_model,
                              mass_verdicts)
from gearboxopt.search import (_MODEL_RULES, _bin_columns, _designs,
                               enumerate_feasible, score_columns,
                               validate_module_set)
from gearboxopt.strength import lewis_width

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
# no two planets fit: every u12 design fails planet_interference, so
# every bin is empty, and the bins the search window reaches read it
CLEARANCE_1E4 = ConstraintParams(planet_clearance_mm=1e4)


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


def rule_masks(arch, module_mm, num_planets, sun_teeth, planet_teeth,
               ring_teeth, motor, constraints):
    """The verdicts of ``constraint_rules`` by rule name, each broadcast
    to the shape of all the columns."""
    shape = np.broadcast_shapes(*(np.shape(column) for column in (
        module_mm, num_planets, sun_teeth, planet_teeth, ring_teeth)))
    verdicts = constraint_rules(arch, module_mm, num_planets, sun_teeth,
                                planet_teeth, ring_teeth, motor, constraints)
    return {name: np.broadcast_to(verdict, shape)
            for name, verdict in zip(_RULE_ORDER, verdicts)}


def bin_designs(motor, arch, constraints, modules, lo, hi):
    """The feasible designs of one bin [lo, hi): its ``_bin_columns``
    rows."""
    _, columns, _ = _bin_columns(motor, arch, constraints, sorted(modules),
                                 [(lo, hi)])
    return _designs(arch, columns)


def split_bins(row_bin, columns, closed):
    """``_bin_columns``' rows cut into one column tuple per bin, on its
    ascending bin column."""
    ends = np.cumsum(np.bincount(row_bin, minlength=len(closed)))[:-1]
    return list(zip(*(np.split(column, ends) for column in columns)))


def closed_form_verdict(motor, arch, constraints, modules, lo, hi):
    """None where a naive scan finds an (m, N_s, N_p) of an allowed
    module, each gear at min_teeth or more, with its ring inside the
    envelope and its ratio in [lo, hi); else an empty bin's closed-form
    reason: ring_diameter, or module_range when no module is allowed."""
    d_max = max_gearbox_diameter(motor, arch, constraints)
    allowed = [module_mm for module_mm in modules
               if constraints.module_min_mm <= module_mm
               <= constraints.module_max_mm]
    for module_mm in allowed:
        top = int(d_max / module_mm) + 1
        for sun in range(constraints.min_teeth, top):
            for planet in range(constraints.min_teeth, top):
                ring = sun + 2 * planet
                if module_mm * ring > d_max:
                    break
                if lo <= (sun + ring) / sun < hi:
                    return None
    return "ring_diameter" if allowed else "module_range"


def window_designs(motor, arch, constraints, modules, lo, hi):
    """The (planet count, row) cells of the search window in [lo, hi) by
    a nested loop: every planet count of every (m, N_s, N_p) of an
    allowed module, each gear at min_teeth or more, with its ring inside
    the envelope."""
    d_max = max_gearbox_diameter(motor, arch, constraints)
    designs = []
    for module_mm in modules:
        if not (constraints.module_min_mm <= module_mm
                <= constraints.module_max_mm):
            continue
        for sun in range(constraints.min_teeth, int(d_max / module_mm) + 1):
            for planet in count(constraints.min_teeth):
                ring = sun + 2 * planet
                if module_mm * ring > d_max or (sun + ring) / sun >= hi:
                    break
                if lo <= (sun + ring) / sun:
                    designs += [GearboxDesign(
                        arch=arch, sun_teeth=sun, planet_teeth=planet,
                        ring_teeth=ring, module_mm=module_mm,
                        num_planets=n)
                        for n in range(constraints.min_planets,
                                       constraints.max_planets + 1)]
    return designs


def naive_empty_reason(arch, ctx, modules, lo, hi):
    """None where scalar ``evaluate`` finds a feasible search-window cell
    in [lo, hi); else the bin's closed-form reason when it holds no
    window cell, or the last stage of ``_RULE_ORDER + _MODEL_RULES`` at
    which one of its window cells drops, each at ``evaluate``'s first
    reason."""
    reasons = [evaluate(design, ctx).failure_reasons
               for design in window_designs(ctx.motor, arch,
                                            ctx.constraints, modules, lo, hi)]
    if not reasons:
        return closed_form_verdict(ctx.motor, arch, ctx.constraints,
                                   modules, lo, hi)
    if not all(reasons):
        return None
    return max((dropped[0] for dropped in reasons),
               key=(_RULE_ORDER + _MODEL_RULES).index)


def mask_gather_bin_columns(motor, arch, constraints, module_set, bins):
    """``_bin_columns`` as it was written before its index gather: the
    kept (planet count, row) cells of ``_search_window`` taken by five
    boolean-mask gathers of the broadcast grid, then a stable argsort on
    an int64 (bin, module) key."""
    modules, module_index, sun, planet, ring, row_bin, planet_counts, _ = (
        search._search_window(motor, arch, constraints, module_set, bins))
    failed = reduce(or_, constraint_rules(
        arch, modules[module_index], planet_counts, sun, planet, ring, motor,
        constraints))
    keep = ~failed & (row_bin >= 0)
    row_bin, module_index, planets, sun, planet = (
        np.broadcast_to(column, keep.shape)[keep]
        for column in (row_bin, module_index, planet_counts, sun, planet))
    order = np.argsort(row_bin * len(modules) + module_index, kind="stable")
    return row_bin[order], tuple(column[order] for column in (
        modules[module_index], planets, sun, planet, module_index))


def scalar_bins(arch, ctx, modules, bins):
    """optimize_bins as a plain loop of scalar evaluate calls over
    every bin candidate."""
    results = []
    for lo, hi in bins:
        candidates = bin_designs(ctx.motor, arch, ctx.constraints,
                                 modules, lo, hi)
        feasible = [evaluation for evaluation
                    in (evaluate(design, ctx) for design in candidates)
                    if evaluation.feasible]
        best = min(feasible, key=ranking_key, default=None)
        reason = None if best is not None else naive_empty_reason(
            arch, ctx, modules, lo, hi)
        results.append(BinResult(
            lo=lo, hi=hi, best=best,
            candidates_examined=len(candidates),
            feasible_count=len(feasible), empty_reason=reason))
    return results


def naive_examined(motor, arch, constraints, modules, bins):
    """Each bin's count of designs that fail no constraint: a scalar
    ``constraint_failures`` scan of every planet count of every
    (m, N_s, N_p) whose ratio lies in the bin and whose ring fits the
    envelope (a larger ring fails ring_diameter)."""
    d_max = max_gearbox_diameter(motor, arch, constraints)
    los = [lo for lo, _ in bins]
    counts = [0] * len(bins)
    for module_mm in modules:
        top = int(d_max / module_mm) + 1
        for sun in range(constraints.min_teeth, top):
            for planet in range(constraints.min_teeth, top):
                ring = sun + 2 * planet
                if module_mm * ring > d_max:
                    break
                i = bisect_right(los, (sun + ring) / sun) - 1
                if i < 0 or (sun + ring) / sun >= bins[i][1]:
                    continue
                counts[i] += sum(
                    not constraint_failures(GearboxDesign(
                        arch=arch, sun_teeth=sun, planet_teeth=planet,
                        ring_teeth=ring, module_mm=module_mm,
                        num_planets=n), motor, constraints)
                    for n in range(constraints.min_planets,
                                   constraints.max_planets + 1))
    return counts


@pytest.fixture(scope="module")
def bin_results(default_ctx):
    return {arch: optimize_bins(arch, default_ctx, ALL_MODULES,
                                default_bins())
            for arch in (Architecture.ISSPG, Architecture.ESSPG)}


class TestHelpers:
    def test_cost_weights_validation(self):
        CostWeights(k_m=0.0, k_e=0.0)
        with pytest.raises(ValueError):
            CostWeights(k_m=-1.0)

    def test_worker_count_validated(self, u12_config_path, tmp_path):
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
        # R = 2 + 2*N_p/N_s > 2: no design lies below an upper edge of 2
        with pytest.raises(ValueError, match=r"\[1.0, 2.0\) holds no design: "
                           r"every reduction 2 \+ 2\*N_p/N_s is above 2"):
            validate_bins([(1.0, 2.0)])
        assert validate_bins([(1.0, 2.5)]) == [(1.0, 2.5)]

    @pytest.mark.parametrize("bin_", [(14.0, inf), (-inf, 6.0),
                                      (nan, 6.0)])
    def test_non_finite_bin_edges_rejected(self, default_ctx, bin_):
        # an infinite edge would size the search window's planet ranges
        # as inf before the int64 cast; the sweep refuses it before the
        # window is built
        with pytest.raises(ValueError):
            validate_bins([bin_])
        with mock.patch.object(search, "_search_window") as window:
            with pytest.raises(ValueError, match="non-finite"):
                optimize_bins(Architecture.ISSPG, default_ctx, [0.5],
                              [bin_])
        window.assert_not_called()

    @pytest.mark.parametrize("modules", [
        [], [0.5, 0.6, 0.5], [0.5, nan], [0.0, 0.5], [0.5, inf],
        [-0.5, 0.5], [0.5, -inf]])
    @pytest.mark.parametrize("entry", ["optimize_bins",
                                       "validate_module_set",
                                       "enumerate_feasible"])
    def test_module_set_validated(self, default_ctx, entry, modules):
        # a repeated module would count its designs twice; a
        # module that is not finite and > 0 cannot size a window
        calls = {
            "optimize_bins": lambda: optimize_bins(
                Architecture.ISSPG, default_ctx, modules, default_bins()),
            "validate_module_set": lambda: validate_module_set(modules),
            "enumerate_feasible": lambda: list(enumerate_feasible(
                U12, Architecture.ISSPG, ConstraintParams(), modules))}
        with pytest.raises(ValueError, match="module"):
            calls[entry]()

    @pytest.mark.parametrize("tiny", [1e-6, 1e-300])
    def test_module_below_range_adds_no_window_rows(self, default_ctx,
                                                     tiny):
        # no row of a module outside [module_min_mm, module_max_mm] can
        # pass module_range, and its window would hold d_max/m suns
        constraints = ConstraintParams()
        for lo, hi in ((5.0, 6.0), (-inf, inf)):
            assert (bin_designs(U12, Architecture.ISSPG, constraints,
                                [tiny, 0.5], lo, hi)
                    == bin_designs(U12, Architecture.ISSPG, constraints,
                                   [0.5], lo, hi))
        assert bin_designs(U12, Architecture.ESSPG, constraints,
                           [tiny, 2.0], 5.0, 6.0) == []
        # no module of the set is allowed: named in closed form
        results = optimize_bins(Architecture.ISSPG, default_ctx, [tiny],
                                [(5.0, 6.0)])
        assert results[0].best is None
        assert results[0].empty_reason == "module_range"

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
        # the unbounded window, and each bin of the merged window that a
        # sweep partitions by bin
        windows = [list(enumerate_feasible(U12, Architecture.ISSPG,
                                           ConstraintParams(), ALL_MODULES))]
        bins = default_bins()
        for arch in Architecture:
            row_bin, columns, closed = _bin_columns(
                U12, arch, ConstraintParams(), ALL_MODULES, bins)
            assert np.all(np.diff(row_bin) >= 0)
            windows += [_designs(arch, columns_of_bin) for columns_of_bin
                        in split_bins(row_bin, columns, closed)]
        for designs in windows:
            keys = [(d.module_mm, d.num_planets, d.sun_teeth,
                     d.planet_teeth) for d in designs]
            assert keys == sorted(keys)
            assert len(keys) == len(set(keys))

    @pytest.mark.parametrize("motor, bins, key_type", [
        (U12, default_bins(), np.uint8),
        (SCALE_MOTOR, default_bins(), np.uint8),
        # 40 quarter-width bins x 8 modules: keys up to 319
        (SCALE_MOTOR, [(5 + i / 4, 5 + (i + 1) / 4) for i in range(40)],
         np.uint16),
    ], ids=["u12", "scale", "wide-key"])
    def test_index_gather_equals_mask_gather(self, motor, bins, key_type):
        assert np.min_scalar_type(len(bins) * len(ALL_MODULES)) == key_type
        top_keys = []
        for arch in Architecture:
            row_bin, columns, _ = _bin_columns(
                motor, arch, ConstraintParams(), ALL_MODULES, bins)
            ref_bin, ref_columns = mask_gather_bin_columns(
                motor, arch, ConstraintParams(), ALL_MODULES, bins)
            assert len(row_bin) > 0
            top_keys.append(row_bin[-1] * len(ALL_MODULES)
                            + ALL_MODULES.index(columns[0][-1]))
            assert len(columns) == len(ref_columns)
            for column, reference in zip((row_bin, *columns),
                                         (ref_bin, *ref_columns)):
                assert column.dtype == reference.dtype
                assert np.array_equal(column, reference)
        # the largest key does not fit the next narrower type
        assert max(top_keys) > np.iinfo(key_type).max // 256

    def test_unbounded_window_equals_wide_finite_bin(self):
        # enumerate_feasible's (-inf, inf) window skips validate_bins;
        # every design's ratio 2 + 2*N_p/N_s lies in [2, 1000) here
        for arch in Architecture:
            assert list(enumerate_feasible(
                U12, arch, ConstraintParams(), ALL_MODULES)) == \
                bin_designs(U12, arch, ConstraintParams(), ALL_MODULES,
                            2.0, 1000.0)

    @pytest.mark.parametrize("arch, count, digest", [
        (Architecture.ISSPG, 2270, "d697d838e792a9e8823ca324bfbfeb7e"
                                   "5b2846c86283695c15c5f2144b997a59"),
        (Architecture.ESSPG, 23207, "e6e67ab492528e00fac852d13ea28998"
                                    "4dcfd6af87df5f4230dde158a108a440")])
    def test_u12_sequence_pinned(self, u12_config_path, arch, count,
                                 digest):
        # bench/make_reference.py draws the point-eval pool from this
        # sequence with rng.sample, so its order is part of the pool
        cfg = load_config(u12_config_path)
        keys = [(d.module_mm, d.num_planets, d.sun_teeth, d.planet_teeth)
                for d in enumerate_feasible(cfg.motor, arch, cfg.constraints,
                                            cfg.module_set)]
        assert len(keys) == count
        assert sha256(repr(keys).encode()).hexdigest() == digest

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
        assert result.design.reduction_ratio == pytest.approx(
            6.0, rel=1e-15)
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
        self._assert_unscored(evaluate(tiny, relaxed), "tooth_form")

    def test_integer_module_scores_as_its_float(self, default_ctx):
        # the scalar path takes a module as given, int or float
        design = GearboxDesign(arch=Architecture.ESSPG, sun_teeth=20,
                               planet_teeth=20, ring_teeth=60, module_mm=1,
                               num_planets=4)
        result = evaluate(design, default_ctx)
        assert result.feasible
        assert result == evaluate(replace(design, module_mm=1.0),
                                  default_ctx)

    @staticmethod
    def _assert_unscored(result, rule):
        assert not result.feasible
        assert result.failure_reasons == (rule,)
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
                              "efficiency_range")

    def test_bearing_table_range_reported(self, default_ctx):
        # passes every rule, but its output bearing bore m(N_s+N_p) is
        # 60.5 mm, above the 60 mm top of the packaged bearing table
        wide = GearboxDesign(arch=Architecture.ESSPG, sun_teeth=100,
                             planet_teeth=21, ring_teeth=142, module_mm=0.5,
                             num_planets=2)
        assert constraint_failures(wide, default_ctx.motor,
                                   default_ctx.constraints) == []
        self._assert_unscored(evaluate(wide, default_ctx),
                              "output_bearing_range")

    def test_lewis_denominator_underflow_reported(self, default_ctx):
        # K_v stays > 0 at this speed, but sigma*y*K_v*P underflows to 0
        ctx = replace(default_ctx,
                      load=LoadCase(sun_torque_nm=3.0, sun_speed_rad_s=1e300),
                      strength=StrengthParams(
                          allowable_bending_stress_pa=1e-300))
        self._assert_unscored(evaluate(REFERENCE, ctx), "lewis_range")
        sound, *_ = lewis_width(0.5, 20, 40, 3, ctx.load, ctx.strength)
        assert sound is False
        scores = score_columns(REFERENCE.arch, ctx, [0.5], [3], [20], [40],
                               [0])
        assert not scores.feasible[0]

    @pytest.mark.parametrize("changes, rule", [
        # fastener offset off: the 15 mm shaft bore fills the 10 mm sun
        (dict(fastener_offset=False), "gear_bore"),
        (dict(input_bearing_bore_mm=70.0), "input_bearing_range"),
        # a 40 mm shaft bearing (54 mm OD) inside the 40.5 mm carrier disk
        (dict(input_bearing_bore_mm=40.0), "carrier_clearance"),
        (dict(planet_bearing_bore_mm=5.0), "planet_bearing_range"),
        (dict(casing_wall_mm=60.0), "casing_wall"),
        # bores the fitted power laws cannot raise to their exponent, and
        # a ring whose outer diameter cannot be squared
        (dict(input_bearing_bore_mm=1e300), "input_bearing_range"),
        (dict(planet_bearing_bore_mm=1e300), "planet_bearing_range"),
        (dict(ring_radial_thickness_coeff=1e300), "mass_range"),
    ])
    def test_mass_rule_reported(self, default_ctx, changes, rule):
        ctx = replace(default_ctx, mass_params=MassModelParams(**changes))
        for arch in Architecture:
            self._assert_unscored(evaluate(replace(REFERENCE, arch=arch), ctx),
                                  rule)
            # the columns drop the design too, without raising
            scores = score_columns(arch, ctx, [0.5], [3], [20], [40], [0])
            assert not scores.feasible[0]

    def test_point_eval_pool_exact(self, u12_config_path):
        # every design of the benchmark's point-eval pool, scored with
        # the u12 config: the feasible flag and the stored full-repr
        # cost, total mass and efficiency must come back to the last bit
        cfg = load_config(u12_config_path)
        ctx = build_context(cfg, load_bearing_model(cfg.bearing_table_path))
        pool = Path(__file__).resolve().parents[1] / "bench" / "data" / \
            "point_eval_pool.csv"
        with open(pool, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 10_000
        for row in rows:
            design = GearboxDesign(
                arch=Architecture(row["arch"]),
                sun_teeth=int(row["sun_teeth"]),
                planet_teeth=int(row["planet_teeth"]),
                ring_teeth=int(row["ring_teeth"]),
                module_mm=float(row["module_mm"]),
                num_planets=int(row["num_planets"]))
            result = evaluate(design, ctx)
            assert result.feasible == (row["feasible"] == "1"), row
            if result.feasible:
                assert (result.cost, result.mass.total,
                        result.efficiency.eta_overall) == (
                    float(row["cost"]), float(row["mass_kg"]),
                    float(row["eta"])), row

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
                    assert result.lo <= result.best.design.reduction_ratio \
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

    def test_counts_are_python_ints(self, bin_results):
        # a numpy integer here would break json.dumps of sweep.json
        for results in bin_results.values():
            for result in results:
                assert type(result.candidates_examined) is int
                assert type(result.feasible_count) is int

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

    @pytest.mark.parametrize("changes, rule", [
        (dict(planet_bearing_bore_mm=1e300), "planet_bearing_range"),
        (dict(casing_wall_mm=1e300), "casing_wall")])
    def test_context_mass_rule_drops_every_row(self, default_ctx, changes,
                                               rule):
        # a planet pin or a casing annulus whose diameter cannot be
        # squared: the sweep completes without a winner and scores no
        # cell, and scalar evaluate names the rule for the bins'
        # candidates. Each bin with a candidate reads the rule, the last
        # stage at which its cells drop.
        ctx = replace(default_ctx, mass_params=MassModelParams(**changes))
        modules = [0.5, 0.8]
        for arch in Architecture:
            expected = fully_scored_bins(arch, ctx, modules, default_bins())
            with mock.patch.object(search, "score_columns") as scored:
                results = optimize_bins(arch, ctx, modules, default_bins())
            assert scored.call_count == 0
            assert results == expected
            assert all(r.best is None and r.feasible_count == 0
                       for r in results)
            assert any(r.candidates_examined for r in results)
            for r in results:
                reasons = {evaluate(design, ctx).failure_reasons
                           for design in bin_designs(
                               ctx.motor, arch, ctx.constraints, modules,
                               r.lo, r.hi)}
                assert not r.candidates_examined or (rule,) in reasons
                assert r.empty_reason == (rule if r.candidates_examined
                                          else "ring_diameter")

    @pytest.mark.parametrize("motor, changes", [
        (U12, {}), (SCALE_MOTOR, {}),
        (U12, dict(planet_bearing_bore_mm=1e300))],
        ids=["u12", "scale", "planet-bore-1e300"])
    def test_examined_counts_equal_naive_scan(self, default_ctx, motor,
                                              changes):
        # the mass rules drop whole rows before the cells are gathered,
        # and every bin still counts each constraint-feasible cell; at a
        # 1e300 mm planet bore they drop every row
        ctx = replace(default_ctx, motor=motor,
                      mass_params=MassModelParams(**changes))
        for arch in Architecture:
            results = optimize_bins(arch, ctx, ALL_MODULES, default_bins())
            assert [r.candidates_examined for r in results] == \
                naive_examined(motor, arch, ctx.constraints, ALL_MODULES,
                               default_bins())
            assert any(r.candidates_examined for r in results)
            assert not changes or not any(r.feasible_count
                                          for r in results)


# each case's changes to the default context, and the bins (arch, lower
# edge) that the search window reaches and the models or rules empty,
# by their empty reason; every other empty bin reads ring_diameter
U12_REACHED = ["isspg 5", "isspg 6"] + [f"esspg {lo}" for lo in range(5, 11)]
EMPTY_REASON_CASES = {
    "u12": ({}, {}),
    "scale": (dict(motor=SCALE_MOTOR),
              {"output_bearing_range": ["esspg 13", "esspg 14"]}),
    # only the efficiency model reads the pressure angle: at 10 degrees
    # every ring of u12 isspg [5,7) lies inside its base circle
    "u12-10deg": (dict(efficiency=EfficiencyParams(pressure_angle_deg=10.0)),
                  {"tooth_form": ["isspg 5", "isspg 6"]}),
    # isspg's cells fail both, and tooth_form is checked first
    "u12-10deg-bore-1e300": (dict(
        efficiency=EfficiencyParams(pressure_angle_deg=10.0),
        mass_params=MassModelParams(planet_bearing_bore_mm=1e300)),
        {"tooth_form": ["isspg 5", "isspg 6"],
         "planet_bearing_range": U12_REACHED[2:]}),
    "u12-bore-1e300": (dict(mass_params=MassModelParams(
        planet_bearing_bore_mm=1e300)), {"planet_bearing_range": U12_REACHED}),
    "u12-casing-1e300": (dict(mass_params=MassModelParams(
        casing_wall_mm=1e300)), {"casing_wall": U12_REACHED}),
    # mu = 0.9 leaves every 20 degree mesh above zero efficiency
    "u12-mu-0.9-85deg": (dict(efficiency=EfficiencyParams(
        mu=0.9, pressure_angle_deg=85.0)),
        {"efficiency_range": U12_REACHED}),
    "u12-clearance-1e4": (dict(constraints=CLEARANCE_1E4),
                          {"planet_interference": U12_REACHED}),
}


class TestEmptyReason:
    @pytest.mark.parametrize("case", list(EMPTY_REASON_CASES))
    def test_empty_reasons_equal_naive_scan(self, default_ctx, case):
        changes, reached = EMPTY_REASON_CASES[case]
        ctx = replace(default_ctx, **changes)
        named = {}
        for arch in Architecture:
            results = optimize_bins(arch, ctx, ALL_MODULES, default_bins())
            assert [r.empty_reason for r in results] == [
                naive_empty_reason(arch, ctx, ALL_MODULES, r.lo, r.hi)
                for r in results]
            named |= {f"{arch.value} {r.lo:g}": r.empty_reason
                      for r in results
                      if r.empty_reason not in (None, "ring_diameter")}
        assert named == {bin_: reason for reason, bins in reached.items()
                         for bin_ in bins}

    def test_bin_without_an_integer_ratio_is_closed_form(self, default_ctx):
        # no (N_s, N_p) has a ratio in [5.001, 5.002) inside the envelope
        result, = optimize_bins(Architecture.ISSPG, default_ctx,
                                ALL_MODULES, [(5.001, 5.002)])
        assert result.candidates_examined == 0
        assert result.empty_reason == "ring_diameter"

    def test_full_planet_interference_outside_the_envelope(self,
                                                           default_ctx):
        # every cell of u12 isspg [7,8) fails planet_interference, but the
        # search window holds no row of the bin, so the sweep names the
        # ring envelope without a funnel
        ctx = replace(default_ctx, constraints=CLEARANCE_1E4)
        with mock.patch.object(search, "_empty_reasons") as funnel:
            result, = optimize_bins(Architecture.ISSPG, ctx, ALL_MODULES,
                                    [(7.0, 8.0)])
        funnel.assert_not_called()
        assert result.empty_reason == "ring_diameter"

    def test_closed_form_reads_the_allowed_modules(self, default_ctx):
        # u12 isspg [7,8) holds no envelope cell. With 0.1 to 0.3 mm
        # outside [0.5, 1.2] mm, the sweep names the ring envelope, which
        # every design of the allowed 0.5 mm fails. With no module
        # allowed, every design fails module_range.
        modules = [0.1, 0.2, 0.3, 0.5]
        for module_set, verdict in ((modules, "ring_diameter"),
                                    (modules[:3], "module_range")):
            result, = optimize_bins(Architecture.ISSPG, default_ctx,
                                    module_set, [(7.0, 8.0)])
            assert result.empty_reason == verdict

    def test_envelope_edge_is_exact(self, default_ctx):
        # d_max/m lies within 1e-9 below 100 teeth: the 100-tooth ring of
        # 20/40 at 0.6 mm, the one design of [5.95, 6.01) that could fit,
        # fails ring_diameter, so the bin holds no window row and is
        # named in closed form
        motor = replace(U12, stator_inner_diameter_mm=70.0 - 1e-12)
        assert 99 < max_gearbox_diameter(motor, Architecture.ISSPG,
                                         CLEARANCE_1E4) / 0.6 < 100
        assert constraint_failures(replace(REFERENCE, module_mm=0.6), motor,
                                   CLEARANCE_1E4) == [
            "planet_interference", "ring_diameter"]
        ctx = replace(default_ctx, motor=motor, constraints=CLEARANCE_1E4)
        result, = optimize_bins(Architecture.ISSPG, ctx, [0.6],
                                [(5.95, 6.01)])
        assert result.empty_reason == "ring_diameter"

    @pytest.mark.parametrize("arch, filled", [(Architecture.ISSPG, 2),
                                              (Architecture.ESSPG, 6)])
    def test_u12_call_counts(self, default_ctx, monkeypatch, arch, filled):
        # one search window per architecture, checked by one rules call
        # and scored in one pass; every empty bin lies outside the ring
        # envelope and is named in closed form, and bins without rows
        # are not scored
        calls = dict.fromkeys(("score_columns", "_search_window",
                               "constraint_rules"), 0)
        scored_rows = []

        def counted(name):
            original = getattr(search, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "score_columns":
                    scored_rows.append(len(args[4]))
                return original(*args, **kwargs)
            monkeypatch.setattr(search, name, wrapper)
        for name in calls:
            counted(name)
        results = optimize_bins(arch, default_ctx, ALL_MODULES,
                                default_bins())
        assert sum(r.candidates_examined > 0 for r in results) == filled
        assert calls == {"score_columns": 1, "_search_window": 1,
                         "constraint_rules": 1}
        assert scored_rows == [sum(r.candidates_examined for r in results)]
        empty = [(r.lo, r.hi) for r in results if not r.candidates_examined]
        optimize_bins(arch, default_ctx, ALL_MODULES, empty)
        assert calls["score_columns"] == 1


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

    def test_esspg_wins_a_bin_both_layouts_fill(self, default_ctx):
        # at k_e = 100 efficiency outweighs mass: esspg's more efficient,
        # heavier [5,6) winner beats isspg's, which keeps [6,7)
        ctx = replace(default_ctx, cost=CostWeights(k_e=100.0))
        rows = compare_architectures({
            arch: optimize_bins(arch, ctx, ALL_MODULES, default_bins()[:2])
            for arch in (Architecture.ISSPG, Architecture.ESSPG)})
        first, second = rows
        assert first.winner is Architecture.ESSPG
        assert first.isspg_feasible and first.esspg_feasible
        assert first.mass_margin_kg == pytest.approx(-0.18345, abs=1e-5)
        assert first.efficiency_margin == pytest.approx(0.0019353, abs=1e-7)
        assert second.winner is Architecture.ISSPG
        assert second.mass_margin_kg > 0 > second.efficiency_margin

    @pytest.mark.parametrize("k_e, bin_index, winner", [
        (94.7, 0, Architecture.ISSPG), (94.9, 0, Architecture.ESSPG),
        (104.3, 1, Architecture.ISSPG), (104.5, 1, Architecture.ESSPG)])
    def test_efficiency_weight_flips_the_bin(self, default_ctx, k_e,
                                             bin_index, winner):
        ctx = replace(default_ctx, cost=CostWeights(k_e=k_e))
        bins = default_bins()[bin_index:bin_index + 1]
        row, = compare_architectures({
            arch: optimize_bins(arch, ctx, ALL_MODULES, bins)
            for arch in (Architecture.ISSPG, Architecture.ESSPG)})
        assert row.winner is winner

    def test_isspg_only_bin(self, bin_results):
        isspg = bin_results[Architecture.ISSPG][:1]
        esspg = [replace(bin_results[Architecture.ESSPG][0], best=None,
                         feasible_count=0, empty_reason="ring_diameter")]
        row, = compare_architectures({Architecture.ISSPG: isspg,
                                      Architecture.ESSPG: esspg})
        assert row.winner is Architecture.ISSPG
        assert row.isspg_feasible and not row.esspg_feasible
        assert row.mass_margin_kg is None and row.efficiency_margin is None

    def test_exact_key_tie_goes_to_isspg(self, bin_results):
        isspg = bin_results[Architecture.ISSPG][:1]
        best = isspg[0].best
        twin = replace(best, design=replace(best.design,
                                            arch=Architecture.ESSPG))
        assert ranking_key(twin) == ranking_key(best)
        esspg = [replace(bin_results[Architecture.ESSPG][0], best=twin)]
        for order in ((Architecture.ISSPG, Architecture.ESSPG),
                      (Architecture.ESSPG, Architecture.ISSPG)):
            results = {Architecture.ISSPG: isspg, Architecture.ESSPG: esspg}
            row, = compare_architectures({arch: results[arch]
                                          for arch in order})
            assert row.winner is Architecture.ISSPG
            assert row.mass_margin_kg == 0.0
            assert row.efficiency_margin == 0.0

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


@st.composite
def gapped_bins(draw, top=9, max_edges=6):
    """One to max_edges - 1 bins with edges k/q in [3, top], some of them
    adjacent and some apart: a sweep's bins need not tile the ratio
    axis."""
    q = draw(st.sampled_from([3, 6, 7, 10]))
    ks = draw(st.lists(st.integers(3 * q, top * q), min_size=2,
                       max_size=max_edges, unique=True))
    edges = sorted(k / q for k in ks)
    bins = list(zip(edges, edges[1:]))
    keep = draw(st.lists(st.booleans(), min_size=len(bins),
                         max_size=len(bins)))
    return [b for b, kept in zip(bins, keep) if kept] or bins[:1]


module_sets = st.lists(st.sampled_from(MODULE_CHOICES), min_size=1,
                       max_size=2, unique=True).map(sorted)


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
        masks = rule_masks(
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
    def test_bin_designs_equal_naive_scan(self, motor, constraints, arch,
                                          modules, bins):
        naive = naive_rectangle(arch, constraints, modules, motor)
        for lo, hi in bins:
            assert bin_designs(motor, arch, constraints, modules, lo,
                               hi) == [d for d in naive
                                       if lo <= d.reduction_ratio < hi]

    @settings(max_examples=60)
    @given(motor=motors(), constraints=constraint_sets(),
           arch=st.sampled_from(list(Architecture)),
           module_mm=st.sampled_from(MODULE_CHOICES),
           planet_counts=st.lists(st.integers(1, 9), min_size=1,
                                  max_size=4),
           rows=st.lists(st.tuples(st.integers(1, 120), st.integers(1, 120),
                                   st.none() | st.integers(1, 300)),
                         min_size=1, max_size=40))
    def test_planet_count_axis_equals_flat_call(self, motor, constraints,
                                                arch, module_mm,
                                                planet_counts, rows):
        # ring None: the concentric ring N_s + 2*N_p
        sun = np.array([row[0] for row in rows])
        planet = np.array([row[1] for row in rows])
        ring = np.array([s + 2 * p if r is None else r
                         for s, p, r in rows])
        k = len(planet_counts)
        grid = rule_masks(arch, module_mm, np.array(planet_counts)[:, None],
                          sun, planet, ring, motor, constraints)
        flat = rule_masks(arch, module_mm,
                          np.repeat(planet_counts, len(rows)),
                          np.tile(sun, k), np.tile(planet, k),
                          np.tile(ring, k), motor, constraints)
        assert list(grid) == list(flat)
        for name, mask in flat.items():
            assert grid[name].shape == (k, len(rows))
            assert np.array_equal(grid[name].ravel(), mask), name

    @settings(max_examples=25)
    @given(motor=motors(), constraints=constraint_sets(),
           arch=st.sampled_from(list(Architecture)), modules=module_sets,
           bins=gapped_bins())
    def test_optimize_bins_counts_and_verdicts_equal_scalar_scans(
            self, bearing_model, motor, constraints, arch, modules, bins):
        ctx = EvalContext(motor=motor,
                          load=LoadCase(sun_torque_nm=2.0,
                                        sun_speed_rad_s=300.0),
                          constraints=constraints,
                          efficiency=EfficiencyParams(),
                          strength=StrengthParams(),
                          materials=MaterialSpec(),
                          mass_params=MassModelParams(),
                          bearing=bearing_model, cost=CostWeights())
        naive = naive_rectangle(arch, constraints, modules, motor)
        results = optimize_bins(arch, ctx, modules, bins)
        assert [(r.lo, r.hi) for r in results] == bins
        # the merged passes themselves, over every bin at once: each
        # bin's rows in lexicographic order, its closed-form reason, set
        # exactly where the naive scan finds no envelope cell, and its
        # empty reason
        row_bin, columns, closed = _bin_columns(motor, arch, constraints,
                                                modules, bins)
        merged = zip(results, split_bins(row_bin, columns, closed), closed)
        for result, columns, reason in merged:
            in_bin = [d for d in naive
                      if result.lo <= d.reduction_ratio < result.hi]
            assert _designs(arch, columns) == in_bin
            assert result.candidates_examined == len(in_bin)
            assert reason == closed_form_verdict(
                motor, arch, constraints, modules, result.lo, result.hi)
            if result.best is None:
                assert result.empty_reason == naive_empty_reason(
                    arch, ctx, modules, result.lo, result.hi)


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
                                    pressure_angle_deg=alpha_deg),
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
        columns, = split_bins(*_bin_columns(ctx.motor, arch,
                                            ctx.constraints, [module_mm],
                                            [(lo, lo + width)]))
        scores = score_columns(arch, ctx, *columns)
        designs = bin_designs(ctx.motor, arch, ctx.constraints,
                              [module_mm], lo, lo + width)
        assert len(scores.feasible) == len(designs)
        for i, design in enumerate(designs):
            evaluation = evaluate(design, ctx)
            assert scores.feasible[i] == evaluation.feasible, \
                evaluation.failure_reasons
            # a candidate passes every constraint, so a dropped one names
            # exactly one model rule
            assert evaluation.feasible or (
                len(evaluation.failure_reasons) == 1
                and evaluation.failure_reasons[0] in _MODEL_RULES)
            # the shared model code keeps np.float64 out of the records
            numbers = [evaluation.design.reduction_ratio]
            if evaluation.feasible:
                numbers += [evaluation.face_width_mm, evaluation.cost,
                            *evaluation.efficiency, *evaluation.mass]
            assert {type(x) for x in numbers} == {float}
            if evaluation.feasible:
                assert scores.cost[i] == evaluation.cost
                assert scores.mass_total[i] == evaluation.mass.total
                assert scores.eta_overall[i] == \
                    evaluation.efficiency.eta_overall

    def test_negative_lewis_factor_alone_drops_a_design(self, default_ctx):
        # a 5-tooth sun passes every other check; its negative Lewis
        # factor only clamps the columnar face width to the floor
        ctx = replace(default_ctx, constraints=ConstraintParams(min_teeth=5))
        design = GearboxDesign(arch=Architecture.ESSPG, sun_teeth=5,
                               planet_teeth=25, ring_teeth=55, module_mm=1.2,
                               num_planets=2)
        evaluation = evaluate(design, ctx)
        assert evaluation.failure_reasons == ("lewis_range",)
        scores = score_columns(Architecture.ESSPG, ctx, [1.2], [2], [5],
                               [25], [0])
        assert not scores.feasible[0]


class TestMassVerdicts:
    @settings(max_examples=150)
    @given(data=st.data(), arch=st.sampled_from(list(Architecture)),
           module_mm=st.sampled_from([0.5, 0.8, 1.0, 1.2]),
           lo=st.integers(6, 24).map(lambda k: k / 2.0))
    def test_columns_equal_scalar_component_masses(self, bearing_model,
                                                   data, arch, module_mm,
                                                   lo):
        # the verdicts read no face width: a nan width leaves them as
        # they are. Every cell they drop is infeasible under evaluate.
        ctx = data.draw(eval_contexts(bearing_model))
        columns, = split_bins(*_bin_columns(ctx.motor, arch,
                                            ctx.constraints, [module_mm],
                                            [(lo, lo + 1.0)]))
        m, _, s, p, _ = (np.asarray(column) for column in columns)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            admitted, verdicts, _ = mass_verdicts(
                m, s, p, s + 2 * p, ctx.mass_params, ctx.mass_terms)
        verdicts = [np.broadcast_to(verdict, m.shape).tolist()
                    for verdict in verdicts]
        for i, design in enumerate(_designs(arch, columns)):
            sound, scalar, _, _ = component_masses(
                arch, design.module_mm, design.num_planets,
                design.sun_teeth, design.planet_teeth, design.ring_teeth,
                nan, ctx.motor, ctx.bearing, ctx.materials, ctx.mass_params,
                ctx.mass_terms)
            assert [verdict[i] for verdict in verdicts] == list(scalar)
            assert admitted[i] == sound
            assert admitted[i] or not evaluate(design, ctx).feasible


def assert_columns_equal_evaluate(arch, ctx, columns):
    """``score_columns`` over (module_mm, n_p, N_s, N_p, module index)
    columns equals scalar ``evaluate`` on every row with ``==``: the
    feasibility, and the cost, total mass and stage efficiency of each
    feasible row. Returns the evaluations."""
    columns = tuple(np.asarray(column) for column in columns)
    scores = score_columns(arch, ctx, *columns)
    evaluations = [evaluate(design, ctx)
                   for design in _designs(arch, columns)]
    assert len(scores.feasible) == len(evaluations)
    for i, evaluation in enumerate(evaluations):
        assert scores.feasible[i] == evaluation.feasible, evaluation
        if evaluation.feasible:
            assert scores.cost[i] == evaluation.cost, evaluation
            assert scores.mass_total[i] == evaluation.mass.total, evaluation
            assert (scores.eta_overall[i]
                    == evaluation.efficiency.eta_overall), evaluation
    return evaluations


@st.composite
def window_contexts(draw, bearing):
    """Sweep contexts whose windows hold many feasible rows: the motor's
    outer diameter and stator bore, the friction coefficient, the tooth
    floor and the planet range are drawn, every other input is the
    default."""
    outer = draw(st.floats(50.0, 130.0))
    motor = replace(U12, outer_diameter_mm=outer,
                    stator_inner_diameter_mm=draw(st.floats(30.0,
                                                            outer - 5.0)))
    min_planets = draw(st.integers(2, 5))
    constraints = ConstraintParams(
        min_teeth=draw(st.integers(4, 24)), min_planets=min_planets,
        max_planets=draw(st.integers(min_planets, min_planets + 3)))
    return EvalContext(
        motor=motor, load=LoadCase(sun_torque_nm=3.0, sun_speed_rad_s=418.9),
        constraints=constraints,
        efficiency=EfficiencyParams(mu=draw(st.floats(0.0, 0.3))),
        strength=StrengthParams(), materials=MaterialSpec(),
        mass_params=MassModelParams(), bearing=bearing, cost=CostWeights())


class TestBitExactColumns:
    # several modules in one window: a tip angle or an output bearing
    # keyed on the tooth count alone would mix two modules' values
    @settings(max_examples=60)
    @given(data=st.data(), arch=st.sampled_from(list(Architecture)),
           modules=st.lists(st.sampled_from(MODULE_CHOICES), min_size=1,
                            max_size=4, unique=True).map(sorted),
           bins=gapped_bins(top=15, max_edges=8))
    def test_window_columns_equal_evaluate(self, bearing_model, data, arch,
                                           modules, bins):
        ctx = data.draw(window_contexts(bearing_model))
        _, columns, _ = _bin_columns(ctx.motor, arch, ctx.constraints,
                                     modules, bins)
        assert_columns_equal_evaluate(arch, ctx, columns)

    def test_empty_window(self, default_ctx):
        # no module of the set lies in the allowed range
        _, columns, closed = _bin_columns(
            default_ctx.motor, Architecture.ISSPG, default_ctx.constraints,
            [1.5], default_bins())
        assert closed == ["module_range"] * len(default_bins())
        assert len(columns[0]) == 0
        scores = score_columns(Architecture.ISSPG, default_ctx, *columns)
        assert all(len(column) == 0 for column in scores)
        assert assert_columns_equal_evaluate(Architecture.ISSPG, default_ctx,
                                             ([], [], [], [], [])) == []

    def test_one_row(self, default_ctx):
        evaluation, = assert_columns_equal_evaluate(
            REFERENCE.arch, default_ctx, ([0.5], [3], [20], [40], [0]))
        assert evaluation.feasible
        assert evaluation.cost == REFERENCE_COST

    def test_unsound_tooth_form_rows(self, default_ctx):
        # rings of 29 to 33 teeth have their base circle outside the tip
        # circle at 20 deg: the tip angle's argument lies past acos's
        # domain, the columns take nan there, and tooth_form drops the
        # row; the sound rows around them share the columns and tables
        ctx = replace(default_ctx, constraints=ConstraintParams(min_teeth=3))
        suns = [3, 5, 7, 9, 20, 25]
        planets = [13, 13, 13, 12, 40, 40]
        evaluations = assert_columns_equal_evaluate(
            Architecture.ESSPG, ctx,
            ([1.2] * 4 + [0.5] * 2, [2] * 6, suns, planets, [1] * 4 + [0] * 2))
        reasons = [e.failure_reasons for e in evaluations]
        assert reasons[:4] == [("tooth_form",)] * 4
        assert any(e.feasible for e in evaluations)

    def test_mesh_efficiency_near_zero(self, default_ctx):
        # at an 80 deg pressure angle a 12/12 sun-planet mesh reaches
        # eta = 0 at mu ~ 0.46; stepping mu across that point one ulp at
        # a time puts the mesh efficiency within rounding of 0, where one
        # differing bit would flip the verdict
        alpha = 80.0
        eps_a = mesh_chain(1.2, 12, 12, 36, EfficiencyParams(
            pressure_angle_deg=alpha))[1][4]
        mu = 1.0 / (pi * (1.0 / 12 + 1.0 / 12) * eps_a)
        mus = [mu]
        for _ in range(6):
            mus = [np.nextafter(mus[0], 0.0)] + mus + [np.nextafter(mus[-1],
                                                                 1.0)]
        verdicts = set()
        for mu_k in mus:
            ctx = replace(default_ctx,
                          constraints=ConstraintParams(min_teeth=12),
                          efficiency=EfficiencyParams(
                              mu=float(mu_k), pressure_angle_deg=alpha))
            evaluation, = assert_columns_equal_evaluate(
                Architecture.ISSPG, ctx, ([1.2], [3], [12], [12], [0]))
            verdicts.add(evaluation.feasible)
        assert verdicts == {True, False}


def fully_scored_bins(arch, ctx, modules, bins):
    """``optimize_bins`` with every window cell sent to ``score_columns``,
    none dropped by ``mass_verdicts`` first."""
    def admit_all(module_mm, *rest):
        _, verdicts, dimensions = mass_verdicts(module_mm, *rest)
        return np.ones(np.shape(module_mm), dtype=bool), verdicts, dimensions
    with mock.patch.object(search, "mass_verdicts", admit_all):
        return optimize_bins(arch, ctx, modules, bins)


def per_bin_search(arch, ctx, modules, bins):
    """(best, candidates_examined, feasible_count) of each bin, scoring
    each bin's rows alone with ``score_columns`` and ranking its
    cheapest rows with ``evaluate``."""
    cells = []
    for lo, hi in bins:
        _, columns, _ = _bin_columns(ctx.motor, arch, ctx.constraints,
                                     modules, [(lo, hi)])
        best, feasible_count = None, 0
        if len(columns[0]):
            scores = score_columns(arch, ctx, *columns)
            feasible_count = int(np.count_nonzero(scores.feasible))
        if feasible_count:
            cost_min = scores.cost[scores.feasible].min()
            shortlist = scores.feasible & (scores.cost == cost_min)
            best = min((search.evaluate(design, ctx)
                        for design in _designs(arch, columns, shortlist)),
                       key=ranking_key)
        cells.append((best, len(columns[0]), feasible_count))
    return cells


class TestOnePassSearch:
    # the deterministic draws hold bins without rows, bins whose rows
    # are all dropped, and several feasible bins with different
    # cheapest costs in one sweep, where a cheapest cost taken from the
    # wrong bin drops a winner or ranks extra rows
    @settings(max_examples=120)
    @given(data=st.data(), arch=st.sampled_from(list(Architecture)),
           modules=module_sets, bins=gapped_bins(top=15, max_edges=12),
           sound=st.booleans())
    def test_optimize_bins_equals_per_bin_scoring(self, bearing_model, data,
                                                  arch, modules, bins,
                                                  sound):
        ctx = data.draw(eval_contexts(bearing_model))
        if sound:
            # default mesh and mass parameters leave more bins feasible
            ctx = replace(ctx, efficiency=EfficiencyParams(),
                          mass_params=MassModelParams())
        with mock.patch.object(search, "evaluate",
                               wraps=search.evaluate) as ranked:
            results = optimize_bins(arch, ctx, modules, bins)
            one_pass_calls = ranked.call_count
            ranked.reset_mock()
            reference = per_bin_search(arch, ctx, modules, bins)
            assert ranked.call_count == one_pass_calls
        assert [(r.best, r.candidates_examined, r.feasible_count)
                for r in results] == reference

    def test_scale_scores_only_the_admitted_cells(self, default_ctx,
                                                  monkeypatch):
        # 9,149 of the 12,370 esspg window cells of the benchmark's scale
        # motor put the output bearing's bore past the bearing table;
        # they count as examined and infeasible, and only the other
        # 3,221 cells are scored. The mass rules read no planet count and
        # decide each of the window's 8,317 rows once.
        ctx = replace(default_ctx, motor=SCALE_MOTOR)
        args = (Architecture.ESSPG, ctx, ALL_MODULES, default_bins())
        reference = per_bin_search(*args)
        expected = fully_scored_bins(*args)
        scored, decided = [], []
        original, verdicts = search.score_columns, search.mass_verdicts

        def recorded(arch, ctx, module_mm, *rest):
            scored.append(len(module_mm))
            return original(arch, ctx, module_mm, *rest)

        def decide(module_mm, *rest):
            decided.append(len(module_mm))
            return verdicts(module_mm, *rest)
        monkeypatch.setattr(search, "score_columns", recorded)
        monkeypatch.setattr(search, "mass_verdicts", decide)
        results = optimize_bins(*args)
        assert scored == [3221]
        assert decided == [8317]
        assert sum(r.candidates_examined for r in results) == 12370
        assert [(r.best, r.candidates_examined, r.feasible_count)
                for r in results] == reference
        assert results == expected


# --- every accepted input is scored or named --------------------------------

@lru_cache(maxsize=None)
def _extreme_record_strategy(base):
    """The strategy of ``extreme_records``, built once per base record:
    Hypothesis validates and labels a strategy on its first draw, which
    cost more than the draws themselves when it was built anew on each
    one."""
    names = [spec.name for spec in fields(base) if spec.type is float]

    def build(values):
        try:
            return replace(base, **dict(zip(names, values)))
        except ValueError:
            return None

    extreme = st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e)
    return (st.tuples(*[st.just(getattr(base, name)) | extreme
                        for name in names])
            .map(build).filter(lambda record: record is not None))


@st.composite
def extreme_records(draw, base):
    """``base`` with each float field either left at its value or drawn
    log-uniform over [1e-300, 1e300]; a draw the record's own checks
    reject is discarded. Fields left at their values let a draw pass the
    early rules and reach the later ones."""
    return draw(_extreme_record_strategy(base))


class TestExtremeInputs:
    # the draws change with the literal constants of the loaded modules;
    # TestEvaluate::test_lewis_denominator_underflow_reported and the
    # 1e300 cases of TestEvaluate::test_mass_rule_reported pin the
    # Lewis underflow and the overflowing bearing bore and ring diameter
    @settings(max_examples=300)
    @given(data=st.data())
    def test_scored_finite_or_named(self, default_ctx, data):
        ctx = replace(default_ctx, **{
            name: data.draw(extreme_records(getattr(default_ctx, name)))
            for name in ("motor", "load", "strength", "materials",
                         "mass_params", "cost")})
        rules = set(_RULE_ORDER) | set(_MODEL_RULES)
        for arch in Architecture:
            # the reference design's columns never raise
            scores = score_columns(arch, ctx, [REFERENCE.module_mm],
                                   [REFERENCE.num_planets],
                                   [REFERENCE.sun_teeth],
                                   [REFERENCE.planet_teeth], [0])
            result = evaluate(replace(REFERENCE, arch=arch), ctx)
            # the columns score designs that pass every constraint
            if set(result.failure_reasons) <= set(_MODEL_RULES):
                assert scores.feasible[0] == result.feasible, result
            if result.feasible:
                numbers = [result.face_width_mm, result.cost,
                           *result.efficiency, *result.mass]
                assert all(isfinite(x) for x in numbers), result
            else:
                assert result.failure_reasons, result
                assert set(result.failure_reasons) <= rules, result


class TestWindowBound:
    """Each oversized input is refused by name before a window array is
    built, instead of allocating without limit."""

    def refused(self, arch, ctx, modules, bins, what):
        bound = f"{search._WINDOW_BOUND:,}"
        with pytest.raises(ValueError, match=rf"the {arch.value} candidate "
                           rf"window needs .* {what}, more than the bound "
                           rf"of {bound}"):
            optimize_bins(arch, ctx, modules, bins)

    def test_tiny_module(self, default_ctx):
        # d_max/m = 5.5e7 suns on the u12 stator bore
        ctx = replace(default_ctx,
                      constraints=ConstraintParams(module_min_mm=1e-6))
        self.refused(Architecture.ISSPG, ctx, [1e-6], default_bins(), "suns")

    def test_huge_motor(self, default_ctx):
        # about 2e9 suns per module inside a 1e9 mm motor
        motor = replace(U12, outer_diameter_mm=1e9)
        self.refused(Architecture.ESSPG, replace(default_ctx, motor=motor),
                     ALL_MODULES, default_bins(), "suns")
        # d_max/m overflows to inf suns: refused without a warning
        ctx = replace(default_ctx,
                      motor=replace(U12, outer_diameter_mm=1e150),
                      constraints=ConstraintParams(module_min_mm=1e-300))
        self.refused(Architecture.ESSPG, ctx, [1e-300], default_bins(),
                     "suns")

    def test_huge_bin(self, default_ctx):
        # the search window holds no row of the bin, so the bin lies
        # outside the ring envelope and is named without a funnel
        with mock.patch.object(search, "_empty_reasons") as funnel:
            result, = optimize_bins(Architecture.ISSPG, default_ctx,
                                    ALL_MODULES, [(20.0, 1e12)])
        funnel.assert_not_called()
        assert result.empty_reason == "ring_diameter"

    def test_wide_bin_reached_by_the_window(self, default_ctx):
        # a 1e300 mm planet-bearing bore drops the 104 candidates of
        # [5, 300) at 0.5 mm and the 125 over the eight modules; the bin
        # is named from its window cells, which the window bound covers
        ctx = replace(default_ctx, mass_params=MassModelParams(
            planet_bearing_bore_mm=1e300))
        for modules, examined in (([0.5], 104), (ALL_MODULES, 125)):
            result, = optimize_bins(Architecture.ISSPG, ctx, modules,
                                    [(5.0, 300.0)])
            assert (result.candidates_examined,
                    result.feasible_count) == (examined, 0)
            assert result.empty_reason == "planet_bearing_range" == \
                naive_empty_reason(Architecture.ISSPG, ctx, modules, 5.0,
                                   300.0)

    def test_huge_planet_count_range(self, default_ctx):
        ctx = replace(default_ctx,
                      constraints=ConstraintParams(max_planets=10**9))
        self.refused(Architecture.ISSPG, ctx, ALL_MODULES, default_bins(),
                     r"\(planet count, row\) cells")

    def test_bound_admits_the_largest_window_with_margin(self,
                                                         monkeypatch):
        # the largest window built today: the scale motor's unbounded
        # esspg window, which the candidates log enumerates
        counts = {}

        def recorded(arch, count, what):
            counts[what] = count
            return bounded(arch, count, what)
        bounded = search._bounded
        monkeypatch.setattr(search, "_bounded", recorded)
        designs = list(enumerate_feasible(SCALE_MOTOR, Architecture.ESSPG,
                                          ConstraintParams(), ALL_MODULES))
        assert len(designs) == 91_704
        assert counts == {"suns": 1_056,
                          "(planet count, row) cells": 41_776 * 6}
        assert search._WINDOW_BOUND >= 10 * max(counts.values())
