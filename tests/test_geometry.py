"""Gear circle diameters, design-vector ratios, and feasibility
predicates, checked against hand-computed values."""

from dataclasses import fields, replace
from math import cos, inf, isfinite, isnan, nan, pi, radians, sin

import numpy as np
import pytest

from gearboxopt import (Architecture, ConstraintParams, CostWeights,
                        EfficiencyParams, EvalContext, GearboxDesign,
                        LoadCase, MassModelParams, MaterialSpec, MotorSpec,
                        STANDARD_MODULE_SET_MM, StrengthParams,
                        constraint_failures, evaluate,
                        interference_margin_mm, max_gearbox_diameter)
from gearboxopt.efficiency import mesh_chain
from gearboxopt.geometry import _RULE_ORDER, constraint_rules
from gearboxopt.search import score_columns

ALPHA = radians(20.0)


def design(arch, ns, npl, nr, m, k):
    return GearboxDesign(arch=arch, sun_teeth=ns, planet_teeth=npl,
                         ring_teeth=nr, module_mm=m, num_planets=k)


REFERENCE = design(Architecture.ISSPG, 20, 40, 100, 0.5, 3)


def circles(sun, planet, ring, module_mm):
    """``mesh_chain``'s (pitch, base, tip) diameters of each gear at a
    20 deg pressure angle."""
    return mesh_chain(module_mm, sun, planet, ring, EfficiencyParams())[2]


def margin(d):
    return interference_margin_mm(d.module_mm, d.sun_teeth, d.planet_teeth,
                                  d.num_planets)

# one valid instance of every input record of ``EvalContext``
VALID_INPUTS = (
    MotorSpec(outer_diameter_mm=105.6, stator_inner_diameter_mm=65.0,
              height_mm=46.5, mass_kg=0.765, max_torque_nm=3.0,
              max_speed_rad_s=418.9),
    LoadCase(sun_torque_nm=3.0, sun_speed_rad_s=418.9), CostWeights(),
    StrengthParams(), MaterialSpec(), MassModelParams(), ConstraintParams(),
    EfficiencyParams())
FLOAT_FIELDS = [(record, spec.name) for record in VALID_INPUTS
                for spec in fields(record) if spec.type is float]


class TestDiameters:
    def test_standard_module_set(self):
        assert STANDARD_MODULE_SET_MM == [0.5, 0.6, 0.7, 0.8, 0.9, 1.0,
                                          1.1, 1.2]
        assert STANDARD_MODULE_SET_MM == sorted(STANDARD_MODULE_SET_MM)

    def test_pitch_diameter(self):
        assert [pitch for pitch, _, _ in circles(20, 40, 100, 0.5)] == [
            10.0, 20.0, 50.0]
        assert circles(33, 20, 73, 1.2)[0][0] == pytest.approx(39.6)

    def test_base_diameter(self):
        (_, base, _), _, _ = circles(20, 40, 100, 0.5)
        assert base == pytest.approx(10.0 * cos(ALPHA), rel=1e-15)
        # cos(20 deg) = 0.9396926207859084
        assert base == pytest.approx(9.396926207859084, rel=1e-12)

    def test_tip_diameter_signs(self):
        assert [tip for _, _, tip in circles(20, 40, 100, 0.5)] == \
            pytest.approx([11.0, 21.0, 49.0])

    def test_degenerate_ring_tip_fails_tooth_form(self):
        # a ring tip circle m*N - 2m <= 0 fails the tooth-form verdict,
        # and nothing is drawn
        for m, ring in ((0.5, 2), (1.0, 1)):
            assert mesh_chain(m, 20, 40, ring, EfficiencyParams()) == (
                False, None, None)


class TestDesignVector:
    def test_ratios(self):
        assert REFERENCE.reduction_ratio == pytest.approx(6.0, rel=1e-15)
        assert REFERENCE.gear_ratio == pytest.approx(1.0 / 6.0, rel=1e-15)
        d = design(Architecture.ESSPG, 25, 65, 155, 0.5, 3)
        assert d.reduction_ratio == pytest.approx(7.2, rel=1e-15)

    def test_validation(self):
        # no design has a pitch circle that is not positive
        with pytest.raises(ValueError, match="tooth counts"):
            design(Architecture.ISSPG, 0, 40, 100, 0.5, 3)
        for module_mm in (-0.5, 0.0, nan, inf):
            with pytest.raises(ValueError, match="module_mm"):
                design(Architecture.ISSPG, 20, 40, 100, module_mm, 3)
        with pytest.raises(ValueError):
            design(Architecture.ISSPG, 20, 40, 100, 0.5, 0)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            REFERENCE.sun_teeth = 21


class TestPredicates:
    def test_geometric(self, u12):
        params = ConstraintParams()
        assert "geometric" not in constraint_failures(REFERENCE, u12, params)
        assert "geometric" in constraint_failures(
            design(Architecture.ISSPG, 20, 40, 99, 0.5, 3), u12, params)

    def test_meshing(self, u12):
        # (20 + 100) divisible by 3 but not by 7
        params = ConstraintParams(max_planets=7)
        assert "meshing" not in constraint_failures(REFERENCE, u12, params)
        assert "meshing" in constraint_failures(
            design(Architecture.ISSPG, 20, 40, 100, 0.5, 7), u12, params)

    def test_interference_margin_value(self):
        # 2*0.5*(20+40)*sin(pi/3) - 2*0.5*40 = 60*sin(60 deg) - 40
        expected = 60.0 * sin(pi / 3.0) - 40.0
        assert margin(REFERENCE) == pytest.approx(
            expected, rel=1e-15)
        assert margin(REFERENCE) == pytest.approx(
            11.961524227066318, rel=1e-12)
        # numpy columns give the same float
        columns = interference_margin_mm(np.array([0.5, 0.5]),
                                         np.array([20, 20]),
                                         np.array([40, 40]), np.array([3, 7]))
        assert columns.tolist() == [margin(REFERENCE), margin(
            design(Architecture.ISSPG, 20, 40, 100, 0.5, 7))]

    def test_interference_threshold(self, u12):
        params = ConstraintParams()
        assert "planet_interference" not in constraint_failures(
            REFERENCE, u12, params)
        # crowding 7 planets between the same gears leaves a negative gap
        crowded = design(Architecture.ISSPG, 20, 40, 100, 0.5, 7)
        assert margin(crowded) < 0
        assert "planet_interference" in constraint_failures(crowded, u12,
                                                            params)

    def test_interference_needs_two_planets(self, u12):
        # a lone planet's margin is negative, but it has no neighbour:
        # planet_count names it, planet_interference does not
        single = design(Architecture.ISSPG, 20, 40, 100, 0.5, 1)
        assert margin(single) < 0
        failures = constraint_failures(single, u12, ConstraintParams())
        assert "planet_interference" not in failures
        assert "planet_count" in failures

    @pytest.mark.parametrize("module_mm", [1e307, 1e308])
    def test_nan_margin_fails_the_clearance(self, u12, module_mm):
        # 2m(N_s+N_p) and 2mN_p both overflow, so the margin is
        # inf - inf = nan, which must not pass the clearance
        huge = replace(REFERENCE, module_mm=module_mm)
        assert isnan(margin(huge))
        assert constraint_failures(huge, u12, ConstraintParams()) == [
            "planet_interference", "module_range", "ring_diameter"]


class TestFiniteInputs:
    def test_every_float_field_is_covered(self):
        # 6 motor, 2 load, 2 cost, 3 strength, 2 material, 7 mass,
        # 4 constraint and 2 efficiency fields
        assert len(FLOAT_FIELDS) == 28

    @pytest.mark.parametrize("value", [nan, inf, -inf])
    @pytest.mark.parametrize("record, name", FLOAT_FIELDS, ids=[
        f"{type(record).__name__}.{name}" for record, name in FLOAT_FIELDS])
    def test_non_finite_value_rejected(self, record, name, value):
        # nan passes every ordered range check; before, a nan motor
        # height or sun torque scored as feasible with a nan cost
        with pytest.raises(ValueError, match=name):
            replace(record, **{name: value})

    def test_motor_outer_diameter_must_square(self, default_ctx):
        motor = default_ctx.motor
        # the casing and base plate square the OD; 1e155**2 overflows
        with pytest.raises(ValueError, match="outer_diameter_mm"):
            replace(motor, outer_diameter_mm=1e155)

        def scored(motor):
            ctx = EvalContext.with_defaults(motor, default_ctx.load)
            columns = score_columns(REFERENCE.arch, ctx, [0.5], [3], [20],
                                    [40], [0])
            return evaluate(REFERENCE, ctx), bool(columns.feasible[0])

        evaluation, columnar = scored(replace(motor,
                                              outer_diameter_mm=1e150))
        assert evaluation.feasible and isfinite(evaluation.cost)
        assert columnar
        # finite inputs whose casing or base plate mass overflows to inf
        for huge in (replace(motor, height_mm=1e306),
                     replace(motor, outer_diameter_mm=1.3e154)):
            evaluation, columnar = scored(huge)
            assert not evaluation.feasible and not columnar
            assert evaluation.failure_reasons == ("mass_range",)


class TestEnvelope:
    def test_max_gearbox_diameter(self, u12):
        params = ConstraintParams()
        assert max_gearbox_diameter(u12, Architecture.ISSPG,
                                    params) == pytest.approx(55.0)
        assert max_gearbox_diameter(u12, Architecture.ESSPG,
                                    params) == pytest.approx(95.6)

    def test_max_gearbox_diameter_degenerate(self, u12):
        # a bound <= 0 is returned, not refused: every ring fails it
        params = ConstraintParams(ring_clearance_mm=70.0)
        assert max_gearbox_diameter(u12, Architecture.ISSPG,
                                    params) == pytest.approx(-5.0)
        assert constraint_failures(REFERENCE, u12, params) == [
            "ring_diameter"]
        # the outer envelope still leaves room
        assert max_gearbox_diameter(u12, Architecture.ESSPG,
                                    params) == pytest.approx(35.6)

    def test_bound_rules(self, u12):
        params = ConstraintParams()
        assert constraint_failures(REFERENCE, u12, params) == []
        # ring pitch diameter 60 mm exceeds the 55 mm stator allowance
        big = design(Architecture.ISSPG, 20, 50, 120, 0.5, 3)
        assert constraint_failures(big, u12, params) == ["meshing",
                                                         "ring_diameter"]
        # the same train fits the external envelope
        assert constraint_failures(
            design(Architecture.ESSPG, 20, 50, 120, 0.5, 3), u12,
            params) == ["meshing"]

    def test_max_teeth_cap(self, u12):
        capped = ConstraintParams(max_teeth=60)
        tall = design(Architecture.ESSPG, 20, 70, 160, 0.5, 3)
        assert constraint_failures(tall, u12, ConstraintParams()) == []
        assert constraint_failures(tall, u12, capped) == ["tooth_count_cap"]
        with pytest.raises(ValueError):
            ConstraintParams(max_teeth=10)  # below the undercutting floor


class TestConstraintFailures:
    def test_feasible_design_has_no_failures(self, u12):
        assert constraint_failures(REFERENCE, u12, ConstraintParams()) == []

    def test_all_failures_reported_together(self, u12):
        broken = design(Architecture.ESSPG, 19, 40, 98, 1.3, 8)
        assert constraint_failures(broken, u12, ConstraintParams()) == [
            "geometric", "meshing", "planet_interference", "module_range",
            "undercutting", "ring_diameter", "planet_count"]

    def test_one_planet_is_a_planet_count_failure(self, u12):
        # a lone planet has no neighbour to interfere with
        single = design(Architecture.ISSPG, 20, 40, 100, 0.5, 1)
        assert constraint_failures(single, u12,
                                   ConstraintParams()) == ["planet_count"]

    def test_single_failure_named(self, u12):
        # 132 teeth split over 3 planets, ample clearance: only the
        # 56 mm ring exceeds the 55 mm stator-bore envelope
        big = design(Architecture.ISSPG, 20, 46, 112, 0.5, 3)
        assert constraint_failures(big, u12,
                                   ConstraintParams()) == ["ring_diameter"]

    def test_rules_return_verdicts_in_rule_order(self, u12):
        assert _RULE_ORDER == (
            "geometric", "meshing", "planet_interference", "module_range",
            "undercutting", "tooth_count_cap", "ring_diameter",
            "planet_count")
        assert len(set(_RULE_ORDER)) == 8
        # a design that breaks every rule names them all, in rule order,
        # and one-row columns give the same verdicts
        params = ConstraintParams(max_teeth=30)
        broken = design(Architecture.ISSPG, 5, 100, 1000, 2.0, 9)
        assert constraint_failures(broken, u12, params) == list(_RULE_ORDER)
        row = (broken.num_planets, broken.sun_teeth, broken.planet_teeth,
               broken.ring_teeth)
        assert constraint_rules(broken.arch, broken.module_mm, *row, u12,
                                params) == (True,) * 8
        columns = [np.array([value]) for value in row]
        verdicts = constraint_rules(broken.arch, np.array([broken.module_mm]),
                                    *columns, u12, params)
        assert [verdict.tolist() for verdict in verdicts] == [[True]] * 8
        # a (module, planet count, row) broadcast: every verdict keeps the
        # shape of the inputs it reads, and every entry is violated
        modules = np.array([1.3, 2.0])[:, None, None]
        planets = np.array([8, 9])[:, None]
        verdicts = constraint_rules(broken.arch, modules, planets,
                                    *columns[1:], u12, params)
        assert [np.shape(verdict) for verdict in verdicts] == [
            (1,), (2, 1), (2, 2, 1), (2, 1, 1), (1,), (1,), (2, 1, 1),
            (2, 1)]
        assert all(np.broadcast_to(verdict, (2, 2, 1)).all()
                   for verdict in verdicts)


class TestParamValidation:
    def test_motor_spec(self):
        with pytest.raises(ValueError):
            MotorSpec(outer_diameter_mm=50.0, stator_inner_diameter_mm=60.0,
                      height_mm=40.0, mass_kg=0.5, max_torque_nm=1.0,
                      max_speed_rad_s=100.0)
        with pytest.raises(ValueError):
            MotorSpec(outer_diameter_mm=105.6,
                      stator_inner_diameter_mm=65.0, height_mm=46.5,
                      mass_kg=-0.1, max_torque_nm=3.0, max_speed_rad_s=418.9)

    def test_constraint_params(self):
        with pytest.raises(ValueError):
            ConstraintParams(module_min_mm=1.5, module_max_mm=1.2)
        for module_min_mm in (-1.0, 0.0):
            with pytest.raises(ValueError, match="module_min_mm"):
                ConstraintParams(module_min_mm=module_min_mm)
        with pytest.raises(ValueError):
            ConstraintParams(min_planets=5, max_planets=2)
        with pytest.raises(ValueError):
            ConstraintParams(min_planets=1)
        with pytest.raises(ValueError):
            ConstraintParams(min_teeth=0)
        # the search holds these, and max_planets + 1, in int64 columns
        for changes, name in (
                (dict(min_teeth=10**20), "min_teeth"),
                (dict(min_planets=10**20, max_planets=10**20),
                 "min_planets"),
                (dict(max_planets=2**63 - 1), "max_planets")):
            with pytest.raises(ValueError, match=f"{name} must be below"):
                ConstraintParams(**changes)
        ConstraintParams(min_teeth=2**63 - 2, max_planets=2**63 - 2)
        with pytest.raises(ValueError):
            ConstraintParams(planet_clearance_mm=0.0)
