"""Lewis face-width sizing against hand-evaluated SI arithmetic.

Frozen widths come from a 50-digit independent evaluation of
b = FOS * F_t / (sigma * y * K_v * pi * m).
"""

from math import pi

import pytest

from gearboxopt import (Architecture, GearboxDesign, LewisFormula, LoadCase,
                        StrengthParams, VelocityFormula, lewis_form_factor)
from gearboxopt.strength import lewis_width

REL = 1e-12

REFERENCE = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                          planet_teeth=40, ring_teeth=100, module_mm=0.5,
                          num_planets=3)
WIDE_SUN = GearboxDesign(arch=Architecture.ESSPG, sun_teeth=25,
                         planet_teeth=65, ring_teeth=155, module_mm=0.5,
                         num_planets=3)

# widths for sun torque 3 Nm at 418.9 rad/s, default strength params
FACE_REFERENCE_MM = 28.90760138979485
FACE_WIDE_SUN_MM = 23.52390274124247


def lewis(load, design, params=StrengthParams()):
    """``lewis_width`` of one design: (sound, y, K_v, width in mm)."""
    return lewis_width(design.module_mm, design.sun_teeth,
                       design.planet_teeth, design.num_planets, load, params)


def face_width(load, design, params=StrengthParams()):
    sound, _, _, width = lewis(load, design, params)
    assert sound
    return width


def velocity_factor(load, design):
    return lewis(load, design)[2]


class TestParams:
    def test_load_case_validation(self):
        LoadCase(sun_torque_nm=0.0, sun_speed_rad_s=0.0)  # standstill is ok
        with pytest.raises(ValueError):
            LoadCase(sun_torque_nm=-1.0, sun_speed_rad_s=100.0)
        with pytest.raises(ValueError):
            LoadCase(sun_torque_nm=1.0, sun_speed_rad_s=-1.0)

    def test_strength_params_validation(self):
        with pytest.raises(ValueError):
            StrengthParams(allowable_bending_stress_pa=0.0)
        with pytest.raises(ValueError):
            StrengthParams(fos=0.5)
        with pytest.raises(ValueError):
            StrengthParams(min_face_width_mm=0.0)

    @pytest.mark.parametrize("field, value, kind", [
        ("lewis_formula", "full_depth_20deg", "LewisFormula"),
        ("velocity_formula", "barth", "VelocityFormula")])
    def test_formula_must_be_a_member(self, field, value, kind):
        # the member's value is not the member
        with pytest.raises(ValueError, match=f"^{field} must be a {kind}$"):
            StrengthParams(**{field: value})


class TestLoadPath:
    def test_sun_pitch_radius(self):
        # at 1 rad/s the pitch-line speed in m/s is the 5 mm radius
        unit_speed = LoadCase(sun_torque_nm=3.0, sun_speed_rad_s=1.0)
        assert velocity_factor(unit_speed, REFERENCE) == pytest.approx(
            3.0 / (3.0 + 0.005), rel=1e-15)

    def test_tangential_force(self, u12_load):
        # 3 Nm over 3 planets at a 5 mm radius: 200 N per mesh
        params = StrengthParams()
        _, y, k_v, width = lewis(u12_load, REFERENCE, params)
        strength = params.allowable_bending_stress_pa * y * k_v * pi * 5e-4
        assert width == pytest.approx(
            1000.0 * params.fos * 200.0 / strength, rel=1e-12)

    def test_force_splits_across_planets(self, u12_load):
        two = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                            planet_teeth=40, ring_teeth=100, module_mm=0.5,
                            num_planets=2)
        assert face_width(u12_load, two) == pytest.approx(
            1.5 * face_width(u12_load, REFERENCE), rel=1e-12)

    def test_pitch_line_velocity(self, u12_load):
        # V = omega * r_sun at the 5 mm sun and at a 10 mm one
        big_sun = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=40,
                                planet_teeth=40, ring_teeth=120,
                                module_mm=0.5, num_planets=3)
        for design, radius_m in ((REFERENCE, 0.005), (big_sun, 0.01)):
            assert velocity_factor(u12_load, design) == pytest.approx(
                3.0 / (3.0 + 418.9 * radius_m), rel=1e-15)


class TestFactors:
    def test_lewis_form_factor(self):
        assert lewis_form_factor(20) == pytest.approx(0.154 - 0.912 / 20,
                                                      rel=1e-15)
        assert lewis_form_factor(40) > lewis_form_factor(20)
        assert lewis_form_factor(10 ** 6) < 0.154

    def test_formula_enums_have_one_member(self):
        # lewis_width applies the one fit each label names
        assert list(LewisFormula) == [LewisFormula.FULL_DEPTH_20DEG]
        assert list(VelocityFormula) == [VelocityFormula.BARTH]

    def test_velocity_factor(self, u12_load):
        v = 418.9 * 0.005
        assert velocity_factor(u12_load, REFERENCE) == pytest.approx(
            3.0 / (3.0 + v), rel=1e-15)
        still = LoadCase(sun_torque_nm=1.0, sun_speed_rad_s=0.0)
        assert velocity_factor(still, REFERENCE) == 1.0
        barth = StrengthParams(velocity_formula=VelocityFormula.BARTH)
        assert lewis(u12_load, REFERENCE, barth)[2] == velocity_factor(
            u12_load, REFERENCE)


class TestFaceWidth:
    def test_frozen_values(self, u12_load):
        params = StrengthParams()
        assert face_width(u12_load, REFERENCE, params) == pytest.approx(
            FACE_REFERENCE_MM, rel=REL)
        assert face_width(u12_load, WIDE_SUN, params) == pytest.approx(
            FACE_WIDE_SUN_MM, rel=REL)

    def test_minimum_width_clamp(self):
        params = StrengthParams()
        unloaded = LoadCase(sun_torque_nm=0.0, sun_speed_rad_s=0.0)
        assert face_width(unloaded, REFERENCE, params) == \
            params.min_face_width_mm

    def test_monotone_in_torque_and_speed(self, u12_load):
        params = StrengthParams()
        base = face_width(u12_load, REFERENCE, params)
        more_torque = LoadCase(sun_torque_nm=6.0, sun_speed_rad_s=418.9)
        faster = LoadCase(sun_torque_nm=3.0, sun_speed_rad_s=800.0)
        assert face_width(more_torque, REFERENCE, params) > base
        assert face_width(faster, REFERENCE, params) > base

    def test_form_factor_taken_at_weaker_gear(self, u12_load):
        # a stage with a small planet must size for the planet's teeth
        params = StrengthParams()
        small_planet = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=40,
                                     planet_teeth=20, ring_teeth=80,
                                     module_mm=0.5, num_planets=3)
        r_sun = 0.5 * 40 / 2.0 / 1000.0
        f_t = 3.0 / (3 * r_sun)
        k_v = 3.0 / (3.0 + 418.9 * r_sun)
        y = 0.154 - 0.912 / 20  # weaker gear has 20 teeth
        expected_mm = 1000.0 * 2.0 * f_t / (138e6 * y * k_v * pi * 0.0005)
        assert face_width(u12_load, small_planet, params) == pytest.approx(
            expected_mm, rel=1e-12)

    def test_scaling_with_safety_factor(self, u12_load):
        base = face_width(u12_load, REFERENCE, StrengthParams())
        doubled = face_width(u12_load, REFERENCE, StrengthParams(fos=4.0))
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)
