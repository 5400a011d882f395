"""Component mass rules and the bearing power-law regression.

Frozen values come from a 50-digit independent evaluation of the same
cylinder/annulus volumes and an explicit least-squares fit on the
packaged bearing table.
"""

from dataclasses import replace
from math import inf, nextafter, pi

import pytest

import gearboxopt.mass

from gearboxopt import (Architecture, ConstraintParams, GearboxDesign,
                        MassBreakdown, MassModelParams, MaterialSpec,
                        StrengthParams, base_plate_mass, bearing_fit_report,
                        bearing_value, default_bearing_table_path,
                        fit_bearing_model,
                        gearbox_stack_height_mm, load_bearing_model,
                        load_bearing_table, planet_pin_mass)
from gearboxopt.mass import component_masses, context_terms
from gearboxopt.search import _MODEL_RULES, enumerate_feasible, evaluate
from gearboxopt.strength import lewis_width

from conftest import U12
from reference_models import (actuator_mass, carrier_disk_od_mm,
                              casing_length_mm, output_bearing_bore_mm,
                              pin_circle_diameter_mm, spur_gear_mass)

REL = 1e-12

REFERENCE = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                          planet_teeth=40, ring_teeth=100, module_mm=0.5,
                          num_planets=3)
FACE_REFERENCE_MM = 28.90760138979485  # Lewis width for the 3 Nm load

SPUR_SUN_KG = 0.006165375582669969        # N=20, m=0.5, b=10, solid
SPUR_PLANET_BORED_KG = 0.1017286971140545  # N=40, m=1.0, b=12, bore 15
RING_KG = 0.021902496757435066            # N=100, m=0.5, b=10, wall 1.25

FIT_MASS_C = 1.2605464023210938e-04
FIT_MASS_K = 1.5531439277425586
FIT_MASS_R2 = 0.997791458722656
FIT_MASS_MAX_RESIDUAL = 0.07570945451080643
FIT_OD_C = 2.8700690850804213
FIT_OD_K = 0.79508715489982903
FIT_WIDTH_C = 2.173037306600912
FIT_WIDTH_K = 0.33584711136533132
BEARING_MASS_30_KG = 0.024816512221256521
BEARING_OD_15_MM = 24.716524564602459
BEARING_WIDTH_30_MM = 6.8101094037136446

# full actuator, U12 motor, reference design at the frozen face width
BREAKDOWN_KG = {
    "sun": 0.017822621976219762,
    "planets_total": 0.21387146371463715,
    "ring": 0.063314864570520705,
    "carrier": 0.071780316384625735,
    "secondary_carrier": 0.010913999756762486,
    "bearings_total": 0.046788400073273029,
    "casing": 0.12140461756719351,
    "base_plate": 0.07094188707340853,
    "motor": 0.765,
    "total": 1.3818381711166409,
}


def priced(design, width_mm, bearing, params=MassModelParams()):
    """``component_masses`` of one design on the U12 motor."""
    materials = MaterialSpec()
    return component_masses(
        design.arch, design.module_mm, design.num_planets, design.sun_teeth,
        design.planet_teeth, design.ring_teeth, width_mm, U12, bearing,
        materials, params, context_terms(U12, bearing, materials, params))


def components(design, width_mm, bearing, params=MassModelParams()):
    """Whether the mass rules admit one design on the U12 motor, their
    verdicts and the breakdown (or None)."""
    sound, verdicts, parts, _ = priced(design, width_mm, bearing, params)
    return sound, verdicts, (None if parts is None
                             else MassBreakdown(*parts, sum(parts)))


def breakdown(design, width_mm, bearing, params=MassModelParams()):
    sound, _, masses = components(design, width_mm, bearing, params)
    assert sound
    return masses


def write_table(path, rows, header="bore_mm,od_mm,width_mm,mass_kg"):
    lines = [header] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestBearingTable:
    def test_packaged_table_loads(self):
        assert default_bearing_table_path().is_file()
        table = load_bearing_table(default_bearing_table_path())
        assert len(table) == 13
        assert table[0].bore_mm == 10.0
        assert table[-1].bore_mm == 60.0

    def test_rejects_wrong_header(self, tmp_path):
        path = write_table(tmp_path / "t.csv",
                           [(10, 20, 5, 0.01), (20, 30, 6, 0.02),
                            (30, 40, 7, 0.04)],
                           header="bore,od,width,mass")
        with pytest.raises(ValueError, match="header"):
            load_bearing_table(path)

    def test_rejects_too_few_rows(self, tmp_path):
        path = write_table(tmp_path / "t.csv",
                           [(10, 20, 5, 0.01), (20, 30, 6, 0.02)])
        with pytest.raises(ValueError, match="at least 3"):
            load_bearing_table(path)

    def test_rejects_non_increasing_bores(self, tmp_path):
        path = write_table(tmp_path / "t.csv",
                           [(10, 20, 5, 0.01), (30, 40, 7, 0.04),
                            (30, 45, 7, 0.05)])
        with pytest.raises(ValueError, match="strictly increasing"):
            load_bearing_table(path)

    def test_rejects_bad_columns_and_values(self, tmp_path):
        path = write_table(tmp_path / "t.csv",
                           [(10, 20, 5, 0.01), (20, 30, 6),
                            (30, 40, 7, 0.04)])
        with pytest.raises(ValueError, match="4 columns"):
            load_bearing_table(path)
        for cell in ("-0.02", "nan", "inf"):
            path = write_table(tmp_path / "u.csv",
                               [(10, 20, 5, 0.01), (20, 30, 6, cell),
                                (30, 40, 7, 0.04)])
            with pytest.raises(ValueError, match=r"u\.csv line 3: all "
                               "values must be positive and finite"):
                load_bearing_table(path)

    def test_blank_lines_tolerated(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("bore_mm,od_mm,width_mm,mass_kg\n"
                        "10,20,5,0.01\n\n20,30,6,0.02\n30,40,7,0.04\n")
        assert len(load_bearing_table(path)) == 3


class TestBearingFit:
    def test_frozen_fit_constants(self, bearing_model):
        assert bearing_model.mass_kg == pytest.approx(
            (FIT_MASS_C, FIT_MASS_K), rel=REL)
        assert bearing_model.od_mm == pytest.approx((FIT_OD_C, FIT_OD_K),
                                                    rel=REL)
        assert bearing_model.width_mm == pytest.approx(
            (FIT_WIDTH_C, FIT_WIDTH_K), rel=REL)

    def test_packaged_model_is_hashable(self, bearing_model, default_ctx):
        # ``EvalContext`` is a frozen dataclass that hashes its bearing
        again = load_bearing_model()
        assert again == bearing_model
        assert hash(again) == hash(bearing_model)
        assert hash(replace(default_ctx, bearing=again)) == hash(default_ctx)

    def test_fit_quality_bounds(self, bearing_model):
        report = bearing_fit_report(bearing_model)
        stats = report["mass_kg"]
        assert stats["r_squared"] == pytest.approx(FIT_MASS_R2, rel=REL)
        assert stats["r_squared"] >= 0.95
        assert stats["max_relative_residual"] == pytest.approx(
            FIT_MASS_MAX_RESIDUAL, rel=REL)
        assert stats["max_relative_residual"] <= 0.15
        assert len(stats["relative_residuals"]) == 13

    def test_fitted_values(self, bearing_model):
        assert bearing_value("mass_kg", 30.0, bearing_model) == \
            pytest.approx(BEARING_MASS_30_KG, rel=REL)
        assert bearing_value("od_mm", 15.0, bearing_model) == \
            pytest.approx(BEARING_OD_15_MM, rel=REL)
        assert bearing_value("width_mm", 30.0, bearing_model) == \
            pytest.approx(BEARING_WIDTH_30_MM, rel=REL)

    def test_range_guard(self, bearing_model):
        with pytest.raises(ValueError, match="outside the fitted range"):
            bearing_value("mass_kg", 5.0, bearing_model)
        with pytest.raises(ValueError, match="outside the fitted range"):
            bearing_value("od_mm", 70.0, bearing_model)
        # the guard is closed at both ends of the table
        low, high = bearing_model.bore_min_mm, bearing_model.bore_max_mm
        assert bearing_value("mass_kg", high, bearing_model) > \
            bearing_value("mass_kg", low, bearing_model)
        with pytest.raises(ValueError, match="outside the fitted range"):
            bearing_value("width_mm", nextafter(high, inf), bearing_model)

    @pytest.mark.parametrize("column, value", [
        *[("width_mm", width) for width in (1.0, 2.0, 4.0, 6.0, 7.0, 10.0)],
        ("od_mm", 70.0), ("od_mm", 100.0)])
    def test_constant_column_fits_exactly(self, bearing_model, column,
                                          value):
        # equal values leave no variance to explain: the power law
        # reproduces them to rounding, and R^2 reads 1
        table = tuple(replace(row, **{column: value})
                      for row in bearing_model.table)
        report = bearing_fit_report(fit_bearing_model(table))
        assert report[column]["r_squared"] == 1.0
        assert report[column]["max_relative_residual"] < 1e-12
        packaged = bearing_fit_report(bearing_model)
        assert {name: stats for name, stats in report.items()
                if name != column} == {name: stats for name, stats
                                       in packaged.items() if name != column}

    def test_decreasing_mass_table_rejected(self, tmp_path):
        path = write_table(tmp_path / "t.csv",
                           [(10, 20, 5, 0.5), (20, 30, 6, 0.3),
                            (30, 40, 7, 0.1)])
        with pytest.raises(ValueError, match="monotone"):
            fit_bearing_model(load_bearing_table(path))

    def test_default_path_equals_explicit(self, bearing_model):
        explicit = load_bearing_model(default_bearing_table_path())
        assert explicit == bearing_model


class TestGearMasses:
    def test_spur_gear_frozen(self, bearing_model):
        assert breakdown(REFERENCE, 10.0, bearing_model).sun == \
            pytest.approx(SPUR_SUN_KG, rel=REL)
        # one planet: N=40, m=1.0, bored for a 15 mm planet bearing
        one_planet = replace(REFERENCE, module_mm=1.0, num_planets=1)
        bored = MassModelParams(fastener_offset=False,
                                planet_bearing_bore_mm=15.0)
        assert breakdown(one_planet, 12.0, bearing_model,
                         bored).planets_total == \
            pytest.approx(SPUR_PLANET_BORED_KG, rel=REL)

    def test_spur_gear_guards(self, bearing_model):
        with pytest.raises(ValueError):
            MassModelParams(planet_bearing_bore_mm=-1.0)
        # a sun bored out to its 10 mm pitch diameter fails the gear rule
        at_pitch = MassModelParams(fastener_offset=False,
                                   input_bearing_bore_mm=10.0)
        sound, verdicts, _ = components(REFERENCE, 10.0, bearing_model,
                                        at_pitch)
        assert not sound and not verdicts[0]

    def test_ring_gear_frozen(self, bearing_model):
        assert breakdown(REFERENCE, 10.0, bearing_model).ring == \
            pytest.approx(RING_KG, rel=REL)

    def test_ring_gear_guard(self, bearing_model):
        with pytest.raises(ValueError):
            MassModelParams(ring_radial_thickness_coeff=0.0)
        # a 2-tooth ring has its tip circle at 0 mm: the gear rule fails
        sound, verdicts, _ = components(replace(REFERENCE, ring_teeth=2),
                                        10.0, bearing_model)
        assert not sound and not verdicts[0]


class TestCarrierAndCasing:
    def test_layout_dimensions(self, bearing_model):
        # the dimensions the mass is priced at; the pin circle is also
        # the output bearing's bore
        pin_circle, disk_od, disk_id, _ = priced(REFERENCE, 10.0,
                                                 bearing_model)[3]
        assert pin_circle == pytest.approx(30.0)
        # pin circle plus half the 21 mm planet tip diameter
        assert disk_od == pytest.approx(40.5)
        assert disk_id == bearing_value("od_mm", 15.0, bearing_model)

    def test_pin_mass(self):
        # 10 mm pin, length = width + 4 mm engagement
        expected = 7850.0 * (10.0 + 4.0) * pi / 4.0 * 100.0 * 1e-9
        assert planet_pin_mass(10.0, MaterialSpec(), MassModelParams()) == \
            pytest.approx(expected, rel=1e-15)

    def test_secondary_carrier_is_disk_only(self, bearing_model):
        masses = breakdown(REFERENCE, 10.0, bearing_model)
        pins = 3 * planet_pin_mass(10.0, MaterialSpec(), MassModelParams())
        assert masses.carrier == pytest.approx(
            masses.secondary_carrier + pins, rel=1e-12)

    def test_carrier_must_clear_input_bearing(self, bearing_model):
        tight = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                              planet_teeth=20, ring_teeth=60, module_mm=0.5,
                              num_planets=3)
        big_bore = MassModelParams(input_bearing_bore_mm=25.0)
        sound, verdicts, parts, dimensions = priced(tight, 10.0,
                                                    bearing_model, big_bore)
        # only the carrier clearance fails, and nothing is priced
        assert not sound
        assert verdicts == (True, True, False, True, True, True, True)
        assert parts is None and dimensions is None

    def test_stack_and_casing_lengths(self, bearing_model):
        assert gearbox_stack_height_mm(10.0, MassModelParams()) == \
            pytest.approx(20.0)
        *_, internal = priced(REFERENCE, 10.0, bearing_model)[3]
        assert internal == pytest.approx(46.5)
        *_, external = priced(replace(REFERENCE, arch=Architecture.ESSPG),
                              10.0, bearing_model)[3]
        assert external == pytest.approx(46.5 + 20.0)

    def test_casing_mass_scales_with_length(self, bearing_model):
        internal = breakdown(REFERENCE, 10.0, bearing_model).casing
        external = breakdown(replace(REFERENCE, arch=Architecture.ESSPG),
                             10.0, bearing_model).casing
        assert external / internal == pytest.approx((46.5 + 20.0) / 46.5,
                                                    rel=1e-12)

    def test_casing_wall_guard(self, bearing_model):
        sound, verdicts, _ = components(
            REFERENCE, 10.0, bearing_model,
            MassModelParams(casing_wall_mm=60.0))
        assert not sound and not verdicts[5]


class TestComponentMasses:
    def test_frozen_breakdown(self, bearing_model):
        actual = breakdown(REFERENCE, FACE_REFERENCE_MM,
                           bearing_model)._asdict()
        assert actual.keys() == BREAKDOWN_KG.keys()
        for key, expected in BREAKDOWN_KG.items():
            assert actual[key] == pytest.approx(expected, rel=REL), key

    def test_total_is_component_sum(self, bearing_model):
        parts = breakdown(REFERENCE, FACE_REFERENCE_MM,
                          bearing_model)._asdict()
        total = parts.pop("total")
        assert total == pytest.approx(sum(parts.values()), rel=1e-15)

    def test_bearing_count_rule(self, bearing_model):
        expected = (3 * bearing_value("mass_kg", 10.0, bearing_model)
                    + bearing_value("mass_kg", 15.0, bearing_model)
                    + bearing_value("mass_kg", 30.0, bearing_model))
        masses = breakdown(REFERENCE, FACE_REFERENCE_MM, bearing_model)
        assert masses.bearings_total == pytest.approx(expected, rel=1e-15)

    def test_equals_component_rules_exactly(self, default_ctx):
        # component_masses with an EvalContext's terms, the scoring path,
        # against the reference model's actuator_mass, component by
        # component: every part to
        # the last bit when every verdict passes, else the first failed
        # verdict names the component whose helper raises first (or, for
        # a ring too wide to square, an infinite total)
        contexts = [MassModelParams(), MassModelParams(fastener_offset=False),
                    MassModelParams(input_bearing_bore_mm=25.0),
                    MassModelParams(input_bearing_bore_mm=70.0),
                    MassModelParams(planet_bearing_bore_mm=5.0),
                    MassModelParams(planet_bearing_bore_mm=5.0,
                                    casing_wall_mm=60.0,
                                    fastener_offset=False),
                    MassModelParams(casing_wall_mm=52.8),
                    MassModelParams(ring_radial_thickness_coeff=1e300)]
        failed = set()
        for sun, planet, ring in ((20, 40, 100), (3, 2, 7), (2, 1, 2),
                                  (8, 20, 48), (30, 22, 74), (60, 40, 140)):
            for module_mm in (0.3, 0.5, 1.0, 1.5):
                for arch in Architecture:
                    design = GearboxDesign(arch=arch, sun_teeth=sun,
                                           planet_teeth=planet,
                                           ring_teeth=ring,
                                           module_mm=module_mm,
                                           num_planets=3)
                    for params in contexts:
                        ctx = replace(default_ctx, mass_params=params)
                        args = (design, ctx.motor, 12.5, ctx.bearing,
                                ctx.materials, params)
                        sound, verdicts, parts, dimensions = (
                            component_masses(
                                arch, module_mm, 3, sun, planet, ring, 12.5,
                                ctx.motor, ctx.bearing, ctx.materials,
                                params, ctx.mass_terms))
                        if sound:
                            assert (*parts, sum(parts)) == tuple(
                                actuator_mass(*args))
                            assert dimensions == (
                                pin_circle_diameter_mm(design),
                                carrier_disk_od_mm(design),
                                bearing_value(
                                    "od_mm", params.input_bearing_bore_mm,
                                    ctx.bearing),
                                casing_length_mm(design, ctx.motor, 12.5,
                                                 params))
                            failed.add(None)
                            continue
                        rule = _MODEL_RULES[3 + verdicts.index(False)]
                        failed.add(rule)
                        if rule == "mass_range":
                            # no component raises; the ring mass is inf
                            assert actuator_mass(*args).total == inf
                            continue
                        message = {
                            "gear_bore": "gear bore|ring tip",
                            "input_bearing_range": "bearing bore "
                            f"{params.input_bearing_bore_mm:.2f} mm",
                            "carrier_clearance": "does not clear",
                            "planet_bearing_range": "bearing bore "
                            f"{params.planet_bearing_bore_mm:.2f} mm",
                            "output_bearing_range": "bearing bore "
                            f"{output_bearing_bore_mm(design):.2f} mm",
                            "casing_wall": "casing wall exceeds"}[rule]
                        with pytest.raises(ValueError, match=message):
                            actuator_mass(*args)
        assert failed == {None, *_MODEL_RULES[3:]}

    def test_context_terms_computed_once_per_context(self, default_ctx,
                                                     monkeypatch):
        bores = []

        def counting_value(column, bore_mm, model):
            if column == "od_mm":
                bores.append(bore_mm)
            return bearing_value(column, bore_mm, model)

        monkeypatch.setattr(gearboxopt.mass, "bearing_value", counting_value)
        ctx = replace(default_ctx)
        first = evaluate(REFERENCE, ctx)
        for module_mm in (0.6, 0.7, 0.5):
            evaluate(replace(REFERENCE, module_mm=module_mm), ctx)
        assert bores == [15.0]
        # an equal but new context computes them once more
        again = replace(ctx)
        assert evaluate(REFERENCE, again) == first
        evaluate(REFERENCE, again)
        assert bores == [15.0, 15.0]

    def test_base_plate(self, u12):
        expected = 2700.0 * 3.0 * pi / 4.0 * 105.6 ** 2 * 1e-9
        assert base_plate_mass(u12, MaterialSpec(), MassModelParams()) == \
            pytest.approx(expected, rel=1e-15)

    def test_fastener_offset_keeps_gears_solid(self, bearing_model):
        # without the offset, gear bores are subtracted and mass drops
        bored_params = MassModelParams(fastener_offset=False)
        big = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                            planet_teeth=40, ring_teeth=100, module_mm=1.0,
                            num_planets=3)
        solid = breakdown(big, 10.0, bearing_model)
        bored = breakdown(big, 10.0, bearing_model, bored_params)
        assert bored.sun < solid.sun
        assert bored.planets_total < solid.planets_total
        assert bored.ring == solid.ring
        materials = MaterialSpec()
        assert bored.sun == pytest.approx(
            spur_gear_mass(20, 1.0, 10.0, 15.0, materials), rel=1e-15)
        assert bored.planets_total == pytest.approx(
            3 * spur_gear_mass(40, 1.0, 10.0, 10.0, materials), rel=1e-15)

    def test_internal_layout_never_heavier(self, u12, u12_load,
                                           bearing_model):
        # identical gear train: the internal layout's shorter casing keeps
        # its actuator total at or below the external one
        strength = StrengthParams()
        constraints = ConstraintParams()
        modules = [0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2]
        checked = 0
        for d in enumerate_feasible(u12, Architecture.ESSPG, constraints,
                                    modules):
            # the output bearing bore must stay inside the fitted catalog
            # range; it is the same for both layouts, so skipping wide
            # designs does not bias the comparison
            bore = output_bearing_bore_mm(d)
            if not (bearing_model.bore_min_mm <= bore
                    <= bearing_model.bore_max_mm):
                continue
            _, _, _, width = lewis_width(d.module_mm, d.sun_teeth,
                                         d.planet_teeth, d.num_planets,
                                         u12_load, strength)
            external = breakdown(d, width, bearing_model)
            internal = breakdown(replace(d, arch=Architecture.ISSPG), width,
                                 bearing_model)
            assert internal.total <= external.total
            checked += 1
        assert checked > 1000
