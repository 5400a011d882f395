"""Mesh-efficiency chain versus a high-precision independent evaluation.

Expected values were produced by a 50-digit arbitrary-precision
implementation of the same involute relations (tip pressure angles,
approach/recess contact ratios, loss parameter, per-mesh and stage
efficiency) and are frozen here to 16 significant digits.
"""

from dataclasses import replace
from math import acos, degrees, radians

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gearboxopt.efficiency
from gearboxopt import (Architecture, EfficiencyBreakdown, EfficiencyParams,
                        GearboxDesign, loss_parameter, overall_efficiency)
from gearboxopt.cli import build_context, load_config
from gearboxopt.efficiency import mesh_chain
from gearboxopt.mass import load_bearing_model
from gearboxopt.search import _bin_columns, score_columns

from reference_models import (GearRole, basic_driving_efficiency,
                              gear_circles, planetary_efficiency,
                              tip_pressure_angle)

ALPHA = radians(20.0)
REL = 1e-12

# reference stage: sun 20, planets 40, ring 100, module 0.5 mm
TIP_EXT_20_DEG = 31.32125792965133
TIP_EXT_40_DEG = 26.49858855496128
TIP_RING_100_DEG = 16.48985246104468
EPS_A1 = 0.8567668118838811   # sun-planet approach, (20, 40)
EPS_A2 = 0.7784191516875793   # sun-planet recess, (20, 40)
EPS_A = 0.7047997820882199    # sun-planet loss parameter
EPS_B1 = 1.0814479237501007   # planet-ring approach, (40, 100)
EPS_B2 = 0.8567668118838811   # planet-ring recess, (40, 100)
EPS_B = 0.9653642460950915    # planet-ring loss parameter
ETA_A = 0.9900361278205298    # sun-planet mesh efficiency, mu = 0.06
ETA_B = 0.9972704968987865    # planet-ring mesh efficiency, mu = 0.06
ETA_OVERALL = 0.9894448509494419
ETA_25_65_155 = 0.9918623868700256


def chain(sun, planet, ring, module_mm=0.5, params=EfficiencyParams()):
    """``mesh_chain`` of one sound design as an ``EfficiencyBreakdown``."""
    sound, fields, _ = mesh_chain(module_mm, sun, planet, ring, params)
    assert sound
    return EfficiencyBreakdown(*fields)


def tip_angles(sun, planet, ring, module_mm, monkeypatch):
    """The tip pressure angles (rad) of ``mesh_chain``'s arccos calls, in
    call order."""
    ratios = []

    def recording(x):
        ratios.append(x)
        return acos(x)

    monkeypatch.setattr(gearboxopt.efficiency, "acos", recording)
    chain(sun, planet, ring, module_mm)
    monkeypatch.undo()
    return [acos(x) for x in ratios]


class TestParams:
    def test_mu_range(self):
        EfficiencyParams(mu=0.0)   # frictionless analysis is allowed
        EfficiencyParams(mu=0.99)
        with pytest.raises(ValueError):
            EfficiencyParams(mu=-0.01)
        with pytest.raises(ValueError):
            EfficiencyParams(mu=1.0)

    def test_pressure_angle_range(self):
        for angle in (0.0, 90.0):
            with pytest.raises(ValueError, match="pressure_angle_deg"):
                EfficiencyParams(pressure_angle_deg=angle)


class TestTipPressureAngle:
    def test_frozen_values(self, monkeypatch):
        # mesh_chain takes the planet's, the sun's and the ring's in turn
        planet, sun, ring = tip_angles(20, 40, 100, 0.5, monkeypatch)
        assert degrees(sun) == pytest.approx(TIP_EXT_20_DEG, rel=REL)
        assert degrees(planet) == pytest.approx(TIP_EXT_40_DEG, rel=REL)
        assert degrees(ring) == pytest.approx(TIP_RING_100_DEG, rel=REL)

    def test_module_cancels(self, monkeypatch):
        # d_b/d_a reduces to cos(alpha) N/(N + 2), so the module drops
        # out analytically; numerically it cancels to rounding error
        reference = tip_angles(20, 40, 100, 0.5, monkeypatch)
        for m in (0.6, 0.8, 1.2):
            assert tip_angles(20, 40, 100, m, monkeypatch) \
                == pytest.approx(reference, rel=1e-12)

    def test_small_ring_is_degenerate(self):
        # base circle reaches the inward-pointing tip circle at N = 33,
        # which fails the tooth-form verdict
        params = EfficiencyParams()
        assert mesh_chain(0.5, 20, 40, 33, params) == (False, None, None)
        assert mesh_chain(0.5, 20, 40, 34, params)[0]  # just feasible


class TestContactRatios:
    def test_sun_planet_frozen(self):
        br = chain(20, 40, 100)
        assert br.eps_a1 == pytest.approx(EPS_A1, rel=REL)
        assert br.eps_a2 == pytest.approx(EPS_A2, rel=REL)

    def test_planet_ring_frozen(self):
        br = chain(20, 40, 100)
        assert br.eps_b1 == pytest.approx(EPS_B1, rel=REL)
        assert br.eps_b2 == pytest.approx(EPS_B2, rel=REL)

    def test_ratios_positive_across_space(self):
        for n1 in range(20, 80, 7):
            for n2 in range(20, 80, 7):
                br = chain(n1, n2, n1 + 2 * n2)
                assert min(br.eps_a1, br.eps_a2, br.eps_b1, br.eps_b2) > 0

    @pytest.mark.parametrize("min_teeth, floor", [(20, 1.605), (4, 1.345)])
    def test_smallest_total_ratio_of_feasible_u12_rows(
            self, u12_config_path, min_teeth, floor):
        # the model has no contact-ratio >= 1 rule because none could
        # fire: over every feasible binned u12 row of both layouts, the
        # smallest total contact ratio of either mesh stays this far
        # above 1, also with a tooth floor of 4 (the Lewis rule still
        # drops gears under 6 teeth)
        cfg = load_config(u12_config_path)
        ctx = build_context(cfg, load_bearing_model(cfg.bearing_table_path))
        ctx = replace(ctx, constraints=replace(ctx.constraints,
                                               min_teeth=min_teeth))
        smallest = []
        for arch in cfg.architectures:
            _, columns, _ = _bin_columns(ctx.motor, arch, ctx.constraints,
                                         cfg.module_set, cfg.bins)
            feasible = score_columns(arch, ctx, *columns).feasible
            m, _, s, p, index = (column[feasible] for column in columns)
            _, (a1, a2, b1, b2, *_), _ = mesh_chain(m, s, p, s + 2 * p,
                                                    ctx.efficiency, index)
            smallest += [(a1 + a2).min(), (b1 + b2).min()]
        assert round(float(min(smallest)), 3) == floor


class TestLossParameter:
    def test_quadratic_identities(self):
        assert loss_parameter(0.0, 0.0) == 1.0
        assert loss_parameter(1.0, 1.0) == 1.0
        assert loss_parameter(0.5, 0.5) == 0.5  # unconstrained minimum

    def test_frozen_values(self):
        assert loss_parameter(EPS_A1, EPS_A2) == pytest.approx(EPS_A,
                                                               rel=REL)
        assert loss_parameter(EPS_B1, EPS_B2) == pytest.approx(EPS_B,
                                                               rel=REL)


class TestMeshEfficiency:
    def test_frozen_values(self):
        br = chain(20, 40, 100)
        assert br.eta_a == pytest.approx(ETA_A, rel=REL)
        assert br.eta_b == pytest.approx(ETA_B, rel=REL)

    def test_frictionless_is_exactly_one(self):
        br = chain(20, 40, 100, params=EfficiencyParams(mu=0.0))
        assert br.eta_a == 1.0
        assert br.eta_b == 1.0

    def test_more_friction_less_efficiency(self):
        lo = chain(20, 40, 100, params=EfficiencyParams(mu=0.03)).eta_a
        hi = chain(20, 40, 100, params=EfficiencyParams(mu=0.12)).eta_a
        assert hi < ETA_A < lo

    def test_monotone_in_tooth_counts(self):
        # the ring does not enter the sun-planet mesh, nor the sun the
        # planet-ring mesh
        def sun_planet(sun, planet):
            return chain(sun, planet, sun + 2 * planet).eta_a

        def planet_ring(planet, ring):
            return chain(20, planet, ring).eta_b

        for n1 in range(20, 101, 10):
            for n2 in range(20, 101, 10):
                base = sun_planet(n1, n2)
                assert sun_planet(n1 + 10, n2) >= base
                assert sun_planet(n1, n2 + 10) >= base
        # the internal mesh improves with planet teeth (ring fixed)
        for n1 in range(20, 81, 10):
            for n2 in range(max(60, n1 + 34), 201, 20):
                assert planet_ring(n1 + 10, n2) >= planet_ring(n1, n2)

    def test_internal_mesh_beats_external(self):
        # (1/N_p - 1/N_r) < (1/N_s + 1/N_p) keeps the planet-ring mesh
        # more efficient than the sun-planet mesh of the same stage
        for ns in (20, 30, 40, 60):
            for npl in (20, 30, 50, 80):
                br = chain(ns, npl, ns + 2 * npl)
                assert br.eta_b > br.eta_a

    def test_out_of_range_friction_is_not_clamped(self):
        # a one-tooth pinion with near-unity friction drives eta below 0,
        # which evaluate names efficiency_range
        params = EfficiencyParams(mu=0.99)
        assert chain(1, 40, 81, params=params).eta_a < 0


class TestOverallEfficiency:
    def test_blend_formula(self):
        assert overall_efficiency(20, 100, 1.0, 1.0) == 1.0
        assert overall_efficiency(20, 100, 0.9, 0.9) == pytest.approx(
            (20.0 + 0.81 * 100.0) / 120.0, rel=1e-15)

    def test_never_below_mesh_product(self):
        for ns in (20, 35, 60):
            for nr in (80, 120, 180):
                assert overall_efficiency(ns, nr, ETA_A, ETA_B) \
                    >= ETA_A * ETA_B


class TestMeshChain:
    def test_frozen_breakdown(self):
        br = chain(20, 40, 100)
        assert br.eps_a1 == pytest.approx(EPS_A1, rel=REL)
        assert br.eps_a2 == pytest.approx(EPS_A2, rel=REL)
        assert br.eps_b1 == pytest.approx(EPS_B1, rel=REL)
        assert br.eps_b2 == pytest.approx(EPS_B2, rel=REL)
        assert br.eps_a == pytest.approx(EPS_A, rel=REL)
        assert br.eps_b == pytest.approx(EPS_B, rel=REL)
        assert br.eta_a == pytest.approx(ETA_A, rel=REL)
        assert br.eta_b == pytest.approx(ETA_B, rel=REL)
        assert br.eta_overall == pytest.approx(ETA_OVERALL, rel=REL)

    def test_each_tip_angle_computed_once(self, monkeypatch):
        # three gears, three arccos calls: the planet's tip angle serves
        # both meshes
        angles = tip_angles(20, 40, 100, 0.5, monkeypatch)
        assert sorted(angles) == sorted(
            tip_pressure_angle(teeth, 0.5, role, ALPHA) for teeth, role in
            ((20, GearRole.SUN), (40, GearRole.PLANET), (100, GearRole.RING)))
        params = EfficiencyParams()
        br = chain(20, 40, 100)
        assert br.eps_b2 == br.eps_a1
        assert br.eta_a == basic_driving_efficiency(20, 40, 0.5, False,
                                                    params)
        assert br.eta_b == basic_driving_efficiency(40, 100, 0.5, True,
                                                    params)

    @pytest.mark.parametrize("mu, alpha_deg", [
        (0.06, 20.0), (0.0, 20.0), (0.4, 25.0), (0.9, 14.5), (0.06, 40.0)])
    def test_equals_mesh_helpers_exactly(self, mu, alpha_deg):
        # mesh_chain, the scoring path, against the mesh-by-mesh reference
        # model: equal floats when every verdict passes, and a failed
        # verdict exactly when the reference raises, at a mesh efficiency
        # <= 0 for a sound tooth form and at a degenerate one otherwise
        params = EfficiencyParams(mu=mu, pressure_angle_deg=alpha_deg)
        outcomes = set()
        for sun in (1, 2, 3, 5, 12, 20, 31):
            for planet in (1, 2, 4, 9, 17, 40):
                for ring in (2, 3, 13, 33, sun + 2 * planet, 160):
                    design = GearboxDesign(
                        arch=Architecture.ESSPG, sun_teeth=sun,
                        planet_teeth=planet, ring_teeth=ring, module_mm=0.7,
                        num_planets=3)
                    sound, fields, _ = mesh_chain(0.7, sun, planet, ring,
                                                  params)
                    if sound and fields[6] > 0 and fields[7] > 0:
                        assert fields == tuple(
                            planetary_efficiency(design, params)), design
                        outcomes.add("scored")
                        continue
                    message = "mesh efficiency" if sound else "degenerate"
                    with pytest.raises(ValueError, match=message):
                        planetary_efficiency(design, params)
                    outcomes.add(message)
        assert {"scored", "degenerate"} <= outcomes

    @settings(max_examples=60)
    @given(modules=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=4,
                            unique=True),
           rows=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 150),
                                   st.integers(1, 150), st.integers(1, 400)),
                         min_size=1, max_size=30),
           alpha_deg=st.floats(0.5, 89.4))
    def test_circles_on_columns_equal_scalar_calls_and_oracles(
            self, modules, rows, alpha_deg):
        # every drawn table also holds a 2-tooth ring, whose tip circle
        # m*N - 2m is 0, and a 1-tooth ring, whose tip circle is negative
        rows = rows + [(0, 20, 40, 2), (0, 20, 40, 1)]
        params = EfficiencyParams(pressure_angle_deg=alpha_deg)
        index = np.array([k % len(modules) for k, *_ in rows])
        m = np.array(modules)[index]
        s, p, r = (np.array(column) for column in list(zip(*rows))[1:])
        with np.errstate(divide="ignore", invalid="ignore"):
            sound, _, circles = mesh_chain(m, s, p, r, params, index)
        for i, row_sound in enumerate(sound.tolist()):
            design = GearboxDesign(
                arch=Architecture.ESSPG, sun_teeth=int(s[i]),
                planet_teeth=int(p[i]), ring_teeth=int(r[i]),
                module_mm=float(m[i]), num_planets=3)
            scalar = mesh_chain(design.module_mm, design.sun_teeth,
                                design.planet_teeth, design.ring_teeth,
                                params)
            assert scalar[0] is row_sound, design
            if row_sound:
                assert tuple(tuple(float(column[i]) for column in gear)
                             for gear in circles) == scalar[2] == \
                    gear_circles(design, radians(alpha_deg)), design
            else:
                assert scalar[1:] == (None, None)
        assert sound.tolist()[-2:] == [False, False]

    def test_second_design_frozen(self):
        assert chain(25, 65, 155).eta_overall == pytest.approx(
            ETA_25_65_155, rel=REL)

    def test_architecture_tag_is_irrelevant(self, default_ctx):
        columns = ([0.5, 0.5], [3, 3], [20, 25], [40, 65], [0, 0])
        internal = score_columns(Architecture.ISSPG, default_ctx, *columns)
        external = score_columns(Architecture.ESSPG, default_ctx, *columns)
        assert np.array_equal(internal.eta_overall, external.eta_overall)

    def test_module_is_irrelevant(self):
        # the module cancels analytically in every tip angle, so a
        # rescaled design matches to rounding error on each field
        base = chain(20, 40, 100)
        scaled = chain(20, 40, 100, module_mm=1.2)
        assert tuple(scaled) == pytest.approx(tuple(base), rel=1e-12)
