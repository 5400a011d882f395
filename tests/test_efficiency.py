"""Mesh-efficiency chain versus a high-precision independent evaluation.

Expected values were produced by a 50-digit arbitrary-precision
implementation of the same involute relations (tip pressure angles,
approach/recess contact ratios, loss parameter, per-mesh and stage
efficiency) and are frozen here to 16 significant digits.
"""

import logging
from dataclasses import astuple, replace
from math import acos, degrees, radians

import pytest

import gearboxopt.efficiency
from gearboxopt import (Architecture, EfficiencyBreakdown, EfficiencyParams,
                        GearboxDesign, GearRole, GeometryInfeasibleError,
                        MeshKind, ModelRangeError, basic_driving_efficiency,
                        contact_ratios, loss_parameter, overall_efficiency,
                        planetary_efficiency, tip_pressure_angle)
from gearboxopt.efficiency import mesh_chain

ALPHA = radians(20.0)
REL = 1e-12

# reference stage: sun 20, planets 40, ring 100, module 0.5 mm
REFERENCE = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                          planet_teeth=40, ring_teeth=100, module_mm=0.5,
                          num_planets=3)

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


class TestParams:
    def test_mu_range(self):
        EfficiencyParams(mu=0.0)   # frictionless analysis is allowed
        EfficiencyParams(mu=0.99)
        with pytest.raises(ValueError):
            EfficiencyParams(mu=-0.01)
        with pytest.raises(ValueError):
            EfficiencyParams(mu=1.0)

    def test_pressure_angle_range(self):
        with pytest.raises(ValueError):
            EfficiencyParams(pressure_angle_rad=0.0)


class TestTipPressureAngle:
    def test_frozen_values(self):
        assert degrees(tip_pressure_angle(20, 0.5, GearRole.SUN, ALPHA)) \
            == pytest.approx(TIP_EXT_20_DEG, rel=REL)
        assert degrees(tip_pressure_angle(40, 0.5, GearRole.PLANET, ALPHA)) \
            == pytest.approx(TIP_EXT_40_DEG, rel=REL)
        assert degrees(tip_pressure_angle(100, 0.5, GearRole.RING, ALPHA)) \
            == pytest.approx(TIP_RING_100_DEG, rel=REL)

    def test_module_cancels(self):
        # d_b/d_a reduces to cos(alpha) N/(N + 2), so the module drops
        # out analytically; numerically it cancels to rounding error
        reference = tip_pressure_angle(20, 0.5, GearRole.SUN, ALPHA)
        for m in (0.6, 0.8, 1.2):
            assert tip_pressure_angle(20, m, GearRole.SUN, ALPHA) \
                == pytest.approx(reference, rel=1e-12)

    def test_small_ring_is_degenerate(self):
        # base circle reaches the inward-pointing tip circle at N = 33
        with pytest.raises(GeometryInfeasibleError):
            tip_pressure_angle(33, 0.5, GearRole.RING, ALPHA)
        tip_pressure_angle(34, 0.5, GearRole.RING, ALPHA)  # just feasible


class TestContactRatios:
    def test_sun_planet_frozen(self):
        eps1, eps2 = contact_ratios(20, 40, 0.5, MeshKind.SUN_PLANET, ALPHA)
        assert eps1 == pytest.approx(EPS_A1, rel=REL)
        assert eps2 == pytest.approx(EPS_A2, rel=REL)

    def test_planet_ring_frozen(self):
        eps1, eps2 = contact_ratios(40, 100, 0.5, MeshKind.PLANET_RING,
                                    ALPHA)
        assert eps1 == pytest.approx(EPS_B1, rel=REL)
        assert eps2 == pytest.approx(EPS_B2, rel=REL)

    def test_ratios_positive_across_space(self):
        for n1 in range(20, 80, 7):
            for n2 in range(20, 80, 7):
                eps1, eps2 = contact_ratios(n1, n2, 0.5,
                                            MeshKind.SUN_PLANET, ALPHA)
                assert eps1 > 0 and eps2 > 0
                eps1, eps2 = contact_ratios(n1, n1 + 2 * n2, 0.5,
                                            MeshKind.PLANET_RING, ALPHA)
                assert eps1 > 0 and eps2 > 0


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
        params = EfficiencyParams()
        assert basic_driving_efficiency(20, 40, 0.5, MeshKind.SUN_PLANET,
                                        params) == pytest.approx(ETA_A,
                                                                 rel=REL)
        assert basic_driving_efficiency(40, 100, 0.5, MeshKind.PLANET_RING,
                                        params) == pytest.approx(ETA_B,
                                                                 rel=REL)

    def test_discontinuous_mesh_warns_once(self, caplog):
        # a 2/2-tooth external mesh at 25 deg has total contact ratio
        # 0.955, the only way below 1 in the unshifted tooth form
        params = EfficiencyParams(pressure_angle_rad=radians(25.0))
        with caplog.at_level(logging.WARNING, logger="gearboxopt"):
            basic_driving_efficiency(2, 2, 1.0, MeshKind.SUN_PLANET, params)
        assert len(caplog.records) == 1
        assert "total contact ratio 0.955" in caplog.records[0].getMessage()

    def test_frictionless_is_exactly_one(self):
        params = EfficiencyParams(mu=0.0)
        assert basic_driving_efficiency(20, 40, 0.5, MeshKind.SUN_PLANET,
                                        params) == 1.0
        assert basic_driving_efficiency(40, 100, 0.5, MeshKind.PLANET_RING,
                                        params) == 1.0

    def test_more_friction_less_efficiency(self):
        lo = basic_driving_efficiency(20, 40, 0.5, MeshKind.SUN_PLANET,
                                      EfficiencyParams(mu=0.03))
        hi = basic_driving_efficiency(20, 40, 0.5, MeshKind.SUN_PLANET,
                                      EfficiencyParams(mu=0.12))
        assert hi < ETA_A < lo

    def test_monotone_in_tooth_counts(self):
        params = EfficiencyParams()
        for n1 in range(20, 101, 10):
            for n2 in range(20, 101, 10):
                base = basic_driving_efficiency(n1, n2, 0.5,
                                                MeshKind.SUN_PLANET, params)
                assert basic_driving_efficiency(
                    n1 + 10, n2, 0.5, MeshKind.SUN_PLANET, params) >= base
                assert basic_driving_efficiency(
                    n1, n2 + 10, 0.5, MeshKind.SUN_PLANET, params) >= base
        # the internal mesh improves with planet teeth (ring fixed)
        for n1 in range(20, 81, 10):
            for n2 in range(max(60, n1 + 34), 201, 20):
                base = basic_driving_efficiency(n1, n2, 0.5,
                                                MeshKind.PLANET_RING, params)
                assert basic_driving_efficiency(
                    n1 + 10, n2, 0.5, MeshKind.PLANET_RING, params) >= base

    def test_internal_mesh_beats_external(self):
        # (1/N_p - 1/N_r) < (1/N_s + 1/N_p) keeps the planet-ring mesh
        # more efficient than the sun-planet mesh of the same stage
        params = EfficiencyParams()
        for ns in (20, 30, 40, 60):
            for npl in (20, 30, 50, 80):
                eta_a = basic_driving_efficiency(ns, npl, 0.5,
                                                 MeshKind.SUN_PLANET, params)
                eta_b = basic_driving_efficiency(npl, ns + 2 * npl, 0.5,
                                                 MeshKind.PLANET_RING,
                                                 params)
                assert eta_b > eta_a

    def test_out_of_range_friction_raises(self):
        # a one-tooth pinion with near-unity friction drives eta below 0
        with pytest.raises(ModelRangeError):
            basic_driving_efficiency(1, 40, 0.5, MeshKind.SUN_PLANET,
                                     EfficiencyParams(mu=0.99))


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


class TestPlanetaryEfficiency:
    def test_frozen_breakdown(self):
        br = planetary_efficiency(REFERENCE, EfficiencyParams())
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
        # three gears, three arccos calls in mesh_chain: the planet's tip
        # angle serves both meshes
        ratios = []

        def counting(x):
            ratios.append(x)
            return acos(x)

        monkeypatch.setattr(gearboxopt.efficiency, "acos", counting)
        params = EfficiencyParams()
        sound, chain = mesh_chain(0.5, 20, 40, 100, params)
        monkeypatch.undo()
        assert sound
        assert sorted(acos(x) for x in ratios) == sorted(
            tip_pressure_angle(teeth, 0.5, role, ALPHA) for teeth, role in
            ((20, GearRole.SUN), (40, GearRole.PLANET), (100, GearRole.RING)))
        br = EfficiencyBreakdown(*chain)
        assert br.eps_b2 == br.eps_a1
        assert br.eta_a == basic_driving_efficiency(20, 40, 0.5,
                                                    MeshKind.SUN_PLANET,
                                                    params)
        assert br.eta_b == basic_driving_efficiency(40, 100, 0.5,
                                                    MeshKind.PLANET_RING,
                                                    params)

    @pytest.mark.parametrize("mu, alpha_deg", [
        (0.06, 20.0), (0.0, 20.0), (0.4, 25.0), (0.9, 14.5), (0.06, 40.0)])
    def test_equals_mesh_helpers_exactly(self, mu, alpha_deg):
        # mesh_chain, the scoring path, against the mesh-by-mesh helpers
        # of planetary_efficiency: equal floats when every verdict passes,
        # and a failed verdict exactly when the helpers raise, a failed
        # mesh efficiency with ModelRangeError and a degenerate tooth form
        # with a tip-circle error
        params = EfficiencyParams(mu=mu, pressure_angle_rad=radians(
            alpha_deg))
        outcomes = []
        for sun in (1, 2, 3, 5, 12, 20, 31):
            for planet in (1, 2, 4, 9, 17, 40):
                for ring in (2, 3, 13, 33, sun + 2 * planet, 160):
                    design = GearboxDesign(
                        arch=Architecture.ESSPG, sun_teeth=sun,
                        planet_teeth=planet, ring_teeth=ring, module_mm=0.7,
                        num_planets=3)
                    sound, chain = mesh_chain(0.7, sun, planet, ring, params)
                    if sound and chain[6] > 0 and chain[7] > 0:
                        assert chain == astuple(
                            planetary_efficiency(design, params)), design
                        outcomes.append(None)
                        continue
                    with pytest.raises(ValueError) as raised:
                        planetary_efficiency(design, params)
                    assert (raised.type is ModelRangeError) == sound, design
                    outcomes.append(raised.type)
        assert None in outcomes and GeometryInfeasibleError in outcomes

    def test_second_design_frozen(self):
        d = GearboxDesign(arch=Architecture.ESSPG, sun_teeth=25,
                          planet_teeth=65, ring_teeth=155, module_mm=0.5,
                          num_planets=3)
        br = planetary_efficiency(d, EfficiencyParams())
        assert br.eta_overall == pytest.approx(ETA_25_65_155, rel=REL)

    def test_architecture_tag_is_irrelevant(self):
        params = EfficiencyParams()
        internal = planetary_efficiency(REFERENCE, params)
        external = planetary_efficiency(
            replace(REFERENCE, arch=Architecture.ESSPG), params)
        assert internal == external

    def test_module_is_irrelevant(self):
        # the module cancels analytically in every tip angle, so a
        # rescaled design matches to rounding error on each field
        params = EfficiencyParams()
        base = planetary_efficiency(REFERENCE, params)
        scaled = planetary_efficiency(replace(REFERENCE, module_mm=1.2),
                                      params)
        for field in ("eps_a1", "eps_a2", "eps_b1", "eps_b2", "eps_a",
                      "eps_b", "eta_a", "eta_b", "eta_overall"):
            assert getattr(scaled, field) \
                == pytest.approx(getattr(base, field), rel=1e-12)
