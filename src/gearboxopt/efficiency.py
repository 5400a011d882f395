"""
Meshing efficiency of a single-stage planetary gearbox.

The per-mesh model is the classical sliding-friction estimate for
involute spur gears: approach and recess contact ratios are computed
from tip pressure angles, combined into a loss parameter, and scaled by
the friction coefficient and the tooth counts of the mesh. The stage
efficiency blends the two mesh efficiencies with the sun and ring tooth
counts (fixed ring, sun input, carrier output); it is identical for the
ISSPG and ESSPG layouts.

Conventions: the external sun-planet mesh uses sign +1, the internal
planet-ring mesh uses sign -1. Profile shift coefficients are 0.
"""

import logging
from dataclasses import dataclass
from enum import Enum
from math import acos, cos, pi, radians, tan

from .geometry import GearboxDesign, GearRole, base_diameter, tip_diameter

logger = logging.getLogger(__name__)


class ModelRangeError(ValueError):
    """An efficiency input drives the friction model out of its valid range."""


class GeometryInfeasibleError(ValueError):
    """Tooth form is degenerate (base circle at or outside the tip circle)."""


class MeshKind(Enum):
    """Which of the two planetary meshes is being evaluated."""
    SUN_PLANET = "sun_planet"    # external-external, sign +1
    PLANET_RING = "planet_ring"  # external-internal, sign -1


@dataclass(frozen=True)
class EfficiencyParams:
    """Friction and tooth-profile inputs of the mesh-efficiency model."""
    mu: float = 0.06                             # avg tooth friction coefficient
    pressure_angle_rad: float = radians(20.0)    # involute pressure angle

    def __post_init__(self):
        if not 0 <= self.mu < 1:
            raise ValueError("mu must lie in [0, 1)")
        if not 0 < self.pressure_angle_rad < pi / 2:
            raise ValueError("pressure_angle_rad must lie in (0, pi/2)")


@dataclass(frozen=True)
class EfficiencyBreakdown:
    """All intermediate and final efficiency quantities of one design."""
    eps_a1: float       # sun-planet approach contact ratio
    eps_a2: float       # sun-planet recess contact ratio
    eps_b1: float       # planet-ring approach contact ratio
    eps_b2: float       # planet-ring recess contact ratio
    eps_a: float        # sun-planet loss parameter
    eps_b: float        # planet-ring loss parameter
    eta_a: float        # sun-planet basic driving efficiency
    eta_b: float        # planet-ring basic driving efficiency
    eta_overall: float  # stage efficiency, fixed ring / carrier output


def tip_pressure_angle(tooth_count: int, module_mm: float, role: GearRole,
                       pressure_angle_rad: float) -> float:
    """
    Pressure angle at the tooth tip, arccos(d_base/d_tip) (rad).

    The module cancels in the ratio but is kept for a uniform call
    signature with the diameter helpers.
    """
    d_b = base_diameter(tooth_count, module_mm, pressure_angle_rad)
    d_a = tip_diameter(tooth_count, module_mm, role)
    if d_b >= d_a:
        raise GeometryInfeasibleError(
            f"degenerate tooth form for {role.value} with N={tooth_count}: "
            f"base diameter {d_b:.3f} mm >= tip diameter {d_a:.3f} mm")
    return acos(d_b / d_a)


def contact_ratios(teeth_1: int, teeth_2: int, module_mm: float,
                   mesh: MeshKind,
                   pressure_angle_rad: float) -> tuple[float, float]:
    """
    Approach and recess contact ratios (eps1, eps2) of one mesh.

    Gear 1 drives, gear 2 is driven: sun-planet for SUN_PLANET (both
    external) and planet-ring for PLANET_RING (ring internal).

        eps1 = sgn * (N2 / 2pi) * (tan(tip angle of gear 2) - tan(alpha))
        eps2 =       (N1 / 2pi) * (tan(tip angle of gear 1) - tan(alpha))

    with sgn = +1 for the external mesh and -1 for the internal mesh
    (the internal tip angle is below alpha, so eps1 stays positive).
    eps1 + eps2 is the total contact ratio of the mesh, the length of
    the line of action over the base pitch pi*m*cos(alpha).
    """
    if mesh is MeshKind.PLANET_RING:
        sgn = -1.0
        role_2 = GearRole.RING
    else:
        sgn = 1.0
        role_2 = GearRole.PLANET
    angle_1 = tip_pressure_angle(teeth_1, module_mm, GearRole.SUN
                                 if mesh is MeshKind.SUN_PLANET
                                 else GearRole.PLANET, pressure_angle_rad)
    angle_2 = tip_pressure_angle(teeth_2, module_mm, role_2,
                                 pressure_angle_rad)
    tan_alpha = tan(pressure_angle_rad)
    eps1 = sgn * (teeth_2 / (2.0 * pi)) * (tan(angle_2) - tan_alpha)
    eps2 = (teeth_1 / (2.0 * pi)) * (tan(angle_1) - tan_alpha)
    return eps1, eps2


def loss_parameter(eps1: float, eps2: float) -> float:
    """
    Sliding-loss weighting eps = eps1^2 + eps2^2 - eps1 - eps2 + 1.

    Written as (eps1 - 1/2)^2 + (eps2 - 1/2)^2 + 1/2, it is bounded
    below by S^2/2 - S + 1 for the total contact ratio S = eps1 + eps2,
    with equality at eps1 = eps2 = S/2; the bound rises with S for
    S >= 1.
    """
    return eps1 * eps1 + eps2 * eps2 - eps1 - eps2 + 1.0


def basic_driving_efficiency(teeth_1: int, teeth_2: int, module_mm: float,
                             mesh: MeshKind,
                             params: EfficiencyParams) -> float:
    """
    Sliding-friction efficiency of one gear mesh:

        eta = 1 - mu*pi*(1/N1 + sgn/N2)*eps

    sgn = +1 (external mesh) or -1 (internal mesh). Raises
    ModelRangeError when the friction coefficient is unphysically high
    for the mesh (eta <= 0) instead of clamping.
    """
    eps1, eps2 = contact_ratios(teeth_1, teeth_2, module_mm, mesh,
                                params.pressure_angle_rad)
    return _mesh_efficiency(teeth_1, teeth_2, mesh, params, eps1, eps2)


def _mesh_efficiency(teeth_1: int, teeth_2: int, mesh: MeshKind,
                     params: EfficiencyParams, eps1: float,
                     eps2: float) -> float:
    """``basic_driving_efficiency`` from the mesh's contact ratios."""
    if eps1 + eps2 < 1.0:
        logger.warning(
            "total contact ratio %.3f < 1 for %s mesh N1=%d N2=%d: "
            "meshing is not continuous", eps1 + eps2, mesh.value,
            teeth_1, teeth_2)
    sgn = -1.0 if mesh is MeshKind.PLANET_RING else 1.0
    eps = loss_parameter(eps1, eps2)
    eta = 1.0 - params.mu * pi * (1.0 / teeth_1 + sgn / teeth_2) * eps
    if eta <= 0:
        raise ModelRangeError(
            f"mesh efficiency {eta:.3f} <= 0 for {mesh.value} with "
            f"N1={teeth_1}, N2={teeth_2}, mu={params.mu}")
    return eta


def overall_efficiency(sun_teeth: int, ring_teeth: int, eta_sp: float,
                       eta_pr: float) -> float:
    """
    Stage efficiency (N_s + eta_sp*eta_pr*N_r) / (N_s + N_r).

    A teeth-weighted blend of 1 and the mesh-efficiency product: the
    sun's share of the power recirculates losslessly through the
    carrier, so the result never drops below eta_sp*eta_pr.
    """
    return ((sun_teeth + eta_sp * eta_pr * ring_teeth)
            / (sun_teeth + ring_teeth))


def planetary_efficiency(design: GearboxDesign,
                         params: EfficiencyParams) -> EfficiencyBreakdown:
    """
    Full efficiency chain for one design.

    The architecture tag does not enter: both layouts share the same
    gear train and therefore the same efficiency.
    """
    alpha = params.pressure_angle_rad
    eps_a1, eps_a2 = contact_ratios(design.sun_teeth, design.planet_teeth,
                                    design.module_mm, MeshKind.SUN_PLANET,
                                    alpha)
    eps_b1, eps_b2 = contact_ratios(design.planet_teeth, design.ring_teeth,
                                    design.module_mm, MeshKind.PLANET_RING,
                                    alpha)
    eta_a = _mesh_efficiency(design.sun_teeth, design.planet_teeth,
                             MeshKind.SUN_PLANET, params, eps_a1, eps_a2)
    eta_b = _mesh_efficiency(design.planet_teeth, design.ring_teeth,
                             MeshKind.PLANET_RING, params, eps_b1, eps_b2)
    return EfficiencyBreakdown(
        eps_a1=eps_a1,
        eps_a2=eps_a2,
        eps_b1=eps_b1,
        eps_b2=eps_b2,
        eps_a=loss_parameter(eps_a1, eps_a2),
        eps_b=loss_parameter(eps_b1, eps_b2),
        eta_a=eta_a,
        eta_b=eta_b,
        eta_overall=overall_efficiency(design.sun_teeth, design.ring_teeth,
                                       eta_a, eta_b),
    )
