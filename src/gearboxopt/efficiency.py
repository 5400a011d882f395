"""
Meshing efficiency of a single-stage planetary gearbox.

The per-mesh model is the classical sliding-friction estimate for
involute spur gears: approach and recess contact ratios are computed
from tip pressure angles, combined into a loss parameter, and scaled by
the friction coefficient and the tooth counts of the mesh. The stage
efficiency blends the two mesh efficiencies with the sun and ring tooth
counts (fixed ring, sun input, carrier output); it is identical for the
ISSPG and ESSPG layouts. Profile shift coefficients are 0.
"""

from dataclasses import dataclass
from math import acos, cos, nan, pi, radians, tan
from typing import NamedTuple

import numpy as np

from .geometry import per_key


@dataclass(frozen=True)
class EfficiencyParams:
    """Friction and tooth-profile inputs of the mesh-efficiency model."""
    mu: float = 0.06                  # avg tooth friction coefficient
    pressure_angle_deg: float = 20.0  # involute pressure angle

    def __post_init__(self):
        if not 0 <= self.mu < 1:
            raise ValueError("mu must lie in [0, 1)")
        if not 0 < self.pressure_angle_deg < 90:
            raise ValueError("pressure_angle_deg must lie in (0, 90)")


class EfficiencyBreakdown(NamedTuple):
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


def loss_parameter(eps1: float, eps2: float) -> float:
    """
    Sliding-loss weighting eps = eps1^2 + eps2^2 - eps1 - eps2 + 1.

    Written as (eps1 - 1/2)^2 + (eps2 - 1/2)^2 + 1/2, it is bounded
    below by S^2/2 - S + 1 for the total contact ratio S = eps1 + eps2,
    with equality at eps1 = eps2 = S/2; the bound rises with S for
    S >= 1.
    """
    return eps1 * eps1 + eps2 * eps2 - eps1 - eps2 + 1.0


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


def mesh_chain(module_mm, sun_teeth, planet_teeth, ring_teeth,
               params: EfficiencyParams, module_index=None) -> tuple:
    """
    Whether every tooth form is sound (base circle inside a positive tip
    circle), the ``EfficiencyBreakdown`` fields and the (pitch, base, tip)
    circle diameters of the sun, planet and ring (none for one unsound
    design), for one design or numpy columns.

    Each gear's pitch diameter is d = m*N, its base circle d*cos(alpha)
    and its tip circle d + 2m, or d - 2m for the internal ring (mm).

    Each gear's tip pressure angle arccos(d_base/d_tip) is computed once.
    In a mesh where gear 1 drives gear 2 (sun-planet, then planet-ring),
    the approach and recess contact ratios are

        eps1 = sgn * (N2 / 2pi) * (tan(tip angle of gear 2) - tan(alpha))
        eps2 =       (N1 / 2pi) * (tan(tip angle of gear 1) - tan(alpha))

    with sgn = +1 for the external mesh and -1 for the internal one (the
    ring's tip angle is below alpha, so eps1 stays positive); eps1 + eps2
    is the mesh's total contact ratio. The planet's recess ratio in the
    ring mesh is its approach ratio in the sun mesh. Each mesh's sliding
    efficiency is

        eta = 1 - mu*pi*(1/N1 + sgn/N2)*eps

    with eps its ``loss_parameter``; a friction coefficient that drives
    it to 0 or below is returned as such, not clamped. On columns, each
    tip angle is taken once per (tip form, ``module_index``, tooth count).
    """
    m, s, p, r = module_mm, sun_teeth, planet_teeth, ring_teeth
    alpha = radians(params.pressure_angle_deg)
    cos_alpha, addendum = cos(alpha), 2.0 * m
    pitch_s, pitch_p, pitch_r = m * s, m * p, m * r
    base_s, tip_s = pitch_s * cos_alpha, pitch_s + addendum
    base_p, tip_p = pitch_p * cos_alpha, pitch_p + addendum
    base_r, tip_r = pitch_r * cos_alpha, pitch_r - addendum
    sound = (base_s < tip_s) & (base_p < tip_p) & (base_r < tip_r)
    if sound is False:
        return sound, None, None
    if module_index is None:
        tan_p, tan_s, tan_r = (tan(acos(base_p / tip_p)),
                               tan(acos(base_s / tip_s)),
                               tan(acos(base_r / tip_r)))
    else:  # nan past acos's domain: a ring that fails tooth_form
        tan_s, tan_p, tan_r = per_key(  # one table: external, internal tips
            lambda x: tan(acos(x)) if x <= 1.0 else nan,
            np.array((base_s / tip_s, base_p / tip_p, base_r / tip_r)),
            np.array([[0], [0], [1]]), module_index, np.array((s, p, r)))
    tan_alpha = tan(alpha)
    eps_a1 = p / (2.0 * pi) * (tan_p - tan_alpha)
    eps_a2 = s / (2.0 * pi) * (tan_s - tan_alpha)
    eps_b1 = -(r / (2.0 * pi)) * (tan_r - tan_alpha)
    eps_a = loss_parameter(eps_a1, eps_a2)
    eps_b = loss_parameter(eps_b1, eps_a1)
    eta_a = 1.0 - params.mu * pi * (1.0 / s + 1.0 / p) * eps_a
    eta_b = 1.0 - params.mu * pi * (1.0 / p - 1.0 / r) * eps_b
    return sound, (eps_a1, eps_a2, eps_b1, eps_a1, eps_a, eps_b, eta_a,
                   eta_b, overall_efficiency(s, r, eta_a, eta_b)), (
        (pitch_s, base_s, tip_s), (pitch_p, base_p, tip_p),
        (pitch_r, base_r, tip_r))
