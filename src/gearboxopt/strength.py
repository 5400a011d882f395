"""
Tooth-bending strength sizing via the Lewis equation.

The gear face width is the free variable: given the sun torque split
equally across the planets, the width that keeps root bending stress at
the allowable value (divided by a factor of safety) is

    b = FOS * F_t / (sigma * y * K_v * P)

with circular pitch P = pi*m, Lewis form factor y evaluated at the
weakest external gear of the stage, and the Barth velocity factor K_v
derating for pitch-line speed. All gears of the stage share this width
(single mesh plane).
"""

from dataclasses import dataclass, fields
from enum import Enum
from math import pi

import numpy as np

from .geometry import require_finite


class LewisFormula(Enum):
    """Label of the form-factor fit, the only one lewis_width uses."""
    FULL_DEPTH_20DEG = "full_depth_20deg"  # y = 0.154 - 0.912/N


class VelocityFormula(Enum):
    """Label of the velocity-factor fit, the only one lewis_width uses."""
    BARTH = "barth"  # K_v = 3 / (3 + V), V in m/s


@dataclass(frozen=True)
class StrengthParams:
    """Material allowable, safety factor, and the fits' labels."""
    allowable_bending_stress_pa: float = 138e6  # cast carbon steel
    fos: float = 2.0                            # factor of safety
    min_face_width_mm: float = 3.0              # manufacturing floor
    lewis_formula: LewisFormula = LewisFormula.FULL_DEPTH_20DEG
    velocity_formula: VelocityFormula = VelocityFormula.BARTH

    def __post_init__(self):
        require_finite(self)
        if self.allowable_bending_stress_pa <= 0:
            raise ValueError("allowable_bending_stress_pa must be positive")
        if self.fos < 1:
            raise ValueError("fos must be >= 1")
        if self.min_face_width_mm <= 0:
            raise ValueError("min_face_width_mm must be positive")
        for spec in fields(self):  # a fit label is an enum member
            if issubclass(spec.type, Enum) and not isinstance(
                    getattr(self, spec.name), spec.type):
                raise ValueError(f"{spec.name} must be a {spec.type.__name__}")


@dataclass(frozen=True)
class LoadCase:
    """Joint requirement routed to the sun gear (motor shaft limits)."""
    sun_torque_nm: float   # peak torque applied at the sun
    sun_speed_rad_s: float # speed at which the torque is delivered

    def __post_init__(self):
        require_finite(self)
        if self.sun_torque_nm < 0 or self.sun_speed_rad_s < 0:
            raise ValueError("load case values must be >= 0")


def lewis_form_factor(tooth_count: int) -> float:
    """
    Lewis form factor y (circular-pitch form): the 20 deg full-depth
    involute table fit y = 0.154 - 0.912/N; strictly increasing in N,
    bounded by 0.154.
    """
    return 0.154 - 0.912 / tooth_count


def dynamic_factor(pitch_speed_m_s):
    """Derating factor K_v in (0, 1] at a pitch-line speed V (m/s): the
    Barth fit K_v = 3 / (3 + V)."""
    return 3.0 / (3.0 + pitch_speed_m_s)


def lewis_width(module_mm, sun_teeth, planet_teeth, num_planets,
                load: LoadCase, params: StrengthParams) -> tuple:
    """
    Whether the Lewis model admits a design (sigma*y*K_v*P > 0, so y > 0
    and K_v > 0, and the product has not underflowed to 0), y, K_v and
    the face width (mm), at least min_face_width_mm, for one design (no
    width when not admitted) or numpy columns.

    The sun torque T is shared equally among the n_p planets at the sun
    pitch radius r_sun = m*N_s/2, so each mesh carries the tangential
    force F_t = T / (n_p * r_sun); K_v is taken at the sun's pitch-line
    speed V = omega * r_sun. y is taken at the weaker (smaller) external
    gear; the internal ring is stronger.
    """
    r_sun_m = module_mm * sun_teeth / 2.0 / 1000.0
    if r_sun_m.__class__ is float:
        minimum, maximum = min, max
    else:
        minimum, maximum = np.minimum, np.maximum
    f_t = load.sun_torque_nm / (num_planets * r_sun_m)
    y = lewis_form_factor(minimum(sun_teeth, planet_teeth))
    k_v = dynamic_factor(load.sun_speed_rad_s * r_sun_m)
    pitch_m = pi * module_mm / 1000.0  # circular pitch, meters
    strength = params.allowable_bending_stress_pa * y * k_v * pitch_m
    sound = strength > 0
    if sound is False:
        return sound, y, k_v, None
    width_m = params.fos * f_t / strength
    return sound, y, k_v, maximum(width_m * 1000.0, params.min_face_width_mm)
