"""Reference models: the gear circles, the mesh-efficiency chain, the
actuator mass and the layout it is priced at, derived a second time,
gear by gear, mesh by mesh and component by component.

They are the oracles of ``mesh_chain``, ``component_masses`` and the
dimension sheets, the way ``naive_rectangle`` is the search oracle:
each helper computes one quantity from the gear circles and raises
``ValueError`` at the first input outside its model, where the package
returns a verdict.
"""

from enum import Enum
from math import acos, cos, inf, pi, radians, tan

from gearboxopt import (Architecture, EfficiencyBreakdown, MassBreakdown,
                        base_plate_mass, bearing_value,
                        gearbox_stack_height_mm, loss_parameter,
                        overall_efficiency, planet_pin_mass)


# --- gear circles ------------------------------------------------------------

class GearRole(Enum):
    """Position of a gear in the planetary stage (sets tip-circle sign)."""
    SUN = "sun"
    PLANET = "planet"
    RING = "ring"


def pitch_diameter(tooth_count, module_mm):
    """Pitch circle diameter d = m*N (mm)."""
    if tooth_count < 1:
        raise ValueError("tooth_count must be >= 1")
    if module_mm <= 0:
        raise ValueError("module_mm must be positive")
    return module_mm * tooth_count


def base_diameter(tooth_count, module_mm, pressure_angle_rad):
    """Base circle diameter d_b = m*N*cos(alpha) (mm)."""
    if not 0 < pressure_angle_rad < pi / 2:
        raise ValueError("pressure_angle_rad must lie in (0, pi/2)")
    return pitch_diameter(tooth_count, module_mm) * cos(pressure_angle_rad)


def tip_diameter(tooth_count, module_mm, role):
    """Tip circle diameter d_a = m*N + sgn*2m (mm), sgn = +1 for external
    teeth (sun, planet) and -1 for the internal ring."""
    sgn = -1.0 if role is GearRole.RING else 1.0
    d_a = module_mm * tooth_count + sgn * 2.0 * module_mm
    if d_a <= 0:
        raise ValueError(
            f"degenerate ring tip circle: m*N - 2m = {d_a:.3f} mm <= 0")
    return d_a


def gear_circles(design, pressure_angle_rad):
    """The (pitch, base, tip) diameters of the sun, planet and ring."""
    return tuple(
        (pitch_diameter(teeth, design.module_mm),
         base_diameter(teeth, design.module_mm, pressure_angle_rad),
         tip_diameter(teeth, design.module_mm, role))
        for teeth, role in ((design.sun_teeth, GearRole.SUN),
                            (design.planet_teeth, GearRole.PLANET),
                            (design.ring_teeth, GearRole.RING)))


# --- mesh efficiency ---------------------------------------------------------

def tip_pressure_angle(tooth_count, module_mm, role, pressure_angle_rad):
    """Pressure angle at the tooth tip, arccos(d_base/d_tip) (rad)."""
    d_b = base_diameter(tooth_count, module_mm, pressure_angle_rad)
    d_a = tip_diameter(tooth_count, module_mm, role)
    if d_b >= d_a:
        raise ValueError(
            f"degenerate tooth form for {role.value} with N={tooth_count}: "
            f"base diameter {d_b:.3f} mm >= tip diameter {d_a:.3f} mm")
    return acos(d_b / d_a)


def contact_ratios(teeth_1, teeth_2, module_mm, internal, pressure_angle_rad):
    """Approach and recess contact ratios (eps1, eps2) of the mesh that
    gear 1 drives: sun-planet, or planet-ring when ``internal``."""
    sgn = -1.0 if internal else 1.0
    role_1, role_2 = ((GearRole.PLANET, GearRole.RING) if internal
                      else (GearRole.SUN, GearRole.PLANET))
    angle_1 = tip_pressure_angle(teeth_1, module_mm, role_1,
                                 pressure_angle_rad)
    angle_2 = tip_pressure_angle(teeth_2, module_mm, role_2,
                                 pressure_angle_rad)
    tan_alpha = tan(pressure_angle_rad)
    eps1 = sgn * (teeth_2 / (2.0 * pi)) * (tan(angle_2) - tan_alpha)
    eps2 = (teeth_1 / (2.0 * pi)) * (tan(angle_1) - tan_alpha)
    return eps1, eps2


def basic_driving_efficiency(teeth_1, teeth_2, module_mm, internal, params):
    """eta = 1 - mu*pi*(1/N1 +/- 1/N2)*eps of one mesh; raises when the
    friction drives it to 0 or below."""
    eps1, eps2 = contact_ratios(teeth_1, teeth_2, module_mm, internal,
                                radians(params.pressure_angle_deg))
    sgn = -1.0 if internal else 1.0
    eta = 1.0 - params.mu * pi * (1.0 / teeth_1 + sgn / teeth_2) \
        * loss_parameter(eps1, eps2)
    if eta <= 0:
        raise ValueError(
            f"mesh efficiency {eta:.3f} <= 0 with N1={teeth_1}, "
            f"N2={teeth_2}, mu={params.mu}")
    return eta


def planetary_efficiency(design, params) -> EfficiencyBreakdown:
    """The stage's efficiency chain, mesh by mesh."""
    m, n_s, n_p, n_r = (design.module_mm, design.sun_teeth,
                        design.planet_teeth, design.ring_teeth)
    meshes = ((n_s, n_p, False), (n_p, n_r, True))
    (eps_a1, eps_a2), (eps_b1, eps_b2) = [
        contact_ratios(n_1, n_2, m, internal,
                       radians(params.pressure_angle_deg))
        for n_1, n_2, internal in meshes]
    eta_a, eta_b = [basic_driving_efficiency(n_1, n_2, m, internal, params)
                    for n_1, n_2, internal in meshes]
    return EfficiencyBreakdown(
        eps_a1, eps_a2, eps_b1, eps_b2, loss_parameter(eps_a1, eps_a2),
        loss_parameter(eps_b1, eps_b2), eta_a, eta_b,
        overall_efficiency(n_s, n_r, eta_a, eta_b))


# --- actuator mass -----------------------------------------------------------

def _annulus_kg(density_kg_m3, length_mm, outer_mm, inner_mm):
    return (density_kg_m3 * (length_mm * pi / 4.0
                             * (outer_mm ** 2 - inner_mm ** 2)) * 1e-9)


def pin_circle_diameter_mm(design):
    """Diameter of the circle through the planet centers, m(N_s+N_p)."""
    return design.module_mm * (design.sun_teeth + design.planet_teeth)


def carrier_disk_od_mm(design):
    """Carrier disk OD: pin circle plus a planet tip-radius allowance."""
    planet_tip = tip_diameter(design.planet_teeth, design.module_mm,
                              GearRole.PLANET)
    return pin_circle_diameter_mm(design) + planet_tip / 2.0


def output_bearing_bore_mm(design):
    """Main output bearing rides the carrier at the pin circle diameter."""
    return pin_circle_diameter_mm(design)


def casing_length_mm(design, motor, face_width_mm, params):
    """ISSPG hides the train inside the stator; ESSPG adds the stack."""
    if design.arch is Architecture.ISSPG:
        return motor.height_mm
    return motor.height_mm + gearbox_stack_height_mm(face_width_mm, params)


def spur_gear_mass(tooth_count, module_mm, face_width_mm, bore_mm,
                   materials):
    """Steel cylinder at pitch diameter with a central bore (kg)."""
    d_pitch = pitch_diameter(tooth_count, module_mm)
    if bore_mm < 0:
        raise ValueError("bore_mm must be >= 0")
    if bore_mm >= d_pitch:
        raise ValueError(
            f"gear bore {bore_mm:.2f} mm >= pitch diameter {d_pitch:.2f} mm")
    return _annulus_kg(materials.steel_density_kg_m3, face_width_mm, d_pitch,
                       bore_mm)


def ring_gear_mass(ring_teeth, module_mm, face_width_mm, radial_thickness_mm,
                   materials):
    """Steel annulus from the ring tip circle out to the pitch circle plus
    twice the radial wall (kg); inf when that diameter cannot be squared."""
    if radial_thickness_mm <= 0:
        raise ValueError("radial_thickness_mm must be positive")
    inner = tip_diameter(ring_teeth, module_mm, GearRole.RING)
    if inner <= 0:
        raise ValueError(f"ring tip diameter {inner:.2f} mm <= 0")
    outer = pitch_diameter(ring_teeth, module_mm) + 2.0 * radial_thickness_mm
    if not outer * outer < inf:
        return inf
    return _annulus_kg(materials.steel_density_kg_m3, face_width_mm, outer,
                       inner)


def casing_mass(design, motor, face_width_mm, materials, params):
    """Aluminum hollow cylinder at the motor OD with a uniform wall (kg)."""
    od = motor.outer_diameter_mm
    inner = od - 2.0 * params.casing_wall_mm
    if inner <= 0:
        raise ValueError("casing wall exceeds the motor radius")
    return _annulus_kg(materials.aluminum_density_kg_m3,
                       casing_length_mm(design, motor, face_width_mm, params),
                       od, inner)


def actuator_mass(design, motor, face_width_mm, bearing, materials,
                  params) -> MassBreakdown:
    """Full actuator mass breakdown (kg), component by component."""
    m, n, width = design.module_mm, design.num_planets, face_width_mm
    shaft, planet = params.input_bearing_bore_mm, params.planet_bearing_bore_mm
    sun_bore, planet_bore = (0.0, 0.0) if params.fastener_offset else (
        shaft, planet)
    sun = spur_gear_mass(design.sun_teeth, m, width, sun_bore, materials)
    planets = n * spur_gear_mass(design.planet_teeth, m, width, planet_bore,
                                 materials)
    ring = ring_gear_mass(design.ring_teeth, m, width,
                          params.ring_radial_thickness_coeff * m, materials)
    disk_od = carrier_disk_od_mm(design)
    shaft_od = bearing_value("od_mm", shaft, bearing)
    if not shaft_od < disk_od:
        raise ValueError(f"carrier disk OD {disk_od:.1f} mm does not clear "
                         f"the {shaft_od:.1f} mm sun-shaft bearing")
    disk = _annulus_kg(materials.aluminum_density_kg_m3,
                       params.carrier_disk_thickness_mm, disk_od, shaft_od)
    bearings = [bearing_value("mass_kg", bore, bearing) for bore
                in (planet, shaft, output_bearing_bore_mm(design))]
    parts = (sun, planets, ring,
             disk + n * planet_pin_mass(width, materials, params), disk,
             n * bearings[0] + bearings[1] + bearings[2],
             casing_mass(design, motor, width, materials, params),
             base_plate_mass(motor, materials, params), motor.mass_kg)
    return MassBreakdown(*parts, sum(parts))
