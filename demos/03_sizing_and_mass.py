"""
Gear sizing and actuator mass
=============================

Size the common face width of a planetary stage for a joint load case
with the Lewis bending equation, fit the bearing catalog regressions,
and add up the full actuator mass (gears, carrier, bearings, casing,
motor) for a 6.0:1 in-stator design.
"""

from gearboxopt import (Architecture, GearboxDesign, LoadCase,
                        MassBreakdown, MassModelParams, MaterialSpec,
                        MotorSpec, StrengthParams, bearing_fit_report,
                        load_bearing_model)
from gearboxopt.mass import component_masses, context_terms
from gearboxopt.strength import lewis_width

MOTOR = MotorSpec(outer_diameter_mm=105.6, stator_inner_diameter_mm=65.0,
                  height_mm=46.5, mass_kg=0.765, max_torque_nm=3.0,
                  max_speed_rad_s=418.9, name="U12")

# peak joint requirement routed to the sun gear
LOAD = LoadCase(sun_torque_nm=3.0, sun_speed_rad_s=418.9)

DESIGN = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                       planet_teeth=40, ring_teeth=100, module_mm=0.5,
                       num_planets=3)


def main() -> None:
    strength = StrengthParams()  # 138 MPa allowable, safety factor 2

    # the quantities the Lewis equation combines: the sun torque shared
    # by the planets at the sun pitch radius, and its pitch-line speed
    radius = DESIGN.module_mm * DESIGN.sun_teeth / 2.0 / 1000.0
    force = LOAD.sun_torque_nm / (DESIGN.num_planets * radius)
    velocity = LOAD.sun_speed_rad_s * radius
    _, form_factor, velocity_factor, width = lewis_width(
        DESIGN.module_mm, DESIGN.sun_teeth, DESIGN.planet_teeth,
        DESIGN.num_planets, LOAD, strength)
    print("load path at the sun-planet mesh")
    print(f"  sun pitch radius      {radius * 1000:.1f} mm")
    print(f"  tangential force      {force:.1f} N per planet")
    print(f"  pitch-line velocity   {velocity:.2f} m/s")
    print(f"  velocity factor       {velocity_factor:.4f}")
    print(f"  Lewis form factor     {form_factor:.4f} "
          "(weaker gear of the mesh)")
    print(f"  required face width   {width:.2f} mm")
    print()

    # bearing masses and sizes come from power-law fits of a deep
    # groove catalog; the report shows the fit quality per column
    bearings = load_bearing_model()
    report = bearing_fit_report(bearings)
    print("bearing catalog power-law fits, value = c * bore^k")
    for column, stats in report.items():
        print(f"  {column:<9} c = {stats['c']:.4e}  k = {stats['k']:.4f}  "
              f"R^2 = {stats['r_squared']:.4f}  worst residual = "
              f"{stats['max_relative_residual']:.1%}")
    print()

    # everything that spins or holds the stage, plus the motor
    materials, params = MaterialSpec(), MassModelParams()
    _, _, parts, dimensions = component_masses(
        DESIGN.arch, DESIGN.module_mm, DESIGN.num_planets, DESIGN.sun_teeth,
        DESIGN.planet_teeth, DESIGN.ring_teeth, width, MOTOR, bearings,
        materials, params, context_terms(MOTOR, bearings, materials, params))
    breakdown = MassBreakdown(*parts, sum(parts))
    print(f"actuator mass breakdown for the "
          f"{DESIGN.reduction_ratio:.1f}:1 in-stator design, kg")
    rows = (("sun gear", breakdown.sun),
            ("planet gears", breakdown.planets_total),
            ("ring gear", breakdown.ring),
            ("carrier and pins", breakdown.carrier),
            ("secondary carrier", breakdown.secondary_carrier),
            ("bearings", breakdown.bearings_total),
            ("casing", breakdown.casing),
            ("base plate", breakdown.base_plate),
            ("motor", breakdown.motor))
    for label, mass in rows:
        print(f"  {label:<18} {mass:7.4f}")
    print(f"  {'total':<18} {breakdown.total:7.4f}")
    print()
    pin_circle, disk_od, disk_id, casing_length = dimensions
    print(f"priced at a {pin_circle:.1f} mm pin circle (the output bearing "
          f"bore), a {disk_od:.1f}/{disk_id:.1f} mm carrier disk and a "
          f"{casing_length:.1f} mm casing")
    gearbox = breakdown.total - breakdown.motor
    print(f"the gearbox adds {gearbox * 1000:.0f} g on top of the "
          f"{breakdown.motor * 1000:.0f} g motor")


if __name__ == "__main__":
    main()
