"""
Involute geometry of a single-stage planetary gearbox
=====================================================

Walk through the decision vector (sun teeth, planet teeth, ring teeth,
module, planet count), the circle diameters of each gear, and every
feasibility rule the search applies, on a 6.0:1 design that fits inside
the stator bore of a large-gap outrunner motor.
"""

from gearboxopt import (Architecture, ConstraintParams, EfficiencyParams,
                        GearboxDesign, MotorSpec, constraint_failures,
                        interference_margin_mm, max_gearbox_diameter)
from gearboxopt.efficiency import mesh_chain

TOOTH_FORM = EfficiencyParams()  # 20 degree standard full-depth involute

# the motor whose envelope the gearbox must share (datasheet values)
MOTOR = MotorSpec(outer_diameter_mm=105.6, stator_inner_diameter_mm=65.0,
                  height_mm=46.5, mass_kg=0.765, max_torque_nm=3.0,
                  max_speed_rad_s=418.9, name="U12")

# a reduction stage built entirely inside the stator bore
DESIGN = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                       planet_teeth=40, ring_teeth=100, module_mm=0.5,
                       num_planets=3)

RULES = ConstraintParams()


def main() -> None:
    d = DESIGN
    print("decision vector")
    print(f"  architecture   {d.arch.value} (gearbox inside the stator)")
    print(f"  teeth          sun {d.sun_teeth}, planet {d.planet_teeth}, "
          f"ring {d.ring_teeth}")
    print(f"  module         {d.module_mm} mm")
    print(f"  planet count   {d.num_planets}")
    print(f"  gear ratio     {d.gear_ratio:.4f} (carrier speed per sun "
          "speed)")
    print(f"  reduction      {d.reduction_ratio:.1f}:1")
    print()

    # the three circles that define an involute gear: pitch (where the
    # module lives), base (where the involute starts), tip (outer or,
    # for the internal ring, inner boundary of the teeth), as the
    # efficiency model draws them
    print("circle diameters, mm (pitch / base / tip)")
    *_, circles = mesh_chain(d.module_mm, d.sun_teeth, d.planet_teeth,
                             d.ring_teeth, TOOTH_FORM)
    for gear, (pitch, base, tip) in zip(("sun", "planet", "ring"),
                                        circles):
        print(f"  {gear:<7} {pitch:7.3f} / {base:7.3f} / {tip:7.3f}")
    print()

    # feasibility rules, one by one, under the names constraint_failures
    # reports for the rules a design fails
    failures = constraint_failures(d, MOTOR, RULES)
    margin = interference_margin_mm(d.module_mm, d.sun_teeth,
                                    d.planet_teeth, d.num_planets)
    envelope = max_gearbox_diameter(MOTOR, d.arch, RULES)
    print("feasibility rules (rule: holds)")
    for rule, meaning in (
            ("geometric", "ring = sun + 2*planet"),
            ("meshing", "(sun + ring) divisible by planet count"),
            ("planet_interference",
             f"{margin:.2f} mm between adjacent planet tips (needs >= "
             f"{RULES.planet_clearance_mm:.0f})"),
            ("module_range", f"module in [{RULES.module_min_mm}, "
             f"{RULES.module_max_mm}] mm"),
            ("undercutting", f"sun and planet >= {RULES.min_teeth} teeth"),
            ("tooth_count_cap",
             f"sun and planet within the tooth cap ({RULES.max_teeth})"),
            ("ring_diameter", f"pitch ring {d.module_mm * d.ring_teeth:.1f}"
             f" mm inside the {envelope:.1f} mm bound"),
            ("planet_count", f"{RULES.min_planets} to {RULES.max_planets} "
             "planets")):
        print(f"  {rule:<20} {meaning}: {rule not in failures}")
    print()

    # the same checks as a single named-failure report
    print("constraint report for the design:", failures or "feasible")

    # push the ring one size class up and watch the envelope rule trip
    big = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                        planet_teeth=46, ring_teeth=112, module_mm=0.5,
                        num_planets=3)
    print("constraint report for a 56 mm ring:",
          constraint_failures(big, MOTOR, RULES))

    # the identical gear train mounted outside the stator has a wider
    # envelope (motor OD instead of stator bore) and becomes feasible
    external = GearboxDesign(arch=Architecture.ESSPG, sun_teeth=20,
                             planet_teeth=46, ring_teeth=112,
                             module_mm=0.5, num_planets=3)
    print("same train as an external stage:",
          constraint_failures(external, MOTOR, RULES) or "feasible")


if __name__ == "__main__":
    main()
