"""
Meshing efficiency of a planetary stage
=======================================

Compute the sliding-friction losses of both meshes (sun-planet and
planet-ring) from involute contact ratios, then combine them into the
stage efficiency of a fixed-ring, carrier-output planetary train. Show
how tooth counts and the friction coefficient move the result, and
check the frictionless limit exactly.
"""

from math import acos, degrees

from gearboxopt import (Architecture, EfficiencyBreakdown, EfficiencyParams,
                        GearboxDesign, overall_efficiency)
from gearboxopt.efficiency import mesh_chain

DESIGN = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                       planet_teeth=40, ring_teeth=100, module_mm=0.5,
                       num_planets=3)


def efficiency_chain(design: GearboxDesign,
                     params: EfficiencyParams) -> EfficiencyBreakdown:
    """The whole efficiency chain of one design, as evaluate computes it."""
    _, fields, _ = mesh_chain(design.module_mm, design.sun_teeth,
                              design.planet_teeth, design.ring_teeth, params)
    return EfficiencyBreakdown(*fields)


def main() -> None:
    params = EfficiencyParams()  # 20 degree pressure angle, mu = 0.06
    d = DESIGN

    # tip pressure angles: where the involute leaves the tooth tip,
    # arccos of the base over the tip circle diameter
    print("tip pressure angles, degrees")
    *_, circles = mesh_chain(d.module_mm, d.sun_teeth, d.planet_teeth,
                             d.ring_teeth, params)
    for gear, (_, base, tip) in zip(("sun", "planet", "ring"), circles):
        print(f"  {gear:<7} {degrees(acos(base / tip)):6.2f}")
    print()

    # approach/recess contact ratios of each mesh and the loss
    # parameter they combine into
    chain = efficiency_chain(d, params)
    print("contact ratios (approach, recess) and loss parameter")
    print(f"  sun-planet   ({chain.eps_a1:.4f}, {chain.eps_a2:.4f}) -> "
          f"{chain.eps_a:.4f}")
    print(f"  planet-ring  ({chain.eps_b1:.4f}, {chain.eps_b2:.4f}) -> "
          f"{chain.eps_b:.4f}")
    print()

    # per-mesh basic driving efficiencies and the stage blend: the
    # sun's share of the power passes through the carrier without
    # meshing losses, so the stage beats the plain mesh product
    eta_sp, eta_pr = chain.eta_a, chain.eta_b
    eta = overall_efficiency(d.sun_teeth, d.ring_teeth, eta_sp, eta_pr)
    print(f"mesh efficiencies: sun-planet {eta_sp:.6f}, "
          f"planet-ring {eta_pr:.6f}")
    print(f"plain product {eta_sp * eta_pr:.6f} vs stage blend "
          f"{eta:.6f}")
    print(f"the chain's own stage efficiency: eta_overall = "
          f"{chain.eta_overall:.6f}")
    print()

    # sensitivity to the friction coefficient, including the exact
    # frictionless limit at mu = 0
    print("friction sensitivity")
    print("  mu     eta_overall")
    for mu in (0.0, 0.03, 0.06, 0.09, 0.12):
        point = efficiency_chain(d, EfficiencyParams(mu=mu))
        print(f"  {mu:.2f}   {point.eta_overall:.6f}")
    frictionless = efficiency_chain(d, EfficiencyParams(mu=0.0))
    print(f"  frictionless limit is exact: "
          f"{frictionless.eta_overall == 1.0}")
    print()

    # more teeth mean shorter sliding arcs per unit pitch: compare a
    # coarse and a fine train at the same 6.0:1 reduction
    fine = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=25,
                         planet_teeth=50, ring_teeth=125, module_mm=0.5,
                         num_planets=3)
    print("tooth-count sensitivity at 6.0:1")
    for variant in (d, fine):
        point = efficiency_chain(variant, params)
        print(f"  Ns={variant.sun_teeth:<3} Np={variant.planet_teeth:<3} "
              f"Nr={variant.ring_teeth:<4} eta = "
              f"{point.eta_overall:.6f}")


if __name__ == "__main__":
    main()
