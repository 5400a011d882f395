"""
Full design sweep and architecture comparison
=============================================

Enumerate every feasible planetary stage for a motor, score each one
for efficiency and full actuator mass, keep the best design per
gear-ratio bin under the cost k_m * mass - k_e * efficiency, and
compare the in-stator layout against the external one bin by bin.

This drives the same entry point as the command line:

    gearboxopt sweep --config configs/u12.yaml --out out/
"""

import tempfile
from pathlib import Path

from gearboxopt.cli import load_config, run_sweep

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "u12.yaml"


def describe(best: dict | None, reason: str | None) -> str:
    if best is None:
        return f"empty ({reason})"
    d = best["design"]
    return (f"Ns={d['sun_teeth']:<3} Np={d['planet_teeth']:<3} "
            f"Nr={d['ring_teeth']:<4} m={d['module_mm']} "
            f"np={d['num_planets']}  "
            f"eta={best['efficiency']['eta_overall']:.4f}  "
            f"mass={best['mass_kg']['total']:.3f} kg  "
            f"cost={best['cost']:+.4f}")


def main() -> None:
    cfg = load_config(CONFIG)
    print(f"motor: {cfg.motor.name}, OD {cfg.motor.outer_diameter_mm} mm, "
          f"stator bore {cfg.motor.stator_inner_diameter_mm} mm")
    print(f"load: {cfg.load.sun_torque_nm} Nm at "
          f"{cfg.load.sun_speed_rad_s} rad/s")
    print()

    with tempfile.TemporaryDirectory() as scratch:
        out_dir = Path(scratch) / "sweep"
        document = run_sweep(cfg, out_dir=out_dir)

        # per-bin winners for each architecture
        for arch, rows in document["results"].items():
            print(f"best design per ratio bin, {arch}")
            for row in rows:
                lo, hi = row["bin"]
                print(f"  [{lo:4.1f}, {hi:4.1f})  "
                      f"{describe(row['best'], row['empty_reason'])}")
            print()

        # head-to-head verdicts
        print("architecture comparison")
        for row in document["comparison"]:
            lo, hi = row["bin"]
            if row["winner"] is None:
                verdict = "neither layout feasible"
            elif row["mass_margin_kg"] is None:
                verdict = f"only {row['winner']} feasible"
            else:
                verdict = (f"{row['winner']} wins by "
                           f"{row['mass_margin_kg'] * 1000:.0f} g")
            print(f"  [{lo:4.1f}, {hi:4.1f})  {verdict}")
        print()

        # everything is also on disk: machine-readable sweep document,
        # per-architecture CSV tables, a Markdown comparison, and a
        # dimension sheet per winning design
        print("report files")
        for path in sorted(out_dir.iterdir()):
            print(f"  {path.name}")


if __name__ == "__main__":
    main()
