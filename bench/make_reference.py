"""
Regenerate the benchmark's reference answers from the current code.

    python3 bench/make_reference.py

Writes ``bench/data/reference_u12.json`` and ``reference_scale.json``
(per-(arch, bin) winners and the report digest of one sweep) and
``bench/data/point_eval_pool.csv`` (the point-eval design pool, each
design with its reference answer). Run it only when a change is meant
to alter the answers; a speed-up must leave these files untouched.
"""

import json
import random
import shutil
import tempfile
from pathlib import Path

import ops

POOL_SEED = 20250616
POOL_U12 = 8000   # designs drawn from the u12 enumerated space
POOL_BOX = 2000   # designs drawn from the raw tooth/module/planet box
BOX_TEETH = (10, 100)
BOX_PLANETS = (2, 8)  # one planet makes evaluate raise, not reject


def write_sweep_reference(gearboxopt, workload: str) -> None:
    cfg = gearboxopt.cli.load_config(ops.SWEEP_CONFIGS[workload])
    ops.OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=ops.OUT))
    try:
        document = gearboxopt.cli.run_sweep(cfg, out_dir=out_dir, workers=1)
        digest, _, _ = ops.report_digest(out_dir)
    finally:
        shutil.rmtree(out_dir)
    reference = {"report_digest": digest, "bins": ops.sweep_answer(document)}
    path = ops.DATA / f"reference_{workload}.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def pool_designs(gearboxopt, cfg) -> list[tuple[str, object]]:
    from gearboxopt.geometry import Architecture, GearboxDesign
    rng = random.Random(POOL_SEED)
    space = [design for arch in (Architecture.ISSPG, Architecture.ESSPG)
             for design in gearboxopt.search.enumerate_feasible(
                 cfg.motor, arch, cfg.constraints, cfg.module_set)]
    picked = [("u12", design) for design in rng.sample(space, POOL_U12)]
    seen = {design for _, design in picked}
    while len(picked) < POOL_U12 + POOL_BOX:
        sun, planet = (rng.randint(*BOX_TEETH) for _ in range(2))
        design = GearboxDesign(arch=rng.choice(list(Architecture)),
                               sun_teeth=sun, planet_teeth=planet,
                               ring_teeth=sun + 2 * planet,
                               module_mm=rng.choice(cfg.module_set),
                               num_planets=rng.randint(*BOX_PLANETS))
        if design not in seen:
            seen.add(design)
            picked.append(("box", design))
    return picked


def write_pool(gearboxopt) -> None:
    cfg = gearboxopt.cli.load_config(ops.POINT_EVAL_CONFIG)
    ctx = gearboxopt.cli.build_context(
        cfg, gearboxopt.mass.load_bearing_model(cfg.bearing_table_path))
    lines = ["source,arch,sun_teeth,planet_teeth,ring_teeth,module_mm,"
             "num_planets,feasible,cost,mass_kg,eta"]
    for source, design in pool_designs(gearboxopt, cfg):
        result = gearboxopt.search.evaluate(design, ctx)
        values = (["1", repr(result.cost), repr(result.mass.total),
                   repr(result.efficiency.eta_overall)]
                  if result.feasible else ["0", "", "", ""])
        lines.append(",".join(
            [source, design.arch.value, str(design.sun_teeth),
             str(design.planet_teeth), str(design.ring_teeth),
             repr(design.module_mm), str(design.num_planets), *values]))
    (ops.DATA / "point_eval_pool.csv").write_text("\n".join(lines) + "\n")


def main() -> None:
    gearboxopt = ops.import_gearboxopt()
    ops.DATA.mkdir(exist_ok=True)
    for workload in ops.SWEEP_CONFIGS:
        write_sweep_reference(gearboxopt, workload)
    write_pool(gearboxopt)


if __name__ == "__main__":
    main()
