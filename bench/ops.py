"""
One operation process of the benchmark: set up gearboxopt from the
checkout's ``src/``, run the workload's operations, check every answer
against the stored reference, and print one JSON line for ``run.py``.

Each process is fresh, as for a user running ``gearboxopt sweep`` or
``gearboxopt eval``: nothing cached by one operation helps the next,
and set-up time is measured the way a user pays it.

    python3 bench/ops.py --workload u12 --seed 1 --index 0 --trace 0
"""

import argparse
import hashlib
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
DATA = BENCH / "data"
OUT = ROOT / ".bench_out"

SWEEP_CONFIGS = {"u12": ROOT / "configs" / "u12.yaml",
                 "scale": BENCH / "scale.yaml"}
POINT_EVAL_CONFIG = ROOT / "configs" / "u12.yaml"
POINT_EVAL_SAMPLE = 3000   # evaluate calls per operation process
POINT_EVAL_BOX_SHARE = 0.2  # chance that a draw comes from the raw box
REL_TOL = 1e-9


def close(a: float, b: float) -> bool:
    """Equal within REL_TOL relative to the larger magnitude."""
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


# --- reference data -------------------------------------------------------

def load_sweep_reference(workload: str) -> dict:
    return json.loads((DATA / f"reference_{workload}.json").read_text())


def load_pool() -> list[dict]:
    """The point-eval design pool with each design's reference answer."""
    rows = []
    lines = (DATA / "point_eval_pool.csv").read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(header, line.split(",")))
        rows.append({
            "source": row["source"], "arch": row["arch"],
            "sun_teeth": int(row["sun_teeth"]),
            "planet_teeth": int(row["planet_teeth"]),
            "ring_teeth": int(row["ring_teeth"]),
            "module_mm": float(row["module_mm"]),
            "num_planets": int(row["num_planets"]),
            "feasible": row["feasible"] == "1",
            "cost": float(row["cost"]) if row["cost"] else None,
            "mass_kg": float(row["mass_kg"]) if row["mass_kg"] else None,
            "eta": float(row["eta"]) if row["eta"] else None,
        })
    return rows


def point_eval_sample(pool: list[dict], seed: int, index: int,
                      size: int) -> list[int]:
    """
    Pool indices scored by operation process ``index`` of a run seeded
    with ``seed``. Each draw comes from the raw tooth/module/planet box
    with probability POINT_EVAL_BOX_SHARE, else from the u12 enumerated
    space; within one process no design is drawn twice.
    """
    rng = random.Random(f"point-eval:{seed}:{index}")
    by_source: dict[str, list[int]] = {"u12": [], "box": []}
    for i, row in enumerate(pool):
        by_source[row["source"]].append(i)
    from_box = sum(rng.random() < POINT_EVAL_BOX_SHARE for _ in range(size))
    picked = (rng.sample(by_source["box"], from_box)
              + rng.sample(by_source["u12"], size - from_box))
    rng.shuffle(picked)
    return picked


# --- answer checks ---------------------------------------------------------

def sweep_answer(document: dict) -> dict:
    """Per-(arch, bin) status and winner of a sweep document."""
    answer = {}
    for arch, bins in document["results"].items():
        for entry in bins:
            key = f"{arch} [{entry['bin'][0]:g}, {entry['bin'][1]:g})"
            best = entry["best"]
            if best is None:
                answer[key] = None
                continue
            design = best["design"]
            answer[key] = {
                "design": [design["sun_teeth"], design["planet_teeth"],
                           design["ring_teeth"], design["module_mm"],
                           design["num_planets"]],
                "cost": best["cost"],
                "mass_kg": best["mass_kg"]["total"],
                "eta": best["efficiency"]["eta_overall"],
            }
    return answer


def sweep_matches(document: dict, reference: dict) -> bool:
    """True when every (arch, bin) has the reference status, winner and
    cost/mass/efficiency; failure-reason strings are not compared."""
    try:
        answer = sweep_answer(document)
    except (KeyError, TypeError, IndexError):
        return False
    expected = reference["bins"]
    if answer.keys() != expected.keys():
        return False
    for key, want in expected.items():
        got = answer[key]
        if want is None or got is None:
            if want is not got:
                return False
            continue
        if (got["design"] != want["design"]
                or not all(close(got[f], want[f])
                           for f in ("cost", "mass_kg", "eta"))):
            return False
    return True


def evaluation_matches(evaluation, row: dict) -> bool:
    """Feasible flag and cost/mass/efficiency against a pool row."""
    if evaluation.feasible != row["feasible"]:
        return False
    if not row["feasible"]:
        return True
    return (close(evaluation.cost, row["cost"])
            and close(evaluation.mass.total, row["mass_kg"])
            and close(evaluation.efficiency.eta_overall, row["eta"]))


def report_digest(out_dir: Path) -> tuple[str, int, int]:
    """sha256 over every report file name and its bytes, file count,
    total bytes."""
    digest = hashlib.sha256()
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    size = 0
    for path in files:
        content = path.read_bytes()
        size += len(content)
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(len(content).to_bytes(8, "little") + content)
    return digest.hexdigest(), len(files), size


# --- the operation process --------------------------------------------------

class Clock:
    """
    CPU seconds of the calling thread, and wall seconds, since creation.

    The time metrics use the thread's CPU seconds. An operation runs
    in this one thread (workers=1), so on an idle machine the two
    agree. On a shared virtual machine the host can take the CPU away
    for a large share of wall time (steal), and thread CPU time leaves
    that out. It also leaves out the CPU that numpy's BLAS helper
    threads burn while they spin. Wall seconds go into the run record.
    """

    def __init__(self):
        self.cpu = time.thread_time()
        self.wall = time.perf_counter()

    def read(self) -> tuple[float, float]:
        return (time.thread_time() - self.cpu,
                time.perf_counter() - self.wall)


def import_gearboxopt():
    """Import gearboxopt from the checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gearboxopt
    if src not in Path(gearboxopt.__file__).resolve().parents:
        raise ImportError(f"gearboxopt imported from {gearboxopt.__file__}, "
                          f"not from {src}")
    import gearboxopt.cli
    import gearboxopt.mass
    import gearboxopt.search
    return gearboxopt


def run_sweep_op(gearboxopt, cfg, reference: dict) -> dict:
    """One full sweep with reports; timed, digested and checked."""
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="sweep-", dir=OUT))
    try:
        clock = Clock()
        document = gearboxopt.cli.run_sweep(cfg, out_dir=out_dir, workers=1)
        cpu_s, wall_s = clock.read()
        digest, files, size = report_digest(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    designs = sum(entry["candidates_examined"]
                  for bins in document["results"].values() for entry in bins)
    return {"op_s": cpu_s, "wall_s": wall_s,
            "ok": [sweep_matches(document, reference)],
            "designs": designs,
            "reports_identical": int(digest == reference["report_digest"]),
            "report_files": files, "report_bytes": size}


def run_point_eval_op(gearboxopt, ctx, seed: int, index: int) -> dict:
    """Score a seeded sample one design at a time, timing each call."""
    from gearboxopt.geometry import Architecture, GearboxDesign
    pool = load_pool()
    picked = point_eval_sample(pool, seed, index, POINT_EVAL_SAMPLE)
    designs = [GearboxDesign(arch=Architecture(pool[i]["arch"]),
                             sun_teeth=pool[i]["sun_teeth"],
                             planet_teeth=pool[i]["planet_teeth"],
                             ring_teeth=pool[i]["ring_teeth"],
                             module_mm=pool[i]["module_mm"],
                             num_planets=pool[i]["num_planets"])
               for i in picked]
    evaluate = gearboxopt.search.evaluate
    clock = time.perf_counter_ns
    latencies = []
    results = []
    pass_clock = Clock()
    for design in designs:
        t0 = clock()
        results.append(evaluate(design, ctx))
        latencies.append(clock() - t0)
    cpu_s, wall_s = pass_clock.read()
    ok = [evaluation_matches(result, pool[i])
          for result, i in zip(results, picked)]
    latencies.sort()
    return {"op_s": cpu_s, "wall_s": wall_s, "ok": ok,
            "designs": len(designs),
            "call_p50_us": latencies[len(latencies) // 2] / 1000.0,
            "call_p90_us": latencies[len(latencies) * 9 // 10] / 1000.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*SWEEP_CONFIGS, "point-eval"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and set up, then exit (warm-up)")
    args = parser.parse_args(argv)

    clock = Clock()
    gearboxopt = import_gearboxopt()
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    config = SWEEP_CONFIGS.get(args.workload, POINT_EVAL_CONFIG)
    cfg = gearboxopt.cli.load_config(config)
    bearing = gearboxopt.mass.load_bearing_model(cfg.bearing_table_path)
    ctx = gearboxopt.cli.build_context(cfg, bearing)
    setup_s, setup_wall_s = clock.read()
    if args.setup_only:
        return 0

    if args.workload == "point-eval":
        result = run_point_eval_op(gearboxopt, ctx, args.seed, args.index)
    else:
        result = run_sweep_op(gearboxopt, cfg,
                              load_sweep_reference(args.workload))
    result["setup_s"] = setup_s
    result["setup_wall_s"] = setup_wall_s
    result["numpy"] = sys.modules["numpy"].__version__
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF)
                             .ru_maxrss / 1024.0)
    if tracer is not None:
        tracer.restore()
        result["layers"] = tracer.layer_metrics()
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans_{args.workload}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
