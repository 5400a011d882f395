"""
gearboxopt benchmark: run one workload for a fixed time and print its
metrics as one JSON object on the last line of stdout.

    python3 bench/run.py --workload u12 --seed 1 --seconds 20 --trace 0

Workloads (see bench/README.md for why each was chosen):

- u12         full run_sweep on configs/u12.yaml, both layouts
- scale       full run_sweep on bench/scale.yaml, esspg only
- point-eval  one caller scoring a seeded sample through evaluate

Operations run serially in fresh operation processes (bench/ops.py),
one at a time, each with workers=1. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced
processes and reports the per-layer metrics of the traced ones.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("u12", "scale", "point-eval")
OP_TIMEOUT_S = 100
# extra time to wait for a first good process when the early ones crash
GRACE_S = 30
REQUIRED = ("src/gearboxopt/__init__.py", "configs/u12.yaml")
UPPER = 75  # percentile over processes at which times are reported


def percentile(values, q: int) -> float:
    """q-th percentile (1..99) with statistics' inclusive method."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_op(workload: str, seed: int, index: int, trace: int,
           setup_only: bool = False) -> dict | None:
    """Run one operation process; None when it crashed or timed out."""
    command = [sys.executable, str(BENCH / "ops.py"), "--workload", workload,
               "--seed", str(seed), "--index", str(index),
               "--trace", str(trace)]
    if setup_only:
        command.append("--setup-only")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=OP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"operation process {index} timed out", file=sys.stderr)
        return None
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        return None
    if setup_only:
        return {}
    return json.loads(done.stdout.splitlines()[-1])


def end_to_end(workload: str, ops: list[dict]) -> dict[str, float]:
    """
    End-to-end metrics of the untraced operation processes.

    Times are taken at the upper quartile over the run's processes, not
    the median: the shared machine switches between a normal and a
    faster state for seconds at a time (about 1.7x apart), and the
    median jumps between the two with the mix of states a run happens
    to see, while the upper quartile stays in the normal state unless
    most of the run is fast.
    """
    if workload == "point-eval":
        # per-call latency percentiles of each process's pass
        p50 = [op["call_p50_us"] for op in ops]
        p90 = percentile((op["call_p90_us"] for op in ops), UPPER)
    else:
        # a sweep has no single-call latency: per design is the sweep's
        # time over the designs it evaluated
        p50 = [op["op_s"] / op["designs"] * 1e6 for op in ops]
        p90 = percentile(p50, 90)
    return {
        "sweep_s": percentile((op["op_s"] for op in ops), UPPER),
        "evals_per_s": percentile((op["designs"] / op["op_s"] for op in ops),
                                  100 - UPPER),
        "eval_p50_us": percentile(p50, UPPER),
        "eval_p90_us": p90,
        "setup_s": percentile((op["setup_s"] for op in ops), UPPER),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in ops),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, float]:
    """Median over traced processes of each layer figure, plus report
    counts and the tracing overhead."""
    layers = {key: statistics.median(op["layers"][key] for op in traced)
              for key in traced[0]["layers"]}
    sweeps = [op for op in plain + traced if "report_files" in op]
    layers["cli.report_files"] = (
        statistics.median(op["report_files"] for op in sweeps)
        if sweeps else 0)
    layers["cli.report_bytes"] = (
        statistics.median(op["report_bytes"] for op in sweeps)
        if sweeps else 0)
    layers["cli.reports_identical"] = sum(op["reports_identical"]
                                          for op in sweeps)
    layers["trace.overhead_s"] = (
        statistics.median(op["op_s"] for op in traced)
        - statistics.median(op["op_s"] for op in plain))
    return layers


def src_line_count() -> int:
    return sum(len(path.read_text().splitlines())
               for path in (ROOT / "src").rglob("*.py"))


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(numpy_version: str) -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": git_commit(),
            "src_lines": src_line_count()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [name for name in REQUIRED if not (ROOT / name).is_file()]
    if missing:
        print(f"not a gearboxopt checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    # compiles bytecode and warms the file cache; not measured
    if run_op(args.workload, args.seed, 0, 0, setup_only=True) is None:
        print("gearboxopt does not set up; no result", file=sys.stderr)
        return 1

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    started = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - started
        complete = bool(plain) and (traced or not args.trace)
        if ((elapsed >= args.seconds and complete)
                or elapsed >= args.seconds + GRACE_S):
            break
        index += 1
        trace = args.trace and index % 2 == 0
        op = run_op(args.workload, args.seed, index, int(trace))
        if op is None:
            # a crashed process answered none of its operations
            attempted += 1
            failed += 1
            continue
        attempted += len(op["ok"])
        failed += op["ok"].count(False)
        (traced if trace else plain).append(op)
    if not plain or (args.trace and not traced):
        print("no operation process completed; no result", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(plain, traced)
    else:
        values = end_to_end(args.workload, plain)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    sweeps = [op for op in plain + traced if "reports_identical" in op]
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "processes": len(plain) + len(traced),
              "sweeps": len(sweeps),
              "wall_op_s_median": statistics.median(
                  op["wall_s"] for op in plain),
              "wall_setup_s_median": statistics.median(
                  op["setup_wall_s"] for op in plain),
              "reports_identical": sum(op["reports_identical"]
                                       for op in sweeps),
              "environment": environment(plain[0]["numpy"])}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    (OUT / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
