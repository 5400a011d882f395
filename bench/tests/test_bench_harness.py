"""
Tests of the benchmark harness itself (not of gearboxopt).

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import ops  # noqa: E402
import tracing  # noqa: E402

gearboxopt = ops.import_gearboxopt()
DESIGN_FIELDS = ("sun_teeth", "planet_teeth", "ring_teeth", "module_mm",
                 "num_planets")


def document_from(reference: dict) -> dict:
    """A minimal sweep document whose answer is the reference's."""
    results: dict[str, list] = {}
    for key, want in reference["bins"].items():
        arch, window = key.split(" ", 1)
        lo, hi = (float(edge) for edge in window.strip("[)").split(", "))
        best = None
        if want is not None:
            best = {"design": dict(zip(DESIGN_FIELDS, want["design"])),
                    "cost": want["cost"],
                    "mass_kg": {"total": want["mass_kg"]},
                    "efficiency": {"eta_overall": want["eta"]}}
        results.setdefault(arch, []).append(
            {"bin": [lo, hi], "best": best, "candidates_examined": 1})
    return {"results": results}


def first_winner(document: dict) -> dict:
    return next(entry["best"] for bins in document["results"].values()
                for entry in bins if entry["best"] is not None)


@pytest.fixture(scope="module")
def u12_reference():
    return ops.load_sweep_reference("u12")


@pytest.fixture(scope="module")
def pool():
    return ops.load_pool()


def test_tracer_restores_original_functions():
    import importlib
    sites = [(importlib.import_module(module), attr)
             for module, attr, _, _ in tracing.CALL_SITES]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer()
    tracer.install()
    assert all(getattr(owner, attr) is not original
               for (owner, attr), original in zip(sites, originals))
    tracer.restore()
    assert all(getattr(owner, attr) is original
               for (owner, attr), original in zip(sites, originals))


def test_tracer_records_parents_and_generator_counts():
    from gearboxopt.geometry import Architecture
    cfg = gearboxopt.cli.load_config(ops.POINT_EVAL_CONFIG)
    ctx = gearboxopt.cli.build_context(
        cfg, gearboxopt.mass.load_bearing_model())
    search = gearboxopt.search
    untraced = list(search.enumerate_feasible(
        cfg.motor, Architecture.ISSPG, cfg.constraints, [0.5]))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        designs = list(search.enumerate_feasible(
            cfg.motor, Architecture.ISSPG, cfg.constraints, [0.5]))
        for design in designs[:5]:
            search.evaluate(design, ctx)
    finally:
        tracer.restore()
    assert designs == untraced
    layers = tracer.layer_metrics()
    assert layers["search.enumerate_feasible.designs"] == len(untraced)
    assert layers["search.evaluate.calls"] == 5
    assert layers["efficiency.planetary_efficiency.calls"] == 5
    evaluate_spans = {i for i, name in enumerate(tracer.names)
                      if name == "search.evaluate"}
    assert all(tracer.parents[i] in evaluate_spans
               for i, name in enumerate(tracer.names)
               if name == "mass.actuator_mass")


def test_reference_document_matches(u12_reference):
    assert ops.sweep_matches(document_from(u12_reference), u12_reference)


@pytest.mark.parametrize("perturb", ["cost", "winner", "emptied", "missing"])
def test_perturbed_sweep_answer_is_a_mismatch(u12_reference, perturb):
    document = document_from(u12_reference)
    winner = first_winner(document)
    if perturb == "cost":
        winner["cost"] *= 1 + 1e-6
    elif perturb == "winner":
        winner["design"]["planet_teeth"] += 1
    elif perturb == "emptied":
        next(entry for bins in document["results"].values()
             for entry in bins if entry["best"] is winner)["best"] = None
    else:
        del winner["efficiency"]
    assert not ops.sweep_matches(document, u12_reference)


def test_perturbed_sweep_is_counted_as_failed_operation(u12_reference,
                                                         monkeypatch):
    document = document_from(u12_reference)
    first_winner(document)["cost"] += 1e-3
    monkeypatch.setattr(gearboxopt.cli, "run_sweep",
                        lambda cfg, out_dir, workers: document)
    result = ops.run_sweep_op(gearboxopt, None, u12_reference)
    assert result["ok"] == [False]
    assert result["reports_identical"] == 0


def test_perturbed_evaluation_is_counted_as_failed_operation(pool,
                                                             monkeypatch):
    real_evaluate = gearboxopt.search.evaluate
    bumped = []

    def perturbed(design, ctx):
        result = real_evaluate(design, ctx)
        if result.feasible and not bumped:
            bumped.append(design)
            return replace(result, cost=result.cost * (1 + 1e-6))
        return result

    cfg = gearboxopt.cli.load_config(ops.POINT_EVAL_CONFIG)
    ctx = gearboxopt.cli.build_context(
        cfg, gearboxopt.mass.load_bearing_model())
    monkeypatch.setattr(ops, "POINT_EVAL_SAMPLE", 200)
    monkeypatch.setattr(gearboxopt.search, "evaluate", perturbed)
    result = ops.run_point_eval_op(gearboxopt, ctx, seed=3, index=1)
    assert len(result["ok"]) == 200
    assert result["ok"].count(False) == 1


def test_point_eval_sample_depends_only_on_seed(pool):
    size = ops.POINT_EVAL_SAMPLE
    first = ops.point_eval_sample(pool, 7, 1, size)
    assert first == ops.point_eval_sample(pool, 7, 1, size)
    assert first != ops.point_eval_sample(pool, 8, 1, size)
    assert first != ops.point_eval_sample(pool, 7, 2, size)
    assert len(set(first)) == len(first) == size
    from_box = sum(pool[i]["source"] == "box" for i in first)
    assert 0.15 < from_box / len(first) < 0.25


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "u12", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_result_line_has_the_contract_keys():
    root = BENCH.parent
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "point-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((root / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"]
                                      for m in declared["end_to_end"]}
