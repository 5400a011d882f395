"""
Reports: a sweep's records as its JSON document, a winner's dimension
sheet, and the text of each report. ``results_<arch>.csv`` and
``comparison.md`` are renderings of the sweep document alone.
"""

import csv
import io
from dataclasses import fields
from enum import Enum
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Any, Iterable

from .efficiency import mesh_chain
from .mass import (_FITTED_COLUMNS, bearing_value, component_masses,
                   gearbox_stack_height_mm)
from .search import BinComparison, BinResult, DesignEvaluation, EvalContext


def _plain(item: Any) -> Any:
    """``item`` with enum members as their values and tuples as lists."""
    if isinstance(item, Enum):
        return item.value
    if isinstance(item, (list, tuple)):
        return [_plain(entry) for entry in item]
    return item


def _dataclass_dict(value: Any) -> dict:
    """The fields of a dataclass or NamedTuple, each made ``_plain``."""
    names = (value._fields if isinstance(value, tuple)
             else [spec.name for spec in fields(value)])
    return {name: _plain(getattr(value, name)) for name in names}


def _scored_dict(evaluation: DesignEvaluation) -> dict:
    """An evaluation's design and ratio, and its scores if feasible."""
    out = {"design": _dataclass_dict(evaluation.design),
           "reduction_ratio": evaluation.design.reduction_ratio}
    if evaluation.feasible:
        out.update(efficiency=_dataclass_dict(evaluation.efficiency),
                   face_width_mm=evaluation.face_width_mm,
                   mass_kg=_dataclass_dict(evaluation.mass),
                   cost=evaluation.cost)
    return out


def _evaluation_dict(evaluation: DesignEvaluation) -> dict:
    out = dict(_scored_dict(evaluation), feasible=evaluation.feasible)
    if not evaluation.feasible:
        out["failure_reasons"] = list(evaluation.failure_reasons)
    return out


def _bin_dict(row: BinResult | BinComparison) -> dict:
    """A bin's record, its edges as one ``bin`` pair and a best design as
    ``_evaluation_dict``."""
    out = _dataclass_dict(row)
    out["bin"] = [out.pop("lo"), out.pop("hi")]
    if out.get("best") is not None:
        out["best"] = _evaluation_dict(out["best"])
    return out


def export_dimension_sheet(evaluation: DesignEvaluation,
                           ctx: EvalContext) -> dict:
    """
    Every derived dimension of one feasible design, units in the key
    names, plus its mass and efficiency summary. The gear circles are the
    ones ``mesh_chain`` scores the design at; the pin circle, carrier
    disk, output bearing and casing the ones ``component_masses`` prices
    it at.
    """
    if not evaluation.feasible:
        raise ValueError(
            "cannot export a dimension sheet for an infeasible design: "
            + "; ".join(evaluation.failure_reasons))
    design, width = evaluation.design, evaluation.face_width_mm
    mass_params = ctx.mass_params
    teeth = design.sun_teeth, design.planet_teeth, design.ring_teeth
    *_, circles = mesh_chain(design.module_mm, *teeth, ctx.efficiency)
    *_, (pin_circle, disk_od, disk_id, casing_length) = component_masses(
        design.arch, design.module_mm, design.num_planets, *teeth, width,
        ctx.motor, ctx.bearing, ctx.materials, mass_params, ctx.mass_terms)

    def bearing_entry(bore_mm: float) -> dict:
        return dict(bore_mm=bore_mm, **{
            column: bearing_value(column, bore_mm, ctx.bearing)
            for column in _FITTED_COLUMNS})

    return {
        **_scored_dict(evaluation),
        "gear_ratio": design.gear_ratio,
        "gears": {
            gear: {"teeth": count, "pitch_diameter_mm": pitch,
                   "base_diameter_mm": base, "tip_diameter_mm": tip}
            for gear, count, (pitch, base, tip)
            in zip(("sun", "planet", "ring"), teeth, circles)
        },
        "bearings": {
            "planet": bearing_entry(mass_params.planet_bearing_bore_mm),
            "input": bearing_entry(mass_params.input_bearing_bore_mm),
            "output": bearing_entry(pin_circle),
        },
        "carrier": {
            "disk_od_mm": disk_od,
            "disk_id_mm": disk_id,
            "disk_thickness_mm": mass_params.carrier_disk_thickness_mm,
            "pin_circle_diameter_mm": pin_circle,
            "pin_diameter_mm": mass_params.planet_bearing_bore_mm,
            "pin_length_mm": width + mass_params.pin_engagement_mm,
            "pin_count": design.num_planets,
        },
        "casing": {
            "od_mm": ctx.motor.outer_diameter_mm,
            "wall_mm": mass_params.casing_wall_mm,
            "length_mm": casing_length,
            "stack_height_mm": gearbox_stack_height_mm(width, mass_params),
            "base_plate_od_mm": ctx.motor.outer_diameter_mm,
            "base_plate_thickness_mm": mass_params.base_plate_thickness_mm,
        },
    }


def _json_text(value: Any, indent: str = "\n") -> str:
    """
    The text of ``json.dumps(value, sort_keys=True, indent=2,
    allow_nan=False)`` for str, finite float, None, bool, int, str-keyed
    dict, list and tuple values. Before Python 3.13 json indents only in
    its pure-Python encoder; this writer keeps its bytes and escapes
    strings in C. A non-finite float raises ``ValueError`` (JSON has no
    Infinity or NaN), any other value, a non-str key included,
    ``TypeError``.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        if not isfinite(value):
            raise ValueError("Out of range float values are not JSON "
                             f"compliant: {value!r}")
        return float.__repr__(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        # the C escaper raises TypeError on a key that is not a str
        items = [encode_basestring_ascii(key) + ": "
                 + _json_text(value[key], inner) for key in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items, brackets = [_json_text(item, inner) for item in value], "[]"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not "
                        "JSON serializable")
    if not items:
        return brackets
    return (brackets[0] + inner + ("," + inner).join(items) + indent
            + brackets[1])


_DESIGN_COLUMNS = ["sun_teeth", "planet_teeth", "ring_teeth", "module_mm",
                   "num_planets"]


def results_csv(entries: list[dict]) -> str:
    """``results_<arch>.csv`` of one layout's ``sweep.json`` results: a
    row per bin, with its best design's scores or its empty reason."""
    scores = ["reduction_ratio", "eta_overall", "face_width_mm",
              "total_mass_kg", "cost"]
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(["bin_lo", "bin_hi", "status", *_DESIGN_COLUMNS,
                     *scores, "candidates_examined", "feasible_count",
                     "empty_reason"])
    for entry in entries:
        best = entry["best"]
        cells = (["empty"] + [""] * (len(_DESIGN_COLUMNS) + len(scores))
                 if best is None else
                 ["ok", *(best["design"][name] for name in _DESIGN_COLUMNS),
                  best["reduction_ratio"], best["efficiency"]["eta_overall"],
                  best["face_width_mm"], best["mass_kg"]["total"],
                  best["cost"]])
        writer.writerow([*entry["bin"], *cells, entry["candidates_examined"],
                         entry["feasible_count"], entry["empty_reason"] or ""])
    return text.getvalue()


def comparison_md(document: dict) -> str:
    """``comparison.md`` of a sweep document of both layouts: a row per
    bin with each layout's best design, the winner and its margins."""
    config = document["config"]
    lines = [
        "# Architecture comparison", "",
        "Cost = K_m*mass - K_e*efficiency with "
        f"K_m={config['cost']['k_m']:g}, K_e={config['cost']['k_e']:g}; "
        f"friction coefficient mu={config['efficiency']['mu']:g}; motor "
        f"{config['motor']['name']}.", "",
        "| Ratio bin | ISSPG best | ESSPG best | Winner | "
        "Mass margin (kg) | Efficiency margin |",
        "|---|---|---|---|---|---|"]
    results = document["results"]
    for row, *entries in zip(document["comparison"], results["isspg"],
                             results["esspg"]):
        cells = [f"infeasible ({entry['empty_reason']})"
                 if entry["best"] is None else
                 "{mass_kg[total]:.3f} kg, eta {efficiency[eta_overall]:.4f}"
                 " (Ns={design[sun_teeth]}, Np={design[planet_teeth]}, "
                 "Nr={design[ring_teeth]}, m={design[module_mm]:g}, "
                 "np={design[num_planets]})".format(**entry["best"])
                 for entry in entries]
        mass, eta = row["mass_margin_kg"], row["efficiency_margin"]
        lo, hi = row["bin"]
        lines.append(f"| [{lo:g}, {hi:g}) | {cells[0]} | {cells[1]} | "
                     f"{row['winner'] or 'none'} | "
                     f"{'-' if mass is None else f'{mass:.3f}'} | "
                     f"{'-' if eta is None else f'{eta:.5f}'} |")
    lines.append("")
    if config["applied_defaults"]:
        lines += ["Defaults applied for: "
                  + ", ".join(config["applied_defaults"]) + ".", ""]
    return "\n".join(lines)


def _write_candidates_csv(path: Path, evaluations:
                          Iterable[DesignEvaluation]) -> None:
    """Write ``candidates_<arch>.csv`` a row at a time, as scored."""
    columns = [*_DESIGN_COLUMNS, "reduction_ratio", "feasible",
               "eta_overall", "face_width_mm", "total_mass_kg", "cost",
               "failure_reasons"]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for ev in evaluations:
            scores = ([ev.efficiency.eta_overall, ev.face_width_mm,
                       ev.mass.total, ev.cost, ""] if ev.feasible else
                      ["", "", "", "", "; ".join(ev.failure_reasons)])
            writer.writerow([*(getattr(ev.design, name)
                               for name in _DESIGN_COLUMNS),
                             ev.design.reduction_ratio, ev.feasible, *scores])
