"""
Config-driven front end: sweep orchestration, report emission, and
parametric dimension-sheet export.

Subcommands:

- sweep        full per-bin optimization of one or both architectures,
               writing a JSON document, CSV tables, a Markdown
               comparison, and a dimension sheet per bin winner
- eval         score a single design vector (debugging aid)
- fit-bearings print the bearing regression and its residuals

All runs are seedless and deterministic: identical configs produce
byte-identical reports.
"""

import argparse
import csv
import json
import sys
from dataclasses import dataclass, fields
from enum import Enum
from math import degrees, radians
from pathlib import Path
from typing import Any, Optional

import yaml

from .efficiency import EfficiencyParams
from .geometry import (Architecture, ConstraintParams, GearboxDesign,
                       GearRole, MotorSpec, STANDARD_MODULE_SET_MM,
                       base_diameter, pitch_diameter, tip_diameter)
from .mass import (BearingModel, MassModelParams, MaterialSpec,
                   bearing_fit_report, bearing_mass, bearing_od,
                   bearing_width, carrier_disk_od_mm, casing_length_mm,
                   gearbox_stack_height_mm, load_bearing_model,
                   output_bearing_bore_mm, pin_circle_diameter_mm)
from .search import (BinComparison, BinResult, CostWeights,
                     DesignEvaluation, EvalContext, compare_architectures,
                     default_bins, enumerate_feasible, evaluate,
                     optimize_bins, validate_bins, validate_workers)
from .strength import (LewisFormula, LoadCase, StrengthParams,
                       VelocityFormula)

_TOP_LEVEL_KEYS = {"motor", "load", "constraints", "efficiency", "strength",
                   "materials", "mass", "cost", "search", "bearing_table",
                   "output_dir"}
_SECTION_CLASSES = {
    "motor": MotorSpec,
    "load": LoadCase,
    "constraints": ConstraintParams,
    "efficiency": EfficiencyParams,
    "strength": StrengthParams,
    "materials": MaterialSpec,
    "mass": MassModelParams,
    "cost": CostWeights,
}
# fields that must come from the user (datasheet/requirement values)
_REQUIRED_FIELDS = {
    "motor": {"outer_diameter_mm", "stator_inner_diameter_mm", "height_mm",
              "mass_kg", "max_torque_nm", "max_speed_rad_s"},
    "load": {"sun_torque_nm", "sun_speed_rad_s"},
}
# config exposes the pressure angle in degrees for readability
_FIELD_ALIASES = {"efficiency": {"pressure_angle_deg": "pressure_angle_rad"}}


@dataclass(frozen=True)
class RunConfig:
    """Fully validated input of one optimization run."""
    motor: MotorSpec
    load: LoadCase
    constraints: ConstraintParams
    efficiency: EfficiencyParams
    strength: StrengthParams
    materials: MaterialSpec
    mass_params: MassModelParams
    cost: CostWeights
    bins: list[tuple[float, float]]
    architectures: list[Architecture]
    module_set: list[float]
    bearing_table_path: Optional[Path]  # None selects the packaged table
    output_dir: Path
    applied_defaults: tuple[str, ...]   # "section.key" entries not in the file


class ConfigError(ValueError):
    """A config file problem, with the offending field in the message."""


def _coerce(section: str, key: str, value: Any, target: type) -> Any:
    label = f"config {section}.{key}"
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{label}: expected a number, got {value!r}")
        return float(value)
    if target is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{label}: expected an integer, got {value!r}")
        return value
    if target is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{label}: expected true/false, got {value!r}")
        return value
    if target is str:
        if not isinstance(value, str):
            raise ConfigError(f"{label}: expected a string, got {value!r}")
        return value
    if target == Optional[int]:
        return None if value is None else _coerce(section, key, value, int)
    if isinstance(target, type) and issubclass(target, Enum):
        try:
            return target(value)
        except ValueError:
            choices = ", ".join(member.value for member in target)
            raise ConfigError(
                f"{label}: {value!r} is not one of: {choices}") from None
    raise ConfigError(f"{label}: unsupported field type {target}")


def _build_section(section: str, raw: Any,
                   defaults_log: list[str]) -> Any:
    cls = _SECTION_CLASSES[section]
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(f"config section '{section}' must be a mapping")
    aliases = _FIELD_ALIASES.get(section, {})
    field_map = {f.name: f for f in fields(cls)}
    known_keys = (set(field_map) - set(aliases.values())) | set(aliases)
    unknown = set(raw) - known_keys
    if unknown:
        raise ConfigError(
            f"config section '{section}': unknown key "
            f"'{sorted(unknown)[0]}' (known: {', '.join(sorted(known_keys))})")

    kwargs = {}
    for config_key in sorted(known_keys):
        field_name = aliases.get(config_key, config_key)
        spec = field_map[field_name]
        if config_key in raw:
            value = _coerce(section, config_key, raw[config_key], spec.type
                            if config_key not in aliases else float)
            if config_key in aliases:  # degrees in the file, radians inside
                value = radians(value)
            kwargs[field_name] = value
        elif config_key in _REQUIRED_FIELDS.get(section, set()):
            raise ConfigError(
                f"config section '{section}': missing required key "
                f"'{config_key}'")
        else:
            defaults_log.append(f"{section}.{config_key}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config section '{section}': {exc}") from exc


def _build_search_section(raw: Any, constraints: ConstraintParams,
                          defaults_log: list[str]
                          ) -> tuple[list, list, list]:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config section 'search' must be a mapping")
    unknown = set(raw) - {"bins", "architectures", "module_set"}
    if unknown:
        raise ConfigError(
            f"config section 'search': unknown key '{sorted(unknown)[0]}'")

    if "bins" in raw:
        entries = raw["bins"]
        if (not isinstance(entries, list)
                or any(not isinstance(e, list) or len(e) != 2
                       for e in entries)):
            raise ConfigError(
                "config search.bins must be a list of [lo, hi] pairs")
        bins = [(float(lo), float(hi)) for lo, hi in entries]
    else:
        bins = default_bins()
        defaults_log.append("search.bins")
    try:
        bins = validate_bins(bins)
    except ValueError as exc:
        raise ConfigError(f"config search.bins: {exc}") from exc

    if "architectures" in raw:
        entries = raw["architectures"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError(
                "config search.architectures must be a non-empty list")
        architectures = [_coerce("search", "architectures", e, Architecture)
                         for e in entries]
        if len(set(architectures)) != len(architectures):
            raise ConfigError("config search.architectures has duplicates")
    else:
        architectures = [Architecture.ISSPG, Architecture.ESSPG]
        defaults_log.append("search.architectures")

    if "module_set" in raw:
        entries = raw["module_set"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError("config search.module_set must be a non-empty "
                              "list of modules (mm)")
        module_set = sorted(_coerce("search", "module_set", e, float)
                            for e in entries)
        if len(set(module_set)) != len(module_set):
            raise ConfigError("config search.module_set has duplicates")
    else:
        module_set = list(STANDARD_MODULE_SET_MM)
        defaults_log.append("search.module_set")
    for module_mm in module_set:
        if not (constraints.module_min_mm <= module_mm
                <= constraints.module_max_mm):
            raise ConfigError(
                f"config search.module_set: module {module_mm:g} mm outside "
                f"the allowed range [{constraints.module_min_mm:g}, "
                f"{constraints.module_max_mm:g}] mm")
    return bins, architectures, module_set


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML run config, applying documented defaults."""
    path = Path(path)
    try:
        raw = yaml.safe_load(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path}: top level must be a mapping")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(
            f"config {path}: unknown top-level key '{sorted(unknown)[0]}' "
            f"(known: {', '.join(sorted(_TOP_LEVEL_KEYS))})")
    for section in ("motor", "load"):
        if section not in raw:
            raise ConfigError(f"config {path}: missing required section "
                              f"'{section}'")

    defaults_log: list[str] = []
    sections = {name: _build_section(name, raw.get(name), defaults_log)
                for name in _SECTION_CLASSES}
    bins, architectures, module_set = _build_search_section(
        raw.get("search"), sections["constraints"], defaults_log)

    if "bearing_table" in raw:
        table = _coerce("top-level", "bearing_table", raw["bearing_table"],
                        str)
        bearing_path = (path.parent / table).resolve()
        if not bearing_path.is_file():
            raise ConfigError(
                f"config bearing_table: no such file {bearing_path}")
    else:
        bearing_path = None
        defaults_log.append("bearing_table")

    if "output_dir" in raw:
        output_dir = Path(_coerce("top-level", "output_dir",
                                  raw["output_dir"], str))
    else:
        output_dir = Path("gearboxopt_out")
        defaults_log.append("output_dir")

    return RunConfig(motor=sections["motor"], load=sections["load"],
                     constraints=sections["constraints"],
                     efficiency=sections["efficiency"],
                     strength=sections["strength"],
                     materials=sections["materials"],
                     mass_params=sections["mass"], cost=sections["cost"],
                     bins=bins, architectures=architectures,
                     module_set=module_set, bearing_table_path=bearing_path,
                     output_dir=output_dir,
                     applied_defaults=tuple(sorted(defaults_log)))


def build_context(cfg: RunConfig, bearing: BearingModel) -> EvalContext:
    """Bundle the immutable evaluation inputs of the search."""
    return EvalContext(motor=cfg.motor, load=cfg.load,
                       constraints=cfg.constraints,
                       efficiency=cfg.efficiency, strength=cfg.strength,
                       materials=cfg.materials, mass_params=cfg.mass_params,
                       bearing=bearing, cost=cfg.cost)


def _dataclass_dict(value: Any) -> dict:
    out = {}
    for spec in fields(value):
        item = getattr(value, spec.name)
        if isinstance(item, Enum):
            item = item.value
        out[spec.name] = item
    return out


def resolved_config_dict(cfg: RunConfig) -> dict:
    """
    The model-relevant config with every default filled in, as echoed
    into reports. Output paths are excluded so that report bytes depend
    only on the model inputs; the bearing table is identified by name.
    """
    efficiency = _dataclass_dict(cfg.efficiency)
    angle = efficiency.pop("pressure_angle_rad")
    efficiency["pressure_angle_deg"] = degrees(angle)
    return {
        "motor": _dataclass_dict(cfg.motor),
        "load": _dataclass_dict(cfg.load),
        "constraints": _dataclass_dict(cfg.constraints),
        "efficiency": efficiency,
        "strength": _dataclass_dict(cfg.strength),
        "materials": _dataclass_dict(cfg.materials),
        "mass": _dataclass_dict(cfg.mass_params),
        "cost": _dataclass_dict(cfg.cost),
        "search": {
            "bins": [[lo, hi] for lo, hi in cfg.bins],
            "architectures": [a.value for a in cfg.architectures],
            "module_set": list(cfg.module_set),
        },
        "bearing_table": (cfg.bearing_table_path.name
                          if cfg.bearing_table_path else "packaged"),
        "applied_defaults": list(cfg.applied_defaults),
    }


def _evaluation_dict(evaluation: DesignEvaluation) -> dict:
    out = {
        "design": _dataclass_dict(evaluation.design),
        "feasible": evaluation.feasible,
        "reduction_ratio": evaluation.reduction_ratio,
    }
    if evaluation.feasible:
        out["efficiency"] = _dataclass_dict(evaluation.efficiency)
        out["face_width_mm"] = evaluation.face_width_mm
        out["mass_kg"] = evaluation.mass.as_dict()
        out["cost"] = evaluation.cost
    else:
        out["failure_reasons"] = list(evaluation.failure_reasons)
    return out


def _bin_result_dict(result: BinResult) -> dict:
    return {
        "bin": [result.lo, result.hi],
        "candidates_examined": result.candidates_examined,
        "feasible_count": result.feasible_count,
        "best": (_evaluation_dict(result.best)
                 if result.best is not None else None),
        "empty_reason": result.empty_reason,
    }


def _comparison_dict(row: BinComparison) -> dict:
    return {
        "bin": [row.lo, row.hi],
        "winner": row.winner.value if row.winner else None,
        "mass_margin_kg": row.mass_margin_kg,
        "efficiency_margin": row.efficiency_margin,
        "isspg_feasible": row.isspg_feasible,
        "esspg_feasible": row.esspg_feasible,
    }


def export_dimension_sheet(evaluation: DesignEvaluation, cfg: RunConfig,
                           bearing: BearingModel) -> dict:
    """
    Every derived dimension of one feasible design, units in the key
    names, plus its mass and efficiency summary.
    """
    if not evaluation.feasible:
        raise ValueError(
            "cannot export a dimension sheet for an infeasible design: "
            + "; ".join(evaluation.failure_reasons))
    design = evaluation.design
    alpha = cfg.efficiency.pressure_angle_rad
    width = evaluation.face_width_mm

    def gear_entry(tooth_count: int, role: GearRole) -> dict:
        return {
            "teeth": tooth_count,
            "pitch_diameter_mm": pitch_diameter(tooth_count,
                                                design.module_mm),
            "base_diameter_mm": base_diameter(tooth_count, design.module_mm,
                                              alpha),
            "tip_diameter_mm": tip_diameter(tooth_count, design.module_mm,
                                            role),
        }

    def bearing_entry(bore_mm: float) -> dict:
        return {
            "bore_mm": bore_mm,
            "od_mm": bearing_od(bore_mm, bearing),
            "width_mm": bearing_width(bore_mm, bearing),
            "mass_kg": bearing_mass(bore_mm, bearing),
        }

    mass_params = cfg.mass_params
    return {
        "design": _dataclass_dict(design),
        "reduction_ratio": design.reduction_ratio,
        "gear_ratio": design.gear_ratio,
        "gears": {
            "sun": gear_entry(design.sun_teeth, GearRole.SUN),
            "planet": gear_entry(design.planet_teeth, GearRole.PLANET),
            "ring": gear_entry(design.ring_teeth, GearRole.RING),
        },
        "face_width_mm": width,
        "bearings": {
            "planet": bearing_entry(mass_params.planet_bearing_bore_mm),
            "input": bearing_entry(mass_params.input_bearing_bore_mm),
            "output": bearing_entry(output_bearing_bore_mm(design)),
        },
        "carrier": {
            "disk_od_mm": carrier_disk_od_mm(design),
            "disk_id_mm": bearing_od(mass_params.input_bearing_bore_mm,
                                     bearing),
            "disk_thickness_mm": mass_params.carrier_disk_thickness_mm,
            "pin_circle_diameter_mm": pin_circle_diameter_mm(design),
            "pin_diameter_mm": mass_params.planet_bearing_bore_mm,
            "pin_length_mm": width + mass_params.pin_engagement_mm,
            "pin_count": design.num_planets,
        },
        "casing": {
            "od_mm": cfg.motor.outer_diameter_mm,
            "wall_mm": mass_params.casing_wall_mm,
            "length_mm": casing_length_mm(design, cfg.motor, width,
                                          mass_params),
            "stack_height_mm": gearbox_stack_height_mm(width, mass_params),
            "base_plate_od_mm": cfg.motor.outer_diameter_mm,
            "base_plate_thickness_mm": mass_params.base_plate_thickness_mm,
        },
        "efficiency": _dataclass_dict(evaluation.efficiency),
        "mass_kg": evaluation.mass.as_dict(),
        "cost": evaluation.cost,
    }


def _write_json(path: Path, document: dict) -> None:
    path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")


def _write_results_csv(path: Path, results: list[BinResult]) -> None:
    columns = ["bin_lo", "bin_hi", "status", "sun_teeth", "planet_teeth",
               "ring_teeth", "module_mm", "num_planets", "reduction_ratio",
               "eta_overall", "face_width_mm", "total_mass_kg", "cost",
               "candidates_examined", "feasible_count", "empty_reason"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for result in results:
            if result.best is None:
                writer.writerow([result.lo, result.hi, "empty", "", "", "",
                                 "", "", "", "", "", "", "",
                                 result.candidates_examined,
                                 result.feasible_count, result.empty_reason])
                continue
            best = result.best
            design = best.design
            writer.writerow([
                result.lo, result.hi, "ok", design.sun_teeth,
                design.planet_teeth, design.ring_teeth, design.module_mm,
                design.num_planets, best.reduction_ratio,
                best.efficiency.eta_overall, best.face_width_mm,
                best.mass.total, best.cost, result.candidates_examined,
                result.feasible_count, "",
            ])


def _write_candidates_csv(path: Path, evaluations:
                          list[DesignEvaluation]) -> None:
    columns = ["sun_teeth", "planet_teeth", "ring_teeth", "module_mm",
               "num_planets", "reduction_ratio", "feasible", "eta_overall",
               "face_width_mm", "total_mass_kg", "cost", "failure_reasons"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for ev in evaluations:
            d = ev.design
            if ev.feasible:
                writer.writerow([d.sun_teeth, d.planet_teeth, d.ring_teeth,
                                 d.module_mm, d.num_planets,
                                 ev.reduction_ratio, True,
                                 ev.efficiency.eta_overall, ev.face_width_mm,
                                 ev.mass.total, ev.cost, ""])
            else:
                writer.writerow([d.sun_teeth, d.planet_teeth, d.ring_teeth,
                                 d.module_mm, d.num_planets,
                                 ev.reduction_ratio, False, "", "", "", "",
                                 "; ".join(ev.failure_reasons)])


def _format_cell(result: BinResult) -> str:
    if result.best is None:
        return f"infeasible ({result.empty_reason})"
    best = result.best
    d = best.design
    return (f"{best.mass.total:.3f} kg, eta {best.efficiency.eta_overall:.4f}"
            f" (Ns={d.sun_teeth}, Np={d.planet_teeth}, Nr={d.ring_teeth},"
            f" m={d.module_mm:g}, np={d.num_planets})")


def _write_comparison_md(path: Path, cfg: RunConfig,
                         results: dict[Architecture, list[BinResult]],
                         comparison: list[BinComparison]) -> None:
    lines = ["# Architecture comparison", ""]
    lines.append(
        f"Cost = K_m*mass - K_e*efficiency with K_m={cfg.cost.k_m:g}, "
        f"K_e={cfg.cost.k_e:g}; friction coefficient mu="
        f"{cfg.efficiency.mu:g}; motor {cfg.motor.name}.")
    lines.append("")
    lines.append("| Ratio bin | ISSPG best | ESSPG best | Winner | "
                 "Mass margin (kg) | Efficiency margin |")
    lines.append("|---|---|---|---|---|---|")
    isspg = results[Architecture.ISSPG]
    esspg = results[Architecture.ESSPG]
    for row, bin_i, bin_e in zip(comparison, isspg, esspg):
        winner = row.winner.value if row.winner else "none"
        mass_margin = (f"{row.mass_margin_kg:.3f}"
                       if row.mass_margin_kg is not None else "-")
        eta_margin = (f"{row.efficiency_margin:.5f}"
                      if row.efficiency_margin is not None else "-")
        lines.append(f"| [{row.lo:g}, {row.hi:g}) | {_format_cell(bin_i)} | "
                     f"{_format_cell(bin_e)} | {winner} | {mass_margin} | "
                     f"{eta_margin} |")
    lines.append("")
    if cfg.applied_defaults:
        lines.append("Defaults applied for: "
                     + ", ".join(cfg.applied_defaults) + ".")
        lines.append("")
    path.write_text("\n".join(lines))


def run_sweep(cfg: RunConfig, architectures: Optional[list[Architecture]]
              = None, out_dir: Optional[Path] = None,
              log_candidates: bool = False,
              workers: Optional[int] = None) -> dict:
    """
    Execute the full optimization and write all report files.

    Returns the sweep document (the content of sweep.json). Empty bins
    are reported, not errors. ``workers`` is validated (None or an int
    >= 1) before anything is written and otherwise ignored: the sweep
    is serial.
    """
    validate_workers(workers)
    architectures = architectures or cfg.architectures
    out_dir = Path(out_dir) if out_dir is not None else cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)

    bearing = load_bearing_model(cfg.bearing_table_path)
    ctx = build_context(cfg, bearing)
    results = {arch: optimize_bins(arch, ctx, cfg.module_set, cfg.bins,
                                   workers)
               for arch in architectures}

    fit_report = bearing_fit_report(bearing)
    document = {
        "config": resolved_config_dict(cfg),
        "bearing_fit": {
            column: {key: stats[key]
                     for key in ("c", "k", "r_squared",
                                 "max_relative_residual")}
            for column, stats in fit_report.items()
        },
        "results": {arch.value: [_bin_result_dict(r) for r in results[arch]]
                    for arch in architectures},
    }
    comparison = None
    if (Architecture.ISSPG in results and Architecture.ESSPG in results):
        comparison = compare_architectures(results)
        document["comparison"] = [_comparison_dict(row)
                                  for row in comparison]

    _write_json(out_dir / "sweep.json", document)
    for arch in architectures:
        _write_results_csv(out_dir / f"results_{arch.value}.csv",
                           results[arch])
        for result in results[arch]:
            if result.best is None:
                continue
            sheet = export_dimension_sheet(result.best, cfg, bearing)
            name = (f"dimension_sheet_{arch.value}_"
                    f"{result.lo:g}-{result.hi:g}.json")
            _write_json(out_dir / name, sheet)
        if log_candidates:
            evaluations = [evaluate(design, ctx) for design
                           in enumerate_feasible(cfg.motor, arch,
                                                 cfg.constraints,
                                                 cfg.module_set)]
            _write_candidates_csv(out_dir / f"candidates_{arch.value}.csv",
                                  evaluations)
    if comparison is not None:
        _write_comparison_md(out_dir / "comparison.md", cfg, results,
                             comparison)
    return document


def _parse_design(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 6:
        raise argparse.ArgumentTypeError(
            "design must be Ns,Np,Nr,module_mm,num_planets,arch")
    try:
        sun, planet, ring = (int(p) for p in parts[:3])
        module_mm = float(parts[3])
        num_planets = int(parts[4])
        arch = Architecture(parts[5].strip().lower())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad design vector: {exc}") from exc
    return sun, planet, ring, module_mm, num_planets, arch


def _parse_architectures(text: str) -> list[Architecture]:
    try:
        parsed = [Architecture(part.strip().lower())
                  for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not parsed:
        raise argparse.ArgumentTypeError("no architectures given")
    return parsed


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    document = run_sweep(cfg, architectures=args.architectures,
                         out_dir=args.out,
                         log_candidates=args.log_candidates)
    out_dir = Path(args.out) if args.out else cfg.output_dir
    archs = args.architectures or cfg.architectures
    print(f"sweep complete: {len(cfg.bins)} bins x "
          f"{len(archs)} architecture(s) -> {out_dir}")
    for arch in archs:
        filled = sum(1 for entry in document["results"][arch.value]
                     if entry["best"] is not None)
        print(f"  {arch.value}: {filled}/{len(cfg.bins)} bins feasible")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    sun, planet, ring, module_mm, num_planets, arch = args.design
    design = GearboxDesign(arch=arch, sun_teeth=sun, planet_teeth=planet,
                           ring_teeth=ring, module_mm=module_mm,
                           num_planets=num_planets)
    bearing = load_bearing_model(cfg.bearing_table_path)
    evaluation = evaluate(design, build_context(cfg, bearing))
    print(json.dumps(_evaluation_dict(evaluation), sort_keys=True, indent=2))
    return 0


def _cmd_fit_bearings(args: argparse.Namespace) -> int:
    model = load_bearing_model(args.table)
    report = bearing_fit_report(model)
    print(f"bearing table: {len(model.table)} rows, bores "
          f"{model.bore_min_mm:g}-{model.bore_max_mm:g} mm")
    for column, stats in report.items():
        print(f"{column}: value ~ {stats['c']:.6g} * bore^{stats['k']:.4f}"
              f"  (R^2 = {stats['r_squared']:.4f}, max residual "
              f"{stats['max_relative_residual'] * 100.0:.1f}%)")
    print("per-row relative residuals (mass fit):")
    for row, residual in zip(model.table,
                             report["mass_kg"]["relative_residuals"]):
        print(f"  bore {row.bore_mm:5.1f} mm: table {row.mass_kg:8.4f} kg, "
              f"residual {residual * 100.0:5.1f}%")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gearboxopt",
        description="Single-stage planetary gearbox design optimization")
    subparsers = parser.add_subparsers(dest="command", required=True)

    sweep = subparsers.add_parser(
        "sweep", help="enumerate, evaluate, and pick per-bin optima")
    sweep.add_argument("--config", required=True, help="YAML run config")
    sweep.add_argument("--architectures", type=_parse_architectures,
                       default=None,
                       help="comma-separated subset, e.g. isspg,esspg")
    sweep.add_argument("--out", default=None,
                       help="output directory (overrides the config)")
    sweep.add_argument("--log-candidates", action="store_true",
                       help="also write every evaluated candidate as CSV")
    sweep.set_defaults(handler=_cmd_sweep)

    single = subparsers.add_parser(
        "eval", help="evaluate one design vector against the config")
    single.add_argument("--config", required=True, help="YAML run config")
    single.add_argument("--design", required=True, type=_parse_design,
                        help="Ns,Np,Nr,module_mm,num_planets,arch")
    single.set_defaults(handler=_cmd_eval)

    fit = subparsers.add_parser(
        "fit-bearings", help="print the bearing regression and residuals")
    fit.add_argument("--table", default=None,
                     help="bearing CSV (defaults to the packaged table)")
    fit.set_defaults(handler=_cmd_fit_bearings)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
