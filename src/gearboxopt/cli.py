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
byte-identical reports. Every JSON text, the reports' and ``eval``'s,
comes from ``_json_text``, whose bytes equal ``json.dumps(...,
sort_keys=True, indent=2, allow_nan=False)``.
"""

import argparse
import csv
import re
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from json.encoder import encode_basestring_ascii
from math import isfinite
from pathlib import Path
from typing import Any, Iterable, Optional, get_args, get_origin

import yaml

from .efficiency import EfficiencyParams, mesh_chain
from .geometry import (Architecture, ConstraintParams, GearboxDesign,
                       MotorSpec, STANDARD_MODULE_SET_MM)
from .mass import (_FITTED_COLUMNS, BearingModel, MassModelParams,
                   MaterialSpec, bearing_fit_report, bearing_value,
                   component_masses, gearbox_stack_height_mm,
                   load_bearing_model)
from .search import (BinComparison, BinResult, CostWeights,
                     DesignEvaluation, EvalContext, compare_architectures,
                     default_bins, enumerate_feasible, evaluate,
                     optimize_bins, validate_bins, validate_module_set)
from .strength import LoadCase, StrengthParams


@dataclass(frozen=True)
class _SearchSection:
    """The keys, types and defaults of the config's ``search`` section."""
    bins: list[tuple[float, float]] = field(default_factory=default_bins)
    architectures: list[Architecture] = field(
        default_factory=lambda: [Architecture.ISSPG, Architecture.ESSPG])
    module_set: list[float] = field(
        default_factory=lambda: list(STANDARD_MODULE_SET_MM))


_SECTION_CLASSES = {
    "motor": MotorSpec,
    "load": LoadCase,
    "constraints": ConstraintParams,
    "efficiency": EfficiencyParams,
    "strength": StrengthParams,
    "materials": MaterialSpec,
    "mass": MassModelParams,
    "cost": CostWeights,
    "search": _SearchSection,
}
_TOP_LEVEL_KEYS = {*_SECTION_CLASSES, "bearing_table", "output_dir"}
_ARCHS = "|".join(arch.value for arch in Architecture)
# every name ``run_sweep`` writes
_REPORT_NAME = re.compile(
    rf"sweep\.json|comparison\.md|(results|candidates)_({_ARCHS})\.csv"
    rf"|dimension_sheet_({_ARCHS})_.*\.json")


def _required(spec) -> bool:  # datasheet and requirement values
    return spec.default is MISSING and spec.default_factory is MISSING


def _validate_architectures(architectures: list[Architecture]
                            ) -> list[Architecture]:
    """Require at least one layout, each at most once: a repeat would be
    swept and reported twice."""
    if not architectures:
        raise ValueError("no architectures given")
    for i, arch in enumerate(architectures):
        if arch in architectures[:i]:
            raise ValueError(f"architecture {arch.value} given twice")
    return architectures


# checks of a whole given value, after its items are coerced
_FIELD_CHECKS = {"search.bins": validate_bins,
                 "search.module_set": validate_module_set,
                 "search.architectures": _validate_architectures}


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


def _is_float_text(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _coerce(section: str, key: str, value: Any, target: Any) -> Any:
    label = f"config {section}.{key}"
    container = get_origin(target)
    if container is list or container is tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{label}: expected a list, got {value!r}")
        kinds = get_args(target) * (len(value) if container is list else 1)
        if len(value) != len(kinds):
            raise ConfigError(
                f"{label}: expected {len(kinds)} items, got {value!r}")
        return container(_coerce(section, key, item, kind)
                         for item, kind in zip(value, kinds))
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            # YAML 1.1 reads 138.0e6 as text: it needs a signed exponent
            hint = ("; YAML needs the form 1.0e+6 for a number with an "
                    "exponent" if isinstance(value, str)
                    and _is_float_text(value) else "")
            raise ConfigError(
                f"{label}: expected a number, got {value!r}{hint}")
        try:
            return float(value)
        except OverflowError:  # an integer beyond the largest float
            raise ConfigError(
                f"{label}: integer too large for a float") from None
    if target is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{label}: expected an integer, got {value!r}")
        _coerce(section, key, value, float)  # ints meet floats in the search
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
    field_map = {f.name: f for f in fields(cls)}
    unknown = set(raw) - set(field_map)
    if unknown:
        raise ConfigError(
            f"config section '{section}': unknown key "
            f"'{sorted(unknown)[0]}' (known: {', '.join(sorted(field_map))})")

    kwargs = {}
    for key in sorted(field_map):
        if key in raw:
            value = _coerce(section, key, raw[key], field_map[key].type)
            check = _FIELD_CHECKS.get(f"{section}.{key}")
            if check is not None:
                try:
                    value = check(value)
                except ValueError as exc:
                    raise ConfigError(
                        f"config {section}.{key}: {exc}") from exc
            kwargs[key] = value
        elif _required(field_map[key]):
            raise ConfigError(f"config section '{section}': missing "
                              f"required key '{key}'")
        else:
            defaults_log.append(f"{section}.{key}")
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"config section '{section}': {exc}") from exc


class _UniqueKeyLoader(yaml.SafeLoader):
    """A safe loader that refuses a key given twice in one mapping. Keys
    are compared as composed, before ``<<`` merges are flattened, so a
    key may override a merged one; by construction time a merge may
    already have flattened a merged mapping in place."""

    def compose_mapping_node(self, anchor):
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key_node, _ in node.value:
            if (key_node.tag == "tag:yaml.org,2002:merge"
                    or not isinstance(key_node, yaml.ScalarNode)):
                continue  # an unhashable key is refused on construction
            key = self.construct_object(key_node)
            if key in seen:
                raise yaml.composer.ComposerError(
                    problem=f"found repeated key {key!r}",
                    problem_mark=key_node.start_mark)
            seen.add(key)
        return node


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML run config, applying documented defaults."""
    path = Path(path)
    try:  # PyYAML finds the encoding
        raw = yaml.load(path.read_bytes(), Loader=_UniqueKeyLoader)
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
    for section, cls in _SECTION_CLASSES.items():
        if section not in raw and any(map(_required, fields(cls))):
            raise ConfigError(f"config {path}: missing required section "
                              f"'{section}'")

    defaults_log: list[str] = []
    sections = {name: _build_section(name, raw.get(name), defaults_log)
                for name in _SECTION_CLASSES}
    constraints, search = sections["constraints"], sections["search"]
    for module_mm in search.module_set:
        if not (constraints.module_min_mm <= module_mm
                <= constraints.module_max_mm):
            raise ConfigError(
                f"config search.module_set: module {module_mm:g} mm outside "
                f"the allowed range [{constraints.module_min_mm:g}, "
                f"{constraints.module_max_mm:g}] mm")

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
                     constraints=constraints,
                     efficiency=sections["efficiency"],
                     strength=sections["strength"],
                     materials=sections["materials"],
                     mass_params=sections["mass"], cost=sections["cost"],
                     **vars(search), bearing_table_path=bearing_path,
                     output_dir=output_dir,
                     applied_defaults=tuple(sorted(defaults_log)))


def build_context(cfg: RunConfig, bearing: BearingModel) -> EvalContext:
    """Bundle the immutable evaluation inputs of the search."""
    return EvalContext(motor=cfg.motor, load=cfg.load,
                       constraints=cfg.constraints,
                       efficiency=cfg.efficiency, strength=cfg.strength,
                       materials=cfg.materials, mass_params=cfg.mass_params,
                       bearing=bearing, cost=cfg.cost)


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


def resolved_config_dict(cfg: RunConfig) -> dict:
    """
    The model-relevant config with every default filled in, as echoed
    into reports. Output paths are excluded so that report bytes depend
    only on the model inputs; the bearing table is identified by name.
    """
    sections = dict(vars(cfg), mass=cfg.mass_params, search=_SearchSection(
        bins=cfg.bins, architectures=cfg.architectures,
        module_set=cfg.module_set))
    echo = {name: _dataclass_dict(sections[name])
            for name in _SECTION_CLASSES}
    echo["bearing_table"] = (cfg.bearing_table_path.name
                             if cfg.bearing_table_path else "packaged")
    echo["applied_defaults"] = list(cfg.applied_defaults)
    return echo


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


def _write_json(path: Path, document: dict) -> None:
    # the text is built first, so a value it rejects leaves no file
    path.write_text(_json_text(document) + "\n", encoding="utf-8")


_DESIGN_COLUMNS = ["sun_teeth", "planet_teeth", "ring_teeth", "module_mm",
                   "num_planets"]


def _design_cells(design: GearboxDesign) -> list:
    """The ``_DESIGN_COLUMNS`` cells of a CSV row."""
    return [getattr(design, name) for name in _DESIGN_COLUMNS]


def _write_results_csv(path: Path, results: list[BinResult]) -> None:
    scores = ["reduction_ratio", "eta_overall", "face_width_mm",
              "total_mass_kg", "cost"]
    columns = ["bin_lo", "bin_hi", "status", *_DESIGN_COLUMNS, *scores,
               "candidates_examined", "feasible_count", "empty_reason"]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(columns)
        for result in results:
            best = result.best
            cells = (["empty"] + [""] * (len(_DESIGN_COLUMNS) + len(scores))
                     if best is None else
                     ["ok", *_design_cells(best.design),
                      best.design.reduction_ratio, best.efficiency.eta_overall,
                      best.face_width_mm, best.mass.total, best.cost])
            writer.writerow([result.lo, result.hi, *cells,
                             result.candidates_examined,
                             result.feasible_count, result.empty_reason or ""])


def _write_candidates_csv(path: Path, evaluations:
                          Iterable[DesignEvaluation]) -> None:
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
            writer.writerow([*_design_cells(ev.design),
                             ev.design.reduction_ratio, ev.feasible, *scores])


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
    path.write_text("\n".join(lines), encoding="utf-8")


def run_sweep(cfg: RunConfig, out_dir: Optional[Path] = None,
              log_candidates: bool = False,
              workers: Optional[int] = None) -> dict:
    """
    Execute the full optimization of ``cfg.architectures`` and write all
    report files.

    Returns the sweep document (the content of sweep.json). Empty bins
    are reported, not errors. A refused sweep makes no output directory:
    ``workers`` (None or an int >= 1) and the architectures are checked,
    and the search is run, before it is made. ``workers`` is otherwise
    ignored: the sweep is serial. The directory holds one sweep: every
    file of a name the sweep writes is removed before it writes, and no
    other file is touched.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    architectures = _validate_architectures(cfg.architectures)
    bearing = load_bearing_model(cfg.bearing_table_path)
    ctx = build_context(cfg, bearing)
    results = {arch: optimize_bins(arch, ctx, cfg.module_set, cfg.bins)
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
        "results": {arch.value: [_bin_dict(r) for r in results[arch]]
                    for arch in architectures},
    }
    comparison = None
    if (Architecture.ISSPG in results and Architecture.ESSPG in results):
        comparison = compare_architectures(results)
        document["comparison"] = [_bin_dict(row) for row in comparison]

    out_dir = Path(out_dir) if out_dir is not None else cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in out_dir.iterdir():
        if _REPORT_NAME.fullmatch(path.name):
            path.unlink()
    _write_json(out_dir / "sweep.json", document)
    for arch in architectures:
        _write_results_csv(out_dir / f"results_{arch.value}.csv",
                           results[arch])
        for result in results[arch]:
            if result.best is None:
                continue
            sheet = export_dimension_sheet(result.best, ctx)
            name = (f"dimension_sheet_{arch.value}_"
                    f"{result.lo:g}-{result.hi:g}.json")
            _write_json(out_dir / name, sheet)
        if log_candidates:
            # one evaluation at a time: the rows are written as scored
            evaluations = (evaluate(design, ctx) for design
                           in enumerate_feasible(cfg.motor, arch,
                                                 cfg.constraints,
                                                 cfg.module_set))
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
        return _validate_architectures([
            Architecture(part.strip().lower())
            for part in text.split(",") if part.strip()])
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.architectures is not None:  # the echo reports what was swept
        defaults = set(cfg.applied_defaults) - {"search.architectures"}
        cfg = replace(cfg, architectures=args.architectures,
                      applied_defaults=tuple(sorted(defaults)))
    out_dir = cfg.output_dir if args.out is None else Path(args.out)
    document = run_sweep(cfg, out_dir=out_dir,
                         log_candidates=args.log_candidates)
    print(f"sweep complete: {len(cfg.bins)} bins x "
          f"{len(cfg.architectures)} architecture(s) -> {out_dir}")
    for arch in cfg.architectures:
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
    print(_json_text(_evaluation_dict(evaluation)))
    return 0


def _cmd_fit_bearings(args: argparse.Namespace) -> int:
    model = load_bearing_model(args.table)
    report = bearing_fit_report(model)
    print(f"bearing table: {len(model.table)} rows, bores "
          f"{model.bore_min_mm:g}-{model.bore_max_mm:g} mm")
    for column, stats in report.items():
        # + 0.0 turns a -0.0 of rounding noise into 0.0
        exponent = round(stats["k"], 4) + 0.0
        print(f"{column}: value ~ {stats['c']:.6g} * bore^{exponent:.4f}"
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
