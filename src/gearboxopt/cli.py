"""
Config-driven front end: the YAML config loader, sweep orchestration
and the command line. The reports are rendered by ``gearboxopt.report``.

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
import re
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path
from typing import Any, Optional, get_args, get_origin

import yaml

from .efficiency import EfficiencyParams
from .geometry import (Architecture, ConstraintParams, GearboxDesign,
                       MotorSpec, STANDARD_MODULE_SET_MM)
from .mass import (BearingModel, MassModelParams, MaterialSpec,
                   bearing_fit_report, load_bearing_model)
from .report import (_bin_dict, _dataclass_dict, _evaluation_dict,
                     _json_text, _write_candidates_csv, comparison_md,
                     export_dimension_sheet, results_csv)
from .search import (CostWeights, EvalContext, compare_architectures,
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
    try:  # PyYAML finds the encoding and names the file in its marks
        with open(path, "rb") as handle:
            raw = yaml.load(handle, Loader=_UniqueKeyLoader)
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


def run_sweep(cfg: RunConfig, out_dir: Optional[Path] = None,
              log_candidates: bool = False,
              workers: Optional[int] = None) -> dict:
    """
    Execute the full optimization of ``cfg.architectures`` and write all
    report files.

    Returns the sweep document (the content of sweep.json). Empty bins
    are reported, not errors. A refused sweep makes no output directory
    and removes no file: ``workers`` (None or an int >= 1) and the
    architectures are checked, the search is run, the designs of each
    candidate log are listed and every other report is rendered before
    it is made. ``workers`` is otherwise ignored: the sweep is serial.
    The directory holds one sweep: every file of a name the sweep writes
    is removed before it writes, and no other file is touched.
    """
    if workers is not None and workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    architectures = _validate_architectures(cfg.architectures)
    bearing = load_bearing_model(cfg.bearing_table_path)
    ctx = build_context(cfg, bearing)
    results = {arch: optimize_bins(arch, ctx, cfg.module_set, cfg.bins)
               for arch in architectures}
    candidates = {arch: list(enumerate_feasible(
        cfg.motor, arch, cfg.constraints, cfg.module_set))
        for arch in (architectures if log_candidates else ())}

    document = {
        "config": resolved_config_dict(cfg),
        "bearing_fit": {
            column: {key: stats[key]
                     for key in ("c", "k", "r_squared",
                                 "max_relative_residual")}
            for column, stats in bearing_fit_report(bearing).items()},
        "results": {arch.value: [_bin_dict(r) for r in results[arch]]
                    for arch in architectures},
    }
    texts = {}
    if Architecture.ISSPG in results and Architecture.ESSPG in results:
        document["comparison"] = [_bin_dict(row) for row
                                  in compare_architectures(results)]
        texts["comparison.md"] = comparison_md(document)
    texts["sweep.json"] = _json_text(document) + "\n"
    for arch in architectures:
        texts[f"results_{arch.value}.csv"] = results_csv(
            document["results"][arch.value])
        for result in results[arch]:
            if result.best is not None:
                sheet = export_dimension_sheet(result.best, ctx)
                texts[f"dimension_sheet_{arch.value}_{result.lo:g}-"
                      f"{result.hi:g}.json"] = _json_text(sheet) + "\n"

    out_dir = Path(out_dir) if out_dir is not None else cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    for path in out_dir.iterdir():
        if _REPORT_NAME.fullmatch(path.name):
            path.unlink()
    for name, text in texts.items():
        (out_dir / name).write_text(text, encoding="utf-8", newline="")
    for arch, designs in candidates.items():
        _write_candidates_csv(out_dir / f"candidates_{arch.value}.csv",
                              (evaluate(design, ctx) for design in designs))
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
