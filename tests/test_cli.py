"""Config loading, report emission, and the command-line entry points."""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import fields, replace
from math import inf, nan, radians
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from gearboxopt import (Architecture, GearboxDesign, STANDARD_MODULE_SET_MM,
                        bearing_value)
import gearboxopt.cli
from gearboxopt.cli import (_SECTION_CLASSES, ConfigError, _UniqueKeyLoader,
                            _coerce, build_context, load_config, main,
                            resolved_config_dict, run_sweep)
from gearboxopt.mass import default_bearing_table_path, load_bearing_model
from gearboxopt.report import (_json_text, comparison_md,
                               export_dimension_sheet, results_csv)
from gearboxopt.search import evaluate

from reference_models import (carrier_disk_od_mm, casing_length_mm,
                              gear_circles, output_bearing_bore_mm,
                              pin_circle_diameter_mm)

MINIMAL = {
    "motor": {"name": "U12", "outer_diameter_mm": 105.6,
              "stator_inner_diameter_mm": 65.0, "height_mm": 46.5,
              "mass_kg": 0.765, "max_torque_nm": 3.0,
              "max_speed_rad_s": 418.9},
    "load": {"sun_torque_nm": 3.0, "sun_speed_rad_s": 418.9},
}


REPO = Path(__file__).resolve().parents[1]

# ``gearboxopt fit-bearings`` on the packaged table
FIT_BEARINGS_STDOUT = """\
bearing table: 13 rows, bores 10-60 mm
mass_kg: value ~ 0.000126055 * bore^1.5531  (R^2 = 0.9978, max residual 7.6%)
od_mm: value ~ 2.87007 * bore^0.7951  (R^2 = 1.0000, max residual 0.1%)
width_mm: value ~ 2.17304 * bore^0.3358  (R^2 = 0.9996, max residual 0.9%)
per-row relative residuals (mass fit):
  bore  10.0 mm: table   0.0042 kg, residual   7.3%
  bore  12.0 mm: table   0.0058 kg, residual   3.1%
  bore  15.0 mm: table   0.0085 kg, residual   0.5%
  bore  17.0 mm: table   0.0104 kg, residual   1.2%
  bore  20.0 mm: table   0.0138 kg, residual   4.2%
  bore  25.0 mm: table   0.0196 kg, residual   4.6%
  bore  30.0 mm: table   0.0260 kg, residual   4.6%
  bore  35.0 mm: table   0.0330 kg, residual   4.5%
  bore  40.0 mm: table   0.0398 kg, residual   2.5%
  bore  45.0 mm: table   0.0470 kg, residual   0.9%
  bore  50.0 mm: table   0.0543 kg, residual   1.0%
  bore  55.0 mm: table   0.0605 kg, residual   5.2%
  bore  60.0 mm: table   0.0677 kg, residual   7.6%
"""


def report_digest(out_dir):
    """sha256 over every report file name and its bytes, as the
    benchmark's reference digests are made."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        content = path.read_bytes()
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        digest.update(len(content).to_bytes(8, "little") + content)
    return digest.hexdigest()


def write_config(tmp_path, mapping, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(mapping))
    return path


def edited_bearing_table(tmp_path, column, value, rows=None):
    """The packaged bearing table with ``column`` set to the text
    ``value`` on the data rows ``rows`` (all by default), and a config of
    ``MINIMAL`` that reads it."""
    lines = default_bearing_table_path().read_text().splitlines()
    index = lines[0].split(",").index(column)
    for row in range(1, len(lines)) if rows is None else rows:
        cells = lines[row].split(",")
        cells[index] = value
        lines[row] = ",".join(cells)
    table = tmp_path / "bearings.csv"
    table.write_text("\n".join(lines) + "\n")
    return table, write_config(tmp_path, {
        **MINIMAL, "bearing_table": table.name,
        "output_dir": str(tmp_path / "out")})


def sweep_echo(config, out_dir, *options):
    """The config echo of a ``gearboxopt sweep`` of ``config``."""
    assert main(["sweep", "--config", str(config), "--out", str(out_dir),
                 *options]) == 0
    return json.loads((out_dir / "sweep.json").read_text())["config"]


def _refused_sweep(tmp_path, mapping=None, text=None):
    """The ``sweep`` argv of a config of ``mapping`` (``MINIMAL`` with an
    output directory under it) or of raw ``text``, and its path."""
    path = tmp_path / "run.yaml"
    if text is None:
        text = yaml.safe_dump({**MINIMAL, "output_dir": str(tmp_path / "out"),
                               **mapping})
    path.write_text(text)
    return ["sweep", "--config", str(path)], path


def _section_refusal(section, key, value, message):
    """A ``MINIMAL`` config with ``section.key`` set to ``value``, refused
    with ``message``."""
    def case(tmp_path, _):
        argv, _ = _refused_sweep(tmp_path, {section: {
            **MINIMAL.get(section, {}), key: value}})
        return argv, 1, f"error: {message}\n"
    return case


def _malformed_yaml(tmp_path, _):
    argv, path = _refused_sweep(tmp_path, text="motor: [1, 2\n")
    # the parser's own account of the error follows, its mark naming the
    # config file
    return argv, 1, (f"error: cannot parse config {path}: while parsing a "
                     f"flow sequence\n  in \"{path}\", line 1, column ")


def _top_level_list(tmp_path, _):
    argv, path = _refused_sweep(tmp_path, text="- motor\n- load\n")
    return argv, 1, f"error: config {path}: top level must be a mapping\n"


def _section_not_mapping(tmp_path, _):
    argv, _ = _refused_sweep(tmp_path, {"efficiency": [0.06]})
    return argv, 1, "error: config section 'efficiency' must be a mapping\n"


def _missing_bearing_table(tmp_path, _):
    argv, _ = _refused_sweep(tmp_path, {"bearing_table": "missing.csv"})
    return argv, 1, ("error: config bearing_table: no such file "
                     f"{(tmp_path / 'missing.csv').resolve()}\n")


def _repeated_key(sections, repeat, key):
    """``sections`` of ``MINIMAL``, with an output directory under it, and
    then the YAML line ``repeat``, which gives ``key`` a second time;
    refused with the key and the line of its repeat."""
    def case(tmp_path, _):
        text = yaml.safe_dump({**{name: MINIMAL[name] for name in sections},
                               "output_dir": str(tmp_path / "out")})
        argv, path = _refused_sweep(tmp_path, text=text + repeat)
        line = text.count("\n") + 1
        return argv, 1, (f"error: cannot parse config {path}: found "
                         f"repeated key '{key}'\n  in \"{path}\", "
                         f"line {line},")
    return case


def _bearing_cell_text(tmp_path, _):
    table, config = edited_bearing_table(tmp_path, "mass_kg", "abc", [3])
    return ["sweep", "--config", str(config)], 1, (
        f"error: bearing table {table} line 4: could not convert string to "
        "float: 'abc'\n")


def _fractional_tooth_count(_, u12_config_path):
    return (["eval", "--config", str(u12_config_path), "--design",
             "20.5,40,100,0.5,3,isspg"], 2,
            "argument --design: bad design vector: invalid literal for int() "
            "with base 10: '20.5'")


# each refusal: (tmp_path, u12 config) -> (argv, exit code, the start of
# stderr); an argparse refusal (exit 2) names its message after the usage
REFUSALS = {
    "motor-name-number": _section_refusal(
        "motor", "name", 5, "config motor.name: expected a string, got 5"),
    "section-not-mapping": _section_not_mapping,
    "malformed-yaml": _malformed_yaml,
    "top-level-list": _top_level_list,
    "missing-bearing-table": _missing_bearing_table,
    "fractional-tooth-count": _fractional_tooth_count,
    "bin-at-or-below-two": _section_refusal(
        "search", "bins", [[1, 2]],
        "config search.bins: bin [1.0, 2.0) holds no design: every "
        "reduction 2 + 2*N_p/N_s is above 2"),
    "negative-ring-clearance": _section_refusal(
        "constraints", "ring_clearance_mm", -1,
        "config section 'constraints': ring_clearance_mm must be >= 0"),
    "zero-density": _section_refusal(
        "materials", "steel_density_kg_m3", 0,
        "config section 'materials': densities must be positive"),
    "negative-pin-engagement": _section_refusal(
        "mass", "pin_engagement_mm", -1,
        "config section 'mass': pin_engagement_mm must be >= 0"),
    "bearing-cell-text": _bearing_cell_text,
    "repeated-section-key": _repeated_key(
        ["motor"], "load: {sun_torque_nm: 3.0, sun_speed_rad_s: 418.9, "
        "sun_torque_nm: 2.0}\n", "sun_torque_nm"),
    "repeated-section": _repeated_key(
        ["motor", "load"], "motor: {name: U12}\n", "motor"),
}


@pytest.fixture(scope="module")
def sweep_dir(u12_config_path, tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep")
    cfg = load_config(u12_config_path)
    document = run_sweep(cfg, out_dir=out, workers=1)
    return out, document


class TestLoadConfig:
    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.motor.name == "U12"
        assert cfg.load.sun_torque_nm == 3.0
        assert cfg.efficiency.mu == 0.06
        assert cfg.cost.k_m == 1.0 and cfg.cost.k_e == 2.0
        assert cfg.bins == [(float(lo), float(lo + 1))
                            for lo in range(5, 15)]
        assert cfg.architectures == [Architecture.ISSPG, Architecture.ESSPG]
        assert cfg.module_set == STANDARD_MODULE_SET_MM
        assert cfg.bearing_table_path is None
        assert "efficiency.mu" in cfg.applied_defaults
        assert "search.bins" in cfg.applied_defaults

    @pytest.mark.parametrize("text", [
        "load: {<<: {sun_torque_nm: 1.0, sun_speed_rad_s: 9.0}, "
        "sun_torque_nm: 3.0}\n",
        # the anchored mapping is flattened by the later merge of it
        # before it is built itself
        "a:\n  b: &b {<<: {x: 1}, x: 2}\nc: {<<: *b}\n"],
        ids=["override", "merged-override"])
    def test_merged_key_may_be_overridden(self, text):
        assert yaml.load(text, Loader=_UniqueKeyLoader) == yaml.safe_load(
            text)

    def test_shipped_u12_config(self, u12_config_path):
        cfg = load_config(u12_config_path)
        assert cfg.motor.outer_diameter_mm == 105.6
        assert cfg.motor.stator_inner_diameter_mm == 65.0

    def test_annotated_template_fails_on_purpose(self, u12_config_path):
        template = u12_config_path.parent / "template_annotated.yaml"
        with pytest.raises(ConfigError):
            load_config(template)

    def test_filled_template_equals_u12_defaults(self, tmp_path,
                                                 u12_config_path):
        # every optional value the template shows is the default, so once
        # its placeholders hold u12's numbers it resolves as u12.yaml does
        u12 = yaml.safe_load(u12_config_path.read_text())
        given = {**u12["motor"], **u12["load"]}
        template = u12_config_path.parent / "template_annotated.yaml"
        text, count = re.subn(
            r"^(\s+)(\w+): REQUIRED",
            lambda hit: f"{hit[1]}{hit[2]}: {given[hit[2]]!r}",
            template.read_text(), flags=re.MULTILINE)
        assert count == 8  # six motor numbers, two load numbers
        filled = tmp_path / "filled.yaml"
        filled.write_text(text)
        echo, expected = (resolved_config_dict(load_config(path))
                          for path in (filled, u12_config_path))
        for section in set(_SECTION_CLASSES) - {"motor", "load"}:
            assert echo[section] == expected[section], section
        assert echo["motor"] == dict(expected["motor"], name="my-motor")
        assert echo["load"] == expected["load"]

    def test_exponent_without_sign_is_named(self, tmp_path):
        path = write_config(tmp_path, dict(MINIMAL, strength={
            "allowable_bending_stress_pa": "138.0e6"}))
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value) == (
            "config strength.allowable_bending_stress_pa: expected a number, "
            "got '138.0e6'; YAML needs the form 1.0e+6 for a number with an "
            "exponent")
        path.write_text(path.read_text().replace("'138.0e6'", "138.0e6"))
        with pytest.raises(ConfigError, match="got '138.0e6'; YAML needs"):
            load_config(path)
        path.write_text(path.read_text().replace("138.0e6", "138.0e+6"))
        assert load_config(path).strength.allowable_bending_stress_pa == 138e6

    def test_every_section_field_type_is_coerced(self, u12_config_path):
        # a field type that _coerce does not know is refused only once a
        # config sets that key; the echo of a config sets every key of
        # every section, as YAML writes it
        cfg = load_config(u12_config_path)
        echo = resolved_config_dict(cfg)
        built = dict(vars(cfg), mass=cfg.mass_params, search=cfg)
        for section, cls in _SECTION_CLASSES.items():
            for field_ in fields(cls):
                assert _coerce(section, field_.name,
                               echo[section][field_.name], field_.type) \
                    == getattr(built[section], field_.name)

    def test_unsupported_field_type_is_named(self):
        with pytest.raises(ConfigError) as error:
            _coerce("search", "bins", {}, dict)
        assert str(error.value) == (
            "config search.bins: unsupported field type <class 'dict'>")

    def test_unknown_top_level_key(self, tmp_path):
        bad = dict(MINIMAL, extra_section={})
        with pytest.raises(ConfigError, match="extra_section"):
            load_config(write_config(tmp_path, bad))

    def test_unknown_section_key(self, tmp_path):
        bad = dict(MINIMAL, efficiency={"friction": 0.06})
        with pytest.raises(ConfigError, match="friction"):
            load_config(write_config(tmp_path, bad))

    def test_missing_required_field(self, tmp_path):
        bad = {"motor": {k: v for k, v in MINIMAL["motor"].items()
                         if k != "height_mm"},
               "load": MINIMAL["load"]}
        with pytest.raises(ConfigError, match="height_mm"):
            load_config(write_config(tmp_path, bad))

    def test_type_errors(self, tmp_path):
        bad = dict(MINIMAL, mass={"fastener_offset": 3})
        with pytest.raises(ConfigError, match="fastener_offset"):
            load_config(write_config(tmp_path, bad))
        bad = dict(MINIMAL, constraints={"min_teeth": 20.5})
        with pytest.raises(ConfigError, match="min_teeth"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("overrides, field", [
        ({"motor": {**MINIMAL["motor"], "height_mm": 10**400}},
         "motor.height_mm"),
        ({"search": {"bins": [[5, 10**400]]}}, "search.bins"),
        ({"constraints": {"min_teeth": -10**400}}, "constraints.min_teeth"),
    ], ids=["float-field", "bin-edge", "integer-field"])
    def test_integer_beyond_float_range_rejected(self, tmp_path, overrides,
                                                 field):
        # float() of such an integer raises OverflowError, not ValueError
        with pytest.raises(ConfigError,
                           match=f"config {field}: .*too large for a float"):
            load_config(write_config(tmp_path, {**MINIMAL, **overrides}))

    def test_pressure_angle_in_degrees(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, dict(MINIMAL, efficiency={"pressure_angle_deg": 25})))
        assert cfg.efficiency.pressure_angle_deg == 25.0

    @pytest.mark.parametrize("section, key", [("motor", "height_mm"),
                                              ("load", "sun_torque_nm"),
                                              ("mass", "casing_wall_mm")])
    def test_non_finite_value_rejected(self, tmp_path, section, key):
        # YAML .nan parses as a float that every ordered range check
        # lets through
        bad = dict(MINIMAL, **{section: dict(MINIMAL.get(section, {}),
                                             **{key: float("nan")})})
        assert ".nan" in yaml.safe_dump(bad)
        with pytest.raises(ConfigError,
                           match=f"config section '{section}'.*{key}.*finite"):
            load_config(write_config(tmp_path, bad))

    def test_non_finite_module_rejected(self, tmp_path):
        bad = dict(MINIMAL, search={"module_set": [0.5, float("nan")]})
        with pytest.raises(ConfigError,
                           match="config search.module_set.*finite"):
            load_config(write_config(tmp_path, bad))

    def test_module_set_must_fit_constraint_range(self, tmp_path):
        bad = dict(MINIMAL, search={"module_set": [0.5, 1.3]})
        with pytest.raises(ConfigError, match="module"):
            load_config(write_config(tmp_path, bad))

    def test_bad_bins_rejected(self, tmp_path):
        bad = dict(MINIMAL, search={"bins": [[6, 5]]})
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, bad))

    def test_infinite_bin_edge_rejected(self, tmp_path):
        # YAML .inf parses as a float edge that no window can size
        bad = dict(MINIMAL, search={"bins": [[14, float("inf")]]})
        assert ".inf" in yaml.safe_dump(bad)
        with pytest.raises(ConfigError, match="non-finite"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("edge", [True, "five"])
    def test_bin_edges_must_be_numbers(self, tmp_path, edge):
        # a bool edge would read as 1.0; a string must name the field
        bad = dict(MINIMAL, search={"bins": [[edge, 6]]})
        with pytest.raises(ConfigError, match="config search.bins"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("key, value", [
        ("bins", {"lo": 5, "hi": 6}), ("bins", 5), ("bins", [[5, 6, 7]]),
        ("module_set", "0.5"), ("architectures", []),
        ("architectures", ["spur"]),
    ], ids=["bins-mapping", "bins-scalar", "bins-three-edges",
            "module-set-string", "architectures-empty",
            "architectures-unknown"])
    def test_malformed_search_value_is_named(self, tmp_path, capsys, key,
                                             value):
        path = write_config(tmp_path, {**MINIMAL, "search": {key: value},
                                       "output_dir": str(tmp_path / "out")})
        with pytest.raises(ConfigError) as error:
            load_config(path)
        assert str(error.value).startswith(f"config search.{key}")
        assert main(["sweep", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: config search.{key}")

    def test_repeated_module_rejected(self, tmp_path):
        bad = dict(MINIMAL, search={"module_set": [0.5, 0.6, 0.5]})
        with pytest.raises(ConfigError,
                           match="config search.module_set.*twice"):
            load_config(write_config(tmp_path, bad))

    def test_repeated_architecture_rejected(self, tmp_path):
        bad = dict(MINIMAL, search={"architectures": ["isspg", "isspg"]})
        with pytest.raises(ConfigError,
                           match="config search.architectures.*twice"):
            load_config(write_config(tmp_path, bad))

    def test_architecture_subset(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, dict(MINIMAL, search={"architectures": ["isspg"]})))
        assert cfg.architectures == [Architecture.ISSPG]

    def test_bearing_table_relative_to_config(self, tmp_path):
        table = tmp_path / "bearings.csv"
        table.write_bytes(default_bearing_table_path().read_bytes())
        cfg = load_config(write_config(
            tmp_path, dict(MINIMAL, bearing_table="bearings.csv")))
        assert cfg.bearing_table_path == table
        assert load_bearing_model(cfg.bearing_table_path).table \
            == load_bearing_model().table


class TestRunSweep:
    def test_report_files_written(self, sweep_dir):
        out, document = sweep_dir
        names = {p.name for p in out.iterdir()}
        assert "sweep.json" in names
        assert "results_isspg.csv" in names
        assert "results_esspg.csv" in names
        assert "comparison.md" in names
        sheets = [n for n in names if n.startswith("dimension_sheet_")]
        assert len(sheets) == 8  # 2 ISSPG + 6 ESSPG feasible bins
        assert "dimension_sheet_isspg_6-7.json" in names

    def test_document_structure(self, sweep_dir):
        _, document = sweep_dir
        assert set(document) == {"config", "bearing_fit", "results",
                                 "comparison"}
        assert document["bearing_fit"]["mass_kg"]["r_squared"] > 0.95
        winner = document["results"]["isspg"][1]["best"]
        assert winner["design"] == {
            "arch": "isspg", "sun_teeth": 20, "planet_teeth": 40,
            "ring_teeth": 100, "module_mm": 0.5, "num_planets": 3}
        assert winner["mass_kg"]["total"] == pytest.approx(
            1.3818381711166409, rel=1e-12)
        empty = document["results"]["isspg"][2]
        assert empty["best"] is None
        assert empty["empty_reason"] == "ring_diameter"

    def test_config_echo_has_no_machine_paths(self, sweep_dir):
        _, document = sweep_dir
        echo = document["config"]
        assert echo["bearing_table"] == "packaged"
        assert "output_dir" not in echo
        assert echo["motor"]["name"] == "U12"
        assert echo["efficiency"]["pressure_angle_deg"] == pytest.approx(
            20.0)
        assert "constraints.max_teeth" in echo["applied_defaults"]

    @pytest.mark.parametrize("config, efficiency, options", [
        ("configs/u12.yaml", {}, []),
        ("bench/scale.yaml", {}, []),
        ("configs/u12.yaml", {"pressure_angle_deg": 14.5}, []),
        ("configs/u12.yaml", {}, ["--architectures", "isspg"]),
    ], ids=["u12", "scale", "u12-14.5deg", "u12-cli-isspg"])
    def test_config_echo_reloads_to_itself(self, tmp_path, capsys, config,
                                           efficiency, options):
        # the echo states the config that was swept: written back as a
        # config, it loads to the same sections
        raw = yaml.safe_load((REPO / config).read_text())
        raw["efficiency"] = efficiency
        echo = sweep_echo(write_config(tmp_path, raw), tmp_path / "first",
                          *options)
        sections = {name: value for name, value in echo.items()
                    if name not in ("bearing_table", "applied_defaults")}
        again = sweep_echo(write_config(tmp_path, sections, "echo.yaml"),
                           tmp_path / "again")
        assert {name: again[name] for name in sections} == sections
        assert echo["efficiency"]["pressure_angle_deg"] == \
            efficiency.get("pressure_angle_deg", 20.0)
        if options:
            assert echo["search"]["architectures"] == ["isspg"]
            assert "search.architectures" not in echo["applied_defaults"]

    def test_comparison_markdown(self, sweep_dir):
        out, _ = sweep_dir
        text = (out / "comparison.md").read_text()
        assert text.startswith("# Architecture comparison")
        assert "| [5, 6) |" in text
        assert "isspg" in text and "esspg" in text
        assert "ring_diameter" in text

    def test_results_csv_round_trip(self, sweep_dir):
        out, document = sweep_dir
        lines = (out / "results_isspg.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == ["bin_lo", "bin_hi", "status", "sun_teeth"]
        assert len(lines) == 11  # header + ten bins
        assert lines[2].startswith("6.0,7.0,ok,20,40,100,0.5,3,")
        assert lines[3].startswith("7.0,8.0,empty,")

    def test_dimension_sheet_contents(self, sweep_dir, u12_config_path,
                                      tmp_path):
        out, _ = sweep_dir
        sheet = json.loads(
            (out / "dimension_sheet_isspg_6-7.json").read_text())
        assert sheet["design"]["sun_teeth"] == 20
        gears = sheet["gears"]
        assert gears["sun"]["pitch_diameter_mm"] == pytest.approx(10.0)
        assert gears["ring"]["tip_diameter_mm"] == pytest.approx(49.0)
        assert sheet["bearings"]["output"]["bore_mm"] == pytest.approx(30.0)
        assert sheet["carrier"]["pin_count"] == 3
        assert sheet["casing"]["length_mm"] == pytest.approx(46.5)
        # every winner's sheet carries the gear circles it was scored at
        # and the layout its mass was priced at, to the last bit of the
        # reference model's derivation
        scale = load_config(REPO / "bench" / "scale.yaml")
        sweeps = [(load_config(u12_config_path), out),
                  (scale, tmp_path)]
        run_sweep(scale, out_dir=tmp_path)
        for cfg, directory in sweeps:
            bearing = load_bearing_model(cfg.bearing_table_path)
            params = cfg.mass_params
            sheets = sorted(directory.glob("dimension_sheet_*.json"))
            document = json.loads((directory / "sweep.json").read_text())
            assert len(sheets) == sum(
                result["best"] is not None
                for results in document["results"].values()
                for result in results) > 0
            for path in sheets:
                sheet = json.loads(path.read_text())
                design = GearboxDesign(**{
                    **sheet["design"],
                    "arch": Architecture(sheet["design"]["arch"])})
                teeth = (design.sun_teeth, design.planet_teeth,
                         design.ring_teeth)
                assert sheet["gears"] == {
                    gear: {"teeth": count, "pitch_diameter_mm": pitch,
                           "base_diameter_mm": base, "tip_diameter_mm": tip}
                    for gear, count, (pitch, base, tip) in zip(
                        ("sun", "planet", "ring"), teeth, gear_circles(
                            design,
                            radians(cfg.efficiency.pressure_angle_deg)))
                }, path.name
                carrier = sheet["carrier"]
                assert carrier["pin_circle_diameter_mm"] == \
                    pin_circle_diameter_mm(design), path.name
                assert sheet["bearings"]["output"]["bore_mm"] == \
                    output_bearing_bore_mm(design), path.name
                assert carrier["disk_od_mm"] == carrier_disk_od_mm(design)
                assert carrier["disk_id_mm"] == bearing_value(
                    "od_mm", params.input_bearing_bore_mm, bearing)
                assert sheet["casing"]["length_mm"] == casing_length_mm(
                    design, cfg.motor, sheet["face_width_mm"], params)

    def test_layout_without_room_is_reported(self, tmp_path):
        # a 65 mm ring clearance leaves the isspg ring a 0 mm bound: its
        # every bin is empty by ring_diameter, and esspg still fills one
        config = write_config(tmp_path, {
            **MINIMAL, "constraints": {"ring_clearance_mm": 65.0}})
        document = run_sweep(load_config(config), out_dir=tmp_path / "out")
        isspg, esspg = (document["results"][arch.value]
                        for arch in Architecture)
        assert [row["empty_reason"] for row in isspg] == [
            "ring_diameter"] * 10
        assert [row["empty_reason"] for row in esspg] == [
            None] + ["ring_diameter"] * 9
        assert esspg[0]["feasible_count"] == 2
        assert esspg[0]["bin"] == [5.0, 6.0]
        assert [row["winner"] for row in document["comparison"]] == [
            "esspg"] + [None] * 9

    def test_rerun_leaves_one_sweep(self, u12_config_path, tmp_path):
        # the earlier sweep's reports of both layouts and its candidate
        # logs go; a file of any other name stays
        cfg = load_config(u12_config_path)
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        run_sweep(cfg, out_dir=used)
        others = ("notes.txt", "results_old.csv", "sweep.json.bak")
        for name in ("candidates_isspg.csv", "candidates_esspg.csv",
                     *others):
            (used / name).write_text("earlier")
        isspg = replace(cfg, architectures=[Architecture.ISSPG])
        run_sweep(isspg, out_dir=used)
        for name in others:
            assert (used / name).read_text() == "earlier"
            (used / name).unlink()
        run_sweep(isspg, out_dir=fresh)
        assert report_digest(used) == report_digest(fresh)

    def test_single_architecture_run(self, u12_config_path, tmp_path):
        cfg = load_config(u12_config_path)
        document = run_sweep(replace(cfg, architectures=[Architecture.ISSPG]),
                             out_dir=tmp_path, workers=1)
        assert "comparison" not in document
        names = {p.name for p in tmp_path.iterdir()}
        assert "results_isspg.csv" in names
        assert "results_esspg.csv" not in names
        assert "comparison.md" not in names

    def test_repeated_architecture_rejected(self, u12_config_path,
                                            tmp_path):
        # rejected before the output directory is created
        out_dir = tmp_path / "sweep"
        with pytest.raises(ValueError, match="isspg given twice"):
            run_sweep(replace(load_config(u12_config_path),
                              architectures=[Architecture.ISSPG,
                                             Architecture.ISSPG]),
                      out_dir=out_dir)
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, config", [
        ("u12", REPO / "configs" / "u12.yaml"),
        ("scale", REPO / "bench" / "scale.yaml")])
    def test_reports_equal_benchmark_reference(self, name, config, tmp_path):
        run_sweep(load_config(config), out_dir=tmp_path)
        reference = json.loads(
            (REPO / "bench" / "data" / f"reference_{name}.json").read_text())
        assert report_digest(tmp_path) == reference["report_digest"]

    @pytest.mark.parametrize("config, architectures, reports", [
        ("configs/u12.yaml", None, 3), ("bench/scale.yaml", None, 1),
        ("configs/u12.yaml", [Architecture.ISSPG], 1)],
        ids=["u12", "scale", "u12-isspg"])
    def test_reports_render_from_sweep_json(self, config, architectures,
                                            reports, tmp_path):
        # the results CSVs and comparison.md say what sweep.json says:
        # rendered from the reloaded document, they equal the files
        cfg = load_config(REPO / config)
        if architectures is not None:
            cfg = replace(cfg, architectures=architectures)
        run_sweep(cfg, out_dir=tmp_path)
        document = json.loads((tmp_path / "sweep.json").read_text())
        texts = {f"results_{arch}.csv": results_csv(entries)
                 for arch, entries in document["results"].items()}
        if "comparison" in document:
            texts["comparison.md"] = comparison_md(document)
        assert len(texts) == reports
        assert set(texts) == {
            path.name for path in tmp_path.iterdir()
            if path.suffix in (".csv", ".md")}
        for name, text in texts.items():
            assert text.encode() == (tmp_path / name).read_bytes(), name

    def test_reports_reject_non_finite_numbers(self):
        # JSON has no Infinity or NaN; such a number is a bug to surface
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="JSON compliant"):
                _json_text({"cost": value})

    @pytest.mark.parametrize("value", [np.int64(3), {1, 2}, {1: 2},
                                       {"a": 1, 2: 3}],
                             ids=["numpy-int", "set", "int-key", "mixed-keys"])
    def test_reports_reject_other_types(self, value):
        with pytest.raises(TypeError):
            _json_text({"value": [value]})

    def test_rejected_report_writes_no_file(self, u12_config_path,
                                            tmp_path, monkeypatch):
        # every report is rendered before the first is written, so a
        # value the JSON text rejects leaves the directory as it was
        def sheet_of_nan(evaluation, ctx):
            return {"cost": nan}

        monkeypatch.setattr(gearboxopt.cli, "export_dimension_sheet",
                            sheet_of_nan)
        with pytest.raises(ValueError, match="JSON compliant"):
            run_sweep(load_config(u12_config_path), out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_refused_candidate_log_leaves_the_directory(self, tmp_path):
        # the esspg candidate window of a 600 mm motor exceeds the bound;
        # it is built before the directory is touched, so the earlier
        # sweep's reports stay as they were
        text = (REPO / "configs" / "u12.yaml").read_text()
        config = tmp_path / "u600.yaml"
        config.write_text(text.replace("outer_diameter_mm: 105.6",
                                       "outer_diameter_mm: 600.0"))
        used = tmp_path / "used"
        run_sweep(load_config(REPO / "configs" / "u12.yaml"), out_dir=used)
        before = report_digest(used)
        cfg = replace(load_config(config),
                      architectures=[Architecture.ESSPG])
        with pytest.raises(ValueError, match="esspg candidate window"):
            run_sweep(cfg, out_dir=used, log_candidates=True)
        assert report_digest(used) == before

    def test_dimension_sheet_rejects_infeasible(self, u12_config_path):
        cfg = load_config(u12_config_path)
        bad = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                            planet_teeth=50, ring_teeth=120, module_mm=0.5,
                            num_planets=3)
        ctx = build_context(cfg, load_bearing_model())
        with pytest.raises(ValueError, match="feasible"):
            export_dimension_sheet(evaluate(bad, ctx), ctx)


class TestCommandLine:
    def test_start_up_imports_no_logging(self):
        # numpy and yaml leave logging out; so must the package, because
        # a sweep never logs and importing logging costs every process
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parents[1] / "src"),
            env.get("PYTHONPATH")]))
        code = ("import sys, numpy, yaml\n"
                "before = set(sys.modules)\n"
                "import gearboxopt.cli\n"
                "print(sorted(m for m in set(sys.modules) - before\n"
                "             if m.split('.')[0] == 'logging'))\n")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_config_and_reports_are_utf8_in_a_c_locale(self, tmp_path,
                                                       u12_config_path):
        # a C locale makes Python's default text encoding ASCII
        config = tmp_path / "u12.yaml"
        config.write_bytes(u12_config_path.read_bytes().replace(
            b"name: U12", 'name: "U12 \u03a9"'.encode()))
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0",
                   PYTHONUTF8="0", PYTHONPATH=os.pathsep.join(filter(None, [
                       str(REPO / "src"), os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "gearboxopt.cli", "sweep", "--config",
             str(config), "--out", str(tmp_path / "c")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        run_sweep(load_config(config), out_dir=tmp_path / "utf8")
        assert report_digest(tmp_path / "c") == report_digest(
            tmp_path / "utf8")
        assert "motor U12 \u03a9." in (
            tmp_path / "c" / "comparison.md").read_text(encoding="utf-8")

    def test_sweep_command(self, u12_config_path, tmp_path, capsys):
        code = main(["sweep", "--config", str(u12_config_path),
                     "--architectures", "isspg", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "sweep complete" in out
        assert "isspg: 2/10 bins feasible" in out

    def test_empty_out_is_the_current_directory(self, u12_config_path,
                                                tmp_path, capsys,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", str(u12_config_path),
                     "--architectures", "isspg", "--out", ""]) == 0
        assert "architecture(s) -> .\n" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "dimension_sheet_isspg_5-6.json",
            "dimension_sheet_isspg_6-7.json", "results_isspg.csv",
            "sweep.json"]

    def test_repeated_architecture_rejected(self, u12_config_path,
                                            tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--config", str(u12_config_path),
                  "--architectures", "isspg,isspg", "--out", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "isspg given twice" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_log_candidates(self, u12_config_path, tmp_path):
        code = main(["sweep", "--config", str(u12_config_path),
                     "--architectures", "isspg", "--out", str(tmp_path),
                     "--log-candidates"])
        assert code == 0
        lines = (tmp_path / "candidates_isspg.csv").read_text().splitlines()
        assert lines[0].startswith("sun_teeth,planet_teeth,ring_teeth,")
        assert len(lines) > 100

    def test_log_candidates_bytes(self, u12_config_path, tmp_path):
        # every failure reason and full-repr float of scalar evaluate
        # over the u12 candidates, pinned by sha256
        code = main(["sweep", "--config", str(u12_config_path), "--out",
                     str(tmp_path), "--log-candidates"])
        assert code == 0
        isspg = (tmp_path / "candidates_isspg.csv").read_bytes()
        assert hashlib.sha256(isspg).hexdigest() == (
            "a0655ebc405b9a8d55d65107c6fca6bf412800a4857d914a39c11061a03667f6")
        # esspg: every other cell as before the model rules were named,
        # and each dropped design's reason is the bare rule name
        with open(tmp_path / "candidates_esspg.csv", newline="") as handle:
            rows = list(csv.reader(handle))
        reasons = rows[0].index("failure_reasons")
        others = io.StringIO()
        csv.writer(others, lineterminator="\n").writerows(
            row[:reasons] + row[reasons + 1:] for row in rows)
        assert hashlib.sha256(others.getvalue().encode()).hexdigest() == (
            "0346214ec4459f59486e1f9f170d66e35b153dfb7c776cb815f2585dacc963c4")
        dropped = [row[reasons] for row in rows[1:] if row[reasons]]
        assert len(dropped) == 8059
        assert set(dropped) == {"output_bearing_range"}

    def test_eval_command(self, u12_config_path, capsys):
        code = main(["eval", "--config", str(u12_config_path), "--design",
                     "20,40,100,0.5,3,isspg"])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
        assert payload["feasible"] is True
        assert payload["cost"] == pytest.approx(-0.5970515307822426,
                                                rel=1e-12)

    def test_eval_infeasible_design(self, u12_config_path, capsys):
        code = main(["eval", "--config", str(u12_config_path), "--design",
                     "20,46,112,0.5,3,isspg"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["feasible"] is False
        assert payload["failure_reasons"] == ["ring_diameter"]

    def test_eval_rejects_infinite_module_by_name(self, u12_config_path,
                                                  capsys):
        code = main(["eval", "--config", str(u12_config_path), "--design",
                     "20,40,100,inf,3,esspg"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: module_mm")

    def test_eval_rejects_malformed_design(self, u12_config_path, capsys):
        with pytest.raises(SystemExit):
            main(["eval", "--config", str(u12_config_path), "--design",
                  "20,40,100"])

    def test_fit_bearings_command(self, capsys):
        assert main(["fit-bearings"]) == 0
        assert capsys.readouterr().out == FIT_BEARINGS_STDOUT

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_bearing_cell_is_a_clean_error(self, tmp_path,
                                                      capsys, cell):
        # named with its table line before a fit or report reads it, and
        # the refused sweep leaves no output directory behind
        table, config = edited_bearing_table(tmp_path, "mass_kg", cell, [3])
        for argv in (["sweep", "--config", str(config)],
                     ["fit-bearings", "--table", str(table)]):
            assert main(argv) == 1
            assert capsys.readouterr().err == (
                f"error: bearing table {table} line 4: all values must be "
                "positive and finite\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("width", ["1.0", "2.0", "4.0", "6.0", "7.0",
                                       "10.0"])
    def test_constant_bearing_width_is_reported(self, tmp_path, capsys,
                                                width):
        table, config = edited_bearing_table(tmp_path, "width_mm", width)
        assert main(["fit-bearings", "--table", str(table)]) == 0
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("width_mm: "))
        assert line.startswith(f"width_mm: value ~ {float(width):g} * ")
        assert "(R^2 = 1.0000, max residual 0.0%)" in line
        assert " * bore^0.0000  (R^2" in line  # no sign of rounding noise
        assert main(["sweep", "--config", str(config)]) == 0
        document = json.loads((tmp_path / "out" / "sweep.json").read_text())
        assert document["bearing_fit"]["width_mm"]["r_squared"] == 1.0

    def test_missing_config_is_a_clean_error(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "nope.yaml")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, prefix", [
        ({"motor": {**MINIMAL["motor"], "height_mm": 10**400}},
         "error: config motor.height_mm: "),
        # integers the search would hold in int64 columns
        ({"constraints": {"min_teeth": 10**20}},
         "error: config section 'constraints': min_teeth must be below"),
        ({"constraints": {"min_planets": 10**20, "max_planets": 10**20}},
         "error: config section 'constraints': min_planets must be below"),
    ], ids=["float-overflow", "int64-min-teeth", "int64-planet-range"])
    def test_huge_config_integer_is_a_clean_error(self, tmp_path, capsys,
                                                  overrides, prefix):
        path = write_config(tmp_path, {**MINIMAL, "output_dir": str(
            tmp_path / "out"), **overrides})
        for argv in (["eval", "--config", str(path), "--design",
                      "20,40,100,0.5,3,isspg"],
                     ["sweep", "--config", str(path)]):
            assert main(argv) == 1
            assert capsys.readouterr().err.startswith(prefix)

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_refusal_is_named(self, tmp_path, capsys, u12_config_path,
                              case):
        argv, code, message = REFUSALS[case](tmp_path, u12_config_path)
        if code == 2:  # argparse refuses before any handler runs
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
            assert message in capsys.readouterr().err
        else:
            assert main(argv) == code
            assert capsys.readouterr().err.startswith(message)
        assert not (tmp_path / "out").exists()

    def test_config_error_is_a_clean_error(self, tmp_path, capsys):
        path = write_config(tmp_path, {"motor": MINIMAL["motor"]})
        code = main(["sweep", "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "load" in err

    @pytest.mark.parametrize("overrides, what", [
        ({"constraints": {"module_min_mm": 1e-6},
          "search": {"module_set": [1e-6]}}, "suns"),
        ({"motor": {**MINIMAL["motor"], "outer_diameter_mm": 1e9}}, "suns"),
        # 104 window rows of [5, 300) that the bore drops, and a
        # diagnosis grid over the eight standard modules
        ({"search": {"bins": [[5, 300]]},
          "mass": {"planet_bearing_bore_mm": 1e300}}, "cells"),
        ({"constraints": {"max_planets": 10**9}}, "cells"),
    ], ids=["tiny-module", "huge-motor", "huge-bin", "huge-planet-range"])
    def test_oversized_window_is_a_clean_error(self, tmp_path, capsys,
                                               overrides, what):
        path = write_config(tmp_path, {**MINIMAL, "output_dir": str(
            tmp_path / "out"), **overrides})
        code = main(["sweep", "--config", str(path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the ")
        assert f"{what}, more than the bound of" in err


# --- the JSON writer --------------------------------------------------------

# quotes, a backslash, control characters, non-ASCII text and a code
# point beyond the BMP, which the escaper writes as a surrogate pair
json_strings = st.text() | st.sampled_from(
    ['"', "\\", "\x00", "\x1f\x7f", "\u00e9t\u00e9", "\u2028",
     "\U0001f600", ""])
json_scalars = (st.none() | st.booleans() | st.integers()
                | st.sampled_from([2**64, -10**40])
                | st.floats(allow_nan=False, allow_infinity=False)
                | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])
                | json_strings)
json_documents = st.recursive(
    json_scalars,
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(json_strings, children)),
    max_leaves=40)


class TestJsonWriter:
    @settings(max_examples=100)
    @given(document=json_documents)
    def test_equals_json_dumps(self, document):
        assert _json_text(document) == json.dumps(
            document, sort_keys=True, indent=2, allow_nan=False)

    @pytest.mark.parametrize("value", [nan, inf, -inf])
    def test_rejects_non_finite_floats(self, value):
        with pytest.raises(ValueError, match="JSON compliant"):
            _json_text({"a": [1.0, value]})
