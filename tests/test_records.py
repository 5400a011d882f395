"""The result records of ``evaluate``: the two breakdowns are NamedTuples
and the evaluation is a frozen dataclass whose ``feasible`` is derived.
Construction, field order, copies with changes, the dict form, pickling,
equality, hashing, repr and immutability."""

import pickle
from dataclasses import asdict, fields, is_dataclass, replace

import pytest

from gearboxopt import (Architecture, DesignEvaluation, EfficiencyBreakdown,
                        GearboxDesign, MassBreakdown, evaluate)

REFERENCE = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                          planet_teeth=40, ring_teeth=100, module_mm=0.5,
                          num_planets=3)
BREAKDOWN_FIELDS = {
    EfficiencyBreakdown: ("eps_a1", "eps_a2", "eps_b1", "eps_b2", "eps_a",
                          "eps_b", "eta_a", "eta_b", "eta_overall"),
    MassBreakdown: ("sun", "planets_total", "ring", "carrier",
                    "secondary_carrier", "bearings_total", "casing",
                    "base_plate", "motor", "total"),
}
FIELD_NAMES = {
    **BREAKDOWN_FIELDS,
    DesignEvaluation: ("design", "failure_reasons", "efficiency",
                       "face_width_mm", "mass", "cost"),
}


@pytest.fixture(scope="module")
def records(default_ctx):
    """One instance of each record, from scoring the reference design,
    plus the record of an infeasible design."""
    evaluation = evaluate(REFERENCE, default_ctx)
    assert evaluation.feasible
    infeasible = evaluate(replace(REFERENCE, ring_teeth=101), default_ctx)
    assert not infeasible.feasible
    return {EfficiencyBreakdown: evaluation.efficiency,
            MassBreakdown: evaluation.mass,
            DesignEvaluation: evaluation, "infeasible": infeasible}


def field_names(cls) -> tuple:
    if issubclass(cls, tuple):
        return cls._fields
    return tuple(spec.name for spec in fields(cls))


def values(record) -> tuple:
    return tuple(getattr(record, name) for name in field_names(type(record)))


def with_changes(record, **changes):
    """``record`` with ``changes``: ``_replace`` on a NamedTuple,
    ``dataclasses.replace`` on a dataclass."""
    if isinstance(record, tuple):
        return record._replace(**changes)
    return replace(record, **changes)


def as_dict(record) -> dict:
    return record._asdict() if isinstance(record, tuple) else asdict(record)


@pytest.mark.parametrize("cls", list(FIELD_NAMES))
class TestRecordContract:
    def test_field_order(self, cls):
        assert field_names(cls) == FIELD_NAMES[cls]

    def test_positional_equals_keyword(self, cls, records):
        record = records[cls]
        positional = cls(*values(record))
        keyword = cls(**{name: getattr(record, name)
                         for name in FIELD_NAMES[cls]})
        assert positional == keyword == record
        assert values(positional) == values(keyword) == values(record)

    def test_bad_arguments_raise_type_error(self, cls, records):
        args = values(records[cls])
        with pytest.raises(TypeError):
            cls(*args[:-1])                       # missing
        with pytest.raises(TypeError):
            cls(*args, 1.0)                       # extra
        with pytest.raises(TypeError):
            cls(*args, unknown=1.0)               # unknown keyword
        with pytest.raises(TypeError):
            cls(*args, **{FIELD_NAMES[cls][0]: args[0]})  # given twice

    def test_replace_asdict_and_pickle_round_trip(self, cls, records):
        record = records[cls]
        name = FIELD_NAMES[cls][-1]
        changed = with_changes(record, **{name: 1.5})
        assert type(changed) is cls
        assert getattr(changed, name) == 1.5
        assert values(changed)[:-1] == values(record)[:-1]
        assert with_changes(changed, **{name: getattr(record, name)}) \
            == record
        record_dict = as_dict(record)
        assert list(record_dict) == list(FIELD_NAMES[cls])
        for field_name, value in record_dict.items():
            nested = getattr(record, field_name)
            assert value == (asdict(nested) if is_dataclass(nested)
                             else nested)
        clone = pickle.loads(pickle.dumps(record))
        assert type(clone) is cls and clone == record
        assert values(clone) == values(record)

    def test_equality_hash_and_repr(self, cls, records):
        record = records[cls]
        twin = cls(*values(record))
        assert twin == record and hash(twin) == hash(record)
        assert twin is not record
        assert record != with_changes(record, **{FIELD_NAMES[cls][-1]: 1.5})
        # a NamedTuple is a tuple of its values, a dataclass is not
        assert (record == values(record)) is issubclass(cls, tuple)
        assert repr(record) == f"{cls.__name__}(" + ", ".join(
            f"{name}={getattr(record, name)!r}"
            for name in FIELD_NAMES[cls]) + ")"

    def test_frozen(self, cls, records):
        # FrozenInstanceError is an AttributeError too
        record = records[cls]
        before = values(record)
        for name in (FIELD_NAMES[cls][0], "new_attribute"):
            with pytest.raises(AttributeError):
                setattr(record, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(record, FIELD_NAMES[cls][0])
        assert values(record) == before
        assert not hasattr(record, "new_attribute")


@pytest.mark.parametrize("cls", list(BREAKDOWN_FIELDS))
def test_breakdown_iterates_over_every_field(cls, records):
    record = records[cls]
    assert tuple(record) == values(record)
    assert len(record) == len(BREAKDOWN_FIELDS[cls])
    assert record[-1] == getattr(record, BREAKDOWN_FIELDS[cls][-1])


def test_mass_total_is_the_last_item(records):
    mass = records[MassBreakdown]
    *parts, total = mass
    assert total == mass.total == pytest.approx(sum(parts), rel=1e-15)


def test_feasible_is_derived_from_failure_reasons(records):
    evaluation, infeasible = records[DesignEvaluation], records["infeasible"]
    assert "feasible" not in FIELD_NAMES[DesignEvaluation]
    assert evaluation.feasible and evaluation.failure_reasons == ()
    assert not replace(evaluation, failure_reasons=("tooth_form",)).feasible
    assert not infeasible.feasible and infeasible.failure_reasons
    assert replace(infeasible, failure_reasons=()).feasible
    with pytest.raises(TypeError):
        DesignEvaluation(*values(evaluation), feasible=True)


def test_reduction_ratio_lives_on_the_design(records):
    evaluation = records[DesignEvaluation]
    assert not hasattr(evaluation, "reduction_ratio")
    assert evaluation.design.reduction_ratio == 6.0


def test_infeasible_record_contract(records):
    infeasible = records["infeasible"]
    assert "geometric" in infeasible.failure_reasons
    assert values(infeasible)[2:] == (None, None, None, None)
    assert DesignEvaluation(*values(infeasible)) == infeasible
    assert hash(DesignEvaluation(*values(infeasible))) == hash(infeasible)
    assert pickle.loads(pickle.dumps(infeasible)) == infeasible
    assert replace(infeasible) == infeasible
