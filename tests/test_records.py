"""The frozen result records of ``evaluate``: construction, the
dataclass protocol (fields, replace, asdict), pickling, equality,
hashing, repr and immutability."""

import pickle
from dataclasses import (FrozenInstanceError, asdict, fields, is_dataclass,
                         replace)

import pytest

from gearboxopt import (Architecture, DesignEvaluation, EfficiencyBreakdown,
                        GearboxDesign, MassBreakdown, evaluate)

REFERENCE = GearboxDesign(arch=Architecture.ISSPG, sun_teeth=20,
                          planet_teeth=40, ring_teeth=100, module_mm=0.5,
                          num_planets=3)
FIELD_NAMES = {
    EfficiencyBreakdown: ("eps_a1", "eps_a2", "eps_b1", "eps_b2", "eps_a",
                          "eps_b", "eta_a", "eta_b", "eta_overall"),
    MassBreakdown: ("sun", "planets_total", "ring", "carrier",
                    "secondary_carrier", "bearings_total", "casing",
                    "base_plate", "motor", "total"),
    DesignEvaluation: ("design", "feasible", "failure_reasons",
                       "reduction_ratio", "efficiency", "face_width_mm",
                       "mass", "cost"),
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


def values(record) -> tuple:
    return tuple(getattr(record, spec.name) for spec in fields(record))


@pytest.mark.parametrize("cls", list(FIELD_NAMES))
class TestRecordContract:
    def test_field_order(self, cls):
        assert tuple(spec.name for spec in fields(cls)) == FIELD_NAMES[cls]

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
        changed = replace(record, **{name: 1.5})
        assert type(changed) is cls
        assert getattr(changed, name) == 1.5
        assert values(changed)[:-1] == values(record)[:-1]
        assert replace(changed, **{name: getattr(record, name)}) == record
        as_dict = asdict(record)
        assert list(as_dict) == list(FIELD_NAMES[cls])
        for field_name, value in as_dict.items():
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
        assert record != replace(record, **{FIELD_NAMES[cls][-1]: 1.5})
        assert record != values(record)
        assert repr(record) == f"{cls.__name__}(" + ", ".join(
            f"{name}={getattr(record, name)!r}"
            for name in FIELD_NAMES[cls]) + ")"

    def test_frozen(self, cls, records):
        record = records[cls]
        before = values(record)
        for name in (FIELD_NAMES[cls][0], "new_attribute"):
            with pytest.raises(FrozenInstanceError):
                setattr(record, name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(record, FIELD_NAMES[cls][0])
        assert values(record) == before
        assert "new_attribute" not in vars(record)


def test_infeasible_record_contract(records):
    infeasible = records["infeasible"]
    assert "geometric" in infeasible.failure_reasons
    assert values(infeasible)[4:] == (None, None, None, None)
    assert DesignEvaluation(*values(infeasible)) == infeasible
    assert hash(DesignEvaluation(*values(infeasible))) == hash(infeasible)
    assert pickle.loads(pickle.dumps(infeasible)) == infeasible
    assert replace(infeasible) == infeasible
