"""The immutable records: equality, hashing, repr, construction and copying.

Every record is a slotted class over `intset._Record`.  Each test here runs
over all seven with one sample per record, built by keyword, plus a second
sample that differs from the first in its last field.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from altchains import (
    CONWAY_SET,
    Chain,
    GrowthRow,
    IntSet,
    Method1Params,
    MethodTag,
    NathansonParams,
    SumDiffProfile,
    ValidationReport,
    generate_chain_m1,
)

_CHAIN = generate_chain_m1(CONWAY_SET, 17, 3)

# (record type, fields of one sample, the last field's value in another).
SAMPLES = [
    (IntSet, {"elements": (0, 2)}, (0, 3)),
    (SumDiffProfile, {"card": 8, "sum_card": 26, "diff_card": 25, "diameter": 14}, 15),
    (
        GrowthRow,
        {
            "card": 9, "sum_card": 30, "diff_card": 33, "diameter": 17, "index": 2,
            "card_ratio": Fraction(9, 8), "diam_ratio": Fraction(17, 14),
        },
        None,
    ),
    (
        Chain,
        {
            "sets": _CHAIN.sets, "method_tag": MethodTag.METHOD1,
            "profiles": _CHAIN.profiles, "appends": _CHAIN.appends,
        },
        (None, None, None),
    ),
    (ValidationReport, {"failures": ((2, "no-filling-in", 1),)}, ()),
    (
        Method1Params,
        {"x": 2, "y": 4, "sum_residues": 17, "diff_residues": 17, "cond1": True, "cond2": True},
        False,
    ),
    (NathansonParams, {"m": 4, "d": 1, "k": 3, "A": CONWAY_SET}, IntSet((0, 1))),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


def _pair(cls, fields, other_last):
    """A sample built by keyword, and one whose last field is other_last."""
    last = list(fields)[-1]
    return cls(**fields), cls(**{**fields, last: other_last})


@pytest.mark.parametrize("cls, fields, other_last", SAMPLES, ids=IDS)
class TestRecord:
    def test_keyword_and_positional_construction_agree(self, cls, fields, other_last):
        record = cls(**fields)
        assert record == cls(*fields.values())
        assert tuple(getattr(record, f) for f in fields) == tuple(fields.values())

    def test_equality_is_by_type_and_fields(self, cls, fields, other_last):
        record, other = _pair(cls, fields, other_last)
        assert record == cls(**fields) and not record != cls(**fields)
        assert record != other
        assert record != tuple(fields.values())
        assert record.__eq__(tuple(fields.values())) is NotImplemented

    def test_hash_follows_equality(self, cls, fields, other_last):
        record, other = _pair(cls, fields, other_last)
        assert hash(record) == hash(cls(**fields))
        assert len({record, cls(**fields), other}) == 2

    def test_fields_cannot_be_set_or_deleted(self, cls, fields, other_last):
        record = cls(**fields)
        name = next(iter(fields))
        with pytest.raises(AttributeError):
            setattr(record, name, other_last)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, name) == fields[name]

    def test_repr_names_every_field(self, cls, fields, other_last):
        body = ", ".join(f"{name}={value!r}" for name, value in fields.items())
        assert repr(cls(**fields)) == f"{cls.__name__}({body})"

    def test_pickle_and_deepcopy_round_trip(self, cls, fields, other_last):
        record = cls(**fields)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(record, protocol))
            assert back == record and type(back) is cls
        assert copy.deepcopy(record) == record
        assert copy.copy(record) == record


def test_intset_repr_and_default():
    assert repr(IntSet((0, 2))) == "IntSet(elements=(0, 2))"
    assert IntSet() == IntSet(()) == IntSet(elements=())
    assert not IntSet()


def test_unpickling_runs_the_check():
    state = pickle.dumps(IntSet((0, 2))).replace(b"K\x00K\x02", b"K\x02K\x00")
    with pytest.raises(ValueError, match="strictly increasing"):
        pickle.loads(state)


def test_growth_row_is_a_profile_but_never_equal_to_one():
    fields = dict(card=8, sum_card=26, diff_card=25, diameter=14)
    row = GrowthRow(**fields, index=1, card_ratio=None, diam_ratio=None)
    plain = SumDiffProfile(**fields)
    assert isinstance(row, SumDiffProfile)
    assert row.density == plain.density and row.set_class is plain.set_class
    assert row != plain and plain != row
    assert repr(row) == (
        "GrowthRow(card=8, sum_card=26, diff_card=25, diameter=14, index=1, "
        "card_ratio=None, diam_ratio=None)"
    )


def test_records_of_other_types_never_equal():
    # Same field values, different record types.
    assert IntSet((0, 2)) != ValidationReport((0, 2))
    assert ValidationReport((0, 2)) != IntSet((0, 2))


def test_records_hold_no_instance_dict():
    for cls, fields, _ in SAMPLES:
        assert not hasattr(cls(**fields), "__dict__"), cls.__name__


# Each way a call can fail to name every field exactly once, from a sample's fields.
REFUSALS = {
    "missing": lambda fields: ((*fields.values(),)[:-1], {}),
    "extra-positional": lambda fields: ((*fields.values(), None), {}),
    "unknown-keyword": lambda fields: ((), {**fields, "extra": None}),
    "positional-and-keyword": lambda fields: ((next(iter(fields.values())),), fields),
}


@pytest.mark.parametrize("refusal", REFUSALS)
@pytest.mark.parametrize(
    "cls, fields", [(cls, fields) for cls, fields, _ in SAMPLES if cls is not IntSet], ids=IDS[1:]
)
def test_constructor_refuses_before_storing(cls, fields, refusal):
    # Every record but IntSet, which validates its elements, takes _Record's constructor.
    assert "__init__" not in vars(cls)
    values, named = REFUSALS[refusal](fields)
    with pytest.raises(TypeError, match=f"^{cls.__name__} takes "):
        cls(*values, **named)
    blank = object.__new__(cls)
    with pytest.raises(TypeError):
        blank.__init__(*values, **named)
    assert not any(hasattr(blank, f) for f in fields)
