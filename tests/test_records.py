"""The value-record semantics of every ``Record`` class in the library.

Each class keeps what it had as a frozen dataclass: construction by
position or keyword in field order, equality and hash by value within one
class, the dataclass-style ``repr`` and ``AttributeError`` on assignment.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from tdlcinv.coxeter import AffineCartanPair, CartanMatrix, affine_preset, finite_preset
from tdlcinv.davis import DavisChamber, DualityVerdict, SphericalPoset, build_chamber
from tdlcinv.diagrams import CoxeterSystem
from tdlcinv.errors import ValidationError
from tdlcinv.euler import HaarValue, ResolutionDescription
from tdlcinv.records import Record
from tdlcinv.simplicial import OrientedSimplex

AFFINE_A2 = affine_preset("affine A2")
CHAMBER = build_chamber(CoxeterSystem([[1, 3, 3], [3, 1, 3], [3, 3, 1]]))
CHAMBER_FIELDS = ("system", "poset", "complex", "vertex_of_subset", "mirrors")

# (class, field names in order, one value per field)
RECORDS = [
    (AffineCartanPair, ("finite", "affine"), (AFFINE_A2.finite, AFFINE_A2.affine)),
    (SphericalPoset, ("subsets",), ((frozenset(), frozenset({0})),)),
    (DavisChamber, CHAMBER_FIELDS, tuple(getattr(CHAMBER, name) for name in CHAMBER_FIELDS)),
    (DualityVerdict, ("cd", "is_duality", "table"), (2, False, (((0,), (0, 1)),))),
    (HaarValue, ("coeff", "base"), (Fraction(1, 2), "K")),
    (ResolutionDescription, ("base", "degrees"), ("O", ((("P", 4),),))),
    (OrientedSimplex, ("vertices", "sign"), ((0, 1, 2), -1)),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]
HASHABLE = [case for case in RECORDS if case[0] is not DavisChamber]  # its fields hold dicts


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_construction_by_position_and_keyword_in_field_order(cls, fields, values):
    assert issubclass(cls, Record)
    by_position = cls(*values)
    by_keyword = cls(**dict(reversed(list(zip(fields, values)))))  # keyword order is free
    mixed = cls(*values[:1], **dict(zip(fields[1:], values[1:])))
    for record in (by_position, by_keyword, mixed):
        assert tuple(getattr(record, name) for name in fields) == values
    assert by_position == by_keyword == mixed
    for args, kwargs in [
        (values + (None,), {}),  # one value too many
        (values[:-1], {}),  # one value missing
        (values, {"extra": None}),  # no such field
        (values, {fields[0]: values[0]}),  # a field given twice
    ]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls, fields, values", HASHABLE, ids=[cls.__name__ for cls, _, _ in HASHABLE])
def test_equality_and_hash_by_value(cls, fields, values):
    record = cls(*values)
    # equal copies of the values; a CartanMatrix compares by identity
    twin = cls(*(values if cls is AffineCartanPair else copy.deepcopy(values)))
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != values and values != record  # never equal to a plain tuple
    assert record != list(values)
    with pytest.raises(TypeError):
        record < twin  # no ordering, as with a dataclass


def test_dicts_make_a_chamber_unhashable_but_comparable():
    values = tuple(getattr(CHAMBER, name) for name in CHAMBER_FIELDS)
    assert DavisChamber(*values) == CHAMBER
    with pytest.raises(TypeError):
        hash(CHAMBER)


def test_equality_holds_between_instances_of_one_class_only():
    class Twin(Record):
        __slots__ = ("coeff", "base")

    assert HaarValue(1, "K") != Twin(Fraction(1), "K")
    assert Twin(1, "K") == Twin(1, "K")
    assert Twin(1, "K") != Twin(2, "K")


def test_haar_value_normalizes_its_coefficient():
    assert HaarValue(1, "K") == HaarValue(Fraction(1), "K")
    assert hash(HaarValue(1, "K")) == hash(HaarValue(Fraction(1), "K"))
    assert type(HaarValue(1, "K").coeff) is Fraction
    assert type(HaarValue(coeff=Fraction(3, 1), base="K").coeff) is Fraction
    assert HaarValue(1, "K") != HaarValue(1, "L")


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, fields, values):
    record = cls(*values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    assert tuple(getattr(record, name) for name in fields) == values


def test_dataclass_style_repr():
    assert repr(HaarValue(Fraction(-1, 6), "1")) == "HaarValue(coeff=Fraction(-1, 6), base='1')"
    assert repr(OrientedSimplex((0, 2), 1)) == "OrientedSimplex(vertices=(0, 2), sign=1)"
    assert repr(DualityVerdict(1, True, ())) == "DualityVerdict(cd=1, is_duality=True, table=())"
    assert repr(SphericalPoset(())) == "SphericalPoset(subsets=())"


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_copy_and_pickle_rebuild_the_record(cls, fields, values):
    record = cls(*values)
    for rebuilt in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(rebuilt) is cls
        if cls is AffineCartanPair:  # CartanMatrix compares by identity
            assert (rebuilt.finite.a, rebuilt.affine.a) == (record.finite.a, record.affine.a)
        elif cls is not DavisChamber:  # its complexes compare by identity
            assert rebuilt == record


def test_affine_cartan_pair_checks_ranks():
    with pytest.raises(ValidationError, match="affine rank must exceed finite rank by one"):
        AffineCartanPair(finite_preset("A2"), finite_preset("A2"))
    with pytest.raises(ValidationError, match="affine rank must exceed finite rank by one"):
        AffineCartanPair(finite=AFFINE_A2.affine, affine=AFFINE_A2.finite)
    with pytest.raises(ValidationError, match="no affine diagram below rank two"):
        AffineCartanPair(CartanMatrix([]), CartanMatrix([[2]]))
    assert AffineCartanPair(finite=AFFINE_A2.finite, affine=AFFINE_A2.affine) == AFFINE_A2
