"""The ten immutable records behave as the frozen dataclasses they replace.

Each record is checked against a frozen dataclass of the same name and
fields (built here with `dataclasses.make_dataclass`; the library itself
does not import dataclasses): repr, hash, keyword and positional
construction, equality within and across classes, immutability,
`replace`, and copy, deepcopy and pickle round trips.
"""

import copy
import dataclasses
import pickle
from fractions import Fraction

import pytest

from bergerspec.berger import AffineBranch, Mode, PiecewiseCell, SpectrumEntry
from bergerspec.jacobi import EinsteinAmbient, IndexNullityReport, InstabilityVerdict
from bergerspec.page import PageConstants, page_constants
from bergerspec.slices import CP2_AMBIENT, SliceGeometry
from bergerspec.spheres import SphereSpectrumEntry

_BRANCH = AffineBranch(2, 1, Mode(1, 1))

# (class, every field in declaration order with a sample value, the defaults)
RECORDS = [
    (Mode, {"k": 3, "q": 1}, {}),
    (AffineBranch, {"A": 14, "B": 1, "source": Mode(3, 1)}, {"source": None}),
    (SpectrumEntry, {"value": 6.5, "multiplicity": 4, "source": Mode(2, 0)}, {"source": None}),
    (PiecewiseCell, {"lo": Fraction(1, 2), "hi": None, "branch": _BRANCH}, {}),
    (EinsteinAmbient, {"n": 4, "s": 6.0, "validity": "hypersurface", "name": "CP^2"}, {"name": ""}),
    (
        IndexNullityReport,
        {
            "parameter": 1.0,
            "index": 1,
            "nullity": 4,
            "witnesses": ((0.0, 1, -1.5), (1.5, 4, 0.0)),
            "zero_tolerance": 1e-9,
            "truncation_bound": 40.5,
            "notes": ("a note",),
            "first_shifted": -0.0,
        },
        {"notes": (), "first_shifted": None},
    ),
    (InstabilityVerdict, {"unstable": True, "certificate": -1.5, "note": "why"}, {}),
    (SliceGeometry, {"r": 1.0, "f": 0.5, "x": Fraction(2), "ambient": CP2_AMBIENT}, {}),
    (PageConstants, {"a": 0.28, "f_const": 0.7, "C": 0.25, "D": 0.5}, {}),
    (SphereSpectrumEntry, {"degree": 2, "eigenvalue": 8, "multiplicity": 9}, {}),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


def _twin(cls, fields, defaults):
    """A frozen dataclass with the record's name, fields and defaults."""
    spec = [
        (name, object, dataclasses.field(default=defaults[name]))
        if name in defaults
        else (name, object)
        for name in fields
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


@pytest.fixture(params=RECORDS, ids=IDS)
def case(request):
    cls, fields, defaults = request.param
    return cls, fields, defaults, cls(**fields), _twin(cls, fields, defaults)(**fields)


def test_field_tuple_is_the_declared_order(case):
    cls, fields, _, record, _ = case
    assert cls._fields == tuple(fields)
    assert tuple(getattr(record, name) for name in cls._fields) == tuple(fields.values())


def test_repr_is_the_dataclass_form(case):
    cls, fields, _, record, twin = case
    assert repr(record) == repr(twin)
    shown = ", ".join(f"{k}={v!r}" for k, v in fields.items())
    assert repr(record) == f"{cls.__name__}({shown})"


def test_hash_is_the_hash_of_the_field_tuple(case):
    _, fields, _, record, twin = case
    assert hash(record) == hash(tuple(fields.values())) == hash(twin)


def test_equality_holds_within_a_class_only(case):
    cls, fields, _, record, twin = case
    again = cls(*fields.values())  # positional construction, in field order
    assert record == again and not record != again
    assert record is not again
    # equal field values, different class: never equal, in either order
    assert record != twin and twin != record
    assert record.__eq__(twin) is NotImplemented
    assert record != tuple(fields.values())


def test_records_of_different_classes_with_equal_fields_differ():
    values = (1, 2, 3)
    classes = (AffineBranch, PiecewiseCell, InstabilityVerdict)
    records = [cls(*values) for cls in classes]
    assert len({type(r) for r in records}) == len(records)
    for i, a in enumerate(records):
        for b in records[i + 1 :]:
            assert a != b and b != a


def _other_value(cls, name, value):
    """A different valid value for one field of a sample."""
    if cls is Mode:
        return value + 2
    return value + 1 if isinstance(value, (int, float)) else "other"


def test_a_changed_field_breaks_equality(case):
    cls, fields, _, record, _ = case
    name = next(iter(fields))
    other = record.replace(**{name: _other_value(cls, name, fields[name])})
    assert other != record
    assert getattr(other, name) != fields[name]


def test_assignment_and_deletion_raise(case):
    cls, fields, _, record, _ = case
    for name in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, fields[name])
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())


def test_defaults_and_keywords(case):
    cls, fields, defaults, record, _ = case
    required = {k: v for k, v in fields.items() if k not in defaults}
    bare = cls(**required)
    for name in fields:
        assert getattr(bare, name) == defaults.get(name, fields[name])
    assert cls(**dict(reversed(fields.items()))) == record
    with pytest.raises(TypeError):
        cls(**fields, unknown=1)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def test_replace_changes_only_the_named_fields(case):
    cls, fields, _, record, _ = case
    assert record.replace() == record
    name = list(fields)[-1]
    changed = record.replace(**{name: _other_value(cls, name, fields[name])})
    assert type(changed) is cls
    for other in fields:
        if other != name:
            assert getattr(changed, other) == fields[other]
    assert record == cls(**fields)  # the original is untouched
    with pytest.raises(TypeError):
        record.replace(unknown=1)


@pytest.mark.parametrize(
    "copier",
    [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_round_trip(case, copier):
    cls, fields, _, record, _ = case
    again = copier(record)
    assert type(again) is cls
    assert again == record and hash(again) == hash(record) and repr(again) == repr(record)
    with pytest.raises(AttributeError):
        setattr(again, next(iter(fields)), None)


def test_page_constants_root_count_stays_cached():
    consts = page_constants()
    assert "root_count" not in vars(consts)
    assert consts.root_count == 2
    assert vars(consts)["root_count"] == 2
    # the cache is not a field, and a replaced copy computes its own
    assert consts == PageConstants(consts.a, consts.f_const, consts.C, consts.D)
    assert "root_count" not in vars(consts.replace(D=0.1))
    assert consts.replace(D=0.1).root_count == 0
    assert pickle.loads(pickle.dumps(consts)).root_count == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Mode(1.0, 1), "mode indices must be integers, got (1.0, 1)"),
        (lambda: Mode(1, 3), "mode requires 0 <= q <= k, got (k=1, q=3)"),
        (lambda: Mode(-2, 0), "mode requires 0 <= q <= k, got (k=-2, q=0)"),
        (lambda: Mode(2, 1), "mode requires q = k (mod 2), got (k=2, q=1)"),
        (lambda: Mode(3, 1).replace(q=2), "mode requires q = k (mod 2), got (k=3, q=2)"),
        (lambda: SpectrumEntry(1.0, 0), "multiplicity must be a positive integer, got 0"),
        (lambda: SpectrumEntry(1.0, 2.0), "multiplicity must be a positive integer, got 2.0"),
        (
            lambda: EinsteinAmbient(0, 1.0, "hypersurface"),
            "ambient dimension must be a positive integer, got 0",
        ),
        (
            lambda: EinsteinAmbient(4.0, 1.0, "hypersurface"),
            "ambient dimension must be a positive integer, got 4.0",
        ),
        (
            lambda: EinsteinAmbient(4, 1.0, "Kahler"),
            "validity must be one of ('hypersurface', 'constant-curvature', 'general'), got 'Kahler'",
        ),
        (
            lambda: SliceGeometry(0.5, 0.0, Fraction(2), CP2_AMBIENT),
            "slice parameter r = 0.5 is out of range: coefficient f = 0.0 is not finite and positive",
        ),
        (
            lambda: SliceGeometry(0.5, float("nan"), Fraction(-1), CP2_AMBIENT),
            "slice parameter r = 0.5 is out of range: coefficient f = nan is not finite and positive",
        ),
        (
            lambda: SliceGeometry(0.5, float("inf"), Fraction(2), CP2_AMBIENT),
            "slice parameter r = 0.5 is out of range: coefficient f = inf is not finite and positive",
        ),
        (
            lambda: SliceGeometry(0.5, 0.25, Fraction(-1, 3), CP2_AMBIENT),
            "slice parameter r = 0.5 is out of range: coefficient x = Fraction(-1, 3) is not finite and positive",
        ),
        (
            lambda: SliceGeometry(0.5, 0.25, Fraction(0), CP2_AMBIENT),
            "slice parameter r = 0.5 is out of range: coefficient x = Fraction(0, 1) is not finite and positive",
        ),
        # bool subclasses int: True read as 1 and False as 0
        (lambda: Mode(True, 1), "mode indices must be integers, got (True, 1)"),
        (lambda: Mode(0, False), "mode indices must be integers, got (0, False)"),
        (lambda: SpectrumEntry(1.0, True), "multiplicity must be a positive integer, got True"),
        (
            lambda: EinsteinAmbient(True, 6.0, "hypersurface"),
            "ambient dimension must be a positive integer, got True",
        ),
        # a NaN s made is_unstable say "not implied" and the two slice paths
        # disagree; an infinite one gave the composed path a -inf bound
        (
            lambda: EinsteinAmbient(4, float("nan"), "hypersurface"),
            "ambient scalar curvature s must be finite, got nan",
        ),
        (
            lambda: EinsteinAmbient(4, float("inf"), "hypersurface"),
            "ambient scalar curvature s must be finite, got inf",
        ),
        (
            lambda: EinsteinAmbient(4, -float("inf"), "hypersurface"),
            "ambient scalar curvature s must be finite, got -inf",
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as raised:
        build()
    assert str(raised.value) == message
