"""Value semantics of the package's record classes: equality, hash, repr,
the frozen guard, and pickle and copy round-trips."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from kmap_ecc.burst import BurstCensus, BurstGroup, Ordering
from kmap_ecc.codec import CodecTables, DecodeReport, build_tables, decode, encode, inject
from kmap_ecc.coverage import (CensusRow, CoverageReport, MinParityReport, Theorem4Report,
                               min_parity_search, three_bit_coverage)
from kmap_ecc.kcode import GrayLayout, default_layout
from kmap_ecc.placement import (Collision, ErrorPattern, OccupiedResult, Placement, SClass,
                                SearchStats, occupied_map, reference_placements)
from kmap_ecc.render import CellDiff, MapGrid, diff_grids, render_map

_REF = reference_placements()["s447_433"]
_ORDER = Ordering.parse("X1,X2,P1")

#: Each record class with its fields, in order, and two instances of it
#: that differ in some field.
VALUES = {
    GrayLayout: (("n", "row_vars", "col_vars"),
                 lambda: (default_layout(7), GrayLayout(7, (6, 4, 2), (7, 5, 3, 1)))),
    ErrorPattern: (("data", "parities"),
                   lambda: (ErrorPattern.of((1,), (3,)), ErrorPattern.of((1,), (4,)))),
    Placement: (("n", "data"), lambda: (_REF, Placement(7, (106, 86)))),
    SClass: (("weights", "distances"),
             lambda: (SClass.parse("S_447^433"), SClass.parse("S_445^433"))),
    Collision: (("syndrome", "patterns"),
                lambda: occupied_map(Placement(7, (3, 5))).collisions[:2]),
    OccupiedResult: (("placement", "mapping", "collisions"),
                     lambda: (occupied_map(Placement(7, (3,))), occupied_map(_REF))),
    SearchStats: (("candidates_evaluated", "placements_emitted"),
                  lambda: (SearchStats(), SearchStats(3, 1))),
    CodecTables: (("placement", "decode", "include_triples"),
                  lambda: (build_tables(_REF), build_tables(_REF, include_triples=True))),
    DecodeReport: (("status", "syndrome", "pattern"),
                   lambda: (decode(inject(encode((1, 0, 1), _REF), ErrorPattern.of(parities=(2,))),
                                   build_tables(_REF))[1],
                            DecodeReport("uncorrectable", 62, None))),
    CoverageReport: (("placement", "mode", "covered", "counts", "total"),
                     lambda: (three_bit_coverage(_REF), three_bit_coverage(_REF, "assignable"))),
    CensusRow: (("family", "sclass", "realizable", "total", "counts", "placement"),
                lambda: (CensusRow(1, "S_444^444", False, 0, {"PPP": 0}, None),
                         CensusRow(4, "S_447^433", True, 49, {"PPP": 21}, _REF))),
    Theorem4Report: (("n", "impossible", "singles_checked", "triples_checked", "survivors"),
                     lambda: (Theorem4Report(7, True, 64, 41664, ()),
                              Theorem4Report(8, False, 163, 707281, ((31, 227, 236),)))),
    MinParityReport: (("n", "pruned", "weight_candidates", "pairs_meeting_conditions",
                       "triples_meeting_conditions", "covering_placements",
                       "failure_kinds", "witness"),
                      lambda: (min_parity_search(8), min_parity_search(8, pruned=False))),
    Ordering: (("symbols",), lambda: (_ORDER, Ordering.parse("X2,X1,P1"))),
    BurstGroup: (("shape", "assignment", "count", "representative"),
                 lambda: (BurstGroup((1, 2), (1, 2), 4, _ORDER),
                          BurstGroup((1, 2), (2, 1), 4, _ORDER))),
    BurstCensus: (("placement_json", "total", "groups"),
                  lambda: (BurstCensus(_REF.to_json(), 0, ()),
                           BurstCensus(_REF.to_json(), 4,
                                       (BurstGroup((1, 2), (1, 2), 4, _ORDER),)))),
    MapGrid: (("layout", "cells"),
              lambda: (render_map(_REF), render_map(_REF, include_triples=True))),
    CellDiff: (("row", "col", "a", "b"),
               lambda: diff_grids(render_map(_REF), render_map(_REF, include_triples=True))[:2]),
}

FROZEN = [cls for cls in VALUES if cls is not SearchStats]


def _fields(value):
    return tuple(getattr(value, name) for name in VALUES[type(value)][0])


def _examples(cls):
    a, b = VALUES[cls][1]()
    assert type(a) is cls and type(b) is cls and _fields(a) != _fields(b)
    return a, b


def test_every_record_class_is_listed():
    assert len(VALUES) == 18
    # a class pattern matches positional subpatterns against the fields
    assert all(cls.__match_args__ == fields for cls, (fields, _) in VALUES.items())


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_equal_only_to_the_same_type_with_equal_fields(cls):
    a, b = _examples(cls)
    names = VALUES[cls][0]
    twin = cls(**dict(zip(names, _fields(a))))
    assert a == twin and not a != twin and a != b and b != a
    # the field tuple, or a subclass with the same fields, is another value
    assert a != _fields(a) and a.__eq__(_fields(a)) is NotImplemented
    sub = type("Sub", (cls,), {})(**dict(zip(names, _fields(a))))
    assert a != sub and sub != a and a.__eq__(sub) is NotImplemented


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_repr_names_each_field(cls):
    for value in _examples(cls):
        body = ", ".join(f"{name}={getattr(value, name)!r}" for name in VALUES[cls][0])
        assert repr(value) == f"{cls.__name__}({body})"


def test_repr_literals():
    assert (repr(DecodeReport("corrected", 2, ErrorPattern.of(parities=(2,))))
            == "DecodeReport(status='corrected', syndrome=2, "
               "pattern=ErrorPattern(data=frozenset(), parities=frozenset({2})))")
    assert repr(CellDiff(0, 3, "X_1", "")) == "CellDiff(row=0, col=3, a='X_1', b='')"
    assert (repr(SClass.parse("S_447^433"))
            == "SClass(weights=(4, 4, 7), distances=(4, 3, 3))")
    assert (repr(SearchStats(5, 2))
            == "SearchStats(candidates_evaluated=5, placements_emitted=2)")


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_hash_is_the_field_tuple_hash(cls):
    """A record holding a dict is as unhashable as its field tuple."""
    for value in _examples(cls):
        try:
            want = hash(_fields(value))
        except TypeError:
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == want


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_frozen_guard(cls):
    value, _ = _examples(cls)
    before = _fields(value)
    for name in VALUES[cls][0] + ("extra",):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, 0)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
    assert _fields(value) == before and not hasattr(value, "extra")


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_pickle_and_copy_round_trips(cls):
    for value in _examples(cls):
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
            assert type(twin) is cls and twin == value and _fields(twin) == _fields(value)


#: The classes that take their fields through the base's constructor.
BASE_BUILT = [Collision, OccupiedResult, CoverageReport, CensusRow, Theorem4Report,
              MinParityReport, BurstGroup, BurstCensus, MapGrid, CellDiff]


@pytest.mark.parametrize("cls", BASE_BUILT, ids=lambda cls: cls.__name__)
def test_base_constructor_takes_each_field_once(cls):
    a, _ = _examples(cls)
    names, values = VALUES[cls][0], _fields(a)
    first, rest = names[0], dict(zip(names[1:], values[1:]))
    # the leading fields by position and the rest by name, in any order
    mixed = cls(values[0], **dict(reversed(rest.items())))
    assert mixed == cls(*values) == a and _fields(mixed) == values
    wanted = ", ".join(names)
    for args, kwargs in [(values[:-1], {}),                     # a field missing
                         (values + (0,), {}),                   # an extra positional
                         (values, {"extra": 0}),                # an unknown name
                         (values, {first: values[0]})]:         # a field given twice
        with pytest.raises(TypeError, match=rf"{cls.__name__} takes its fields \({wanted}\)"):
            cls(*args, **kwargs)


def test_search_stats_mutable_and_unhashable():
    stats = SearchStats()
    stats.candidates_evaluated += 3
    stats.placements_emitted = 1
    assert stats == SearchStats(3, 1)
    with pytest.raises(TypeError):
        hash(SearchStats())
