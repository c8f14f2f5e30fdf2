"""Validity oracle, double-weight accounting, theorems and searches."""

import copy
import hashlib
import json
import math
import pickle
import random
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError
from itertools import combinations, islice

import pytest
from hypothesis import given, settings, strategies as st

import oracles

from kmap_ecc.coverage import CENSUS_FAMILIES
from kmap_ecc.kcode import GrayLayout, from_parities, weight
from kmap_ecc.placement import (BLESSED_PAIR_SITUATIONS, ErrorPattern,
                                Placement, SClass, SearchStats,
                                X3_DOUBLE_WEIGHT_TABLE, double_weight_count,
                                forbidden_squares, guided_search, is_valid,
                                naive_search, occupied_map,
                                reference_placements, theorem1_overlap,
                                theorem2_overlap, triple_classes,
                                _placement)

W4PLUS = [x for x in range(128) if weight(x) >= 4]


def valid_codes(*data):
    return is_valid(Placement(7, tuple(data)))


# --- error patterns ---

def test_pattern_labels():
    assert ErrorPattern.of(data=(1, 3)).label == "X_1X_3"
    assert ErrorPattern.of(data=(2,), parities=(7,)).label == "X_2P_7"
    assert ErrorPattern.of(parities=(3, 1, 6)).label == "P_1P_3P_6"
    assert ErrorPattern().label == "clean"


@pytest.mark.parametrize("make", [
    lambda: ErrorPattern.of(data=(0,)),
    lambda: ErrorPattern.of(parities=(0,)),
    lambda: ErrorPattern.of(data=(1,), parities=(-2,)),
    lambda: ErrorPattern.of(data=(0,), parities=(1,)),
    lambda: ErrorPattern(frozenset({-1})),
    lambda: ErrorPattern.of(data=[True]),
    lambda: ErrorPattern.of(parities=[1.5]),
    lambda: ErrorPattern.of(data=["1"]),
    lambda: ErrorPattern.of(data=[2, "1", 0.5], parities=[False]),
], ids=["of-data-0", "of-parity-0", "of-parity-negative", "of-data-0-parity-1",
        "constructor-negative", "of-data-bool", "of-parity-float", "of-data-str",
        "of-mixed-types"])
def test_pattern_members_below_1_are_rejected(make):
    with pytest.raises(ValueError, match="numbered from 1"):
        make()


# --- occupied map / validity ---

def test_parity_only_map_occupies_29_squares():
    result = occupied_map(Placement(7, ()))
    assert result.valid
    assert len(result.mapping) == 1 + 7 + math.comb(7, 2)


def test_reference_triple_occupies_56_squares(refs):
    result = occupied_map(refs["s445_433"])
    assert result.valid
    assert len(result.mapping) == 1 + 10 + math.comb(10, 2)
    assert result.mapping[0].label == "clean"
    x1x2 = refs["s445_433"].data[0] ^ refs["s445_433"].data[1]
    assert result.mapping[x1x2].label == "X_1X_2"


def test_weight2_data_bit_collides():
    result = occupied_map(Placement(7, (from_parities([1, 2]),)))
    assert not result.valid
    labels = {"=".join(p.label for p in c.patterns) for c in result.collisions}
    # X_1P_1 lands on P_2 and X_1P_2 lands on P_1
    assert any("X_1P_1" in s and "P_2" in s for s in labels)


def test_close_pair_invalid():
    # any pair at distance <= 2 collides with a parity or parity-pair square
    x1 = from_parities([1, 2, 3, 4])
    for x2 in range(128):
        if x2 != x1 and weight(x2) >= 4 and weight(x1 ^ x2) <= 2:
            assert not valid_codes(x1, x2)


def test_reference_placements_valid(refs):
    for p in refs.values():
        assert is_valid(p)
        assert not occupied_map(p).collisions


# --- side-square offsets and double-weight counts ---

def test_single_counts_by_weight_class():
    expected = {4: 10, 5: 10, 6: 0, 7: 0}
    for code in W4PLUS:
        assert double_weight_count(code, (), 7) == expected[weight(code)]


def test_pair_count_15_for_distance4_n4_pair():
    x1 = from_parities([1, 2, 3, 4])
    x2 = from_parities([1, 2, 5, 6])
    assert double_weight_count(x2, (x1,), 7) == 15


def test_table1_example_19(refs):
    p = refs["s445_433"]
    assert double_weight_count(p.data[2], p.data[:2], 7) == 19


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 10), st.data())
def test_double_weight_count_matches_brute_force(n, data):
    code = st.integers(0, (1 << n) - 1)
    candidate = data.draw(code)
    priors = data.draw(st.lists(code, max_size=3))
    assert (double_weight_count(candidate, priors, n)
            == oracles.double_weight_count(candidate, priors, n))


def test_double_weight_permutation_invariance():
    rng = random.Random(1)
    p = reference_placements()["s445_433"]
    base = double_weight_count(p.data[2], p.data[:2], 7)
    for _ in range(25):
        perm = list(range(1, 8))
        rng.shuffle(perm)
        q = oracles.permute_bits(p, perm)
        assert double_weight_count(q.data[2], q.data[:2], 7) == base


# --- theorems ---

def test_theorem1_exhaustive():
    for a in range(128):
        for b in range(128):
            if weight(a ^ b) == 4:
                assert theorem1_overlap(a, b, 7) == 6


def test_theorem1_precondition():
    with pytest.raises(ValueError):
        theorem1_overlap(0, from_parities([1, 2, 3, 4, 5]), 7)


def test_theorem1_checks_distance_then_each_code():
    with pytest.raises(ValueError, match="distance exactly 4"):
        theorem1_overlap(0, 31, 3)
    with pytest.raises(ValueError, match="map width must be in"):
        theorem1_overlap(0, 15, 3)
    with pytest.raises(ValueError, match="code 240 does not fit a 7-bit map"):
        theorem1_overlap(240, 255, 7)
    with pytest.raises(ValueError, match="code 204 does not fit a 7-bit map"):
        theorem1_overlap(15, 204, 7)


def test_theorem2_exhaustive():
    for a in range(128):
        wa = weight(a)
        for b in range(128):
            if abs(weight(b) - wa) == 1 and weight(a ^ b) == 3:
                assert theorem2_overlap(a, b, 7) == 6


def test_theorem2_precondition():
    a = from_parities([1, 2, 3, 4])
    b = from_parities([1, 2, 5, 6])
    with pytest.raises(ValueError):
        theorem2_overlap(a, b, 7)
    with pytest.raises(ValueError, match="does not fit a 4-bit map"):
        theorem2_overlap(0b11110000, 0b11100011, 4)


@pytest.mark.parametrize("overlap, a, b, n, message", [
    (theorem1_overlap, True, 14, 7, "K-code must be an integer, got True"),
    (theorem1_overlap, 0, 15, 7.0, "map width must be an integer, got 7.0"),
    (theorem1_overlap, 0, 15, 17, "map width must be in"),
    (theorem2_overlap, True, 6, 4, "K-code must be an integer, got True"),
    (theorem2_overlap, 1, 6, 4.0, "map width must be an integer, got 4.0"),
    (theorem2_overlap, 1, 1 << 20 | 2, 16, "code 1048578 does not fit a 16-bit map"),
], ids=["t1-bool", "t1-float-width", "t1-wide", "t2-bool", "t2-float-width", "t2-past-width"])
def test_overlap_codes_are_refused_as_check_code_does(overlap, a, b, n, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        overlap(a, b, n)


def test_theorem3_xor_square_keeps_distance_2():
    for x1 in W4PLUS:
        for x2 in W4PLUS:
            if x2 <= x1 or not valid_codes(x1, x2):
                continue
            x12 = x1 ^ x2
            assert weight(x12 ^ x1) >= 2
            assert weight(x12 ^ x2) >= 2


# --- forbidden squares ---

def test_forbidden_squares_reference_pair(refs):
    x1, x2 = refs["s44_4"].data
    marks = forbidden_squares(x1, x2, 7)
    assert len(marks) == 7
    assert x1 ^ x2 not in marks
    assert marks == forbidden_squares(x2, x1, 7)
    # placing X_3 on a mark aliases X_2X_3 with an X_1P_k pattern
    for x3 in marks:
        if weight(x3) >= 4 and x3 not in (x1, x2):
            assert not valid_codes(x1, x2, x3)


# --- searches ---

def test_naive_search_single_bit_count():
    found = list(naive_search(7, 1))
    assert len(found) == 35 + 21 + 7 + 1
    assert [p.data[0] for p in found] == sorted(p.data[0] for p in found)


def test_guided_first_triple_is_a_19_class():
    first = next(guided_search(7, 3))
    cls = SClass.from_placement(first)
    assert X3_DOUBLE_WEIGHT_TABLE[cls] == 19


def test_guided_emits_valid_4_data_placement():
    p = next(guided_search(7, 4))
    assert p.d == 4 and is_valid(p)


@pytest.mark.parametrize("n", [7, 8, 16])
@pytest.mark.parametrize("d", [0, 5])
def test_guided_refuses_data_counts_it_does_not_place(n, d):
    with pytest.raises(ValueError, match="1 to 4 data bits"):
        next(guided_search(n, d))


REFUSED_AT_CALL = [(guided_search, (3, 3)), (guided_search, (7, 5)),
                   (guided_search, (7, 3, SClass.parse("S_44^4"))),
                   (guided_search, (7, 2, SClass.parse("S_447^433"))),
                   (naive_search, (7, 5))]      # C(64, 5) tuples, over the budget


@pytest.mark.parametrize("search, args", REFUSED_AT_CALL,
                         ids=[str(a) if s is guided_search else f"{s.__name__}{a}"
                              for s, a in REFUSED_AT_CALL])
def test_guided_checks_its_arguments_at_the_call(search, args):
    """Either search refuses bad arguments before it yields anything."""
    with pytest.raises(ValueError):
        search(*args)


def _stream_pin(stream):
    """Count and SHA-256 of the data tuples of a placement stream."""
    h = hashlib.sha256()
    count = 0
    for p in stream:
        h.update(repr(p.data).encode() + b"\n")
        count += 1
    return count, h.hexdigest()


#: (n, d, limit) -> (placements, candidates evaluated, digest), taken from
#: the search that filtered X_3 through a 2^n side-square table.
GUIDED_STREAM_PINS = {
    (7, 3, None): (45360, 284480,
                   "1d7f6c6e24d211a0f4da9b9dfb719606aaf40641e2e1bb2ff97dae475acf758f"),
    (7, 4, 2000): (2000, 17156,
                   "4f814737b67387fd99bc0fac8be3feb2969b1e31a6e5be9e6ac66daf5825a39a"),
    (8, 4, 20000): (20000, 41808,
                    "16f5264d82903e1b60ae0ceb58faf3d795db2af9bdd398c102ba73bb7e911f75"),
}


@pytest.mark.parametrize("key", GUIDED_STREAM_PINS, ids=str)
def test_guided_stream_pinned(key):
    n, d, limit = key
    stats = SearchStats()
    count, digest = _stream_pin(islice(guided_search(n, d, stats=stats), limit))
    assert (count, stats.candidates_evaluated, digest) == GUIDED_STREAM_PINS[key]
    assert stats.placements_emitted == count


#: (search, n, d, limit) -> (placements, SHA-256 of the
#: (data, candidates evaluated, placements emitted) line read at each yield),
#: taken from the searches that walked X_3 through a bit generator and built
#: every naive tuple.
YIELD_COUNTER_PINS = {
    ("guided", 7, 3, None):
        (45360, "4620c44f59e369e516ed7b3b42cf12cb6a7c7720cd2e633d7756e0cdc96e2483"),
    ("guided", 7, 4, 2000):
        (2000, "4e0ac5224b24be69a8ca52df5186388db77958529d4a444f9fd0d29f97b35406"),
    ("guided", 8, 4, 20000):
        (20000, "006534fdcebf5526b00bbd617b718df7404b4be7ea80d0c7d5a2eea7de2a069a"),
    ("naive", 7, 4, 1):
        (1, "a92ed526f2064edcd8c2593f57e8eaf2e10102f6b19ad3381b42fdc327c49b5e"),
    ("naive", 7, 3, None):
        (10920, "95a867f29d62abe5fc19410f17c481432b078b5cd7ae5d977eae28ef471bd3d8"),
    ("naive", 7, 4, 2000):
        (2000, "24b609ba088f99efd5d027485107598a84a3abf1e3b3c8855b0051af2e24d537"),
}


@pytest.mark.parametrize("d, limit", [(1, None), (2, None), (3, None), (4, 500)])
def test_naive_search_matches_every_tuple_filtered_by_oracle(d, limit):
    """The prefix walk hands out what the tuple-by-tuple walk would, with the
    same counters at every yield: a tuple counts when it is reached."""
    def brute():
        seen = 0
        for combo in combinations([x for x in range(128) if weight(x) >= 4], d):
            seen += 1
            if not oracles.collides(combo, 7):
                yield combo, seen
    stats = SearchStats()
    got = [(p.data, stats.candidates_evaluated, stats.placements_emitted)
           for p in islice(naive_search(7, d, stats=stats), limit)]
    want = [(combo, seen, k + 1) for k, (combo, seen) in enumerate(islice(brute(), limit))]
    assert got == want


@pytest.mark.parametrize("key", YIELD_COUNTER_PINS, ids=str)
def test_search_counters_pinned_at_every_yield(key):
    """The counters are exact whenever a placement is handed out, not only
    once the stream ends."""
    name, n, d, limit = key
    search = guided_search if name == "guided" else naive_search
    stats = SearchStats()
    h, count = hashlib.sha256(), 0
    for p in islice(search(n, d, stats=stats), limit):
        line = (p.data, stats.candidates_evaluated, stats.placements_emitted)
        h.update(repr(line).encode() + b"\n")
        count += 1
    assert (count, h.hexdigest()) == YIELD_COUNTER_PINS[key]


#: n -> (classes, SHA-256 of their "label count" lines), taken from the
#: walk that tried every n-bit X_3 over a pair of each blessed situation.
TRIPLE_CLASS_PINS = {
    4: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    5: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    6: (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    7: (24, "f5c535f8fde3c526487e6433b7af164bdef8b3c27117b263adc157a89636603d"),
    8: (80, "e472a394059f9a9d3656315d1a1b8e54212dd51806fb5546a2a0db688877604e"),
    9: (152, "80ba7a57b290a37e3ac2948101f4cdef4ce1257d19d49f93ebd77056fc4b0894"),
    10: (230, "7a19e756d0d421d3ed01fff91eb69d7b83668684a655f46c20a8e964324bbfe9"),
    11: (309, "0357b7f3951b33186cea5e9be02f6cbd441e5aaa4d1297357cf654aeaced76d0"),
    12: (388, "9a3959a02a0fe22246e45707aa9d56ec6862eae4db884f8cd39ff158fd63c7d5"),
}


@pytest.mark.parametrize("n", TRIPLE_CLASS_PINS)
def test_triple_classes_pinned(n):
    rows = triple_classes(n)
    text = "".join(f"{cls.label} {count}\n" for cls, count in rows)
    assert (len(rows), hashlib.sha256(text.encode()).hexdigest()) == TRIPLE_CLASS_PINS[n]


@pytest.mark.parametrize("n", range(4, 10))
def test_unguided_pairs_are_the_blessed_class_streams(n):
    """The unguided d=2 search emits each blessed pair class's pinned stream
    in turn and counts what they count; a class with a weight past n, which
    the pinned search refuses, adds nothing."""
    stats = SearchStats()
    got = [p.data for p in guided_search(n, 2, stats=stats)]
    want, total = [], 0
    for w1, w2, dist in BLESSED_PAIR_SITUATIONS:
        cls = SClass((w1, w2), (dist,))
        if not cls.fits(n):
            with pytest.raises(ValueError, match="outside"):
                guided_search(n, 2, sclass=cls)
            continue
        pinned = SearchStats()
        want += [p.data for p in guided_search(n, 2, sclass=cls, stats=pinned)]
        total += pinned.candidates_evaluated
    assert got == want
    assert stats.candidates_evaluated == total
    assert stats.placements_emitted == len(got)


#: Classes the guided search cannot realize: X_3 of weight 3, X_3 within
#: distance 2 of X_1 or X_2, a pair within distance 2, X_1 of weight 3, and
#: for 2 data bits a pair within distance 2, X_1 of weight 3 and a distance
#: no codes of weights 4 and 5 have.
_UNREALIZABLE = ("S_443^444", "S_444^424", "S_444^442", "S_444^244",
                 "S_344^444", "S_454^323", "S_44^2", "S_34^3", "S_45^6")


def _pinned_classes(n):
    labels = [lab for fam in CENSUS_FAMILIES for lab in fam] + list(_UNREALIZABLE)
    labels += [f"S_{w1}{w2}^{dist}" for w1, w2, dist in BLESSED_PAIR_SITUATIONS]
    classes = {cls for cls, _count in triple_classes(n)}
    return sorted(classes | {SClass.parse(lab) for lab in labels}, key=oracles.sclass_key)


@pytest.mark.parametrize("n,limit", [(7, None), (8, 2000)])
def test_class_pinned_stream_matches_candidate_walk(n, limit):
    """The ring-bitset X_3 step emits what the candidate-by-candidate walk
    emits, with the same candidate count at every placement and at the end
    (at n=8, whose classes emit about a million trios, the first `limit`
    of each class)."""
    for cls in _pinned_classes(n):
        stats = SearchStats()
        stream = guided_search(n, len(cls.weights), sclass=cls, stats=stats)
        got = [(p.data, stats.candidates_evaluated) for p in islice(stream, limit)]
        want, total = oracles.class_pinned_search(n, cls, limit)
        assert got == want, cls.label
        assert stats.candidates_evaluated == total, cls.label
        assert stats.placements_emitted == len(want), cls.label


def test_search_emitted_placements_equal_constructed_ones():
    streams = [guided_search(7, d) for d in (1, 2, 3)]
    streams += [islice(guided_search(7, 4), 300), naive_search(7, 2),
                islice(naive_search(7, 4), 50),
                guided_search(7, 2, sclass=SClass.parse("S_45^3"))]
    for stream in streams:
        for p in stream:
            q = Placement(p.n, p.data)
            assert type(p) is Placement and p == q and hash(p) == hash(q)
            assert repr(p) == repr(q) and type(p.data) is tuple


def test_placement_stores_d_outside_its_value():
    """``d`` is stored once as ``len(data)`` however a placement is made,
    copied or unpickled; equality, hash and repr still read (n, data)
    alone, and no field can be assigned or added."""
    data = (106, 86, 127)
    made = [Placement(7, data), _placement(7, data),
            Placement.from_json({"n": 7, "data": list(data)})]
    made += [twin for p in made
             for twin in (pickle.loads(pickle.dumps(p)), copy.copy(p), copy.deepcopy(p))]
    for p in made:
        assert type(p) is Placement and not hasattr(p, "__dict__")
        assert p.d == len(p.data) == 3
        assert p == made[0] and hash(p) == hash((7, data))
        assert repr(p) == "Placement(n=7, data=(106, 86, 127))"
        for name, value in (("n", 8), ("data", (106,)), ("d", 1), ("extra", 0)):
            with pytest.raises(FrozenInstanceError):
                setattr(p, name, value)
        assert (p.n, p.data, p.d) == (7, data, 3)
    assert Placement(7, data[:2]) != made[0] and Placement(7, ()).d == 0
    assert _placement(16, tuple(range(1, 15))).d == 14


_FIRST_TRIPLE_PEAK = """
import json
import tracemalloc
from kmap_ecc.placement import guided_search
tracemalloc.start()
first = next(guided_search(16, 3))
print(json.dumps([list(first.data), tracemalloc.get_traced_memory()[1]]))
"""


def test_first_triple_at_width_16_in_bounded_memory():
    """Measured in a fresh interpreter, so no cache another test filled hides
    what the first hit allocates."""
    proc = subprocess.run([sys.executable, "-c", _FIRST_TRIPLE_PEAK],
                          capture_output=True, text=True, timeout=300, check=True)
    data, peak = json.loads(proc.stdout)
    assert data == [15, 51, 85]
    assert peak < 32 * 2**20


def test_guided_at_width_4_has_no_weight_5_class():
    assert [p.data for p in guided_search(4, 1)] == [(15,)]
    assert list(guided_search(4, 2)) == []


def test_guided_placements_all_valid_sample():
    for p in islice(guided_search(7, 3), 200):
        assert is_valid(p)


def test_class_pinned_search_reaches_reference_placement(refs):
    target = refs["s445_433"]
    cls = SClass.from_placement(target)
    stream = guided_search(7, 3, sclass=cls)
    found = {p.data for p in stream}
    assert all(SClass.from_placement(Placement(7, d)) == cls for d in found)
    # the reference placement itself appears (it needs no relabeling here)
    assert target.data in found


def test_guided_and_naive_agree_on_pairs():
    naive_pairs = {frozenset(p.data) for p in naive_search(7, 2)}
    guided_pairs = {frozenset(p.data) for p in guided_search(7, 2)}
    assert guided_pairs <= naive_pairs
    leftovers = naive_pairs - guided_pairs
    # everything naive finds beyond the guided stream is outside the blessed situations
    for pair in leftovers:
        a, b = sorted(pair)
        assert ((weight(a), weight(b), weight(a ^ b)) not in BLESSED_PAIR_SITUATIONS
                and (weight(b), weight(a), weight(a ^ b)) not in BLESSED_PAIR_SITUATIONS)


def test_guided_evaluates_fewer_candidates_d3():
    gs, ns = SearchStats(), SearchStats()
    next(guided_search(7, 3, stats=gs))
    next(naive_search(7, 3, stats=ns))
    assert 0 < gs.candidates_evaluated < ns.candidates_evaluated


def test_guided_and_naive_agree_on_triples_with_constant_counts():
    """Full d=3 agreement inside the explored classes, plus double-weight
    constancy across every ordered placement of every reachable class."""
    per_class = {}
    guided_sets = set()
    for p in guided_search(7, 3):
        cls = SClass.from_placement(p)
        per_class.setdefault(cls, set()).add(
            double_weight_count(p.data[2], p.data[:2], 7))
        guided_sets.add(frozenset(p.data))
    assert all(len(counts) == 1 for counts in per_class.values())
    lookup = dict(triple_classes(7))
    for cls, counts in per_class.items():
        assert counts == {lookup[cls]}

    reachable = {(tuple(sorted(c.weights)), tuple(sorted(c.distances)))
                 for c in per_class}
    naive_sets = {frozenset(p.data) for p in naive_search(7, 3)}
    assert guided_sets <= naive_sets
    for trio in naive_sets - guided_sets:
        a, b, c = sorted(trio)
        key = (tuple(sorted(map(weight, (a, b, c)))),
               tuple(sorted(weight(x ^ y) for x, y in ((a, b), (a, c), (b, c)))))
        assert key not in reachable


def test_triple_classes_priorities_match_reference_table():
    classes = dict(triple_classes(7))
    for cls, count in X3_DOUBLE_WEIGHT_TABLE.items():
        if cls in classes:
            assert classes[cls] == count
    # priority order starts at the 19-classes
    ordered = triple_classes(7)
    assert ordered[0][1] == 19


def test_search_determinism():
    a = [p.data for p in islice(guided_search(7, 3), 50)]
    b = [p.data for p in islice(guided_search(7, 3), 50)]
    assert a == b


def test_placement_json_round_trip(refs):
    p = refs["s447_433"]
    assert Placement.from_json(p.to_json()) == p


@pytest.mark.parametrize("make, bad", [
    (lambda: Placement(7, (106.9, 86, True)), "106.9"),
    (lambda: Placement(7.5, (106,)), "7.5"),
    (lambda: GrayLayout(7, (7.0, 5, 3, 1), (6, 4, 2)), "7.0"),
    (lambda: Placement(7, (106, 86, True)), "True"),
], ids=["data-float", "width-float", "layout-float", "data-bool"])
def test_non_integer_values_are_refused(make, bad):
    """The value types take ints only: a float or a bool is never truncated."""
    with pytest.raises(ValueError, match=f"must be an integer, got {bad}$"):
        make()


@pytest.mark.parametrize("data", ["127", b"12", 127], ids=repr)
def test_placement_data_must_be_a_sequence_of_codes(data):
    """A string is not read character by character, nor bytes byte by byte."""
    with pytest.raises(ValueError, match="^placement data must be a sequence of K-codes, "
                                         f"got {re.escape(repr(data))}$"):
        Placement(7, data)


def test_sclass_labels():
    cls = SClass((4, 4, 5), (4, 3, 3))
    assert cls.label == "S_445^433"
    assert SClass.parse("S_445^433") == cls
    assert SClass.parse("S_4,4,5^4,3,3") == cls
    # labels round-trip, also once a weight or distance passes 9
    for cls, label in ((SClass((4,), ()), "S_4^"), (SClass((12,), ()), "S_12^"),
                       (SClass((5, 5), (10,)), "S_5,5^10")):
        assert cls.label == label and SClass.parse(label) == cls
    classes = [cls for cls, _ in triple_classes(16)]
    assert any(v >= 10 for cls in classes for v in cls.weights + cls.distances)
    assert all(SClass.parse(cls.label) == cls for cls in classes)


@pytest.mark.parametrize("w", range(8))
def test_one_bit_class_pin_yields_every_valid_code_of_its_weight(w):
    stats = SearchStats()
    got = [p.data for p in guided_search(7, 1, sclass=SClass((w,), ()), stats=stats)]
    codes = [x for x in range(128) if weight(x) == w]
    assert got == [(x,) for x in codes if is_valid(Placement(7, (x,)))]
    assert stats.candidates_evaluated == len(codes)
    assert stats.placements_emitted == len(got) == (len(codes) if w >= 4 else 0)
