"""Burst-safe transmission orderings, mostly for the 10-bit reference map."""

import multiprocessing
import random

import pytest

import oracles
from kmap_ecc.burst import (BURST_STATE_BUDGET, Ordering, _allowed_thirds,
                            _twin_classes, burst_triples, failing_window,
                            search_orderings)
from kmap_ecc.coverage import CENSUS_FAMILIES, census, three_bit_coverage
from kmap_ecc.placement import Placement, SClass, guided_search

QUOTED = (
    "X1,P7,P3,P6,X3,P2,P4,P1,P5,X2",
    "X1,P2,P5,X3,P4,P3,P1,P6,P7,X2",
    "X2,P5,X3,P2,P4,P3,P7,P6,P1,X1",
)


@pytest.fixture(scope="module")
def ref447_report(refs):
    return three_bit_coverage(refs["s447_433"])


def test_ordering_parse_and_label():
    o = Ordering.parse(QUOTED[0])
    assert o.symbols[0] == ("X", 1) and o.symbols[-1] == ("X", 2)
    assert o.label == QUOTED[0]
    assert Ordering.parse("X_1,P_7,P_3,P_6,X_3,P_2,P_4,P_1,P_5,X_2") == o


@pytest.mark.parametrize("make", [
    lambda: Ordering((("X", 1), ("Q", 2), ("P", 1), ("X", 2))),
    lambda: Ordering((("X", 1), ("P", 0), ("X", 2))),
    lambda: Ordering((("X", True), ("P", 1), ("X", 2))),
    lambda: Ordering((("X", 1.0), ("P", 1), ("X", 2))),
    lambda: Ordering((("X", "1"), ("P", 1), ("X", 2))),
    lambda: Ordering((5,)),
    lambda: Ordering((("X", 1, 2),)),
    lambda: Ordering.parse("X1,P0,X2"),
    lambda: Ordering.parse(QUOTED[0] + "\n"),
    lambda: Ordering.parse("X1,P7x,X2"),
], ids=["kind-Q", "index-0", "index-bool", "index-float", "index-str",
        "symbol-not-pair", "symbol-triple", "parse-P0",
        "parse-trailing-newline", "parse-trailing-text"])
def test_ordering_refuses_symbols_that_name_no_code_bit(make):
    with pytest.raises(ValueError, match="numbered from 1|bad ordering token"):
        make()


def test_burst_windows():
    o = Ordering.parse(QUOTED[0])
    windows = burst_triples(o)
    assert len(windows) == 8
    assert windows[0].label == "X_1P_3P_7"
    assert windows[-1].label == "X_2P_1P_5"


def test_reversal_keeps_window_multiset():
    o = Ordering.parse(QUOTED[1])
    assert sorted(w.label for w in burst_triples(o)) == \
           sorted(w.label for w in burst_triples(Ordering(o.symbols[::-1])))


@pytest.mark.parametrize("text", QUOTED)
def test_quoted_orderings_are_burst_safe(text, ref447_report):
    assert failing_window(Ordering.parse(text), ref447_report) is None


def test_failing_window_is_named(ref447_report):
    # natural order is not burst safe; the first bad window is identified
    o = Ordering.parse("X1,X2,X3,P1,P2,P3,P4,P5,P6,P7")
    bad = failing_window(o, ref447_report)
    assert bad == 0
    assert burst_triples(o)[bad].label == "X_1X_2X_3"


def test_incomplete_ordering_rejected(ref447_report):
    with pytest.raises(ValueError):
        failing_window(Ordering.parse("X1,P7,P3"), ref447_report)


def test_census_shapes_and_counts(ref447_report):
    cs = search_orderings(ref447_report)
    assert cs.total == 640
    shapes = oracles.burst_shapes(cs)
    assert shapes == tuple((0, k, 9) for k in range(1, 9))
    for g in cs.groups:
        assert failing_window(g.representative, ref447_report) is None
        o = g.representative
        assert tuple(i for i, (kind, _) in enumerate(o.symbols) if kind == "X") == g.shape


def test_census_reversal_closure(ref447_report):
    cs = search_orderings(ref447_report)
    by_shape = {}
    for g in cs.groups:
        by_shape[g.shape] = by_shape.get(g.shape, 0) + g.count
    for shape, count in by_shape.items():
        mirrored = tuple(sorted(9 - p for p in shape))
        assert by_shape.get(mirrored) == count


def test_census_windows_pairwise_distinct(ref447_report):
    cs = search_orderings(ref447_report)
    for g in cs.groups:
        windows = burst_triples(g.representative)
        assert len(set(windows)) == len(windows)


def test_burst_safety_survives_coordinate_relabeling(refs, ref447_report):
    rng = random.Random(11)
    for _ in range(5):
        perm = list(range(1, 8))
        rng.shuffle(perm)
        q = oracles.permute_bits(refs["s447_433"], perm)
        report_q = three_bit_coverage(q)
        for text in QUOTED:
            o = Ordering.parse(text)
            relabeled = Ordering(tuple(
                (kind, perm[idx - 1] if kind == "P" else idx)
                for kind, idx in o.symbols))
            assert failing_window(relabeled, report_q) is None


def test_census_threads_deterministic(ref447_report):
    a = search_orderings(ref447_report, threads=1)
    b = search_orderings(ref447_report, threads=2)
    assert a == b


#: s447_433, s445_433, then the census(7) representatives of S_444^444 (no
#: burst-safe ordering), S_454^343 (180 groups) and S_445^453 (8 orderings)
ORACLE_MAPS = ((106, 86, 127), (106, 86, 79), (15, 51, 85), (15, 55, 83), (15, 51, 117))


def _assert_same_census(got, want):
    """Compare two censuses in ``BurstCensus.to_json`` form a piece at a
    time, so that a mismatch reports its total or one group, not a diff of
    two documents of thousands of groups."""
    assert got["placement"] == want["placement"]
    assert (got["total"], len(got["groups"])) == (want["total"], len(want["groups"]))
    for g, w in zip(got["groups"], want["groups"]):
        assert g == w


def _agrees_with_index_walk(report):
    got = search_orderings(report)
    _assert_same_census(got.to_json(), oracles.burst_census_index(report).to_json())
    return got


@pytest.mark.parametrize("data", ORACLE_MAPS, ids=str)
def test_search_matches_pattern_oracle(data):
    report = three_bit_coverage(Placement(7, data))
    _assert_same_census(_agrees_with_index_walk(report).to_json(), oracles.burst_census_json(report))


@pytest.mark.parametrize("label", [lab for fam in CENSUS_FAMILIES for lab in fam])
def test_census_representatives_match_index_walk(label):
    # the twins are read from the covered set, which each rule builds its own way
    p = next(guided_search(7, 3, sclass=SClass.parse(label)))
    for mode in ("strict", "assignable"):
        _agrees_with_index_walk(three_bit_coverage(p, mode))


def test_twin_classes_of_the_reference_map(ref447_report):
    # code bit 2 + k is P_k: the twins are {P2,P7}, {P3,P5} and {P4,P6}
    twins = [c for c in _twin_classes(ref447_report) if c.bit_count() > 1]
    assert twins == [1 << 4 | 1 << 9, 1 << 5 | 1 << 7, 1 << 6 | 1 << 8]
    # the walk lists the 80 orderings with each pair ascending and counts
    # each for the 2!^3 = 8 orderings of its twins
    walked = [o for o in oracles.index_walk(*_allowed_thirds(ref447_report))
              if o.index(4) < o.index(9) and o.index(5) < o.index(7)
              and o.index(6) < o.index(8)]
    assert len(walked) == 80
    assert search_orderings(ref447_report).total == 8 * len(walked)


def test_census_at_width_8():
    p = next(guided_search(8, 3))
    assert p.data == (15, 51, 85)
    report = three_bit_coverage(p)
    cs = _agrees_with_index_walk(report)
    assert (cs.total, len(cs.groups)) == (24384, 954)
    by_shape = {}
    for g in cs.groups:
        assert failing_window(g.representative, report) is None
        by_shape[g.shape] = by_shape.get(g.shape, 0) + g.count
    for shape, count in by_shape.items():
        assert by_shape.get(tuple(sorted(10 - pos for pos in shape))) == count


def test_census_at_width_9():
    # the index walk lists all 1,825,920 orderings, too slow to compare here
    p = next(guided_search(9, 3))
    assert p.data == (15, 51, 85)
    cs = search_orderings(three_bit_coverage(p))
    assert (cs.total, len(cs.groups)) == (1825920, 1320)


def test_search_and_census_start_no_process(monkeypatch, ref447_report):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    assert search_orderings(ref447_report, 4).total == 640
    assert census(7, threads=4) == census(7)


@pytest.mark.parametrize("n", [16])      # n=10 completes in the width gate's child run
def test_search_over_state_budget_is_refused(n):
    report = three_bit_coverage(next(guided_search(n, 3)))
    with pytest.raises(ValueError, match=f"budget of {BURST_STATE_BUDGET:,} states"):
        search_orderings(report)
