"""The minimum-distance kernel and the triple walks against the
brute-force pattern oracles.

`_collides` decides syndrome collisions from data subsets, and the triple
walks behind `theorem4_check`, the min-parity sweeps and the full-coverage
search from weights and pair distances; `oracles` lists every pattern and
its syndrome instead.  The pruned sweep's weight rule (on every n=9 triple)
and its whole report, the unpruned report, the theorem-4 survivors and the
first covering placements are each checked against such a listing, and
pinned where listing is slow.
"""

import math
import random
from collections import Counter
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from kmap_ecc.coverage import (MinParityReport, Theorem4Report, min_parity_search,
                               theorem4_check)
from kmap_ecc.kcode import weight
from kmap_ecc.placement import _collides

W4PLUS = [x for x in range(128) if weight(x) >= 4]


def test_kernel_matches_oracles_exhaustively_at_7():
    checked = 0
    for d in (1, 2, 3):
        for data in combinations(W4PLUS, d):
            assert _collides(data) == oracles.collides(data, 7), data
            kind = oracles.first_collision_kind(data, 7)
            assert _collides(data, bound=7) == (kind is not None), data
            checked += 1
    assert checked == 64 + math.comb(64, 2) + math.comb(64, 3)


@st.composite
def placements(draw):
    n = draw(st.integers(4, 12))
    data = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=5))
    return n, data


@settings(max_examples=400, deadline=None)
@given(placements())
def test_kernel_matches_oracles_at_any_width(case):
    n, data = case
    assert _collides(data) == oracles.collides(data, n)
    kind = oracles.first_collision_kind(data, n)
    assert _collides(data, bound=7) == (kind is not None)


def _pruned_pairs(n):
    """Each weight-5 code to the later ones at distance at least 5 from it."""
    n5 = [x for x in range(1 << n) if weight(x) == 5]
    return {a: [b for b in n5 if b > a and weight(a ^ b) >= 5] for a in n5}


def _pruned_triples(n):
    """Every triple of weight-5 codes at pairwise distance at least 5."""
    later = _pruned_pairs(n)
    return [(a, b, c) for a in later for b in later[a] for c in later[b]
            if weight(a ^ c) >= 5]


def _weight_rule(a, b, c):
    """The first collision kinds the pruned sweep counts a triple under."""
    return ("PPP", "XPP") if weight(a ^ b ^ c) >= 5 else ("XXP", "XPP")


@lru_cache(maxsize=None)
def _oracle_kinds(n):
    """Every triple the pruned sweep counts, with its first collision kind
    from the pattern oracle; listed once per width for the tests below."""
    triples = _pruned_triples(n)
    return triples, [oracles.first_collision_kind(t, n) for t in triples]


def test_first_collision_kind_on_every_pruned_triple_at_9():
    """Every triple the pruned n=9 sweep counts, all of weight(a ^ b ^ c)
    3, against the pattern oracle."""
    triples, kinds = _oracle_kinds(9)
    assert len(triples) == 7560
    assert {weight(a ^ b ^ c) for a, b, c in triples} == {3}
    for t, kind in zip(triples, kinds):
        assert _weight_rule(*t) == kind, t


def test_weight_rule_on_sampled_pruned_triples_at_10():
    by_weight = {}
    for t in _pruned_triples(10):
        by_weight.setdefault(weight(t[0] ^ t[1] ^ t[2]) >= 5, []).append(t)
    rng = random.Random(10)
    for heavy in (False, True):
        for t in rng.sample(by_weight[heavy], 300):
            assert _weight_rule(*t) == oracles.first_collision_kind(t, 10), t


@pytest.mark.parametrize("n, pairs, triples, ppp, xxp", [
    (11, 64911, 3341800, 2926000, 415800),
    (12, 216216, 25779600, 24116400, 1663200),
])
def test_pruned_min_parity_pinned(n, pairs, triples, ppp, xxp):
    assert min_parity_search(n).to_json() == {
        "n": n, "pruned": True, "weight_candidates": math.comb(n, 5),
        "pairs_meeting_conditions": pairs, "triples_meeting_conditions": triples,
        "covering_placements": 0, "infeasible": True,
        "failure_kinds": {"PPP=XPP": ppp, "XXP=XPP": xxp}, "witness": None,
    }


def test_theorem4_survivors_at_8():
    report = theorem4_check(8)
    assert not report.impossible
    assert len(report.survivors) == 13860
    for trio in report.survivors[:50] + report.survivors[-50:]:
        assert oracles.theorem4_survives(trio, 8)


def _unpruned_report(n, candidates, pairs, triples, covering, witness):
    return MinParityReport(n, False, candidates, pairs, triples, covering, {}, witness)


def test_unpruned_min_parity_10_pinned():
    """Also at n=11, the widest unpruned sweep any test runs."""
    for n, counts in ((10, (386, 35805, 902825, 415800)),
                      (11, (1024, 341880, 47132932, 36313200))):
        assert min_parity_search(n, pruned=False) == _unpruned_report(n, *counts, (63, 455, 729))


def _first_covering_triples(n, k):
    """Lexicographic walk over code triples, decided by the pattern oracle."""
    singles = [x for x in range(1 << n) if oracles.first_collision_kind((x,), n) is None]
    out = []
    for i, a in enumerate(singles):
        for j, b in enumerate(singles[i + 1:], i + 1):
            if oracles.first_collision_kind((a, b), n) is not None:
                continue
            for c in singles[j + 1:]:
                if oracles.first_collision_kind((a, b, c), n) is None:
                    out.append((a, b, c))
                    if len(out) == k:
                        return out
    return out


def test_unpruned_witness_is_the_first_covering_triple():
    assert [min_parity_search(10, pruned=False).witness] == _first_covering_triples(10, 1)


def _brute_force_theorem4_report(n):
    """The theorem-4 report from the pattern oracle: every valid single is
    counted, and each triple of surviving codes whose pairs survive is
    listed when it survives too, lexicographically."""
    singles = [x for x in range(1, 1 << n) if not oracles.collides((x,), n)]
    alive = [x for x in singles if oracles.theorem4_survives((x,), n)]
    later = {a: [b for b in alive if b > a and oracles.theorem4_survives((a, b), n)]
             for a in alive}
    survivors = tuple((a, b, c) for a in later for b in later[a] for c in later[b]
                      if c in later[a] and oracles.theorem4_survives((a, b, c), n))
    return Theorem4Report(n, not survivors, len(singles), math.comb(len(singles), 3), survivors)


@pytest.mark.parametrize("n", range(4, 9))
def test_theorem4_matches_set_reference(n):
    """The whole report against the survivor set the pattern oracle lists."""
    assert theorem4_check(n) == _brute_force_theorem4_report(n)


def _brute_force_pruned_report(n):
    """The pruned min-parity report from the list of every triple the sweep
    counts, each classified by the pattern oracle."""
    later = _pruned_pairs(n)
    triples, kinds = _oracle_kinds(n)
    fails = Counter("{}={}".format(*k) for k in kinds if k is not None)
    covering = [t for t, k in zip(triples, kinds) if k is None]
    return MinParityReport(n, True, len(later), sum(map(len, later.values())),
                           len(triples), len(covering), dict(sorted(fails.items())),
                           covering[0] if covering else None)


def _brute_force_unpruned_report(n):
    """The unpruned min-parity report from the pattern oracle: the codes
    and pairs that keep every <=3-bit syndrome distinct, the triples of
    such codes whose pairs all do, and those that do themselves."""
    def clean(data):
        return oracles.first_collision_kind(data, n) is None
    singles = [x for x in range(1 << n) if clean((x,))]
    later = {a: [b for b in singles if b > a and clean((a, b))] for a in singles}
    triples = [(a, b, c) for a in later for b in later[a] for c in later[b] if c in later[a]]
    covering = [t for t in triples if clean(t)]
    return _unpruned_report(n, len(singles), sum(map(len, later.values())), len(triples),
                            len(covering), covering[0] if covering else None)


@pytest.mark.parametrize("n", range(4, 10))
def test_min_parity_matches_list_and_covering_references(n):
    """The pruned report, field by field, against the brute-force one (at
    n=9 every one of its 7,560 triples is classified by the pattern oracle),
    and the unpruned report against the covering listing, pinned at n=9,
    where listing takes 1.7 s."""
    assert min_parity_search(n) == _brute_force_pruned_report(n)
    unpruned = (_unpruned_report(9, 130, 2100, 2800, 0, None) if n == 9
                else _brute_force_unpruned_report(n))
    assert min_parity_search(n, pruned=False) == unpruned
