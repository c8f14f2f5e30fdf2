"""The minimum-distance kernel against the brute-force pattern oracles.

`_collides`, `theorem4_check`, the min-parity walks and the subset-walk
classifier `oracles._first_collision_kind` decide syndrome collisions from
data subsets alone; `oracles` lists every pattern and its syndrome instead.
The pruned sweep's weight rule is checked against that listing.  The one
bitset triple walk behind theorem 4, both min-parity modes and the
full-coverage search is also checked against the set-, list- and
covering-walk references it replaced.
"""

import math
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from oracles import _first_collision_kind
from kmap_ecc.coverage import full_coverage_search, min_parity_search, theorem4_check
from kmap_ecc.kcode import weight
from kmap_ecc.placement import _collides

W4PLUS = [x for x in range(128) if weight(x) >= 4]


def test_kernel_matches_oracles_exhaustively_at_7():
    checked = 0
    for d in (1, 2, 3):
        for data in combinations(W4PLUS, d):
            assert _collides(data, 7) == oracles.collides(data, 7), data
            kind = oracles.first_collision_kind(data, 7)
            assert _first_collision_kind(data, 7) == kind, data
            assert _collides(data, 7, 7) == (kind is not None), data
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
    assert _collides(data, n) == oracles.collides(data, n)
    kind = oracles.first_collision_kind(data, n)
    assert _first_collision_kind(data, n) == kind
    assert _collides(data, n, 7) == (kind is not None)


@st.composite
def heavy_placements(draw):
    # heavy data bits rarely collide within two bits, so the oracle's scan
    # reaches its three-bit patterns, where the two kinds of failure differ
    n = draw(st.integers(6, 12))
    heavy = st.integers(0, (1 << n) - 1).filter(lambda x: weight(x) >= n // 2)
    return n, draw(st.lists(heavy, min_size=2, max_size=5))


@settings(max_examples=300, deadline=None)
@given(heavy_placements())
def test_first_collision_kind_matches_oracle_on_heavy_codes(case):
    n, data = case
    assert _first_collision_kind(data, n) == oracles.first_collision_kind(data, n)


def _pruned_triples(n):
    """Every triple of weight-5 codes at pairwise distance at least 5."""
    n5 = [x for x in range(1 << n) if weight(x) == 5]
    later = {a: [b for b in n5 if b > a and weight(a ^ b) >= 5] for a in n5}
    return [(a, b, c) for a in n5 for b in later[a] for c in later[b]
            if weight(a ^ c) >= 5]


def _weight_rule(a, b, c):
    """The first collision kinds the pruned sweep counts a triple under."""
    return ("PPP", "XPP") if weight(a ^ b ^ c) >= 5 else ("XXP", "XPP")


def test_first_collision_kind_on_every_pruned_triple_at_9():
    """Every triple the pruned n=9 sweep counts, all of weight(a ^ b ^ c)
    3, against the pattern oracle."""
    triples = _pruned_triples(9)
    assert len(triples) == 7560
    assert {weight(a ^ b ^ c) for a, b, c in triples} == {3}
    for t in triples:
        assert _weight_rule(*t) == oracles.first_collision_kind(t, 9), t


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


def test_theorem4_survivors_match_brute_force():
    for n in (6, 7):
        singles = [x for x in range(1, 1 << n) if not oracles.collides((x,), n)]
        expected = tuple(t for t in combinations(singles, 3)
                         if oracles.theorem4_survives(t, n))
        report = theorem4_check(n)
        assert report.survivors == expected
        assert report.singles_checked == len(singles)
        assert report.triples_checked == math.comb(len(singles), 3)


def test_theorem4_survivors_at_8():
    report = theorem4_check(8)
    assert not report.impossible
    assert len(report.survivors) == 13860
    for trio in report.survivors[:50] + report.survivors[-50:]:
        assert oracles.theorem4_survives(trio, 8)


def test_unpruned_min_parity_10_pinned():
    assert min_parity_search(10, pruned=False).to_json() == {
        "n": 10, "pruned": False, "weight_candidates": 386,
        "pairs_meeting_conditions": 35805, "triples_meeting_conditions": 902825,
        "covering_placements": 415800, "infeasible": False,
        "failure_kinds": {}, "witness": [63, 455, 729],
    }


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


def test_full_coverage_search_is_the_lexicographic_prefix():
    expected = _first_covering_triples(10, 40)
    assert len(expected) == 40
    for k in (1, 7, 40):
        assert [p.data for p in full_coverage_search(10, limit=k)] == expected[:k]
    assert full_coverage_search(9, limit=5) == []


@pytest.mark.parametrize("n", range(4, 9))
def test_theorem4_matches_set_reference(n):
    assert theorem4_check(n) == oracles.theorem4_check(n)


@pytest.mark.parametrize("n", range(4, 10))
def test_min_parity_matches_list_and_covering_references(n):
    assert min_parity_search(n).to_json() == oracles.pruned_min_parity(n).to_json()
    assert (min_parity_search(n, pruned=False).to_json()
            == oracles.unpruned_min_parity(n).to_json())


def test_full_coverage_search_matches_covering_reference():
    assert full_coverage_search(10, limit=200) == oracles.full_coverage_search(10, 200)
