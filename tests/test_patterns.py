"""The per-width pattern index against the frozenset pattern oracles.

`occupied_map`, `covered_triples`, `build_tables` and both coverage modes
all read their patterns from one index per (d, n, size) of code-bit index
tuples (X_1..X_d, then P_1..P_n) and XOR column codes;
`oracles` builds every pattern as a union of one-member ErrorPatterns and
asks each one for its syndrome.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

import oracles
from kmap_ecc.codec import build_tables, covered_triples, _first_claimants
from kmap_ecc.coverage import three_bit_coverage
from kmap_ecc.placement import (ErrorPattern, Placement, is_valid, occupied_map,
                                _pattern_index)

def _assert_walk_matches_oracle(p):
    assert list(covered_triples(p).items()) == list(oracles.covered_triples(p).items())
    result = occupied_map(p)
    mapping, clashes = oracles.occupied_map(p)
    assert [(c.syndrome, list(c.patterns)) for c in result.collisions] == clashes
    assert (None if result.mapping is None else list(result.mapping.items())) == mapping
    if result.valid:
        assert (list(build_tables(p, True).decode.items())
                == list(oracles.decode_table(p, True).items()))
    if p.d == 3 and result.valid:
        want = sorted(((pat, s) for s, pat in oracles.assignable_triples(p).items()),
                      key=lambda kv: kv[0].sort_key())
        assert list(three_bit_coverage(p, "assignable").covered) == want


def test_survey_placements_match_oracle_in_insertion_order(survey_placements):
    for p in survey_placements:
        _assert_walk_matches_oracle(p)


def test_square_contested_by_two_all_data_triples():
    """Two all-data triples contest a free square only through a data-only
    codeword of weight 6, so from d = 6 on: at d = 8 both X_2X_3X_4 and
    X_5X_6X_8 land on square 988.  The strict rule leaves it uncovered; the
    first-claimant rule gives it to X_2X_3X_4."""
    p = Placement(10, (533, 527, 730, 777, 188, 142, 501, 1006))
    taken = occupied_map(p).mapping
    claimants = [pat.label for pat in oracles.claims(p)[988]]
    assert claimants == ["X_2X_3X_4", "X_5X_6X_8"]
    strict = covered_triples(p)
    assert 988 not in strict and len(strict) == 401
    assert list(strict.items()) == list(oracles.covered_triples(p).items())
    assert (list(build_tables(p, True).decode.items())
            == list(oracles.decode_table(p, True).items()))
    patterns = _pattern_index(p.d, p.n, 3).patterns
    first = {s: patterns[i] for s, i in _first_claimants(p, taken).items()}
    assert first[988].label == "X_2X_3X_4" and len(first) == 534
    assert list(first.items()) == list(oracles.assignable_triples(p).items())


def _greedy_placement(d, n):
    """d data bits at width n: the ascending codes that keep the placement
    valid while there are any, then all-ones codes, which collide."""
    data = []
    for code in range(1, 1 << n):
        if len(data) == d:
            break
        if is_valid(Placement(n, (*data, code))):
            data.append(code)
    return Placement(n, (*data, *[(1 << n) - 1] * (d - len(data))))


def test_pattern_index_interns_each_pattern_once_per_width():
    """Every (d, n, size) index holds one pattern of each combination of
    the d + n code bits, in combinations order, and every walk hands out
    those very instances, at far more widths than a bounded per-pattern
    cache holds."""
    for d in range(9):
        for n in range(4, 17):
            p = _greedy_placement(d, n)
            for size in range(4):
                index = _pattern_index(d, n, size)
                assert index.patterns == tuple(
                    ErrorPattern.of(data=[i + 1 for i in idx if i < d],
                                    parities=[i - d + 1 for i in idx if i >= d])
                    for idx in combinations(range(d + n), size))
            le2 = {id(pat) for size in range(3) for pat in _pattern_index(d, n, size).patterns}
            result = occupied_map(p)
            shown = (result.mapping.values() if result.valid
                     else [pat for c in result.collisions for pat in c.patterns])
            assert all(id(pat) in le2 for pat in shown)
            triples = {id(pat) for pat in _pattern_index(d, n, 3).patterns}
            assert all(id(pat) in triples for pat in covered_triples(p).values())
            if d == 3 and result.valid:
                for mode in ("strict", "assignable"):
                    covered = three_bit_coverage(p, mode).covered
                    assert all(id(pat) in triples for pat, _s in covered)


@st.composite
def placements(draw):
    # any codes, zero and repeats included: covered_triples and occupied_map
    # must not assume a valid placement
    n = draw(st.integers(4, 12))
    data = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=5))
    return Placement(n, tuple(data))


@settings(max_examples=300, deadline=None)
@given(placements())
def test_walk_matches_oracle_at_any_width(p):
    _assert_walk_matches_oracle(p)

