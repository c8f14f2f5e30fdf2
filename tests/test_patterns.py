"""The code-bit index pattern walk against the frozenset pattern oracles.

`iter_patterns`, `occupied_map`, `covered_triples`, `build_tables` and the
assignable coverage mode all read patterns as tuples of code-bit indices (X_1..X_d,
then P_1..P_n) and XOR column codes; `oracles` builds every pattern as a
union of one-member ErrorPatterns and asks each one for its syndrome.
"""

from itertools import combinations

from hypothesis import given, settings, strategies as st

import oracles
from kmap_ecc.codec import (build_tables, covered_triples, iter_patterns, _claims,
                            _first_claimants)
from kmap_ecc.coverage import three_bit_coverage
from kmap_ecc.placement import Placement, occupied_map, reference_placements, _pattern

SIZE_SETS = [s for r in range(4) for s in combinations((1, 2, 3), r)]


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


def test_iter_patterns_matches_oracle_for_every_size_set():
    invalid = [Placement(7, (0b1111, 0b1111)), Placement(7, (3,)), Placement(4, ())]
    for p in [Placement(10, (63, 455, 729)), *reference_placements().values(), *invalid]:
        assert list(iter_patterns(p)) == list(oracles.iter_patterns(p))
        for sizes in SIZE_SETS + [(3, 1), (0, 2)]:
            assert list(iter_patterns(p, sizes)) == list(oracles.iter_patterns(p, sizes)), sizes


def test_square_contested_by_two_all_data_triples():
    """Two all-data triples contest a free square only through a data-only
    codeword of weight 6, so from d = 6 on: at d = 8 both X_2X_3X_4 and
    X_5X_6X_8 land on square 988.  The strict rule leaves it uncovered; the
    first-claimant rule gives it to X_2X_3X_4."""
    p = Placement(10, (533, 527, 730, 777, 188, 142, 501, 1006))
    taken = occupied_map(p).mapping
    claimants = [_pattern(idx, p.d).label for idx in _claims(p, taken)[988]]
    assert claimants == ["X_2X_3X_4", "X_5X_6X_8"]
    strict = covered_triples(p)
    assert 988 not in strict and len(strict) == 401
    assert list(strict.items()) == list(oracles.covered_triples(p).items())
    assert (list(build_tables(p, True).decode.items())
            == list(oracles.decode_table(p, True).items()))
    first = _first_claimants(p, taken)
    assert first[988].label == "X_2X_3X_4" and len(first) == 534
    assert list(first.items()) == list(oracles.assignable_triples(p).items())


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
    assert list(iter_patterns(p, (1, 2, 3))) == list(oracles.iter_patterns(p, (1, 2, 3)))

