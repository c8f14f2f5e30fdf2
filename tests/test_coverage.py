"""Three-bit coverage reports, the census, theorem 4 and min-parity search."""

import math
import random

import pytest

import oracles
from kmap_ecc.codec import build_tables, decode, encode, inject
from kmap_ecc.kcode import weight
from kmap_ecc.placement import SClass, guided_search
from kmap_ecc.coverage import census, min_parity_search, theorem4_check, three_bit_coverage

#: frozen outputs of the default interpretation, one per family, as
#: (total, XXP, PPP, XPP, XXX); regression-pinned, see also test_acceptance
COMPUTED_FAMILY_COUNTS = {
    1: (39, 9, 11, 18, 1),
    2: (48, 11, 13, 23, 1),
    3: (39, 11, 8, 19, 1),
    4: (49, 4, 21, 24, 0),
    5: (40, 4, 17, 19, 0),
    6: (39, 5, 17, 17, 0),
    7: (39, 5, 12, 22, 0),
    8: (40, 7, 14, 19, 0),
}


def as_tuple(report):
    c = report.counts
    return (report.total, c["XXP"], c["PPP"], c["XPP"], c["XXX"])


def test_reference_map_covers_49(refs):
    report = three_bit_coverage(refs["s447_433"])
    assert as_tuple(report) == (49, 4, 21, 24, 0)


def test_reference_triple_class_coverage(refs):
    report = three_bit_coverage(refs["s445_433"])
    assert as_tuple(report) == (48, 11, 13, 23, 1)


def test_coverage_requires_three_data_bits(refs):
    with pytest.raises(ValueError):
        three_bit_coverage(refs["s44_4"])


def test_covered_syndromes_disjoint_from_base(refs):
    p = refs["s447_433"]
    report = three_bit_coverage(p)
    from kmap_ecc.placement import occupied_map
    base = set(occupied_map(p).mapping)
    syndromes = [s for _, s in report.covered]
    assert len(set(syndromes)) == len(syndromes)
    assert not set(syndromes) & base


def test_coverage_total_bounded_by_free_squares(refs):
    report = three_bit_coverage(refs["s445_433"])
    assert report.total <= 128 - 56
    c = report.counts
    assert c["XXP"] <= 21 and c["PPP"] <= 35 and c["XPP"] <= 63 and c["XXX"] <= 1


def test_assignable_mode_counts_hit_squares(refs):
    strict = three_bit_coverage(refs["s447_433"], mode="strict")
    assign = three_bit_coverage(refs["s447_433"], mode="assignable")
    assert assign.total >= strict.total
    assert assign.total == 64


def test_coverage_invariant_under_bit_permutation(refs):
    rng = random.Random(7)
    base = as_tuple(three_bit_coverage(refs["s445_433"]))
    for _ in range(10):
        perm = list(range(1, 8))
        rng.shuffle(perm)
        q = oracles.permute_bits(refs["s445_433"], perm)
        assert as_tuple(three_bit_coverage(q)) == base


def test_covered_triples_decode_through_codec(refs):
    p = refs["s445_433"]
    report = three_bit_coverage(p)
    tables = build_tables(p, include_triples=True)
    clean = encode([1, 1, 1], p)
    for pat, _ in report.covered:
        fixed, rep = decode(inject(clean, pat), tables)
        assert rep.status == "corrected" and fixed == clean


def test_uncovered_triples_never_decode_to_themselves(refs):
    p = refs["s447_433"]
    covered = three_bit_coverage(p).covered_patterns()
    tables = build_tables(p, include_triples=True)
    clean = encode([1, 0, 1], p)
    for pat in oracles.iter_patterns(p, (3,)):
        if pat in covered:
            continue
        fixed, rep = decode(inject(clean, pat), tables)
        assert not (rep.status == "corrected" and fixed == clean)


def test_census_families_reproducible_and_class_invariant():
    rows = census(n=7)
    by_family = {}
    for row in rows:
        assert row.realizable, row.sclass
        key = (row.total, row.counts["XXP"], row.counts["PPP"],
               row.counts["XPP"], row.counts["XXX"])
        by_family.setdefault(row.family, set()).add(key)
    for family, keys in by_family.items():
        assert len(keys) == 1, f"family {family} members disagree: {keys}"
        assert keys == {COMPUTED_FAMILY_COUNTS[family]}


def test_census_class_invariance_extra_representatives():
    # several distinct placements per class give identical censuses
    for label in ("S_444^444", "S_445^433", "S_447^433"):
        cls = SClass.parse(label)
        reports = []
        for i, p in enumerate(guided_search(7, 3, sclass=cls)):
            reports.append(as_tuple(three_bit_coverage(p)))
            if i >= 4:
                break
        assert len(set(reports)) == 1


def test_census_full_lists_all_reachable_classes():
    rows = census(n=7, full=True)
    assert len(rows) == 24
    assert all(r.realizable for r in rows)


# --- theorem 4 ---

def test_theorem4_impossible_at_7():
    report = theorem4_check(7)
    assert report.impossible and bool(report)
    assert report.survivors == ()
    assert report.singles_checked == 64
    assert report.triples_checked == math.comb(64, 3)


@pytest.mark.parametrize("n", [10, 16])
def test_theorem4_refuses_widths_past_9(n):
    with pytest.raises(ValueError, match="4..9"):
        theorem4_check(n)


def test_theorem4_pruning_lemma():
    # surviving the forced conditions means all three in N_5 at pairwise
    # distance 4, and then the pair XOR lands next to the third bit
    n5 = [x for x in range(128) if weight(x) == 5]
    hit = 0
    for i, a in enumerate(n5):
        for b in n5[i + 1:]:
            if weight(a ^ b) != 4:
                continue
            for c in n5:
                if c <= b or weight(a ^ c) != 4 or weight(b ^ c) != 4:
                    continue
                hit += 1
                assert weight(a ^ b ^ c) == 1
    assert hit > 0


def test_without_preplaced_triples_placements_exist(refs):
    # sanity: the impossibility is about pre-filled P_lP_mP_n squares only
    assert three_bit_coverage(refs["s445_433"]).total > 0


# --- min parity ---

def test_min_parity_8_infeasible_with_candidates():
    report = min_parity_search(8)
    assert report.infeasible
    assert report.pairs_meeting_conditions > 0      # conditions can be met
    assert report.triples_meeting_conditions == 0


def test_min_parity_9_infeasible_names_failure():
    report = min_parity_search(9)
    assert report.infeasible
    assert report.triples_meeting_conditions == 7560
    assert set(report.failure_kinds) == {"XXP=XPP"}


def test_min_parity_10_infeasible(min_parity_10):
    report = min_parity_10
    assert report.infeasible
    assert report.triples_meeting_conditions == 264600
    assert report.failure_kinds == {"PPP=XPP": 189000, "XXP=XPP": 75600}


def test_unpruned_search_refutes_the_claim_at_10():
    # without the N_5 restriction a 10-parity map covering every
    # three-bit error exists; the literature-style pruning hides it
    witness = min_parity_search(10, pruned=False).witness
    assert witness
    assert all(weight(x) >= 6 for x in witness)


@pytest.mark.parametrize("n", [0, 2, 3, 13])
def test_min_parity_searches_reject_widths_outside_range(n):
    for pruned in (True, False):
        with pytest.raises(ValueError, match="supports widths 4..12"):
            min_parity_search(n, pruned)


def test_unpruned_8_and_9_infeasible():
    assert min_parity_search(8, pruned=False).infeasible
    assert min_parity_search(9, pruned=False).infeasible
