"""Three-bit error analysis: coverage reports, the PPP impossibility check,
and the minimum-parity feasibility search."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence

from .kcode import check_width, _codes, _members, _n_class, _translate, _Value
from .placement import (ErrorPattern, Placement, SClass, guided_search, require_valid,
                        triple_classes, _collides, _le2_syndromes, _pattern_index)
from .codec import _first_claimants, _strict_claims

__all__ = [
    "CoverageReport", "three_bit_coverage", "CLASS_KEYS",
    "CENSUS_FAMILIES", "CensusRow", "census",
    "Theorem4Report", "theorem4_check",
    "MinParityReport", "min_parity_search",
]

CLASS_KEYS = ("XXP", "PPP", "XPP", "XXX")

#: The widest maps the exhaustive walks take.  Theorem 4 holds every
#: survivor: 821,520 at n=9, 21 M at n=10.
MAX_THEOREM4_WIDTH = 9
MAX_MIN_PARITY_WIDTH = 12


class CoverageReport(_Value):
    """The triples a placement's table corrects under one coverage mode,
    each with its syndrome, and their count per class key."""

    _fields = ("placement", "mode", "covered", "counts", "total")

    def covered_patterns(self) -> frozenset[ErrorPattern]:
        return frozenset(pat for pat, _ in self.covered)

    def to_json(self) -> dict:
        return {
            "placement": self.placement.to_json(),
            "sclass": SClass.from_placement(self.placement).label,
            "mode": self.mode,
            "total": self.total,
            "counts": dict(self.counts),
            "covered": [{"pattern": pat.label, "syndrome": s} for pat, s in self.covered],
        }


def three_bit_coverage(p: Placement, mode: str = "strict") -> CoverageReport:
    """Census of correctable triples for a 3-data-bit placement.

    Both modes are projections of one claim table: each free square, one
    that no <=2-bit pattern holds, with its claimants, the triples whose
    syndrome it is, in pattern order.

    ``strict`` gives a square to its sole claimant.  On a contested square
    only the claimants that are not all-data count, and the square is
    covered iff exactly one of them remains (the rule of
    :func:`kmap_ecc.codec.covered_triples`).  Its count is the number of
    triples the ``--triples`` table decoder corrects.  It never falls below
    the number of sole claimants, which any table decoder corrects, and
    exceeds it only by the squares X_1X_2X_3 loses.

    ``assignable`` gives each free square to its first claimant.  That is
    the first-claimant table decoder, and its total is the most any table
    decoder that still corrects every <=2-bit error can correct: one triple
    per reachable free square.
    """
    if p.d != 3:
        raise ValueError(f"three-bit coverage is defined for 3-data-bit placements, got d={p.d}")
    if _collides(p.data):
        require_valid(p)  # raises PlacementError with the collision report
    if mode not in ("strict", "assignable"):
        raise ValueError(f"unknown coverage mode {mode!r}")
    rule = _strict_claims if mode == "strict" else _first_claimants
    won = rule(p, set(_le2_syndromes(p)))
    index = _pattern_index(p.d, p.n, 3)
    square = dict(zip(won.values(), won))
    ranked = sorted(square, key=index.ranks.__getitem__)     # in pattern sort_key order
    covered = tuple(zip(map(index.patterns.__getitem__, ranked), map(square.__getitem__, ranked)))
    # a class key's X count is its number of data members
    counts = Counter(map(index.data_counts.__getitem__, ranked))
    return CoverageReport(p, mode, covered,
                          {k: counts[k.count("X")] for k in CLASS_KEYS}, len(covered))


# ---------------------------------------------------------------------------
# census over the reference class families
# ---------------------------------------------------------------------------

#: The eight families of 3-data classes with maximal published interest,
#: one tuple of ordered-class labels per family.
CENSUS_FAMILIES = (
    ("S_444^444",),
    ("S_445^433", "S_454^343", "S_544^334"),
    ("S_455^334", "S_545^343", "S_554^433"),
    ("S_447^433", "S_474^343", "S_744^334"),
    ("S_456^343", "S_645^433", "S_564^334", "S_465^433", "S_546^334", "S_654^343"),
    ("S_446^444", "S_464^444", "S_644^444"),
    ("S_556^433", "S_565^343", "S_655^334"),
    ("S_445^435", "S_454^345", "S_544^354", "S_445^453", "S_454^543", "S_544^534"),
)


class CensusRow(_Value):
    """One census class: its family, whether the search realizes it, and
    its representative's coverage."""

    _fields = ("family", "sclass", "realizable", "total", "counts", "placement")

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "class": self.sclass,
            "realizable": self.realizable,
            "total": self.total,
            **{k: self.counts.get(k, 0) for k in CLASS_KEYS},
        }


def _census_row(family: int, cls: SClass, n: int, mode: str) -> CensusRow:
    rep = next(guided_search(n, 3, sclass=cls), None) if cls.fits(n) else None
    if rep is None:
        return CensusRow(family, cls.label, False, 0, dict.fromkeys(CLASS_KEYS, 0), None)
    report = three_bit_coverage(rep, mode)
    return CensusRow(family, cls.label, True, report.total, dict(report.counts), rep)


def census(n: int = 7, mode: str = "strict", full: bool = False,
           threads: int = 1) -> tuple[CensusRow, ...]:
    """One representative coverage report per listed class.

    With ``full`` the census instead gives one representative per S-class
    that the guided search reaches.  An S-class does not fix every triple's
    coverage, so this is not every coverage tuple the width admits.
    ``threads`` is accepted
    for compatibility and changes nothing: the rows are computed in this
    process.
    """
    check_width(n)
    if full:
        classes = [(0, cls) for cls, _ in triple_classes(n)]
    else:
        classes = [(i + 1, SClass.parse(label))
                   for i, fam in enumerate(CENSUS_FAMILIES) for label in fam]
    return tuple(_census_row(fam, cls, n, mode) for fam, cls in classes)


# ---------------------------------------------------------------------------
# theorem 4: all P_lP_mP_n triples cannot share a <=2 map at n=7
# ---------------------------------------------------------------------------

class Theorem4Report(_Value):
    """The theorem 4 walk at one width: the trios that survive it, if any."""

    _fields = ("n", "impossible", "singles_checked", "triples_checked", "survivors")

    def __bool__(self) -> bool:
        return self.impossible


def theorem4_check(n: int = 7) -> Theorem4Report:
    """Exhaustively confirm that no 3-data placement keeps all <=2-bit
    syndromes and all C(n,3) P_lP_mP_n squares simultaneously distinct.

    A P_lP_mP_n square is hit by a <=2-bit pattern exactly when a data bit
    of weight 2..4 or a data pair at distance 3 exists, so a valid trio
    survives iff each data subset D of at most two bits has
    ``|D| + weight(XOR of D) >= 6``, the kernel's rule at bound 6: weights
    >= 5, pairwise distance >= 4.  Such a trio is valid iff weight(a ^ b ^ c)
    >= 2, the rule at bound 5 for |D| = 3.
    """
    check_width(n)
    if n > MAX_THEOREM4_WIDTH:
        raise ValueError(f"theorem 4 check supports widths 4..{MAX_THEOREM4_WIDTH}, got {n}")
    codes = list(range(1 << n))    # one int object per code, however many survivors
    survivors = tuple((a, b, codes[c])
                      for a, b, _thirds, far in _triples(_codes(5, n, n), 4, 1, n)
                      for c in _members(far))
    singles = len(_codes(4, n, n))
    return Theorem4Report(n, not survivors, singles, math.comb(singles, 3), survivors)


# ---------------------------------------------------------------------------
# minimum-parity feasibility
# ---------------------------------------------------------------------------

class MinParityReport(_Value):
    """The minimum-parity sweep at one width: its counts, failure kinds and
    first covering placement."""

    _fields = ("n", "pruned", "weight_candidates", "pairs_meeting_conditions",
               "triples_meeting_conditions", "covering_placements",
               "failure_kinds", "witness")

    @property
    def infeasible(self) -> bool:
        return self.covering_placements == 0

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "pruned": self.pruned,
            "weight_candidates": self.weight_candidates,
            "pairs_meeting_conditions": self.pairs_meeting_conditions,
            "triples_meeting_conditions": self.triples_meeting_conditions,
            "covering_placements": self.covering_placements,
            "infeasible": self.infeasible,
            "failure_kinds": dict(self.failure_kinds),
            "witness": list(self.witness) if self.witness else None,
        }


def _check_min_parity_width(n: int) -> None:
    if not 4 <= n <= MAX_MIN_PARITY_WIDTH:
        raise ValueError(f"min-parity search supports widths 4..{MAX_MIN_PARITY_WIDTH}, got {n}")


def min_parity_search(n: int, pruned: bool = True) -> MinParityReport:
    """Search for a 3-data placement whose map covers every <=3-bit error.

    The unpruned mode walks the exact condition: a trio covers every error
    iff each data subset D has ``|D| + weight(XOR of D) >= 7``, the
    kernel's rule at bound 7: weights >= 6, pairwise distance >= 5 and
    weight(X_1 ^ X_2 ^ X_3) >= 4.  It proves n=8 and n=9 infeasible
    outright while n=10 admits covering placements, the first of which is
    returned as witness.

    The pruned mode applies the stated necessary conditions literally: every
    X_i in N_5, pairwise distance at least 5 (an exact distance of 5 is
    parity-impossible between two weight-5 codes, so the bound reading is the
    only one under which the conditions can be met at all).  Each X_i with
    its five parities is then a weight-6 codeword, so every triple fails,
    counted by the kinds of the first colliding pattern pair; a pair at
    distance >= 5 gives a codeword of weight >= 7.  The trio's codeword has
    odd weight 3 + weight(a ^ b ^ c), never 4: a ^ b ^ c of weight 1 would
    put c at distance 4 from a or b, or outside N_5.  At weight 3 it is the
    trio's weight-6 codeword that splits first, XXP=XPP; at weight >= 5 a
    single data bit's, PPP=XPP.
    """
    _check_min_parity_width(n)
    singles = _n_class(5, n) if pruned else _codes(6, n, n)
    pairs = triples = far_count = 0
    witness = None
    for a, b, thirds, far in _triples(singles, 5, 3, n):
        pairs += 1
        triples += thirds.bit_count()
        far_count += far.bit_count()
        if far and witness is None:
            witness = (a, b, next(_members(far)))
    if not pruned:
        return MinParityReport(n, False, len(singles), pairs, triples, far_count, {}, witness)
    kinds = {"PPP=XPP": far_count, "XXP=XPP": triples - far_count}
    return MinParityReport(n, True, len(singles), pairs, triples, 0,
                           {k: v for k, v in kinds.items() if v}, None)


def _triples(singles: Sequence[int], apart: int, radius: int, n: int):
    """Yield ``(a, b, thirds, far)`` for every pair a < b of the ascending
    `singles` at distance at least `apart`, lexicographically.  `thirds` is
    the bitset of the c > b at distance at least `apart` from both; `far`
    holds those of them with weight(a ^ b ^ c) > `radius`.  The codes near
    a centre are the bitset of a ball of small weights XOR-translated to it."""
    near, inner = (sum(1 << t for t in _codes(0, r, n)) for r in (apart - 1, radius))
    everyone = sum(1 << a for a in singles)
    # the singles above a, less those within distance apart - 1 of it
    later = {a: everyone & -(2 << a) & ~_translate(near, a, n) for a in singles}
    outside: dict[int, int] = {}     # a ^ b -> the codes outside its ball
    for a, partners in later.items():
        for b in _members(partners):
            thirds = partners & later[b]
            if not thirds:
                yield a, b, 0, 0
                continue
            x = a ^ b
            if x not in outside:
                outside[x] = ~_translate(inner, x, n)
            yield a, b, thirds, thirds & outside[x]

