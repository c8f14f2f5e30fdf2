"""Three-bit error analysis: coverage reports, the PPP impossibility check,
and the minimum-parity feasibility search."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

from .kcode import check_width, weight, _n_class
from .placement import (ErrorPattern, Placement, SClass, guided_search,
                        require_valid, _collides, _data_candidates,
                        _index_patterns, _pattern)
from .codec import _covered_triples, _free_triples

__all__ = [
    "CoverageReport", "three_bit_coverage", "CLASS_KEYS",
    "CENSUS_FAMILIES", "CensusRow", "census",
    "Theorem4Report", "theorem4_check",
    "MinParityReport", "min_parity_search", "full_coverage_search",
]

CLASS_KEYS = ("XXP", "PPP", "XPP", "XXX")


#: The class key of a triple, indexed by its number of data members.
_CLASS_BY_DATA_COUNT = ("PPP", "XPP", "XXP", "XXX")


def _class_key(pat: ErrorPattern) -> str:
    return _CLASS_BY_DATA_COUNT[len(pat.data)]


@dataclass(frozen=True)
class CoverageReport:
    placement: Placement
    mode: str
    covered: tuple[tuple[ErrorPattern, int], ...]
    counts: Mapping[str, int]
    total: int

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

    ``strict`` pairs each free square with the unique triple claiming it,
    with the all-data triple losing contested squares (the rule of
    :func:`kmap_ecc.codec.covered_triples`).  Its count is the number of
    triples the ``--triples`` table decoder corrects.  It never falls below
    the number of sole claimants of free squares, which any table decoder
    corrects, and exceeds it only by the squares X_1X_2X_3 loses.

    ``assignable`` instead counts every free square hit by at least one
    triple, crediting the first claimant in pattern order; it exists for
    comparison only and overstates what a decoder can actually correct.
    """
    if p.d != 3:
        raise ValueError("three-bit coverage is defined for 3-data-bit placements")
    if _collides(p.data, p.n):
        require_valid(p)  # raises PlacementError with the collision report
    if mode not in ("strict", "assignable"):
        raise ValueError(f"unknown coverage mode {mode!r}")
    taken = {s for _idx, s in _index_patterns(p, (0, 1, 2))}
    if mode == "strict":
        table = _covered_triples(p, taken)
    else:
        first: dict[int, tuple[int, ...]] = {}
        for idx, s in _free_triples(p, taken):
            first.setdefault(s, idx)
        table = {s: _pattern(idx, p.d) for s, idx in first.items()}
    covered = tuple(sorted(((pat, s) for s, pat in table.items()),
                           key=lambda kv: kv[0].sort_key()))
    counts = Counter(_class_key(pat) for pat, _ in covered)
    return CoverageReport(p, mode, covered,
                          {k: counts.get(k, 0) for k in CLASS_KEYS}, len(covered))


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


@dataclass(frozen=True)
class CensusRow:
    family: int
    sclass: str
    realizable: bool
    total: int
    counts: Mapping[str, int]
    placement: Placement | None

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "class": self.sclass,
            "realizable": self.realizable,
            "total": self.total,
            **{k: self.counts.get(k, 0) for k in CLASS_KEYS},
        }


def _census_row(family: int, label: str, n: int, mode: str) -> CensusRow:
    cls = SClass.parse(label)
    rep = next(guided_search(n, 3, sclass=cls), None)
    if rep is None:
        return CensusRow(family, label, False, 0, dict.fromkeys(CLASS_KEYS, 0), None)
    report = three_bit_coverage(rep, mode)
    return CensusRow(family, label, True, report.total, dict(report.counts), rep)


def census(n: int = 7, mode: str = "strict", full: bool = False,
           threads: int = 1) -> tuple[CensusRow, ...]:
    """One representative coverage report per listed class.

    With ``full`` the census instead walks every class reachable by the
    guided search and reports the whole landscape.  ``threads`` is accepted
    for compatibility and changes nothing: the rows are computed in this
    process.
    """
    check_width(n)
    if full:
        from .placement import triple_classes
        labels = [(0, cls.label) for cls, _ in triple_classes(n)]
    else:
        labels = [(i + 1, lab) for i, fam in enumerate(CENSUS_FAMILIES) for lab in fam]
    return tuple(_census_row(fam, lab, n, mode) for fam, lab in labels)


# ---------------------------------------------------------------------------
# theorem 4: all P_lP_mP_n triples cannot share a <=2 map at n=7
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem4Report:
    n: int
    impossible: bool
    singles_checked: int
    triples_checked: int
    survivors: tuple[tuple[int, int, int], ...]

    def __bool__(self) -> bool:
        return self.impossible


def theorem4_check(n: int = 7) -> Theorem4Report:
    """Exhaustively confirm that no 3-data placement keeps all <=2-bit
    syndromes and all C(n,3) P_lP_mP_n squares simultaneously distinct.

    A P_lP_mP_n square is hit by a <=2-bit pattern exactly when a data bit
    of weight 2..4 or a data pair at distance 3 exists, so a valid trio
    survives iff each data subset D of at most two bits has
    ``|D| + weight(XOR of D) >= 6``: weights >= 5, pairwise distance >= 4.
    Such a trio is valid iff weight(a ^ b ^ c) >= 2.
    """
    check_width(n)
    codes = list(range(1 << n))    # one int object per code, however many survivors
    heavy = [x for x in codes if not _collides((x,), n, 6)]
    walk = _triples(heavy, lambda a, b: not _collides((a, b), n, 6), 1, n)
    survivors = tuple((a, b, codes[c]) for a, b, _thirds, far in walk for c in _members(far))
    singles = len(_data_candidates(n))
    return Theorem4Report(n, not survivors, singles, math.comb(singles, 3), survivors)


# ---------------------------------------------------------------------------
# minimum-parity feasibility
# ---------------------------------------------------------------------------

def _kind(xs: int, size: int) -> str:
    """Kind of a pattern of `size` members, `xs` of them data bits."""
    return "X" * xs + "P" * (size - xs) if size else "zero"


@lru_cache(maxsize=1 << 12)
def _parity_members(s: int, d: int) -> tuple[int, ...]:
    """Code-bit indices d + k of the parity bits P_{k+1} set in syndrome `s`."""
    return tuple(d + k for k in range(s.bit_length()) if s >> k & 1)


@lru_cache(maxsize=16)
def _subset_walk(d: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The nonempty subsets of at most six of d data bits, each adding one
    index i to an earlier subset: (position of that subset, with 0 the
    empty one, i, the subset's index tuple)."""
    walk = []
    subsets = [()]
    for i in range(d):
        grown = [(pos, idx + (i,)) for pos, idx in enumerate(subsets) if len(idx) < 6]
        walk += [(pos, i, idx) for pos, idx in grown]
        subsets += [idx for _pos, idx in grown]
    return tuple(walk)


def _first_collision_kind(data, n: int) -> tuple[str, str] | None:
    """None when every <=3-bit pattern owns a distinct syndrome, else the
    kinds of the first colliding pattern pair, e.g. ("XXP", "XPP").

    "First" is in the order patterns are listed: by size, then by index
    over X_1..X_d, P_1..P_n; the later pattern is named first.  Two
    patterns collide iff their symmetric difference is a nonzero codeword,
    here a data subset D plus the parities of XOR D, of weight w <= 6 (the
    walk of :func:`kmap_ecc.placement._collides` at bound 7).  The earliest
    collision splits one such codeword as evenly as possible: the later
    pattern is the first ceil(w/2) members of the codeword (after its least
    member when w is even) and the earlier pattern is the rest.  The
    codeword lists D's indices before its parities, so each pattern's kind
    follows from how many of D's indices it takes.
    """
    d = len(data)
    sums = [0]
    best = None
    for pos, i, idx in _subset_walk(d):
        s = sums[pos] ^ data[i]
        sums.append(s)
        w = len(idx) + s.bit_count()
        if w <= 6:
            h, skip = (w + 1) // 2, 1 - w % 2
            key = (h, (idx + _parity_members(s, d))[skip:skip + h])
            if best is None or key < best[0]:
                best = (key, len(idx), w)
    if best is None:
        return None
    (h, _), xs, w = best
    skip = 1 - w % 2
    later_xs = max(0, min(xs, skip + h) - skip)
    return _kind(later_xs, h), _kind(xs - later_xs, w - h)


@dataclass(frozen=True)
class MinParityReport:
    n: int
    pruned: bool
    weight_candidates: int
    pairs_meeting_conditions: int
    triples_meeting_conditions: int
    covering_placements: int
    failure_kinds: Mapping[str, int]
    witness: tuple[int, ...] | None

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


MAX_MIN_PARITY_WIDTH = 12


def _check_min_parity_width(n: int) -> None:
    if not 4 <= n <= MAX_MIN_PARITY_WIDTH:
        raise ValueError(f"min-parity search supports widths 4..{MAX_MIN_PARITY_WIDTH}")


def min_parity_search(n: int, pruned: bool = True) -> MinParityReport:
    """Search for a 3-data placement whose map covers every <=3-bit error.

    The pruned mode applies the stated necessary conditions literally: every
    X_i in N_5, pairwise distance at least 5 (an exact distance of 5 is
    parity-impossible between two weight-5 codes, so the bound reading is the
    only one under which the conditions can be met at all).  All candidates
    meeting them fail, classified by the first colliding pattern pair.  The
    unpruned mode drops the weight restriction and proves n=8 and n=9
    infeasible outright while n=10 admits covering placements, the first of
    which is returned as witness.
    """
    _check_min_parity_width(n)
    if pruned:
        return _pruned_min_parity(n)
    return _unpruned_min_parity(n)


def _members(mask: int):
    """Set bits of an int bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _pair_masks(singles: Sequence[int], apart) -> dict[int, int]:
    """Each single, ascending, to the bitset of the later singles b with
    ``apart(a, b)``."""
    return {a: sum(1 << b for b in singles if b > a and apart(a, b)) for a in singles}


def _triples(singles: Sequence[int], apart, radius: int, n: int):
    """Yield ``(a, b, thirds, far)`` for every pair a < b of `singles` with
    ``apart(a, b)``, lexicographically.  `thirds` is the bitset of the
    c > b apart from both; `far` holds those of them with
    weight(a ^ b ^ c) > `radius`."""
    mask = _pair_masks(singles, apart)
    ball = [t for r in range(radius + 1) for t in _n_class(r, n)]
    outside: dict[int, int] = {}     # a ^ b -> the codes outside its ball
    for a, partners in mask.items():
        for b in _members(partners):
            thirds = partners & mask[b]
            x = a ^ b
            if x not in outside:
                outside[x] = ~sum(1 << (x ^ t) for t in ball)
            yield a, b, thirds, thirds & outside[x]


def _pruned_min_parity(n: int) -> MinParityReport:
    n5 = _n_class(5, n)
    fails: Counter = Counter()
    pairs = triples = covering = 0
    witness = None
    # no condition on a ^ b ^ c: radius -1 leaves `far` equal to `thirds`
    for a, b, thirds, _far in _triples(n5, lambda a, b: weight(a ^ b) >= 5, -1, n):
        pairs += 1
        for c in _members(thirds):
            triples += 1
            r = _first_collision_kind((a, b, c), n)
            if r is None:
                covering += 1
                witness = witness or (a, b, c)
            else:
                fails["{}={}".format(*r)] += 1
    return MinParityReport(n, True, len(n5), pairs, triples, covering,
                           dict(sorted(fails.items())), witness)


def _covering(n: int):
    """The unpruned walk: codes at distance >= 7 on their own and in pairs,
    and as `far` the thirds that keep distance >= 7 as a triple."""
    singles = [x for x in range(1 << n) if not _collides((x,), n, 7)]
    return singles, _triples(singles, lambda a, b: not _collides((a, b), n, 7), 3, n)


def _unpruned_min_parity(n: int) -> MinParityReport:
    singles, walk = _covering(n)
    pairs = triples = covering = 0
    witness = None
    for a, b, thirds, cover in walk:
        pairs += 1
        triples += thirds.bit_count()
        covering += cover.bit_count()
        if cover and witness is None:
            witness = (a, b, next(_members(cover)))
    return MinParityReport(n, False, len(singles), pairs, triples, covering, {}, witness)


def full_coverage_search(n: int, limit: int = 1) -> list[Placement]:
    """First `limit` 3-data placements covering every <=3-bit error, unpruned,
    in lexicographic order, for the widths :func:`min_parity_search` takes."""
    _check_min_parity_width(n)
    out = []
    for a, b, _thirds, cover in _covering(n)[1]:
        for c in _members(cover):
            if len(out) >= limit:
                return out
            out.append(Placement(n, (a, b, c)))
    return out
