"""Data-bit placements: validity oracle, double-weight accounting, searches.

A placement assigns K-codes X_1..X_d to the data bits of a d-data /
n-parity code.  The single source of truth for correctness is
:func:`is_valid` (every one- and two-bit error pattern owns a distinct
syndrome square); all weight/distance/forbidden-square rules are search
pruning derived from it.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property, lru_cache
from itertools import combinations

from .kcode import (MAX_WIDTH, MIN_WIDTH, check_code, check_width, from_parities,
                    weight, _codes, _n_class, _Value)

__all__ = [
    "ErrorPattern", "Placement", "SClass", "Collision",
    "OccupiedResult", "PlacementError", "SearchStats",
    "occupied_map", "is_valid", "double_weight_count",
    "theorem1_overlap", "theorem2_overlap", "forbidden_squares",
    "guided_search", "MAX_GUIDED_D", "naive_search", "NAIVE_TUPLE_BUDGET",
    "BLESSED_PAIR_SITUATIONS", "X3_DOUBLE_WEIGHT_TABLE",
    "reference_placements", "triple_classes",
]


# ---------------------------------------------------------------------------
# error patterns
# ---------------------------------------------------------------------------

class ErrorPattern(_Value):
    """A set of flipped code bits: data indices and parity indices (1-based)."""

    _fields = ("data", "parities")

    def __init__(self, data: frozenset[int] = frozenset(),
                 parities: frozenset[int] = frozenset()):
        # a bool, a float or a string is no member, though it may compare as one
        bad = [f"{kind}_{i!r}" for kind, members in (("X", data), ("P", parities))
               for i in members if type(i) is not int or i < 1]
        if bad:
            raise ValueError(f"pattern members are numbered from 1, got "
                             f"{', '.join(sorted(bad))}")
        super().__init__(data, parities)

    @classmethod
    def of(cls, data=(), parities=()) -> "ErrorPattern":
        return cls(frozenset(data), frozenset(parities))

    @property
    def size(self) -> int:
        return len(self.data) + len(self.parities)

    # the pattern index hands out one instance per width and index tuple,
    # so the label is worth computing once

    @cached_property
    def label(self) -> str:
        """Canonical name, data members first: "X_1X_3", "X_2P_7", "P_1P_3P_6"."""
        if self.size == 0:
            return "clean"
        return ("".join(f"X_{i}" for i in sorted(self.data))
                + "".join(f"P_{k}" for k in sorted(self.parities)))

    def sort_key(self):
        return (tuple(sorted(self.data)), tuple(sorted(self.parities)))

    @cached_property
    def _data_mask(self) -> int:
        """The data bits it flips as a mask, X_i at bit i - 1."""
        return from_parities(self.data)

    @cached_property
    def _parity_mask(self) -> int:
        """The parity bits it flips as a mask, P_k at bit k - 1."""
        return from_parities(self.parities)

    def _past(self, d: int, n: int) -> ValueError:
        """The error for a pattern with members past a word of d data and n
        parity bits."""
        past = [f"X_{i}" for i in sorted(self.data) if i > d]
        past += [f"P_{k}" for k in sorted(self.parities) if k > n]
        return ValueError(f"pattern {self.label} names {', '.join(past)}, "
                          f"past a word of {d} data and {n} parity bits")


# ---------------------------------------------------------------------------
# placements and class descriptors
# ---------------------------------------------------------------------------

class PlacementError(ValueError):
    """Raised when an operation requires a valid placement but got collisions."""

    def __init__(self, message, collisions=()):
        super().__init__(message)
        self.collisions = tuple(collisions)


class Placement(_Value):
    """Width n plus the ordered data-bit K-codes X_1..X_d.

    Construction checks ranges only; validity is a separate question so that
    colliding placements can still be inspected and reported.  ``d``, the
    number of data bits, is stored once and is not part of the value.
    """

    __slots__ = ("n", "data", "d")
    _fields = ("n", "data")

    def __init__(self, n: int, data: Iterable[int]):
        check_width(n)
        # a text or byte string iterates, but as characters or bytes, not codes
        if isinstance(data, (str, bytes, bytearray)) or not hasattr(data, "__iter__"):
            raise ValueError(f"placement data must be a sequence of K-codes, got {data!r}")
        data = tuple(data)
        limit = 1 << n
        for x in data:
            if not (type(x) is int and 0 <= x < limit):
                check_code(x, n)    # raises, naming what is wrong
        _set_n(self, n)
        _set_data(self, data)
        _set_d(self, len(data))

    def __reduce__(self):
        """Pickle and copy through the constructor, as (n, data): the default
        for a class with slots restores each one by ``setattr``, which a
        frozen class refuses."""
        return Placement, (self.n, self.data)

    def to_json(self) -> dict:
        return {"n": self.n, "data": list(self.data)}

    @classmethod
    def from_json(cls, obj: dict) -> "Placement":
        return cls(obj["n"], obj["data"])


_new = object.__new__
_set_n, _set_data, _set_d = (vars(Placement)[name].__set__ for name in ("n", "data", "d"))


def _placement(n: int, data: tuple[int, ...]) -> Placement:
    """A :class:`Placement` of a checked width and a tuple of ints already
    known to be n-bit codes, as the searches draw them, without checking
    them again; equal, and equal in hash, to ``Placement(n, data)``.  Each
    field is written through its slot's own setter, which the frozen
    class's ``__setattr__`` does not guard."""
    p = _new(Placement)
    _set_n(p, n)
    _set_data(p, data)
    _set_d(p, len(data))
    return p


class SClass(_Value):
    """Weights of X_1..X_k and their pairwise distances, distances in
    lexicographic pair order: (d12, d13, d23) for three data bits."""

    _fields = ("weights", "distances")

    def __init__(self, weights: tuple[int, ...], distances: tuple[int, ...]):
        k = len(weights)
        if len(distances) != k * (k - 1) // 2:
            raise ValueError("distance count does not match weight count")
        super().__init__(weights, distances)

    @classmethod
    def from_placement(cls, p: Placement) -> "SClass":
        codes = p.data[:3]
        ws = tuple(weight(x) for x in codes)
        ds = tuple((a ^ b).bit_count() for a, b in combinations(codes, 2))
        return cls(ws, ds)

    @property
    def label(self) -> str:
        if all(v < 10 for v in self.weights + self.distances):
            return ("S_" + "".join(map(str, self.weights))
                    + "^" + "".join(map(str, self.distances)))
        return ("S_" + ",".join(map(str, self.weights))
                + "^" + ",".join(map(str, self.distances)))

    @classmethod
    def parse(cls, label: str) -> "SClass":
        m = re.fullmatch(r"S_?([\d,]+)\^([\d,]*)", label.strip())
        if not m:
            raise ValueError(f"not an S-class label: {label!r}")
        weights, distances = m.groups()
        if "," in label:        # a part past 9: both parts are comma-separated
            return cls(tuple(map(int, weights.split(","))),
                       tuple(map(int, filter(None, distances.split(",")))))
        if not distances:       # one data bit: its weight, read whole
            return cls((int(weights),), ())
        return cls(tuple(map(int, weights)), tuple(map(int, distances)))

    def fits(self, n: int) -> bool:
        """True iff n-bit codes can have every weight and distance named."""
        return all(0 <= v <= n for v in self.weights + self.distances)


# ---------------------------------------------------------------------------
# side squares and double weights
# ---------------------------------------------------------------------------

def _flanked(codes: Sequence[int], n: int) -> set[int]:
    """The squares the parity structure occupies or flanks (the codes of weight
    <= 3: 0, each P_k and P_kP_m, and their sides) plus each of `codes` and its
    sides, x ^ t for each offset t of weight 1 or 2."""
    offsets = _codes(1, 2, n)
    out = set(_codes(0, 3, n))
    for x in codes:
        out.add(x)
        out.update(x ^ t for t in offsets)
    return out


def _landings(x: int, taken: set[int], n: int) -> int:
    """How many side squares of `x` lie in `taken`."""
    return sum(x ^ t in taken for t in _codes(1, 2, n))


def double_weight_count(candidate: int, priors: Sequence[int], n: int) -> int:
    """Distinct squares where `candidate`'s side squares land on anything the
    priors (always including the parity structure) occupy or flank."""
    check_code(candidate, n)
    for x in priors:
        check_code(x, n)
    return _landings(candidate, _flanked(priors, n), n)


@lru_cache(maxsize=None)
def _shared_sides(c: int, lo: int, hi: int, n: int) -> int:
    """How many side squares of weight-lo..hi offsets a and b = a ^ c share:
    a ^ s == b ^ t exactly when s == c ^ t, so the count depends on c alone
    (at most C(n, 4) values of c per theorem and width)."""
    offsets = _codes(lo, hi, n)
    return len({c ^ t for t in offsets}.intersection(offsets))


def _check_pair(a: int, b: int, n: int) -> None:
    """:func:`check_code` on both codes, in one type and range test unless
    one of them fails it."""
    if not (type(a) is type(b) is type(n) is int and MIN_WIDTH <= n <= MAX_WIDTH
            and 0 <= a < 1 << n and 0 <= b < 1 << n):
        check_code(a, n)    # raises, naming what is wrong
        check_code(b, n)


def theorem1_overlap(a: int, b: int, n: int) -> int:
    """Count of shared order-2 side squares for a distance-4 pair (always 6)."""
    if (a ^ b).bit_count() != 4:
        raise ValueError("theorem1_overlap requires Hamming distance exactly 4")
    _check_pair(a, b, n)
    return _shared_sides(a ^ b, 2, 2, n)


def theorem2_overlap(a: int, b: int, n: int) -> int:
    """Shared side squares for an adjacent-weight distance-3 pair (always 6)."""
    if abs(weight(a) - weight(b)) != 1:
        raise ValueError("theorem2_overlap requires weights differing by exactly 1")
    if (a ^ b).bit_count() != 3:
        raise ValueError("theorem2_overlap requires Hamming distance exactly 3")
    _check_pair(a, b, n)
    return _shared_sides(a ^ b, 1, 2, n)


def forbidden_squares(x1: int, x2: int, n: int) -> frozenset[int]:
    """Squares where a third data bit would alias X_1P_k with X_2X_3 (and,
    symmetrically, X_2P_k with X_1X_3): {x1 ^ x2 ^ e_k}."""
    check_code(x1, n)
    check_code(x2, n)
    base = x1 ^ x2
    return frozenset(base ^ (1 << b) for b in range(n))


# ---------------------------------------------------------------------------
# validity oracle
# ---------------------------------------------------------------------------

class Collision(_Value):
    """One syndrome square claimed by two or more <=2-bit error patterns."""

    _fields = ("syndrome", "patterns")


class OccupiedResult(_Value):
    """A placement's <=2-bit syndrome map, or its collisions when it has any."""

    _fields = ("placement", "mapping", "collisions")

    @property
    def valid(self) -> bool:
        return not self.collisions


class _PatternIndex:
    """The error patterns of one size over d data and n parity bits, in
    combinations order over the code bits X_1..X_d, P_1..P_n (numbered
    0..d+n-1).  Only an index of triples fills the last three fields."""

    __slots__ = ("patterns", "all_data", "ranks", "data_counts")

    def __init__(self, patterns, all_data=(), ranks=(), data_counts=()):
        self.patterns = patterns
        self.all_data = all_data        # the positions of the all-data triples
        self.ranks = ranks              # each triple's place in sort_key order
        self.data_counts = data_counts  # each triple's number of data members


@lru_cache(maxsize=None)
def _pattern_index(d: int, n: int, size: int) -> _PatternIndex:
    """The :class:`_PatternIndex` of one (d, n, size), built on first use:
    every pattern walk at that width hands out the same instances."""
    patterns = tuple(ErrorPattern(frozenset(i + 1 for i in idx if i < d),
                                  frozenset(i - d + 1 for i in idx if i >= d))
                     for idx in combinations(range(d + n), size))
    if size != 3:
        return _PatternIndex(patterns)
    by_key = sorted(range(len(patterns)), key=lambda i: patterns[i].sort_key())
    ranks = tuple(sorted(range(len(by_key)), key=by_key.__getitem__))  # by_key inverted
    counts = tuple(len(pat.data) for pat in patterns)
    return _PatternIndex(patterns, tuple(i for i, k in enumerate(counts) if k == 3),
                         ranks, counts)


def _columns(p: Placement) -> tuple[int, ...]:
    """The column code of each code bit: X_i's K-code, then P_k's unit code."""
    return p.data + _n_class(1, p.n)


def _syndromes(cols: tuple[int, ...], size: int) -> list[int]:
    """The XOR of each `size`-combination of `cols`, in combinations order;
    `size` is 2 or 3."""
    if size == 2:
        return [a ^ b for a, b in combinations(cols, 2)]
    return [a ^ b ^ c for a, b, c in combinations(cols, 3)]


def _le2_syndromes(p: Placement) -> list[int]:
    """The syndrome of every <=2-bit error pattern, by size, in index order."""
    cols = _columns(p)
    return [0, *cols, *_syndromes(cols, 2)]


def occupied_map(p: Placement) -> OccupiedResult:
    """Assign every <=2-bit error pattern its syndrome square.

    Returns the mapping when all ``1 + (d+n) + C(d+n, 2)`` squares are
    distinct, otherwise the colliding groups; a collision is an inspection
    result, not an exception.
    """
    syndromes = _le2_syndromes(p)
    d, n = p.d, p.n
    patterns = (_pattern_index(d, n, 0).patterns + _pattern_index(d, n, 1).patterns
                + _pattern_index(d, n, 2).patterns)
    mapping = dict(zip(syndromes, patterns))
    if len(mapping) == len(syndromes):
        return OccupiedResult(p, mapping, ())
    by_syndrome: dict[int, list[ErrorPattern]] = {}
    for s, pat in zip(syndromes, patterns):
        by_syndrome.setdefault(s, []).append(pat)
    clashes = tuple(
        Collision(s, tuple(sorted(claims, key=ErrorPattern.sort_key)))
        for s, claims in sorted(by_syndrome.items())
        if len(claims) > 1
    )
    return OccupiedResult(p, None, clashes)


def is_valid(p: Placement) -> bool:
    """True iff every <=2-bit error pattern owns a distinct syndrome square."""
    return not _collides(p.data)


def _collides(data: Sequence[int], bound: int = 5) -> bool:
    """True iff the code with data-bit codes `data` has minimum distance
    below `bound`: some nonempty data subset D with |D| < bound has
    ``|D| + weight(XOR of D) < bound``.

    Each nonzero codeword is a data subset D plus the parity bits of XOR D,
    and two distinct error patterns of at most t bits share a syndrome iff
    their difference is a codeword of weight <= 2t.  So ``bound=5`` asks
    whether two <=2-bit patterns collide (the validity rule) and
    ``bound=7`` whether two <=3-bit patterns do.  The cost is C(d, <bound)
    popcounts; the width does not enter, as each parity bit's code is a unit.
    """
    sums = [(0, 0)]
    for x in data:
        grown = []
        for size, s in sums:
            size += 1
            if size < bound:
                s ^= x
                if size + s.bit_count() < bound:
                    return True
                grown.append((size, s))
        sums += grown
    return False


def require_valid(p: Placement) -> dict[int, ErrorPattern]:
    """The :func:`occupied_map` mapping of a valid placement, else PlacementError."""
    result = occupied_map(p)
    if not result.valid:
        labels = ["=".join(q.label for q in c.patterns) for c in result.collisions]
        raise PlacementError(
            f"placement {p.data} is not a valid <=2-error map: " + ", ".join(labels),
            result.collisions,
        )
    return result.mapping


# ---------------------------------------------------------------------------
# searches
# ---------------------------------------------------------------------------

#: Pair situations the guided algorithm starts from: weights of X_1 and X_2
#: plus their distance.  Each yields the maximal pairwise double-weight total.
BLESSED_PAIR_SITUATIONS = ((4, 4, 4), (4, 5, 3), (5, 4, 3), (5, 5, 4))
_PAIR_CLASSES = tuple(SClass((w1, w2), (dist,)) for w1, w2, dist in BLESSED_PAIR_SITUATIONS)

#: Published double-weight totals of X_3 by class at n=7.  Only the tests
#: read it, checking :func:`triple_classes`, which the search ranks by,
#: against it and each class exhaustively.  The 10-count classes admit no
#: collision-free realization (each lands on a forbidden square).
X3_DOUBLE_WEIGHT_TABLE = {
    SClass((4, 4, 5), (4, 5, 5)): 10,
    SClass((4, 5, 4), (3, 6, 5)): 10,
    SClass((5, 4, 4), (3, 5, 6)): 10,
    SClass((5, 5, 4), (4, 5, 5)): 10,
    SClass((4, 4, 6), (4, 4, 4)): 11,
    SClass((4, 4, 7), (4, 3, 3)): 11,
    SClass((4, 5, 6), (3, 4, 3)): 11,
    SClass((5, 4, 6), (3, 3, 4)): 11,
    SClass((4, 4, 4), (4, 4, 6)): 15,
    SClass((4, 4, 4), (4, 6, 4)): 15,
    SClass((4, 4, 5), (4, 3, 5)): 15,
    SClass((4, 4, 5), (4, 5, 3)): 15,
    SClass((4, 5, 4), (3, 4, 5)): 15,
    SClass((5, 4, 4), (3, 5, 4)): 15,
    SClass((4, 5, 4), (3, 6, 3)): 15,
    SClass((5, 4, 4), (3, 3, 6)): 15,
    SClass((4, 5, 5), (3, 5, 4)): 15,
    SClass((5, 4, 5), (3, 4, 5)): 15,
    SClass((5, 5, 4), (4, 3, 5)): 15,
    SClass((5, 5, 4), (4, 5, 3)): 15,
    SClass((4, 4, 4), (4, 4, 4)): 19,
    SClass((4, 4, 5), (4, 3, 3)): 19,
    SClass((4, 5, 4), (3, 4, 3)): 19,
    SClass((5, 4, 4), (3, 3, 4)): 19,
    SClass((4, 5, 5), (3, 3, 4)): 19,
    SClass((5, 4, 5), (3, 4, 3)): 19,
    SClass((5, 5, 4), (4, 3, 3)): 19,
}


#: The most data bits :func:`guided_search` places (it stops at X_4).
MAX_GUIDED_D = 4

#: The most candidate tuples :func:`naive_search` walks: n=7 with d <= 4
#: (C(64, 4) = 635,376) fits, n=7 with d=5 (C(64, 5) = 7,624,512) does not.
NAIVE_TUPLE_BUDGET = 1_000_000


class SearchStats(_Value):
    """Candidate-evaluation counters; part of the public search contract.
    Mutable, so unhashable."""

    _fields = ("candidates_evaluated", "placements_emitted")
    __hash__ = None
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(self, candidates_evaluated: int = 0, placements_emitted: int = 0):
        self.candidates_evaluated = candidates_evaluated
        self.placements_emitted = placements_emitted


def naive_search(n: int, d: int, stats: SearchStats | None = None) -> Iterator[Placement]:
    """Baseline: every ascending weight->=4 tuple, filtered by the oracle.

    The walk visits every tuple when it finds nothing, so a call that would
    walk more than :data:`NAIVE_TUPLE_BUDGET` tuples is refused at the call.
    """
    check_width(n)
    tuples = math.comb(len(_codes(4, n, n)), d)
    if tuples > NAIVE_TUPLE_BUDGET:
        raise ValueError(f"naive search at n={n}, d={d} would walk {tuples:,} "
                         f"candidate tuples, over its budget of {NAIVE_TUPLE_BUDGET:,}")
    return _naive_search(n, d, stats if stats is not None else SearchStats())


def _naive_search(n: int, d: int, stats: SearchStats) -> Iterator[Placement]:
    """The ascending tuples walked as a prefix tree.  A colliding prefix
    collides in every extension, as the kernel's subsets only grow, so its
    extensions are counted at once, not built: the counters at each yield
    are those of the tuple-by-tuple walk."""
    codes = _codes(4, n, n)
    m = len(codes)
    if d == 0:      # the one empty tuple, which nothing collides
        stats.candidates_evaluated += 1
        stats.placements_emitted += 1
        yield _placement(n, ())
        return

    def walk(prefix: tuple[int, ...], start: int, left: int) -> Iterator[Placement]:
        # `left` codes to place, this one included; the rest come after i
        for i in range(start, m - left + 1):
            combo = prefix + (codes[i],)
            if _collides(combo):
                stats.candidates_evaluated += math.comb(m - 1 - i, left - 1)
            elif left > 1:
                yield from walk(combo, i + 1, left - 1)
            else:
                stats.candidates_evaluated += 1
                stats.placements_emitted += 1
                yield _placement(n, combo)

    yield from walk((), 0, d)


@lru_cache(maxsize=8)
def triple_classes(n: int) -> tuple[tuple[SClass, int], ...]:
    """Every S-class realizable as a valid placement over a blessed pair,
    with its X_3 double-weight count, ordered by descending count then key.

    One representative pair per situation suffices for discovery: pairs of a
    situation are equivalent under coordinate permutation, and both class
    realizability and the count are permutation-invariant.
    """
    found: dict[tuple, int] = {}
    for cls in _PAIR_CLASSES:
        pair = next(_class_pinned_search(n, 2, cls, SearchStats()), None)
        if pair is None:
            continue
        (x1, x2), (w1, w2), (dist,) = pair.data, cls.weights, cls.distances
        for x3 in _codes(4, n, n):      # a lighter X_3 always collides
            key = ((w1, w2, weight(x3)),
                   (dist, (x1 ^ x3).bit_count(), (x2 ^ x3).bit_count()))
            if key not in found and not _collides((x1, x2, x3)):
                found[key] = double_weight_count(x3, (x1, x2), n)
    return tuple((SClass(*key), count)
                 for key, count in sorted(found.items(), key=lambda kv: (-kv[1], kv[0])))


def guided_search(
    n: int,
    d: int,
    sclass: SClass | None = None,
    stats: SearchStats | None = None,
) -> Iterator[Placement]:
    """Priority-ordered placement search for 1 <= d <= MAX_GUIDED_D data bits.

    X_1 and X_2 are drawn from the blessed pair situations.  X_3 candidates
    are visited class by class in descending double-weight priority, and the
    minimum-distance kernel alone decides them.  Over a valid pair it fails
    a square of weight <= 3 or within distance 2 of X_1 or X_2, which the
    class decides once, or one with weight(X_1 ^ X_2 ^ X_3) <= 1 (forbidden,
    or X_1 ^ X_2 itself), one popcount per survivor of the AND of two
    bitsets over the class's codes: those at the class distance from X_1,
    and from X_2.  Each code of X_3's weight still counts as one candidate
    per valid pair, in ascending order, as if tried in turn.  X_4 skips the
    trio's flanked set (the codes of weight <= 3, the trio and its side
    squares) and its pairs' forbidden squares, a pre-filter cheaper than the
    kernel, then tries the rest by descending count of side squares landing
    in that set.
    Every emitted placement passes :func:`is_valid`; emission order is
    deterministic.  Passing `sclass` pins the first three data bits to that
    descriptor (blessed or not), which is how census representatives for
    arbitrary classes are found.  The arguments are checked at the call.
    """
    check_width(n)
    if not 1 <= d <= MAX_GUIDED_D:
        raise ValueError(f"guided search places 1 to {MAX_GUIDED_D} data bits, got {d}")
    if sclass is not None and len(sclass.weights) != min(d, 3):
        raise ValueError(f"class {sclass.label} does not describe {d} data bits")
    if sclass is not None and not sclass.fits(n):
        raise ValueError(f"class {sclass.label} names a weight or distance outside 0..{n}")
    return _guided_search(n, d, sclass, stats if stats is not None else SearchStats())


def _guided_search(n: int, d: int, sclass: SClass | None,
                   stats: SearchStats) -> Iterator[Placement]:
    if sclass is None and d == 1:
        for x1 in _codes(4, 5, n):
            stats.candidates_evaluated += 1
            stats.placements_emitted += 1
            yield _placement(n, (x1,))
        return

    classes = ([sclass] if sclass is not None
               else [cls for cls in _PAIR_CLASSES if cls.fits(n)] if d == 2
               else [cls for cls, _count in triple_classes(n)])
    for cls in classes:
        yield from _class_pinned_search(n, d, cls, stats)


def _class_pinned_search(n: int, d: int, cls: SClass, stats: SearchStats) -> Iterator[Placement]:
    # a class of fewer data bits pads with weight 0, whose codes go unread
    w1, w2, w3 = (cls.weights + (0, 0))[:3]
    d12, d13, d23 = (cls.distances + (None, None, None))[:3]
    c1, c2, c3 = (_n_class(w, n) for w in (w1, w2, w3))
    if d == 1:
        # a lone X_1 is valid iff its weight is at least 4
        for x1 in c1:
            stats.candidates_evaluated += 1
            if w1 >= 4:
                stats.placements_emitted += 1
                yield _placement(n, (x1,))
        return

    # The kernel's subsets of X_1, X_2 and X_3 other than {X_1, X_2, X_3}
    # depend on the class alone: |D| + weight(XOR D) < 5 for |D| <= 2.
    pair_collides = w1 <= 3 or w2 <= 3 or d12 <= 2
    third_collides = d >= 3 and (w3 <= 3 or d13 <= 2 or d23 <= 2)

    def ring(x: int, dist: int) -> int:
        """Bitset of the positions in c3 of the codes at distance `dist` from x."""
        return sum(1 << i for i, y in enumerate(c3) if (x ^ y).bit_count() == dist)

    rings2: dict[int, int] = {}
    for x1 in c1:
        stats.candidates_evaluated += 1
        ring1 = None
        for x2 in c2:
            if x2 == x1:
                continue
            stats.candidates_evaluated += 1
            if (x1 ^ x2).bit_count() != d12 or pair_collides:
                continue
            if d == 2:
                stats.placements_emitted += 1
                yield _placement(n, (x1, x2))
                continue
            if third_collides:
                stats.candidates_evaluated += len(c3)
                continue
            if ring1 is None:
                ring1 = ring(x1, d13)
            ring2 = rings2.get(x2)
            if ring2 is None:
                ring2 = rings2[x2] = ring(x2, d23)
            # X_3 at the class distances from both, lowest set bit first; the
            # counter advances over c3 as the candidate-by-candidate walk would
            x12, counted, both = x1 ^ x2, 0, ring1 & ring2
            while both:
                low = both & -both
                both ^= low
                i = low.bit_length() - 1
                x3 = c3[i]
                if (x12 ^ x3).bit_count() <= 1:     # {X_1, X_2, X_3} collides
                    continue
                stats.candidates_evaluated += i + 1 - counted
                counted = i + 1
                if d == 3:
                    stats.placements_emitted += 1
                    p = _new(Placement)     # _placement, inlined on the hottest path
                    _set_n(p, n)
                    _set_data(p, (x1, x2, x3))
                    _set_d(p, 3)
                    yield p
                else:
                    yield from _extend_with_x4(n, (x1, x2, x3), stats)
            stats.candidates_evaluated += len(c3) - counted


def _extend_with_x4(n: int, trio: tuple[int, int, int], stats: SearchStats) -> Iterator[Placement]:
    flanked = _flanked(trio, n)
    blocked = flanked.union(*(forbidden_squares(a, b, n) for a, b in combinations(trio, 2)))
    candidates = []
    for x4 in _codes(4, n, n):
        stats.candidates_evaluated += 1
        if x4 not in blocked:
            candidates.append((-_landings(x4, flanked, n), x4))
    for _prio, x4 in sorted(candidates):
        if not _collides(trio + (x4,)):
            stats.placements_emitted += 1
            yield _placement(n, trio + (x4,))


def reference_placements() -> dict[str, Placement]:
    """Canonical hand-checked placements used by the docs, fixtures and tests."""
    x1, x2 = 0b1101010, 0b1010110            # {2,4,6,7}, {2,3,5,7}
    return {
        "s44_4": Placement(7, (x1, x2)),
        "s445_433": Placement(7, (x1, x2, 0b1001111)),   # X_3 = {1,2,3,4,7}
        "s447_433": Placement(7, (x1, x2, 0b1111111)),   # X_3 = all ones
    }
