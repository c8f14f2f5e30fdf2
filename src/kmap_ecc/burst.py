"""Transmission orderings whose 3-bit bursts are all correctable patterns."""

from __future__ import annotations

import math
import re

from .coverage import CoverageReport
from .kcode import _members, _Value
from .placement import ErrorPattern

__all__ = ["Ordering", "burst_triples", "failing_window",
           "BurstGroup", "BurstCensus", "search_orderings"]

BURST_LENGTH = 3

#: Most states the ordering search may memoize: the first n=9 map needs
#: 54,565 and the first n=10 one 88,790.
BURST_STATE_BUDGET = 100_000

_LABEL_TOKEN = re.compile(r"([XP])_?(\d+)")


class Ordering(_Value):
    """A permutation of the code-bit identifiers, e.g. X1,P7,P3,...,X2."""

    _fields = ("symbols",)

    def __init__(self, symbols: tuple[tuple[str, int], ...]):
        for sym in symbols:
            # a symbol is a (kind, index) pair, and an index is an int >= 1:
            # a bool, a float or a string is none
            if not (isinstance(sym, tuple) and len(sym) == 2 and sym[0] in ("X", "P")
                    and type(sym[1]) is int and sym[1] >= 1):
                raise ValueError(f"ordering symbol {sym!r} is not X_i or P_k, "
                                 f"numbered from 1")
        if len(set(symbols)) != len(symbols):
            raise ValueError("ordering repeats a code bit")
        super().__init__(symbols)

    @classmethod
    def parse(cls, text: str) -> "Ordering":
        syms = []
        for tok in text.replace(" ", "").split(","):
            m = _LABEL_TOKEN.fullmatch(tok)
            if not m:
                raise ValueError(f"bad ordering token {tok!r}")
            syms.append((m.group(1), int(m.group(2))))
        return cls(tuple(syms))

    @property
    def label(self) -> str:
        return ",".join(f"{k}{i}" for k, i in self.symbols)


def _window_pattern(window) -> ErrorPattern:
    return ErrorPattern(frozenset(i for k, i in window if k == "X"),
                        frozenset(i for k, i in window if k == "P"))


def burst_triples(o: Ordering) -> tuple[ErrorPattern, ...]:
    """The consecutive width-3 windows, linear (no wraparound)."""
    if len(o.symbols) < BURST_LENGTH:
        raise ValueError("ordering shorter than the burst length")
    return tuple(_window_pattern(o.symbols[i:i + BURST_LENGTH])
                 for i in range(len(o.symbols) - BURST_LENGTH + 1))


def failing_window(o: Ordering, report: CoverageReport) -> int | None:
    """Index of the first window that is not a covered pattern, else None."""
    d, n = report.placement.d, report.placement.n
    if set(o.symbols) != {("X", i) for i in range(1, d + 1)} | {("P", k) for k in range(1, n + 1)}:
        raise ValueError(f"ordering must use X1..X{d} and P1..P{n} exactly once each")
    covered = report.covered_patterns()
    for i, pat in enumerate(burst_triples(o)):
        if pat not in covered:
            return i
    return None


class BurstGroup(_Value):
    """The burst-safe orderings of one data shape and assignment: their
    count and least ordering.  The shape is the sorted positions of the
    data bits in the ordering, the assignment the data identities in
    transmission order."""

    _fields = ("shape", "assignment", "count", "representative")

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "assignment": list(self.assignment),
                "count": self.count, "representative": self.representative.label}


class BurstCensus(_Value):
    """Every burst-safe ordering of a placement, counted per group."""

    _fields = ("placement_json", "total", "groups")

    def to_json(self) -> dict:
        return {"placement": self.placement_json, "total": self.total,
                "groups": [g.to_json() for g in self.groups]}


def _covered_masks(report: CoverageReport) -> list[int]:
    """Each covered triple as a bitset over the code bits 0..m-1 (X_1..X_d,
    then P_1..P_n)."""
    d = report.placement.d
    return [pat._data_mask | pat._parity_mask << d for pat in report.covered_patterns()]


def _allowed_thirds(report: CoverageReport) -> tuple[int, list[int]]:
    """Code bits numbered 0..m-1 (X_1..X_d, then P_1..P_n) and a flat table:
    ``allowed[a*m + b]`` is the bitset of the bits c for which {a, b, c} is a
    covered triple."""
    m = report.placement.d + report.placement.n
    allowed = [0] * (m * m)
    for mask in _covered_masks(report):
        a, b, c = _members(mask)
        for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
            allowed[x * m + y] |= 1 << z
            allowed[y * m + x] |= 1 << z
    return m, allowed


def _twin_classes(report: CoverageReport) -> list[int]:
    """The parity bits as classes of twins, each a bitset over the code
    bits, ordered by least member.  Parity bits u and v are twins when
    swapping them maps the covered triples onto themselves.  A product of
    transpositions that keep a set keeps it, so twins of twins are twins,
    and each bit is tried against the least member of each class so far.
    Data bits are no one's twins: a burst group names them."""
    d, m = report.placement.d, report.placement.d + report.placement.n
    masks = set(_covered_masks(report))
    classes: list[int] = []
    for v in range(d, m):
        for i, cls in enumerate(classes):
            swap = (cls & -cls) | 1 << v
            if all(x ^ swap in masks for x in masks if (x & swap).bit_count() == 1):
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    return classes


def _census(m: int, allowed: list[int], d: int, lower: list[int]) -> tuple:
    """The orderings of 0..m-1 whose windows of three are all allowed and in
    which bit c comes after every bit of ``lower[c]``, as (key, (count, least
    ordering)) per data key, the (position, bit) pairs of the bits below d.
    A memoized DFS on the last two bits and the unused ones, which fix the
    depth; the start (0, 0, all) allows any first two.  A dead end, a state
    with no allowed next bit, is not memoized."""
    memo: dict[int, tuple] = {}

    def walk(a: int, b: int, unused: int) -> tuple:
        if not unused:
            return (((), (1, ())),)
        state = (a * m + b) << m | unused
        if state not in memo:
            depth = m - unused.bit_count()
            nexts = unused & allowed[a * m + b] if depth > 1 else unused
            if not nexts:
                return ()
            if len(memo) >= BURST_STATE_BUDGET:
                raise ValueError(f"burst search over {m} code bits would walk more "
                                 f"than its budget of {BURST_STATE_BUDGET:,} states")
            out: dict[tuple, tuple] = {}
            for c in _members(nexts):
                if unused & lower[c]:
                    continue
                for key, (count, rest) in walk(b, c, unused ^ 1 << c):
                    key = ((depth, c),) + key if c < d else key
                    e = out.get(key)
                    out[key] = (count, (c,) + rest) if e is None else (e[0] + count, e[1])
            memo[state] = tuple(out.items())
        return memo[state]

    try:
        return walk(0, 0, (1 << m) - 1)
    finally:
        memo.clear()  # walk's closure is a cycle that would hold the states


def search_orderings(report: CoverageReport, threads: int = 1) -> BurstCensus:
    """Every burst-safe ordering, counted per (shape, data-identity
    assignment) group, each represented by its least ordering.  Raises
    ValueError when the walk would pass ``BURST_STATE_BUDGET`` states.
    ``threads`` is accepted for compatibility and changes nothing.

    Twin parity bits are walked in ascending order only: each group's other
    orderings permute twins, which keeps every window covered and every
    data position, so the count is multiplied by the product of the class
    sizes' factorials, and the least ordering is one the walk visits."""
    p = report.placement
    symbols = ([("X", i) for i in range(1, p.d + 1)]
               + [("P", k) for k in range(1, p.n + 1)])
    m, allowed = _allowed_thirds(report)
    lower, orbit = [0] * m, 1
    for cls in _twin_classes(report):
        orbit *= math.factorial(cls.bit_count())
        for c in _members(cls):
            lower[c] = cls & ((1 << c) - 1)
    groups = [BurstGroup(tuple(pos for pos, _ in key), tuple(i + 1 for _, i in key),
                         count * orbit, Ordering(tuple(symbols[i] for i in first)))
              for key, (count, first) in _census(m, allowed, p.d, lower)]
    groups.sort(key=lambda g: (g.shape, g.assignment))
    return BurstCensus(p.to_json(), sum(g.count for g in groups), tuple(groups))
