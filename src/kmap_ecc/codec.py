"""Encoder, syndrome computation and table-driven decoding for a placement.

Memory bit order of a codeword is (data bits, then P_1..P_n); transmission
order is a separate concern handled by orderings in the burst module.  A
codeword is held as one int in that order, low bit first, so a syndrome is
a parity read and an XOR, and a flip one XOR.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterable, Mapping, Sequence
from functools import partial
from itertools import product
from operator import attrgetter
from types import MappingProxyType

from .kcode import _setattr, _Value
from .placement import (ErrorPattern, Placement, require_valid, _columns,
                        _le2_syndromes, _pattern_index, _syndromes)

__all__ = [
    "Codeword", "CodecTables", "DecodeReport",
    "encode", "inject",
    "covered_triples", "build_tables", "decode",
]


_BITS = frozenset((0, 1))
_HEX_DIGITS = frozenset("0123456789abcdef")
# Up to this many data bits, encode reads a tuple's data mask from one dict
# and each table keeps the parity mask of every data mask in a 2^d list;
# past it, both are computed bit by bit.
_TABLE_D = 8


class Codeword:
    """A word of d data and n parity bits, held as one int: X_i at bit
    i - 1 and P_k at bit d + k - 1.

    A value: ``data``, ``parity`` and the int ``word`` are read-only, and
    a codeword equals, and hashes as, only a codeword of the same bits.
    """

    __slots__ = ("_word", "_d", "_n")

    def __init__(self, data: Sequence[int], parity: Sequence[int]):
        bits = data + parity
        try:
            ok = _BITS.issuperset(bits)
        except TypeError:
            iter(bits)  # a field that is no sequence keeps its TypeError
            ok = False  # an unhashable member is no bit
        if not ok:
            raise ValueError("codeword bits must be 0 or 1")
        self._word, self._d, self._n = _fold(bits), len(data), len(parity)

    word = property(attrgetter("_word"), doc="The bits as one int.")

    @property
    def data(self) -> tuple[int, ...]:
        return self.bits[:self._d]

    @property
    def parity(self) -> tuple[int, ...]:
        return self.bits[self._d:]

    @property
    def bits(self) -> tuple[int, ...]:
        """The bits, X_1 first, each the int 0 or 1."""
        return tuple(self._word >> k & 1 for k in range(self._d + self._n))

    def __eq__(self, other):
        if type(other) is not Codeword:
            return NotImplemented
        return (self._word, self._d, self._n) == (other._word, other._d, other._n)

    def __hash__(self):
        return hash((self._word, self._d, self._n))

    def __repr__(self):
        return f"Codeword(data={self.data!r}, parity={self.parity!r})"

    def binary(self) -> str:
        return "".join(map(str, self.bits))

    def hex(self) -> str:
        width = (self._d + self._n + 3) // 4
        return format(int(self.binary(), 2), f"0{width}x")

    @classmethod
    def from_string(cls, text: str, d: int, n: int) -> "Codeword":
        """Parse exactly d+n binary digits, X_1 first, else hex digits with an
        optional 0x prefix, whose value is that binary string's."""
        text = text.strip().lower()
        total = d + n
        if len(text) != total or set(text) - {"0", "1"}:
            digits = text.removeprefix("0x")
            if not digits or not _HEX_DIGITS.issuperset(digits):
                raise ValueError(f"word {text!r} is neither {total} binary digits nor hex")
            text = format(int(digits, 16), f"0{total}b")
            if len(text) > total:
                raise ValueError(f"word {digits!r} does not fit {total} bits")
        return _codeword(int(text[::-1], 2), d, n)


_new = object.__new__


def _codeword(word: int, d: int, n: int) -> Codeword:
    """The :class:`Codeword` of int `word` with d data and n parity bits,
    which fits them, without the constructor's check of each bit."""
    w = _new(Codeword)
    w._word, w._d, w._n = word, d, n
    return w


def _fold(bits: Iterable[int]) -> int:
    """The int of low-bit-first `bits`, each 0 or 1."""
    word = 0
    for k, b in enumerate(bits):
        if b:
            word |= 1 << k
    return word


# The data mask of each tuple of 1 to _TABLE_D bits, the int 0 or 1 (510
# keys): ``product`` counts the reversed tuple up, so its count is the mask
# of the low-bit-first tuple.  True and 1.0 are equal to 1 and hash as it.
_DATA_MASK = {bits[::-1]: mask for k in range(1, _TABLE_D + 1)
              for mask, bits in enumerate(product((0, 1), repeat=k))}


def _parity(mask: int, codes: Sequence[int]) -> int:
    """The parity mask of data `mask` (X_i at bit i - 1): the XOR of the
    codes of its set bits, X_i's code being ``codes[i - 1]``."""
    s = 0
    for code in codes:
        if not mask:
            break
        if mask & 1:
            s ^= code
        mask >>= 1
    return s


def _data_bit(b) -> int:
    """The int of a data bit given as anything ``int`` reads exactly as 0 or
    1; "x" and None keep ``int``'s own errors, and 0.5 is not truncated."""
    x = int(b)
    if x not in _BITS or x != b and not isinstance(b, str):
        raise ValueError("codeword bits must be 0 or 1")
    return x


def encode(data_bits: Sequence[int], p: Placement, odd_parity: bool = False) -> Codeword:
    """Even parity: P_k is the XOR of the data bits whose code sets bit k."""
    d = p.d
    if len(data_bits) != d:
        raise ValueError(f"expected {d} data bits, got {len(data_bits)}")
    try:
        data = _DATA_MASK[tuple(data_bits)]
    except (KeyError, TypeError):   # not 1 to _TABLE_D bits of 0 or 1, or unhashable
        data = _fold(map(_data_bit, data_bits))
    parity = _parity(data, p.data)
    if odd_parity:
        parity ^= (1 << p.n) - 1
    return _codeword(data | parity << d, d, p.n)


def inject(word: Codeword, pattern: ErrorPattern) -> Codeword:
    """Flip the pattern's members: one XOR with its mask over the word."""
    w, d, n = word._word, word._d, word._n
    data, parity = pattern._data_mask, pattern._parity_mask
    if data >> d or parity >> n:
        raise pattern._past(d, n)
    return _codeword(w ^ data ^ parity << d, d, n)


def covered_triples(p: Placement) -> dict[int, ErrorPattern]:
    """Three-bit patterns decodable by table lookup, keyed by syndrome.

    A triple is covered when its syndrome square is unoccupied by the <=2-bit
    map and no other triple claims it.  All-data triples are tie-breakers'
    losers: they claim a square only when nothing else touches it, so a square
    contested between an all-data triple and one other pattern goes to the
    other pattern.  This is the one assignment rule consistent with the
    reference map of class S_447^433.

    On a valid placement these are exactly the triples that
    ``build_tables(p, include_triples=True)`` corrects.  Every triple that
    is the sole claimant of a free square is included, and any table
    decoder can correct those, whatever its tie-break rule; the only others
    are the winners of squares that X_1X_2X_3 loses.  An invalid placement
    is not refused: its triples claim the squares that no <=2-bit pattern
    holds, collisions and all, where ``build_tables`` raises.
    """
    return _covered_triples(p, set(_le2_syndromes(p)))


def _covered_triples(p: Placement, taken: Collection[int]) -> dict[int, ErrorPattern]:
    """:func:`_strict_claims` with each winner's pattern."""
    won = _strict_claims(p, taken)
    return dict(zip(won, map(_pattern_index(p.d, p.n, 3).patterns.__getitem__, won.values())))


def _strict_claims(p: Placement, taken: Collection[int]) -> dict[int, int]:
    """The strict rule over the free squares, those not in `taken` (the
    <=2-bit squares), each to the position of its winner in the triples'
    pattern index, in the order the squares are first claimed.  A sole
    claimant wins its square.  On a contested one only the claimants that
    are not all-data count, and the square is covered iff exactly one remains."""
    syn = _syndromes(_columns(p), 3)
    claims = Counter(syn)       # in first-claim order
    for i in [i for i in _pattern_index(p.d, p.n, 3).all_data if claims[syn[i]] > 1]:
        claims[syn[i]] -= 1     # an all-data claimant steps off a contested square
        syn[i] = None
    last = dict(zip(syn, range(len(syn))))
    return {s: last[s] for s, count in claims.items() if count == 1 and s not in taken}


def _first_claimants(p: Placement, taken: Collection[int]) -> dict[int, int]:
    """The first-claimant rule: each free square, one not in `taken`, to the
    position of its first claimant in the triples' pattern index, in the
    order the squares are first claimed."""
    syn = _syndromes(_columns(p), 3)
    first = dict.fromkeys(syn)
    first.update(zip(reversed(syn), range(len(syn) - 1, -1, -1)))
    for s in first.keys() & taken:
        del first[s]
    return first


class CodecTables(_Value):
    """Immutable decoding tables: nonzero syndrome -> correctable pattern.

    ``_reader`` is what :func:`decode` reads of the placement: (d, n, data
    mask -> parity mask), the parity a list read up to ``_TABLE_D`` data
    bits and the bit loop past them.  ``_squares``, a memo filled by
    :func:`decode`, maps each nonzero syndrome decoded so far to its
    :class:`DecodeReport` and its pattern's flip mask over the whole word
    (None for an uncorrectable square).  Neither is part of the value.
    """

    _fields = ("placement", "decode", "include_triples")

    def __init__(self, placement: Placement, decode: Mapping[int, ErrorPattern],
                 include_triples: bool):
        codes = placement.data
        d = len(codes)
        if d > _TABLE_D:
            parity_of = partial(_parity, codes=codes)
        else:
            parities = [0]  # by data mask: those with X_i set follow those without
            for code in codes:
                parities += [q ^ code for q in parities]
            parity_of = parities.__getitem__
        # its own stores, as DecodeReport's: render_map builds a table per map
        _setattr(self, "placement", placement)
        _setattr(self, "decode", decode)
        _setattr(self, "include_triples", include_triples)
        _setattr(self, "_reader", (d, placement.n, parity_of))
        _setattr(self, "_squares", {})

    def __reduce__(self):
        """Pickle and copy as a rebuild from the placement, the table's own
        entries as a plain dict (the read-only view does not pickle) and the
        triples flag; the memo starts empty."""
        return _rebuild_tables, (self.placement, dict(self.decode), self.include_triples)

    @property
    def n_entries(self) -> int:
        return len(self.decode)

    def rows(self) -> list[tuple[int, str]]:
        return [(s, pat.label) for s, pat in sorted(self.decode.items())]


def build_tables(p: Placement, include_triples: bool = False) -> CodecTables:
    """Decoding tables for every 1- and 2-bit pattern, optionally extended with
    the covered triples; raises PlacementError (with the collision report) on
    an invalid placement.  The table is a read-only view, since
    :func:`decode`'s memo would go on answering for an edited square."""
    table = require_valid(p)
    if include_triples:
        table.update(_covered_triples(p, table))
    del table[0]
    return CodecTables(p, MappingProxyType(table), include_triples)


def _rebuild_tables(p: Placement, decode: dict[int, ErrorPattern],
                    include_triples: bool) -> CodecTables:
    """A :class:`CodecTables` of these entries, read-only again: what a
    pickled or copied table is rebuilt through."""
    return CodecTables(p, MappingProxyType(decode), include_triples)


class DecodeReport(_Value):
    """What :func:`decode` found: its status ("clean", "corrected" or
    "uncorrectable"), the syndrome and the pattern it corrected, if any."""

    _fields = ("status", "syndrome", "pattern")

    def __init__(self, status: str, syndrome: int, pattern: ErrorPattern | None):
        # its own stores: decode builds one on a square's first read, inside
        # the timed decode, and class_survey decodes fresh tables, so nearly
        # all of its lookups are first reads; the base's constructor (about
        # 1.0 us a call against 0.6) cut its decode_words_per_s by about 15%
        _setattr(self, "status", status)
        _setattr(self, "syndrome", syndrome)
        _setattr(self, "pattern", pattern)


_CLEAN = DecodeReport("clean", 0, None)


def decode(word: Codeword, tables: CodecTables,
           odd_parity: bool = False) -> tuple[Codeword, DecodeReport]:
    """Correct the received word if its syndrome is assigned; an unassigned
    nonzero syndrome reports detected-uncorrectable and leaves the word as is.

    The syndrome is a parity read and an XOR, and a correction one XOR with
    the square's flip mask, both memoized on the tables."""
    d, n, parity_of = tables._reader
    w = word._word
    if word._d != d or word._n != n:
        raise ValueError("codeword shape does not match placement")
    s = parity_of(w & (1 << d) - 1) ^ w >> d
    if odd_parity:
        s ^= (1 << n) - 1
    if s == 0:
        return word, _CLEAN
    square = tables._squares.get(s)
    if square is None:
        pat = tables.decode.get(s)
        square = tables._squares[s] = (
            (DecodeReport("uncorrectable", s, None), None) if pat is None
            else (DecodeReport("corrected", s, pat), pat._data_mask | pat._parity_mask << d))
    report, flips = square
    if flips is None:
        return word, report
    fixed = _new(Codeword)  # _codeword, inlined on the hottest path
    fixed._word, fixed._d, fixed._n = w ^ flips, d, n
    return fixed, report
