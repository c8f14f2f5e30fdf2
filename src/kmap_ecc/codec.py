"""Encoder, syndrome computation and table-driven decoding for a placement.

Memory bit order of a codeword is (data bits, then P_1..P_n); transmission
order is a separate concern handled by orderings in the burst module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Container, Iterator, Mapping, Sequence

from .placement import (ErrorPattern, Placement, require_valid, _index_patterns,
                        _pattern)

__all__ = [
    "Codeword", "CodecTables", "DecodeReport",
    "encode", "syndrome", "inject", "iter_patterns",
    "covered_triples", "build_tables", "decode",
]


_BITS = frozenset((0, 1))
# The int of each common form of a data bit; True and 1.0 are keys equal to 1.
_BIT_VALUE = {0: 0, 1: 1, "0": 0, "1": 1}

# Parity bits are packed and unpacked a byte at a time: the low-bit-first
# bits of each byte, and each bit tuple of length <= 8 back to its mask.
_BYTE_BITS = tuple(tuple(b >> k & 1 for k in range(8)) for b in range(256))
_BITS_MASK = {bits[:w]: b for w in range(9) for b, bits in enumerate(_BYTE_BITS[:1 << w])}


@dataclass(frozen=True)
class Codeword:
    data: tuple[int, ...]
    parity: tuple[int, ...]

    def __post_init__(self):
        bits = self.data + self.parity
        try:
            ok = _BITS.issuperset(bits)
        except TypeError:
            iter(bits)  # a field that is no sequence keeps its TypeError
            ok = False  # an unhashable member is no bit
        if not ok:
            raise ValueError("codeword bits must be 0 or 1")
        # a bit given as True or 1.0 is stored as the int it equals
        object.__setattr__(self, "data", tuple(map(int, self.data)))
        object.__setattr__(self, "parity", tuple(map(int, self.parity)))

    @property
    def bits(self) -> tuple[int, ...]:
        return self.data + self.parity

    def binary(self) -> str:
        return "".join(map(str, self.bits))

    def hex(self) -> str:
        width = (len(self.bits) + 3) // 4
        return format(int(self.binary(), 2), f"0{width}x")

    @classmethod
    def from_bits(cls, bits: Sequence[int], d: int) -> "Codeword":
        bits = tuple(int(b) for b in bits)
        return cls(bits[:d], bits[d:])

    @classmethod
    def from_string(cls, text: str, d: int, n: int) -> "Codeword":
        """Parse a binary string of exactly d+n chars, else a hex string."""
        text = text.strip().lower().removeprefix("0x")
        total = d + n
        if len(text) == total and not set(text) - {"0", "1"}:
            word = text
        else:
            word = format(int(text, 16), f"0{total}b")
            if len(word) > total:
                raise ValueError(f"word {text!r} does not fit {total} bits")
        return cls.from_bits([int(c) for c in word], d)


def _word(data: tuple[int, ...], parity: tuple[int, ...]) -> Codeword:
    """A :class:`Codeword` of two tuples whose members are already the ints
    0 and 1, without checking them again; equal to ``Codeword(data,
    parity)``.  The fields are set as the dataclass's own ``__init__`` sets
    them, as ``placement._placement`` does."""
    w = object.__new__(Codeword)
    object.__setattr__(w, "data", data)
    object.__setattr__(w, "parity", parity)
    return w


def _bits(mask: int, n: int) -> tuple[int, ...]:
    """The n low-bit-first bits of an n-bit `mask`; n <= 16 (``MAX_WIDTH``),
    so they fill at most two bytes."""
    if n <= 8:
        return _BYTE_BITS[mask][:n]
    return _BYTE_BITS[mask & 255] + _BYTE_BITS[mask >> 8][:n - 8]


def _mask(bits: Sequence[int]) -> int:
    """The mask of low-bit-first 0/1 int `bits` of any length, the inverse
    of :func:`_bits`, folded a byte at a time."""
    if len(bits) <= 8:
        return _BITS_MASK[bits]
    return _BITS_MASK[bits[:8]] | _mask(bits[8:]) << 8


def _parity_mask(data_bits: Sequence[int], p: Placement, odd_parity: bool) -> int:
    mask = 0
    for bit, code in zip(data_bits, p.data):
        if bit:
            mask ^= code
    if odd_parity:
        mask ^= (1 << p.n) - 1
    return mask


def _data_bit(b) -> int:
    """The int of a data bit given as anything ``int`` reads exactly as 0 or
    1; "x" and None keep ``int``'s own errors, and 0.5 is not truncated."""
    x = int(b)
    if x not in _BITS or x != b and not isinstance(b, str):
        raise ValueError("codeword bits must be 0 or 1")
    return x


def encode(data_bits: Sequence[int], p: Placement, odd_parity: bool = False) -> Codeword:
    """Even parity: P_k is the XOR of the data bits whose code sets bit k."""
    if len(data_bits) != p.d:
        raise ValueError(f"expected {p.d} data bits, got {len(data_bits)}")
    try:
        data = tuple(map(_BIT_VALUE.__getitem__, data_bits))
    except (KeyError, TypeError):
        data = tuple(map(_data_bit, data_bits))
    return _word(data, _bits(_parity_mask(data, p, odd_parity), p.n))


def syndrome(word: Codeword, p: Placement, odd_parity: bool = False) -> int:
    """Received parity XOR recomputed parity; zero iff all checks pass."""
    if len(word.data) != p.d or len(word.parity) != p.n:
        raise ValueError("codeword shape does not match placement")
    return _parity_mask(word.data, p, odd_parity) ^ _mask(word.parity)


def inject(word: Codeword, pattern: ErrorPattern) -> Codeword:
    """Flip the pattern's members; a part with no member is not copied."""
    data, parity = word.data, word.parity
    try:
        if pattern.data:
            data = list(data)
            for i in pattern.data:
                data[i - 1] ^= 1
        if pattern.parities:
            parity = list(parity)
            for k in pattern.parities:
                parity[k - 1] ^= 1
    except IndexError:
        raise pattern._past(len(word.data), len(word.parity), "word") from None
    return _word(tuple(data), tuple(parity))


def iter_patterns(p: Placement, sizes: Sequence[int] = (1, 2)) -> Iterator[ErrorPattern]:
    """All error patterns of the given sizes, in deterministic order."""
    for idx, _s in _index_patterns(p, sizes):
        yield _pattern(idx, p.d)


def covered_triples(p: Placement) -> dict[int, ErrorPattern]:
    """Three-bit patterns decodable by table lookup, keyed by syndrome.

    A triple is covered when its syndrome square is unoccupied by the <=2-bit
    map and no other triple claims it.  All-data triples are tie-breakers'
    losers: they claim a square only when nothing else touches it, so a square
    contested between an all-data triple and one other pattern goes to the
    other pattern.  This is the one assignment rule consistent with the
    reference map of class S_447^433.

    These are exactly the triples that ``build_tables(p, include_triples=True)``
    corrects.  Every triple that is the sole claimant of a free square is
    included, and any table decoder can correct those, whatever its
    tie-break rule; the only others are the winners of squares that
    X_1X_2X_3 loses.
    """
    return _covered_triples(p, {s for _idx, s in _index_patterns(p, (0, 1, 2))})


def _free_triples(p: Placement, taken: Container[int]) -> list[tuple[tuple[int, ...], int]]:
    """(index tuple, syndrome) of each three-bit pattern, in pattern order,
    whose syndrome is not in `taken`, the squares of the <=2-bit patterns."""
    return [(idx, s) for idx, s in _index_patterns(p, (3,)) if s not in taken]


def _covered_triples(p: Placement, taken: Container[int]) -> dict[int, ErrorPattern]:
    """:func:`covered_triples` given the squares of the <=2-bit patterns, in
    one pass.  Each free square keeps its first claimant and a claim count.
    Its first strong (not all-data) claimant replaces both in place, and
    all-data claims after it do not count; the square is covered iff its
    count ends at 1."""
    d = p.d
    first: dict[int, tuple[int, ...]] = {}
    claims: dict[int, int] = {}
    strong: set[int] = set()
    for idx, s in _free_triples(p, taken):
        # indices ascend, so a triple is all-data iff its last index is < d
        if idx[2] >= d:
            if s in strong:
                claims[s] += 1
            else:
                strong.add(s)
                first[s] = idx
                claims[s] = 1
        elif s not in strong:
            claims[s] = claims.get(s, 0) + 1
            first.setdefault(s, idx)
    return {s: _pattern(idx, d) for s, idx in first.items() if claims[s] == 1}


# A table memoizes at most this many corrected words: every codeword up to
# d = 11 at both parities, and a bounded few of a wide-d code's 2^(d+1).
_WORDS_CAP = 4096


@dataclass(frozen=True)
class CodecTables:
    """Immutable decoding tables: nonzero syndrome -> correctable pattern.

    Two memos, filled by :func:`decode` and not part of the value:
    ``_squares`` maps each nonzero syndrome decoded so far to its
    :class:`DecodeReport` and its pattern's data flip mask (None for an
    uncorrectable square); ``_words`` maps (corrected data mask, odd
    parity) to the corrected :class:`Codeword`, up to ``_WORDS_CAP`` words.
    """

    placement: Placement
    decode: Mapping[int, ErrorPattern]
    include_triples: bool
    _squares: dict[int, tuple["DecodeReport", int | None]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _words: dict[tuple[int, bool], Codeword] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_entries(self) -> int:
        return len(self.decode)

    def rows(self) -> list[tuple[int, str]]:
        return [(s, pat.label) for s, pat in sorted(self.decode.items())]


def build_tables(p: Placement, include_triples: bool = False) -> CodecTables:
    """Decoding tables for every 1- and 2-bit pattern, optionally extended with
    the covered triples; raises PlacementError (with the collision report) on
    an invalid placement.  The table is a read-only view, since
    :func:`decode`'s memos would go on answering for an edited square."""
    table = require_valid(p)
    triples = _covered_triples(p, table) if include_triples else {}
    del table[0]
    table.update(triples)
    return CodecTables(p, MappingProxyType(table), include_triples)


@dataclass(frozen=True)
class DecodeReport:
    status: str            # "clean" | "corrected" | "uncorrectable"
    syndrome: int
    pattern: ErrorPattern | None


_CLEAN = DecodeReport("clean", 0, None)


def decode(word: Codeword, tables: CodecTables,
           odd_parity: bool = False) -> tuple[Codeword, DecodeReport]:
    """Correct the received word if its syndrome is assigned; an unassigned
    nonzero syndrome reports detected-uncorrectable and leaves the word as is.

    Every correction lands on a codeword, which its data bits and parity
    sense fix, so a repeated square or corrected word is read from the
    tables' memos instead of built again."""
    s = syndrome(word, tables.placement, odd_parity)
    if s == 0:
        return word, _CLEAN
    square = tables._squares.get(s)
    if square is None:
        pat = tables.decode.get(s)
        square = tables._squares[s] = (
            (DecodeReport("uncorrectable", s, None), None) if pat is None
            else (DecodeReport("corrected", s, pat), pat._data_mask))
    report, flips = square
    if flips is None:
        return word, report
    key = (_mask(word.data) ^ flips, bool(odd_parity))
    fixed = tables._words.get(key)
    if fixed is None:
        fixed = inject(word, report.pattern)
        if len(tables._words) < _WORDS_CAP:
            tables._words[key] = fixed
    return fixed, report
