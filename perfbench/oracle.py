"""Brute-force reference for the benchmark's output checks.

Written from the code's definition alone, without calling into kmap_ecc:
a word is an int whose bit i is memory position i (data bits X_1..X_d
first, then parities P_1..P_n), and the syndrome of a set of flipped
positions is the XOR of their K-codes (data bit i -> its code, parity P_k
-> 1 << (k-1)).
"""

from __future__ import annotations

from itertools import combinations


class Code:
    """One placement seen from outside: its position codes and the decoding
    table a correct decoder must use."""

    def __init__(self, n: int, data, include_triples: bool = False):
        self.n = n
        self.d = len(data)
        self.data = tuple(data)
        self.codes = self.data + tuple(1 << k for k in range(n))
        self.data_mask = (1 << self.d) - 1
        le2 = {}
        for size in (1, 2):
            for pos in combinations(range(self.d + n), size):
                le2.setdefault(self._syndrome_of(pos), []).append(_mask(pos))
        self.valid = 0 not in le2 and all(len(v) == 1 for v in le2.values())
        self.table = {s: v[0] for s, v in le2.items()}
        if include_triples and self.valid:
            self.table.update(self._covered_triples())

    def _syndrome_of(self, positions) -> int:
        s = 0
        for i in positions:
            s ^= self.codes[i]
        return s

    def _covered_triples(self) -> dict:
        """Each free square goes to the unique triple claiming it; the
        all-data triple only wins a square nothing else claims."""
        claims = {}
        for pos in combinations(range(self.d + self.n), 3):
            s = self._syndrome_of(pos)
            if s and s not in self.table:
                claims.setdefault(s, []).append(_mask(pos))
        out = {}
        for s, masks in claims.items():
            strong = [m for m in masks if (m & self.data_mask).bit_count() < 3]
            if len(strong) == 1:
                out[s] = strong[0]
            elif not strong and len(masks) == 1:
                out[s] = masks[0]
        return out

    def encode(self, data_bits: int) -> int:
        parity = 0
        for i in range(self.d):
            if data_bits >> i & 1:
                parity ^= self.data[i]
        return data_bits | parity << self.d

    def syndrome(self, word: int) -> int:
        return (word >> self.d) ^ (self.encode(word & self.data_mask) >> self.d)

    def decode(self, word: int) -> tuple[str, int]:
        """(status, corrected word) a table decoder must return."""
        s = self.syndrome(word)
        if s == 0:
            return "clean", word
        flip = self.table.get(s)
        if flip is None:
            return "uncorrectable", word
        return "corrected", word ^ flip


def _mask(positions) -> int:
    m = 0
    for i in positions:
        m |= 1 << i
    return m


def is_valid(n: int, data) -> bool:
    return Code(n, data).valid


def bits_to_int(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


def int_to_bits(word: int, width: int) -> tuple[int, ...]:
    return tuple(word >> i & 1 for i in range(width))
