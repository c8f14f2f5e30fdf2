"""Brute-force syndrome oracles: the pattern enumerators the distance
kernel replaced, kept as the reference the kernel is checked against.

Each one lists error patterns and their syndromes outright, so it shares
no reasoning with :func:`kmap_ecc.placement._collides` beyond the codes of
the parity bits.
"""

from itertools import combinations


def collides(data, n):
    """True iff two distinct <=2-bit error patterns share a syndrome."""
    codes = list(data) + [1 << b for b in range(n)]
    seen = {0}
    for c in codes:
        if c in seen:
            return True
        seen.add(c)
    for a, b in combinations(codes, 2):
        s = a ^ b
        if s in seen:
            return True
        seen.add(s)
    return False


def first_collision_kind(data, n):
    """None when every <=3-bit pattern owns a distinct syndrome, else the
    kinds of the first colliding pattern pair, scanning patterns by size and
    then index order over X_1..X_d, P_1..P_n."""
    codes = list(data) + [1 << b for b in range(n)]
    d = len(data)
    def kind(idx):
        nx = sum(1 for i in idx if i < d)
        return "X" * nx + "P" * (len(idx) - nx)
    seen = {0: "zero"}
    for r in (1, 2, 3):
        for idx in combinations(range(len(codes)), r):
            s = 0
            for i in idx:
                s ^= codes[i]
            if s in seen:
                return (kind(idx), seen[s])
            seen[s] = kind(idx)
    return None


def le2_syndromes(data, n):
    codes = list(data) + [1 << b for b in range(n)]
    return [0] + codes + [a ^ b for a, b in combinations(codes, 2)]


def theorem4_survives(trio, n):
    """True iff the trio is valid and every <=2-bit syndrome and every
    P_lP_mP_n square are pairwise distinct."""
    if collides(trio, n):
        return False
    units = [1 << b for b in range(n)]
    syndromes = le2_syndromes(trio, n) + [a ^ b ^ c for a, b, c in combinations(units, 3)]
    return len(set(syndromes)) == len(syndromes)
