"""Brute-force syndrome oracles: the pattern enumerators the distance
kernel replaced, kept as the reference the kernel is checked against, the
pattern-level burst-ordering search the bitset walk replaced, the
index-bitset ordering walk and grouping pass the memoized census replaced,
and the frozenset pattern enumerator, triple claimants and triple-coverage
rules the per-width pattern index replaced, a table decoder over received words as bit tuples, the
candidate-by-candidate X_3 walk the class-pinned guided search replaced,
the bitwise Gray-grid position, the grouping <=2-bit map, the
per-cell map renderer and the formatted grid CSV writer and reader the
valid-placement fast path and the layout tables replaced, the
bit-at-a-time parity packing and syndrome fold the codec's byte tables
replaced, side squares by a scan of every square of the map, and the
views only tests read: a pattern's syndrome, an S-class's sort key, a
burst census's shapes and a placement with its parity bits relabelled.

Each syndrome oracle lists error patterns and their syndromes outright,
so it shares no reasoning with :func:`kmap_ecc.placement._collides` beyond
the codes of the parity bits.
"""

import csv
import io
from itertools import combinations

from kmap_ecc.burst import BurstCensus, BurstGroup, Ordering, _allowed_thirds
from kmap_ecc.placement import ErrorPattern, Placement


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


def iter_patterns(p, sizes=(1, 2)):
    """Every error pattern of the given sizes as a union of one-member
    ErrorPatterns, by size and then in combinations order over X_1..X_d,
    P_1..P_n."""
    members = ([ErrorPattern.of(data=(i,)) for i in range(1, p.d + 1)]
               + [ErrorPattern.of(parities=(k,)) for k in range(1, p.n + 1)])
    for size in sizes:
        for combo in combinations(members, size):
            data = frozenset().union(*(m.data for m in combo))
            ps = frozenset().union(*(m.parities for m in combo))
            yield ErrorPattern(data, ps)


def pattern_syndrome(pattern, p):
    """The square a pattern lands on: the XOR of its members' codes."""
    s = 0
    for k in pattern.parities:
        s ^= 1 << (k - 1)
    for i in pattern.data:
        s ^= p.data[i - 1]
    return s


def sclass_key(cls):
    """An S-class's sort key: its weights, then its distances."""
    return (cls.weights, cls.distances)


def burst_shapes(census):
    """The distinct data shapes of a burst census's groups, ascending."""
    return tuple(sorted({g.shape for g in census.groups}))


def permute_bits(p, perm):
    """The placement with parity coordinates relabelled: perm[k-1] is the
    new position of old bit k."""
    return Placement(p.n, tuple(sum(1 << (perm[k] - 1) for k in range(p.n) if x >> k & 1)
                                for x in p.data))


def occupied_map(p):
    """Every <=2-bit pattern grouped under its syndrome, in first-claim
    order: (the syndrome -> pattern items, or None on a collision; the
    (syndrome, claimants by sort key) of each shared square, ascending)."""
    by_syndrome = {}
    for pat in iter_patterns(p, (0, 1, 2)):
        by_syndrome.setdefault(pattern_syndrome(pat, p), []).append(pat)
    clashes = [(s, sorted(pats, key=ErrorPattern.sort_key))
               for s, pats in sorted(by_syndrome.items()) if len(pats) > 1]
    mapping = None if clashes else [(s, pats[0]) for s, pats in by_syndrome.items()]
    return mapping, clashes


def claims(p):
    """Each free square, one no <=2-bit pattern holds, hit by a triple,
    mapped to its claimants: the triples whose syndrome it is, in pattern
    order; the squares in the order they are first claimed."""
    base = {0} | {pattern_syndrome(pat, p) for pat in iter_patterns(p, (1, 2))}
    hits = {}
    for pat in iter_patterns(p, (3,)):
        s = pattern_syndrome(pat, p)
        if s not in base:
            hits.setdefault(s, []).append(pat)
    return hits


def covered_triples(p):
    """Strict triple coverage by listing every pattern: a free square goes to
    its sole claimant, or to its sole claimant that is not all-data."""
    out = {}
    for s, pats in claims(p).items():
        strong = [q for q in pats if len(q.data) < 3]
        if len(strong) == 1:
            out[s] = strong[0]
        elif not strong and len(pats) == 1:
            out[s] = pats[0]
    return out


def assignable_triples(p):
    """Every free square hit by a triple, credited to its first claimant."""
    return {s: pats[0] for s, pats in claims(p).items()}


def decode_table(p, include_triples):
    """Syndrome -> pattern for every 1- and 2-bit pattern, plus the strictly
    covered triples when asked."""
    table = {pattern_syndrome(pat, p): pat for pat in iter_patterns(p, (1, 2))}
    if include_triples:
        table.update(covered_triples(p))
    return table


def decode(bits, p, table, odd_parity):
    """(status, syndrome, pattern, fixed bits) of the received word `bits`
    over X_1..X_d, P_1..P_n.  The syndrome is the XOR of the column codes of
    its set bits (X_i's code, the unit code of P_k), complemented under odd
    parity; an assigned syndrome flips its pattern's bits."""
    cols = list(p.data) + [1 << k for k in range(p.n)]
    s = 0
    for b, c in zip(bits, cols):
        if b:
            s ^= c
    if odd_parity:
        s ^= (1 << p.n) - 1
    if s == 0:
        return "clean", 0, None, bits
    pat = table.get(s)
    if pat is None:
        return "uncorrectable", s, None, bits
    flips = {i - 1 for i in pat.data} | {p.d + k - 1 for k in pat.parities}
    return "corrected", s, pat, tuple(b ^ (i in flips) for i, b in enumerate(bits))


def class_pinned_search(n, cls, limit=None):
    """The guided search pinned to the 2- or 3-data class `cls`, candidate by
    candidate: ([(data, candidates counted when it is emitted), ...], the
    final count), stopping at the `limit`-th placement if one is given.
    Each X_1 of the class weight counts once, each X_2 other than X_1 once,
    and each X_3 of the class weight once per pair that meets the class
    distance and is valid, so the X_3 at position i of its weight class is
    emitted at the pair's count plus i + 1.  A pair or trio is kept when it
    meets the class distances and its <=2-bit syndromes are all distinct."""
    def codes(w):
        return [x for x in range(1 << n) if x.bit_count() == w]
    units = [1 << b for b in range(n)]
    c1, c2, c3 = (codes(w) for w in (cls.weights + (None,))[:3])
    d12, d13, d23 = (cls.distances + (None, None))[:3]
    emitted, count = [], 0
    for x1 in c1:
        count += 1
        near1 = [(i, x3) for i, x3 in enumerate(c3) if (x1 ^ x3).bit_count() == d13]
        for x2 in c2:
            if x2 == x1:
                continue
            count += 1
            if (x1 ^ x2).bit_count() != d12:
                continue
            taken = le2_syndromes((x1, x2), n)
            if len(set(taken)) != len(taken):
                continue
            if len(cls.weights) == 2:
                emitted.append(((x1, x2), count))
                if len(emitted) == limit:
                    return emitted, count
                continue
            taken = set(taken)
            for i, x3 in near1:
                if (x2 ^ x3).bit_count() != d23:
                    continue
                # the patterns holding X_3: X_3 alone and with each other bit
                added = [x3] + [x3 ^ c for c in [x1, x2] + units]
                if taken.isdisjoint(added) and len(set(added)) == len(added):
                    emitted.append(((x1, x2, x3), count + i + 1))
                    if len(emitted) == limit:
                        return emitted, count + i + 1
            count += len(c3)
    return emitted, count


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


def _window(symbols):
    return ErrorPattern(frozenset(i for k, i in symbols if k == "X"),
                        frozenset(i for k, i in symbols if k == "P"))


def burst_census_json(report):
    """The burst search's grouped result, by a prefix-pruned DFS over
    symbol lists that checks each new window of three as an ErrorPattern
    against ``covered_patterns()``; in the shape of ``BurstCensus.to_json``."""
    p = report.placement
    covered = report.covered_patterns()
    survivors = []

    def dfs(prefix, remaining):
        if len(prefix) >= 3 and _window(prefix[-3:]) not in covered:
            return
        if not remaining:
            survivors.append(tuple(prefix))
            return
        for i, sym in enumerate(remaining):
            dfs(prefix + [sym], remaining[:i] + remaining[i + 1:])

    dfs([], [("X", i) for i in range(1, p.d + 1)]
        + [("P", k) for k in range(1, p.n + 1)])
    groups = {}
    for o in survivors:
        key = (tuple(pos for pos, (kind, _) in enumerate(o) if kind == "X"),
               tuple(i for kind, i in o if kind == "X"))
        groups.setdefault(key, []).append(o)
    return {"placement": p.to_json(), "total": len(survivors),
            "groups": [{"shape": list(shape), "assignment": list(assignment),
                        "count": len(members),
                        "representative": ",".join(f"{k}{i}" for k, i in min(members))}
                       for (shape, assignment), members in sorted(groups.items())]}


def index_walk(m, allowed):
    """Every ordering of 0..m-1 whose windows of three are all allowed, in
    lexicographic order: a DFS on the last two bits and the unused ones."""
    out = []
    path = [0] * m

    def extend(depth, a, b, remaining):
        if not remaining:
            out.append(tuple(path))
            return
        cand = remaining & allowed[a * m + b]
        while cand:
            low = cand & -cand
            path[depth] = c = low.bit_length() - 1
            extend(depth + 1, b, c, remaining ^ low)
            cand ^= low

    full = (1 << m) - 1
    for a in range(m):
        for b in range(m):
            if a != b:
                path[0], path[1] = a, b
                extend(2, a, b, full ^ (1 << a) ^ (1 << b))
    return out


def burst_census_index(report):
    """The burst search's BurstCensus from every ordering the index walk
    lists over the code-bit bitsets, grouped in a second pass by (shape,
    assignment); each group's first listed path is its representative."""
    p = report.placement
    symbols = ([("X", i) for i in range(1, p.d + 1)]
               + [("P", k) for k in range(1, p.n + 1)])
    survivors = index_walk(*_allowed_thirds(report))
    grouped = {}
    for path in survivors:
        shape = tuple(pos for pos, i in enumerate(path) if i < p.d)
        assignment = tuple(path[pos] + 1 for pos in shape)
        grouped.setdefault((shape, assignment), []).append(path)
    groups = tuple(BurstGroup(shape, assignment, len(paths),
                              Ordering(tuple(symbols[i] for i in paths[0])))
                   for (shape, assignment), paths in sorted(grouped.items()))
    return BurstCensus(p.to_json(), len(survivors), groups)


def double_weight_count(candidate, priors, n):
    """Squares at distance 1 or 2 from `candidate` that the parity structure
    or a prior occupies or flanks, counted over all 2^n squares.  The parity
    structure occupies the zero square, every P_k and every P_kP_m, and
    flanks every square at distance 1 or 2 from a P_k; a prior occupies its
    own square and flanks those at distance 1 or 2 from it."""
    def dist(a, b):
        return bin(a ^ b).count("1")
    units = [1 << b for b in range(n)]
    count = 0
    for s in range(1 << n):
        if not 1 <= dist(s, candidate) <= 2:
            continue
        if (dist(s, 0) <= 2 or any(dist(s, u) <= 2 for u in units)
                or any(dist(s, x) <= 2 for x in priors)):
            count += 1
    return count


def grid_position(layout, code):
    """(row, column) of `code` on a Gray layout, bit by bit: each axis reads
    its parity variables most-significant first, and the position is the
    index of that value in the reflected Gray sequence."""
    def position(axis):
        g = 0
        for var in axis:
            g = (g << 1) | (code >> (var - 1) & 1)
        return gray_position(g)
    return position(layout.row_vars), position(layout.col_vars)


def gray_position(g):
    """The index of codeword `g` in the reflected Gray sequence."""
    index = 0
    while g:
        index ^= g
        g >>= 1
    return index


def map_cells(p, layout, include_triples):
    """(row, col) -> label of each square of the <=2-bit map of a valid
    placement, in map order, then of each covered triple, cell by cell; the
    zero square is labeled "N"."""
    mapping, _clashes = occupied_map(p)
    table = dict(mapping)
    if include_triples:
        table.update(covered_triples(p))
    return {grid_position(layout, s): pat.label if pat.size else "N"
            for s, pat in table.items()}


def grid_csv(layout, cells):
    """Grid CSV text: the header, then a row per cell by position, each
    index written as its Gray codeword in binary over the axis width."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["row", "col", "label"])
    for (r, c), label in sorted(cells.items()):
        w.writerow([format(r ^ (r >> 1), f"0{len(layout.row_vars)}b"),
                    format(c ^ (c >> 1), f"0{len(layout.col_vars)}b"), label])
    return buf.getvalue()


def parse_grid_csv(text, layout):
    """The cells of grid CSV text, each label read as a binary number of
    the axis width; raises ValueError as the grid reader does."""
    cells = {}
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["row", "col", "label"]:
        raise ValueError("grid CSV must start with header row,col,label")
    for rowbits, colbits, label in reader:
        if len(rowbits) != len(layout.row_vars) or len(colbits) != len(layout.col_vars):
            raise ValueError(f"cell ({rowbits}, {colbits}) does not fit the layout")
        cells[(gray_position(int(rowbits, 2)), gray_position(int(colbits, 2)))] = label
    return cells


def side_squares(code, order, n):
    """The squares of the n-bit map at Hamming distance `order` from
    `code`, ascending, by scanning all 2^n of them."""
    return tuple(y for y in range(1 << n) if (code ^ y).bit_count() == order)


def parity_bits(mask, n):
    """The n low-bit-first bits of `mask`, one shift per bit."""
    return [mask >> k & 1 for k in range(n)]


def parity_mask(data_bits, p, odd_parity):
    """XOR of the codes of the set data bits, complemented under odd parity."""
    mask = 0
    for bit, code in zip(data_bits, p.data):
        if bit:
            mask ^= code
    if odd_parity:
        mask ^= (1 << p.n) - 1
    return mask


def encode(data_bits, p, odd_parity):
    """(data, parity) of the codeword of `data_bits`, each bit an int."""
    data = tuple(int(b) for b in data_bits)
    return data, tuple(parity_bits(parity_mask(data, p, odd_parity), p.n))


def inject(data, parity, pattern):
    """(data, parity) with the pattern's members flipped."""
    return (tuple(b ^ (i + 1 in pattern.data) for i, b in enumerate(data)),
            tuple(b ^ (k + 1 in pattern.parities) for k, b in enumerate(parity)))


def syndrome(data, parity, p, odd_parity):
    """Recomputed parity folded with the received parity bit by bit."""
    s = parity_mask(data, p, odd_parity)
    for k, b in enumerate(parity):
        s ^= b << k
    return s
