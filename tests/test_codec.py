"""Encoder, syndromes and table-driven decoding."""

import copy
import math
import pickle
import random
from itertools import product
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from kmap_ecc.codec import (CodecTables, Codeword, build_tables, covered_triples, decode,
                            encode, inject)
from kmap_ecc.kcode import from_parities, weight
from kmap_ecc.placement import (ErrorPattern, Placement, PlacementError,
                                guided_search, is_valid)


def all_data_values(d):
    return list(product((0, 1), repeat=d))


def syndrome(word, tables, odd=False):
    """The syndrome :func:`decode` reports for `word`: 0 for a clean word."""
    return decode(word, tables, odd)[1].syndrome


def test_zero_data_gives_zero_parity(refs):
    word = encode([0, 0, 0], refs["s445_433"])
    assert word.parity == (0,) * 7


def test_single_data_bit_copies_its_mask(refs):
    p = refs["s445_433"]
    word = encode([1, 0, 0], p)
    assert [k for k, b in enumerate(word.parity, 1) if b] == [2, 4, 6, 7]


def test_two_data_bits_xor_their_masks(refs):
    p = refs["s445_433"]
    word = encode([1, 1, 0], p)
    assert [k for k, b in enumerate(word.parity, 1) if b] == [3, 4, 5, 6]


def test_clean_codeword_zero_syndrome(refs):
    p = refs["s447_433"]
    tables = build_tables(p)
    for bits in all_data_values(3):
        assert syndrome(encode(bits, p), tables) == 0


@pytest.mark.parametrize("odd", [False, True])
def test_encode_parity_follows_int_data_bits(refs, odd):
    """Bits given as strings or floats encode as their int values: "0" is a
    zero bit although the string is true."""
    p = refs["s447_433"]
    tables = build_tables(p)
    for bits in all_data_values(3):
        want = encode(bits, p, odd)
        for given_bits in ([str(b) for b in bits], [float(b) for b in bits]):
            word = encode(given_bits, p, odd)
            assert word == want
            assert syndrome(word, tables, odd) == 0


@pytest.mark.parametrize("d", range(1, 10))
def test_encode_reads_every_bit_tuple_as_the_oracle(d):
    """Up to 8 data bits a tuple's mask is one dict read, past them a bit
    loop; a list, a tuple of bools or floats and a string of digits of the
    same bits encode alike, at either parity."""
    p = Placement(12, tuple(range(1, d + 1)))
    for bits in product((0, 1), repeat=d):
        for odd in (False, True):
            want = oracles.encode(bits, p, odd)
            for given_bits in (bits, list(bits), tuple(map(bool, bits)),
                               tuple(map(float, bits)), "".join(map(str, bits))):
                word = encode(given_bits, p, odd)
                assert (word.data, word.parity) == want, given_bits


def test_encode_and_decode_keep_their_errors(refs):
    p = refs["s447_433"]
    with pytest.raises(ValueError, match="expected 3 data bits, got 2"):
        encode([0, 1], p)
    for bad in ([2, 0, 0], [0, "-1", 0], [0, 0, 3.0], [0.5, 1, 0], [1.9, 0, 0]):
        for given_bits in (bad, tuple(bad)):
            with pytest.raises(ValueError, match="codeword bits must be 0 or 1"):
                encode(given_bits, p)
    for given_bits in ([0, "x", 0], (0, "x", 0), "0x0"):
        with pytest.raises(ValueError, match="invalid literal"):
            encode(given_bits, p)
    for given_bits in ([0, None, 0], (0, None, 0), (0, [1], 0)):
        with pytest.raises(TypeError):
            encode(given_bits, p)
    short = Codeword((0, 0, 0), (0,) * 6)
    with pytest.raises(ValueError, match="codeword shape does not match placement"):
        decode(short, build_tables(p))


@pytest.mark.parametrize("n,pattern,past", [
    (7, ErrorPattern.of(data=(4,)), "X_4"),
    (7, ErrorPattern.of(parities=(8,)), "P_8"),
    (7, ErrorPattern.of(data=(1, 5), parities=(2, 9)), "X_5, P_9"),
    (10, ErrorPattern.of(parities=(11,)), "P_11"),
])
def test_inject_rejects_members_past_the_word(n, pattern, past):
    p = Placement(n, (15, 51, 85))
    with pytest.raises(ValueError, match=f"names {past}, past a word of 3 data and {n} parity"):
        inject(encode([0, 0, 0], p), pattern)


def test_data_flip_yields_that_mask(refs):
    p = refs["s445_433"]
    tables = build_tables(p)
    for i in range(3):
        word = inject(encode([0, 0, 0], p), ErrorPattern.of(data=(i + 1,)))
        assert syndrome(word, tables) == p.data[i]


def test_syndrome_linearity_all_patterns_up_to_3(refs):
    p = refs["s445_433"]
    clean, tables = encode([1, 0, 1], p), build_tables(p)
    for pat in oracles.iter_patterns(p, (1, 2, 3)):
        assert syndrome(inject(clean, pat), tables) == oracles.pattern_syndrome(pat, p)


def test_odd_parity_round_trip(refs):
    p = refs["s445_433"]
    tables = build_tables(p)
    for bits in all_data_values(3):
        word = encode(bits, p, odd_parity=True)
        assert syndrome(word, tables, odd=True) == 0
        # every subset check sums to one
        assert syndrome(word, tables) == (1 << 7) - 1


def test_build_tables_entry_counts(refs):
    t3 = build_tables(refs["s445_433"])
    assert t3.n_entries == 10 + math.comb(10, 2)
    t4 = build_tables(refs["s447_433"], include_triples=True)
    assert t4.n_entries == 55 + 49


def test_build_tables_rejects_invalid():
    bad = Placement(7, (from_parities([1, 2]),))
    with pytest.raises(PlacementError) as err:
        build_tables(bad)
    assert err.value.collisions


def test_decode_clean(refs):
    p = refs["s447_433"]
    tables = build_tables(p)
    word = encode([1, 1, 0], p)
    fixed, report = decode(word, tables)
    assert report.status == "clean" and fixed == word


def test_round_trip_all_data_values(refs):
    for name in ("s445_433", "s447_433"):
        p = refs[name]
        tables = build_tables(p)
        for bits in all_data_values(p.d):
            fixed, report = decode(encode(bits, p), tables)
            assert report.status == "clean"
            assert fixed.data == bits


def test_decode_corrects_all_small_errors(refs):
    p = refs["s447_433"]
    tables = build_tables(p)
    for bits in all_data_values(3):
        clean = encode(bits, p)
        for pat in oracles.iter_patterns(p, (1, 2)):
            fixed, report = decode(inject(clean, pat), tables)
            assert report.status == "corrected"
            assert report.pattern == pat
            assert fixed == clean


def test_decode_corrects_covered_triples(refs):
    p = refs["s447_433"]
    tables = build_tables(p, include_triples=True)
    clean = encode([0, 1, 1], p)
    for pat in covered_triples(p).values():
        fixed, report = decode(inject(clean, pat), tables)
        assert report.status == "corrected" and fixed == clean


def test_uncovered_triple_without_tables_is_uncorrectable(refs):
    p = refs["s447_433"]
    tables = build_tables(p, include_triples=True)
    covered = set(covered_triples(p).values())
    clean = encode([1, 0, 0], p)
    hit = None
    for pat in oracles.iter_patterns(p, (3,)):
        if pat in covered:
            continue
        _, report = decode(inject(clean, pat), tables)
        assert report.status in ("corrected", "uncorrectable")
        if report.status == "uncorrectable":
            hit = pat
            break
    assert hit is not None


def test_triples_never_change_small_error_decoding(refs):
    p = refs["s447_433"]
    plain = build_tables(p)
    extended = build_tables(p, include_triples=True)
    for s, pat in plain.decode.items():
        assert extended.decode[s] == pat


def test_guided_4_data_codec_round_trip():
    p = next(guided_search(7, 4))
    tables = build_tables(p)
    assert tables.n_entries == 11 + math.comb(11, 2)
    for bits in all_data_values(4):
        clean = encode(bits, p)
        for pat in oracles.iter_patterns(p, (1, 2)):
            fixed, report = decode(inject(clean, pat), tables)
            assert report.status == "corrected" and fixed == clean


def test_codeword_text_forms(refs):
    p = refs["s445_433"]
    word = encode([1, 0, 1], p)
    assert len(word.binary()) == 10
    again = Codeword.from_string(word.binary(), p.d, p.n)
    assert again == word
    assert Codeword.from_string(word.hex(), p.d, p.n) == word
    assert Codeword.from_string(" 0X" + word.hex().upper(), p.d, p.n) == word
    # int(text, 16) would read a sign, underscores or inner spaces
    for bad in ("zz", "1_0", "+3ff", "-1", "3 ff", "0x", "", "400", "0x" + word.binary()):
        with pytest.raises(ValueError):
            Codeword.from_string(bad, 3, 7)


@st.composite
def valid_placements(draw, max_n=12, max_d=4):
    """A valid placement at widths 4-`max_n` with up to `max_d` data bits:
    drawn heavy codes, each kept when the placement stays valid."""
    n = draw(st.integers(4, max_n))
    heavy = st.integers(0, (1 << n) - 1).filter(lambda x: weight(x) >= 4)
    data = []
    for code in draw(st.lists(heavy, min_size=1, max_size=8)):
        if len(data) < max_d and is_valid(Placement(n, (*data, code))):
            data.append(code)
    return Placement(n, tuple(data))


@settings(max_examples=150, deadline=None)
@given(valid_placements(), st.data(), st.booleans())
def test_round_trip_corrects_every_le2_pattern(p, data, odd):
    bits = data.draw(st.lists(st.integers(0, 1), min_size=p.d, max_size=p.d))
    tables = build_tables(p)
    word = encode(bits, p, odd_parity=odd)
    fixed, report = decode(word, tables, odd_parity=odd)
    assert (fixed, report.status, report.pattern) == (word, "clean", None)
    for pat in oracles.iter_patterns(p, (1, 2)):
        fixed, report = decode(inject(word, pat), tables, odd_parity=odd)
        assert (fixed, report.status, report.pattern) == (word, "corrected", pat)


@settings(max_examples=200, deadline=None)
@given(valid_placements(16, 5), st.booleans(), st.booleans(), st.data())
def test_codec_matches_bitwise_references(p, odd, triples, data):
    """encode/inject/syndrome/decode against the bit-at-a-time parity
    packing and syndrome fold, at every width, on words hit by random
    patterns of up to five bits; every word they return is the one the
    public constructor builds, with int bits."""
    bits = data.draw(st.lists(st.sampled_from((0, 1, False, True, 0.0, 1.0)),
                              min_size=p.d, max_size=p.d))
    word = encode(bits, p, odd)
    assert (word.data, word.parity) == oracles.encode(bits, p, odd)
    members = data.draw(st.lists(st.integers(1, p.d + p.n), max_size=5, unique=True))
    pat = ErrorPattern.of(data=[i for i in members if i <= p.d],
                          parities=[i - p.d for i in members if i > p.d])
    received = inject(word, pat)
    assert (received.data, received.parity) == oracles.inject(word.data, word.parity, pat)
    fixed, report = decode(received, build_tables(p, triples), odd)
    assert report.syndrome == oracles.syndrome(received.data, received.parity, p, odd)
    assert ((report.status, report.syndrome, report.pattern, fixed.bits)
            == oracles.decode(received.bits, p, oracles.decode_table(p, triples), odd))
    for w in (word, received, fixed):
        public = Codeword(w.data, w.parity)
        assert w == public and hash(w) == hash(public) and repr(w) == repr(public)
        assert all(type(b) is int for b in w.bits)


def wide_placement(n, d, start=0):
    """A valid placement of d data bits at width n, each code the first one
    from `start` on, cyclically, that keeps it valid; () data when none is
    left."""
    data = ()
    for k in range(1 << n):
        code = (start + k) % (1 << n)
        if weight(code) >= 4 and is_valid(Placement(n, data + (code,))):
            data += (code,)
            if len(data) == d:
                return Placement(n, data)
    return Placement(n, ())


@settings(max_examples=30, deadline=None)
@given(st.integers(12, 16), st.integers(9, 14), st.integers(0, (1 << 16) - 1),
       st.booleans(), st.booleans(), st.data())
def test_wide_codec_matches_bitwise_references(n, d, start, odd, triples, data):
    """encode/inject/syndrome/decode against the bit-at-a-time references
    with 9-14 data bits at widths 12-16, so both fields of the word cross a
    byte and decode reads parities past its table."""
    p = wide_placement(n, d, start)
    assume(p.d == d)
    bits = data.draw(st.lists(st.integers(0, 1), min_size=d, max_size=d))
    word = encode(bits, p, odd)
    assert (word.data, word.parity) == oracles.encode(bits, p, odd)
    members = data.draw(st.lists(st.integers(1, d + n), max_size=5, unique=True))
    pat = ErrorPattern.of(data=[i for i in members if i <= d],
                          parities=[i - d for i in members if i > d])
    received = inject(word, pat)
    assert (received.data, received.parity) == oracles.inject(word.data, word.parity, pat)
    fixed, report = decode(received, build_tables(p, triples), odd)
    assert report.syndrome == oracles.syndrome(received.data, received.parity, p, odd)
    assert ((report.status, report.syndrome, report.pattern, fixed.bits)
            == oracles.decode(received.bits, p, oracles.decode_table(p, triples), odd))


def test_codeword_views_round_trip_every_mask():
    """Every mask of up to 12 bits is the word of the codeword of its bits,
    as parity bits or as data bits, and the parity syndrome of no data."""
    for n in range(13):
        tables = build_tables(Placement(n, ())) if n >= 4 else None
        for mask in range(1 << n):
            bits = tuple(oracles.parity_bits(mask, n))
            as_parity, as_data = Codeword((), bits), Codeword(bits, ())
            assert as_parity.word == as_data.word == mask
            assert as_parity.parity == as_parity.bits == as_data.data == as_data.bits == bits
            assert as_parity.data == as_data.parity == ()
            if tables:
                assert syndrome(as_parity, tables) == mask


def test_codeword_is_a_value(refs):
    """Read-only, equal and hashed only as a codeword of the same bits,
    never as the tuple or int it is stored as, and copied and pickled whole."""
    word = encode([1, 0, 1], refs["s447_433"])
    assert repr(word) == "Codeword(data=(1, 0, 1), parity=(1, 0, 1, 0, 1, 0, 0))"
    for name in ("data", "parity", "bits", "word", "extra"):
        with pytest.raises(AttributeError):
            setattr(word, name, 0)
    for other in (word.word, (word.word, 3, 7), (word.data, word.parity), word.bits):
        assert word != other and other != word
        assert not word == other and not other == word
    same = Codeword(word.data, word.parity)
    for twin in (same, copy.copy(word), copy.deepcopy(word), pickle.loads(pickle.dumps(word))):
        assert type(twin) is Codeword and twin == word and hash(twin) == hash(word)
    assert word != Codeword(word.data, word.parity[:-1] + (1,))
    assert {word: 1}[same] == 1


@pytest.mark.parametrize("data,parity", [
    ((True, False, 0), (0, 1.0, 0, 0, 0, 0, 0)),
    ((1.0, 0.0, 0), (False, True, 0, 0, 0, 0, 0)),
    ([1, 0, 0], [0, 1, 0, 0, 0, 0, 0]),
], ids=["bool", "float", "list"])
def test_codeword_stores_int_bits(refs, data, parity):
    """Bits equal to 0 or 1 are stored as those ints, in tuples, so the word
    prints one character per bit and its syndrome is the int word's."""
    want = Codeword((1, 0, 0), (0, 1, 0, 0, 0, 0, 0))
    word = Codeword(data, parity)
    assert word == want
    assert type(word.data) is tuple and type(word.parity) is tuple
    assert all(type(b) is int for b in word.bits)
    assert word.binary() == "1000100000" and word.hex() == want.hex()
    tables = build_tables(refs["s447_433"])
    assert syndrome(word, tables) == syndrome(want, tables)
    assert inject(word, ErrorPattern.of(parities=(2,))).parity == (0,) * 7


def test_codeword_fields_of_mixed_types_keep_their_type_error():
    with pytest.raises(TypeError):
        Codeword([1, 0, 0], (0,) * 7)


ORACLE_CODES = {
    "s447_433": lambda refs: (refs["s447_433"], False),
    "s447_433+triples": lambda refs: (refs["s447_433"], True),
    "guided_7_4": lambda refs: (next(guided_search(7, 4)), False),
    "witness_10+triples": lambda refs: (Placement(10, (63, 455, 729)), True),
}


@pytest.mark.parametrize("odd", [False, True], ids=["even", "odd"])
@pytest.mark.parametrize("name", ORACLE_CODES)
def test_decode_matches_brute_force_oracle(refs, name, odd):
    """Every received word of d+n bits decodes as the brute-force table
    decoder says: status, syndrome, pattern and fixed word."""
    p, triples = ORACLE_CODES[name](refs)
    tables = build_tables(p, include_triples=triples)
    table = oracles.decode_table(p, triples)
    for bits in product((0, 1), repeat=p.d + p.n):
        fixed, report = decode(Codeword(bits[:p.d], bits[p.d:]), tables, odd_parity=odd)
        assert ((report.status, report.syndrome, report.pattern, fixed.bits)
                == oracles.decode(bits, p, table, odd))


@pytest.mark.parametrize("bad", [2, -1, "1", None, 0.5, [0]], ids=repr)
def test_codeword_rejects_non_bits(bad):
    with pytest.raises(ValueError):
        Codeword((0, bad, 1), (1, 0))
    with pytest.raises(ValueError):
        Codeword((0, 1), (1, bad))


def test_repeated_decodes_return_equal_reports(refs):
    p = refs["s447_433"]
    tables = build_tables(p, include_triples=True)
    clean = encode([1, 0, 1], p)
    words = [clean] + [inject(clean, pat) for pat in oracles.iter_patterns(p, (1, 2, 3))]
    first = [decode(w, tables) for w in words]
    assert [decode(w, tables) for w in words] == first
    assert {report.status for _, report in first} == {"clean", "corrected", "uncorrectable"}


def test_tables_equality_and_repr_ignore_report_memo(refs):
    p = refs["s447_433"]
    used, fresh = build_tables(p, include_triples=True), build_tables(p, include_triples=True)
    decode(inject(encode([0, 1, 1], p), ErrorPattern.of(data=(1,))), used)
    assert used._squares and not fresh._squares
    assert used == fresh
    assert repr(used) == repr(fresh)


def test_decode_table_is_read_only(refs):
    """An edited square would leave decode's memos answering for it."""
    p = refs["s447_433"]
    tables = build_tables(p, include_triples=True)
    word = inject(encode([0, 1, 1], p), ErrorPattern.of(data=(1,)))
    _, report = decode(word, tables)
    with pytest.raises(TypeError):
        del tables.decode[report.syndrome]
    with pytest.raises(TypeError):
        tables.decode[report.syndrome] = None
    assert tables.decode[report.syndrome] == report.pattern
    assert tables == build_tables(p, include_triples=True)


@pytest.mark.parametrize("triples", [False, True])
def test_tables_pickle_and_copy_as_a_rebuild(refs, triples):
    """A copied or unpickled table equals the original, keeps a read-only
    table and no memo, and decodes every received word as it does."""
    p = refs["s447_433"]
    tables = build_tables(p, include_triples=triples)
    words = [Codeword(bits[:p.d], bits[p.d:]) for bits in product((0, 1), repeat=p.d + p.n)]
    want = [decode(w, tables, odd) for w in words for odd in (False, True)]
    for twin in (pickle.loads(pickle.dumps(tables)), copy.deepcopy(tables), copy.copy(tables)):
        assert type(twin) is CodecTables and twin == tables and not twin._squares
        with pytest.raises(TypeError):
            twin.decode[1] = None
        assert [decode(w, twin, odd) for w in words for odd in (False, True)] == want


def test_hand_made_tables_pickle_and_copy_with_their_own_entries(refs):
    """A table made by hand, not by build_tables, comes back from pickle and
    copy with its own entries (here none), not the placement's full table."""
    p = refs["s447_433"]
    tables = CodecTables(p, MappingProxyType({}), False)
    word = inject(encode((1, 0, 1), p), ErrorPattern.of(data=(1,)))
    for twin in (pickle.loads(pickle.dumps(tables)), copy.deepcopy(tables), copy.copy(tables)):
        assert type(twin) is CodecTables and twin == tables and twin.n_entries == 0
        with pytest.raises(TypeError):
            twin.decode[1] = None
        assert decode(word, twin)[1].status == "uncorrectable"


@pytest.mark.parametrize("name", ["s447_433+triples", "witness_10+triples"])
def test_memoized_decodes_match_brute_force_oracle(refs, name):
    """One table decodes every received word, alternating the parity sense
    word by word, as the brute-force decoder does; it keeps a report for
    every uncorrectable square."""
    p, triples = ORACLE_CODES[name](refs)
    tables = build_tables(p, include_triples=triples)
    table = oracles.decode_table(p, triples)
    for k, bits in enumerate(product((0, 1), repeat=p.d + p.n)):
        odd = k % 2 == 1
        fixed, report = decode(Codeword(bits[:p.d], bits[p.d:]), tables, odd_parity=odd)
        assert ((report.status, report.syndrome, report.pattern, fixed.bits)
                == oracles.decode(bits, p, table, odd))
    unassigned = set(range(1, 1 << p.n)) - tables.decode.keys()
    assert unassigned <= tables._squares.keys()
    assert {tables._squares[s][0].status for s in unassigned} == {"uncorrectable"}


def test_wide_data_decode_stream():
    """A stream of single data-bit errors through a 14-data code at n=16,
    whose parities decode computes bit by bit, is corrected word by word."""
    p = wide_placement(16, 14, start=1)
    assert p.d == 14
    tables = build_tables(p)
    rng = random.Random(19)
    for k in range(2000):
        bits = [rng.randrange(2) for _ in range(p.d)]
        odd = k % 2 == 1
        flip = ErrorPattern.of(data=(rng.randrange(1, p.d + 1),))
        fixed, report = decode(inject(encode(bits, p, odd), flip), tables, odd_parity=odd)
        assert (report.status, report.pattern, fixed) == ("corrected", flip, encode(bits, p, odd))
