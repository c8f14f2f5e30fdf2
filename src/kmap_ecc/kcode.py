"""Core algebra of syndrome codes: weights, distances, side squares, Gray grids.

A K-code is the n-bit label of one Karnaugh-map square, stored as a plain
int.  Bit k (1-indexed) stands for parity check P_k, so the unit code for
P_k is ``1 << (k - 1)``.  All operations take the map width ``n`` explicitly;
codes from maps of different widths must never be mixed.
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cached_property, lru_cache
from itertools import chain, combinations
from operator import attrgetter

MIN_WIDTH = 4
MAX_WIDTH = 16

_setattr = object.__setattr__


class _Value:
    """Base of the package's record classes.  A subclass names its fields
    in ``_fields``, and the base takes them, in that order, positionally
    or by name.  A subclass that checks its values writes its own
    ``__init__`` and ends in the base's; one with slots, defaults or a
    constructor on a timed path stores its own fields.  An instance then
    equals only an instance of its own type with equal fields, hashes as
    the tuple of its fields, reprs as ``Name(field=value, ...)`` and
    refuses to set or delete any attribute, as a frozen dataclass does.
    The package does not import ``dataclasses``, which loads ``inspect``
    and ``ast`` and would slow the start of every CLI command; nor does
    the base compile a constructor per class, as ``namedtuple`` does,
    which would add its ``exec`` of each class to that start."""

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls):
        get = attrgetter(*cls._fields)
        # the fields as a tuple, a one-field class's too
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))
        cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs):
        """Store the fields in ``_fields`` order: the positional arguments
        first, then the rest by name."""
        fields = self._fields
        if kwargs or len(args) != len(fields):
            rest = fields[len(args):]
            if len(args) > len(fields) or kwargs.keys() != set(rest):
                raise TypeError(f"{type(self).__qualname__} takes its fields "
                                f"({', '.join(fields)}) once each; got {len(args)} "
                                f"positional and the names ({', '.join(kwargs)})")
            args += tuple(map(kwargs.get, rest))
        # past the frozen guard; not through ``self.__dict__``, whose
        # creation makes every later attribute read about 3x slower
        for name, value in zip(fields, args):
            _setattr(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, *value):
        """Refuse to set `name`, or without a value to delete it."""
        from dataclasses import FrozenInstanceError     # on this path only
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    __delattr__ = __setattr__


def _check_int(value, what: str) -> None:
    """ValueError unless `value` is an int; a bool or a float is not."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")


def check_width(n: int) -> int:
    _check_int(n, "map width")
    if not MIN_WIDTH <= n <= MAX_WIDTH:
        raise ValueError(f"map width must be in [{MIN_WIDTH}, {MAX_WIDTH}], got {n}")
    return n


def check_code(code: int, n: int) -> int:
    """Validate that `code` is an n-bit K-code; doubles as the width-mismatch guard."""
    check_width(n)
    _check_int(code, "K-code")
    if not 0 <= code < (1 << n):
        raise ValueError(f"code {code} does not fit a {n}-bit map")
    return code


def weight(code: int) -> int:
    """Number of set bits; `code` lies in the weight class N_weight."""
    return code.bit_count()


def distance(a: int, b: int, n: int) -> int:
    """Hamming distance between two squares of the same n-bit map."""
    check_code(a, n)
    check_code(b, n)
    return (a ^ b).bit_count()


def parity_code(k: int) -> int:
    """Unit code e_k for parity bit P_k (1-indexed)."""
    if k < 1:
        raise ValueError(f"parity index must be >= 1, got {k}")
    return 1 << (k - 1)


def from_parities(ks) -> int:
    code = 0
    for k in ks:
        code |= parity_code(k)
    return code


def n_class(m: int, n: int) -> tuple[int, ...]:
    """All binomial(n, m) codes of weight m, ascending."""
    check_width(n)
    if not 0 <= m <= n:
        raise ValueError(f"weight class must be in [0, {n}], got {m}")
    return _n_class(m, n)


@lru_cache(maxsize=None, typed=True)
def _n_class(m: int, n: int) -> tuple[int, ...]:
    """:func:`n_class` of a checked (m, n): at most 17 x 13 classes."""
    return tuple(sorted(sum(1 << b for b in bits) for bits in combinations(range(n), m)))


@lru_cache(maxsize=None)
def _codes(lo: int, hi: int, n: int) -> tuple[int, ...]:
    """The n-bit codes of weight lo..hi, ascending: the searches' candidate
    tables, built once per range from the weight classes (a few ranges per
    width, at most 2^16 codes each)."""
    return tuple(sorted(chain.from_iterable(_n_class(w, n) for w in range(lo, hi + 1))))


def _members(mask: int):
    """Set bits of an int bitset, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _swaps(n: int) -> tuple[tuple[int, int], ...]:
    """Per bit j of an n-bit code, ``(2^j, low)``: in a bitset over the 2^n
    codes, `low` marks the codes with bit j clear.  XOR by 2^j swaps each
    run of 2^j of them with the run just above it."""
    full = (1 << (1 << n)) - 1
    return tuple((1 << j, ((1 << (1 << j)) - 1) * (full // ((1 << (2 << j)) - 1)))
                 for j in range(n))


def _translate(bits: int, x: int, n: int) -> int:
    """The bitset ``{c ^ x : c in bits}`` of n-bit codes, one block swap
    per set bit of x."""
    swaps = _swaps(n)
    while x:
        low = x & -x
        x ^= low
        shift, mask = swaps[low.bit_length() - 1]
        bits = (bits & mask) << shift | (bits >> shift) & mask
    return bits


def side_squares(code: int, order: int, n: int) -> tuple[int, ...]:
    """Squares at exact Hamming distance `order` (1 or 2) from `code`, ascending."""
    check_code(code, n)
    if order not in (1, 2):
        raise ValueError(f"side-square order must be 1 or 2, got {order}")
    return tuple(sorted([code ^ t for t in _n_class(order, n)]))


# ---------------------------------------------------------------------------
# Gray-coded grid layout
# ---------------------------------------------------------------------------

def gray(i: int) -> int:
    """i-th reflected-Gray codeword."""
    return i ^ (i >> 1)


class GrayLayout(_Value):
    """Assignment of parity variables to the two Gray-ordered grid axes.

    `row_vars` / `col_vars` list parity indices most-significant first; the
    label of a row is the Gray codeword of its index read over `row_vars`.
    The default layout puts the odd parities on rows and the even ones on
    columns, descending, which reproduces the standard published maps.
    """

    _fields = ("n", "row_vars", "col_vars")

    def __init__(self, n: int, row_vars: Iterable[int], col_vars: Iterable[int]):
        check_width(n)
        row_vars, col_vars = tuple(row_vars), tuple(col_vars)
        for k in row_vars + col_vars:
            _check_int(k, "layout variable")
        if sorted(row_vars + col_vars) != list(range(1, n + 1)):
            raise ValueError("row_vars and col_vars must partition 1..n")
        if not row_vars or not col_vars:
            raise ValueError("row_vars and col_vars must each hold a parity variable")
        super().__init__(n, row_vars, col_vars)

    @property
    def row_count(self) -> int:
        return 1 << len(self.row_vars)

    @property
    def col_count(self) -> int:
        return 1 << len(self.col_vars)

    @cached_property
    def _axes(self) -> tuple["_Axis", "_Axis"]:
        """The row and the column :class:`_Axis` tables."""
        return _Axis(self.row_vars), _Axis(self.col_vars)

    def to_grid(self, code: int) -> tuple[int, int]:
        """Map a K-code to its (row index, column index)."""
        check_code(code, self.n)
        rows, cols = self._axes
        return rows.index[code & rows.mask], cols.index[code & cols.mask]

    def from_grid(self, row: int, col: int) -> int:
        if not (0 <= row < self.row_count and 0 <= col < self.col_count):
            raise ValueError(f"grid index ({row}, {col}) out of range")
        rows, cols = self._axes
        return rows.codes[row] | cols.codes[col]

    def to_json(self) -> dict:
        return {"n": self.n, "row_vars": list(self.row_vars), "col_vars": list(self.col_vars)}

    @classmethod
    def from_json(cls, obj: dict) -> "GrayLayout":
        return cls(obj["n"], obj["row_vars"], obj["col_vars"])


class _Axis:
    """One grid axis as tables over its 2^|axis| positions."""

    __slots__ = ("mask",        # the axis's parity bits
                 "codes",       # position -> the code's bits over the axis
                 "labels",      # position -> Gray label over the axis width
                 "index",       # code & mask -> position
                 "by_label")    # label -> position

    def __init__(self, axis: tuple[int, ...]):
        width = len(axis)

        def axis_code(index: int) -> int:
            """The Gray codeword at `index`, its bits read over `axis`."""
            g = gray(index)
            return sum(1 << (var - 1) for k, var in enumerate(axis) if g >> (width - 1 - k) & 1)

        self.mask = from_parities(axis)
        self.codes = tuple(axis_code(i) for i in range(1 << width))
        self.labels = tuple(format(gray(i), f"0{width}b") for i in range(1 << width))
        self.index = {code: i for i, code in enumerate(self.codes)}
        self.by_label = {label: i for i, label in enumerate(self.labels)}


@lru_cache(maxsize=None)
def default_layout(n: int) -> GrayLayout:
    """Odd parities on rows, even on columns, both descending."""
    check_width(n)
    rows = tuple(k for k in range(n, 0, -1) if k % 2 == 1)
    cols = tuple(k for k in range(n, 0, -1) if k % 2 == 0)
    return GrayLayout(n, rows, cols)
