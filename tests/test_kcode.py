"""Syndrome-code algebra, Gray-grid layout and the package's exports."""

import ast
import importlib
import itertools
import math
import pkgutil
import random
import re
import symtable
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import kmap_ecc
import oracles
from kmap_ecc.kcode import (GrayLayout, default_layout, distance, from_parities,
                            gray, n_class, parity_code,
                            side_squares, weight, _translate)


def test_weight_basics():
    assert weight(0) == 0
    assert weight(parity_code(3)) == 1
    assert weight(from_parities([2, 4, 6, 7])) == 4


def test_distance_examples():
    x1 = from_parities([2, 4, 6, 7])
    x2 = from_parities([2, 3, 5, 7])
    x3 = from_parities([1, 2, 3, 4, 7])
    assert distance(x1, x1, 7) == 0
    assert distance(x1, x2, 7) == 4
    assert distance(x1, x3, 7) == 3


def test_distance_rejects_out_of_width():
    with pytest.raises(ValueError):
        distance(1 << 7, 0, 7)


def test_distance_equals_weight_of_xor_exhaustive():
    for a in range(128):
        for b in range(128):
            assert distance(a, b, 7) == weight(a ^ b)


def test_side_square_sizes():
    for code in (0, 85, 127):
        s1 = side_squares(code, 1, 7)
        s2 = side_squares(code, 2, 7)
        assert len(s1) == 7
        assert len(s2) == 21
        assert not set(s1) & set(s2)
        assert code not in s1 and code not in s2


def test_first_order_sides_width4_square():
    # n=4 map, X at s4 s3 s2 s1 = 1011
    x = from_parities([1, 2, 4])
    sides = side_squares(x, 1, 4)
    assert set(sides) == {from_parities(ks) for ks in
                          ([2, 4], [1, 4], [1, 2], [1, 2, 3, 4])}


@pytest.mark.parametrize("n", range(4, 11))
def test_side_squares_match_full_scan(n):
    rng = random.Random(n)
    for code in {0, (1 << n) - 1, *(rng.randrange(1 << n) for _ in range(20))}:
        for order in (1, 2):
            assert side_squares(code, order, n) == oracles.side_squares(code, order, n)


def test_side_weights_adjacent_classes():
    # order-1 sides of a weight-m square live in N_{m-1} u N_{m+1}, order-2 in N_{m+-2} u N_m
    for code in range(128):
        m = weight(code)
        assert {weight(s) for s in side_squares(code, 1, 7)} <= {m - 1, m + 1}
        assert {weight(s) for s in side_squares(code, 2, 7)} <= {m - 2, m, m + 2}


@pytest.mark.parametrize("n", range(4, 17))
def test_n_class_matches_sorted_combinations(n):
    for m in range(n + 1):
        want = tuple(sorted(sum(1 << b for b in bits)
                            for bits in itertools.combinations(range(n), m)))
        assert n_class(m, n) == want
        assert n_class(m, n) is n_class(m, n)       # built once per (m, n)
    for bad in (-1, n + 1):
        with pytest.raises(ValueError, match="weight class"):
            n_class(bad, n)


def test_n_class_sizes_and_order():
    assert n_class(1, 7) == tuple(1 << k for k in range(7))
    assert len(n_class(4, 7)) == math.comb(7, 4) == 35
    assert n_class(7, 7) == (127,)
    assert list(n_class(3, 7)) == sorted(n_class(3, 7))


@given(st.integers(4, 10), st.data())
def test_algebra_properties(n, data):
    codes = st.integers(0, (1 << n) - 1)
    a, b, c = data.draw(codes), data.draw(codes), data.draw(codes)
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert a ^ b == b ^ a
    assert a ^ a == 0
    assert distance(a, b, n) == distance(b, a, n) == weight(a ^ b)


def test_parities_round_trip():
    code = from_parities([3, 6])
    assert code == 0b100100
    assert [k for k in range(1, 8) if code >> (k - 1) & 1] == [3, 6]


# --- Gray layout ---

@pytest.mark.parametrize("n", range(4, 17))
def test_translate_matches_xor_of_each_member(n):
    rng = random.Random(n)
    for _ in range(20):
        members = {rng.randrange(1 << n) for _ in range(rng.randrange(12))}
        x = rng.randrange(1 << n)
        want = sum(1 << (c ^ x) for c in members)
        assert _translate(sum(1 << c for c in members), x, n) == want
    full = (1 << (1 << n)) - 1
    assert _translate(full, (1 << n) - 1, n) == full


def test_default_layout_splits():
    lay7 = default_layout(7)
    assert lay7.row_vars == (7, 5, 3, 1)
    assert lay7.col_vars == (6, 4, 2)
    lay4 = default_layout(4)
    assert lay4.row_vars == (3, 1)
    assert lay4.col_vars == (4, 2)


def test_gray_sequences_differ_by_one():
    rows, cols = default_layout(7)._axes
    assert cols.labels == ("000", "001", "011", "010", "110", "111", "101", "100")
    for order in (rows.labels, cols.labels):
        for a, b in zip(order, order[1:] + order[:1]):
            assert sum(x != y for x, y in zip(a, b)) == 1


def test_zero_square_at_origin():
    lay = default_layout(7)
    assert lay.to_grid(0) == (0, 0)


def test_reference_grid_position():
    lay = default_layout(7)
    x1 = from_parities([2, 4, 6, 7])
    r, c = lay.to_grid(x1)
    assert format(gray(r), "04b") == "1000"
    assert format(gray(c), "03b") == "111"


def test_grid_round_trip_exhaustive():
    lay = default_layout(7)
    seen = set()
    for code in range(128):
        r, c = lay.to_grid(code)
        assert lay.from_grid(r, c) == code
        seen.add((r, c))
    assert len(seen) == 128


def test_grid_adjacency_is_distance_one():
    lay = default_layout(7)
    for r in range(lay.row_count):
        for c in range(lay.col_count):
            code = lay.from_grid(r, c)
            right = lay.from_grid(r, (c + 1) % lay.col_count)
            down = lay.from_grid((r + 1) % lay.row_count, c)
            assert distance(code, right, 7) == 1
            assert distance(code, down, 7) == 1


@pytest.mark.parametrize("n", range(4, 11))
def test_to_grid_matches_bitwise_oracle(n):
    # the custom layout interleaves the variables in no sorted order
    mixed = tuple(range(2, n + 1, 3)) + tuple(range(1, n + 1, 3))
    rest = tuple(k for k in range(n, 0, -1) if k not in mixed)
    for lay in (default_layout(n), GrayLayout(n, mixed, rest)):
        for code in range(1 << n):
            assert lay.to_grid(code) == oracles.grid_position(lay, code)
        for bad in (-1, 1 << n):
            with pytest.raises(ValueError, match="does not fit"):
                lay.to_grid(bad)


@given(st.integers(4, 9), st.data())
def test_layout_round_trip_random_splits(n, data):
    cut = data.draw(st.integers(1, n - 1))
    vars_ = data.draw(st.permutations(range(1, n + 1)))
    lay = GrayLayout(n, tuple(vars_[:cut]), tuple(vars_[cut:]))
    code = data.draw(st.integers(0, (1 << n) - 1))
    assert lay.from_grid(*lay.to_grid(code)) == code


def test_bad_layout_rejected():
    with pytest.raises(ValueError):
        GrayLayout(7, (7, 5, 3), (6, 4, 2))   # missing 1
    with pytest.raises(ValueError):
        default_layout(3)


def test_every_export_is_defined():
    for info in pkgutil.iter_modules(kmap_ecc.__path__):
        module = importlib.import_module(f"kmap_ecc.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"kmap_ecc.{info.name} exports undefined {missing}"


def _reads(node) -> set[str]:
    """Every variable and attribute name `node` reads."""
    return ({sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            | {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)})


def _bound(stmt) -> list[str]:
    """The module-level names a top-level statement binds."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return [alias.asname or alias.name.split(".")[0] for alias in stmt.names]
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_source_has_no_dead_module_names():
    """The check a linter would make: each module-level import is read by its
    module (or exported), and each module-level private name is read outside
    its own definition somewhere in the package.  The package root imports
    nothing at module level: its exports are the names of its lazy table."""
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(kmap_ecc.__file__).parent.glob("*.py"))}
    reads = {module: [_reads(stmt) for stmt in tree.body] for module, tree in trees.items()}
    in_module = {module: Counter(itertools.chain.from_iterable(r)) for module, r in reads.items()}
    in_package = sum(in_module.values(), Counter())
    dead = []
    for module, tree in trees.items():
        name = "kmap_ecc" if module == "__init__" else f"kmap_ecc.{module}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        for stmt, here in zip(tree.body, reads[module]):
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                if getattr(stmt, "module", "") != "__future__":
                    dead += [f"{module}: import {name}" for name in _bound(stmt)
                             if name not in exported and not in_module[module][name]]
                continue
            dead += [f"{module}: {name}" for name in _bound(stmt)
                     if name.startswith("_") and not name.startswith("__")
                     and in_package[name] == (name in here)]
    assert not dead


def test_source_has_no_unread_slots():
    """Each ``__slots__`` entry of a package class is read, as an attribute
    load, somewhere in the package: a slot only written is dead weight."""
    trees = [ast.parse(path.read_text())
             for path in sorted(Path(kmap_ecc.__file__).parent.glob("*.py"))]
    nodes = [node for tree in trees for node in ast.walk(tree)]
    loaded = {node.attr for node in nodes
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{cls.name}.{slot}"
              for cls in nodes if isinstance(cls, ast.ClassDef)
              for stmt in cls.body if isinstance(stmt, ast.Assign)
              and any(getattr(t, "id", None) == "__slots__" for t in stmt.targets)
              for slot in ast.literal_eval(stmt.value) if slot not in loaded]
    assert not unread


#: Parameters kept though their function never reads them, with the reason.
UNREAD_PARAMETERS_KEPT = {
    "coverage.census.threads": "perfbench passes it (ROADMAP item 6)",
    "burst.search_orderings.threads": "perfbench passes it (ROADMAP item 6)",
}


def test_source_has_no_unread_parameters():
    """Each parameter of a package function, a method's receiver (``self``,
    ``cls``) aside, is read, as a name load, in that function's body, nested
    functions included: a parameter nothing reads changes nothing."""
    unread = []
    for path in sorted(Path(kmap_ecc.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = fn.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                      + [p for p in (a.vararg, a.kwarg) if p]]
            read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            unread += [f"{path.stem}.{fn.name}.{p}" for p in params
                       if p not in read and p not in ("self", "cls")]
    assert sorted(unread) == sorted(UNREAD_PARAMETERS_KEPT)



def test_export_table_is_the_package_root():
    """Each name of the root's lazy table resolves to its submodule's object,
    and ``dir``, ``__all__`` and a star import give exactly the table's
    names; a name outside the table and its submodules is an AttributeError."""
    table = kmap_ecc._EXPORTS
    for name, module in table.items():
        assert getattr(kmap_ecc, name) is getattr(importlib.import_module(f"kmap_ecc.{module}"), name)
    assert dir(kmap_ecc) == sorted(table)
    assert kmap_ecc.__all__ == list(table)
    namespace = {}
    exec("from kmap_ecc import *", namespace)
    assert namespace.keys() - {"__builtins__"} == table.keys()
    for module in set(table.values()):
        assert getattr(kmap_ecc, module) is importlib.import_module(f"kmap_ecc.{module}")
    with pytest.raises(AttributeError, match="has no attribute 'check_code'"):
        kmap_ecc.check_code

#: Exports kept though nothing outside the tests reads them, with the reason.
UNREAD_EXPORTS_KEPT = {
    "distance": "the README lists the square algebra",
    "side_squares": "the README lists the square algebra",
    "X3_DOUBLE_WEIGHT_TABLE": "the README's key facts name it",
}


def _inline_python(script: str) -> list[str]:
    """The Python a shell script runs inline: each ``python - <<'PY'``
    heredoc and each single-quoted ``python -c`` argument."""
    heredocs = re.findall(r"python3? - <<'PY'\n(.*?)^[ \t]*PY$", script, re.DOTALL | re.MULTILINE)
    return [textwrap.dedent(h) for h in heredocs] + re.findall(r"python3? -c '([^']*)'", script)


def _export_reads(source: str, module: str | None = None) -> set[str]:
    """The package-root exports that `source` reads at a call site that
    resolves to the export: ``from kmap_ecc[.module] import name``, where
    the module is the root or the defining submodule; ``x.name``, where x
    is bound by an import to either of them; and, when `source` is the
    package module `module`, a bare load that resolves to module scope,
    found by ``symtable``, in the module that defines the export.  A
    parameter or a local of an export's name is no read, nor is an
    attribute of anything but those modules."""
    owner = {name: f"kmap_ecc.{sub}" for name, sub in kmap_ecc._EXPORTS.items()}
    modules = {"kmap_ecc"} | {f"kmap_ecc.{info.name}"
                              for info in pkgutil.iter_modules(kmap_ecc.__path__)}
    tree = ast.parse(source)
    bound, read = {}, set()     # bound: a name bound to a package module -> that module
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and alias.name in modules:
                    bound[alias.asname] = alias.name
                elif alias.name.split(".")[0] == "kmap_ecc":
                    bound["kmap_ecc"] = "kmap_ecc"      # import kmap_ecc.cli binds the root
        elif isinstance(node, ast.ImportFrom):
            origin = node.module
            if node.level:
                base = module.rsplit(".", node.level)[0]
                origin = f"{base}.{node.module}" if node.module else base
            for alias in node.names:
                if f"{origin}.{alias.name}" in modules:
                    bound[alias.asname or alias.name] = f"{origin}.{alias.name}"
                elif origin in ("kmap_ecc", owner.get(alias.name)):
                    read.add(alias.name)

    def resolve(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = resolve(node.value)
            if base and f"{base}.{node.attr}" in modules:
                return f"{base}.{node.attr}"
        return None

    read.update(node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in owner and resolve(node.value) in ("kmap_ecc", owner[node.attr]))
    if module is not None:
        # elsewhere a module-scope name of an export's spelling is an import,
        # counted above, or the module's own
        tables = [symtable.symtable(source, module, "exec")]
        while tables:
            table = tables.pop()
            tables += table.get_children()
            read.update(sym.get_name() for sym in table.get_symbols()
                        if owner.get(sym.get_name()) == module and sym.is_referenced()
                        and (table.get_type() == "module" or sym.is_global()))
    return read


def test_every_export_is_read_outside_the_tests():
    """Each name of the package root's lazy export table is read, at a call
    site that resolves to it (see :func:`_export_reads`), somewhere other
    than ``tests/``: in a package module besides ``__init__``, in
    ``perfbench``, in the inline Python of a CI workflow, or in a fenced
    code block of the README (Python, or the inline Python of a shell one)."""
    root = Path(__file__).resolve().parents[1]
    package = Path(kmap_ecc.__file__).parent
    read = set()
    for path in sorted(package.glob("*.py")):
        if path.stem != "__init__":
            read |= _export_reads(path.read_text(), f"kmap_ecc.{path.stem}")
    snippets = [path.read_text() for path in sorted((root / "perfbench").glob("*.py"))]
    for path in sorted((root / ".github" / "workflows").glob("*.yml")):
        snippets += _inline_python(path.read_text())
    for lang, body in re.findall(r"^```(\w*)\n(.*?)^```", (root / "README.md").read_text(),
                                 re.DOTALL | re.MULTILINE):
        snippets += [body] if lang in ("python", "py") else _inline_python(body)
    for text in snippets:
        read |= _export_reads(text)
    unread = set(kmap_ecc._EXPORTS) - read
    assert sorted(unread) == sorted(UNREAD_EXPORTS_KEPT)
