"""Command-line entry point wiring all modules together.

Exit codes: 0 success, 1 usage error (any value a command or the library
refuses), 2 domain failure (invalid placement, uncorrectable word, failed
check, differing grids, unsafe ordering), 3 internal error.  Data goes to
stdout, diagnostics and timings to stderr.

A process loads only what its command runs: each command imports the
modules past `kcode` and `placement` that it needs, and `main` builds only
the parsers on the invoked command's path.
"""

from __future__ import annotations

import argparse
import json
import sys

from .kcode import MAX_WIDTH, MIN_WIDTH, GrayLayout, _codes, default_layout, n_class
from .placement import (MAX_GUIDED_D, Placement, PlacementError, SClass,
                        SearchStats, double_weight_count, guided_search,
                        naive_search, occupied_map, theorem1_overlap,
                        theorem2_overlap, is_valid)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_INTERNAL = 3

class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _int_in(low: int, high: int | None = None):
    """argparse type for an integer in [low, high], unbounded above without
    `high`: map widths, data-bit counts, limits and sample counts."""
    def integer(text: str) -> int:
        k = int(text)
        if k < low or (high is not None and k > high):
            span = f"in [{low}, {high}]" if high is not None else f"at least {low}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {k}")
        return k
    return integer


_WIDTH = _int_in(MIN_WIDTH, MAX_WIDTH)


def _load_placement(path: str) -> Placement:
    try:
        with open(path) as f:
            return Placement.from_json(json.load(f))
    except OSError as e:
        raise UsageError(f"cannot read placement file {path}: {e}") from e
    except (ValueError, KeyError, TypeError) as e:
        raise UsageError(f"bad placement file {path}: {e}") from e


def _emit_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _emit_rows(rows, header, fmt) -> None:
    if fmt == "json":
        for row in rows:
            _emit_json(dict(zip(header, row)))
    elif fmt == "csv":
        import csv
        import io
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        for row in rows:
            print("  ".join(str(v) for v in row))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_search(args) -> int:
    stats = SearchStats()
    if args.naive:
        if args.sclass:
            raise UsageError("--naive and --class are mutually exclusive")
        stream = naive_search(args.n, args.d, stats=stats)
    else:
        cls = SClass.parse(args.sclass) if args.sclass else None
        stream = guided_search(args.n, args.d, sclass=cls, stats=stats)
    emitted = 0
    for p in stream:
        record = {"n": p.n, "data": list(p.data)}
        if p.d >= 2:
            cls = SClass.from_placement(p)
            record["class"] = cls.label
            record["weights"] = list(cls.weights)
            record["distances"] = list(cls.distances)
        record["double_weight"] = double_weight_count(
            p.data[-1], p.data[:-1], p.n)
        _emit_json(record)
        emitted += 1
        if args.limit and emitted >= args.limit:
            break
    print(f"candidates evaluated: {stats.candidates_evaluated}", file=sys.stderr)
    return EXIT_OK


def _cmd_validate(args) -> int:
    p = _load_placement(args.placement)
    result = occupied_map(p)
    report = {
        "n": p.n,
        "data": list(p.data),
        "valid": result.valid,
        "collisions": ["=".join(q.label for q in c.patterns) for c in result.collisions],
    }
    if args.format == "text":
        print("valid" if result.valid else "invalid: " + "; ".join(report["collisions"]))
    else:
        _emit_json(report)
    return EXIT_OK if result.valid else EXIT_DOMAIN


def _cmd_codec_build(args) -> int:
    from .codec import build_tables
    p = _load_placement(args.placement)
    tables = build_tables(p, include_triples=args.triples)
    _emit_rows(tables.rows(), ["syndrome", "pattern"], args.format)
    return EXIT_OK


def _parse_bits(text: str, want: int) -> list[int]:
    text = text.strip()
    if len(text) != want or set(text) - {"0", "1"}:
        raise UsageError(f"expected {want} data bits, got {text!r}")
    return [int(c) for c in text]


def _cmd_codec_encode(args) -> int:
    from .codec import encode
    p = _load_placement(args.placement)
    word = encode(_parse_bits(args.data, p.d), p, odd_parity=args.odd)
    _emit_json({"binary": word.binary(), "hex": word.hex()})
    return EXIT_OK


def _cmd_codec_decode(args) -> int:
    from .codec import Codeword, build_tables, decode
    p = _load_placement(args.placement)
    tables = build_tables(p, include_triples=args.triples)
    word = Codeword.from_string(args.word, p.d, p.n)
    fixed, report = decode(word, tables, odd_parity=args.odd)
    _emit_json({
        "status": report.status,
        "syndrome": report.syndrome,
        "pattern": report.pattern.label if report.pattern else None,
        "binary": fixed.binary(),
        "data": "".join(map(str, fixed.data)),
    })
    return EXIT_OK if report.status != "uncorrectable" else EXIT_DOMAIN


def _cmd_coverage_report(args) -> int:
    from .coverage import three_bit_coverage
    report = three_bit_coverage(_load_placement(args.placement), args.mode)
    _emit_json(report.to_json())
    return EXIT_OK


def _cmd_coverage_census(args) -> int:
    from .coverage import CLASS_KEYS, census
    rows = census(n=args.n, mode=args.mode, full=args.full, threads=args.threads)
    header = ["family", "class", "realizable", "total", *CLASS_KEYS]
    _emit_rows([list(map(r.to_json().__getitem__, header)) for r in rows], header, args.format)
    return EXIT_OK


def _cmd_coverage_theorem4(args) -> int:
    from .coverage import theorem4_check
    report = theorem4_check(args.n)
    _emit_json({"n": report.n, "impossible": report.impossible,
                "singles_checked": report.singles_checked,
                "triples_checked": report.triples_checked})
    return EXIT_OK if report.impossible else EXIT_DOMAIN


def _cmd_coverage_minparity(args) -> int:
    from .coverage import min_parity_search
    report = min_parity_search(args.n, pruned=not args.no_pruning)
    _emit_json(report.to_json())
    return EXIT_OK


def _cmd_burst_search(args) -> int:
    from .burst import search_orderings
    from .coverage import three_bit_coverage
    report = three_bit_coverage(_load_placement(args.placement))
    _emit_json(search_orderings(report, threads=args.threads).to_json())
    return EXIT_OK


def _cmd_burst_check(args) -> int:
    from .burst import Ordering, burst_triples, failing_window
    from .coverage import three_bit_coverage
    report = three_bit_coverage(_load_placement(args.placement))
    ordering = Ordering.parse(args.ordering)
    bad = failing_window(ordering, report)
    out = {"ordering": ordering.label, "burst_safe": bad is None}
    if bad is not None:
        window = burst_triples(ordering)[bad]
        out["failing_window"] = bad
        out["failing_pattern"] = window.label
    _emit_json(out)
    return EXIT_OK if bad is None else EXIT_DOMAIN


def _parse_layout(text: str | None, n: int) -> GrayLayout:
    if not text:
        return default_layout(n)
    try:
        return GrayLayout.from_json(json.loads(text))
    except (ValueError, KeyError, TypeError) as e:
        raise UsageError(f"bad layout: {e}") from e


def _cmd_render(args) -> int:
    from .render import grid_to_csv, grid_to_json, grid_to_text, render_map
    p = _load_placement(args.placement)
    forbidden = None
    if args.forbidden_for:
        try:
            i, j = (int(t) for t in args.forbidden_for.split(","))
        except ValueError as e:
            raise UsageError("--forbidden-for wants two indices like 1,2") from e
        forbidden = (i, j)
    layout = _parse_layout(args.layout, p.n)
    grid = render_map(p, include_triples=args.triples,
                      forbidden_for=forbidden, layout=layout)
    if args.format == "text":
        sys.stdout.write(grid_to_text(grid))
    elif args.format == "csv":
        sys.stdout.write(grid_to_csv(grid))
    else:
        _emit_json(grid_to_json(grid))
    return EXIT_OK


def _cmd_diff(args) -> int:
    from .render import diff_grids, grid_from_csv

    def load(path):
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            raise UsageError(f"cannot read grid {path}: {e}") from e
        layout = _parse_layout(args.layout, args.n)
        try:
            return grid_from_csv(text, layout)
        except ValueError as e:
            raise UsageError(f"bad grid {path}: {e}") from e
    diffs = diff_grids(load(args.a), load(args.b))
    for d in diffs:
        print(f"({d.row},{d.col}): {d.a!r} != {d.b!r}")
    print(f"{len(diffs)} differences")
    return EXIT_OK if not diffs else EXIT_DOMAIN


def _theorem_pairs(n: int, samples: int, seed: int):
    """The pairs theorems 1, 2 and 3 are checked on: at n <= 7 every ordered
    pair that meets each theorem's hypothesis, enumerated directly, else
    those among a seeded sample of pairs."""
    if n <= 7:
        codes = range(1 << n)
        heavy = _codes(4, n, n)
        # a ^ x has a's weight +- 1 exactly when x shares 1 or 2 bits with a
        return ([(a, a ^ x) for a in codes for x in n_class(4, n)],
                [(a, a ^ x) for a in codes for x in n_class(3, n)
                 if (a & x).bit_count() in (1, 2)],
                [(a, b) for a in heavy for b in heavy if a != b])
    import random   # on this branch only: every other command skips its import
    rng = random.Random(seed)
    size = 1 << n
    pairs = [(rng.randrange(size), rng.randrange(size)) for _ in range(samples)]
    return ([(a, b) for a, b in pairs if (a ^ b).bit_count() == 4],
            [(a, b) for a, b in pairs
             if (a ^ b).bit_count() == 3 and abs(a.bit_count() - b.bit_count()) == 1],
            [(a, b) for a, b in pairs if a != b and a.bit_count() >= 4 and b.bit_count() >= 4])


def _cmd_verify_theorems(args) -> int:
    n = args.n
    pairs1, pairs2, pairs3 = _theorem_pairs(n, args.samples, args.seed)
    checks = [
        ("theorem1: distance-4 pairs share 6 order-2 side squares",
         all(theorem1_overlap(a, b, n) == 6 for a, b in pairs1)),
        ("theorem2: adjacent-weight distance-3 pairs share 6 side squares",
         all(theorem2_overlap(a, b, n) == 6 for a, b in pairs2)),
        ("theorem3: X_iX_j sits at distance >= 2 from both",
         all((a ^ b ^ a).bit_count() >= 2 and (a ^ b ^ b).bit_count() >= 2
             for a, b in pairs3)),
    ]
    if n == 7:
        from .coverage import theorem4_check
        t4 = theorem4_check(n)
        checks.append((f"theorem4: no map holds all P_lP_mP_n triples "
                       f"(checked {t4.triples_checked})", t4.impossible))
    else:
        print(f"SKIP  theorem4 (exhaustive check is defined for n=7, got n={n})")

    failed = False
    for name, ok in checks:
        print(("PASS  " if ok else "FAIL  ") + name)
        failed = failed or not ok
    return EXIT_DOMAIN if failed else EXIT_OK


def _cmd_bench(args) -> int:
    from time import perf_counter
    # both searches check their arguments at the call, before either is timed
    streams = []
    for name, search in (("guided", guided_search), ("naive", naive_search)):
        stats = SearchStats()
        streams.append((name, search(args.n, args.d, stats=stats), stats))
    results = []
    for name, stream, stats in streams:
        found = []
        t0 = perf_counter()
        for p in stream:
            found.append(p)
            if len(found) >= args.k:
                break
        elapsed = perf_counter() - t0
        print(f"{name}: {elapsed:.3f}s", file=sys.stderr)
        results.append({
            "search": name,
            "found": len(found),
            "candidates_evaluated": stats.candidates_evaluated,
            "first": list(found[0].data) if found else None,
            "all_valid": all(is_valid(p) for p in found),
        })
    for r in results:
        _emit_json(r)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _arg(*flags, **options):
    """One `add_argument` call of a command, kept until its parser is built."""
    return flags, options


def _format(default, choices=("json", "csv", "text")):
    return _arg("--format", choices=choices, default=default)


_N = _arg("--n", type=_WIDTH, default=7)
_PLACEMENT = _arg("--placement", required=True)
_TRIPLES = _arg("--triples", action="store_true")
_MODE = _arg("--mode", choices=("strict", "assignable"), default="strict")

#: The command tree.  Each name maps to its help line (None: the parent
#: lists no help for it) and either the tree of its subcommands or the
#: function that runs it and its arguments.
_COMMANDS = {
    "search": ("emit valid placements as JSON lines", _cmd_search, (
        _N,
        _arg("--d", type=_int_in(1), required=True,
             help=f"data bits (guided: at most {MAX_GUIDED_D})"),
        _arg("--limit", type=_int_in(0), default=0, help="stop after this many (0 = all)"),
        _arg("--class", dest="sclass", default=None, help="pin the S-class, e.g. S_445^433"),
        _arg("--naive", action="store_true", help="use the unguided baseline"))),
    "validate": ("check a placement file", _cmd_validate, (
        _PLACEMENT, _format("json", ("json", "text")))),
    "codec": ("build tables, encode, decode", {
        "build": (None, _cmd_codec_build, (_PLACEMENT, _TRIPLES, _format("csv"))),
        "encode": (None, _cmd_codec_encode, (
            _PLACEMENT,
            _arg("--data", required=True, help="data bits, e.g. 101"),
            _arg("--odd", action="store_true", help="odd parity"))),
        "decode": (None, _cmd_codec_decode, (
            _PLACEMENT,
            _arg("--word", required=True, help="binary or hex codeword"),
            _TRIPLES,
            _arg("--odd", action="store_true"))),
    }),
    "coverage": ("three-bit error analysis", {
        "report": (None, _cmd_coverage_report, (_PLACEMENT, _MODE)),
        "census": (None, _cmd_coverage_census, (
            _N, _MODE,
            _arg("--full", action="store_true",
                 help="census every reachable class, not just the reference families"),
            _format("csv"))),
        "theorem4": (None, _cmd_coverage_theorem4, (_N,)),
        "minparity": (None, _cmd_coverage_minparity, (
            _arg("--n", type=_WIDTH, required=True),
            _arg("--no-pruning", action="store_true",
                 help="drop the N_5 weight restriction and walk every code "
                      "(n=10 in well under a second)"))),
    }),
    "burst": ("burst-safe transmission orderings", {
        "search": (None, _cmd_burst_search, (_PLACEMENT,)),
        "check": (None, _cmd_burst_check, (
            _PLACEMENT,
            _arg("--ordering", required=True, help='e.g. "X1,P7,P3,P6,X3,P2,P4,P1,P5,X2"'))),
    }),
    "render": ("draw the map grid", _cmd_render, (
        _PLACEMENT, _TRIPLES,
        _arg("--forbidden-for", default=None, help="mark f squares for pair i,j"),
        _arg("--layout", default=None, help="layout JSON override"),
        _format("text"))),
    "diff": ("compare two grid CSV files", _cmd_diff, (
        _arg("--a", required=True),
        _arg("--b", required=True),
        _N,
        _arg("--layout", default=None))),
    "verify-theorems": ("brute-force the four theorems", _cmd_verify_theorems, (
        _N,
        _arg("--samples", type=_int_in(1), default=20000,
             help="sampled pairs for n > 7 (n=7 is exhaustive)"),
        _arg("--seed", type=int, default=0, help="sampling seed"))),
    "bench": ("guided vs naive candidate counters", _cmd_bench, (
        _N,
        _arg("--d", type=_int_in(1, MAX_GUIDED_D), required=True),
        _arg("--k", type=_int_in(1), default=1, help="placements to find"))),
}


def _add_commands(parser, dest, tree, path) -> None:
    """Add `tree`'s commands to `parser` under `dest`: all of them, or with
    a `path` only the one it starts with, and below it the rest of `path`."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, (help_line, *spec) in tree.items():
        if path and name != path[0]:
            continue
        # help=None would still list the command in its group's help
        p = sub.add_parser(name) if help_line is None else sub.add_parser(name, help=help_line)
        if isinstance(spec[0], dict):
            _add_commands(p, f"{name}_command", spec[0], path[1:])
            continue
        fn, arguments = spec
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(fn=fn)


def build_parser(path=()) -> _Parser:
    """The parser of every command, or with a `path` of command names
    (outermost first) only of the commands on it: all of a group's
    subcommands when the path ends at the group."""
    top = _Parser(prog="kmap-ecc",
                  description="Karnaugh-map error-correcting code toolkit")
    top.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; changes nothing, every "
                          "command runs in one process")
    _add_commands(top, "command", _COMMANDS, tuple(path))
    return top


def _command_path(argv) -> list[str]:
    """The command names in `argv`, outermost first: at each level the first
    later token that names a command there.  Empty when a token could ask
    for help, which lists a level's every command."""
    path, tree = [], _COMMANDS
    for token in argv:
        if token.startswith(("-h", "--h")):
            return []
        if tree is not None and token in tree:
            path.append(token)
            spec = tree[token][1]
            tree = spec if isinstance(spec, dict) else None
    return path


def _parse(argv):
    """Parse with the parsers on `argv`'s command path; on a usage error parse
    again with every parser, which gives the whole tree's message (such as
    the full list of choices)."""
    try:
        return build_parser(_command_path(argv)).parse_args(argv)
    except UsageError:
        return build_parser().parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        return args.fn(args)
    except PlacementError as e:
        print(f"invalid placement: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as e:     # a UsageError, or a value the library refuses
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK
    except Exception as e:  # internal assertion
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
