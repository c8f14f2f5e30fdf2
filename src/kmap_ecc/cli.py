"""Command-line entry point wiring all modules together.

Exit codes: 0 success, 1 usage error (any value a command or the library
refuses), 2 domain failure (invalid placement, uncorrectable word, failed
check, differing grids, unsafe ordering), 3 internal error.  Data goes to
stdout, diagnostics and timings to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time

from . import burst as burst_mod
from . import coverage as coverage_mod
from . import render as render_mod
from .codec import Codeword, build_tables, decode, encode
from .kcode import MAX_WIDTH, MIN_WIDTH, GrayLayout, default_layout, weight
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
    p = _load_placement(args.placement)
    word = encode(_parse_bits(args.data, p.d), p, odd_parity=args.odd)
    _emit_json({"binary": word.binary(), "hex": word.hex()})
    return EXIT_OK


def _cmd_codec_decode(args) -> int:
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
    report = coverage_mod.three_bit_coverage(_load_placement(args.placement), args.mode)
    _emit_json(report.to_json())
    return EXIT_OK


def _cmd_coverage_census(args) -> int:
    rows = coverage_mod.census(n=args.n, mode=args.mode, full=args.full,
                               threads=args.threads)
    header = ["family", "class", "realizable", "total", *coverage_mod.CLASS_KEYS]
    _emit_rows([list(map(r.to_json().__getitem__, header)) for r in rows], header, args.format)
    return EXIT_OK


def _cmd_coverage_theorem4(args) -> int:
    report = coverage_mod.theorem4_check(args.n)
    _emit_json({"n": report.n, "impossible": report.impossible,
                "singles_checked": report.singles_checked,
                "triples_checked": report.triples_checked})
    return EXIT_OK if report.impossible else EXIT_DOMAIN


def _cmd_coverage_minparity(args) -> int:
    report = coverage_mod.min_parity_search(args.n, pruned=not args.no_pruning)
    _emit_json(report.to_json())
    return EXIT_OK


def _cmd_burst_search(args) -> int:
    report = coverage_mod.three_bit_coverage(_load_placement(args.placement))
    census = burst_mod.search_orderings(report, threads=args.threads)
    _emit_json(census.to_json())
    return EXIT_OK


def _cmd_burst_check(args) -> int:
    report = coverage_mod.three_bit_coverage(_load_placement(args.placement))
    ordering = burst_mod.Ordering.parse(args.ordering)
    bad = burst_mod.failing_window(ordering, report)
    out = {"ordering": ordering.label, "burst_safe": bad is None}
    if bad is not None:
        window = burst_mod.burst_triples(ordering)[bad]
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
    p = _load_placement(args.placement)
    forbidden = None
    if args.forbidden_for:
        try:
            i, j = (int(t) for t in args.forbidden_for.split(","))
        except ValueError as e:
            raise UsageError("--forbidden-for wants two indices like 1,2") from e
        forbidden = (i, j)
    layout = _parse_layout(args.layout, p.n)
    grid = render_mod.render_map(p, include_triples=args.triples,
                                 forbidden_for=forbidden, layout=layout)
    if args.format == "text":
        sys.stdout.write(render_mod.grid_to_text(grid))
    elif args.format == "csv":
        sys.stdout.write(render_mod.grid_to_csv(grid))
    else:
        _emit_json(render_mod.grid_to_json(grid))
    return EXIT_OK


def _cmd_diff(args) -> int:
    def load(path):
        try:
            with open(path) as f:
                text = f.read()
        except OSError as e:
            raise UsageError(f"cannot read grid {path}: {e}") from e
        layout = _parse_layout(args.layout, args.n)
        try:
            return render_mod.grid_from_csv(text, layout)
        except ValueError as e:
            raise UsageError(f"bad grid {path}: {e}") from e
    diffs = render_mod.diff_grids(load(args.a), load(args.b))
    for d in diffs:
        print(f"({d.row},{d.col}): {d.a!r} != {d.b!r}")
    print(f"{len(diffs)} differences")
    return EXIT_OK if not diffs else EXIT_DOMAIN


def _theorem_pairs(n: int, samples: int, seed: int):
    """All pairs exhaustively at n=7, else a seeded sample."""
    size = 1 << n
    if n <= 7:
        for a in range(size):
            for b in range(size):
                yield a, b
        return
    import random   # on this branch only: every other command skips its import
    rng = random.Random(seed)
    for _ in range(samples):
        yield rng.randrange(size), rng.randrange(size)


def _cmd_verify_theorems(args) -> int:
    n = args.n
    pairs = list(_theorem_pairs(n, args.samples, args.seed))
    checks = []
    checks.append(("theorem1: distance-4 pairs share 6 order-2 side squares",
                   all(theorem1_overlap(a, b, n) == 6
                       for a, b in pairs if (a ^ b).bit_count() == 4)))
    checks.append(("theorem2: adjacent-weight distance-3 pairs share 6 side squares",
                   all(theorem2_overlap(a, b, n) == 6
                       for a, b in pairs
                       if abs(weight(a) - weight(b)) == 1 and (a ^ b).bit_count() == 3)))
    checks.append(("theorem3: X_iX_j sits at distance >= 2 from both",
                   all((a ^ b ^ a).bit_count() >= 2 and (a ^ b ^ b).bit_count() >= 2
                       for a, b in pairs if a != b and weight(a) >= 4 and weight(b) >= 4)))
    if n == 7:
        t4 = coverage_mod.theorem4_check(n)
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
    # both searches check their arguments at the call, before either is timed
    streams = []
    for name, search in (("guided", guided_search), ("naive", naive_search)):
        stats = SearchStats()
        streams.append((name, search(args.n, args.d, stats=stats), stats))
    results = []
    for name, stream, stats in streams:
        found = []
        t0 = time.perf_counter()
        for p in stream:
            found.append(p)
            if len(found) >= args.k:
                break
        elapsed = time.perf_counter() - t0
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

def build_parser() -> _Parser:
    top = _Parser(prog="kmap-ecc",
                  description="Karnaugh-map error-correcting code toolkit")
    top.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; changes nothing, every "
                          "command runs in one process")
    sub = top.add_subparsers(dest="command", required=True)

    def fmt(p, default="json", choices=("json", "csv", "text")):
        p.add_argument("--format", choices=choices, default=default)

    p = sub.add_parser("search", help="emit valid placements as JSON lines")
    p.add_argument("--n", type=_WIDTH, default=7)
    p.add_argument("--d", type=_int_in(1), required=True,
                   help=f"data bits (guided: at most {MAX_GUIDED_D})")
    p.add_argument("--limit", type=_int_in(0), default=0,
                   help="stop after this many (0 = all)")
    p.add_argument("--class", dest="sclass", default=None,
                   help="pin the S-class, e.g. S_445^433")
    p.add_argument("--naive", action="store_true", help="use the unguided baseline")
    p.set_defaults(fn=_cmd_search)

    p = sub.add_parser("validate", help="check a placement file")
    p.add_argument("--placement", required=True)
    fmt(p, choices=("json", "text"))
    p.set_defaults(fn=_cmd_validate)

    codec = sub.add_parser("codec", help="build tables, encode, decode")
    csub = codec.add_subparsers(dest="codec_command", required=True)
    p = csub.add_parser("build")
    p.add_argument("--placement", required=True)
    p.add_argument("--triples", action="store_true")
    fmt(p, default="csv")
    p.set_defaults(fn=_cmd_codec_build)
    p = csub.add_parser("encode")
    p.add_argument("--placement", required=True)
    p.add_argument("--data", required=True, help="data bits, e.g. 101")
    p.add_argument("--odd", action="store_true", help="odd parity")
    p.set_defaults(fn=_cmd_codec_encode)
    p = csub.add_parser("decode")
    p.add_argument("--placement", required=True)
    p.add_argument("--word", required=True, help="binary or hex codeword")
    p.add_argument("--triples", action="store_true")
    p.add_argument("--odd", action="store_true")
    p.set_defaults(fn=_cmd_codec_decode)

    cov = sub.add_parser("coverage", help="three-bit error analysis")
    vsub = cov.add_subparsers(dest="coverage_command", required=True)
    p = vsub.add_parser("report")
    p.add_argument("--placement", required=True)
    p.add_argument("--mode", choices=("strict", "assignable"), default="strict")
    p.set_defaults(fn=_cmd_coverage_report)
    p = vsub.add_parser("census")
    p.add_argument("--n", type=_WIDTH, default=7)
    p.add_argument("--mode", choices=("strict", "assignable"), default="strict")
    p.add_argument("--full", action="store_true",
                   help="census every reachable class, not just the reference families")
    fmt(p, default="csv")
    p.set_defaults(fn=_cmd_coverage_census)
    p = vsub.add_parser("theorem4")
    p.add_argument("--n", type=_WIDTH, default=7)
    p.set_defaults(fn=_cmd_coverage_theorem4)
    p = vsub.add_parser("minparity")
    p.add_argument("--n", type=_WIDTH, required=True)
    p.add_argument("--no-pruning", action="store_true",
                   help="drop the N_5 weight restriction and walk every code "
                        "(n=10 in well under a second)")
    p.set_defaults(fn=_cmd_coverage_minparity)

    b = sub.add_parser("burst", help="burst-safe transmission orderings")
    bsub = b.add_subparsers(dest="burst_command", required=True)
    p = bsub.add_parser("search")
    p.add_argument("--placement", required=True)
    p.set_defaults(fn=_cmd_burst_search)
    p = bsub.add_parser("check")
    p.add_argument("--placement", required=True)
    p.add_argument("--ordering", required=True, help='e.g. "X1,P7,P3,P6,X3,P2,P4,P1,P5,X2"')
    p.set_defaults(fn=_cmd_burst_check)

    p = sub.add_parser("render", help="draw the map grid")
    p.add_argument("--placement", required=True)
    p.add_argument("--triples", action="store_true")
    p.add_argument("--forbidden-for", default=None, help="mark f squares for pair i,j")
    p.add_argument("--layout", default=None, help="layout JSON override")
    fmt(p, default="text")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("diff", help="compare two grid CSV files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--n", type=_WIDTH, default=7)
    p.add_argument("--layout", default=None)
    p.set_defaults(fn=_cmd_diff)

    p = sub.add_parser("verify-theorems", help="brute-force the four theorems")
    p.add_argument("--n", type=_WIDTH, default=7)
    p.add_argument("--samples", type=_int_in(1), default=20000,
                   help="sampled pairs for n > 7 (n=7 is exhaustive)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")
    p.set_defaults(fn=_cmd_verify_theorems)

    p = sub.add_parser("bench", help="guided vs naive candidate counters")
    p.add_argument("--n", type=_WIDTH, default=7)
    p.add_argument("--d", type=_int_in(1, MAX_GUIDED_D), required=True)
    p.add_argument("--k", type=_int_in(1), default=1, help="placements to find")
    p.set_defaults(fn=_cmd_bench)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
