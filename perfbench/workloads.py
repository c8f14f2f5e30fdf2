"""The four workloads.  Each class sets itself up in __init__ (inputs from the
seed, lazy caches warmed), runs one pass over its task list in run(), which
is what wall_s times, and checks that pass's outputs in check(), which is
not timed.  PASS_S is the time of one pass and its checks on the reference
host (2-core Intel Xeon, Python 3.11), from which a run's pass count is
sized.  ONE_CPU pins a workload that starts no processes to one CPU, the
one its host probes measure.  Only public functions of kmap_ecc are
called."""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

from kmap_ecc import burst, codec, coverage, parallel, placement, render

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURE_DIR = ROOT / "tests" / "fixtures"
NPROC = os.cpu_count() or 1


def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def error_patterns(d: int, n: int, max_size: int) -> list:
    """The clean pattern and every pattern of up to max_size bits, by size."""
    members = [("X", i) for i in range(1, d + 1)] + [("P", k) for k in range(1, n + 1)]
    return [placement.ErrorPattern.of(data=[i for kind, i in combo if kind == "X"],
                                      parities=[i for kind, i in combo if kind == "P"])
            for size in range(max_size + 1) for combo in combinations(members, size)]


def pattern_mask(pat, d: int) -> int:
    m = 0
    for i in pat.data:
        m |= 1 << (i - 1)
    for k in pat.parities:
        m |= 1 << (d + k - 1)
    return m


def data_tuple(value: int, d: int) -> tuple:
    return tuple(value >> i & 1 for i in range(d))


def decode_batch(ps, items, commands: bool) -> list:
    """Encode, inject and decode (tables, data bits, pattern) items, each
    stage as one span; every decode call is timed, and with `commands` each
    decode is also one of the workload's commands.  Returns (received, fixed
    word, report) per item."""
    tr = ps.tr
    t0 = perf_counter()
    words = [codec.encode(bits, tables.placement) for tables, bits, _ in items]
    t1 = perf_counter()
    received = [codec.inject(w, pat) for w, (_, _, pat) in zip(words, items)]
    t2 = perf_counter()
    outs = []
    lat = []
    for r, item in zip(received, items):
        a = perf_counter()
        outs.append(codec.decode(r, item[0]))
        lat.append(perf_counter() - a)
    t3 = perf_counter()
    tr.leaf("codec.encode", t0, t1)
    tr.leaf("codec.inject", t1, t2)
    tr.leaf("codec.decode", t2, t3)
    ps.decode_lat += lat
    if commands:
        ps.latencies += lat
    return [(r, fixed, rep) for r, (fixed, rep) in zip(received, outs)]


def check_decoded(chk, tr, key, items, results, ref_codes) -> None:
    """Every decoded word against the brute-force decoder; ref_codes maps
    id(tables) to the oracle.Code of the same placement and table rule."""
    corrected = uncorrectable = 0
    for (tables, bits, pat), (received, fixed, rep) in zip(items, results):
        code = ref_codes[id(tables)]
        clean = code.encode(oracle.bits_to_int(bits))
        r = oracle.bits_to_int(received.bits)
        want_status, want_word = code.decode(r)
        ok = (r == clean ^ pattern_mask(pat, code.d)
              and rep.status == want_status
              and oracle.bits_to_int(fixed.bits) == want_word)
        if ok and code.table.get(code.syndrome(r)) == pattern_mask(pat, code.d):
            ok = oracle.bits_to_int(fixed.bits) == clean
        if ok and pat.size == 0:
            ok = rep.status == "clean"
        chk.ok(key, ok, "" if ok else
               f"pattern {pat.label} status {rep.status}, oracle {want_status}")
        corrected += rep.status == "corrected"
        uncorrectable += rep.status == "uncorrectable"
    tr.count("codec.decode.calls", len(items))
    tr.count("codec.decode.corrected", corrected)
    tr.count("codec.decode.uncorrectable", uncorrectable)


# ---------------------------------------------------------------------------

class Sweep:
    """Exhaustive searches: the validity oracle does almost all of the work."""

    PASS_S = 6.0
    ONE_CPU = True
    PROBES = 6000

    def __init__(self, seed: int, chk):
        self.chk = chk
        placement.triple_classes(7)
        rng = random.Random(seed)
        pools = {n: [x for x in range(1 << n) if bin(x).count("1") >= 4]
                 for n in (7, 8, 10)}
        self.probes = []
        for _ in range(self.PROBES):
            n = rng.choice((7, 8, 10))
            d = rng.choice((2, 3, 4))
            self.probes.append(placement.Placement(n, rng.sample(pools[n], d)))
        self.patterns = {d: error_patterns(d, 7, 2) for d in (3, 4)}
        self.sample_rng_seed = seed
        self.probe_truth = None

    def run(self, ps) -> dict:
        tr = ps.tr
        out = {}
        stats = placement.SearchStats()
        with ps.task("guided_d3_all"), tr.span("placement.guided_search.d3_all"):
            out["d3_all"] = [p.data for p in placement.guided_search(7, 3, stats=stats)]
        out["d3_stats"] = stats
        for name, search in (("guided", placement.guided_search),
                             ("naive", placement.naive_search)):
            stats = placement.SearchStats()
            with ps.task(f"{name}_d4_first"), tr.span(f"placement.{name}_search.d4_first"):
                out[f"{name}_d4"] = next(search(7, 4, stats=stats))
            out[f"{name}_d4_stats"] = stats
        # The searches' results used as codes: every <=2-bit error of every
        # data word through the d=4 hits and 16 seeded d=3 hits.
        rng = random.Random(self.sample_rng_seed)
        found = [out["guided_d4"], out["naive_d4"]] + [
            placement.Placement(7, data) for data in rng.sample(out["d3_all"], 16)]
        with ps.task("decode_found"):
            items = []
            for p in found:
                with tr.span("codec.build_tables"):
                    tables = codec.build_tables(p)
                for value in range(1 << p.d):
                    bits = data_tuple(value, p.d)
                    items.extend((tables, bits, pat) for pat in self.patterns[p.d])
        searches = [(f"{'pruned' if pruned else 'unpruned'}_n{n}", "coverage.min_parity_search",
                     lambda n=n, pruned=pruned: coverage.min_parity_search(n, pruned))
                    for n in (8, 9) for pruned in (True, False)]
        searches.append(("theorem4", "coverage.theorem4_check",
                         lambda: coverage.theorem4_check(7)))
        # The validity probes and the decodes are short, so they run in
        # slices between the long searches: their rates then sample the
        # whole pass, not one moment of a host whose speed swings.
        slices = len(searches) + 1
        valid, decoded = [], []
        for k in range(slices):
            self._probe_slice(ps, valid, k, slices)
            lo, hi = len(items) * k // slices, len(items) * (k + 1) // slices
            with ps.task("decode_found"):
                decoded += decode_batch(ps, items[lo:hi], commands=False)
            if k < len(searches):
                tag, span, search = searches[k]
                span = span if tag == "theorem4" else f"{span}.{tag}"
                with ps.task(tag), tr.span(span):
                    out[tag] = search()
        out["valid"] = valid
        out["decode"] = (items, decoded)
        return out

    def _probe_slice(self, ps, valid, k, slices) -> None:
        """Slice k of the validity probes.  Each probe is one command: its
        latency is what cmd_p50_s and cmd_p90_s report for this workload."""
        tr = ps.tr
        lat = ps.latencies
        probes = self.probes[len(self.probes) * k // slices:
                             len(self.probes) * (k + 1) // slices]
        with ps.task("is_valid_probes"):
            for p in probes:
                t0 = perf_counter()
                v = placement.is_valid(p)
                t1 = perf_counter()
                tr.leaf("placement.is_valid", t0, t1)
                lat.append(t1 - t0)
                valid.append(v)

    def check(self, out: dict, tr) -> None:
        chk = self.chk
        for tag in ("pruned_n8", "unpruned_n8", "pruned_n9", "unpruned_n9"):
            rep = out[tag]
            chk.pin(f"sweep.min_parity.{tag}", rep.to_json())
            tr.count(f"coverage.min_parity_search.{tag}.triples",
                     rep.triples_meeting_conditions)
        t4 = out["theorem4"]
        chk.pin("sweep.theorem4", [t4.impossible, t4.singles_checked,
                                   t4.triples_checked, len(t4.survivors)])
        tr.count("coverage.theorem4_check.triples_checked", t4.triples_checked)
        d3 = out["d3_all"]
        stats = out["d3_stats"]
        chk.pin("sweep.guided_d3_all", [len(d3), stats.candidates_evaluated,
                                        stats.placements_emitted, digest(d3)])
        tr.count("placement.guided_search.d3_all.candidates", stats.candidates_evaluated)
        rng = random.Random(self.sample_rng_seed + 1)
        for data in rng.sample(d3, 64):
            chk.ok("sweep.guided_d3_all.oracle", oracle.is_valid(7, data), str(data))
        for name in ("guided", "naive"):
            p, stats = out[f"{name}_d4"], out[f"{name}_d4_stats"]
            chk.pin(f"sweep.{name}_d4_first", [list(p.data), stats.candidates_evaluated])
            chk.ok(f"sweep.{name}_d4_first.oracle", oracle.is_valid(p.n, p.data))
            tr.count(f"placement.{name}_search.d4_first.candidates",
                     stats.candidates_evaluated)
        if self.probe_truth is None:
            self.probe_truth = [oracle.is_valid(p.n, p.data) for p in self.probes]
        for p, got, want in zip(self.probes, out["valid"], self.probe_truth):
            chk.ok("sweep.is_valid.oracle", got == want, "" if got == want else str(p))
        items, results = out["decode"]
        refs = {}
        for tables, _, _ in items:
            if id(tables) not in refs:
                p = tables.placement
                refs[id(tables)] = oracle.Code(p.n, p.data)
        check_decoded(chk, tr, "sweep.decode.oracle", items, results, refs)


# ---------------------------------------------------------------------------

class DecodeStream:
    """Table lookup dominates: a long seeded stream of 0-3-bit errors through
    tables built once for three placements."""

    PASS_S = 0.35
    ONE_CPU = True
    WORDS = 10000
    CHUNK = 250     # words per task
    SIZE_WEIGHTS = (1, 3, 3, 3)     # error sizes 0..3

    def __init__(self, seed: int, chk):
        self.chk = chk
        placement.triple_classes(7)
        refs = placement.reference_placements()
        g4 = next(placement.guided_search(7, 4))
        w10 = placement.Placement(10, (63, 455, 729))
        specs = [("s447_433", refs["s447_433"], True), ("guided_d4", g4, False),
                 ("n10_witness", w10, True)]
        self.tables = [codec.build_tables(p, triples) for _, p, triples in specs]
        self.names = [name for name, _, _ in specs]
        self.ref_codes = {id(t): oracle.Code(p.n, p.data, triples)
                          for t, (_, p, triples) in zip(self.tables, specs)}
        rng = random.Random(seed)
        by_size = []
        words = []
        for t in self.tables:
            p = t.placement
            pats = error_patterns(p.d, p.n, 3)
            by_size.append([[q for q in pats if q.size == k] for k in range(4)])
            words.append([data_tuple(v, p.d) for v in range(1 << p.d)])
        self.items = []
        for _ in range(self.WORDS):
            i = rng.randrange(len(self.tables))
            size = rng.choices(range(4), self.SIZE_WEIGHTS)[0]
            self.items.append((self.tables[i], rng.choice(words[i]),
                               rng.choice(by_size[i][size])))

    def run(self, ps) -> dict:
        results = []
        for k in range(0, self.WORDS, self.CHUNK):
            with ps.task(f"words_{k}"):
                results += decode_batch(ps, self.items[k:k + self.CHUNK], commands=True)
        return {"results": results}

    def check(self, out: dict, tr) -> None:
        for name, t in zip(self.names, self.tables):
            p = t.placement
            self.chk.pin(f"decode_stream.tables.{name}", [p.n, list(p.data), t.n_entries])
            self.chk.ok(f"decode_stream.tables.{name}.oracle",
                        t.n_entries == len(self.ref_codes[id(t)].table)
                        and oracle.is_valid(p.n, p.data))
        check_decoded(self.chk, tr, "decode_stream.oracle", self.items,
                      out["results"], self.ref_codes)


# ---------------------------------------------------------------------------

FIXTURES = (
    ("s445_433", "map_s445_433.csv", {}),
    ("s447_433", "map_s447_433_triples.csv", {"include_triples": True}),
    ("s44_4", "map_s44_4_forbidden.csv", {"forbidden_for": (1, 2)}),
)


class ClassSurvey:
    """The table-writing side (many builds, few lookups), the process pool
    and the wide maps."""

    PASS_S = 3.0
    ONE_CPU = False     # census and burst search run a process pool
    WIDE = (10, 11, 12)
    LOOKUPS = 16

    def __init__(self, seed: int, chk):
        self.chk = chk
        for n in (7, 8) + self.WIDE:
            placement.triple_classes(n)
        self.fixtures = {name: (FIXTURE_DIR / fname).read_text()
                         for name, fname, _ in FIXTURES}
        rng = random.Random(seed)
        self.lookups = {}
        for n in (7, 8):
            pats = error_patterns(3, n, 2)
            self.lookups[n] = [[(data_tuple(rng.randrange(8), 3), rng.choice(pats))
                                for _ in range(self.LOOKUPS)] for _ in range(128)]

    def run(self, ps) -> dict:
        tr = ps.tr
        out = {"classes": []}
        for n in (7, 8):
            with ps.task(f"census_full_n{n}"), tr.span(f"coverage.census.full_n{n}"):
                rows = coverage.census(n, full=True)
            out[f"rows{n}"] = rows
            for i, (row, lookups) in enumerate(zip(rows, self.lookups[n])):
                with ps.task(f"class_n{n}_{i}", command=True):
                    out["classes"].append(self._survey_class(ps, row.placement, lookups))
        grids = []
        refs = placement.reference_placements()
        for name, _, kwargs in FIXTURES:
            with ps.task(f"fixture_{name}"):
                with tr.span("render.render_map"):
                    grid = render.render_map(refs[name], **kwargs)
                with tr.span("render.grid_from_csv"):
                    want = render.grid_from_csv(self.fixtures[name], grid.layout)
                with tr.span("render.diff_grids"):
                    diffs = render.diff_grids(grid, want)
                grids.append((name, grid, want, diffs))
        out["fixtures"] = grids
        for label, threads in (("", NPROC), (".t1", 1)):
            with ps.task(f"census{label}"), tr.span(f"coverage.census{label}"):
                out[f"census{label}"] = coverage.census(7, threads=threads)
        with ps.task("burst"):
            with tr.span("coverage.three_bit_coverage"):
                report = coverage.three_bit_coverage(refs["s447_433"])
            for label, threads in (("", NPROC), (".t1", 1)):
                with tr.span(f"burst.search_orderings{label}"):
                    out[f"burst{label}"] = burst.search_orderings(report, threads)
        with ps.task("pmap_startup"), tr.span("parallel.pmap.startup"):
            parallel.pmap(abs, range(NPROC), NPROC)
        for n in self.WIDE:
            with ps.task(f"first_n{n}"), tr.span(f"placement.guided_search.first_n{n}"):
                out[f"first_n{n}"] = next(placement.guided_search(n, 3))
        return out

    def _survey_class(self, ps, p, lookups) -> dict:
        tr = ps.tr
        with tr.span("codec.build_tables"):
            tables = codec.build_tables(p, True)
        with tr.span("codec.covered_triples"):
            triples = codec.covered_triples(p)
        with tr.span("coverage.three_bit_coverage"):
            strict = coverage.three_bit_coverage(p)
        with tr.span("coverage.three_bit_coverage"):
            assignable = coverage.three_bit_coverage(p, "assignable")
        with tr.span("placement.occupied_map"):
            occupied = placement.occupied_map(p)
        with tr.span("render.render_map"):
            grid = render.render_map(p, include_triples=True)
        with tr.span("render.grid_to_csv"):
            text = render.grid_to_csv(grid)
        with tr.span("render.grid_from_csv"):
            back = render.grid_from_csv(text, grid.layout)
        with tr.span("render.diff_grids"):
            diffs = render.diff_grids(grid, back)
        items = [(tables, bits, pat) for bits, pat in lookups]
        return {"p": p, "tables": tables, "triples": triples, "strict": strict,
                "assignable": assignable, "occupied": occupied, "csv": text,
                "grid": grid, "back": back, "diffs": diffs, "items": items,
                "decoded": decode_batch(ps, items, commands=False)}

    def check(self, out: dict, tr) -> None:
        chk = self.chk
        for n in (7, 8):
            rows = out[f"rows{n}"]
            chk.pin(f"class_survey.census_full_n{n}",
                    [len(rows), digest([r.to_json() for r in rows])])
        summary = {7: [], 8: []}
        cells = 0
        refs = {}
        for c in out["classes"]:
            p = c["p"]
            code = oracle.Code(p.n, p.data, include_triples=True)
            refs[id(c["tables"])] = code
            chk.ok("class_survey.tables.oracle",
                   c["tables"].n_entries == len(code.table)
                   == 3 + p.n + (3 + p.n) * (2 + p.n) // 2 + len(c["triples"]),
                   str(p.data))
            chk.ok("class_survey.coverage.strict", c["strict"].total == len(c["triples"]))
            chk.ok("class_survey.coverage.assignable",
                   c["assignable"].total >= c["strict"].total)
            chk.ok("class_survey.occupied_map", c["occupied"].valid)
            chk.ok("class_survey.render.round_trip", c["diffs"] == (), str(p.data))
            cells += len(set(c["grid"].cells) | set(c["back"].cells))
            summary[p.n].append([list(p.data), c["tables"].n_entries,
                                 c["strict"].total, dict(c["strict"].counts),
                                 c["assignable"].total, digest(c["csv"])])
            check_decoded(chk, tr, "class_survey.decode.oracle", c["items"],
                          c["decoded"], refs)
        for n in (7, 8):
            chk.pin(f"class_survey.classes_n{n}", [len(summary[n]), digest(summary[n])])
        for name, grid, want, diffs in out["fixtures"]:
            chk.pin(f"class_survey.fixture.{name}.differing_cells", len(diffs))
            cells += len(set(grid.cells) | set(want.cells))
        tr.count("render.diff_grids.cells", cells)
        rows, rows1 = out["census"], out["census.t1"]
        chk.ok("class_survey.census.threads_agree",
               [r.to_json() for r in rows] == [r.to_json() for r in rows1])
        families = {}
        for r in rows:
            families.setdefault(str(r.family), set()).add(
                (r.total, r.counts["XXP"], r.counts["PPP"], r.counts["XPP"], r.counts["XXX"]))
        families = {f: sorted(map(list, v)) for f, v in sorted(families.items())}
        chk.pin("class_survey.census.families", families)
        targets = chk.expected.get("census_targets", {})
        self.notes = ["census families differing from the published targets "
                      "(open ROADMAP item 5, not a benchmark failure): "
                      + ",".join(f for f, t in sorted(targets.items())
                                 if families.get(f) != [t])]
        b, b1 = out["burst"], out["burst.t1"]
        chk.ok("class_survey.burst.threads_agree", b.to_json() == b1.to_json())
        chk.pin("class_survey.burst", [b.total, digest(b.to_json())])
        tr.count("burst.search_orderings.orderings", b.total)
        for n in self.WIDE:
            p = out[f"first_n{n}"]
            chk.pin(f"class_survey.first_n{n}", list(p.data))
            chk.ok(f"class_survey.first_n{n}.oracle", oracle.is_valid(p.n, p.data))


# ---------------------------------------------------------------------------

ORDERING = "X1,P7,P3,P6,X3,P2,P4,P1,P5,X2"
FIXTURE_447 = str(FIXTURE_DIR / "map_s447_433_triples.csv")

#: The README tour in order, with the --threads 1 variants of census and
#: burst search; (name, argv, file the stdout is saved to).  The tour's
#: ref447.json is the class search's first hit, data (15, 51, 127), on which
#: the README's decode corrects a word; codec-decode-s447_433 runs the same
#: decode on the reference placement (106, 86, 127), where it exits 2.
TOUR = (
    ("search-d3", ["search", "--d", "3", "--limit", "2"], None),
    ("search-class", ["search", "--d", "3", "--class", "S_447^433", "--limit", "1"],
     "ref447.json"),
    ("search-naive-d4", ["search", "--d", "4", "--limit", "1", "--naive"], None),
    ("validate", ["validate", "--placement", "ref447.json"], None),
    ("codec-build", ["codec", "build", "--placement", "ref447.json", "--triples"], None),
    ("codec-encode", ["codec", "encode", "--placement", "ref447.json", "--data", "101"], None),
    ("codec-decode", ["codec", "decode", "--placement", "ref447.json",
                      "--word", "1011101010", "--triples"], None),
    ("codec-decode-s447_433", ["codec", "decode", "--placement", "s447_433.json",
                               "--word", "1011101010", "--triples"], None),
    ("coverage-report", ["coverage", "report", "--placement", "ref447.json"], None),
    ("coverage-census", ["coverage", "census", "--format", "csv"], None),
    ("coverage-census-t1", ["--threads", "1", "coverage", "census", "--format", "csv"], None),
    ("coverage-theorem4", ["coverage", "theorem4"], None),
    ("coverage-minparity-n8", ["coverage", "minparity", "--n", "8"], None),
    ("burst-check", ["burst", "check", "--placement", "ref447.json",
                     "--ordering", ORDERING], None),
    ("burst-search", ["burst", "search", "--placement", "ref447.json"], None),
    ("burst-search-t1", ["--threads", "1", "burst", "search", "--placement", "ref447.json"],
     None),
    ("render-triples", ["render", "--placement", "ref447.json", "--triples"], None),
    ("render-csv", ["render", "--placement", "ref447.json", "--format", "csv"], "map.csv"),
    ("diff", ["diff", "--a", "map.csv", "--b", FIXTURE_447], None),
    ("verify-theorems", ["verify-theorems"], None),
    ("verify-theorems-n8", ["verify-theorems", "--n", "8", "--samples", "20000",
                            "--seed", "0"], None),
    ("bench", ["bench", "--d", "3", "--k", "1"], None),
)
DECODE_COMMANDS = ("codec-decode", "codec-decode-s447_433", "codec-decode-seeded")


class CliTour:
    """The README tour as one subprocess per command: interpreter start and
    import are most of each command's time."""

    PASS_S = 6.0
    ONE_CPU = False

    def __init__(self, seed: int, chk):
        self.chk = chk
        import kmap_ecc.cli  # noqa: F401  -- compiles the bytecode cache
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.workdir = ROOT / ".perfbench" / f"cli-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        ref = placement.reference_placements()["s447_433"]
        (self.workdir / "s447_433.json").write_text(json.dumps(ref.to_json()))
        rng = random.Random(seed)
        self.seeded_data = rng.randrange(8)
        size = rng.choices(range(4), (1, 3, 3, 3))[0]
        self.seeded_flip = sum(1 << i for i in rng.sample(range(10), size))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _cli(self, ps, name, argv, save_to=None):
        tr = ps.tr
        with ps.task(name, command=True), tr.span(f"cli.{name}"):
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-m", "kmap_ecc.cli", *argv],
                                  cwd=self.workdir, env=self.env,
                                  stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            elapsed = perf_counter() - t0
        if name in DECODE_COMMANDS:
            ps.decode_lat.append(elapsed)
        if save_to:
            (self.workdir / save_to).write_bytes(proc.stdout)
        return proc.returncode, proc.stdout.decode()

    def run(self, ps) -> dict:
        out = {}
        for name, argv, save_to in TOUR:
            out[name] = self._cli(ps, name, argv, save_to)
        ref = json.loads(out["search-class"][1])
        self.code = oracle.Code(ref["n"], ref["data"], include_triples=True)
        word = self.code.encode(self.seeded_data) ^ self.seeded_flip
        self.word = word
        bits = "".join(str(b) for b in oracle.int_to_bits(word, self.code.d + self.code.n))
        out["codec-decode-seeded"] = self._cli(
            ps, "codec-decode-seeded",
            ["codec", "decode", "--placement", "ref447.json", "--word", bits, "--triples"])
        return out

    def _probe_start(self, tr) -> None:
        """Interpreter start alone, then with the CLI import, per traced pass."""
        for name, code in (("cli.interpreter", "pass"), ("cli.import", "import kmap_ecc.cli")):
            with tr.span(name):
                subprocess.run([sys.executable, "-c", code], cwd=self.workdir,
                               env=self.env, check=True)

    def check(self, out: dict, tr) -> None:
        if tr.enabled:  # here, outside the timed pass
            self._probe_start(tr)
        for name, _, _ in TOUR:
            code, text = out[name]
            self.chk.pin(f"cli_tour.{name}", [code, digest(text)])
        code, text = out["codec-decode-seeded"]
        want_status, want_word = self.code.decode(self.word)
        width = self.code.d + self.code.n
        try:
            got = json.loads(text)
        except ValueError:
            got = {}
        self.chk.ok("cli_tour.codec-decode-seeded.oracle",
                    got.get("status") == want_status
                    and got.get("binary") == "".join(
                        str(b) for b in oracle.int_to_bits(want_word, width))
                    and code == (2 if want_status == "uncorrectable" else 0),
                    f"exit {code} output {text.strip()} oracle {want_status}")


WORKLOADS = {"sweep": Sweep, "decode_stream": DecodeStream,
             "class_survey": ClassSurvey, "cli_tour": CliTour}

