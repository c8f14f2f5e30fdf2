"""One workload in a fresh interpreter: set up, run a fixed number of
passes sized to --seconds, check every pass, print the measurements as one
JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  With
--setup-only it exits right after set-up, which is what setup_s times.
With --trace 1 passes alternate untraced and traced, so one run gives both
the per-layer numbers and the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from statistics import fmean, median, quantiles
from time import perf_counter

from harness import PROBE_REF_S, Checker, NullTracer, Pass, Tracer, host_scale, probe
from workloads import HERE, NPROC, TOUR, WORKLOADS

LAYERS = ("placement", "coverage", "codec", "burst", "parallel", "render", "cli", "bench")

#: Per-layer metrics, grouped by the end-to-end metric and workload each
#: should move (see README.md).
PER_LAYER = (
    # sweep: wall_s
    "placement.is_valid.calls", "placement.is_valid.busy_s",
    "placement.guided_search.d3_all.busy_s", "placement.guided_search.d3_all.candidates",
    "placement.guided_search.d4_first.candidates",
    "placement.naive_search.d4_first.busy_s", "placement.naive_search.d4_first.candidates",
    "coverage.min_parity_search.pruned_n9.busy_s", "coverage.min_parity_search.pruned_n9.triples",
    "coverage.min_parity_search.unpruned_n9.busy_s",
    "coverage.min_parity_search.unpruned_n9.triples",
    "coverage.theorem4_check.busy_s", "coverage.theorem4_check.triples_checked",
    # decode_stream: decode_words_per_s
    "codec.encode.busy_s", "codec.inject.busy_s", "codec.decode.busy_s",
    "codec.decode.calls", "codec.decode.corrected", "codec.decode.uncorrectable",
    # class_survey: wall_s
    "codec.build_tables.busy_s", "codec.build_tables.calls", "codec.covered_triples.busy_s",
    "coverage.three_bit_coverage.busy_s", "coverage.three_bit_coverage.calls",
    "placement.occupied_map.busy_s", "render.render_map.busy_s", "render.grid_to_csv.busy_s",
    "render.diff_grids.busy_s", "render.diff_grids.cells",
    # class_survey: wall_s; cli_tour: cmd_p90_s
    "coverage.census.busy_s", "coverage.census.t1.busy_s",
    "burst.search_orderings.busy_s", "burst.search_orderings.t1.busy_s",
    "burst.search_orderings.orderings", "parallel.pmap.startup_s",
    "parallel.census.speedup", "parallel.burst.speedup",
    # class_survey: peak_rss_mb and wall_s
    "placement.guided_search.first_n10.busy_s", "placement.guided_search.first_n11.busy_s",
    "placement.guided_search.first_n12.busy_s",
    # cli_tour: cmd_p50_s and cmd_p90_s
    "cli.interpreter_s", "cli.import_s",
    *(f"cli.{name}.s" for name, _, _ in TOUR), "cli.codec-decode-seeded.s",
    # self time per layer; "bench" is the benchmark's own glue between calls
    *(f"{layer}.self_s" for layer in LAYERS),
    # diagnostics, not gated
    "trace.overhead_s", "trace.untraced_wall_s", "trace.traced_wall_s", "host.probe_s",
)


def unit_of(name: str) -> str:
    if name.endswith("speedup"):
        return "ratio"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def layer_values(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass (diagnostics excluded)."""
    def busy(span):
        return tr.totals.get(span, (0.0, 0.0, 0))[0]

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for name in PER_LAYER:
        if name in tr.counts:
            values[name] = tr.counts[name]
        elif name.endswith(".busy_s"):
            values[name] = busy(name[:-len(".busy_s")])
        elif name.endswith(".calls"):
            values[name] = tr.totals.get(name[:-len(".calls")], (0, 0, 0))[2]
        elif name.endswith(".self_s"):
            layer = name[:-len(".self_s")]
            values[name] = sum(t[1] for span, t in tr.totals.items()
                               if span.split(".")[0] == layer)
        elif name.startswith("cli.") and name.endswith(".s"):
            values[name] = busy(name[:-len(".s")])
        elif unit_of(name) == "count":
            values[name] = 0
    values["parallel.pmap.startup_s"] = busy("parallel.pmap.startup")
    values["parallel.census.speedup"] = ratio(busy("coverage.census.t1"),
                                              busy("coverage.census"))
    values["parallel.burst.speedup"] = ratio(busy("burst.search_orderings.t1"),
                                             busy("burst.search_orderings"))
    values["cli.interpreter_s"] = busy("cli.interpreter")
    values["cli.import_s"] = (busy("cli.import") - busy("cli.interpreter")
                              if "cli.import" in tr.totals else 0.0)
    return values


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return quantiles(values, n=100, method="inclusive")[q - 1]


def pass_count(workload, seconds: float) -> int:
    """Passes a run makes: as many as fit in `seconds` at the workload's
    nominal pass time (PASS_S, pass and checks on the reference host).  The
    count depends on --seconds only, never on how fast the host or the
    commit runs, so every run averages over as many samples."""
    return max(1, int(seconds / workload.PASS_S))


def cpu_info() -> dict:
    info = {}
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                key = key.strip()
                if key in ("model name", "cache size") and key not in info:
                    info[key] = value.strip()
    except OSError:
        pass
    return {"cpu_model": info.get("model name", platform.processor() or "unknown"),
            "cache_size": info.get("cache size", "unknown")}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    chk = Checker(json.loads((HERE / "expected.json").read_text()))
    wl = WORKLOADS[args.workload](args.seed, chk)
    passes = pass_count(wl, args.seconds)
    if args.trace:
        passes = max(2, passes)
    try:
        if args.setup_only:
            return 0
        if wl.ONE_CPU and hasattr(os, "sched_setaffinity"):
            # The two CPUs of a shared host can run at different speeds:
            # the work stays on the CPU its probes measure.
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        for _ in range(3):  # warms the probe's own code and caches
            probe()
        # Set-up's objects stay out of the collector's way in every pass,
        # and every pass starts from the same collector state.
        gc.collect()
        gc.freeze()
        walls = {False: [], True: []}
        probes = []
        totals, p50, p90 = [], [], []   # per untraced pass: task seconds, percentiles
        words = decode_s = 0
        segments = []
        layers = []
        for i in range(passes):
            tr = Tracer() if args.trace and i % 2 else NullTracer()
            gc.collect()
            ps = Pass(tr)
            t0 = perf_counter()
            out = wl.run(ps)
            wall = perf_counter() - t0
            ps.finish()
            wl.check(out, tr)
            del out
            probes += ps.probes
            walls[tr.enabled].append(wall)
            if tr.enabled:
                layers.append(layer_values(tr))
            else:
                totals.append(sum(ps.task_s.values()))
                p50.append(percentile(ps.latencies, 50))
                p90.append(percentile(ps.latencies, 90))
                words += len(ps.decode_lat)
                decode_s += sum(ps.decode_lat)
                segments += ps.segments
    finally:
        close = getattr(wl, "close", None)
        if close:
            close()

    who = resource.RUSAGE_CHILDREN if args.workload == "cli_tour" else resource.RUSAGE_SELF
    per_layer = {}
    if args.trace:
        per_layer = {name: median(v[name] for v in layers) for name in layers[0]}
        per_layer["trace.untraced_wall_s"] = median(walls[False])
        per_layer["trace.traced_wall_s"] = median(walls[True])
        per_layer["trace.overhead_s"] = median(walls[True]) - median(walls[False])
        per_layer["host.probe_s"] = median(probes)
        per_layer = {name: {"value": per_layer[name], "unit": unit_of(name)}
                     for name in PER_LAYER}
    # Every timing is over a pass count that does not depend on the speed
    # being measured, in reference-host seconds (see host_scale).  The factor
    # is a time-weighted mean, so wall_s and the decode rate are means too.
    scale = host_scale(segments)
    print(json.dumps({
        "wall_s": scale * fmean(totals),
        "cmd_p50_s": scale * median(p50),
        "cmd_p90_s": scale * median(p90),
        "decode_words_per_s": words / decode_s / scale,
        "wall_unscaled_s": fmean(totals),
        "passes": len(walls[False]),
        "pass_wall_median_s": median(walls[False]),
        "commands_per_pass": len(ps.latencies),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "attempted": chk.attempted,
        "failed": chk.failed,
        "per_layer": per_layer,
        "notes": getattr(wl, "notes", []),
        "env": {"nproc": NPROC, "threads": NPROC, "python": sys.version.split()[0],
                **cpu_info(), "host_probe_s": median(probes), "probe_ref_s": PROBE_REF_S,
                "host_scale": scale, "passes": passes},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
