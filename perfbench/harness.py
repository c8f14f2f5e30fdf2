"""Span tracer, output checker, speed probe and pass timer shared by the
workloads."""

from __future__ import annotations

import gc
import json
import sys
from contextlib import contextmanager, nullcontext
from statistics import median
from time import perf_counter

import oracle

_NULL = nullcontext()

#: Valid placements the speed probe builds brute-force codes for, with triples.
PROBE_CODES = ((7, (15, 51, 127)), (7, (106, 86, 127)), (10, (63, 455, 729))) * 8
#: The probe's time on the reference host (2-core Intel Xeon, Python 3.11).
PROBE_REF_S = 0.008
#: A pass probes the host between tasks, outside their timing, at most once
#: per this many seconds.
SEGMENT_S = 0.3


def probe() -> float:
    """Seconds for a fixed slice of pure-Python work: the benchmark's own
    oracle (combinations, dicts, XOR) on fixed placements.  It calls nothing
    in kmap_ecc, so no commit can change it: it measures the host's speed."""
    enabled = gc.isenabled()
    gc.disable()  # a collection owed by the work before must not land here
    try:
        t0 = perf_counter()
        for n, data in PROBE_CODES:
            oracle.Code(n, data, include_triples=True)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Tracer:
    """Spans around the benchmark's calls into each layer.

    Spans are folded into per-name totals as they close (busy time, self
    time, count), so memory stays flat in the per-word decode loop.  Self
    time is a span's duration minus the time covered by spans opened inside
    it; the layer of a span is the first dotted component of its name.
    """

    enabled = True

    def __init__(self):
        self.totals: dict[str, list] = {}   # name -> [busy_s, self_s, calls]
        self.counts: dict[str, int] = {}
        self._children: list[float] = []

    def _close(self, name: str, dur: float, child: float) -> None:
        t = self.totals.get(name)
        if t is None:
            t = self.totals[name] = [0.0, 0.0, 0]
        t[0] += dur
        t[1] += dur - child
        t[2] += 1
        if self._children:
            self._children[-1] += dur

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        t0 = perf_counter()
        try:
            yield
        finally:
            dur = perf_counter() - t0
            self._close(name, dur, self._children.pop())

    def leaf(self, name: str, t0: float, t1: float) -> None:
        """Record a span the caller timed itself (hot loops)."""
        self._close(name, t1 - t0, 0.0)

    def count(self, name: str, value: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


class NullTracer:
    enabled = False

    def span(self, name: str):
        return _NULL

    def leaf(self, name: str, t0: float, t1: float) -> None:
        pass

    def count(self, name: str, value: int) -> None:
        pass


class Checker:
    """Counts output checks; a failed check is reported on stderr once per key."""

    def __init__(self, expected: dict):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self._reported: set[str] = set()

    def ok(self, key: str, cond: bool, detail: str = "") -> None:
        self.attempted += 1
        if not cond:
            self.failed += 1
            if key not in self._reported:
                self._reported.add(key)
                print(f"check failed: {key} {detail}".rstrip(), file=sys.stderr)

    def pin(self, key: str, observed) -> None:
        """Compare with the seed commit's value from expected.json."""
        observed = json.loads(json.dumps(observed))
        want = self.expected.get(key, "<missing>")
        self.ok(key, observed == want,
                f"observed={json.dumps(observed)} expected={json.dumps(want)}")


class Pass:
    """One pass over a workload's task list: the time of each task, the
    latency of each command and of each decode, and the host probes taken
    between tasks (at most one per SEGMENT_S, outside any task's timing).
    The tracer is a no-op in untraced passes."""

    def __init__(self, tracer):
        self.tr = tracer
        self.task_s: dict[str, float] = {}
        self.latencies: list[float] = []    # one per command, same order every pass
        self.decode_lat: list[float] = []   # one per decoded word, same order every pass
        self.probes = [probe()]
        self.segments: list[tuple[float, float, float]] = []    # see host_scale
        self._seg = 0.0
        self._since = perf_counter()

    def _cut(self) -> None:
        before = self.probes[-1]
        self.probes.append(probe())
        self.segments.append((self._seg, before, self.probes[-1]))
        self._seg = 0.0
        self._since = perf_counter()

    @contextmanager
    def task(self, name: str, command: bool = False):
        """Time one task; a command's time is also one latency sample."""
        if perf_counter() - self._since >= SEGMENT_S:
            self._cut()
        with self.tr.span("bench.task"):
            t0 = perf_counter()
            try:
                yield
            finally:
                dur = perf_counter() - t0
                self._seg += dur
                self.task_s[name] = self.task_s.get(name, 0.0) + dur
                if command:
                    self.latencies.append(dur)

    def finish(self) -> None:
        """Take the probe that closes the last segment."""
        self._cut()


def host_scale(segments) -> float:
    """Factor from this host's seconds to reference-host seconds.

    The shared host's speed swings by up to 2x for seconds at a time and
    drifts over minutes, slower than one run, and the library's code slows
    and speeds up with a probe taken next to it.  `segments` holds (seconds
    of timed work, probe before it, probe after it); the factor is
    PROBE_REF_S over the probe time averaged with the timed seconds as
    weights, so every stretch of work counts at the host speed it ran at,
    and one factor for the whole run keeps a single noisy probe from moving
    a result.  A slower commit still shows one for one, since the probe
    runs none of its code."""
    work = sum(secs for secs, _, _ in segments)
    probed = sum(secs * (a + b) / 2 for secs, a, b in segments)
    return PROBE_REF_S * work / probed
