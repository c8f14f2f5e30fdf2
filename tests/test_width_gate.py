"""Width gate: at every map width 4..16 every subcommand either finishes or
refuses, within a time bound, and its exit code follows the command's rule.

``cli.main`` reports any ValueError as a usage error (exit 1), so "not 3"
alone would let a bug pass as a refusal; each run's code is checked against
the rule that says when that command refuses (1) or fails a check (2).
"""

import json
import math
import subprocess
import sys
import time

import pytest

from kmap_ecc.cli import main
from kmap_ecc.coverage import MAX_MIN_PARITY_WIDTH, MAX_THEOREM4_WIDTH
from kmap_ecc.placement import NAIVE_TUPLE_BUDGET, Placement, SClass
from kmap_ecc.render import grid_to_csv, render_map

#: The guided search's first hit at each width, for d = 3 where one exists,
#: else for d = 2, else for d = 1.
FIRST_HIT = {4: (15,), 5: (15,), 6: (15, 51)}
TIME_BOUND_S = 5.0


def _first_hit(n: int) -> Placement:
    return Placement(n, FIRST_HIT.get(n, (15, 51, 85)))


def _naive_exit(n: int, d: int) -> int:
    """A naive walk over its tuple budget is refused."""
    candidates = sum(1 for x in range(1 << n) if x.bit_count() >= 4)
    return 1 if math.comb(candidates, d) > NAIVE_TUPLE_BUDGET else 0


def _runs(p: Placement, path: str, grid: str):
    """(argv, expected exit code) for each subcommand on `p`.  Runs that are
    slow and pinned by other tests are left out: pruned minparity at n=12,
    unpruned minparity at n >= 11, ``census --full`` at n >= 13, burst search
    at n >= 9 (the n=10 census runs in a memory-limited child, see below)
    and ``search --d 4`` at n >= 15."""
    n, d = p.n, p.d
    width = str(n)
    three_bit = 0 if d == 3 else 1                  # three-bit commands want d = 3
    natural = ",".join([f"X{i}" for i in range(1, d + 1)]
                       + [f"P{k}" for k in range(1, n + 1)])
    runs = [
        (["validate", "--placement", path], 0),
        (["codec", "build", "--placement", path, "--triples"], 0),
        (["codec", "encode", "--placement", path, "--data", "1" * d], 0),
        # X_1 flipped in the all-zero codeword: a one-bit error, corrected
        (["codec", "decode", "--placement", path, "--word", "1" + "0" * (d + n - 1)], 0),
        (["coverage", "report", "--placement", path], three_bit),
        (["coverage", "census", "--n", width], 0),
        (["coverage", "theorem4", "--n", width],
         1 if n > MAX_THEOREM4_WIDTH else 2 if n >= 8 else 0),
        # X_1X_2X_3 in the first window
        (["burst", "check", "--placement", path, "--ordering", natural],
         2 if d == 3 else three_bit),
        (["render", "--placement", path, "--triples"], 0),
        (["render", "--placement", path, "--forbidden-for", "1,2"], 0 if d >= 2 else 1),
        (["diff", "--a", grid, "--b", grid, "--n", width], 0),
        (["verify-theorems", "--n", width, "--samples", "100"], 0),
        (["search", "--n", width, "--d", str(d), "--limit", "1",
          "--class", SClass.from_placement(p).label], 0),
    ]
    for k in range(1, 5):
        if k < 4 or n < 15:
            runs.append((["search", "--n", width, "--d", str(k), "--limit", "1"], 0))
        runs.append((["search", "--naive", "--n", width, "--d", str(k), "--limit", "1"],
                     _naive_exit(n, k)))
        runs.append((["bench", "--n", width, "--d", str(k)], _naive_exit(n, k)))
    if n != MAX_MIN_PARITY_WIDTH:
        runs.append((["coverage", "minparity", "--n", width],
                     1 if n > MAX_MIN_PARITY_WIDTH else 0))
    if n < 13:
        runs.append((["coverage", "census", "--full", "--n", width], 0))
    if n < 11:
        runs.append((["coverage", "minparity", "--no-pruning", "--n", width], 0))
    if n < 9:
        runs.append((["burst", "search", "--placement", path], three_bit))
    return runs


@pytest.mark.parametrize("n", range(4, 17))
def test_every_command_finishes_or_refuses_at_each_width(capsys, tmp_path, n):
    p = _first_hit(n)
    path = tmp_path / "p.json"
    path.write_text(f'{{"n": {n}, "data": {list(p.data)}}}')
    grid = tmp_path / "grid.csv"
    grid.write_text(grid_to_csv(render_map(p)))
    for argv, want in _runs(p, str(path), str(grid)):
        t0 = time.perf_counter()
        code = main(argv)
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        assert code == want, (argv, err)
        if code == 1:
            assert out == "" and err.startswith("usage error: "), (argv, err)
        assert elapsed < TIME_BOUND_S, (argv, elapsed)


_LIMITED_BURST_SEARCH = """
import resource, sys
from kmap_ecc.cli import main
limit = int(sys.argv[1]) << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
sys.exit(main(sys.argv[2:]))
"""


def test_burst_search_at_10_completes_in_bounded_memory(tmp_path):
    """The first n=10 placement's census fits the burst walk's state budget
    once twin parity bits are walked in one order, well inside 1 GB of
    address space."""
    path = tmp_path / "p.json"
    path.write_text('{"n": 10, "data": [15, 51, 85]}')
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _LIMITED_BURST_SEARCH, "1024",
                           "burst", "search", "--placement", str(path)],
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    cs = json.loads(proc.stdout)
    assert (cs["total"], len(cs["groups"])) == (83075328, 1716)
    assert elapsed < TIME_BOUND_S
