"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload once with --seconds 1 (one or two passes) and expects
   exit 0 with no failed check.
2. Copies perfbench/ and src/ into an empty directory, corrupts one pinned
   value in the copy's expected.json, and expects decode_stream there to
   report failed checks and exit nonzero.
3. Copies only BENCHMARK.json and perfbench/ into an empty directory and
   expects the benchmark to exit nonzero there without printing a result.

Scratch files go to .perfbench/selftest in the checkout and are removed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import HERE, ROOT, WORKLOADS

SCRATCH = ROOT / ".perfbench" / "selftest"
CORRUPTED_KEY = "decode_stream.tables.n10_witness"


NO_CACHE = shutil.ignore_patterns("__pycache__")


def bench(cwd: Path, workload: str) -> tuple[int, str]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def main() -> int:
    problems = []
    shutil.rmtree(SCRATCH, ignore_errors=True)
    SCRATCH.mkdir(parents=True)
    try:
        for workload in WORKLOADS:
            code, out = bench(ROOT, workload)
            res = result_of(out)
            if code or not res or not res["correct"] or res["failed"]:
                problems.append(f"{workload}: exit {code}, result {res}")

        corrupt = SCRATCH / "corrupt"
        shutil.copytree(HERE, corrupt / "perfbench", ignore=NO_CACHE)
        shutil.copytree(ROOT / "src", corrupt / "src", ignore=NO_CACHE)
        expected = json.loads((HERE / "expected.json").read_text())
        expected[CORRUPTED_KEY][-1] += 1
        (corrupt / "perfbench" / "expected.json").write_text(json.dumps(expected))
        code, out = bench(corrupt, "decode_stream")
        res = result_of(out)
        if code == 0 or not res or res["failed"] == 0 or res["correct"]:
            problems.append(f"corrupted {CORRUPTED_KEY} went unnoticed: exit {code}")

        bare = SCRATCH / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=NO_CACHE)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        code, out = bench(bare, "sweep")
        if code == 0 or result_of(out) is not None:
            problems.append(f"bare directory: exit {code}, stdout {out!r}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
