"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Times set-up in several fresh
interpreters, runs the workload in one more, prints one line per metric
(name, value, unit) and, as the last line, the JSON result.  Exits 1 when
an output check failed and 2 when the checkout or a worker is broken.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "decode_stream", "class_survey", "cli_tour")
SETUPS = 5
#: A set-up is killed only when it is far past any plausible time, so a
#: slower set-up shows as a worse setup_s rather than as a broken run.
SETUP_TIMEOUT_S = 60


def worker_timeout_s(seconds: int) -> float:
    """The worker's limit.  Its passes are sized to take about --seconds
    (see worker.py), so this leaves room for a host four times slower."""
    return 60 + 4 * seconds


def run_child(cmd, limit_s: float, **kwargs):
    """Run cmd, killing it after limit_s; returns (exit code, stdout, seconds).

    A timer kills the child instead of subprocess's own timeout, whose wait
    polls in steps of up to 50 ms that would show up in setup_s."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    timer = threading.Timer(limit_s, proc.kill)
    timer.start()
    try:
        out, _ = proc.communicate()
    finally:
        timer.cancel()
    return proc.returncode, out, perf_counter() - t0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = ROOT / "src"
    if not (src / "kmap_ecc" / "__init__.py").is_file():
        return fail(f"no kmap_ecc package under {src}")
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("KMAP_ECC_THREADS", None)  # the CLI's default thread count is nproc
    bytecode_warm = any((src / "kmap_ecc" / "__pycache__").glob("__init__.*.pyc"))
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed)]

    setups = []
    for _ in range(SETUPS):
        code, _, secs = run_child(worker + ["--setup-only"], SETUP_TIMEOUT_S,
                                  env=env, stdout=subprocess.DEVNULL)
        if code:
            return fail(f"set-up of {args.workload} exited {code}")
        setups.append(secs)
    limit = worker_timeout_s(args.seconds)
    code, out, _ = run_child(worker + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)],
                             limit, env=env, stdout=subprocess.PIPE)
    if code:
        return fail(f"{args.workload} exited {code} (killed after {limit} s)"
                    if code < 0 else f"{args.workload} exited {code}")
    res = json.loads(out.decode().strip().splitlines()[-1])

    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": median(setups), "unit": "s"},
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "decode_words_per_s": {"value": res["decode_words_per_s"], "unit": "1/s"},
            "cmd_p50_s": {"value": res["cmd_p50_s"], "unit": "s"},
            "cmd_p90_s": {"value": res["cmd_p90_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = res["attempted"], res["failed"]
    env_record = dict(res["env"], bytecode_warm=bytecode_warm,
                      pythonhashseed=env["PYTHONHASHSEED"], setups=SETUPS,
                      wall_unscaled_s=res["wall_unscaled_s"],
                      passes_timed=res["passes"], commands_per_pass=res["commands_per_pass"],
                      pass_wall_median_s=res["pass_wall_median_s"])
    print(f"env {json.dumps(env_record, sort_keys=True)}")
    for note in res["notes"]:
        print(f"note {note}")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} checks)")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
