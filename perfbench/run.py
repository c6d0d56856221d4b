"""siglap benchmark: one workload per invocation, or all four in turn.

    python3 perfbench/run.py --workload expander-verdict --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py            # every workload, seed 0, untraced

Run it from the repository root.  A run starts ``SETUPS`` measuring
processes one after another (``worker.py``); each sets up from scratch and
spends ``seconds / SETUPS`` on timed calls.  BLAS threads are pinned per
workload (``BLAS_THREADS``).  The last line of standard output is the run's
result as JSON: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of the traced calls plus the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from tracing import METRIC_UNITS

# BLAS threads of each workload's measuring processes.  The machine has two
# cores; boundary-consensus gets one, because its 307-node matrix-vector
# products (80 000 per call) are too small to split: handing each to a second
# thread made its calls about 8 % slower and more erratic.
BLAS_THREADS = {"expander-verdict": 2, "grid-pairs": 2, "cactus-cli": 2,
                "boundary-consensus": 1}
WORKLOAD_NAMES = tuple(BLAS_THREADS)
SETUPS = 3
RUN_LIMIT_S = 170.0
HERE = os.path.dirname(os.path.abspath(__file__))
OUTDIR = os.path.join(HERE, "out")


def _worker(workload: str, seed: int, budget: float, trace: int, index: int,
            deadline: float) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS[workload])
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), "--budget", repr(budget),
           "--trace", str(trace), "--index", str(index), "--outdir", OUTDIR]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=env, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: measuring process {index} ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: measuring process {index} exited {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    reports = [_worker(workload, seed, seconds / SETUPS, trace, k, deadline)
               for k in range(SETUPS)]
    calls = [d for r in reports for d in r["calls"]]
    call_s = statistics.median(calls)
    if trace:
        layers = [m for r in reports for m in r["layers"]]
        traced = [d for r in reports for d in r["traced_calls"]]
        metrics = {name: _metric(statistics.median(m[name] for m in layers), unit)
                   for name, unit in METRIC_UNITS.items() if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = _metric(statistics.median(traced) - call_s, "s")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(r["setup_s"] for r in reports), "s"),
            "call_s": _metric(call_s, "s"),
            "nodes_per_s": _metric(
                statistics.median(r["nodes"] / sum(r["calls"]) for r in reports), "nodes/s"),
            "peak_rss_mb": _metric(statistics.median(r["peak_rss_mb"] for r in reports), "MB"),
        }
    return {
        "correct": not any(r["wrong"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join("src", "siglap")):
        sys.exit("run from the repository root: src/siglap not found")

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, ValueError, KeyError) as exc:
            sys.exit(str(exc))
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}  attempted = {result['attempted']}  failed = {result['failed']}  "
              f"correct = {str(result['correct']).lower()}")
        results[name] = result
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
