"""One measuring process of a benchmark run; started by ``run.py``.

It imports siglap from ``src/`` under the current directory, builds the
workload's inputs, makes one untimed warm-up call, then times calls of the
workload's public entry point until its time budget is spent, checking each
output after its timer stops.  With ``--trace 1`` the budget is split: the
first half is timed untraced, the second half with spans around every layer.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback


def _import_siglap():
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    try:
        import siglap
    except ImportError as exc:
        sys.exit(f"cannot import siglap from {src}: {exc}")
    if not os.path.abspath(siglap.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"siglap was imported from {siglap.__file__}, not from {src}")


def _timed_loop(wl, budget: float, state: dict, tracer=None) -> list[float]:
    """Call the workload round-robin until ``budget`` seconds have passed."""
    durations = []
    loop_start = time.perf_counter()
    attempts = 0
    while attempts == 0 or time.perf_counter() - loop_start < budget:
        attempts += 1
        i = state["next"] % len(wl)
        state["next"] += 1
        state["attempted"] += 1
        if state["first_call"] is None:
            state["first_call"] = time.monotonic()
        try:
            start = time.perf_counter()
            result = wl.call(i)
            elapsed = time.perf_counter() - start
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc(file=sys.stderr)
            state["failed"] += 1
            if tracer is not None:
                tracer.take()
            continue
        durations.append(elapsed)
        state["nodes"] += wl.nodes(i)
        if tracer is not None:
            state["spans"].append(tracer.take())
        try:
            problems = wl.check(i, result)
        except Exception as exc:  # an output the check cannot read is wrong
            problems = [f"check raised {exc!r}"]
        if problems:
            state["failed"] += 1
            state["wrong"] += 1
            for line in problems:
                print(f"{wl.name} call {i}: {line}", file=sys.stderr)
    return durations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True,
                        help="seconds of timed calls in this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--index", type=int, default=0,
                        help="which of the run's set-ups this is; the first call uses this item")
    parser.add_argument("--outdir", required=True)
    args = parser.parse_args(argv)

    _import_siglap()
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    os.makedirs(args.outdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, args.outdir)
    first = args.index % len(wl)
    wl.call(first)  # warm-up: lazy library start-up stays out of the timed calls

    state = {"next": first, "attempted": 0, "failed": 0, "wrong": 0, "nodes": 0,
             "first_call": None, "spans": []}
    report = {}
    if args.trace:
        report["calls"] = _timed_loop(wl, args.budget / 2, state)
        tracer = Tracer()
        tracer.install()
        try:
            report["traced_calls"] = _timed_loop(wl, args.budget / 2, state, tracer)
        finally:
            tracer.uninstall()
        report["layers"] = [layer_metrics(spans) for spans in state["spans"]]
        trace_file = os.path.join(args.outdir, f"{args.workload}.setup{args.index}.trace.json")
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent"],
                       "calls": state["spans"]}, fh)
    else:
        report["calls"] = _timed_loop(wl, args.budget, state)
        report["nodes"] = state["nodes"]
    report.update(
        setup_s=state["first_call"] - args.t0,
        attempted=state["attempted"],
        failed=state["failed"],
        wrong=state["wrong"],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
