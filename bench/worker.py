"""The measured process: one client, one thread, each op awaited in turn.

Started by ``run.py`` in a fresh interpreter so that its peak resident
memory belongs to this run alone.  Reads the generated inputs, runs ops
until the time (or op count) is reached, checks every answer and writes
a JSON result.  Usage::

    python3 bench/worker.py INPUTS RESULT --workload W --seconds S
        [--ops N] [--trace-out STEM]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from sato4.errors import Sato4Error

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100  # p90 then has at least ten samples beyond it
HARD_STOP_S = 140.0


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("inputs", type=Path)
    p.add_argument("result", type=Path)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--ops", type=int, help="run exactly this many ops, ignoring --seconds")
    p.add_argument("--trace-out", type=Path, help="trace the run and write spans here")
    args = p.parse_args(argv)

    items = json.loads(args.inputs.read_text())
    work = args.result.parent
    workload = workloads.WORKLOADS[args.workload](ROOT, work)
    tracer = None
    if args.trace_out:
        tracer = spans.Tracer()
        tracer.install()

    latencies: list[float] = []
    failed = 0
    wrong: list[str] = []
    start = perf_counter()
    i = 0
    while True:
        elapsed = perf_counter() - start
        if args.ops is not None:
            if i >= args.ops:
                break
        elif elapsed >= args.seconds and i >= MIN_OPS:
            break
        if elapsed >= HARD_STOP_S:
            print(f"stopped after {i} ops at the {HARD_STOP_S:.0f} s limit", file=sys.stderr)
            break
        item = items[i % len(items)]
        workload.before(item)
        if tracer:
            tracer.op = i
        t0 = perf_counter()
        try:
            out = workload.op(item)
        except Sato4Error as e:
            print(f"op {i}: no verdict: {type(e).__name__}: {e}", file=sys.stderr)
            out = None
        t1 = perf_counter()
        latencies.append(t1 - t0)
        if tracer:
            tracer.end_op(t1 - t0)
        if out is None:
            failed += 1
        else:
            problem = workload.check(item, out)
            if problem:
                wrong.append(f"op {i}: {problem}")
        i += 1
    wall = perf_counter() - start

    result = {
        "attempted": len(latencies),
        "failed": failed,
        "wrong": wrong,
        "wall_s": wall,
        "latency_ms_p50": statistics.median(latencies) * 1e3,
        "latency_ms_p90": _p90(latencies) * 1e3,
        "ops_per_s": len(latencies) / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["per_layer"] = tracer.metrics(len(latencies), failed, wall)
        result["absent"] = tracer.absent_metrics()
        tracer.write(args.trace_out, {"workload": args.workload, "ops": len(latencies)})
    args.result.write_text(json.dumps(result))
    return 0


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[8]


if __name__ == "__main__":
    sys.exit(main())
