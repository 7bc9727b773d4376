"""Seeded benchmark of the sato4 certifier: time to a verdict per link.

Usage, from the root of a checkout::

    python3 bench/run.py --workload beta-braids --seed 1 --seconds 20 --trace 0

Workloads are ``beta-braids``, ``certify-scrambled`` and ``verify-corpus``
(see bench/README.md).  The run generates its inputs from the seed,
measures the set-up time of a fresh interpreter, then starts one worker
process that runs ops one after another, each awaited before the next
(a closed loop with one client), and checks every answer.  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the worker wraps the package's modules, runs a fixed
number of ops and reports per-layer totals, and writes its spans under
``bench/out/``.  The exit code is nonzero when an answer is wrong, when
the package cannot be found, or when the worker fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
OUT = BENCH / "out"

WORKLOADS = ("beta-braids", "certify-scrambled", "verify-corpus")
# inputs generated per measured second, above what the program
# completes today; ops wrap around the list if it ever runs out
POOL_PER_SECOND = {"beta-braids": 40, "certify-scrambled": 12, "verify-corpus": 0}
# ops in a traced run: fixed, so per-layer totals compare across versions
TRACE_OPS = {"beta-braids": 200, "certify-scrambled": 80, "verify-corpus": 200}
SETUP_RUNS = 5  # before the worker, and again after it
TIME_LIMIT_S = 170.0

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import sato4.cli
from sato4.corpus import load_calibration, load_corpus
load_corpus(sys.argv[1])
load_calibration(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""

END_TO_END_UNITS = {
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _env() -> dict:
    env = dict(os.environ)
    # set-up is timed with cached bytecode, as an installed package has it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def measure_setup(runs: int, deadline: float) -> list[float]:
    """Times for fresh interpreters to import the CLI and load the corpus."""
    times = []
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(CORPUS)],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=max(1.0, deadline - perf_counter()),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, help="run exactly this many ops (smoke tests)")
    args = p.parse_args(argv)
    started = perf_counter()
    deadline = started + TIME_LIMIT_S

    if not (SRC / "sato4" / "__init__.py").is_file() or not CORPUS.is_dir():
        print(f"error: no sato4 package under {SRC} or no corpus at {CORPUS}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gen

    setup_times = []
    if not args.trace:
        measure_setup(1, deadline)  # compiles bytecode, which users pay once
        setup_times += measure_setup(SETUP_RUNS, deadline)

    ops = args.ops if args.ops is not None else (TRACE_OPS[args.workload] if args.trace else None)
    count = ops or max(1, math.ceil(args.seconds * POOL_PER_SECOND[args.workload]))
    items = gen.make_inputs(args.workload, args.seed, count)

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        inputs, result_file = work / "inputs.json", work / "result.json"
        inputs.write_text(json.dumps(items))
        cmd = [
            sys.executable, str(BENCH / "worker.py"), str(inputs), str(result_file),
            "--workload", args.workload, "--seconds", str(args.seconds),
        ]
        if ops is not None:
            cmd += ["--ops", str(ops)]
        if args.trace:
            cmd += ["--trace-out", str(OUT / f"trace-{args.workload}-seed{args.seed}")]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=_env(), timeout=max(1.0, deadline - perf_counter()))
        except subprocess.TimeoutExpired:
            print(f"error: worker exceeded the {TIME_LIMIT_S:.0f} s limit", file=sys.stderr)
            return 1
        if proc.returncode != 0:
            print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(result_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not args.trace:
        # half the probes after the worker, so one slow spell of a shared
        # machine does not decide the median
        setup_times += measure_setup(SETUP_RUNS, deadline)

    if args.trace:
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit}
            for name, unit, _better in spans.PER_LAYER
        }
        if result["absent"]:
            print(f"absent after a refactor, reported as 0: {', '.join(result['absent'])}", file=sys.stderr)
    else:
        values = {**result, "setup_s": statistics.median(setup_times)}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    attempted, failed = result["attempted"], result["failed"]
    for problem in result["wrong"][:10]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops, "
        f"{failed} without a verdict (failed_frac {failed / attempted:.4f}), "
        f"{len(result['wrong'])} wrong, {perf_counter() - started:.1f} s in all"
    )
    correct = not result["wrong"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
