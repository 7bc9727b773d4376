"""Smoke tests for the benchmark harness.

Run from the repository root with ``python3 -m pytest bench/test_smoke.py``.
Every workload runs at a tiny size; two traced runs with one seed must
report exactly the same counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
OPS = 3


def _bench(workload: str, trace: int, seed: int = 7) -> dict:
    proc = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--ops", str(OPS),
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repeatable(name: str, unit: str) -> bool:
    """Counts, and ratios of counts, repeat exactly; times do not."""
    return unit == "count" or name.endswith(("_ratio", "_frac"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _bench(workload, 1), _bench(workload, 1)
    for result in (first, second):
        assert result["correct"] is True
        assert (result["attempted"], result["failed"]) == (OPS, 0)
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [n for n, unit, _ in spans.PER_LAYER if _repeatable(n, unit)]
    assert {n: first["metrics"][n]["value"] for n in counts} == {
        n: second["metrics"][n]["value"] for n in counts
    }


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload):
    result = _bench(workload, 0)
    assert result["correct"] is True and result["attempted"] == OPS
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in metrics.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_are_seeded(workload):
    assert gen.make_inputs(workload, 5, 4) == gen.make_inputs(workload, 5, 4)
    if workload != "verify-corpus":
        assert gen.make_inputs(workload, 5, 4) != gen.make_inputs(workload, 6, 4)


def test_spec_matches_harness():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(spans.PER_LAYER)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert WORKLOADS == list(run.WORKLOADS)


def test_missing_target_is_reported_absent():
    code = (
        "import json, spans\n"
        "targets = {**spans.TARGETS, 'conway._compute': ('sato4.conway', '_gone')}\n"
        "t = spans.Tracer(targets)\n"
        "t.install()\n"
        "print(json.dumps([t.absent_metrics(), t.metrics(1, 0, 1.0)['conway.memo_hits']]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=BENCH, capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": f"{BENCH}:{ROOT / 'src'}"},
    )
    assert proc.returncode == 0, proc.stderr
    absent, hits = json.loads(proc.stdout)
    assert "conway.memo_hits" in absent and "conway.calls" not in absent
    assert hits == 0
