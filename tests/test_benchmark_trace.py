"""The traced benchmark run ends in a strict-JSON result with every metric.

For each workload in BENCHMARK.json, `benchmarks/run.py --trace 1` on a
short run must exit 0 and print, as its last line, a JSON object with no
NaN or infinity in it, `"correct": true`, and a value for every per-layer
metric the benchmark declares.  A metric the harness cannot source (its
tracer target is gone from the program) is left out of that line, so this
catches a refactor that drops an attribute or a call site the tracer reads.
The MacQueen step, every algorithm's Lloyd loop and D^2 seeding, the
cache's query-time reductions in `cc` and `rcc`, and the queries that reach
the order-0 `CachedCoresetTree` inside `rcc` must also read above zero,
which catches a span that is present but never entered (a kernel that
stops going through the name the tracer wraps).  Each case
takes a few seconds.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject(constant):
    raise ValueError(f"non-finite value {constant} in the result line")


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_reports_every_metric(workload):
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1], parse_constant=_reject)
    assert result["correct"] is True, proc.stdout
    missing = [m["name"] for m in BENCHMARK["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == []
    seen = ["seq.kmeans.update_s", "rcc.cache.queries"]
    seen += [f"{a}.kmeans.{span}_s" for a in ("ct", "cc", "rcc", "online")
             for span in ("lloyd", "d2_sample")]
    seen += [f"{a}.coreset.build_s.cache" for a in ("cc", "rcc")]
    blind = [name for name in seen if not result["metrics"][name]["value"] > 0]
    assert blind == []
