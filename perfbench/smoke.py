"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload once at a tiny size (``run.py --tiny``), in both trace
modes and with two seeds, including ``genus-tower``, which BENCHMARK.json
leaves out (see README.md).  It confirms that every metric named in
BENCHMARK.json is printed with its unit and nothing else is, that each run's
answers are correct, and that another seed changes the inputs but not the
metric set.  Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (1, 2)


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    *_, detail_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(detail_line)["detail"], json.loads(result_line)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            inputs, metric_sets = set(), set()
            for seed in SEEDS:
                detail, result = run(workload, seed, trace)
                printed = {name: m.get("unit") for name, m in result["metrics"].items()}
                if printed != wanted[trace]:
                    missing = sorted(set(wanted[trace]) - set(printed))
                    extra = sorted(set(printed) - set(wanted[trace]))
                    failures.append(f"{workload} trace {trace}: missing {missing}, extra {extra}, "
                                    "or units differ")
                if not all(isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()):
                    failures.append(f"{workload} trace {trace}: a metric value is not a number")
                if not result["correct"] or result["attempted"] < 1:
                    failures.append(f"{workload} seed {seed} trace {trace}: {detail['unexpected_wrong']}")
                inputs.add(detail["inputs_sha256"])
                metric_sets.add(tuple(sorted(printed)))
            if len(inputs) != len(SEEDS):
                failures.append(f"{workload} trace {trace}: seeds {SEEDS} gave the same inputs")
            if len(metric_sets) != 1:
                failures.append(f"{workload} trace {trace}: the metric set depends on the seed")
            print(f"{workload} trace {trace}: checked", flush=True)
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
