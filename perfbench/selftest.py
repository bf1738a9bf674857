"""Self-test of the benchmark (takes about six minutes).

    python3 perfbench/selftest.py

Checks that
- two traced runs with the same seed give identical work counters, and a
  different seed changes the refine-corpus counters;
- every untraced run is correct and reports each end-to-end metric of
  BENCHMARK.json with its unit;
- the traced runs show the layer predictions the workloads were chosen
  for (LP time dominates bound-chain; no LP calls outside it; no
  entailment calls in semantics-walk);
- without the ``src`` tree next to it the benchmark exits non-zero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("bound-chain", "refine-corpus", "semantics-walk")


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[dict, dict]:
    command = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    child = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE, text=True, check=True)
    detail, result = child.stdout.strip().splitlines()[-2:]
    return json.loads(detail)["detail"], json.loads(result)


def work_counters(result: dict) -> dict:
    """Per-layer values that count work rather than time it."""
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] != "s" and name != "trace.overhead_ratio"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    problems = []

    traced = {}
    for workload in WORKLOADS:
        detail, first = run(workload, 11, 1)
        _, second = run(workload, 11, 1)
        traced[workload] = (detail, first)
        if work_counters(first) != work_counters(second):
            diff = {k: (v, work_counters(second)[k]) for k, v in work_counters(first).items()
                    if work_counters(second)[k] != v}
            problems.append(f"{workload}: same seed, different counters {diff}")
        if not first["correct"]:
            problems.append(f"{workload} (traced): {detail['failures']}")

    _, other = run("refine-corpus", 12, 1)
    if work_counters(other) == work_counters(traced["refine-corpus"][1]):
        problems.append("refine-corpus: seeds 11 and 12 give the same counters")

    for workload in WORKLOADS:
        detail, result = run(workload, 11, 0)
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload}: {detail['failures']}")
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        if units != end_to_end:
            problems.append(f"{workload}: metrics {units}, declared {end_to_end}")

    def layer(workload: str, name: str) -> float:
        return traced[workload][1]["metrics"][name]["value"]

    chain_detail = traced["bound-chain"][0]
    if layer("bound-chain", "ratlp.solve_s") < 0.9 * chain_detail["rounds_wall_s"][1]:
        problems.append("bound-chain: LP solving is under 90% of the traced round")
    for workload in ("refine-corpus", "semantics-walk"):
        if layer(workload, "ratlp.solve_calls") != 0:
            problems.append(f"{workload}: LP calls")
    if layer("semantics-walk", "linear.entails_calls") != 0:
        problems.append("semantics-walk: entailment calls")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    command = [sys.executable, HERE.name + "/run.py", "--workload", "bound-chain",
               "--seed", "1", "--seconds", "1", "--trace", "0"]
    child = subprocess.run(command, cwd=bare, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=180)
    if child.returncode == 0 or child.stdout.strip():
        problems.append("without src/ the benchmark did not fail cleanly")
    shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
