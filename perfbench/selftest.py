"""Smoke self-test of the benchmark.

Runs every workload run.py knows (those of BENCHMARK.json and the
hand-run ``perturbed`` one) with one timed job (``--seconds 0``), untraced
and traced, and checks that the result line has the agreed keys, that its
metric names and units are exactly those of BENCHMARK.json, and that every
job passed its output check.  Run from the root of the repository:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(bench: dict, workload: str, trace: int) -> list:
    cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    expected = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        errors.append(f"metrics differ: missing {sorted(set(expected) - set(got))}, "
                      f"extra {sorted(set(got) - set(expected))}, "
                      f"units {[(k, got[k]) for k in expected if k in got and got[k] != expected[k]]}")
    nulls = [k for k, v in result["metrics"].items() if v["value"] is None]
    if nulls:
        errors.append(f"null metrics {nulls}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        errors.append(f"correct={result['correct']} attempted={result['attempted']} "
                      f"failed={result['failed']}")
    return errors


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    from workloads import WORKLOADS

    names = [wl["name"] for wl in bench["workloads"]]
    bad = 0
    for name in names + [w for w in WORKLOADS if w not in names]:
        for trace in (0, 1):
            errors = check(bench, name, trace)
            print(f"{name:10s} trace={trace}: {'ok' if not errors else '; '.join(errors)}")
            bad += bool(errors)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
