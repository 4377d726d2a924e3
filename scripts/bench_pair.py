#!/usr/bin/env python3
"""Run perfbench in alternating pairs of REF and this checkout; write a BENCH file.

    python scripts/bench_pair.py REF OUT.json

REF is any git revision of this repository.  The script extracts REF's
``src/``, ``perfbench/`` and ``BENCHMARK.json`` into a temporary tree with
``git archive`` and copies the same three from this checkout into a second
one, so that both sides run from a directory that is not a git checkout and
holds its own ``.perfbench_work``.  For every workload of ``BENCHMARK.json``
it then runs

    python3 perfbench/run.py --workload W --seed i --seconds 22 --trace 0

for i = 1, ..., 10 on both trees, REF first when i is odd and the checkout
first when i is even, and one traced job per side
(``--seed 1 --seconds 0 --trace 1``).  Every run is its own subprocess, one
at a time.  OUT gets each pair's end-to-end metrics, each side's median and
quartiles, the number of pairs in which the checkout's ``job_s.p50`` and
``peak_rss_mb`` are lower, the exact counters and layer times of the traced
jobs, and the environment record of each side's last untraced run.  A full
run takes about 40 minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TREE = ["src", "perfbench", "BENCHMARK.json"]
PAIRS = 10
SECONDS = 22
COUNTERS = ["tp_dynamics.rk4_steps", "tp_dynamics.propagate_endpoint.calls",
            "shooting.fd_jacobian.calls", "problems.cb_calls", "problems.cb_rows",
            "shooting.gn_iters", "direct_init.iters", "second_order.ncoord"]
LAYERS = ["tp_dynamics.propagate_endpoint_s", "tp_dynamics.propagate_arc_s",
          "shooting.gauss_newton_s", "direct_init.direct_solve_s",
          "second_order.linearized_matrices_s", "second_order.assemble_omega_s",
          "second_order.check_positivity_s"]
SIDES = ("parent", "change")


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """(result, detail) of one ``perfbench/run.py`` run in ``tree``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or len(lines) < 2:
        sys.exit(f"bench_pair: {' '.join(argv[1:])} in {tree} exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def quartiles(xs: list) -> dict:
    p25, p50, p75 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": p50, "p25": p25, "p75": p75}


def workload_record(trees: dict, workload: str) -> dict:
    pairs, env = [], {}
    for seed in range(1, PAIRS + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            result, detail = run(trees[side], workload, seed, SECONDS, 0)
            pair[side] = {k: m["value"] for k, m in result["metrics"].items()}
            pair[side]["correct"] = result["correct"]
            env[side] = detail["env"]
        print(f"{workload} pair {seed}: job_s.p50 parent {pair['parent']['job_s.p50']:.4f} s, "
              f"change {pair['change']['job_s.p50']:.4f} s", flush=True)
        pairs.append(pair)
    metrics = [k for k in pairs[0]["parent"] if k != "correct"]
    summary = {side: {k: quartiles([p[side][k] for p in pairs]) for k in metrics}
               for side in SIDES}
    lower = {k: sum(p["change"][k] < p["parent"][k] for p in pairs)
             for k in ("job_s.p50", "peak_rss_mb")}
    counters, layers = {}, {}
    for side in SIDES:
        result, detail = run(trees[side], workload, 1, 0, 1)
        values = {k: m["value"] for k, m in result["metrics"].items()}
        counters[side] = {k: values[k] for k in COUNTERS} | {"missing": detail["missing"]}
        layers[side] = {k: values[k] for k in LAYERS}
    return {"pairs": pairs, "summary": summary,
            "job_s.p50_change_faster_pairs": f"{lower['job_s.p50']} of {PAIRS}",
            "peak_rss_mb_change_lower_pairs": f"{lower['peak_rss_mb']} of {PAIRS}",
            "traced_counters": counters, "traced_layer_s": layers, "env": env}


def main() -> int:
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    ref, out = sys.argv[1], Path(sys.argv[2])
    short = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", ref],
                           capture_output=True, text=True)
    if short.returncode:
        sys.exit(f"bench_pair: {short.stderr.strip()}")
    with open(ROOT / "BENCHMARK.json") as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    with tempfile.TemporaryDirectory(prefix="bench_pair_") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, *TREE],
                                 capture_output=True)
        if archive.returncode:
            sys.exit(f"bench_pair: {archive.stderr.decode().strip()}")
        trees["parent"].mkdir()
        subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive.stdout,
                       check=True)
        trees["change"].mkdir()
        for name in TREE:
            src, dst = ROOT / name, trees["change"] / name
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, dst)
        doc = {
            "what": "perfbench/run.py end-to-end metrics in alternating parent/change pairs "
                    "and the exact work counters of one traced job per side",
            "parent": short.stdout.strip(),
            "change": f"the commit that adds this file (parent {short.stdout.strip()})",
            "command": f"python3 perfbench/run.py --workload W --seed i --seconds {SECONDS} "
                       "--trace 0, in a copy of each side's src/, perfbench/ and "
                       "BENCHMARK.json; pair i runs the parent first when i is odd and the "
                       "change first when i is even",
            "traced_command": "python3 perfbench/run.py --workload W --seed 1 --seconds 0 "
                              "--trace 1",
            "workloads": {w: workload_record(trees, w) for w in workloads},
        }
    out.write_text(json.dumps(doc, indent=1) + "\n")
    for w, rec in doc["workloads"].items():
        s = rec["summary"]
        print(f"{w}: job_s.p50 {s['parent']['job_s.p50']['median']:.4f} -> "
              f"{s['change']['job_s.p50']['median']:.4f} s, change faster in "
              f"{rec['job_s.p50_change_faster_pairs']} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
