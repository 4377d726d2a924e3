"""Benchmark of the arcshoot CLI pipelines on the built-in regulator.

Usage, from the root of a checkout of the repository:

    python3 perfbench/run.py --workload warm --seed 1 --seconds 22 --trace 0

One client runs jobs in a closed loop: each job calls
``arcshoot.cli.main(argv)`` in this process and the next job starts only
after the previous one has finished.  Every job writes into a fresh output
directory and is checked against hard-coded reference values.  The last
line of standard output is the result object; the line before it holds
the run's details (environment, input digest, per-job times, failures).
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
SETUP_TIMEOUT_S = 150
SETUP_RUNS = 3          # set-up samples: this process plus two fresh child interpreters


def load_program():
    """Import arcshoot from the checkout's src/; exit 1 when it is not there."""
    src = ROOT / "src"
    if not (src / "arcshoot" / "__init__.py").is_file():
        sys.exit(f"perfbench: no arcshoot sources under {src}")
    sys.path.insert(0, str(src))
    import arcshoot
    import arcshoot.cli

    if Path(arcshoot.__file__).resolve().parent != (src / "arcshoot").resolve():
        sys.exit(f"perfbench: imported arcshoot from {arcshoot.__file__}, not from {src}")
    return arcshoot.cli.main


def run_job(cli_main, argvs) -> tuple:
    """Run the job's CLI calls in order; (exit codes, captured output)."""
    codes = []
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            for argv in argvs:
                codes.append(cli_main(argv))
        except Exception:  # a crash is a failed job, not a failed run
            traceback.print_exc()
    return codes, buf.getvalue()


class Run:
    """Inputs, output directories and per-job outcomes of one benchmark run."""

    def __init__(self, workload: str, seed: int, work_dir: Path):
        from workloads import generate_inputs

        self.workload = workload
        self.work_dir = work_dir
        self.inputs = generate_inputs(workload, seed, work_dir / "inputs")
        self.jobs = []

    def job(self, cli_main, j: int, before=None, after=None) -> None:
        from workloads import job_argvs

        out_dir = Path(tempfile.mkdtemp(prefix=f"job{j:04d}_", dir=self.work_dir))
        argvs = job_argvs(self.workload, j, self.inputs, out_dir)
        state = before() if before else None
        t0 = time.perf_counter()
        codes, log = run_job(cli_main, argvs)
        dur = time.perf_counter() - t0
        extra = after(state) if after else {}
        self.jobs.append({"j": j, "s": dur, "codes": codes, "out": out_dir, "log": log, **extra})

    def check(self) -> list:
        """Check every job's outputs; returns the failures."""
        from workloads import check_job

        failures = []
        for rec in self.jobs:
            rec["bytes"] = sum(p.stat().st_size for p in rec["out"].rglob("*") if p.is_file())
            reason = check_job(self.workload, rec["out"], rec["codes"])
            if reason:
                failures.append({"job": rec["j"], "reason": reason, "log": rec["log"][-2000:]})
        return failures


def setup_probe(args, t0: float) -> int:
    """One set-up sample in this fresh interpreter: import, inputs, warm-up job."""
    cli_main = load_program()
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"setup_{args.workload}_", dir=WORK))
    try:
        run = Run(args.workload, args.seed, work_dir)
        run.job(cli_main, 0)
        setup_s = time.perf_counter() - t0
        failures = run.check()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"setup_s": setup_s, "failures": failures}))
    return 0


def child_setup(args) -> tuple:
    """(setup seconds or None, failure or None) of a set-up sample in a child."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, {"job": "setup", "reason": f"set-up sample exceeded {SETUP_TIMEOUT_S} s"}
    try:
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None, {"job": "setup", "reason": f"set-up sample exit {proc.returncode}",
                      "log": proc.stderr[-2000:]}
    fail = doc["failures"][0] if doc["failures"] else None
    return doc["setup_s"], fail


def blas_record() -> dict:
    """BLAS library, version and current thread count as numpy's OpenBLAS reports them."""
    import ctypes
    import numpy as np

    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError) as exc:
        info["error"] = f"numpy build info: {exc}"
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({parts[5] for parts in (line.split() for line in fh)
                           if len(parts) >= 6 and "blas" in os.path.basename(parts[5]).lower()})
    except OSError as exc:
        libs = []
        info["maps_error"] = str(exc)
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                info["library"] = path
                return info
    info["threads_missing"] = "no OpenBLAS thread-count symbol in the loaded libraries"
    return info


def env_record(seed: int, loadavg: tuple) -> dict:
    import hashlib
    import platform

    import numpy as np

    digest = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(p.relative_to(ROOT)).encode())
        digest.update(p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(loadavg),
        "git_commit": commit,
        "git_commit_missing": None if commit else "checkout is not a git repository",
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def median(xs):
    return statistics.median(xs) if xs else None


def measure(args, cli_main, run: Run, t_setup_start: float) -> tuple:
    """Untraced run: (end-to-end metrics, details, attempted, failures)."""
    import resource

    run.job(cli_main, 0)                        # warm-up job, excluded from job_s.p50
    setups = [time.perf_counter() - t_setup_start]
    setup_failures = []
    for _ in range(SETUP_RUNS - 1):
        s, fail = child_setup(args)
        if s is not None:
            setups.append(s)
        if fail:
            setup_failures.append(fail)
    t0 = time.perf_counter()
    j = 1
    while True:
        run.job(cli_main, j)
        j += 1
        if time.perf_counter() - t0 >= args.seconds:
            break
    wall = time.perf_counter() - t0
    timed = [r["s"] for r in run.jobs[1:]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = run.check() + setup_failures
    attempted = len(run.jobs) + SETUP_RUNS - 1
    metrics = {
        "job_s.p50": (median(timed), "s"),
        "jobs_per_s": (len(timed) / wall, "1/s"),
        "pass_frac": ((attempted - len(failures)) / attempted, "ratio"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    details = {"setup_samples_s": setups, "job_s": timed, "timed_wall_s": wall,
               "fail_frac": len(failures) / attempted}
    return metrics, details, attempted, failures


def measure_traced(args, cli_main, run: Run) -> tuple:
    """Traced run: per-layer metrics.  Every input runs three times: untraced,
    with spans, and with counted callbacks (no spans, so the counters' cost
    stays out of the span times)."""
    from spans import Recorder, job_metrics, layer_shares

    with open(ROOT / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    rec = Recorder()

    def spans_on():
        rec.install(spans=True)
        return rec.begin_job(len(run.jobs))

    def spans_off(root):
        rec.end_job(root)
        rec.uninstall()
        return {"root": root}

    def counters_on():
        rec.install(spans=False)
        rec.reset_counters()

    def counters_off(_):
        rec.uninstall()
        return {"counters": rec.counters()}

    run.job(cli_main, 0)
    t0 = time.perf_counter()
    j = 1
    while True:
        run.job(cli_main, j)
        run.job(cli_main, j, spans_on, spans_off)
        run.job(cli_main, j, counters_on, counters_off)
        j += 1
        if time.perf_counter() - t0 >= args.seconds:
            break
    failures = run.check()
    traced = [r for r in run.jobs if "root" in r]
    counted = {r["j"]: r["counters"] for r in run.jobs if "counters" in r}
    untraced = [r for r in run.jobs[1:] if "root" not in r and "counters" not in r]
    per_job = []
    reasons = {}
    for r in traced:
        m, why = job_metrics(rec.spans, r["root"], counted[r["j"]], rec.missing)
        m["cli.write_bytes"] = r["bytes"]
        per_job.append(m)
        reasons.update(why)
    overhead = median([r["s"] for r in traced]) - median([r["s"] for r in untraced])
    metrics = {}
    for name, unit in units.items():
        if name == "trace.overhead_s":
            metrics[name] = (overhead, unit)
            continue
        vals = [m.get(name) for m in per_job]
        metrics[name] = (None if any(v is None for v in vals) else median(vals), unit)
    shares = [layer_shares(rec.spans, r["root"]) for r in traced]
    names = sorted({k for s in shares for k in s})
    med_shares = {k: median([s.get(k, 0.0) for s in shares]) for k in names}
    trace_path = WORK / f"trace_{args.workload}_seed{args.seed}.json"
    with open(trace_path, "w") as fh:
        json.dump({"spans": [vars(s) for s in rec.spans],
                   "jobs": [{"job": r["j"], "root": r["root"], **counted[r["j"]]} for r in traced]},
                  fh)
    details = {
        "missing": reasons,
        "layer_share_p50": med_shares,
        "dominant_layer": max(med_shares, key=med_shares.get),
        "untraced_job_s": [r["s"] for r in untraced],
        "traced_job_s": [r["s"] for r in traced],
        "counted_job_s": [r["s"] for r in run.jobs if "counters" in r],
        "spans_file": str(trace_path.relative_to(ROOT)),
        "fail_frac": len(failures) / len(run.jobs),
    }
    return metrics, details, len(run.jobs), failures


def main(argv=None) -> int:
    t_start = time.perf_counter()
    loadavg = os.getloadavg()
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=22.0,
                    help="timed length of the run; at least one job always runs")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args, t_start)

    cli_main = load_program()
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"run_{args.workload}_", dir=WORK))
    try:
        run = Run(args.workload, args.seed, work_dir)
        if args.trace:
            metrics, details, attempted, failures = measure_traced(args, cli_main, run)
        else:
            metrics, details, attempted, failures = measure(args, cli_main, run, t_start)
        from workloads import inputs_digest

        digest = inputs_digest(run.inputs)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "inputs_sha256": digest,
              "env": env_record(args.seed, loadavg), "failures": failures, **details}
    with open(WORK / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json", "w") as fh:
        json.dump({"detail": detail, "result": result}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
