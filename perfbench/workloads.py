"""The benchmark workloads: seeded inputs, CLI jobs and output checks.

Every job is one or two calls of ``arcshoot.cli.main(argv)`` on the built-in
regulator.  The reference values the checks compare against are written out
here on purpose instead of being read from ``arcshoot.problems``, so that a
change to the program cannot move its own yardstick.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

WORKLOADS = ("warm", "perturbed", "cold", "certify")

# Regulator reference solution (closed form; see the README of the repo).
REF_COST = 0.3925013
REF_COST_TOL = 1e-7
REF_TAU = (1.2, 2.6)
REF_TAU_TOL = 1e-6
REF_RESIDUAL = 1e-8
REF_STRUCTURE = ["B-", "C", "S"]

# Second-order certificate at the seed commit: the margin-based verdict is
# `pass: false` by design (an exact null direction along junction shifts),
# and c_est sits at the discretization floor of the grid.
REF_VERIFY = {
    200: {"nullspace_dim": 202, "c_est": 3.56997302e-06},
    400: {"nullspace_dim": 402, "c_est": 8.94552980e-07},
}
REF_C_EST_RTOL = 1e-6

STEPS = "1000"
WARM_NODES = 200
CERTIFY_NODES = 400
PERTURB_SCALES = (0.05, 0.10, 0.20)
# Distinct perturbed starts generated per run; job j uses start j mod this.
PERTURB_POOL = 32


def generate_inputs(workload: str, seed: int, in_dir: Path) -> list:
    """Write the workload's input files into in_dir; the same seed gives the same bytes."""
    if workload not in ("perturbed", "certify"):
        return []
    from arcshoot import problems
    from arcshoot.shooting import ShootingVector, save_omega

    prob = problems.get_problem("regulator")
    struct = problems.regulator_structure()
    exact = problems.regulator_analytic_omega()
    in_dir.mkdir(parents=True, exist_ok=True)
    if workload == "certify":
        path = in_dir / "certify_omega.json"
        save_omega(path, struct, exact, prob, int(STEPS))
        return [path]
    flat = exact.pack()
    n_c = exact.gamma.size
    paths = []
    for j in range(PERTURB_POOL):
        rng = np.random.default_rng([seed, j])
        scale = PERTURB_SCALES[j % len(PERTURB_SCALES)]
        pert = flat * (1.0 + scale * rng.uniform(-1.0, 1.0, flat.size))
        omega = ShootingVector.unpack(pert, struct.N, prob.n, prob.q, n_c)
        path = in_dir / f"perturbed_{j:02d}.json"
        save_omega(path, struct, omega, prob, int(STEPS))
        paths.append(path)
    return paths


def inputs_digest(paths) -> str:
    """sha256 over the names and bytes of the generated inputs, in order."""
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def job_argvs(workload: str, j: int, inputs: list, out_dir: Path) -> list:
    """CLI argument lists of job number j (0 is the warm-up job)."""
    out = str(out_dir)
    solve = ["solve", "--problem", "regulator", "--steps", STEPS, "--out", out]
    if workload == "warm":
        return [
            solve + ["--structure", "B-,C,S", "--init", "analytic"],
            ["verify", "--problem", "regulator", "--omega", str(out_dir / "omega.json"),
             "--nodes", str(WARM_NODES), "--out", out],
        ]
    if workload == "perturbed":
        return [solve + ["--structure", "B-,C,S", "--init", str(inputs[j % len(inputs)])]]
    if workload == "cold":
        return [solve + ["--structure", "detect", "--init", "direct"]]
    if workload == "certify":
        return [["verify", "--problem", "regulator", "--omega", str(inputs[0]),
                 "--nodes", str(CERTIFY_NODES), "--out", out]]
    raise ValueError(f"unknown workload {workload!r}")


class CheckFailed(Exception):
    """A job's output differs from the reference."""


def _load(path: Path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _check_solve(out_dir: Path, code: int, structure: bool) -> None:
    _expect(code == 0, f"solve exit code {code}, expected 0")
    rep = _load(out_dir / "report.json")
    _expect(rep.get("converged") is True, "solve not converged")
    _expect(rep.get("rank_deficient") is False, "solve reports a rank-deficient Jacobian")
    res = rep["gauss_newton"]["final_residual"]
    _expect(res <= REF_RESIDUAL, f"final_residual {res:.3e} > {REF_RESIDUAL:g}")
    _expect(abs(rep["cost"] - REF_COST) <= REF_COST_TOL, f"cost {rep['cost']!r}")
    tau = rep["tau"]
    _expect(len(tau) == len(REF_TAU)
            and max(abs(a - b) for a, b in zip(tau, REF_TAU)) <= REF_TAU_TOL, f"tau {tau!r}")
    if structure:
        _expect(rep["structure"] == REF_STRUCTURE, f"structure {rep['structure']!r}")


def _check_verify(out_dir: Path, code: int, nodes: int) -> None:
    _expect(code == 2, f"verify exit code {code}, expected 2")
    pos = _load(out_dir / "positivity.json")
    ref = REF_VERIFY[nodes]
    _expect(pos.get("pass") is False, f"verify pass={pos.get('pass')!r}, expected false")
    _expect(pos["nullspace_dim"] == ref["nullspace_dim"], f"nullspace_dim {pos['nullspace_dim']}")
    rel = abs(pos["c_est"] - ref["c_est"]) / abs(ref["c_est"])
    _expect(rel <= REF_C_EST_RTOL, f"c_est {pos['c_est']!r} (rel err {rel:.2e})")


def check_job(workload: str, out_dir: Path, codes: list):
    """None when the job's outputs match the reference, else the reason."""
    try:
        if workload == "warm":
            _expect(len(codes) == 2, f"{len(codes)} of 2 steps ran")
            _check_solve(out_dir, codes[0], structure=False)
            _check_verify(out_dir, codes[1], WARM_NODES)
        elif workload in ("perturbed", "cold"):
            _expect(len(codes) == 1, "solve did not run")
            _check_solve(out_dir, codes[0], structure=workload == "cold")
        else:
            _expect(len(codes) == 1, "verify did not run")
            _check_verify(out_dir, codes[0], CERTIFY_NODES)
    except (CheckFailed, KeyError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
