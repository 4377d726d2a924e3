#!/usr/bin/env python3
"""Check that the CLI outputs of this checkout are byte-identical to REF's.

    python scripts/check_identical.py REF

REF is any git revision of this repository (a commit, branch or tag).  The
script extracts REF's ``src/`` into a temporary directory with
``git archive`` and runs the same regulator pipelines on both source trees,
one subprocess per step:

* ``scripts/run_regulator.py`` of this checkout: the warm solve
  (``--init analytic --steps 1000``), ``verify --nodes 200`` on it, a
  ``detect`` and the cold solve (``--structure detect --init direct``);
* ``verify --nodes 400`` on the warm ``omega.json``;
* ``verify --nodes 200`` and ``--nodes 400`` on an ``omega.json`` written
  from ``problems.regulator_analytic_omega()``;
* a standalone ``detect``, then ``detect --from-csv`` on its
  ``direct_trajectory.csv``, with and without ``--min-arc-len 0.3``;
* the toy-bang ``solve`` and ``verify`` (one arc, no C or S arcs);
* ``solve`` of ``arcshoot.problems:make_regulator_fd_brackets`` (no analytic
  brackets and no ``dgamma``, so the finite-difference fallbacks run) from
  the warm ``omega.json``, then ``verify --nodes 100`` on its result;
* ``solve`` from an ``omega.json`` whose entries are the analytic ones
  scaled by ``1 + 0.4 U(-1, 1)`` (seed 1), where Gauss-Newton iterates and
  rejects one full step before it converges (20 % starts converge without a
  halving), and the same solve with ``--max-iter 1``, which ends
  unconverged with exit code 1;
* ``multi_arc``: the regulator's ``B-,S,C,S,B+`` and ``B-,C,S,C,S``
  structures, each from seeded (seed 3) arc starts and multipliers: the
  trajectory over 60 steps per arc as ``trajectory.csv``, a full-precision
  validation JSON, and the full-precision residual and FD Jacobian at the
  same grid, so that repeated arc kinds and their residual rows are covered.
  For ``B-,C,S,C,S`` also the full-precision ``check_positivity`` report
  at 60 nodes (``positivity.json``), so that the certificate's constraint
  rows of two constrained arcs are covered.  For ``B-,S,C,S,B+`` also the
  full-precision singular-arc coefficients ``B``, ``E``, ``HUX``, ``Mmat``
  and ``Rmat`` of ``linearized_matrices`` at 60 nodes (one ``.txt`` file
  each, one row per node), so that a change to their derivation shows on
  two channels and both tau columns.  The same files again for
  ``make_regulator_fd_brackets`` (subdirectories prefixed ``fd_``), so that
  the finite-difference second-level brackets and feedback gradient on
  repeated S and C arcs are covered too;
* ``direct``: every field of two direct solves as full-precision JSON, the
  toy-bang with a free initial state (grid 20, 1500 iterations) and the
  regulator with its pinned one (grid 60, 250 iterations, penalty weight 10),
  so that both kinds of start are covered.
* ``perturbed_pool``: ``gauss_newton`` at 1000 steps on the regulator from 9
  starts, start ``j`` being the analytic entries scaled by ``1 + s U(-1, 1)``
  with ``default_rng([1, j])`` and ``s`` cycling through 5, 10 and 20 %; the
  last start is solved with ``max_iter=1`` and ends unconverged.
  The full-precision report (``to_json_dict``), the exception if one ends the
  solve, the packed solution and the report's trajectory (``x``, ``p`` and
  ``w``) of every start go into one JSON file, so that Gauss-Newton's step
  and line-search decisions and the grid it keeps on every exit are covered.

The exit code of every step goes into ``exit_codes.json``.  The script then
compares every output file of the two trees byte for byte, lists each one
that differs or exists on one side only, and exits 1 if there is any such
file, 0 otherwise.  When ``exit_codes.json`` differs, it also prints
``step: REF code → checkout code`` for each step whose exit code changed.
Both trees run one after the other on this machine, and nothing is fetched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SAVE_ANALYTIC = (
    "import sys\n"
    "from arcshoot import problems as P\n"
    "from arcshoot.shooting import save_omega\n"
    "save_omega(sys.argv[1], P.regulator_structure(), P.regulator_analytic_omega(),\n"
    "           P.make_regulator(), 1000)\n"
)
SAVE_PERTURBED = (
    "import sys\n"
    "import numpy as np\n"
    "from arcshoot import problems as P\n"
    "from arcshoot.shooting import ShootingVector, save_omega\n"
    "flat = P.regulator_analytic_omega().pack()\n"
    "flat = flat * (1.0 + 0.4 * np.random.default_rng(1).uniform(-1.0, 1.0, flat.size))\n"
    "save_omega(sys.argv[1], P.regulator_structure(), ShootingVector.unpack(flat, 3, 3, 3, 1),\n"
    "           P.make_regulator(), 1000)\n"
)

MULTI_ARC = (
    "import itertools, json, sys\n"
    "from pathlib import Path\n"
    "import numpy as np\n"
    "from arcshoot import problems as P\n"
    "from arcshoot.arc_structure import ArcStructure\n"
    "from arcshoot.second_order import assemble_omega, check_positivity, linearized_matrices\n"
    "from arcshoot.shooting import (ShootingVector, fd_jacobian, shooting_function,\n"
    "                               validate_solution)\n"
    "from arcshoot.tp_dynamics import propagate_arc, write_tp_csv\n"
    "for (tag, make), tokens in itertools.product(\n"
    "        [('', P.make_regulator), ('fd_', P.make_regulator_fd_brackets)],\n"
    "        [['B-', 'S', 'C', 'S', 'B+'], ['B-', 'C', 'S', 'C', 'S']]):\n"
    "    prob = make()\n"
    "    out = Path(sys.argv[1]) / (tag + ''.join(tokens))\n"
    "    out.mkdir()\n"
    "    struct = ArcStructure.from_tokens(tokens, (0.8, 1.7, 2.9, 4.1))\n"
    "    rng = np.random.default_rng(3)\n"
    "    x0, p0 = rng.uniform(-0.5, 0.5, (5, 3)), rng.uniform(0.5, 1.5, (5, 3))\n"
    "    gamma = rng.normal(size=tokens.count('C'))\n"
    "    omega = ShootingVector(x0, struct.tau, p0, rng.normal(size=3), gamma)\n"
    "    traj = propagate_arc(prob, struct.kinds, omega.tau, omega.x0, omega.p0, 60)\n"
    "    write_tp_csv(out / 'trajectory.csv', traj)\n"
    "    doc = validate_solution(prob, struct, traj).to_json_dict()\n"
    "    (out / 'validation.json').write_text(json.dumps(doc, indent=1, sort_keys=True) + '\\n')\n"
    "    np.savetxt(out / 'residual.txt', shooting_function(prob, struct, omega, 300).stacked,\n"
    "               fmt='%.17g')\n"
    "    np.savetxt(out / 'fd_jacobian.txt', fd_jacobian(prob, struct, omega, 300), fmt='%.17g')\n"
    "    if tokens.count('C') == 2:\n"
    "        rep = check_positivity(assemble_omega(linearized_matrices(prob, struct, omega, 60)))\n"
    "        (out / 'positivity.json').write_text(\n"
    "            json.dumps(rep.to_json_dict(), indent=1, sort_keys=True) + '\\n')\n"
    "    else:\n"
    "        lin = linearized_matrices(prob, struct, omega, 60)\n"
    "        for name in ('B', 'E', 'HUX', 'Mmat', 'Rmat'):\n"
    "            a = getattr(lin, name)\n"
    "            np.savetxt(out / f'{name}.txt', a.reshape(a.shape[0], -1), fmt='%.17g')\n"
)

DIRECT = (
    "import dataclasses, json, sys\n"
    "from pathlib import Path\n"
    "import numpy as np\n"
    "from arcshoot import problems as P\n"
    "from arcshoot.direct_init import DirectSolveConfig, direct_solve\n"
    "runs = {\n"
    "    'toy_bang_free': (dataclasses.replace(P.make_toy_bang(), x0_fixed=None),\n"
    "                      DirectSolveConfig(grid_size=20, max_iters=1500)),\n"
    "    'regulator': (P.make_regulator(),\n"
    "                  DirectSolveConfig(grid_size=60, penalty_weight=10.0, max_iters=250)),\n"
    "}\n"
    "for name, (prob, cfg) in runs.items():\n"
    "    res = direct_solve(prob, cfg)\n"
    "    doc = {k: np.asarray(getattr(res, k)).tolist() for k in\n"
    "           ('t', 'u', 'x', 'x_model', 'lam', 'cost', 'stalled', 'n_iters',\n"
    "            'objective_history')}\n"
    "    (Path(sys.argv[1]) / f'{name}.json').write_text(\n"
    "        json.dumps(doc, indent=1, sort_keys=True) + '\\n')\n"
)

PERTURBED_POOL = (
    "import json, sys\n"
    "import numpy as np\n"
    "from arcshoot import problems as P\n"
    "from arcshoot.errors import ArcshootError\n"
    "from arcshoot.shooting import ShootingVector, gauss_newton\n"
    "prob, struct = P.make_regulator(), P.regulator_structure()\n"
    "flat = P.regulator_analytic_omega().pack()\n"
    "runs = []\n"
    "for j in range(9):\n"
    "    s = (0.05, 0.1, 0.2)[j % 3]\n"
    "    cap = {'max_iter': 1} if j == 8 else {}\n"
    "    start = flat * (1.0 + s * np.random.default_rng([1, j]).uniform(-1.0, 1.0, flat.size))\n"
    "    try:\n"
    "        omega, report = gauss_newton(prob, struct, ShootingVector.unpack(start, 3, 3, 3, 1),\n"
    "                                     steps=1000, **cap)\n"
    "        error = None\n"
    "    except ArcshootError as exc:\n"
    "        omega = report = None\n"
    "        error = f'{type(exc).__name__}: {exc}'\n"
    "    traj = getattr(report, 'trajectory', None)\n"
    "    runs.append({'scale': s, 'max_iter': cap.get('max_iter'), 'error': error,\n"
    "                 'report': report.to_json_dict() if report is not None else None,\n"
    "                 'omega': omega.pack().tolist() if omega is not None else None,\n"
    "                 'trajectory': None if traj is None else\n"
    "                     {f: getattr(traj, f).tolist() for f in ('x', 'p', 'w')}})\n"
    "with open(sys.argv[1], 'w') as fh:\n"
    "    json.dump(runs, fh, indent=1, sort_keys=True)\n"
    "    fh.write('\\n')\n"
)


def steps(out: Path) -> list:
    """(name, argv) of every pipeline step, writing under ``out``."""
    py, cli = sys.executable, [sys.executable, "-m", "arcshoot.cli"]
    warm_omega = out / "regulator" / "regulator_warm" / "omega.json"
    analytic = out / "analytic" / "omega.json"
    toy = out / "toy_bang"
    perturbed = out / "perturbed_start" / "omega.json"
    fd = "arcshoot.problems:make_regulator_fd_brackets"
    return [
        ("run_regulator", [py, str(ROOT / "scripts" / "run_regulator.py"),
                           str(out / "regulator")]),
        ("verify_warm_400", cli + ["verify", "--problem", "regulator", "--omega", str(warm_omega),
                                   "--nodes", "400", "--out", str(out / "verify_warm_400")]),
        ("save_analytic", [py, "-c", SAVE_ANALYTIC, str(analytic)]),
        *[(f"verify_analytic_{m}", cli + ["verify", "--problem", "regulator",
                                          "--omega", str(analytic), "--nodes", str(m),
                                          "--out", str(out / f"verify_analytic_{m}")])
          for m in (200, 400)],
        ("detect", cli + ["detect", "--problem", "regulator", "--out", str(out / "detect")]),
        # Relative to the step's working directory ``out``, so that the
        # ``source`` key of structure.json is the same for both trees.
        *[(f"detect_csv{tag}", cli + ["detect", "--problem", "regulator", "--from-csv",
                                      "detect/direct_trajectory.csv",
                                      "--out", str(out / f"detect_csv{tag}"), *extra])
          for tag, extra in (("", []), ("_min_arc_len", ["--min-arc-len", "0.3"]))],
        ("solve_toy_bang", cli + ["solve", "--problem", "toy-bang", "--structure", "B-",
                                  "--init", "analytic", "--out", str(toy)]),
        ("verify_toy_bang", cli + ["verify", "--problem", "toy-bang", "--omega",
                                   str(toy / "omega.json"), "--out", str(toy)]),
        ("solve_fd", cli + ["solve", "--problem", fd, "--structure", "B-,C,S",
                            "--init", str(warm_omega), "--out", str(out / "fd")]),
        ("verify_fd_100", cli + ["verify", "--problem", fd, "--omega",
                                 str(out / "fd" / "omega.json"), "--nodes", "100",
                                 "--out", str(out / "fd")]),
        ("save_perturbed", [py, "-c", SAVE_PERTURBED, str(perturbed)]),
        *[(f"solve_perturbed{tag}", cli + ["solve", "--problem", "regulator",
                                           "--structure", "B-,C,S", "--init", str(perturbed),
                                           "--out", str(out / f"solve_perturbed{tag}"), *extra])
          for tag, extra in (("", []), ("_max_iter_1", ["--max-iter", "1"]))],
        ("multi_arc", [py, "-c", MULTI_ARC, str(out / "multi_arc")]),
        ("direct", [py, "-c", DIRECT, str(out / "direct")]),
        ("perturbed_pool", [py, "-c", PERTURBED_POOL, str(out / "perturbed_pool.json")]),
    ]


def run_tree(src: Path, out: Path) -> None:
    """Run every step with ``src`` first on the import path; outputs go under ``out``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    where = subprocess.run([sys.executable, "-c", "import arcshoot; print(arcshoot.__file__)"],
                           env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).resolve().is_relative_to(src.resolve()):
        sys.exit(f"check_identical: arcshoot imported from {where}, not from {src}")
    (out / "analytic").mkdir(parents=True)
    (out / "perturbed_start").mkdir()
    (out / "multi_arc").mkdir()
    (out / "direct").mkdir()
    codes = {}
    for name, argv in steps(out):
        proc = subprocess.run(argv, env=env, cwd=out, capture_output=True, text=True)
        codes[name] = proc.returncode
        if proc.returncode == 1 or proc.returncode < 0:
            print(f"  {name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


def files(root: Path) -> set:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


def main() -> int:
    if len(sys.argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    ref = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="check_identical_") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref, "src"],
                                 capture_output=True)
        if archive.returncode:
            sys.exit(f"check_identical: {archive.stderr.decode().strip()}")
        (tmp / "ref").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "ref")], input=archive.stdout, check=True)
        trees = {"ref": tmp / "ref" / "src", "checkout": ROOT / "src"}
        for side, src in trees.items():
            print(f"running the pipelines on {ref if side == 'ref' else 'the checkout'}")
            run_tree(src, tmp / "out" / side)
        a, b = tmp / "out" / "ref", tmp / "out" / "checkout"
        names = sorted(files(a) | files(b))
        bad = []
        for n in names:
            if not (b / n).exists():
                bad.append(f"only in {ref}: {n}")
            elif not (a / n).exists():
                bad.append(f"only in the checkout: {n}")
            elif (a / n).read_bytes() != (b / n).read_bytes():
                bad.append(f"differs: {n}")
        codes = [json.loads((side / "exit_codes.json").read_text()) for side in (a, b)]
    for line in bad:
        print(line)
    for step in sorted(codes[0].keys() | codes[1].keys()):
        if codes[0].get(step) != codes[1].get(step):
            print(f"  {step}: {codes[0].get(step)} → {codes[1].get(step)}")
    print(f"{len(names)} files compared, {len(bad)} not byte-identical")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
