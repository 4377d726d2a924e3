"""Command-line front end: solve / detect / verify pipelines.

Configuration comes from flags or a JSON config file (flags win).  All
floating output is printed with 9 significant digits and no timestamps, so
identical configurations produce byte-identical files.

Exit codes: 0 success (solve: converged and validation clean; verify:
positivity passed), 2 computed but with findings, 1 failure or bad
configuration.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from pathlib import Path

import numpy as np

from .arc_structure import (ArcKind, ArcStructure, detect_structure, read_trajectory_csv,
                            write_trajectory_csv)
from .direct_init import DirectSolveConfig, direct_solve
from .errors import ArcshootError, ConfigurationError
from .problem_def import ProblemDef
from .second_order import assemble_omega, check_positivity, linearized_matrices
from .shooting import (
    ShootingVector,
    gauss_newton,
    load_omega,
    read_json_object,
    save_omega,
    validate_solution,
    write_json,
)
from .tp_dynamics import write_tp_csv
from . import problems as builtin_problems


def _round9(obj):
    """Clamp every float to 9 significant digits for deterministic output."""
    if isinstance(obj, float):
        return float(f"{obj:.9g}")
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def resolve_problem(spec: str) -> ProblemDef:
    """Built-in name, or `module:callable` returning a ProblemDef."""
    if ":" not in spec:
        return builtin_problems.get_problem(spec)
    mod_name, attr = spec.split(":", 1)
    try:
        factory = getattr(importlib.import_module(mod_name), attr)
    except (ImportError, AttributeError) as exc:
        raise ConfigurationError(f"cannot import problem factory {spec!r}: {exc}") from exc
    prob = factory()
    if not isinstance(prob, ProblemDef):
        raise ConfigurationError(f"{spec!r} did not return a ProblemDef")
    return prob


def float_list(text: str) -> list:
    """Comma-separated floats; empty entries are skipped."""
    return [float(v) for v in text.split(",") if v.strip()]


def _merge_config(args: argparse.Namespace) -> dict:
    """The subcommand's flags over the same keys of the ``--config`` file.

    A file value is read as the flag's text would be, by the flag's own type;
    a JSON list stands for its comma-joined entries, null for no value.  A
    key that is a flag of no subcommand is an error.
    """
    types = {a.dest: a.type or str for a in args.parser._actions if a.dest in vars(args)}
    flags = {k: v for k, v in vars(args).items() if k in types and k != "config"}
    cfg = {}
    file_cfg = read_json_object(args.config) if args.config else {}
    unknown = sorted(set(file_cfg) - args.config_keys)
    if unknown:
        raise ConfigurationError(f"{args.config} key {unknown[0]!r} names no flag of any "
                                 "subcommand; write a flag's name with '_' for '-'")
    for k, v in file_cfg.items():
        try:
            if k in flags and v is not None:
                cfg[k] = types[k](",".join(map(str, v)) if isinstance(v, list) else str(v))
        except ValueError as exc:
            raise ConfigurationError(f"{args.config} key {k!r}: invalid "
                                     f"{types[k].__name__} value: {v!r}") from exc
    cfg.update({k: v for k, v in flags.items() if v is not None})
    if "problem" not in cfg:
        raise ConfigurationError("no problem given: use --problem or a 'problem' config key")
    return cfg


def _resolve_structure(prob, cfg) -> tuple:
    """Return (structure, direct_result or None) from the config."""
    tokens = cfg.get("structure")
    if tokens in (None, "detect"):
        dres = _run_direct(prob, cfg)
        struct = detect_structure(prob, dres.t, dres.u, dres.x)
        return struct, dres
    names = [t for t in tokens.split(",") if t.strip()]
    tau = cfg.get("tau")
    if tau is None:
        N = len(names)
        tau = [prob.T * k / N for k in range(1, N)]
    struct = ArcStructure.from_tokens(names, tau)
    struct.validate(prob)
    return struct, None


def _run_direct(prob, cfg):
    return direct_solve(prob, DirectSolveConfig(
        grid_size=cfg.get("grid", 100), penalty_weight=cfg.get("penalty", 1e3),
        max_iters=cfg.get("direct_iters", 800)))


def _initial_omega(prob, struct, cfg, dres) -> ShootingVector:
    init = cfg.get("init", "analytic")
    if init == "analytic":
        try:
            _, ref_struct, ref_omega = builtin_problems.builtin(cfg["problem"])
        except ConfigurationError as exc:
            raise ConfigurationError(
                f"init=analytic needs a built-in problem with a reference solution: {exc}"
            ) from exc
        omega, ref = ref_omega(), ref_struct()
        if ref.kinds != struct.kinds:
            raise ConfigurationError(
                f"init=analytic provides structure {ref.tokens()}, requested {struct.tokens()}"
            )
        tau0 = np.asarray(struct.tau if cfg.get("tau") is not None else ref.tau, dtype=float)
        return ShootingVector(omega.x0, tau0, omega.p0, omega.psi, omega.gamma)
    if init == "direct":
        if dres is None:
            dres = _run_direct(prob, cfg)
        return _omega_from_direct(prob, struct, dres)
    path = Path(init)
    if not path.exists():
        raise ConfigurationError(f"warm-start file {path} does not exist")
    file_struct, omega, _ = load_omega(path, prob)
    if file_struct.kinds != struct.kinds:
        raise ConfigurationError(
            f"warm start has structure {file_struct.tokens()}, requested {struct.tokens()}"
        )
    return omega


def _omega_from_direct(prob, struct, dres) -> ShootingVector:
    """Arc states from the direct trajectory, costates from its adjoint."""
    starts = np.concatenate(([0.0], struct.tau))
    idx = [int(np.argmin(np.abs(dres.t - b))) for b in starts]
    x0 = np.stack([dres.x[i] for i in idx])
    p0 = np.stack([dres.lam[i] for i in idx])
    return ShootingVector(
        x0=x0,
        tau=np.asarray(struct.tau, dtype=float),
        p0=p0,
        psi=-dres.lam[0],
        gamma=np.zeros(struct.kinds.count(ArcKind.Constrained)),
    )


def _failed_solve(out_dir, cfg, message, report, **found) -> int:
    """Print ``message``, write report.json for a solve without a solution; exit code 1."""
    print(f"solve: {message}", file=sys.stderr)
    doc = {"problem": cfg["problem"], "converged": False,
           "gauss_newton": report.to_json_dict(), **found}
    write_json(out_dir / "report.json", _round9(doc))
    return 1


def cmd_solve(cfg, out_dir, prob) -> int:
    steps = cfg.get("steps", 1000)
    struct, dres = _resolve_structure(prob, cfg)
    omega0 = _initial_omega(prob, struct, cfg, dres)

    omega, report = gauss_newton(prob, struct, omega0, steps=steps, tol=cfg.get("tol", 1e-8),
                                 max_iter=cfg.get("max_iter", 50))
    if not report.converged:
        return _failed_solve(out_dir, cfg, f"no convergence after {report.n_iter} iterations, "
                             f"|S|_inf = {report.final_residual:.3e}", report)
    rank_deficient = report.jacobian_rank < omega.pack().size
    try:
        struct = struct.with_tau(omega.tau)
    except ConfigurationError as exc:  # solved switching times out of order
        return _failed_solve(out_dir, cfg, f"error: {exc}", report,
                             tau=[float(t) for t in omega.tau], error=str(exc))
    traj = report.trajectory
    validation = validate_solution(prob, struct, traj)
    write_tp_csv(out_dir / "trajectory.csv", traj)
    save_omega(out_dir / "omega.json", struct, omega, prob, steps)
    doc = {
        "problem": cfg["problem"],
        "structure": struct.tokens(),
        "tau": [float(t) for t in omega.tau],
        "cost": traj.cost(prob),
        "converged": report.converged,
        "rank_deficient": rank_deficient,
        "gauss_newton": report.to_json_dict(),
        "validation": validation.to_json_dict(),
    }
    write_json(out_dir / "report.json", _round9(doc))
    print(
        f"solve: converged={report.converged} cost={doc['cost']:.9g} "
        f"tau={[f'{t:.9g}' for t in doc['tau']]} |S|_inf={report.final_residual:.3e}"
    )
    if rank_deficient or not validation.passed:
        return 2
    return 0


def cmd_detect(cfg, out_dir, prob) -> int:
    if cfg.get("from_csv"):
        t, u, x = read_trajectory_csv(cfg["from_csv"])
        doc_extra = {"source": str(cfg["from_csv"])}
    else:
        dres = _run_direct(prob, cfg)
        t, u, x = dres.t, dres.u, dres.x
        write_trajectory_csv(out_dir / "direct_trajectory.csv", t, u, x)
        doc_extra = {"source": "direct", "direct_cost": dres.cost,
                     "direct_stalled": dres.stalled}
    struct = detect_structure(prob, t, u, x, min_arc_len=cfg.get("min_arc_len"))
    doc = {"kinds": struct.tokens(), "tau": [float(v) for v in struct.tau]}
    doc.update(doc_extra)
    write_json(out_dir / "structure.json", _round9(doc))
    print(f"detect: {','.join(struct.tokens())} tau={[f'{v:.9g}' for v in struct.tau]}")
    return 0


def cmd_verify(cfg, out_dir, prob) -> int:
    omega_path = cfg.get("omega", str(out_dir / "omega.json"))
    struct, omega, _ = load_omega(omega_path, prob)
    qfd = assemble_omega(linearized_matrices(prob, struct, omega, cfg.get("nodes", 200)))
    report = check_positivity(qfd)
    write_json(out_dir / "positivity.json", _round9(report.to_json_dict()))
    print(
        f"verify: c_est={report.c_est:.9g} nullspace_dim={report.nullspace_dim} "
        f"pass={report.passed}"
    )
    return 0 if report.passed else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcshoot",
        description="Shooting solver for bang / constrained / singular arc structures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--problem", help="built-in name or module:callable")
    common.add_argument("--out", help="output directory (default out)")
    common.add_argument("--config", help="JSON config file; flags win")
    direct = argparse.ArgumentParser(add_help=False)
    direct.add_argument("--grid", type=int, help="direct-solve grid size")
    direct.add_argument("--penalty", type=float, help="direct-solve penalty weight")
    direct.add_argument("--direct-iters", dest="direct_iters", type=int)

    ps = sub.add_parser("solve", parents=[common, direct], help="run the shooting pipeline")
    ps.add_argument("--structure", help="comma tokens B-,B+,C,S or 'detect'")
    ps.add_argument("--tau", type=float_list, help="comma-separated interior switching times")
    ps.add_argument("--init", help="analytic | direct | path to omega.json")
    ps.add_argument("--steps", type=int, help="total integration steps (default 1000)")
    ps.add_argument("--tol", type=float, help="residual tolerance (default 1e-8)")
    ps.add_argument("--max-iter", dest="max_iter", type=int)
    ps.set_defaults(func=cmd_solve, parser=ps)

    pd = sub.add_parser("detect", parents=[common, direct],
                        help="direct solve and arc-structure detection")
    pd.add_argument("--from-csv", dest="from_csv", help="classify an existing t,u,x CSV")
    pd.add_argument("--min-arc-len", dest="min_arc_len", type=float)
    pd.set_defaults(func=cmd_detect, parser=pd)

    pv = sub.add_parser("verify", parents=[common], help="second-order positivity certificate")
    pv.add_argument("--omega", help="solved omega.json (default <out>/omega.json)")
    pv.add_argument("--nodes", type=int, help="grid cells per arc (default 200)")
    pv.set_defaults(func=cmd_verify, parser=pv)
    parser.set_defaults(config_keys={a.dest for p in (ps, pd, pv) for a in p._actions} - {"help"})
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        out_dir = Path(cfg.get("out", "out"))
        out_dir.mkdir(parents=True, exist_ok=True)
        return args.func(cfg, out_dir, resolve_problem(cfg["problem"]))
    except (ArcshootError, OSError) as exc:
        print(f"{args.command}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
