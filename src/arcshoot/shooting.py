"""Shooting unknowns, residual assembly, FD Jacobian and the Gauss-Newton driver.

The unknown vector stacks, in a fixed documented order, the arc initial
states, the interior switching times, the arc initial costates, the endpoint
multiplier and one entry multiplier per constrained arc:

    omega = (x0^1, ..., x0^N, tau_1, ..., tau_{N-1},
             p0^1, ..., p0^N, Psi, gamma)

The residual stacks endpoint constraints, constrained-arc entry values,
state continuity, initial transversality, costate jumps, final
transversality, Hamiltonian continuity at junctions and the two
singular-entry conditions.  It has exactly 2 |I(S)| more rows than there are
unknowns, so the system is solved in the least-squares sense by
Gauss-Newton with a rank-revealing (SVD) step.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .arc_structure import ArcKind, ArcStructure, arcs_of
from .errors import ArcshootError, ConfigurationError, NonFiniteResidual
from .problem_def import ProblemDef, bracket_f1_f0, central_diff, check_first_order
from .tp_dynamics import (
    TPTrajectory,
    arc_hamiltonian,
    constraint_multiplier_density,
    legendre_clebsch_value,
    node_trajectory,
    propagate_endpoint,
)

SVD_RCOND = 1e-10
MAX_HALVINGS = 20
STEP_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# Packing
# ---------------------------------------------------------------------------


def _packed_size(N: int, n: int, q: int, n_c: int) -> int:
    return 2 * N * n + (N - 1) + q + n_c


def unknown_dim(struct: ArcStructure, n: int, q: int) -> int:
    return _packed_size(struct.N, n, q, struct.kinds.count(ArcKind.Constrained))


def residual_dim(struct: ArcStructure, n: int, q: int) -> int:
    return unknown_dim(struct, n, q) + 2 * struct.kinds.count(ArcKind.Singular)


@dataclass
class ShootingVector:
    """Packed shooting unknowns; see the module docstring for the order."""

    x0: np.ndarray     # (N, n)
    tau: np.ndarray    # (N-1,)
    p0: np.ndarray     # (N, n)
    psi: np.ndarray    # (q,)
    gamma: np.ndarray  # one entry per constrained arc, in arc order

    def __post_init__(self):
        self.x0 = np.atleast_2d(np.asarray(self.x0, dtype=float))
        self.tau = np.asarray(self.tau, dtype=float).reshape(-1)
        self.p0 = np.atleast_2d(np.asarray(self.p0, dtype=float))
        self.psi = np.asarray(self.psi, dtype=float).reshape(-1)
        self.gamma = np.asarray(self.gamma, dtype=float).reshape(-1)
        if self.x0.shape != self.p0.shape:
            raise ConfigurationError(
                f"x0 and p0 must agree in shape, got {self.x0.shape} vs {self.p0.shape}"
            )
        if self.tau.size != self.x0.shape[0] - 1:
            raise ConfigurationError(
                f"{self.x0.shape[0]} arcs require {self.x0.shape[0] - 1} switching times"
            )

    def pack(self) -> np.ndarray:
        return np.concatenate(
            [self.x0.ravel(), self.tau, self.p0.ravel(), self.psi, self.gamma]
        )

    @classmethod
    def unpack(cls, flat: np.ndarray, N: int, n: int, q: int, n_c: int) -> "ShootingVector":
        flat = np.asarray(flat, dtype=float).reshape(-1)
        expect = _packed_size(N, n, q, n_c)
        if flat.size != expect:
            raise ConfigurationError(f"packed length {flat.size}, expected {expect}")
        return cls(*_unpack_batch(flat, N, n, q))


def check_sizes(prob: ProblemDef, struct: ArcStructure, omega: ShootingVector) -> None:
    """Raise :class:`ConfigurationError` unless omega fits struct and prob.

    Omega's fields must have the sizes of struct and prob, then struct with
    omega's switching times must pass :meth:`ArcStructure.validate`.
    """
    for name, want in (("x0", (struct.N, prob.n)), ("p0", (struct.N, prob.n)), ("psi", (prob.q,)),
                       ("gamma", (struct.kinds.count(ArcKind.Constrained),))):
        got = getattr(omega, name).shape
        if got != want:
            raise ConfigurationError(f"omega.{name} has shape {got}, the structure expects {want}")
    struct.with_tau(omega.tau).validate(prob)


def _unpack_batch(flats: np.ndarray, N: int, n: int, q: int):
    """Split packed vectors (..., m) into fields with the same leading axes."""
    x0, tau, p0, psi, gamma = np.split(flats, np.cumsum([N * n, N - 1, N * n, q]), axis=-1)
    lead = flats.shape[:-1] + (N, n)
    return x0.reshape(lead), tau, p0.reshape(lead), psi, gamma


# ---------------------------------------------------------------------------
# Residual
# ---------------------------------------------------------------------------


@dataclass
class ShootingResidual:
    """Residual blocks in stacking order plus the flat vector."""

    endpoint: np.ndarray
    constraint_entry: np.ndarray
    state_continuity: np.ndarray
    transversality_0: np.ndarray
    costate_jumps: np.ndarray
    transversality_T: np.ndarray
    hamiltonian_continuity: np.ndarray
    singular_stationarity: np.ndarray
    singular_rate: np.ndarray

    @property
    def stacked(self) -> np.ndarray:
        return np.concatenate([getattr(self, f.name) for f in fields(self)])


def steps_per_arc(struct: ArcStructure, steps: int) -> int:
    if steps < struct.N:
        raise ConfigurationError(f"need at least one step per arc, got {steps} for N={struct.N}")
    return round(steps / struct.N)


def constraint_rows(prob, struct, x0, x1):
    """Endpoint map, constrained-arc entry values and state continuity, (..., rows) each.

    ``x0`` and ``x1`` hold the initial and terminal states of every arc,
    (..., N, n).  These are the first three residual blocks, and the
    constraints whose Jacobian the second-order certificate linearizes.
    """
    N, n = struct.N, prob.n
    xc = x1[..., : N - 1, :] - x0[..., 1:, :]
    entry = x0[..., arcs_of(struct.kinds, ArcKind.Constrained), :]
    return [np.asarray(prob.Phi(x0[..., 0, :], x1[..., N - 1, :]), dtype=float),
            np.asarray(prob.g(entry), dtype=float), xc.reshape(xc.shape[:-2] + (n * (N - 1),))]


def endpoint_gradient(prob, struct, x0, x1, psi, gamma):
    """Gradient (l0, l1) of the endpoint Lagrangian over every arc's initial and final state.

    l = phi(x0^1, x1^N) + psi . Phi(x0^1, x1^N) + sum_j gamma_j g(x0^{k_j})
    over the constrained arcs k_j.  ``x0``, ``x1``, ``l0`` and ``l1`` are
    (..., N, n) over the broadcast batch axes of all four arguments.  The
    residual's transversality and jump rows and the certificate's endpoint
    Hessian both read it.
    """
    N = struct.N
    c = arcs_of(struct.kinds, ArcKind.Constrained)
    d0, dT = prob.dphi(x0[..., 0, :], x1[..., N - 1, :])
    D0, DT = prob.dPhi(x0[..., 0, :], x1[..., N - 1, :])
    lead = np.broadcast_shapes(x0.shape[:-2], x1.shape[:-2], psi.shape[:-1], gamma.shape[:-1])
    l0, l1 = np.zeros(lead + x0.shape[-2:]), np.zeros(lead + x1.shape[-2:])
    l0[..., 0, :] = d0 + np.einsum("...q,...qi->...i", psi, D0)
    if c:
        l0[..., c, :] += gamma[..., None] * prob.dg(x0[..., c, :])
    l1[..., N - 1, :] = dT + np.einsum("...q,...qi->...i", psi, DT)
    return l0, l1


def _assemble(prob, struct, flats, x1, p1):
    """The residual blocks, in :class:`ShootingResidual` field order, (..., rows) each.

    ``flats`` are packed vectors (..., m) whose arcs end at (x1, p1).  A
    one-arc structure has an empty Hamiltonian-continuity block.
    """
    N, n, kinds = struct.N, prob.n, struct.kinds
    x0, _, p0, psi, gamma = _unpack_batch(flats, N, n, prob.q)
    l0, l1 = endpoint_gradient(prob, struct, x0, x1, psi, gamma)
    jumps = p1[..., :-1, :] - p0[..., 1:, :] - l0[..., 1:, :]
    ham = (arc_hamiltonian(prob, kinds[:-1], x1[..., :-1, :], p1[..., :-1, :])
           - arc_hamiltonian(prob, kinds[1:], x0[..., 1:, :], p0[..., 1:, :])
           if N > 1 else np.empty(x1.shape[:-2] + (0,)))
    s = arcs_of(kinds, ArcKind.Singular)
    xs, ps = x0[..., s, :], p0[..., s, :]
    blocks = [*constraint_rows(prob, struct, x0, x1), p0[..., 0, :] + l0[..., 0, :],
              jumps.reshape(jumps.shape[:-2] + (n * (N - 1),)),
              p1[..., N - 1, :] - l1[..., N - 1, :], ham,
              np.einsum("...i,...i->...", ps, prob.f1(xs)),
              np.einsum("...i,...i->...", ps, bracket_f1_f0(prob, xs))]
    if not all(np.all(np.isfinite(b)) for b in blocks):
        raise NonFiniteResidual("shooting residual contains non-finite entries")
    return blocks


def _residual_flat_batch(prob, struct, flats, M, centre=None):
    """Stacked residual of packed vectors (..., m); a 1-D vector is one row.

    ``centre`` goes to :func:`propagate_endpoint`, which appends the first
    row's nodes to it.
    """
    x0, tau, p0, _, _ = _unpack_batch(flats, struct.N, prob.n, prob.q)
    ends = propagate_endpoint(prob, struct.kinds, tau, x0, p0, M, centre=centre)
    return np.concatenate(_assemble(prob, struct, flats, *ends), axis=-1)


def _linearize(prob, struct, flat, M):
    """Residual, central-difference Jacobian and grid nodes at a packed vector.

    One (2m + 1)-row pass with the point itself as row 0; the nodes, a list
    of (N, 2n) arrays for :func:`node_trajectory`, are that row's.
    """
    nodes = []
    r, J = central_diff(lambda z: _residual_flat_batch(prob, struct, z, M, nodes), flat)
    return r, J, nodes


def shooting_function(
    prob: ProblemDef, struct: ArcStructure, omega: ShootingVector, steps: int = 1000
) -> ShootingResidual:
    """Evaluate the residual blocks at omega with the given total step count."""
    check_sizes(prob, struct, omega)
    M = steps_per_arc(struct, steps)
    ends = propagate_endpoint(prob, struct.kinds, omega.tau, omega.x0, omega.p0, M)
    return ShootingResidual(*_assemble(prob, struct, omega.pack(), *ends))


# ---------------------------------------------------------------------------
# Jacobian and Gauss-Newton
# ---------------------------------------------------------------------------


def fd_jacobian(
    prob: ProblemDef, struct: ArcStructure, omega: ShootingVector, steps: int = 1000
) -> np.ndarray:
    """Central-difference Jacobian of the stacked residual, all stencil rows in one batch."""
    check_sizes(prob, struct, omega)
    return _linearize(prob, struct, omega.pack(), steps_per_arc(struct, steps))[1]


def _minimum_norm_step(J: np.ndarray, r: np.ndarray):
    """Least-squares minimum-norm solution of J s = -r via truncated SVD."""
    U, svals, Vt = np.linalg.svd(J, full_matrices=False)
    cutoff = SVD_RCOND * svals[0] if svals.size else 0.0
    rank = int(np.sum(svals > cutoff))
    coeff = (U[:, :rank].T @ (-r)) / svals[:rank]
    return Vt[:rank].T @ coeff, svals, rank


@dataclass
class ConvergenceReport:
    """Per-iteration history and final diagnostics of a Gauss-Newton run."""

    iterations: list = field(default_factory=list)
    converged: bool = False
    stalled: bool = False
    final_residual: float = np.inf
    jacobian_rank: int = 0
    smallest_singular_value: float = 0.0
    order_estimate: float = float("nan")
    trajectory: TPTrajectory = None   # grid of the last accepted iterate; not in JSON

    @property
    def n_iter(self) -> int:
        return len(self.iterations)

    @property
    def residual_history(self) -> list:
        return [it["residual_norm"] for it in self.iterations] + [self.final_residual]

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("stalled", "trajectory")}
        doc["order_estimate"] = None if np.isnan(self.order_estimate) else self.order_estimate
        return doc


def _order_estimate(history) -> float:
    """Slope of log ||S_{j+1}|| against log ||S_j|| over the last clean pairs."""
    floor = 1e-13
    pairs = [
        (np.log(a), np.log(b))
        for a, b in zip(history, history[1:])
        if a > floor and b > floor and a < 1.0
    ]
    pairs = pairs[-3:]
    if len(pairs) < 2:
        return float("nan")
    xs = np.array([p[0] for p in pairs])
    ys = np.array([p[1] for p in pairs])
    return float(np.polyfit(xs, ys, 1)[0])


def gauss_newton(
    prob: ProblemDef,
    struct: ArcStructure,
    omega0: ShootingVector,
    steps: int = 1000,
    tol: float = 1e-8,
    max_iter: int = 50,
):
    """Solve S(omega) = 0 in the least-squares sense; quadratic near a zero.

    Each step is the minimum-norm solution of the linearized system; the
    2-norm of the residual gates acceptance with up to 20 step halvings.
    Each point (the start and every trial) takes its residual, Jacobian and
    grid from one batched pass; the rank verdict and the report's trajectory
    read the last accepted one.
    Returns the last accepted iterate and a :class:`ConvergenceReport`
    whose ``converged``, ``stalled`` and ``jacobian_rank`` say how the solve
    ended: a missed tolerance or a rank below the number of unknowns is a
    finding for the caller to act on, not an error.
    """
    check_sizes(prob, struct, omega0)
    M = steps_per_arc(struct, steps)
    flat = omega0.pack()
    report = ConvergenceReport()

    r, J, nodes = _linearize(prob, struct, flat, M)
    for _ in range(max_iter):
        rinf = np.linalg.norm(r, np.inf)
        if rinf <= tol:
            break
        step, _, _ = _minimum_norm_step(J, r)
        r2 = np.linalg.norm(r)
        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = flat + alpha * step
            try:
                rt, Jt, nodes_t = _linearize(prob, struct, trial, M)
            except ArcshootError:  # raised in the centre or any stencil row
                pass
            else:
                if np.linalg.norm(rt) < r2:
                    break
            alpha *= 0.5
        else:
            report.stalled = True
            break
        step_norm = alpha * float(np.linalg.norm(step))
        report.iterations.append({"residual_norm": float(rinf), "step_norm": step_norm})
        flat, r, J, nodes = trial, rt, Jt, nodes_t
        if step_norm <= STEP_FLOOR:
            break
    rinf = float(np.linalg.norm(r, np.inf))

    omega_star = ShootingVector(*_unpack_batch(flat, struct.N, prob.n, prob.q))
    _, svals, report.jacobian_rank = _minimum_norm_step(J, r)
    report.converged = rinf <= tol
    report.final_residual = rinf
    report.smallest_singular_value = float(svals[-1]) if svals.size else 0.0
    report.order_estimate = _order_estimate(report.residual_history)
    report.trajectory = node_trajectory(prob, struct.kinds, omega_star.tau, nodes)
    return omega_star, report


# ---------------------------------------------------------------------------
# Solution validation
# ---------------------------------------------------------------------------


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    value: float
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}


def validate_solution(prob: ProblemDef, struct: ArcStructure,
                      traj: TPTrajectory) -> ValidationReport:
    """Post-solve structural checks on the propagated solution ``traj``.

    Failures are findings, not exceptions.
    """
    def worst_check(name, vals, worst, test, detail, vacuous):
        """``test`` on the worst of ``vals``; with no values it passes at +-inf."""
        if not vals:
            return ValidationCheck(name, True, np.inf if worst is min else -np.inf, vacuous)
        v = float(worst(vals))
        return ValidationCheck(name, bool(test(v)), v, detail)

    kinds = struct.kinds
    C, S = ArcKind.Constrained, ArcKind.Singular
    # (x, p, w) of the arcs of each interior kind, arc-major: (arcs, M+1, ...).
    on = {kind: [np.swapaxes(a[:, arcs_of(kinds, kind)], 0, 1) for a in (traj.x, traj.p, traj.w)]
          for kind in (C, S) if kind in kinds}
    margins = [np.minimum(w - prob.u_min if prob.u_min is not None else np.inf,
                          prob.u_max - w if prob.u_max is not None else np.inf).min()
               for _, _, w in on.values()]
    jumps = np.abs(traj.w[-1, :-1] - traj.w[0, 1:])
    cs_jumps = [jumps[k] for k in range(struct.N - 1) if {kinds[k], kinds[k + 1]} == {C, S}]
    fo = check_first_order(prob, on[C][0] if C in on else [])
    checks = [
        worst_check("bound_margin_on_interior_arcs", margins, min, lambda v: v > 0.0,
                    "min distance of u to its bounds over C and S arcs", "no C or S arcs"),
        worst_check("control_jump_at_cs_junctions", cs_jumps, min, lambda v: v > 1e-6,
                    "control must be discontinuous across CS/SC junctions",
                    "no CS or SC junctions"),
        ValidationCheck("first_order_condition_on_c_arcs", fo.passed, fo.min_abs,
                        f"min |dg.f1| vs guard {fo.guard:.3e}"),
        worst_check("legendre_clebsch_sign_on_s_arcs",
                    [np.max(legendre_clebsch_value(prob, *on[S][:2]))] if S in on else [],
                    max, lambda v: v < 0.0, "p [[f1,f0],f1] must stay negative", "no S arcs"),
        worst_check("constraint_multiplier_nonnegative",
                    [np.min(constraint_multiplier_density(prob, *on[C][:2]))] if C in on else [],
                    min, lambda v: v >= -1e-8, "complementarity requires nu >= 0 on C arcs",
                    "no C arcs"),
    ]

    gmax = float(np.max(prob.g(traj.x)))
    checks.append(ValidationCheck(
        "state_constraint_satisfied", gmax <= 1e-6, gmax, "max g(x) over all nodes"))

    h = arc_hamiltonian(prob, kinds, traj.x, traj.p)
    hdrift = float(np.max(np.max(np.abs(h - h[0]), axis=0) / (1.0 + np.abs(h[0]))))
    checks.append(ValidationCheck(
        "hamiltonian_constant_per_arc", hdrift <= 1e-6, hdrift,
        "max relative drift of H along each arc"))

    return ValidationReport(checks=checks)


# ---------------------------------------------------------------------------
# Warm-start files
# ---------------------------------------------------------------------------


def save_omega(path, struct: ArcStructure, omega: ShootingVector, prob: ProblemDef,
               steps: int) -> None:
    doc = {
        "structure": {"kinds": struct.tokens(), "tau": [float(t) for t in omega.tau]},
        "omega": [float(v) for v in omega.pack()],
        "meta": {
            "N": struct.N,
            "n": prob.n,
            "q": prob.q,
            "n_constrained": struct.kinds.count(ArcKind.Constrained),
            "n_singular": struct.kinds.count(ArcKind.Singular),
            "steps": steps,
        },
    }
    write_json(path, doc)


def write_json(path, doc: dict) -> None:
    """Write ``doc`` with one-space indents, sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_json_object(path) -> dict:
    """The JSON object in ``path``; anything else is a :class:`ConfigurationError`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigurationError(f"{path} must hold a JSON object, not {type(doc).__name__}")
    return doc


def load_omega(path, prob: ProblemDef) -> tuple:
    """Read a warm-start file for a problem of prob's size; returns (structure, omega, meta)."""
    doc = read_json_object(path)

    def get(key):
        val = doc
        for k in key.split("."):
            if not isinstance(val, dict) or k not in val:
                raise ConfigurationError(f"{path} has no key {key!r}")
            val = val[k]
        return val

    def listed(key, what, item):
        val = get(key)
        try:
            if not isinstance(val, list):
                raise TypeError(f"got {val!r}")
            return [item(v) for v in val]
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path} key {key!r} is not a list of {what}: {exc}") from exc

    sizes = {k: get(f"meta.{k}") for k in ("N", "n", "q", "n_constrained", "n_singular")}
    for k, v in sizes.items():
        if type(v) is not int:
            raise ConfigurationError(f"{path} key 'meta.{k}' must be an integer, got {v!r}")
    N, n, q, n_c, n_s = sizes.values()
    if (n, q) != (prob.n, prob.q):
        raise ConfigurationError(
            f"{path} holds a solution with n={n}, q={q}; "
            f"the problem has n={prob.n}, q={prob.q}")
    kinds = listed("structure.kinds", "arc tokens", str)
    tau = listed("structure.tau", "numbers", float)
    try:
        struct = ArcStructure.from_tokens(kinds, tau)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path} key 'structure': {exc}") from exc
    counts = [struct.kinds.count(kind) for kind in (ArcKind.Constrained, ArcKind.Singular)]
    if struct.N != N or counts != [n_c, n_s]:
        raise ConfigurationError(f"warm-start metadata inconsistent with structure in {path}")
    packed = np.array(listed("omega", "numbers", float))
    if bad := np.flatnonzero(~np.isfinite(packed)).tolist():
        raise ConfigurationError(f"{path} key 'omega' has non-finite entries at positions {bad}")
    omega = ShootingVector.unpack(packed, N, n, q, n_c)
    if not np.array_equal(omega.tau, struct.tau):
        raise ConfigurationError(f"{path} holds switching times {list(struct.tau)} in "
                                 f"'structure.tau' but {omega.tau.tolist()} in 'omega'")
    return struct, omega, get("meta")
