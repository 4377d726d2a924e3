"""Arc state/costate dynamics on normalized time [0, 1] and the RK4 stepper.

Each arc of the transformed problem evolves on s in [0, 1] with the physical
duration ``dt_k = tau_k - tau_{k-1}`` folded into the right-hand side.  The
control is eliminated algebraically per arc kind: fixed to a bound on bang
arcs, the constraint-preserving feedback on constrained arcs and the
second-derivative stationarity feedback on singular arcs.

Once their initial (x, p) and durations are known the arcs are independent,
so all arcs of a structure step together: the field takes states
(..., N, n), one row of the arc axis per arc kind, and one RK4 pass
propagates every arc.  All helpers broadcast over the leading batch axes as
well, so many shooting iterates or grid nodes propagate at once.  What the
control rules need from the arc kinds alone (each kind's positions, the
bang bounds, the constrained arcs' slice) is set up once per pass by
:func:`arc_rules`, not at every RK4 stage.  A pass over a batch can keep
the nodes of its first row, which :func:`node_trajectory` turns into that
row's trajectory; :func:`propagate_arc` solves the same nodes at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arc_structure import ArcKind, arcs_of, write_csv
from .errors import (ArcshootError, ConfigurationError, FirstOrderViolation, NonFiniteState,
                     SingularDenominatorError)
from .problem_def import (ProblemDef, bracket_f1_f0, central_diff, gamma_control,
                          gamma_gradient, guarded_ratio, second_brackets)

CHORD_ITERS = 8     # chord iterations of propagate_arc before it falls back


def legendre_clebsch_value(prob: ProblemDef, x: np.ndarray, costate: np.ndarray):
    """p [[f1,f0],f1](x); the strengthened condition requires this < 0 on S arcs."""
    return np.einsum("...i,...i->...", costate, second_brackets(prob, x)[1])


def arc_rules(prob: ProblemDef, kinds) -> dict:
    """Kind -> (positions, bang bound or None) of every kind in ``kinds``, in order of appearance.

    The set-up the control rules share, made once per pass: each kind's
    arc positions (:func:`arcs_of`) and the bound a bang arc takes.  Raises
    :class:`ConfigurationError` when a bang arc's bound is absent.
    """
    bounds = {ArcKind.BMinus: ("lower", prob.u_min), ArcKind.BPlus: ("upper", prob.u_max)}
    rules = {}
    for kind in dict.fromkeys(kinds):
        side, bound = bounds.get(kind, (None, None))
        if side is not None and bound is None:
            raise ConfigurationError(f"{kind.value} arc with absent {side} bound")
        rules[kind] = (arcs_of(kinds, kind), bound)
    return rules


def arc_controls(prob: ProblemDef, kinds, x: np.ndarray, costate: np.ndarray, f0x, f1x,
                 singular=None, rules=None):
    """Control of every arc, (..., N), from states and costates (..., N, n).

    Each kind's rule runs on its own arcs' slice only, so a guard never sees
    another kind's rows.  Bang arcs take their bound, constrained arcs the
    feedback Gamma from the field values f0x, f1x, and singular arcs
    -(p [[f1,f0],f0]) / (p [[f1,f0],f1]) with a guarded denominator (the
    Legendre-Clebsch sign is checked by the solution validator), or the
    values ``singular`` (..., S) if given.  ``rules`` is
    ``arc_rules(prob, kinds)``, made here when not given.
    """
    w = np.empty(np.broadcast_shapes(x.shape[:-1], costate.shape[:-1]))
    for kind, (i, bound) in (arc_rules(prob, kinds) if rules is None else rules).items():
        if bound is not None:
            w[..., i] = bound
        elif kind is ArcKind.Constrained:
            w[..., i] = gamma_control(prob, x[..., i, :], f0x[..., i, :], f1x[..., i, :])
        elif singular is not None:
            w[..., i] = singular
        else:
            xk, pk = x[..., i, :], costate[..., i, :]
            b0, b1 = second_brackets(prob, xk)
            w[..., i] = guarded_ratio(-np.einsum("...i,...i->...", pk, b0), pk, b1, xk,
                                      SingularDenominatorError)
    return w


def arc_field(prob: ProblemDef, kinds, x: np.ndarray, costate: np.ndarray, singular=None,
              rules=None):
    """Velocity v = f0 + w f1 and D_x H for H = p (f0 + w f1) of all arcs, (..., N, n) each.

    f0, f1, df0 and df1 are evaluated once on the stack.  On constrained arcs
    D_x H carries the feedback-gradient term (p f1) dGamma; a singular control,
    from its rule or held fixed by ``singular``, is treated as independent of
    x (the chain-rule term vanishes at solutions where H_u = 0).  ``rules`` is
    ``arc_rules(prob, kinds)``, made here when not given.
    """
    rules = arc_rules(prob, kinds) if rules is None else rules
    x = np.asarray(x, dtype=float)
    f0x, f1x = prob.f0(x), prob.f1(x)
    w = arc_controls(prob, kinds, x, costate, f0x, f1x, singular, rules)
    v = f0x + w[..., None] * f1x
    hx = np.einsum("...i,...ij->...j", costate, prob.df0(x) + w[..., None, None] * prob.df1(x))
    if ArcKind.Constrained in rules:
        c = rules[ArcKind.Constrained][0]
        pf1 = np.einsum("...i,...i->...", costate[..., c, :], f1x[..., c, :])
        hx[..., c, :] = hx[..., c, :] + pf1[..., None] * gamma_gradient(prob, x[..., c, :])
    return v, hx


def arc_hamiltonian(prob: ProblemDef, kinds, x: np.ndarray, costate: np.ndarray):
    """H = p (f0 + w f1) of every arc with its control rule, (..., N)."""
    v, _ = arc_field(prob, kinds, x, costate)
    return np.einsum("...i,...i->...", costate, v)


def constraint_multiplier_density(prob: ProblemDef, x: np.ndarray, costate: np.ndarray):
    """Density nu = (p [f1,f0]) / (dg f1) of the constraint measure on a C arc.

    Complementarity requires nu >= 0; used as a post-solve sign diagnostic.
    """
    num = np.einsum("...i,...i->...", costate, bracket_f1_f0(prob, x))
    return guarded_ratio(num, prob.dg(x), prob.f1(x), x, FirstOrderViolation)


def rk4(rate, y0, steps: int, h: float):
    """Classical RK4 for y' = rate(i, c, y); yields y_0, ..., y_steps.

    ``c`` is the stage time inside step ``i`` in units of ``h``: 0 for the
    first stage, 0.5 for the two midpoint stages, 1 for the last.  This is
    the one RK4 update of the package.
    """
    y = y0
    yield y
    for i in range(steps):
        k1 = rate(i, 0.0, y)
        k2 = rate(i, 0.5, y + 0.5 * h * k1)
        k3 = rate(i, 0.5, y + 0.5 * h * k2)
        k4 = rate(i, 1.0, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        yield y


def durations(tau, T):
    """Arc durations (..., N) from interior switching times (..., N-1) on [0, T]."""
    tau = np.asarray(tau, dtype=float)
    lo = np.concatenate([np.zeros(tau.shape[:-1] + (1,)), tau], axis=-1)
    hi = np.concatenate([tau, np.full(tau.shape[:-1] + (1,), T)], axis=-1)
    return hi - lo


def _arc_system(prob, kinds, tau, x0, p0, M):
    """Rate and initial node of the stacked (x, p) system of all arcs, for :func:`rk4`.

    The arc-kind set-up (:func:`arc_rules`) is made here, once per pass, so
    an absent bang bound raises before the first step.  The rate does not
    depend on the step or the stage time.
    """
    if M < 1:
        raise ConfigurationError(f"step count must be >= 1, got {M}")
    n, dts = prob.n, durations(tau, prob.T)[..., None]
    rules = arc_rules(prob, kinds)

    def rate(i, c, y):
        """Coupled rates dt_k (v, -D_x H) of the rescaled arcs."""
        v, hx = arc_field(prob, kinds, y[..., :n], y[..., n:], rules=rules)
        return np.concatenate([dts * v, -dts * hx], axis=-1)

    y0 = np.concatenate(np.broadcast_arrays(np.asarray(x0, dtype=float),
                                            np.asarray(p0, dtype=float)), axis=-1)
    return rate, y0


def _arc_nodes(prob, kinds, tau, x0, p0, M):
    """RK4 nodes of the stacked (x, p) system of all arcs, step 1/M, as a generator."""
    return rk4(*_arc_system(prob, kinds, tau, x0, p0, M), M, 1.0 / M)


def _check_finite(y, kinds, where: str) -> None:
    """Raise :class:`NonFiniteState` naming the kind of the first non-finite arc."""
    if not np.all(np.isfinite(y)):
        bad = np.nonzero(~np.all(np.isfinite(y), axis=-1))[-1][0]
        raise NonFiniteState(f"non-finite state {where} (kind {kinds[bad].value})")


@dataclass
class TPTrajectory:
    """Every arc of the transformed problem on the shared grid s_i = i / M.

    Node axis first, arc axis next: ``x[:, k]`` is arc k.  A batched
    propagation puts its batch axes between the two.
    """

    kinds: tuple
    tau: np.ndarray      # interior switching times, (..., N-1)
    T: float
    x: np.ndarray        # (M+1, ..., N, n)
    p: np.ndarray        # (M+1, ..., N, n)
    w: np.ndarray        # (M+1, ..., N)

    @property
    def s(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.x.shape[0])

    def times(self) -> np.ndarray:
        """Original-time nodes (M+1, N) of one trajectory: t = tau_{k-1} + dt_k s."""
        start = np.concatenate(([0.0], self.tau))
        return start + durations(self.tau, self.T) * self.s[:, None]

    def cost(self, prob: ProblemDef) -> float:
        return float(prob.phi(self.x[0, 0], self.x[-1, -1]))


def node_trajectory(prob: ProblemDef, kinds, tau, nodes) -> TPTrajectory:
    """The trajectory of RK4 nodes y_0, ..., y_M of the stacked (x, p) system, (..., N, 2n) each.

    ``nodes`` may be a generator: each node is checked for finiteness as it
    comes, and the first non-finite one raises :class:`NonFiniteState`.
    """
    ys = []
    for y in nodes:
        _check_finite(y, kinds, f"at arc node {len(ys)}")
        ys.append(y)
    y = np.stack(ys)
    x, p = y[..., : prob.n], y[..., prob.n :]
    return TPTrajectory(kinds=tuple(kinds), tau=np.asarray(tau, dtype=float), T=prob.T, x=x, p=p,
                        w=arc_controls(prob, kinds, x, p, prob.f0(x), prob.f1(x)))


def propagate_arc(prob: ProblemDef, kinds, tau, x0: np.ndarray, p0: np.ndarray,
                  M: int) -> TPTrajectory:
    """One RK4 pass, step 1/M, over every arc from (x0, p0), (..., N, n), with times ``tau``.

    The M steps y_{i+1} = Psi(y_i), Psi one RK4 step, are solved at all nodes at once
    by a chord iteration from y_i = y_0 (Bellen & Zennaro 1989; Lim et al., DEER,
    2024), J being Psi's Jacobian at y_0.  Each iteration takes F_i = y_{i+1} - Psi(y_i)
    at all nodes in one call, solves delta_{i+1} = J delta_i - F_i by a doubling scan
    and sets y_{i+1} = Psi(y_i) + J delta_i, until max|F| <= 4 eps max(1, max|y|).  An
    :class:`ArcshootError`, a non-finite iterate or ``CHORD_ITERS`` iterations fall
    back to stepping the nodes in order, so every error is that recursion's own.
    """
    apply = lambda a, v: np.einsum("...ij,...j->...i", a, v)
    try:
        rate, y0 = _arc_system(prob, kinds, tau, x0, p0, M)
        psi = lambda y: tuple(rk4(rate, y, 1, 1.0 / M))[1]
        J = central_diff(psi, y0)[1]
        y = np.broadcast_to(y0, (M + 1,) + y0.shape)
        tol = 4.0 * np.finfo(float).eps
        with np.errstate(all="ignore"):     # a diverging iterate falls back below
            for _ in range(CHORD_ITERS):
                step = psi(y[:-1])
                delta = step - y[1:]        # -F
                err = np.max(np.abs(delta)) / max(1.0, np.max(np.abs(y)))
                if err <= tol or not np.isfinite(err):
                    break
                Jk, s = J, 1
                while s < M:        # delta_{i+1} = sum_{j <= i} J^(i-j) (-F_j)
                    delta[s:] = delta[s:] + apply(Jk, delta[:-s])
                    Jk, s = Jk @ Jk, 2 * s
                y = np.concatenate([y0[None], step])
                y[2:] += apply(J, delta[:-1])
        if err <= tol:
            return node_trajectory(prob, kinds, tau, y)
    except ArcshootError:
        pass
    return node_trajectory(prob, kinds, tau, _arc_nodes(prob, kinds, tau, x0, p0, M))


def propagate_endpoint(prob, kinds, tau, x0, p0, M, centre=None):
    """Terminal (x, p) of every arc, (..., N, n) each, from one RK4 pass with times ``tau``.

    With a list ``centre``, a copy of every node's first batch row, (N, 2n),
    is appended to it: that row's grid, for :func:`node_trajectory`.
    """
    for y in _arc_nodes(prob, kinds, tau, x0, p0, M):
        if centre is not None:
            centre.append(y[(0,) * (y.ndim - 2)].copy())
    _check_finite(y, kinds, "at the arc ends")
    return y[..., : prob.n], y[..., prob.n :]


def write_tp_csv(path, traj: TPTrajectory) -> None:
    """Export `arc,k,s,t,u,x1..xn,p1..pn` with t mapped back to original time."""
    n = traj.x.shape[-1]
    header = ["arc", "k", "s", "t", "u"]
    header += [f"x{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
    t = traj.times()
    write_csv(path, header, [
        ((kind.value, str(k + 1)),
         np.column_stack([traj.s, t[:, k], traj.w[:, k], traj.x[:, k], traj.p[:, k]]))
        for k, kind in enumerate(traj.kinds)])
