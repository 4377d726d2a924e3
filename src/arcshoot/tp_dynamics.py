"""Per-arc state/costate dynamics on normalized time [0, 1] and the RK4 stepper.

Each arc of the transformed problem evolves on s in [0, 1] with the physical
duration ``dt_k = tau_k - tau_{k-1}`` folded into the right-hand side.  The
control is eliminated algebraically per arc kind: fixed to a bound on bang
arcs, the constraint-preserving feedback on constrained arcs and the
second-derivative stationarity feedback on singular arcs.

All evaluation helpers broadcast over leading batch axes, so many shooting
iterates or grid nodes propagate at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arc_structure import ArcKind, ArcStructure
from .errors import (
    ConfigurationError,
    FirstOrderViolation,
    NonFiniteState,
    SingularDenominatorError,
)
from .problem_def import (
    BRACKET_F1F0_F0,
    BRACKET_F1F0_F1,
    BRACKET_F1_F0,
    ProblemDef,
    gamma_control,
    gamma_from_fields,
    gamma_gradient,
    guarded_ratio,
    lie_bracket,
)


def arc_control(prob: ProblemDef, kind: ArcKind, x: np.ndarray, costate: np.ndarray):
    """Control value prescribed by the arc kind at (x, p).

    Bang arcs return the bound, constrained arcs the feedback Gamma(x),
    singular arcs -(p [[f1,f0],f0]) / (p [[f1,f0],f1]).  The singular
    denominator is guarded; the Legendre-Clebsch sign is checked separately
    by the solution validator.
    """
    if kind is ArcKind.BMinus:
        if prob.u_min is None:
            raise ConfigurationError("B- arc with absent lower bound")
        return prob.u_min
    if kind is ArcKind.BPlus:
        if prob.u_max is None:
            raise ConfigurationError("B+ arc with absent upper bound")
        return prob.u_max
    if kind is ArcKind.Constrained:
        return gamma_control(prob, x)
    num = -np.einsum("...i,...i->...", costate, lie_bracket(prob, BRACKET_F1F0_F0, x))
    return guarded_ratio(num, costate, lie_bracket(prob, BRACKET_F1F0_F1, x), x,
                         SingularDenominatorError)


def legendre_clebsch_value(prob: ProblemDef, x: np.ndarray, costate: np.ndarray):
    """p [[f1,f0],f1](x); the strengthened condition requires this < 0 on S arcs."""
    b1 = lie_bracket(prob, BRACKET_F1F0_F1, x)
    return np.einsum("...i,...i->...", costate, b1)


def arc_field(prob: ProblemDef, kind: ArcKind, x: np.ndarray, costate: np.ndarray, w=None):
    """Arc velocity v = f0 + w f1 and D_x H for H = p (f0 + w f1).

    ``w`` defaults to the arc's control rule; the second-order code passes
    the singular control held fixed instead.  On constrained arcs D_x H
    carries the feedback-gradient term (p f1) dGamma; a singular control is
    treated as independent of x (the chain-rule term vanishes at solutions
    where H_u = 0).
    """
    f0x, f1x = prob.f0(x), prob.f1(x)
    if w is None and kind is ArcKind.Constrained:
        w = gamma_from_fields(prob, np.asarray(x, dtype=float), f0x, f1x)
    elif w is None:
        w = arc_control(prob, kind, x, costate)
    w = np.asarray(w)
    v = f0x + w[..., None] * f1x
    hx = np.einsum("...i,...ij->...j", costate, prob.df0(x) + w[..., None, None] * prob.df1(x))
    if kind is ArcKind.Constrained:
        pf1 = np.einsum("...i,...i->...", costate, f1x)
        hx = hx + pf1[..., None] * gamma_gradient(prob, x)
    return v, hx


def arc_rhs(prob: ProblemDef, kind: ArcKind, dt_k: float, x: np.ndarray, costate: np.ndarray):
    """Coupled rates (dx, dp) = dt_k (v, -D_x H) of the rescaled arc dynamics."""
    v, hx = arc_field(prob, kind, x, costate)
    return dt_k * v, -dt_k * hx


def arc_hamiltonian(prob: ProblemDef, kind: ArcKind, x: np.ndarray, costate: np.ndarray):
    """H = p (f0 + w f1) with the arc's control rule."""
    v, _ = arc_field(prob, kind, x, costate)
    return np.einsum("...i,...i->...", costate, v)


def constraint_multiplier_density(prob: ProblemDef, x: np.ndarray, costate: np.ndarray):
    """Density nu = (p [f1,f0]) / (dg f1) of the constraint measure on a C arc.

    Complementarity requires nu >= 0; used as a post-solve sign diagnostic.
    """
    num = np.einsum("...i,...i->...", costate, lie_bracket(prob, BRACKET_F1_F0, x))
    return guarded_ratio(num, prob.dg(x), prob.f1(x), x, FirstOrderViolation)


@dataclass
class ArcGrid:
    """One propagated arc: nodes s_i with states, costates and controls."""

    kind: ArcKind
    s: np.ndarray        # (M+1,)
    x: np.ndarray        # (M+1, ..., n)
    p: np.ndarray        # (M+1, ..., n)
    w: np.ndarray        # (M+1, ...)


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


def _arc_nodes(prob, kind, dt_k, x0, p0, M):
    """RK4 nodes of the stacked (x, p) arc system, step 1/M, as a generator."""
    if M < 1:
        raise ConfigurationError(f"step count must be >= 1, got {M}")
    n = prob.n
    rate = lambda i, c, y: np.concatenate(arc_rhs(prob, kind, dt_k, y[..., :n], y[..., n:]),
                                          axis=-1)
    y0 = np.concatenate(np.broadcast_arrays(np.asarray(x0, dtype=float),
                                            np.asarray(p0, dtype=float)), axis=-1)
    return rk4(rate, y0, M, 1.0 / M)


def propagate_arc(
    prob: ProblemDef,
    kind: ArcKind,
    dt_k: float,
    x0: np.ndarray,
    p0: np.ndarray,
    M: int,
) -> ArcGrid:
    """Classical RK4 with step 1/M on the coupled (x, p) system; full grid.

    Broadcasts over batched initial data; the node axis comes first.
    """
    nodes = []
    for y in _arc_nodes(prob, kind, dt_k, x0, p0, M):
        if not np.all(np.isfinite(y)):
            raise NonFiniteState(
                f"non-finite state at arc node {len(nodes)} (kind {kind.value})")
        nodes.append(y)
    y = np.stack(nodes)
    x, p = y[..., : prob.n], y[..., prob.n :]
    w = np.empty(y.shape[:-1])
    w[...] = arc_control(prob, kind, x, p)
    return ArcGrid(kind=kind, s=np.linspace(0.0, 1.0, M + 1), x=x, p=p, w=w)


def propagate_endpoint(prob, kind, dt_k, x0, p0, M):
    """Terminal (x, p) of the arc only; broadcasts over batched initial data."""
    for y in _arc_nodes(prob, kind, dt_k, x0, p0, M):
        pass
    if not np.all(np.isfinite(y)):
        raise NonFiniteState(f"non-finite state on arc of kind {kind.value}")
    return y[..., : prob.n], y[..., prob.n :]


def durations(tau, T):
    """Arc durations (..., N) from interior switching times (..., N-1) on [0, T]."""
    tau = np.asarray(tau, dtype=float)
    lo = np.concatenate([np.zeros(tau.shape[:-1] + (1,)), tau], axis=-1)
    hi = np.concatenate([tau, np.full(tau.shape[:-1] + (1,), T)], axis=-1)
    return hi - lo


@dataclass
class TPTrajectory:
    """Per-arc grids of the transformed problem plus its switching times."""

    arcs: list
    tau: np.ndarray      # interior switching times, length N-1
    T: float

    def arc_times(self, k: int) -> np.ndarray:
        """Original-time nodes of arc k (0-based): t = tau_k + dt_k s."""
        start = np.concatenate(([0.0], self.tau))[k]
        return start + durations(self.tau, self.T)[k] * self.arcs[k].s

    def cost(self, prob: ProblemDef) -> float:
        return float(prob.phi(self.arcs[0].x[0], self.arcs[-1].x[-1]))


def propagate_structure(
    prob: ProblemDef, struct: ArcStructure, x0_arcs, p0_arcs, M: int
) -> TPTrajectory:
    """Propagate every arc of a structure from its initial (x, p) pair."""
    dts = durations(struct.tau, prob.T)
    arcs = [propagate_arc(prob, kind, dts[k], x0_arcs[k], p0_arcs[k], M)
            for k, kind in enumerate(struct.kinds)]
    return TPTrajectory(arcs=arcs, tau=np.asarray(struct.tau, dtype=float), T=prob.T)


def propagate_solution(prob: ProblemDef, struct: ArcStructure, omega, M: int) -> TPTrajectory:
    """Propagate a shooting vector: arc kinds from the structure, times from omega."""
    return propagate_structure(prob, struct.with_tau(omega.tau), omega.x0, omega.p0, M)


def write_tp_csv(path, traj: TPTrajectory) -> None:
    """Export `arc,k,s,t,u,x1..xn,p1..pn` with t mapped back to original time."""
    n = traj.arcs[0].x.shape[1]
    header = ["arc", "k", "s", "t", "u"]
    header += [f"x{i + 1}" for i in range(n)] + [f"p{i + 1}" for i in range(n)]
    lines = [",".join(header)]
    for k, arc in enumerate(traj.arcs):
        t = traj.arc_times(k)
        for i in range(arc.s.size):
            row = [arc.kind.value, str(k + 1), f"{arc.s[i]:.9g}", f"{t[i]:.9g}",
                   f"{arc.w[i]:.9g}"]
            row += [f"{v:.9g}" for v in arc.x[i]]
            row += [f"{v:.9g}" for v in arc.p[i]]
            lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
