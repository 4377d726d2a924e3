"""Rough direct solve used to detect the arc structure and seed the shooting.

Euler-discretized control grid, quadratic penalty on the state constraint,
projected gradient with a Barzilai-Borwein step and monotone backtracking.
The Euler recursion is only the optimization model; the returned trajectory
and cost re-integrate the found control accurately (RK4 substeps), which
removes the first-order discretization bias from the reported numbers.
Accuracy only needs to support classification and warm starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .problem_def import ProblemDef
from .tp_dynamics import rk4

# RK4 steps per control cell in the re-integration of the found control.
SUBSTEPS = 10
# Step used when the Barzilai-Borwein quotient is undefined, its shrink
# factor per backtracking trial and the number of trials.
STEP_INIT = 1.0
STEP_SHRINK = 0.5
MAX_BACKTRACKS = 40


@dataclass
class DirectSolveConfig:
    grid_size: int = 100
    penalty_weight: float = 1e3
    max_iters: int = 800

    def __post_init__(self):
        if self.grid_size < 10:
            raise ConfigurationError(f"grid_size must be >= 10, got {self.grid_size}")
        if self.penalty_weight <= 0:
            raise ConfigurationError(f"penalty_weight must be > 0, got {self.penalty_weight}")


@dataclass
class DirectSolveResult:
    t: np.ndarray          # (K+1,) node times
    u: np.ndarray          # (K+1,) node-aligned control (last cell repeated)
    x: np.ndarray          # (K+1, n) re-simulated states of the found control
    x_model: np.ndarray    # (K+1, n) Euler-model states used by the optimizer
    lam: np.ndarray        # (K+1, n) discrete adjoint, a costate estimate
    cost: float            # endpoint cost of the re-simulated trajectory
    stalled: bool
    n_iters: int
    objective_history: list  # Euler-model cost + penalty at each accepted iterate


def _initial_control(prob: ProblemDef) -> float:
    if prob.u_min is not None and prob.u_max is not None:
        return 0.5 * (prob.u_min + prob.u_max)
    return 0.0


def _clip(prob: ProblemDef, u: np.ndarray) -> np.ndarray:
    lo = -np.inf if prob.u_min is None else prob.u_min
    hi = np.inf if prob.u_max is None else prob.u_max
    return np.clip(u, lo, hi)


def _pen_grad(prob, x, rho, dt):
    """Gradient of rho max(0, g)^2 dt at every row of x (..., n)."""
    gv = np.asarray(prob.g(x), dtype=float)[..., None]
    return np.where(gv > 0.0, 2.0 * rho * gv * np.asarray(prob.dg(x), dtype=float) * dt, 0.0)


def direct_solve(prob: ProblemDef, cfg: Optional[DirectSolveConfig] = None) -> DirectSolveResult:
    """Minimize the Euler-discretized penalized cost over piecewise controls.

    A pinned initial state (``prob.x0_fixed``) is handled exactly;
    otherwise the initial state joins the decision variables and the
    endpoint map is enforced through the same quadratic penalty as the
    state constraint.  The reported objective is non-increasing across
    accepted iterations; a stalled flag is set when no backtracked step
    decreases it.
    """
    cfg = cfg or DirectSolveConfig()
    free_x0 = prob.x0_fixed is None
    K = cfg.grid_size
    dt = prob.T / K
    rho = cfg.penalty_weight

    def forward(x0, uu):
        xs = np.empty((K + 1, prob.n))
        xs[0] = x0
        for i in range(K):
            xs[i + 1] = xs[i] + dt * (prob.f0(xs[i]) + uu[i] * prob.f1(xs[i]))
        return xs

    def objective(xs):
        viol = np.maximum(0.0, np.asarray(prob.g(xs[1:]), dtype=float))
        val = float(prob.phi(xs[0], xs[-1])) + rho * float(viol @ viol) * dt
        if free_x0 and prob.q:
            bc = np.asarray(prob.Phi(xs[0], xs[-1]), dtype=float)
            val += rho * float(bc @ bc)
        return val

    def gradient(uu, xs):
        lam = np.empty((K + 1, prob.n))
        pen = _pen_grad(prob, xs, rho, dt)
        d0, dT = prob.dphi(xs[0], xs[-1])
        lam[K] = np.asarray(dT, dtype=float) + pen[K]
        extra0 = np.asarray(d0, dtype=float)
        if free_x0 and prob.q:
            bc = np.asarray(prob.Phi(xs[0], xs[-1]), dtype=float)
            D0, DT = prob.dPhi(xs[0], xs[-1])
            lam[K] = lam[K] + 2.0 * rho * bc @ np.asarray(DT, dtype=float)
            extra0 = extra0 + 2.0 * rho * bc @ np.asarray(D0, dtype=float)
        trans = np.eye(prob.n) + dt * (prob.df0(xs[:-1]) + uu[:, None, None] * prob.df1(xs[:-1]))
        for i in range(K - 1, -1, -1):
            lam[i] = lam[i + 1] @ trans[i]
            if i >= 1:
                lam[i] += pen[i]
        gu = dt * np.einsum("ij,ij->i", lam[1:], prob.f1(xs[:-1]))
        gx0 = lam[0] + extra0 if free_x0 else np.zeros(prob.n)
        return gu, gx0, lam

    x0 = np.zeros(prob.n) if free_x0 else np.asarray(prob.x0_fixed, dtype=float)
    u = _clip(prob, np.full(K, _initial_control(prob)))
    xs = forward(x0, u)
    J = objective(xs)
    history = [J]
    alpha = STEP_INIT
    stalled = False
    n_iters = 0
    z_old = None
    g_old = None
    lam = np.zeros((K + 1, prob.n))
    for _ in range(cfg.max_iters):
        gu, gx0, lam = gradient(u, xs)
        grad = np.concatenate([gu, gx0]) if free_x0 else gu
        z = np.concatenate([u, x0]) if free_x0 else u
        if g_old is not None:
            dz = z - z_old
            dg = grad - g_old
            denom = float(dz @ dg)
            alpha = float(dz @ dz) / denom if denom > 1e-14 else STEP_INIT
            alpha = float(np.clip(alpha, 1e-4, 1e3))
        accepted = False
        for _ in range(MAX_BACKTRACKS):
            z_t = z - alpha * grad
            u_t = _clip(prob, z_t[:K])
            x0_t = z_t[K:] if free_x0 else x0
            xs_t = forward(x0_t, u_t)
            J_t = objective(xs_t)
            if J_t < J:
                accepted = True
                break
            alpha *= STEP_SHRINK
        if not accepted:
            stalled = True
            break
        z_old, g_old = z, grad
        u, x0, xs, J = u_t, x0_t, xs_t, J_t
        history.append(J)
        n_iters += 1
        z_new = np.concatenate([u, x0]) if free_x0 else u
        if np.max(np.abs(z_new - z_old)) == 0.0:
            break

    x_acc = _resimulate(prob, x0, u, dt)
    u_nodes = np.concatenate([u, u[-1:]])
    return DirectSolveResult(
        t=np.linspace(0.0, prob.T, K + 1),
        u=u_nodes,
        x=x_acc,
        x_model=xs,
        lam=lam,
        cost=float(prob.phi(x_acc[0], x_acc[-1])),
        stalled=stalled,
        n_iters=n_iters,
        objective_history=history,
    )


def _resimulate(prob: ProblemDef, x0: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """RK4 re-integration of a piecewise-constant control, SUBSTEPS per cell."""
    rate = lambda i, c, y: prob.f0(y) + u[i // SUBSTEPS] * prob.f1(y)
    xs = rk4(rate, np.asarray(x0, dtype=float), u.size * SUBSTEPS, dt / SUBSTEPS)
    return np.fromiter(islice(xs, None, None, SUBSTEPS), (float, (prob.n,)), u.size + 1)
