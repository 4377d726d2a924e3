"""Rough direct solve used to detect the arc structure and seed the shooting.

Euler-discretized control grid, one decision vector (cell controls, initial
state), quadratic penalty on the state constraint and the endpoint map,
projected gradient with a Barzilai-Borwein step and monotone backtracking.
All backtracking trials of an iteration, the steps alpha * STEP_SHRINK^k,
go through one batched Euler recursion, and the first trial that lowers
the objective is taken.
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
        if self.max_iters < 0:
            raise ConfigurationError(f"max_iters must be >= 0, got {self.max_iters}")


@dataclass
class DirectSolveResult:
    t: np.ndarray          # (K+1,) node times
    u: np.ndarray          # (K+1,) node-aligned control (last cell repeated)
    x: np.ndarray          # (K+1, n) re-simulated states of the found control
    x_model: np.ndarray    # (K+1, n) Euler-model states used by the optimizer
    lam: np.ndarray        # (K+1, n) discrete adjoint, a costate estimate
    cost: float            # endpoint cost of the re-simulated trajectory
    stalled: bool
    objective_history: list  # Euler-model cost + penalty at each accepted iterate

    @property
    def n_iters(self) -> int:
        return len(self.objective_history) - 1


def _pen_grad(prob, x, rho, dt):
    """Gradient of rho max(0, g)^2 dt at every row of x (..., n)."""
    gv = np.asarray(prob.g(x), dtype=float)[..., None]
    return np.where(gv > 0.0, 2.0 * rho * gv * np.asarray(prob.dg(x), dtype=float) * dt, 0.0)


def direct_solve(prob: ProblemDef, cfg: Optional[DirectSolveConfig] = None) -> DirectSolveResult:
    """Minimize the Euler-discretized penalized cost over z = (u, x0).

    The decision vector holds the K cell controls and the initial state.
    One projection clips u to its bounds and holds x0 at ``prob.x0_fixed``
    when the problem pins it.  The objective adds to the endpoint cost the
    quadratic penalty of the state constraint and of every row of the
    endpoint map Phi, pinned start or not.  The reported objective is
    non-increasing across accepted iterations; a stalled flag is set when
    no backtracked step decreases it.
    """
    cfg = cfg or DirectSolveConfig()
    K = cfg.grid_size
    dt = prob.T / K
    rho = cfg.penalty_weight
    # The box of z: the control bounds, then x0_fixed as both bounds of x0 (or none).
    u_box = (-np.inf if prob.u_min is None else prob.u_min,
             np.inf if prob.u_max is None else prob.u_max)
    x0_box = (-np.inf, np.inf) if prob.x0_fixed is None else (prob.x0_fixed, prob.x0_fixed)
    lower, upper = (np.concatenate([np.full(K, u_end), np.broadcast_to(x0_end, prob.n)])
                    for u_end, x0_end in zip(u_box, x0_box))
    moves = lower < upper  # BB sums skip pinned entries: their zeros would change BLAS rounding

    def forward(z):
        """Euler states (..., K+1, n) of decision vectors z (..., K + n)."""
        xs = np.empty(z.shape[:-1] + (K + 1, prob.n))
        xs[..., 0, :] = z[..., K:]
        for i in range(K):
            x = xs[..., i, :]
            xs[..., i + 1, :] = x + dt * (prob.f0(x) + z[..., i, None] * prob.f1(x))
        return xs

    def objective(xs):
        """Cost plus penalties of Euler states (..., K+1, n), (...)."""
        sq = lambda v: np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0]  # v @ v per row
        viol = np.maximum(0.0, np.asarray(prob.g(xs[..., 1:, :]), dtype=float))
        bc = np.asarray(prob.Phi(xs[..., 0, :], xs[..., -1, :]), dtype=float)
        return (np.asarray(prob.phi(xs[..., 0, :], xs[..., -1, :]), dtype=float)
                + rho * sq(viol) * dt + rho * sq(bc))

    def gradient(z, xs):
        lam = np.empty((K + 1, prob.n))
        pen = _pen_grad(prob, xs, rho, dt)
        (d0, dT), (D0, DT) = prob.dphi(xs[0], xs[-1]), prob.dPhi(xs[0], xs[-1])
        w = 2.0 * rho * np.asarray(prob.Phi(xs[0], xs[-1]), dtype=float)
        lam[K] = np.asarray(dT, dtype=float) + pen[K] + w @ np.asarray(DT, dtype=float)
        trans = np.eye(prob.n) + dt * (prob.df0(xs[:-1]) + z[:K, None, None] * prob.df1(xs[:-1]))
        for i in range(K - 1, -1, -1):
            lam[i] = lam[i + 1] @ trans[i]
            if i >= 1:
                lam[i] += pen[i]
        gu = dt * np.einsum("ij,ij->i", lam[1:], prob.f1(xs[:-1]))
        gx0 = lam[0] + (np.asarray(d0, dtype=float) + w @ np.asarray(D0, dtype=float))
        return np.concatenate([gu, gx0]), lam

    u0 = 0.0 if None in (prob.u_min, prob.u_max) else 0.5 * (prob.u_min + prob.u_max)
    z = np.clip(np.concatenate([np.full(K, u0), np.zeros(prob.n)]), lower, upper)
    xs = forward(z)
    J = float(objective(xs))
    history = [J]
    alpha, stalled = STEP_INIT, False
    z_old = g_old = None
    lam = np.zeros((K + 1, prob.n))
    for _ in range(cfg.max_iters):
        grad, lam = gradient(z, xs)
        if g_old is not None:
            dz = (z - z_old)[moves]
            dg = (grad - g_old)[moves]
            denom = float(dz @ dg)
            alpha = float(dz @ dz) / denom if denom > 1e-14 else STEP_INIT
            alpha = float(np.clip(alpha, 1e-4, 1e3))
        # The trial steps alpha, alpha * STEP_SHRINK, ..., as repeated products.
        alphas = np.cumprod(np.r_[alpha, np.full(MAX_BACKTRACKS - 1, STEP_SHRINK)])
        z_t = np.clip(z - alphas[:, None] * grad, lower, upper)
        xs_t = forward(z_t)
        J_t = objective(xs_t)
        lower_J = np.flatnonzero(J_t < J)
        if not lower_J.size:
            stalled = True
            break
        k = lower_J[0]
        z_old, g_old = z, grad
        z, xs, J = z_t[k], xs_t[k], float(J_t[k])
        history.append(J)
        if np.max(np.abs(z - z_old)) == 0.0:
            break

    x_acc = _resimulate(prob, z[K:], z[:K], dt)
    return DirectSolveResult(
        t=np.linspace(0.0, prob.T, K + 1),
        u=np.concatenate([z[:K], z[K - 1 : K]]),
        x=x_acc,
        x_model=xs,
        lam=lam,
        cost=float(prob.phi(x_acc[0], x_acc[-1])),
        stalled=stalled,
        objective_history=history,
    )


def _resimulate(prob: ProblemDef, x0: np.ndarray, u: np.ndarray, dt: float) -> np.ndarray:
    """RK4 re-integration of a piecewise-constant control, SUBSTEPS per cell."""
    rate = lambda i, c, y: prob.f0(y) + u[i // SUBSTEPS] * prob.f1(y)
    xs = rk4(rate, np.asarray(x0, dtype=float), u.size * SUBSTEPS, dt / SUBSTEPS)
    return np.fromiter(islice(xs, None, None, SUBSTEPS), (float, (prob.n,)), u.size + 1)
