"""Built-in problems and their closed-form reference solutions.

Two problems ship with the package:

* ``regulator`` -- three states on [0, 5], control in [-1, 1], state
  constraint x2 >= -0.2, fixed initial point (0, 1, 0), cost
  x3(T) + x1(T)^2 / 2.  Its extremal is a bang / constrained / singular
  concatenation whose arcs have closed forms; those forms (states, costates,
  switching times, cost) are exposed here and double as test oracles.
* ``toy-bang`` -- scalar integrator on [0, 1] with a pure lower-bang
  solution; small enough that the whole shooting system can be checked by
  hand.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .arc_structure import ArcKind, ArcStructure
from .errors import ConfigurationError
from .problem_def import ProblemDef
from .shooting import ShootingVector

# ---------------------------------------------------------------------------
# Regulator closed forms.
#
# On the lower bang arc x2 = 1 - t, so the constraint x2 >= -0.2 saturates at
# t = 1.2.  On the constrained arc x1 = 0.72 - t/5; the singular arc starts
# where x1 meets the value forced by its exponential form, x1 = 0.2, i.e. at
# t = 2.6.  Costates follow from backward integration of p' = -H_x with
# p3 = 1; on the constrained arc the transformed-problem costate carries the
# accumulated constraint multiplier in its p2 component.
# ---------------------------------------------------------------------------

REG_T = 5.0
REG_TAU1 = 1.2
REG_TAU2 = 2.6
_C1 = 0.2 * np.exp(REG_TAU2 - REG_T)  # coefficient of the singular-arc exponential


def _x3_bminus(t):
    return 0.5 * (t - t**2 + (2.0 / 3.0) * t**3 - 0.25 * t**4 + 0.05 * t**5)


_X3_TAU1 = _x3_bminus(REG_TAU1)


def _x3_c(t):
    x1_tau1 = REG_TAU1 - 0.5 * REG_TAU1**2
    return _X3_TAU1 + 0.5 * (
        (5.0 / 3.0) * (x1_tau1**3 - (0.72 - t / 5.0) ** 3) + 0.04 * (t - REG_TAU1)
    )


_X3_TAU2 = _x3_c(REG_TAU2)


def _x3_s(t):
    return _X3_TAU2 + 0.5 * _C1**2 * (
        np.exp(2.0 * (REG_T - REG_TAU2)) - np.exp(2.0 * (REG_T - t))
    )


def _p1_c(t):
    return 0.2 + (t**2 - REG_TAU2**2) / 10.0 - 0.72 * (t - REG_TAU2)


REG_P1_TAU1 = _p1_c(REG_TAU1)


def _p1_bminus(t):
    poly = lambda s: 0.5 * s**2 - s**3 / 6.0
    return REG_P1_TAU1 + poly(REG_TAU1) - poly(t)


_P1_0 = _p1_bminus(0.0)


def _p2_bminus(t):
    # p2' = -(p1 + x2) on the bang arc with p2(tau1) = 0.
    anti = lambda s: (_P1_0 + 1.0) * s - 0.5 * s**2 - s**3 / 6.0 + s**4 / 24.0
    return anti(REG_TAU1) - anti(t)


def _p2_c(t):
    # Transformed-problem costate: p2' = -(p1 - 0.2) on C with p2(tau2) = 0.
    anti = lambda s: s**3 / 30.0 - (REG_TAU2**2 / 10.0) * s - 0.36 * (s - REG_TAU2) ** 2
    return anti(REG_TAU2) - anti(t)


REG_GAMMA2 = _p2_c(REG_TAU1)  # constraint-entry multiplier = total measure mass on C


def regulator_solution(t: float) -> tuple:
    """Closed-form (x, p, u) of the regulator extremal at time t.

    Costates are the transformed-problem arc costates: on the constrained
    arc p2 carries the running constraint multiplier and jumps to zero at
    the arc entry seen backward in time.
    """
    t = float(t)
    if not 0.0 <= t <= REG_T:
        raise ConfigurationError(f"t = {t} outside [0, {REG_T}]")
    if t <= REG_TAU1:
        x = np.array([t - 0.5 * t**2, 1.0 - t, _x3_bminus(t)])
        p = np.array([_p1_bminus(t), _p2_bminus(t), 1.0])
        u = -1.0
    elif t <= REG_TAU2:
        x = np.array([0.72 - t / 5.0, -0.2, _x3_c(t)])
        p = np.array([_p1_c(t), _p2_c(t), 1.0])
        u = 0.0
    else:
        x1 = _C1 * np.exp(REG_T - t)
        x = np.array([x1, -x1, _x3_s(t)])
        p = np.array([x1, 0.0, 1.0])
        u = x1
    return x, p, u


def regulator_cost() -> float:
    """Optimal cost of the regulator problem, from the closed-form arcs."""
    x1_T = _C1
    return float(_x3_s(REG_T) + 0.5 * x1_T**2)


def sample_regulator(num: int = 1000) -> tuple:
    """Sample the closed-form extremal on a uniform grid; returns (t, u, x)."""
    ts = np.linspace(0.0, REG_T, num)
    xs = np.empty((num, 3))
    us = np.empty(num)
    for i, t in enumerate(ts):
        x, _, u = regulator_solution(t)
        xs[i] = x
        us[i] = u
    return ts, us, xs


def make_regulator() -> ProblemDef:
    def f0(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = x[..., 1]
        out[..., 2] = 0.5 * (x[..., 0] ** 2 + x[..., 1] ** 2)
        return out

    def f1(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.array([0.0, 1.0, 0.0]), x.shape)

    def df0(x):
        x = np.asarray(x, dtype=float)
        jac = np.zeros(x.shape + (3,))
        jac[..., 0, 1] = 1.0
        jac[..., 2, 0] = x[..., 0]
        jac[..., 2, 1] = x[..., 1]
        return jac

    def df1(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (3,))

    def g(x):
        x = np.asarray(x, dtype=float)
        return -x[..., 1] - 0.2

    def dg(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.array([0.0, -1.0, 0.0]), x.shape)

    def phi(x0, xT):
        xT = np.asarray(xT, dtype=float)
        return xT[..., 2] + 0.5 * xT[..., 0] ** 2

    def dphi(x0, xT):
        x0 = np.asarray(x0, dtype=float)
        xT = np.asarray(xT, dtype=float)
        d1 = np.zeros_like(xT)
        d1[..., 0] = xT[..., 0]
        d1[..., 2] = 1.0
        return np.zeros_like(x0), d1

    def Phi(x0, xT):
        x0 = np.asarray(x0, dtype=float)
        return x0 - np.array([0.0, 1.0, 0.0])

    def dPhi(x0, xT):
        x0 = np.asarray(x0, dtype=float)
        eye = np.broadcast_to(np.eye(3), x0.shape[:-1] + (3, 3))
        return eye, np.zeros(x0.shape[:-1] + (3, 3))

    def bracket_f1f0_f0(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 2] = x[..., 0]
        return out

    def bracket_f1f0_f1(x):
        x = np.asarray(x, dtype=float)
        return np.broadcast_to(np.array([0.0, 0.0, -1.0]), x.shape)

    def dgamma(x):
        x = np.asarray(x, dtype=float)
        return np.zeros_like(x)

    return ProblemDef(
        n=3,
        q=3,
        T=REG_T,
        f0=f0,
        f1=f1,
        df0=df0,
        df1=df1,
        g=g,
        dg=dg,
        phi=phi,
        dphi=dphi,
        Phi=Phi,
        dPhi=dPhi,
        u_min=-1.0,
        u_max=1.0,
        bracket_f1f0_f0=bracket_f1f0_f0,
        bracket_f1f0_f1=bracket_f1f0_f1,
        dgamma=dgamma,
        x0_fixed=np.array([0.0, 1.0, 0.0]),
        name="regulator",
    )


def make_regulator_fd_brackets() -> ProblemDef:
    """Regulator with every derivative override stripped (pure fallback paths)."""
    return dataclasses.replace(make_regulator(), bracket_f1f0_f0=None, bracket_f1f0_f1=None,
                               dgamma=None)


def regulator_structure() -> ArcStructure:
    return ArcStructure(
        (ArcKind.BMinus, ArcKind.Constrained, ArcKind.Singular), (REG_TAU1, REG_TAU2)
    )


def regulator_analytic_omega() -> ShootingVector:
    """Exact shooting vector assembled from the closed-form arcs."""
    x0_1, p0_1, _ = regulator_solution(0.0)
    x_tau1, _, _ = regulator_solution(REG_TAU1)
    x_tau2, p_tau2, _ = regulator_solution(REG_TAU2)
    p0_2 = np.array([REG_P1_TAU1, REG_GAMMA2, 1.0])  # post-jump costate at C entry
    return ShootingVector(
        x0=np.array([x0_1, x_tau1, x_tau2]),
        tau=np.array([REG_TAU1, REG_TAU2]),
        p0=np.array([p0_1, p0_2, p_tau2]),
        psi=-p0_1,
        gamma=np.array([REG_GAMMA2]),
    )


# ---------------------------------------------------------------------------
# Toy bang problem: xdot = u on [0, 1], u in [-1, 1], x(0) = 0, minimize x(1).
# The minimizer rides the lower bound; p = 1 throughout and Psi = -1.
# ---------------------------------------------------------------------------


def make_toy_bang() -> ProblemDef:
    def f0(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def f1(x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x)

    def dfzero(x):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (1,))

    def g(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] - 10.0

    def dg(x):
        x = np.asarray(x, dtype=float)
        return np.ones_like(x)

    def phi(x0, xT):
        xT = np.asarray(xT, dtype=float)
        return xT[..., 0]

    def dphi(x0, xT):
        x0 = np.asarray(x0, dtype=float)
        return np.zeros_like(x0), np.ones_like(np.asarray(xT, dtype=float))

    def Phi(x0, xT):
        return np.asarray(x0, dtype=float)

    def dPhi(x0, xT):
        x0 = np.asarray(x0, dtype=float)
        return (
            np.broadcast_to(np.eye(1), x0.shape[:-1] + (1, 1)),
            np.zeros(x0.shape[:-1] + (1, 1)),
        )

    return ProblemDef(
        n=1,
        q=1,
        T=1.0,
        f0=f0,
        f1=f1,
        df0=dfzero,
        df1=dfzero,
        g=g,
        dg=dg,
        phi=phi,
        dphi=dphi,
        Phi=Phi,
        dPhi=dPhi,
        u_min=-1.0,
        u_max=1.0,
        x0_fixed=np.array([0.0]),
        name="toy-bang",
    )


def toy_bang_structure() -> ArcStructure:
    return ArcStructure((ArcKind.BMinus,), ())


def toy_bang_analytic_omega() -> ShootingVector:
    return ShootingVector(
        x0=np.array([[0.0]]),
        tau=np.array([]),
        p0=np.array([[1.0]]),
        psi=np.array([-1.0]),
        gamma=np.array([]),
    )


_REGISTRY = {
    "regulator": (make_regulator, regulator_structure, regulator_analytic_omega),
    "toy-bang": (make_toy_bang, toy_bang_structure, toy_bang_analytic_omega),
}


def problem_names() -> list:
    return sorted(_REGISTRY)


def builtin(name: str) -> tuple:
    """(problem factory, reference structure, reference omega) of a built-in problem."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown problem {name!r}; built-ins: {', '.join(problem_names())}"
        ) from None


def get_problem(name: str) -> ProblemDef:
    return builtin(name)[0]()
