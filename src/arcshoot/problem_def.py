"""Continuous problem definition: vector fields, Lie brackets, constrained-arc feedback.

A :class:`ProblemDef` bundles the user's callbacks for the dynamics
``xdot = f0(x) + u f1(x)``, the scalar state constraint ``g(x) <= 0``, the
endpoint cost ``phi(x0, xT)`` and the endpoint equality map ``Phi(x0, xT)``.
All callbacks must be pure and broadcast over leading batch axes: a state
argument has shape ``(..., n)`` and every result keeps those leading axes.
The solver relies on this to evaluate whole grids and all the points of a
finite-difference stencil in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, FirstOrderViolation

Field = Callable[[np.ndarray], np.ndarray]

GUARD_COEFF = 1e-10


@dataclass(frozen=True)
class ProblemDef:
    """Control-affine problem with one control, one state constraint.

    Conventions: the package passes every callback float64 ndarrays of
    shape ``(..., n)``, so a callback need not cast its arguments; Jacobians
    are ``(..., n, n)`` with ``J[i, j] = d f_i / d x_j``; ``dg`` is the
    gradient row, ``(..., n)``; ``dphi``/``dPhi`` return the pair of
    derivatives with respect to the initial and final state.  Absent control
    bounds and overrides are ``None``; [f1,f0] is exact from df0, df1.
    """

    n: int
    q: int
    T: float
    f0: Field
    f1: Field
    df0: Field
    df1: Field
    g: Callable[[np.ndarray], float]
    dg: Field
    phi: Callable[[np.ndarray, np.ndarray], float]
    dphi: Callable[[np.ndarray, np.ndarray], tuple]
    Phi: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dPhi: Callable[[np.ndarray, np.ndarray], tuple]
    u_min: Optional[float] = None
    u_max: Optional[float] = None
    # Analytic second-level bracket overrides; each absent one falls back to a
    # central difference of the exact first-level bracket [f1,f0].
    bracket_f1f0_f0: Optional[Field] = None
    bracket_f1f0_f1: Optional[Field] = None
    # Analytic gradient of the constrained-arc feedback, if available.
    dgamma: Optional[Field] = None
    # Initial state pinned by Phi; the direct method holds x0 there and penalizes every Phi row.
    x0_fixed: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.n <= 0:
            raise ConfigurationError(f"state dimension must be positive, got {self.n}")
        if self.q < 0:
            raise ConfigurationError(f"endpoint constraint count must be >= 0, got {self.q}")
        if self.T <= 0:
            raise ConfigurationError(f"horizon must be positive, got {self.T}")
        for name, bound in (("u_min", self.u_min), ("u_max", self.u_max)):
            if bound is not None and not np.isfinite(bound):
                raise ConfigurationError(f"{name} = {bound} is not finite; pass None for no bound")
        if self.u_min is not None and self.u_max is not None and not self.u_min < self.u_max:
            raise ConfigurationError(
                f"control bounds must satisfy u_min < u_max, got [{self.u_min}, {self.u_max}]"
            )


def _check_dim(v: np.ndarray, n: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape[-1] != n:
        raise ConfigurationError(f"{what} returned shape {v.shape}, expected last axis {n}")
    return v


def central_diff(fn: Callable, x: np.ndarray) -> tuple:
    """Value ``fn(x)`` and central-difference Jacobian of ``fn`` at every row of ``x``.

    ``x`` has shape ``(..., D)``; entry ``x_j`` steps by ``1e-6 max(1, |x_j|)``,
    the one step rule of every derivative the package differences.  The
    centre and all ``2 D`` stencil points go to ``fn`` in one batch
    ``(2 D + 1, ..., D)``, centre first; ``fn`` may broadcast against arrays with
    the leading shape of ``x`` and maps ``(..., D)`` to ``(..., *out)``.  The
    Jacobian has shape ``(..., *out, D)`` with ``[..., i, j] = d fn_i / d x_j``.
    """
    x = np.asarray(x, dtype=float)
    D = x.shape[-1]
    hT = np.moveaxis(1e-6 * np.maximum(1.0, np.abs(x)), -1, 0)
    idx = np.arange(D)
    stencil = np.broadcast_to(x, (2 * D + 1,) + x.shape).copy()
    stencil[1 + idx, ..., idx] += hT
    stencil[1 + D + idx, ..., idx] -= hT
    vals = np.asarray(fn(stencil), dtype=float)
    hT = hT.reshape(hT.shape + (1,) * (vals.ndim - x.ndim))
    return vals[0], np.moveaxis((vals[1 : D + 1] - vals[D + 1 :]) / (2.0 * hT), 0, -1)


def denominator_guard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scale-invariant floor 1e-10 (1 + |a| |b|) under which a.b counts as zero."""
    norm = lambda v: np.sqrt(np.add.reduce(np.square(v), axis=-1))  # np.linalg.norm's arithmetic
    return GUARD_COEFF * (1.0 + norm(a) * norm(b))


def guarded_ratio(num, a: np.ndarray, b: np.ndarray, x: np.ndarray, error: type):
    """num / (a.b) at every row of the batch ``x`` (..., n).

    Raises ``error(x_row, denominator)`` at the first row where |a.b| is under
    :func:`denominator_guard`; the row is looked up on the flattened batch.
    """
    den = np.einsum("...i,...i->...", a, b)
    bad = np.abs(den) < denominator_guard(a, b)
    if bad.any():
        i = int(np.argmax(np.ravel(bad)))
        x = np.asarray(x, dtype=float)
        raise error(x.reshape(-1, x.shape[-1])[i], float(np.ravel(den)[i]))
    return num / den


def _apply(jac: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Jacobian-vector products jac v over the batch axes."""
    return np.einsum("...ij,...j->...i", np.asarray(jac, dtype=float), v)


def bracket_f1_f0(prob: ProblemDef, x: np.ndarray) -> np.ndarray:
    """[f1,f0](x) = df1 f0 - df0 f1, exact from the analytic Jacobians.

    Convention [X, Y] = X' Y - Y' X with X' the Jacobian of X.
    """
    x = np.asarray(x, dtype=float)
    f0x = _check_dim(prob.f0(x), prob.n, "f0")
    f1x = _check_dim(prob.f1(x), prob.n, "f1")
    return _apply(prob.df1(x), f0x) - _apply(prob.df0(x), f1x)


def second_brackets(prob: ProblemDef, x: np.ndarray, b_jac=None) -> tuple:
    """([[f1,f0],f0](x), [[f1,f0],f1](x)), the brackets of the singular control.

    Each comes from the problem's override when it gives one.  Otherwise
    [B, Z] = B' Z - Z' B for B = [f1,f0], with B' from one central
    difference of :func:`bracket_f1_f0` that both brackets share, or from
    ``b_jac``, that difference's ``(B, B')`` at ``x`` when already at hand.
    """
    x = np.asarray(x, dtype=float)
    if b_jac is not None:
        b, jac_b = b_jac
    elif prob.bracket_f1f0_f0 is None or prob.bracket_f1f0_f1 is None:
        b, jac_b = central_diff(lambda y: bracket_f1_f0(prob, y), x)

    def bracket(override, z, dz, name):
        if override is not None:
            return _check_dim(override(x), prob.n, f"bracket override {name}")
        return _apply(jac_b, _check_dim(z(x), prob.n, "vector field")) - _apply(dz(x), b)

    return (bracket(prob.bracket_f1f0_f0, prob.f0, prob.df0, "[[f1,f0],f0]"),
            bracket(prob.bracket_f1f0_f1, prob.f1, prob.df1, "[[f1,f0],f1]"))


def gamma_control(prob: ProblemDef, x: np.ndarray, f0x: np.ndarray, f1x: np.ndarray):
    """Feedback control keeping d/dt g = 0 on a constrained arc, from f0(x) and f1(x).

    Returns -(dg.f0)/(dg.f1); raises :class:`FirstOrderViolation` when the
    denominator falls under the scale-aware guard.
    """
    dgx = _check_dim(prob.dg(x), prob.n, "dg")
    return guarded_ratio(-np.einsum("...i,...i->...", dgx, f0x), dgx, f1x, x,
                         FirstOrderViolation)


def gamma_gradient(prob: ProblemDef, x: np.ndarray) -> np.ndarray:
    """Gradient of the constrained-arc feedback, central differences.

    Uses the problem's analytic override when present.  Propagates
    :class:`FirstOrderViolation` from stencil points.
    """
    x = np.asarray(x, dtype=float)
    if prob.dgamma is not None:
        return _check_dim(prob.dgamma(x), prob.n, "dgamma override")
    return central_diff(lambda y: gamma_control(prob, y, prob.f0(y), prob.f1(y)), x)[1]


@dataclass
class FirstOrderReport:
    """Outcome of sampling |dg.f1| along candidate constrained arcs."""

    min_abs: float
    guard: float
    passed: bool
    worst_index: Optional[int] = None


def check_first_order(prob: ProblemDef, xs) -> FirstOrderReport:
    """Report min |dg(x) f1(x)| over the samples and pass/fail vs the guard.

    ``xs`` is a sequence of states or a ``(K, n)`` array.  An empty sample
    list passes vacuously with min = +inf.
    """
    xs = np.asarray(xs, dtype=float).reshape(-1, prob.n)
    if not xs.shape[0]:
        return FirstOrderReport(min_abs=np.inf, guard=0.0, passed=True)
    dgx = _check_dim(prob.dg(xs), prob.n, "dg")
    f1x = prob.f1(xs)
    vals = np.abs(np.einsum("...i,...i->...", dgx, f1x))
    worst = int(np.argmin(vals))
    guard = float(denominator_guard(dgx, f1x)[worst])
    return FirstOrderReport(
        min_abs=float(vals[worst]),
        guard=guard,
        passed=bool(vals[worst] >= guard),
        worst_index=worst,
    )
