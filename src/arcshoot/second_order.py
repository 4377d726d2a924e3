"""Second-order certificate: Goh-transformed quadratic form and positivity check.

Works on the transformed problem whose state stacks all arc states and the
interior switching times, X = (x^1, ..., x^N, tau) of dimension
D = N n + N - 1, driven by one control channel per singular arc.  Around a
converged solution the module builds, on a shared normalized-time grid,

* the linearized dynamics matrix A = F_X and the Hamiltonian Hessian H_XX,
  from one central difference of the field F and the gradient H_X in X,
* per singular arc, in closed form from f1, df1 and the brackets
  b = [f1,f0] and [[f1,f0],f1]: B = F_U, H_UX, E = A B - dB/ds = -dt^2 b,
  M and the strengthened Legendre-Clebsch coefficient
  R = -dt^3 p [[f1,f0],f1] (Goh, SIAM J. Control 1966; Aronna, Bonnans,
  Dmitruk & Lotito, Math. Program. 2012),
* the endpoint-Lagrangian Hessian (FD of the shooting residual's own
  transversality gradient) and the linearized endpoint map.

Directions live in coordinates (Xi_0, Y) with Y sampled per node and the
terminal shift h tied to the last Y sample of each channel.  The assembled
quadratic form is

    Omega(Y, h, Xi) = rho(Xi_0, Xi_1, h)
                      + int_0^1 (Xi' H_XX Xi + 2 Y M Xi + Y R Y) ds,

with rho(z0, z1, h) = (z0, z1 + B_1 h)' L'' (z0, z1 + B_1 h)
+ h H_UX(1) (2 z1 + B_1 h); the companion form Q on untransformed
directions (V, Z) satisfies Q = Omega under Y = int V, Xi = Z - B Y, which
is the main self-check of the assembly.  The critical subspace is cut out
by the linearized shooting constraints alone (endpoint map, constrained-arc
entry values, state continuity) on (Xi_0, Xi_1 + B_1 h): the feedback of a
constrained arc keeps g constant along it, so its entry row is the whole
constraint.  Positivity of Omega against the order norm
|Xi_0|^2 + int |Y|^2 + |h|^2 on the discretized critical subspace is the
certificate for local convergence of the shooting method.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .arc_structure import ArcKind, ArcStructure, arcs_of
from .errors import AssemblyError
from .problem_def import ProblemDef, bracket_f1_f0, central_diff, second_brackets
from .shooting import ShootingVector, check_sizes, constraint_rows, endpoint_gradient
from .tp_dynamics import arc_field, durations, propagate_arc, rk4

POSITIVITY_MARGIN = 1e-6
NODE_BLOCK = 64          # nodes of Xi paths that assemble_omega holds at once


# ---------------------------------------------------------------------------
# Transformed-problem field and Hamiltonian derivatives (batched over nodes)
# ---------------------------------------------------------------------------


def _arcs(prob: ProblemDef, struct: ArcStructure, Z: np.ndarray) -> np.ndarray:
    """Arc states (..., N, n) of stacked transformed states Z (..., D)."""
    return Z[..., : struct.N * prob.n].reshape(Z.shape[:-1] + (struct.N, prob.n))


def _symmetrized(H: np.ndarray, what: str, cause: str) -> np.ndarray:
    """(H + H') / 2 of FD Hessians H (..., D, D) that are symmetric up to FD error."""
    Ht = np.swapaxes(H, -1, -2)
    asym = float(np.max(np.abs(H - Ht)))
    if asym > 1e-4 * (1.0 + float(np.max(np.abs(H)))):
        raise AssemblyError(
            f"{what} finite-difference asymmetry {asym:.3e} exceeds tolerance; {cause}")
    return 0.5 * (H + Ht)


def tp_rates(prob: ProblemDef, struct: ArcStructure, U, X, P_arcs):
    """Field F and Hamiltonian gradient H_X at (U, X), stacked on the last axis, ``(..., 2 D)``.

    One central difference in X yields A and H_XX together.  ``P_arcs``
    holds the frozen arc costates (..., N, n).  Singular controls are held
    at the values in U (..., S), so the feedback terms appear only through
    the constrained-arc substitution.  H is the pre-Hamiltonian
    sum_k dt_k p^k (f0 + w f1)(x^k); the tau rows of F are zero.
    """
    N, n = struct.N, prob.n
    X = np.asarray(X, dtype=float)
    x = _arcs(prob, struct, X)
    dts = durations(X[..., N * n :], prob.T)[..., None]
    v, hx = arc_field(prob, struct.kinds, x, P_arcs, U)
    h = np.einsum("...i,...i->...", P_arcs, v)
    flat = lambda a: a.reshape(a.shape[:-2] + (N * n,))
    # d dt_k / d tau_j is +1 for k = j, -1 for k = j + 1.
    rows = [flat(dts * v), np.zeros(N - 1), flat(dts * hx), h[..., :-1] - h[..., 1:]]
    return np.concatenate([np.broadcast_to(r, v.shape[:-2] + r.shape[-1:]) for r in rows],
                          axis=-1)


# ---------------------------------------------------------------------------
# Linearization grids
# ---------------------------------------------------------------------------


@dataclass
class TPLinearization:
    """Per-node matrices of the linearized transformed problem."""

    prob: ProblemDef
    struct: ArcStructure
    omega: ShootingVector
    s: np.ndarray            # (M+1,)
    X: np.ndarray            # (M+1, D)
    A: np.ndarray            # (M+1, D, D)
    B: np.ndarray            # (M+1, D, S)
    E: np.ndarray            # (M+1, D, S)
    HXX: np.ndarray          # (M+1, D, D)
    HUX: np.ndarray          # (M+1, S, D)
    Mmat: np.ndarray         # (M+1, S, D)
    Rmat: np.ndarray         # (M+1, S, S), diagonal
    ell_hess: np.ndarray     # (2D, 2D)
    dcons: np.ndarray        # (q + |C| + n(N-1), 2D)

    @property
    def D(self) -> int:
        return self.X.shape[-1]

    @property
    def n_channels(self) -> int:
        return self.struct.kinds.count(ArcKind.Singular)

    @property
    def weights(self) -> np.ndarray:
        h = self.s[1] - self.s[0]
        w = np.full(self.s.size, h)
        w[0] = w[-1] = 0.5 * h
        return w


def linearized_matrices(
    prob: ProblemDef,
    struct: ArcStructure,
    omega: ShootingVector,
    nodes: int = 200,
) -> TPLinearization:
    """Build all per-node matrices of the linearized transformed problem.

    ``nodes`` is the number of grid cells per arc (the shared normalized
    grid has nodes + 1 points).
    """
    check_sizes(prob, struct, omega)
    N, n = struct.N, prob.n
    D = N * n + N - 1
    traj = propagate_arc(prob, struct.kinds, omega.tau, omega.x0, omega.p0, nodes)
    m1 = nodes + 1

    tau = np.broadcast_to(omega.tau, (m1, N - 1))
    X = np.concatenate([traj.x.reshape(m1, N * n), tau], axis=1)
    k = np.arange(N)[arcs_of(struct.kinds, ArcKind.Singular)]    # arc of each channel
    U = traj.w[:, k]

    # One central difference in X, the singular controls held at U: A and H_XX.
    J = central_diff(lambda z: tp_rates(prob, struct, U, z, traj.p), X)[1]
    A = J[:, :D]
    HXX = _symmetrized(J[:, D:], "H_XX", "gradient and field evaluations disagree")

    # Channel j drives only its arc k, of duration dt, with b = [f1,f0]:
    # B = dt f1, H_UX = dt p df1, E = -dt^2 b, M = -dt^2 p D_x b and
    # R = -dt^3 p [[f1,f0],f1].  The tau columns of H_UX and M are
    # d dt / d tau times p f1 and -2 dt p b.
    S = k.size
    x, p = traj.x[:, k], traj.p[:, k]
    dt = durations(omega.tau, prob.T)[k][:, None]
    b, db = central_diff(lambda y: bracket_f1_f0(prob, y), x)
    f1x = prob.f1(x)
    ddt = (np.eye(N, N - 1) - np.eye(N, N - 1, -1))[k]            # d dt_k / d tau, (S, N-1)
    pdot = lambda a: np.einsum("tsi,tsi->ts", p, a)[..., None]
    j, rows = np.arange(S), k[:, None] * n + np.arange(n)
    B, E = np.zeros((m1, D, S)), np.zeros((m1, D, S))
    HUX, Mmat, Rmat = np.zeros((m1, S, D)), np.zeros((m1, S, D)), np.zeros((m1, S, S))
    B[:, rows, j[:, None]] = dt * f1x
    E[:, rows, j[:, None]] = -dt ** 2 * b
    HUX[:, j[:, None], rows] = dt * np.einsum("tsi,tsij->tsj", p, prob.df1(x))
    HUX[:, :, N * n :] = pdot(f1x) * ddt
    Mmat[:, j[:, None], rows] = -dt ** 2 * np.einsum("tsi,tsij->tsj", p, db)
    Mmat[:, :, N * n :] = -2.0 * dt * pdot(b) * ddt
    Rmat[:, j, j] = -dt[:, 0] ** 3 * pdot(second_brackets(prob, x, (b, db))[1])[..., 0]

    ell_hess, dcons = _endpoint_derivatives(prob, struct, omega, X[0], X[-1])

    return TPLinearization(
        prob=prob, struct=struct, omega=omega, s=np.linspace(0.0, 1.0, m1),
        X=X, A=A, B=B, E=E, HXX=HXX, HUX=HUX,
        Mmat=Mmat, Rmat=Rmat, ell_hess=ell_hess, dcons=dcons,
    )


def _endpoint_derivatives(prob, struct, omega, X0, X1):
    """Endpoint-Lagrangian Hessian and endpoint-constraint Jacobian over (X0, X1).

    One :func:`central_diff` of the transversality gradient
    :func:`shooting.endpoint_gradient` (zero in the tau entries)
    and of :func:`shooting.constraint_rows`, both at the arc states of
    (X0, X1).  Returns the symmetrized (2D, 2D) Hessian and the Jacobian.
    """
    D = X0.size

    def rows(z):
        x0, x1 = _arcs(prob, struct, z[..., :D]), _arcs(prob, struct, z[..., D:])
        l0, l1 = endpoint_gradient(prob, struct, x0, x1, omega.psi, omega.gamma)
        flat = lambda l: l.reshape(z.shape[:-1] + (-1,))
        tau = np.zeros(z.shape[:-1] + (struct.N - 1,))
        return np.concatenate([flat(l0), tau, flat(l1), tau,
                               *constraint_rows(prob, struct, x0, x1)], axis=-1)

    z = np.concatenate([X0, X1])
    J = central_diff(rows, z)[1]
    hess = _symmetrized(J[: 2 * D], "endpoint Hessian", "dphi, dPhi or dg is not a gradient")
    return hess, J[2 * D :]


# ---------------------------------------------------------------------------
# Direction space and quadratic form assembly
# ---------------------------------------------------------------------------


@dataclass
class QuadraticFormData:
    """Discretized quadratic form, constraint rows and order-norm Gram matrix.

    Coordinates are (Xi_0 in R^D, Y samples channel-major over the nodes);
    the terminal shift h of each channel is its last Y sample.  ``cons``
    holds the linearized shooting constraints, one row per row of
    ``lin.dcons``.
    """

    lin: TPLinearization
    hess: np.ndarray
    cons: np.ndarray
    gram_diag: np.ndarray    # (ncoord,): the order-norm Gram matrix is diagonal

    @property
    def ncoord(self) -> int:
        return self.hess.shape[0]

    @property
    def nodes(self) -> int:
        """Grid cells per arc."""
        return self.lin.s.size - 1

    def h_index(self, channel: int) -> int:
        """Coordinate of the terminal shift h of ``channel``: its last Y sample."""
        return self.lin.D + (channel + 1) * self.lin.s.size - 1

    def split(self, coords: np.ndarray):
        """Coordinates -> (Xi0, Y_nodes (M+1, S), h (S,))."""
        D = self.lin.D
        m1 = self.lin.s.size
        xi0 = coords[:D]
        Y = coords[D:].reshape(self.lin.n_channels, m1).T
        h = Y[-1]
        return xi0, Y, h

    def value(self, coords: np.ndarray) -> float:
        return float(coords @ self.hess @ coords)


def _linear_nodes(lin: TPLinearization, G: np.ndarray, drive: np.ndarray, Z0: np.ndarray):
    """RK4 nodes of Z' = A Z + G drive with nodal coefficients, one at a time.

    ``G`` is the per-node drive matrix grid (``lin.E`` or ``lin.B``), ``Z0``
    may stack initial columns and ``drive`` holds the per-node channel values
    with matching columns; midpoint stages use the mean of two nodal values.
    One :func:`rk4` step from [I | 0 | 0] with drives [0 | I | 0], [0 | 0 | I]
    gives every step's map z_{i+1} = Phi_i z_i + Gamma0_i d_i + Gamma1_i d_{i+1}.
    """
    D, S = G.shape[1:]
    d0, d1 = np.eye(S, D + 2 * S, D), np.eye(S, D + 2 * S, D + S)
    at = lambda a, b, c: (1.0 - c) * a + c * b      # stage value of two nodal values
    rate = lambda i, c, z: at(lin.A[:-1], lin.A[1:], c) @ z + at(G[:-1], G[1:], c) @ at(d0, d1, c)
    *_, maps = rk4(rate, np.eye(D, D + 2 * S), 1, lin.s[1] - lin.s[0])
    Phi, Gamma0, Gamma1 = np.split(maps, [D, D + S], axis=-1)
    step = lambda z, i: Phi[i] @ z + Gamma0[i] @ drive[i] + Gamma1[i] @ drive[i + 1]
    return accumulate(range(lin.s.size - 1), step, initial=Z0)


def _propagate_linear(lin: TPLinearization, G: np.ndarray, drive: np.ndarray,
                      Z0: np.ndarray) -> np.ndarray:
    """All nodes (M+1, ...) of :func:`_linear_nodes`, stacked."""
    return np.fromiter(_linear_nodes(lin, G, drive, Z0), (float, Z0.shape), lin.s.size)


def integrate_goh(lin: TPLinearization, Xi0: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Integrate Xi' = A Xi + E Y from Xi0; Y is nodal, (M+1, S)."""
    return _propagate_linear(lin, lin.E, Y[:, :, None], Xi0[:, None])[:, :, 0]


def integrate_lineq(lin: TPLinearization, Z0: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Integrate Z' = A Z + B V from Z0; V is nodal, (M+1, S)."""
    return _propagate_linear(lin, lin.B, V[:, :, None], Z0[:, None])[:, :, 0]


def cumulative_trapezoid(V: np.ndarray, ds: float) -> np.ndarray:
    out = np.zeros_like(V)
    out[1:] = np.cumsum(0.5 * ds * (V[1:] + V[:-1]), axis=0)
    return out


def rho_matrix(lin: TPLinearization) -> np.ndarray:
    """Symmetric matrix of the endpoint term rho on (z0, z1, h).

    rho = (z0, z1 + B1 h)' L'' (z0, z1 + B1 h) + h HUX_1 (2 z1 + B1 h).
    """
    D, S = lin.D, lin.n_channels
    B1, H1 = lin.B[-1], lin.HUX[-1]
    J = np.eye(2 * D, 2 * D + S)        # (z0, z1, h) -> (z0, z1 + B1 h)
    J[D:, 2 * D :] = B1
    Q = J.T @ lin.ell_hess @ J
    K = np.hstack([np.zeros((S, D)), H1, 0.5 * H1 @ B1])   # h-rows of the HUX_1 part
    Q[2 * D :] += K
    Q[:, 2 * D :] += K.T
    return Q


def rho_value(lin: TPLinearization, zeta0: np.ndarray, zeta1: np.ndarray,
              h: np.ndarray) -> float:
    """Endpoint term rho(zeta0, zeta1, h), evaluated from ``rho_matrix``."""
    v = np.concatenate([zeta0, zeta1, h])
    return float(v @ rho_matrix(lin) @ v)


def omega_form_value(lin: TPLinearization, Xi0: np.ndarray, Y: np.ndarray) -> float:
    """Direct quadrature of the transformed form on one direction (h = Y[-1])."""
    Xi = integrate_goh(lin, Xi0, Y)
    w = lin.weights
    quad = np.einsum("t,ti,tij,tj->", w, Xi, lin.HXX, Xi)
    quad += 2.0 * np.einsum("t,ts,tsi,ti->", w, Y, lin.Mmat, Xi)
    quad += np.einsum("t,ts,tsr,tr->", w, Y, lin.Rmat, Y)
    return float(quad) + rho_value(lin, Xi[0], Xi[-1], Y[-1])


def q_form_value(lin: TPLinearization, Z0: np.ndarray, V: np.ndarray) -> float:
    """Quadratic form on untransformed directions (V, Z); equals the Goh form."""
    Z = integrate_lineq(lin, Z0, V)
    w = lin.weights
    quad = np.einsum("t,ti,tij,tj->", w, Z, lin.HXX, Z)
    quad += 2.0 * np.einsum("t,ts,tsi,ti->", w, V, lin.HUX, Z)
    dz = np.concatenate([Z[0], Z[-1]])
    return float(quad) + float(dz @ lin.ell_hess @ dz)


def assemble_omega(lin: TPLinearization) -> QuadraticFormData:
    """Assemble the discretized quadratic form, constraint rows and Gram matrix on ``lin``.

    The Xi paths of all coordinates are consumed from :func:`_linear_nodes`
    in blocks of ``NODE_BLOCK`` nodes, so no full (M+1, D, ncoord) table is
    held; only the last node is kept, for the endpoint terms and the
    constraint rows.
    """
    D, S, m1, w = lin.D, lin.n_channels, lin.s.size, lin.weights
    ncoord = D + S * m1

    # Xi path of every basis coordinate: Xi' = A Xi + E Y.
    Xi0_basis = np.eye(D, ncoord)
    ys = D + np.arange(S)[:, None] * m1 + np.arange(m1)     # (S, M+1) Y columns
    Y_basis = np.zeros((m1, S, ncoord))
    Y_basis[np.arange(m1), np.arange(S)[:, None], ys] = 1.0
    xi_nodes = _linear_nodes(lin, lin.E, Y_basis, Xi0_basis)

    WH = w[:, None, None] * lin.HXX
    WM = w[:, None, None] * lin.Mmat
    hess = np.zeros((ncoord, ncoord))
    cross = np.empty((ncoord, S, m1))
    for start in range(0, m1, NODE_BLOCK):
        blk = slice(start, min(start + NODE_BLOCK, m1))
        xi = np.fromiter(xi_nodes, (float, (D, ncoord)), blk.stop - start)
        # int Xi' H_XX Xi: one GEMM over the flattened (node, state-row) axis.
        hess += xi.reshape(-1, ncoord).T @ (WH[blk] @ xi).reshape(-1, ncoord)
        # 2 int Y M Xi: the Y sample of channel s at node t only meets node t.
        cross[:, :, blk] = np.einsum("tja,tsj->ast", xi, WM[blk])
    xi1 = xi[-1]
    cross = cross.reshape(ncoord, S * m1)
    hess[:, D:] += cross
    hess[D:, :] += cross.T
    # int Y R Y: diagonal in the node index.
    hess[ys[:, None, :], ys[None, :, :]] += np.einsum("t,tsr->srt", w, lin.Rmat)
    # Endpoint term rho on (Xi0, Xi(1), h); h is the last Y sample.
    H_basis = Y_basis[-1]
    P = np.vstack([Xi0_basis, xi1, H_basis])
    hess += P.T @ rho_matrix(lin) @ P
    hess = 0.5 * (hess + hess.T)

    # The linearized shooting constraints on (Xi0, Xi1 + B1 h).
    cons = lin.dcons @ np.vstack([Xi0_basis, xi1 + lin.B[-1] @ H_basis])

    gram_diag = np.concatenate([np.ones(D), np.tile(w, S)])
    gram_diag[ys[:, -1]] += 1.0
    return QuadraticFormData(lin=lin, hess=hess, cons=cons, gram_diag=gram_diag)


# ---------------------------------------------------------------------------
# Positivity check
# ---------------------------------------------------------------------------


@dataclass
class PositivityReport:
    c_est: float
    lam_max: float
    nullspace_dim: int
    passed: bool
    nodes: int
    ncoord: int
    smallest: list           # up to three smallest eigenvalues, ascending
    vacuous: bool = False

    def to_json_dict(self) -> dict:
        keys = ("c_est", "nullspace_dim", "nodes", "ncoord", "lam_max")
        return {"pass": self.passed, "smallest_eigenvalues": self.smallest,
                **{k: getattr(self, k) for k in keys}}


def constraint_nullspace(cons: np.ndarray, ncoord: int) -> np.ndarray:
    """Orthonormal basis of the nullspace of the constraint rows."""
    if cons.size == 0:
        return np.eye(ncoord)
    _, svals, Vt = np.linalg.svd(cons, full_matrices=True)
    tol = max(cons.shape) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
    rank = int(np.sum(svals > tol))
    return Vt[rank:].T


def check_positivity(qfd: QuadraticFormData) -> PositivityReport:
    """Smallest generalized eigenvalue of the form against the order norm.

    Works in Gram-scaled coordinates c = r * c' with r = 1 / sqrt(gram_diag),
    in which the order norm is the Euclidean one: the critical subspace is
    the nullspace of the scaled linearized shooting constraints, and the
    generalized eigenvalues of the form against the Gram matrix are the
    standard ones of the reduced scaled form.  Passes when the smallest
    eigenvalue clears the relative margin ``POSITIVITY_MARGIN``.
    """
    r = 1.0 / np.sqrt(qfd.gram_diag)
    Z = constraint_nullspace(qfd.cons * r, qfd.ncoord)
    sizes = dict(nodes=qfd.nodes, ncoord=qfd.ncoord, nullspace_dim=Z.shape[1])
    if Z.shape[1] == 0:
        return PositivityReport(c_est=np.inf, lam_max=np.inf, passed=True, smallest=[],
                                vacuous=True, **sizes)
    Zr = r[:, None] * Z
    eig = np.linalg.eigvalsh(Zr.T @ qfd.hess @ Zr)
    c_est, lam_max = float(eig[0]), float(np.max(np.abs(eig)))
    return PositivityReport(c_est=c_est, lam_max=lam_max,
                            passed=bool(c_est > POSITIVITY_MARGIN * lam_max),
                            smallest=[float(v) for v in eig[:3]], **sizes)
