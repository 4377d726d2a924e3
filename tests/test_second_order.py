import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from arcshoot import problems as P
from arcshoot import problem_def, second_order
from arcshoot.arc_structure import ArcKind, ArcStructure, arcs_of
from arcshoot.errors import AssemblyError
from arcshoot.problem_def import ProblemDef, central_diff
from arcshoot.second_order import (
    QuadraticFormData,
    TPLinearization,
    _propagate_linear,
    assemble_omega,
    check_positivity,
    constraint_nullspace,
    cumulative_trapezoid,
    integrate_goh,
    linearized_matrices,
    omega_form_value,
    q_form_value,
    rho_value,
    tp_rates,
)
from arcshoot.shooting import ShootingVector
from arcshoot.tp_dynamics import durations, legendre_clebsch_value, propagate_arc, rk4
from test_shooting import endpoint_problem

B, C, S = ArcKind.BMinus, ArcKind.Constrained, ArcKind.Singular


def _random_smooth_controls(lin, rng, channels=None):
    channels = channels if channels is not None else lin.n_channels
    s = lin.s
    V = np.zeros((s.size, channels))
    for ch in range(channels):
        c = rng.normal(size=4)
        V[:, ch] = c[0] + c[1] * np.sin(2 * np.pi * s) + c[2] * np.cos(4 * np.pi * s) + c[3] * s
    return V


class TestLinearization:
    def test_matches_hand_jacobian(self, regulator, reg_struct, reg_lin):
        # Hand-assembled A at a singular-arc node: block dt*Df0 plus tau columns.
        lin = reg_lin
        i = 150
        D = lin.D
        X = lin.X[i]
        hand = np.zeros((D, D))
        dts = durations(lin.omega.tau, regulator.T)
        om = lin.omega
        u = propagate_arc(regulator, reg_struct.kinds, om.tau, om.x0, om.p0, 200).w[i, 2]
        for k, kind in enumerate(reg_struct.kinds):
            xk = X[3 * k : 3 * k + 3]
            jac = regulator.df0(xk)  # df1 = 0 and dGamma = 0 for this problem
            hand[3 * k : 3 * k + 3, 3 * k : 3 * k + 3] = dts[k] * jac
            w = {0: -1.0, 1: 0.0, 2: u}[k]
            rate = regulator.f0(xk) + w * regulator.f1(xk)
            if k <= 0:
                hand[3 * k : 3 * k + 3, 9] += rate
            if k == 1:
                hand[3 * k : 3 * k + 3, 9] -= rate
                hand[3 * k : 3 * k + 3, 10] += rate
            if k == 2:
                hand[3 * k : 3 * k + 3, 10] -= rate
        np.testing.assert_allclose(lin.A[i], hand, atol=1e-7)

    def test_constant_fields_have_zero_state_block(self):
        # With constant fields there is no singular channel to recover, so the
        # structure is bang-bang; the state block of A must vanish and the
        # Goh drive matrix is empty.
        prob, struct, omega = _constant_field_setup()
        lin = linearized_matrices(prob, struct, omega, nodes=40)
        n = prob.n
        assert np.max(np.abs(lin.A[:, : 2 * n, : 2 * n])) <= 1e-9
        assert lin.B.shape[-1] == 0 and lin.E.shape[-1] == 0

    def test_inconsistent_override_triggers_assembly_error(self, regulator, reg_struct,
                                                           reg_solution):
        # A bogus feedback gradient makes the FD Hessian of the Hamiltonian
        # asymmetric, which the assembly must flag.
        def bad_dgamma(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros_like(x)
            out[..., 0] = 3.0 * x[..., 1]
            return out

        bad = dataclasses.replace(regulator, dgamma=bad_dgamma)
        with pytest.raises(AssemblyError):
            linearized_matrices(bad, reg_struct, reg_solution["omega"], nodes=40)


class TestEndpointHessian:
    def test_matches_closed_form(self, regulator, reg_struct, reg_omega_exact):
        # The Hessian of l = phi + psi . Phi + gamma g(x0^2) of the test
        # problem, entry by entry, over (X0, X1) with D = 11.
        prob, omega = endpoint_problem(regulator), reg_omega_exact
        lin = linearized_matrices(prob, reg_struct, omega, nodes=20)
        D, (psi0, _, psi2), (gamma,) = lin.D, omega.psi, omega.gamma
        xT0, xT1 = D + 6, D + 7          # x1^3[0], x1^3[1]; x0^1 sits at 0..2
        ref = np.zeros((2 * D, 2 * D))
        for i, j, v in [(xT0, xT0, 1.0), (0, xT1, 0.3), (1, 1, 0.2 * psi0),
                        (0, xT0, 0.1 * psi2), (3, 3, 0.2 * gamma)]:
            ref[i, j] = ref[j, i] = v
        assert gamma != 0.0 and psi0 != 0.0 and psi2 != 0.0
        assert np.max(np.abs(lin.ell_hess - ref)) <= 1e-8

    def test_non_gradient_endpoint_derivative_raises(self, regulator, reg_struct,
                                                     reg_omega_exact):
        # Dropping d phi / d xT[1] leaves dphi without a potential: its
        # Jacobian is asymmetric, which the assembly must flag.
        prob = endpoint_problem(regulator)

        def dphi(x0, xT):
            d0, dT = prob.dphi(x0, xT)
            dT[..., 1] = 0.0
            return d0, dT

        bad = dataclasses.replace(prob, dphi=dphi)
        with pytest.raises(AssemblyError, match="endpoint Hessian"):
            linearized_matrices(bad, reg_struct, reg_omega_exact, nodes=20)


def _constant_field_setup():
    n = 1
    prob = ProblemDef(
        n=n, q=1, T=1.0,
        f0=lambda x: np.full_like(np.asarray(x, dtype=float), 0.3),
        f1=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        df0=lambda x: np.zeros(np.asarray(x).shape + (n,)),
        df1=lambda x: np.zeros(np.asarray(x).shape + (n,)),
        g=lambda x: np.asarray(x)[..., 0] - 50.0,
        dg=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        phi=lambda x0, xT: np.asarray(xT, dtype=float)[..., 0],
        dphi=lambda x0, xT: (np.zeros_like(np.asarray(x0, dtype=float)),
                             np.ones_like(np.asarray(xT, dtype=float))),
        Phi=lambda x0, xT: np.asarray(x0, dtype=float),
        dPhi=lambda x0, xT: (np.broadcast_to(np.eye(1), np.asarray(x0).shape[:-1] + (1, 1)),
                             np.zeros(np.asarray(x0).shape[:-1] + (1, 1))),
        u_min=-1.0, u_max=1.0,
    )
    struct = ArcStructure((B, ArcKind.BPlus), (0.5,))
    omega = ShootingVector(x0=[[0.0], [0.1]], tau=[0.5], p0=[[1.0], [1.0]],
                           psi=[-1.0], gamma=[])
    return prob, struct, omega


class TestTransformationIdentity:
    def test_q_equals_omega_on_random_directions(self, reg_lin):
        rng = np.random.default_rng(11)
        ds = reg_lin.s[1] - reg_lin.s[0]
        for _ in range(10):
            V = _random_smooth_controls(reg_lin, rng)
            Z0 = rng.normal(size=reg_lin.D)  # includes the tau components
            q = q_form_value(reg_lin, Z0, V)
            Y = cumulative_trapezoid(V, ds)
            om = omega_form_value(reg_lin, Z0, Y)
            assert abs(q - om) <= 1e-3 * max(abs(q), 1.0)

    def test_zero_direction_is_zero(self, reg_lin):
        V = np.zeros((reg_lin.s.size, reg_lin.n_channels))
        assert omega_form_value(reg_lin, np.zeros(reg_lin.D), V) == 0.0

    def test_assembled_form_matches_direct_quadrature(self, reg_qfd):
        rng = np.random.default_rng(12)
        c = rng.normal(size=reg_qfd.ncoord)
        xi0, Y, _ = reg_qfd.split(c)
        direct = omega_form_value(reg_qfd.lin, xi0, Y)
        assert reg_qfd.value(c) == pytest.approx(direct, rel=1e-10)


def _reference_assembly(lin):
    """The per-node loop of dense rank updates that assemble_omega replaced.

    Returns the form, the linearized shooting constraint rows, the per-node
    constrained-arc rows that the assembly once added to them, the Gram
    diagonal and the Xi nodes.
    """
    D, S, m1, w = lin.D, lin.n_channels, lin.s.size, lin.weights
    nc = D + S * m1
    Xi0, Yb, Hb = np.eye(D, nc), np.zeros((m1, S, nc)), np.zeros((S, nc))
    for ch in range(S):
        Hb[ch, D + ch * m1 + m1 - 1] = 1.0
        for i in range(m1):
            Yb[i, ch, D + ch * m1 + i] = 1.0
    xi = _propagate_linear(lin, lin.E, Yb, Xi0)
    hess = np.zeros((nc, nc))
    for i in range(m1):
        cross = xi[i].T @ lin.Mmat[i].T @ Yb[i]
        hess += w[i] * (xi[i].T @ lin.HXX[i] @ xi[i] + cross + cross.T
                        + Yb[i].T @ lin.Rmat[i] @ Yb[i])
    dz = np.vstack([Xi0, xi[-1] + lin.B[-1] @ Hb])
    cross = Hb.T @ lin.HUX[-1] @ xi[-1]
    hb = lin.HUX[-1] @ lin.B[-1]
    hess += dz.T @ lin.ell_hess @ dz + cross + cross.T + Hb.T @ (0.5 * (hb + hb.T)) @ Hb
    rows = [np.zeros((0, nc))]
    n = lin.prob.n
    for k in np.arange(lin.struct.N)[arcs_of(lin.struct.kinds, ArcKind.Constrained)]:
        blk = slice(k * n, (k + 1) * n)
        for i in range(m1):
            dgx = np.asarray(lin.prob.dg(lin.X[i, blk]), dtype=float)
            rows.append((dgx @ xi[i][blk, :] + dgx @ lin.B[i][blk, :] @ Yb[i])[None, :])
    gram_diag = np.concatenate([np.ones(D), np.tile(w, S)])
    gram_diag[Hb.argmax(axis=1)] += 1.0
    return 0.5 * (hess + hess.T), lin.dcons @ dz, np.vstack(rows), gram_diag, xi


def _two_channel_lin(regulator, nodes=30, seed=21):
    """Random linearization on the structure S,B-,S: two singular channels."""
    rng = np.random.default_rng(seed)
    struct = ArcStructure((S, B, S), (1.5, 3.0))
    D, Sn, m1 = 3 * 3 + 2, 2, nodes + 1

    def sym(shape):
        a = rng.normal(size=shape)
        return 0.5 * (a + np.swapaxes(a, -1, -2))

    return TPLinearization(
        prob=regulator, struct=struct, omega=None, s=np.linspace(0.0, 1.0, m1),
        X=rng.normal(size=(m1, D)),
        A=0.3 * rng.normal(size=(m1, D, D)),
        B=rng.normal(size=(m1, D, Sn)), E=rng.normal(size=(m1, D, Sn)),
        HXX=sym((m1, D, D)), HUX=rng.normal(size=(m1, Sn, D)),
        Mmat=rng.normal(size=(m1, Sn, D)), Rmat=sym((m1, Sn, Sn)),
        ell_hess=sym((2 * D, 2 * D)), dcons=rng.normal(size=(9, 2 * D)),
    )


class TestAssemblyEquivalence:
    def _check(self, lin, block=None):
        hess, cons, node_rows, gram_diag, xi = _reference_assembly(lin)
        # Record the Xi nodes that the assembly consumes from the generator.
        consumed, linear_nodes = [], second_order._linear_nodes

        def recorded(*args):
            for z in linear_nodes(*args):
                consumed.append(z)
                yield z

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(second_order, "_linear_nodes", recorded)
            if block is not None:
                mp.setattr(second_order, "NODE_BLOCK", block)
            qfd = assemble_omega(lin)
        assert np.max(np.abs(qfd.hess - hess)) <= 1e-12 * np.max(np.abs(hess))
        np.testing.assert_array_equal(qfd.cons, cons)
        # The feedback keeps g constant along a constrained arc, so each
        # per-node row lies in the row space of the shooting constraints.
        if node_rows.size:
            coef = np.linalg.lstsq(qfd.cons.T, node_rows.T, rcond=None)[0]
            off = np.max(np.abs(coef.T @ qfd.cons - node_rows))
            assert off <= 1e-12 * np.max(np.abs(node_rows))
        np.testing.assert_array_equal(qfd.gram_diag, gram_diag)
        np.testing.assert_array_equal(np.stack(consumed), xi)

    @pytest.mark.parametrize("nodes", [20, 60])
    def test_regulator_matches_node_loop(self, regulator, reg_struct, reg_omega_exact,
                                         nodes):
        self._check(linearized_matrices(regulator, reg_struct, reg_omega_exact, nodes))

    def test_two_constrained_arcs_match_node_loop(self, regulator):
        # B-,C,S,C,S from seeded arc starts: the constraint rows of both C
        # arcs come from one batched dg call, the reference loops per arc.
        struct = ArcStructure((B, C, S, C, S), (0.8, 1.7, 2.9, 4.1))
        rng = np.random.default_rng(7)
        omega = ShootingVector(rng.uniform(-0.5, 0.5, (5, 3)), struct.tau,
                               rng.uniform(0.5, 1.5, (5, 3)), rng.normal(size=3),
                               rng.normal(size=2))
        self._check(linearized_matrices(regulator, struct, omega, 40))

    def test_two_channels_match_node_loop(self, regulator):
        lin = _two_channel_lin(regulator)
        assert lin.n_channels == 2
        self._check(lin)

    # Grids that span several node blocks, the last one partial: the H_XX
    # sum, the M columns and the constraint rows cross block boundaries.
    @pytest.mark.parametrize("block", [7, 16])
    def test_regulator_node_blocks_match_node_loop(self, regulator, reg_struct,
                                                   reg_omega_exact, block):
        lin = linearized_matrices(regulator, reg_struct, reg_omega_exact, 60)
        assert lin.s.size > 2 * block     # at least three blocks
        self._check(lin, block=block)

    def test_two_constrained_arcs_node_blocks_match_node_loop(self, regulator):
        struct = ArcStructure((B, C, S, C, S), (0.8, 1.7, 2.9, 4.1))
        rng = np.random.default_rng(7)
        omega = ShootingVector(rng.uniform(-0.5, 0.5, (5, 3)), struct.tau,
                               rng.uniform(0.5, 1.5, (5, 3)), rng.normal(size=3),
                               rng.normal(size=2))
        self._check(linearized_matrices(regulator, struct, omega, 40), block=16)

    def test_two_channel_node_blocks_match_node_loop(self, regulator):
        lin = _two_channel_lin(regulator)
        assert lin.s.size > 2 * 8
        self._check(lin, block=8)

    def test_rho_value_reads_the_assembled_endpoint_block(self, regulator):
        # The endpoint block of the assembled form and rho_value come from
        # rho_matrix alone: on a pure (Xi0, h) direction with zero E the
        # whole form is rho.
        lin = _two_channel_lin(regulator)
        lin.E[:] = 0.0
        lin.HXX[:] = 0.0
        lin.Mmat[:] = 0.0
        lin.Rmat[:] = 0.0
        qfd = assemble_omega(lin)
        rng = np.random.default_rng(22)
        c = np.zeros(qfd.ncoord)
        c[: lin.D] = rng.normal(size=lin.D)
        h = rng.normal(size=2)
        c[[qfd.h_index(0), qfd.h_index(1)]] = h
        xi0, Y, _ = qfd.split(c)
        xi1 = integrate_goh(lin, xi0, Y)[-1]
        assert qfd.value(c) == pytest.approx(rho_value(lin, xi0, xi1, h), rel=1e-12)


class TestAssemblyMemory:
    def test_peak_stays_below_one_xi_table(self, regulator, reg_struct, reg_omega_exact):
        # The Xi paths are consumed in node blocks: at 400 nodes the traced
        # peak of the assembly stays below one (M+1) x D x ncoord table of
        # them (14.5 MB), the array the assembly held before.
        lin = linearized_matrices(regulator, reg_struct, reg_omega_exact, 400)
        m1, D = lin.s.size, lin.D
        table = m1 * D * (D + lin.n_channels * m1) * np.dtype(float).itemsize
        tracemalloc.start()
        try:
            assemble_omega(lin)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table, f"traced peak {peak / 1e6:.1f} MB, table {table / 1e6:.1f} MB"


def _stagewise_linear_nodes(lin, G, drive, Z0):
    """RK4 nodes of Z' = A Z + G drive, one stage at a time at each node.

    The stepper that the precomputed step maps of ``_linear_nodes`` replaced:
    nodal coefficients at the end stages, the mean of the two nodal values
    at the midpoint stages.
    """
    mid = lambda a: 0.5 * (a[:-1] + a[1:])
    A_mid, G_mid = mid(lin.A), mid(G)

    def rate(i, c, z):
        if c == 0.5:
            return A_mid[i] @ z + G_mid[i] @ (0.5 * (drive[i] + drive[i + 1]))
        j = i if c == 0.0 else i + 1
        return lin.A[j] @ z + G[j] @ drive[j]

    return np.stack(list(rk4(rate, Z0, lin.s.size - 1, lin.s[1] - lin.s[0])))


class TestLinearStepMaps:
    # _linear_nodes steps with one precomputed affine RK4 map per node; the
    # stage-wise stepper is the oracle, on both drive matrices.
    @pytest.fixture(scope="class", params=["regulator-1", "regulator-20", "regulator-400",
                                           "fd-brackets", "B-,S,C,S,B+", "two-channel",
                                           "toy-bang"])
    def lin(self, request, regulator, reg_struct, reg_omega_exact):
        case = request.param
        if case.startswith("regulator-"):
            return linearized_matrices(regulator, reg_struct, reg_omega_exact,
                                       int(case.split("-")[1]))
        if case == "fd-brackets":
            return linearized_matrices(P.make_regulator_fd_brackets(), reg_struct,
                                       reg_omega_exact, 60)
        if case == "B-,S,C,S,B+":
            return linearized_matrices(regulator, *_seeded_five_arcs(), 60)
        if case == "two-channel":
            return _two_channel_lin(regulator)
        return linearized_matrices(P.make_toy_bang(), P.toy_bang_structure(),
                                   P.toy_bang_analytic_omega(), 40)

    @pytest.mark.parametrize("drive_matrix", ["E", "B"])
    def test_matches_the_stagewise_stepper(self, lin, drive_matrix):
        G = getattr(lin, drive_matrix)
        rng = np.random.default_rng(23)
        Z0 = rng.normal(size=(lin.D, 3))
        drive = rng.normal(size=(lin.s.size, G.shape[-1], 3))
        want = _stagewise_linear_nodes(lin, G, drive, Z0)
        got = np.stack(list(second_order._linear_nodes(lin, G, drive, Z0)))
        assert got.shape == want.shape
        # The two steppers round each step differently, and the differences
        # accumulate over the M steps (3.5e-14 of max|node| seen at 400).
        steps = lin.s.size - 1
        tol = 2 * steps * np.finfo(float).eps
        assert np.max(np.abs(got - want)) <= tol * np.max(np.abs(want))


class TestClosedFormComparison:
    def test_integral_part_matches_regulator_closed_form(self, regulator, reg_struct,
                                                         reg_qfd):
        # On critical directions with frozen switching times the running part
        # of the assembled form equals int (xi1^2 + (xi2 + y)^2) dt exactly
        # (same nodes, same quadrature); the endpoint terms differ and are
        # exercised by the acceptance suite.
        qfd = reg_qfd
        lin = qfd.lin
        pin = np.zeros((2, qfd.ncoord))
        pin[0, lin.D - 2] = 1.0
        pin[1, lin.D - 1] = 1.0
        Z = constraint_nullspace(np.vstack([qfd.cons, pin]), qfd.ncoord)
        rng = np.random.default_rng(13)
        dts = durations(lin.omega.tau, regulator.T)
        w = lin.weights
        for _ in range(20):
            c = Z @ rng.normal(size=Z.shape[1])
            xi0, Y, h = qfd.split(c)
            Xi = integrate_goh(lin, xi0, Y)
            ours = qfd.value(c) - rho_value(lin, Xi[0], Xi[-1], Y[-1])
            closed = 0.0
            for k, kind in enumerate(reg_struct.kinds):
                xi1 = Xi[:, 3 * k]
                xi2 = Xi[:, 3 * k + 1]
                y = dts[k] * Y[:, 0] if kind is S else np.zeros_like(xi1)
                closed += dts[k] * float(w @ (xi1**2 + (xi2 + y) ** 2))
            assert ours == pytest.approx(closed, rel=1e-3, abs=1e-12)


class TestPositivity:
    def _wrap(self, hess, cons, gram_diag):
        lin = SimpleNamespace(s=np.zeros(1))
        return QuadraticFormData(lin=lin, hess=hess, cons=cons, gram_diag=gram_diag)

    def test_identity_form_gives_one(self):
        qfd = self._wrap(np.eye(5), np.zeros((0, 5)), np.ones(5))
        rep = check_positivity(qfd)
        assert rep.c_est == pytest.approx(1.0) and rep.passed

    def test_indefinite_fails(self):
        qfd = self._wrap(np.diag([1.0, 1.0, -0.5]), np.zeros((0, 3)), np.ones(3))
        rep = check_positivity(qfd)
        assert rep.c_est == pytest.approx(-0.5) and not rep.passed

    def test_gram_diagonal_weights_each_coordinate(self):
        # Against the order norm sum_i g_i c_i^2, a diagonal form has the
        # eigenvalues a_i / g_i.
        qfd = self._wrap(np.diag([2.0, 3.0, 4.0]), np.zeros((0, 3)), np.array([2.0, 1.0, 8.0]))
        rep = check_positivity(qfd)
        assert rep.smallest == pytest.approx([0.5, 1.0, 3.0])

    def test_empty_nullspace_vacuous(self):
        qfd = self._wrap(np.eye(3), np.eye(3), np.ones(3))
        rep = check_positivity(qfd)
        assert rep.vacuous and rep.passed and rep.nullspace_dim == 0

    def test_invariant_under_row_rebasing(self):
        rng = np.random.default_rng(14)
        hess = rng.normal(size=(6, 6))
        hess = hess + hess.T
        cons = rng.normal(size=(2, 6))
        gram = np.ones(6)
        base = check_positivity(self._wrap(hess, cons, gram))
        mixed = check_positivity(self._wrap(hess, rng.normal(size=(2, 2)) @ cons, gram))
        assert mixed.c_est == pytest.approx(base.c_est, rel=1e-9)

    def test_regulator_certificate(self, reg_qfd):
        rep = check_positivity(reg_qfd)
        # The smallest eigenvalue sits at the discretization floor: the
        # junction-shift direction is an exact null direction of the form.
        assert rep.c_est > 0.0
        assert rep.c_est < 1e-4
        assert rep.nullspace_dim > 0

    def test_c_est_scales_with_node_spacing(self, reg_qfd_100, reg_qfd):
        # With the terminal shift tied to the last sample, the smallest
        # clearly positive eigenvalue halves when the grid doubles (the
        # terminal-concentration direction); the certificate is therefore
        # reported at the configured grid rather than extrapolated.
        e1 = check_positivity(reg_qfd_100).smallest[1]
        e2 = check_positivity(reg_qfd).smallest[1]
        assert 0.3 <= e2 / e1 <= 0.8

    @pytest.mark.parametrize("nodes", [100, 200])
    def test_regulator_matches_generalized_eigenproblem(self, reg_qfd_100, reg_qfd, nodes):
        qfd = {100: reg_qfd_100, 200: reg_qfd}[nodes]
        rep = check_positivity(qfd)
        assert rep.smallest == pytest.approx(_generalized_eigs(qfd)[:3], rel=1e-9)

    @pytest.mark.parametrize("nodes, passed", [
        (10, True), (20, True), (30, True), (50, False), (100, False), (200, False),
        (400, False)])
    def test_regulator_verdict_by_grid(self, regulator, reg_struct, reg_omega_exact, nodes,
                                       passed):
        # The analytic regulator's verdict at each grid: the margin is about
        # 7.6e-5 and c_est falls about 4x per doubling of the grid.
        lin = linearized_matrices(regulator, reg_struct, reg_omega_exact, nodes)
        rep = check_positivity(assemble_omega(lin))
        assert (rep.passed, rep.nullspace_dim) == (passed, nodes + 2)

    def test_random_form_matches_generalized_eigenproblem(self):
        rng = np.random.default_rng(15)
        hess = rng.normal(size=(8, 8))
        qfd = self._wrap(hess + hess.T, rng.normal(size=(2, 8)), rng.uniform(0.1, 3.0, 8))
        rep = check_positivity(qfd)
        assert rep.nullspace_dim == 6
        assert rep.smallest == pytest.approx(_generalized_eigs(qfd)[:3], rel=1e-9)


@pytest.fixture(scope="module")
def reg_qfd_100(regulator, reg_struct, reg_solution):
    return assemble_omega(linearized_matrices(regulator, reg_struct, reg_solution["omega"],
                                              nodes=100))


def _generalized_eigs(qfd):
    """Eigenvalues of Z' H Z against Z' G Z, by Cholesky factor of the reduced Gram."""
    Z = constraint_nullspace(qfd.cons, qfd.ncoord)
    Hr = Z.T @ qfd.hess @ Z
    Gr = (Z.T * qfd.gram_diag) @ Z
    L = np.linalg.cholesky(Gr)
    Linv = np.linalg.inv(L)
    W = Linv @ Hr @ Linv.T
    return np.linalg.eigvalsh(0.5 * (W + W.T))


def _curved_constraint_regulator():
    """Regulator with the constraint g = -x2 - 0.2 + 0.1 x1^2 and no overrides."""
    def g(x):
        x = np.asarray(x, dtype=float)
        return -x[..., 1] - 0.2 + 0.1 * x[..., 0] ** 2

    def dg(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        out[..., 0] = 0.2 * x[..., 0]
        out[..., 1] = -1.0
        return out

    return dataclasses.replace(P.make_regulator_fd_brackets(), g=g, dg=dg)


class TestCurvedConstraint:
    # A nonlinear g: the feedback still keeps g constant along the C arc,
    # so the entry row is the whole constraint and the critical subspace has
    # the dimension the shooting constraints leave, at every grid.
    @pytest.fixture(scope="class")
    def reports(self, reg_struct, reg_omega_exact):
        prob = _curved_constraint_regulator()
        out = {}
        for nodes in (20, 50, 200):
            lin = linearized_matrices(prob, reg_struct, reg_omega_exact, nodes)
            qfd = assemble_omega(lin)
            out[nodes] = (qfd.ncoord - np.linalg.matrix_rank(lin.dcons), check_positivity(qfd))
        return out

    @pytest.mark.parametrize("nodes", [20, 50, 200])
    def test_nullspace_is_the_shooting_constraints(self, reports, nodes):
        cone_dim, rep = reports[nodes]
        assert rep.nullspace_dim == cone_dim

    def test_c_est_settles_with_the_grid(self, reports):
        assert reports[200][1].c_est == pytest.approx(reports[50][1].c_est, rel=0.02)


class TestTpField:
    def test_matches_arc_rates(self, regulator, reg_struct, reg_omega_exact):
        omega = reg_omega_exact
        X = np.concatenate([omega.x0.ravel(), omega.tau])
        U = np.array([0.2])
        rates = tp_rates(regulator, reg_struct, U, X, omega.p0)
        D = X.size
        out = rates[:D]
        x3, p3 = omega.x0[2], omega.p0[2]
        np.testing.assert_allclose(
            out[6:9], 2.4 * (regulator.f0(x3) + 0.2 * regulator.f1(x3))
        )
        np.testing.assert_allclose(out[9:], 0.0)
        # H_X rows of the S arc hold the control at U.
        np.testing.assert_allclose(
            rates[D + 6 : D + 9], 2.4 * p3 @ (regulator.df0(x3) + 0.2 * regulator.df1(x3)),
            atol=1e-14,
        )
        assert rates.shape == (2 * D,)


def _curved_f1_regulator():
    """Regulator with f1 = (0.1 x2, 1 + 0.05 x1^2, 0.05 x1) and no overrides."""
    def f1(x):
        x = np.asarray(x, dtype=float)
        return np.stack([0.1 * x[..., 1], 1.0 + 0.05 * x[..., 0] ** 2, 0.05 * x[..., 0]], -1)

    def df1(x):
        x = np.asarray(x, dtype=float)
        jac = np.zeros(x.shape + (3,))
        jac[..., 0, 1] = 0.1
        jac[..., 1, 0] = 0.1 * x[..., 0]
        jac[..., 2, 0] = 0.05
        return jac

    return dataclasses.replace(P.make_regulator_fd_brackets(), f1=f1, df1=df1)


def _linearization_and_grid(prob, struct, omega, nodes):
    """linearized_matrices at ``nodes`` and the propagate_arc grid it was built on."""
    grids, real = [], second_order.propagate_arc
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(second_order, "propagate_arc",
                   lambda *a: grids.append(real(*a)) or grids[0])
        lin = linearized_matrices(prob, struct, omega, nodes)
    return lin, grids[0]


def _reference_coefficients(lin, grid):
    """B, E, H_UX, M and R as linearized_matrices once built them.

    One central difference of F, H_X and the switching row H_U = dt p f1 in
    the joint (X, U), then E = A B - dB/ds, M = B' H_XX - dH_UX/ds - H_UX A
    and R = B' H_XX B - 2 H_UX E - d(H_UX B)/ds, with np.gradient along the
    grid and R symmetrized.  ``grid`` is the grid ``lin`` was built on.
    """
    prob, struct = lin.prob, lin.struct
    N, n, D, nodes = struct.N, prob.n, lin.D, lin.s.size - 1
    k = arcs_of(struct.kinds, S)
    P_arcs = grid.p

    def rates(z):
        X, U = z[..., :D], z[..., D:]
        x = X[..., : N * n].reshape(X.shape[:-1] + (N, n))[..., k, :]
        dts = durations(X[..., N * n :], prob.T)[..., k]
        switching = dts * np.einsum("...i,...i->...", P_arcs[:, k], prob.f1(x))
        return np.concatenate([tp_rates(prob, struct, U, X, P_arcs), switching], axis=-1)

    XU = np.concatenate([lin.X, grid.w[:, k]], axis=1)
    J = central_diff(rates, XU)[1]
    A, B, HUX = J[:, :D, :D], J[:, :D, D:], J[:, 2 * D :, :D]
    HXX = J[:, D : 2 * D, :D]
    HXX = 0.5 * (HXX + np.swapaxes(HXX, 1, 2))
    ds = 1.0 / nodes
    E = np.einsum("tij,tjk->tik", A, B) - np.gradient(B, ds, axis=0)
    M = (np.einsum("tjs,tji->tsi", B, HXX) - np.gradient(HUX, ds, axis=0)
         - np.einsum("tsi,tij->tsj", HUX, A))
    HUXB = np.einsum("tsi,tik->tsk", HUX, B)
    R = (np.einsum("tis,tij,tjr->tsr", B, HXX, B) - 2.0 * np.einsum("tsi,tik->tsk", HUX, E)
         - np.gradient(HUXB, ds, axis=0))
    return B, E, HUX, M, 0.5 * (R + np.swapaxes(R, 1, 2))


def _seeded_five_arcs():
    """B-,S,C,S,B+ from the seed-3 arc starts: two channels, p f1 != 0."""
    struct = ArcStructure.from_tokens(["B-", "S", "C", "S", "B+"], (0.8, 1.7, 2.9, 4.1))
    rng = np.random.default_rng(3)
    omega = ShootingVector(rng.uniform(-0.5, 0.5, (5, 3)), struct.tau,
                           rng.uniform(0.5, 1.5, (5, 3)), rng.normal(size=3),
                           rng.normal(size=1))
    return struct, omega


class TestClosedFormCoefficients:
    # The singular-arc coefficients of linearized_matrices in closed form,
    # against the joint (X, U) central difference and the np.gradient
    # derivatives along the grid that they replaced, with a state-dependent f1.
    @pytest.fixture(scope="class", params=["B-,C,S", "B-,S,C,S,B+"])
    def grids(self, request, reg_struct, reg_omega_exact):
        """nodes -> (linearization, reference coefficients, arc costates)."""
        prob = _curved_f1_regulator()
        struct, omega = ((reg_struct, reg_omega_exact) if request.param == "B-,C,S"
                         else _seeded_five_arcs())
        out = {}
        for m in (50, 100, 200, 400):
            lin, grid = _linearization_and_grid(prob, struct, omega, m)
            out[m] = lin, _reference_coefficients(lin, grid), grid.p
        return out

    def test_gradient_error_rates(self, grids):
        # np.gradient's one-sided end differences are first order, its
        # central ones second order: per doubling of the nodes the end
        # differences fall about 2x and the interior ones about 4x.
        errs = []
        for m in (100, 200, 400):
            lin, (_, E, _, M, R), _ = grids[m]
            d = np.stack([np.max(np.abs(new - ref), axis=(1, 2))
                          for new, ref in ((lin.E, E), (lin.Mmat, M), (lin.Rmat, R))])
            errs.append((d[:, [0, -1]].max(axis=1), d[:, 1:-1].max(axis=1)))
        for (end0, in0), (end1, in1) in zip(errs, errs[1:]):
            assert np.all(in0 >= 3.0 * in1), (in0, in1)
            assert np.all(end0 >= 1.7 * end1), (end0, end1)

    @pytest.mark.parametrize("m", [50, 400])
    def test_b_and_hux_match_the_joint_difference(self, grids, m):
        lin, (B, _, HUX, _, _), _ = grids[m]
        np.testing.assert_allclose(lin.B, B, rtol=0, atol=1e-9)
        np.testing.assert_allclose(lin.HUX, HUX, rtol=0, atol=1e-9)

    def test_r_is_the_legendre_clebsch_coefficient(self, grids):
        lin, _, P_arcs = grids[200]
        N, n = lin.struct.N, lin.prob.n
        k = np.arange(N)[arcs_of(lin.struct.kinds, S)]
        x = lin.X[:, : N * n].reshape(-1, N, n)[:, k]
        dt = durations(lin.omega.tau, lin.prob.T)[k]
        diag = np.arange(k.size)
        np.testing.assert_array_equal(
            lin.Rmat[:, diag, diag], -dt ** 3 * legendre_clebsch_value(lin.prob, x, P_arcs[:, k]))
        off = lin.Rmat.copy()
        off[:, diag, diag] = 0.0
        assert not off.any()

    def test_r_reuses_the_bracket_difference_of_m(self, monkeypatch, reg_omega_exact):
        # Without bracket overrides, [f1,f0] is differenced on the node grid
        # twice: for the singular control of the grid and for M; R reads
        # [[f1,f0],f1] from M's difference.
        prob, struct, nodes = P.make_regulator_fd_brackets(), P.regulator_structure(), 40
        shapes, real = [], problem_def.bracket_f1_f0

        def counted(prob, x):
            shapes.append(np.shape(x))
            return real(prob, x)

        monkeypatch.setattr(problem_def, "bracket_f1_f0", counted)
        monkeypatch.setattr(second_order, "bracket_f1_f0", counted)
        linearized_matrices(prob, struct, reg_omega_exact, nodes)
        assert shapes.count((7, nodes + 1, 1, 3)) == 2

    def test_first_node_does_not_depend_on_the_grid(self, grids):
        for name in ("E", "Mmat", "Rmat"):
            np.testing.assert_array_equal(getattr(grids[50][0], name)[0],
                                          getattr(grids[400][0], name)[0])
