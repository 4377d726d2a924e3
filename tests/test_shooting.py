import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arcshoot import problems as P
from arcshoot import shooting, tp_dynamics
from arcshoot.arc_structure import ArcKind, ArcStructure, arcs_of
from arcshoot.errors import ArcshootError, ConfigurationError, NonFiniteResidual
from arcshoot.problem_def import (
    ProblemDef,
    bracket_f1_f0,
    central_diff,
    check_first_order,
    gamma_gradient,
    second_brackets,
)
from arcshoot.second_order import linearized_matrices
from arcshoot.shooting import (
    ShootingVector,
    _linearize,
    _minimum_norm_step,
    _residual_flat_batch,
    endpoint_gradient,
    fd_jacobian,
    gauss_newton,
    load_omega,
    residual_dim,
    save_omega,
    shooting_function,
    steps_per_arc,
    unknown_dim,
    validate_solution,
)
from arcshoot.tp_dynamics import (
    arc_hamiltonian,
    constraint_multiplier_density,
    durations,
    legendre_clebsch_value,
    node_trajectory,
    propagate_arc,
)
from conftest import perturbed_start, sequential_pass
from test_tp_dynamics import _curved

B, BP, C, S = ArcKind.BMinus, ArcKind.BPlus, ArcKind.Constrained, ArcKind.Singular


def random_structure(rng) -> ArcStructure:
    N = rng.integers(1, 6)
    kinds = []
    prev = None
    options = [B, BP, C, S]
    for _ in range(N):
        kind = options[rng.integers(0, 4)]
        while kind == prev:
            kind = options[rng.integers(0, 4)]
        kinds.append(kind)
        prev = kind
    tau = np.sort(rng.uniform(0.1, 4.9, N - 1))
    while np.any(np.diff(tau) <= 0):
        tau = np.sort(rng.uniform(0.1, 4.9, N - 1))
    return ArcStructure(tuple(kinds), tuple(tau))


class TestPacking:
    @given(
        N=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=4),
        q=st.integers(min_value=0, max_value=3),
        n_c=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=50)
    def test_round_trip(self, N, n, q, n_c, seed):
        rng = np.random.default_rng(seed)
        sv = ShootingVector(
            x0=rng.normal(size=(N, n)),
            tau=np.sort(rng.uniform(0, 1, N - 1)),
            p0=rng.normal(size=(N, n)),
            psi=rng.normal(size=q),
            gamma=rng.normal(size=n_c),
        )
        back = ShootingVector.unpack(sv.pack(), N, n, q, n_c)
        np.testing.assert_array_equal(back.pack(), sv.pack())

    @pytest.mark.parametrize("make, what", [
        (lambda: ShootingVector(np.zeros((2, 3)), [1.0], np.zeros((2, 2)), [], []),
         r"x0 and p0 must agree in shape, got \(2, 3\) vs \(2, 2\)"),
        (lambda: ShootingVector(np.zeros((2, 3)), [], np.zeros((2, 3)), [], []),
         "2 arcs require 1 switching times"),
        (lambda: ShootingVector.unpack(np.zeros(5), 1, 2, 0, 0), "packed length 5, expected 4"),
    ], ids=["x0_p0_shapes", "tau_count", "packed_length"])
    def test_malformed_vector_rejected(self, make, what):
        with pytest.raises(ConfigurationError, match=what):
            make()

    @pytest.mark.parametrize("lead, N, n, q, n_c", [((2, 3), 3, 3, 3, 1), ((), 1, 1, 1, 0)],
                             ids=["batch_2x3", "one_arc_empty_tau"])
    def test_unpack_batch_equals_field_slices(self, lead, N, n, q, n_c):
        flats = np.random.default_rng(4).normal(size=lead + (2 * N * n + N - 1 + q + n_c,))
        a, b = N * n, N * n + N - 1
        c = b + N * n
        want = (flats[..., :a].reshape(lead + (N, n)), flats[..., a:b],
                flats[..., b:c].reshape(lead + (N, n)), flats[..., c : c + q], flats[..., c + q:])
        got = shooting._unpack_batch(flats, N, n, q)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, w)
            assert g.size == 0 or np.shares_memory(g, flats)

    def test_dimension_law_randomized(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_structure(rng)
            n_s = s.kinds.count(ArcKind.Singular)
            for n in (1, 3):
                for q in (0, 2):
                    assert residual_dim(s, n, q) - unknown_dim(s, n, q) == 2 * n_s

    def test_dimension_law_on_actual_residual(self, regulator, reg_struct, reg_omega_exact):
        res = shooting_function(regulator, reg_struct, reg_omega_exact, steps=60)
        assert res.stacked.size == residual_dim(reg_struct, regulator.n, regulator.q)
        assert reg_omega_exact.pack().size == unknown_dim(reg_struct, regulator.n, regulator.q)
        assert res.stacked.size - reg_omega_exact.pack().size == 2


class TestToyBang:
    def test_zero_at_hand_extremal(self, toy_bang):
        struct = P.toy_bang_structure()
        omega = P.toy_bang_analytic_omega()
        res = shooting_function(toy_bang, struct, omega, steps=50)
        assert np.linalg.norm(res.stacked, np.inf) <= 1e-14

    def test_nonzero_away_from_extremal(self, toy_bang):
        struct = P.toy_bang_structure()
        base = P.toy_bang_analytic_omega().pack()
        for i in range(base.size):
            for delta in (-0.05, 0.05):
                flat = base.copy()
                flat[i] += delta
                omega = ShootingVector.unpack(flat, 1, 1, 1, 0)
                res = shooting_function(toy_bang, struct, omega, steps=50)
                assert np.linalg.norm(res.stacked) > 1e-3

    def test_gauss_newton_one_shot(self, toy_bang):
        struct = P.toy_bang_structure()
        omega0 = ShootingVector(x0=[[0.4]], tau=[], p0=[[0.2]], psi=[0.3], gamma=[])
        omega, report = gauss_newton(toy_bang, struct, omega0, steps=50)
        assert report.converged and report.jacobian_rank == omega.pack().size
        assert report.n_iter <= 2
        np.testing.assert_allclose(omega.pack(), [0.0, 1.0, -1.0], atol=1e-10)

    def test_affine_invariance_of_fixed_point(self, toy_bang):
        # Scaling the endpoint map by c rescales Psi by 1/c, leaves x0, p0 alone.
        c = 7.0
        scaled = dataclasses.replace(
            toy_bang,
            Phi=lambda x0, xT: c * np.asarray(x0, dtype=float),
            dPhi=lambda x0, xT: (
                c * np.broadcast_to(np.eye(1), np.asarray(x0).shape[:-1] + (1, 1)),
                np.zeros(np.asarray(x0).shape[:-1] + (1, 1)),
            ),
        )
        struct = P.toy_bang_structure()
        start = ShootingVector(x0=[[0.3]], tau=[], p0=[[0.5]], psi=[0.1], gamma=[])
        base, base_report = gauss_newton(toy_bang, struct, start, steps=50)
        scaled_sol, scaled_report = gauss_newton(scaled, struct, start, steps=50)
        for sol, report in ((base, base_report), (scaled_sol, scaled_report)):
            assert report.converged and report.jacobian_rank == sol.pack().size
        np.testing.assert_allclose(scaled_sol.x0, base.x0, atol=1e-10)
        np.testing.assert_allclose(scaled_sol.p0, base.p0, atol=1e-10)
        np.testing.assert_allclose(scaled_sol.psi, base.psi / c, atol=1e-10)


class TestResidualStructure:
    def test_continuity_blocks_vanish_when_chained(self, regulator, reg_struct):
        # Chain each arc start to the previous propagated endpoint: both
        # continuity blocks must be exactly zero.
        omega = P.regulator_analytic_omega()
        dts = durations(reg_struct.tau, regulator.T)
        x0 = [omega.x0[0]]
        p0 = [omega.p0[0] + 0.1]  # junk costate start; chaining still exact
        for k, kind in enumerate(reg_struct.kinds[:-1]):
            alone = dataclasses.replace(regulator, T=dts[k])   # arc k as a one-arc horizon
            arc = sequential_pass(alone, (kind,), [], x0[k][None], p0[k][None], 40)
            x0.append(arc.x[-1, 0])
            p0.append(arc.p[-1, 0])
        chained = ShootingVector(
            x0=np.stack(x0), tau=omega.tau, p0=np.stack(p0),
            psi=omega.psi, gamma=np.zeros(1),
        )
        res = shooting_function(regulator, reg_struct, chained, steps=120)
        np.testing.assert_array_equal(res.state_continuity, 0.0)
        np.testing.assert_array_equal(res.costate_jumps, 0.0)

    def test_regulator_residual_at_analytic_point(self, regulator, reg_struct,
                                                  reg_omega_exact):
        res = shooting_function(regulator, reg_struct, reg_omega_exact, steps=1000)
        assert np.linalg.norm(res.stacked, np.inf) <= 5e-6

    def test_gamma_block_absent_without_c_arcs(self, regulator):
        struct = ArcStructure((B, S), (1.2,))
        m = unknown_dim(struct, regulator.n, regulator.q)
        assert m == 2 * 2 * 3 + 1 + 3 + 0
        omega = ShootingVector.unpack(np.zeros(m), 2, 3, 3, 0)
        assert omega.gamma.size == 0


def endpoint_problem(regulator):
    """The regulator with a cross term in phi, a nonlinear Phi and a nonlinear g.

    phi = xT[2] + xT[0]^2 / 2 + 0.3 x0[0] xT[1]; Phi keeps its zero at
    x0 = (0, 1, 0) and gains 0.1 (x0[1]^2 - 1) and 0.1 x0[0] xT[0]; g =
    0.1 x[0]^2 - x[1] - 0.2 keeps dg.f1 = -1, so the feedback is
    0.2 x[0] x[1].  Every term of the endpoint Lagrangian has a Hessian.
    """
    e = lambda x, i: np.asarray(x, dtype=float)[..., i]

    def dphi(x0, xT):
        d0, dT = np.zeros(np.shape(x0)), np.zeros(np.shape(xT))
        d0[..., 0] = 0.3 * e(xT, 1)
        dT[..., 0], dT[..., 1], dT[..., 2] = e(xT, 0), 0.3 * e(x0, 0), 1.0
        return d0, dT

    def Phi(x0, xT):
        extra = np.stack([e(x0, 1) ** 2 - 1.0, 0.0 * e(x0, 0), e(x0, 0) * e(xT, 0)], axis=-1)
        return np.asarray(x0, dtype=float) - [0.0, 1.0, 0.0] + 0.1 * extra

    def dPhi(x0, xT):
        D0 = np.zeros(np.shape(x0) + (3,)) + np.eye(3)
        DT = np.zeros(np.shape(x0) + (3,))
        D0[..., 0, 1] = 0.2 * e(x0, 1)
        D0[..., 2, 0] = 0.1 * e(xT, 0)
        DT[..., 2, 0] = 0.1 * e(x0, 0)
        return D0, DT

    def dg(x):
        return np.stack([0.2 * e(x, 0), -np.ones_like(e(x, 0)), 0.0 * e(x, 0)], axis=-1)

    def dgamma(x):
        return np.stack([0.2 * e(x, 1), 0.2 * e(x, 0), 0.0 * e(x, 0)], axis=-1)

    return dataclasses.replace(
        regulator,
        phi=lambda x0, xT: e(xT, 2) + 0.5 * e(xT, 0) ** 2 + 0.3 * e(x0, 0) * e(xT, 1),
        dphi=dphi, Phi=Phi, dPhi=dPhi,
        g=lambda x: 0.1 * e(x, 0) ** 2 - e(x, 1) - 0.2, dg=dg, dgamma=dgamma,
    )


def endpoint_lagrangian(prob, struct, x0, x1, psi, gamma):
    """l = phi + psi . Phi + sum_j gamma_j g(x0^{k_j}), written out on its own."""
    ends = x0[..., 0, :], x1[..., struct.N - 1, :]
    val = prob.phi(*ends) + np.einsum("...q,...q->...", psi, prob.Phi(*ends))
    for j, k in enumerate(np.arange(struct.N)[arcs_of(struct.kinds, ArcKind.Constrained)]):
        val = val + gamma[..., j] * prob.g(x0[..., k, :])
    return val


ENDPOINT_STRUCTURES = [
    ArcStructure((B, C, S), (1.2, 2.6)),
    ArcStructure((C, S), (2.6,)),                  # entry multiplier on the first arc
    ArcStructure((C, S, C, S), (1.0, 2.0, 3.0)),
    ArcStructure((B, S, C, S, BP), (0.8, 1.7, 2.9, 4.1)),
]


class TestEndpointGradient:
    @pytest.mark.parametrize("struct", ENDPOINT_STRUCTURES, ids=lambda s: ",".join(s.tokens()))
    def test_matches_central_difference_of_the_lagrangian(self, regulator, struct):
        prob = endpoint_problem(regulator)
        rng = np.random.default_rng(31)
        N, n = struct.N, prob.n
        psi = rng.normal(size=prob.q)
        gamma = rng.normal(size=struct.kinds.count(ArcKind.Constrained))
        z = rng.uniform(-1.0, 1.0, 2 * N * n)
        split = lambda zz: (zz[..., : N * n].reshape(zz.shape[:-1] + (N, n)),
                            zz[..., N * n :].reshape(zz.shape[:-1] + (N, n)))
        ref = central_diff(lambda zz: endpoint_lagrangian(prob, struct, *split(zz), psi, gamma),
                           z)[1]
        l0, l1 = endpoint_gradient(prob, struct, *split(z), psi, gamma)
        np.testing.assert_allclose(np.concatenate([l0.ravel(), l1.ravel()]), ref,
                                   rtol=0.0, atol=1e-9)

    def test_broadcasts_over_batch_axes(self, regulator):
        prob, struct = endpoint_problem(regulator), ENDPOINT_STRUCTURES[2]
        rng = np.random.default_rng(32)
        x0, x1 = rng.normal(size=(2, 4, struct.N, prob.n))
        psi, gamma = rng.normal(size=(4, prob.q)), rng.normal(size=(4, 2))
        l0, l1 = endpoint_gradient(prob, struct, x0, x1, psi, gamma)
        for i in range(4):
            r0, r1 = endpoint_gradient(prob, struct, x0[i], x1[i], psi[i], gamma[i])
            np.testing.assert_array_equal(l0[i], r0)
            np.testing.assert_array_equal(l1[i], r1)
        # One multiplier set for a batch of states.
        l0, _ = endpoint_gradient(prob, struct, x0, x1, psi[0], gamma[0])
        np.testing.assert_array_equal(
            l0[3], endpoint_gradient(prob, struct, x0[3], x1[3], psi[0], gamma[0])[0])

    def test_residual_rows_read_the_gradient(self, regulator):
        # Transversality and costate-jump blocks are (p, l) combinations,
        # including the entry multiplier of a first-arc C.
        prob, struct = endpoint_problem(regulator), ENDPOINT_STRUCTURES[1]
        rng = np.random.default_rng(33)
        omega = ShootingVector(rng.uniform(-0.5, 0.5, (2, 3)), struct.tau,
                               rng.uniform(0.5, 1.5, (2, 3)), rng.normal(size=3),
                               rng.normal(size=1))
        M = steps_per_arc(struct, 40)
        traj = sequential_pass(prob, struct.kinds, omega.tau, omega.x0, omega.p0, M)
        x1, p1 = traj.x[-1], traj.p[-1]
        l0, l1 = endpoint_gradient(prob, struct, omega.x0, x1, omega.psi, omega.gamma)
        res = shooting_function(prob, struct, omega, steps=40)
        np.testing.assert_array_equal(res.transversality_0, omega.p0[0] + l0[0])
        np.testing.assert_array_equal(res.costate_jumps, p1[0] - omega.p0[1] - l0[1])
        np.testing.assert_array_equal(res.transversality_T, p1[1] - l1[1])
        assert np.any(l0[0] != endpoint_gradient(prob, struct, omega.x0, x1, omega.psi,
                                                 0.0 * omega.gamma)[0][0])


class TestKindRows:
    def test_batched_rows_match_per_arc_reference(self, regulator):
        # B-,C,S,C,S: the entry rows of both C arcs and the two singular-entry
        # rows of both S arcs equal one callback per arc at that arc's start.
        prob = endpoint_problem(regulator)
        struct = ArcStructure.from_tokens(["B-", "C", "S", "C", "S"], (0.8, 1.7, 2.9, 4.1))
        rng = np.random.default_rng(34)
        x0, p0 = rng.uniform(-0.5, 0.5, (5, 3)), rng.uniform(0.5, 1.5, (5, 3))
        omega = ShootingVector(x0, struct.tau, p0, rng.normal(size=3), rng.normal(size=2))
        res = shooting_function(prob, struct, omega, steps=50)
        dot = lambda a, b: np.einsum("i,i->", a, b)
        bracket = lambda x: bracket_f1_f0(prob, x)
        np.testing.assert_array_equal(res.constraint_entry, [prob.g(x0[1]), prob.g(x0[3])])
        np.testing.assert_array_equal(res.singular_stationarity,
                                      [dot(p0[k], prob.f1(x0[k])) for k in (2, 4)])
        np.testing.assert_array_equal(res.singular_rate,
                                      [dot(p0[k], bracket(x0[k])) for k in (2, 4)])
        assert len(set(res.constraint_entry)) == len(set(res.singular_rate)) == 2


def _affine_problem():
    A = np.array([[0.0, 1.0], [-0.6, -0.2]])
    b = np.array([0.0, 1.0])
    w = np.array([1.0, 2.0])
    n = 2
    return ProblemDef(
        n=n, q=2, T=1.0,
        f0=lambda x: np.asarray(x, dtype=float) @ A.T,
        f1=lambda x: np.broadcast_to(b, np.asarray(x).shape),
        df0=lambda x: np.broadcast_to(A, np.asarray(x).shape + (n,)),
        df1=lambda x: np.zeros(np.asarray(x).shape + (n,)),
        g=lambda x: np.asarray(x)[..., 0] - 50.0,
        dg=lambda x: np.broadcast_to(np.eye(n)[0], np.asarray(x).shape),
        phi=lambda x0, xT: np.asarray(xT, dtype=float) @ w,
        dphi=lambda x0, xT: (np.zeros_like(np.asarray(x0, dtype=float)),
                             np.broadcast_to(w, np.asarray(xT).shape)),
        Phi=lambda x0, xT: np.asarray(x0, dtype=float) - np.array([1.0, 0.0]),
        dPhi=lambda x0, xT: (np.broadcast_to(np.eye(n), np.asarray(x0).shape[:-1] + (n, n)),
                             np.zeros(np.asarray(x0).shape[:-1] + (n, n))),
        u_min=-1.0, u_max=1.0,
    ), A, b, w


def _rk4_transition(M_steps, h, G):
    """One-arc RK4 transition matrix of zdot = G z, assembled by hand."""
    step = np.eye(G.shape[0])
    hg = h * G
    stage = np.eye(G.shape[0]) + hg / 2
    k1 = G
    k2 = G @ (np.eye(G.shape[0]) + 0.5 * h * k1)
    k3 = G @ (np.eye(G.shape[0]) + 0.5 * h * k2)
    k4 = G @ (np.eye(G.shape[0]) + h * k3)
    one = np.eye(G.shape[0]) + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    out = np.eye(G.shape[0])
    for _ in range(M_steps):
        out = one @ out
    return out


class TestJacobian:
    def test_affine_problem_matches_hand_jacobian(self):
        prob, A, b, w = _affine_problem()
        struct = ArcStructure((B,), ())
        M = 50
        omega = ShootingVector(x0=[[1.0, 0.0]], tau=[], p0=[[0.2, -0.3]],
                               psi=[0.1, 0.4], gamma=[])
        J = fd_jacobian(prob, struct, omega, steps=M)
        # Hand assembly: rows (Phi, p0 + Psi, p1 - w), unknowns (x0, p0, Psi).
        n = 2
        Phi_x = _rk4_transition(M, 1.0 / M, 1.0 * A)        # state flow map
        Q = _rk4_transition(M, 1.0 / M, -1.0 * A.T)         # costate flow map
        hand = np.zeros((6, 6))
        hand[0:2, 0:2] = np.eye(n)            # Phi rows wrt x0
        hand[2:4, 2:4] = np.eye(n)            # initial transversality wrt p0
        hand[2:4, 4:6] = np.eye(n)            # ... wrt Psi
        hand[4:6, 2:4] = Q                    # final transversality wrt p0
        np.testing.assert_allclose(J, hand, atol=1e-6)

    @pytest.mark.parametrize("scale", [0.0, 0.1])
    def test_matches_richardson_reference(self, regulator, reg_struct, reg_omega_exact, scale):
        # Central differences at steps h and 2h, h_j = 1e-4 max(1, |w_j|), combined
        # as (4 D(h) - D(2h)) / 3 cancel the h^2 term; the reference agrees with
        # the one from h / 2 and h to about 1e-11 of max|J| here.
        omega = (perturbed_start(regulator, reg_struct, reg_omega_exact, scale) if scale
                 else reg_omega_exact)
        w, M = omega.pack(), steps_per_arc(reg_struct, 300)

        def diff(k):
            h = k * 1e-4 * np.maximum(1.0, np.abs(w))
            r = _residual_flat_batch(regulator, reg_struct,
                                     np.concatenate([w + np.diag(h), w - np.diag(h)]), M)
            return ((r[: w.size] - r[w.size :]) / (2.0 * h[:, None])).T

        ref = (4.0 * diff(1) - diff(2)) / 3.0
        J = fd_jacobian(regulator, reg_struct, omega, 300)
        assert np.max(np.abs(J - ref)) <= 1e-9 * np.max(np.abs(ref))

    def test_full_rank_at_solution(self, regulator, reg_struct, reg_solution):
        report = reg_solution["report"]
        m = unknown_dim(reg_struct, regulator.n, regulator.q)
        assert report.jacobian_rank == m
        assert report.smallest_singular_value > 1e-6


class TestBatchIndependence:
    """A value must not depend on the other rows of its batch (bit for bit)."""

    @given(
        rows=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=50.0),
                st.booleans(),
                st.floats(min_value=-50.0, max_value=50.0),
            ),
            min_size=2, max_size=5,
        )
    )
    @example(rows=[(1.3, True, 1.0 / 1.3), (40.0, True, 1.0 / 40.0)])
    @settings(max_examples=40, deadline=None)
    def test_gamma_gradient(self, rows):
        prob = _curved()
        # |x1| >= 0.1 keeps dg.f1 = x1 clear of the first-order guard.
        xs = np.array([[a if pos else -a, b] for a, pos, b in rows])
        batch = gamma_gradient(prob, xs)
        for i, x in enumerate(xs):
            np.testing.assert_array_equal(batch[i], gamma_gradient(prob, x))

    @given(
        xs=st.lists(
            st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=3, max_size=3),
            min_size=2, max_size=5,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_fd_brackets(self, xs):
        prob = P.make_regulator_fd_brackets()
        xs = np.array(xs)
        batch = second_brackets(prob, xs)
        for i, x in enumerate(xs):
            for which, b_batch, b_row in zip(("[[f1,f0],f0]", "[[f1,f0],f1]"), batch,
                                             second_brackets(prob, x)):
                np.testing.assert_array_equal(b_batch[i], b_row, err_msg=which)

    @given(seed=st.integers(min_value=0, max_value=2**31), rows=st.integers(2, 4),
           scale=st.sampled_from([0.01, 0.05, 0.2]))
    @settings(max_examples=10, deadline=None)
    def test_residual(self, regulator, reg_struct, reg_omega_exact, seed, rows, scale):
        rng = np.random.default_rng(seed)
        flat = reg_omega_exact.pack()
        flats = flat * (1.0 + scale * rng.uniform(-1.0, 1.0, (rows, flat.size)))
        M = 10
        batch = _residual_flat_batch(regulator, reg_struct, flats, M)
        for i in range(rows):
            np.testing.assert_array_equal(
                batch[i], _residual_flat_batch(regulator, reg_struct, flats[i], M))


class TestPackedTau:
    """The entry points check the switching times they compute with, omega.tau."""

    @pytest.mark.parametrize("tau", [[-0.5, 2.6], [1.2, 6.0], [2.6, 1.2]],
                             ids=["outside_0_T", "past_T", "out_of_order"])
    @pytest.mark.parametrize("entry", [
        lambda prob, struct, omega: linearized_matrices(prob, struct, omega, 40),
        lambda prob, struct, omega: shooting_function(prob, struct, omega, 120),
        lambda prob, struct, omega: fd_jacobian(prob, struct, omega, 120),
        lambda prob, struct, omega: gauss_newton(prob, struct, omega, 120),
    ], ids=["linearized_matrices", "shooting_function", "fd_jacobian", "gauss_newton"])
    def test_invalid_packed_tau_raises(self, regulator, reg_struct, reg_omega_exact, entry,
                                       tau):
        # The structure's own times stay the valid [1.2, 2.6].
        ref = reg_omega_exact
        with pytest.raises(ConfigurationError, match="switching times"):
            entry(regulator, reg_struct, ShootingVector(ref.x0, tau, ref.p0, ref.psi, ref.gamma))


class TestFieldSizes:
    """Every entry point checks each field of omega against the structure."""

    @pytest.mark.parametrize("split", ["psi_into_gamma", "two_gammas"])
    @pytest.mark.parametrize("entry", [
        lambda prob, struct, omega: shooting_function(prob, struct, omega, 120),
        lambda prob, struct, omega: fd_jacobian(prob, struct, omega, 120),
        lambda prob, struct, omega: gauss_newton(prob, struct, omega, 120),
        lambda prob, struct, omega: linearized_matrices(prob, struct, omega, 40),
    ], ids=["shooting_function", "fd_jacobian", "gauss_newton", "linearized_matrices"])
    def test_misfit_field_raises(self, regulator, reg_struct, reg_omega_exact, entry, split):
        ref = reg_omega_exact
        psi, gamma = ((ref.psi[:2], np.concatenate([ref.psi[2:], ref.gamma]))
                      if split == "psi_into_gamma" else (ref.psi, np.repeat(ref.gamma, 2)))
        bad = ShootingVector(ref.x0, ref.tau, ref.p0, psi, gamma)
        with pytest.raises(ConfigurationError, match=r"omega\.(psi|gamma) has shape"):
            entry(regulator, reg_struct, bad)

    def test_states_of_another_dimension_raise(self, regulator, reg_struct, reg_omega_exact):
        ref = reg_omega_exact
        bad = ShootingVector(ref.x0[:, :2], ref.tau, ref.p0[:, :2], ref.psi, ref.gamma)
        with pytest.raises(ConfigurationError, match=r"omega\.x0 has shape \(3, 2\)"):
            fd_jacobian(regulator, reg_struct, bad, 120)


def _assert_same_trajectory(got, ref):
    """Every field of two trajectories, bit for bit."""
    np.testing.assert_array_equal(got.tau, ref.tau)
    assert got.T == ref.T and got.kinds == ref.kinds
    for f in "sxpw":
        np.testing.assert_array_equal(getattr(got, f), getattr(ref, f))


class TestGaussNewtonCore:
    def test_affine_residual_single_step(self):
        # F(y) = (y - 1, 2 (y - 1)) has Jacobian (1, 2): one exact step.
        y = 5.0
        J = np.array([[1.0], [2.0]])
        r = np.array([y - 1.0, 2.0 * (y - 1.0)])
        step, svals, rank = _minimum_norm_step(J, r)
        assert rank == 1
        assert y + step[0] == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_residual_quadratic_rate(self):
        # F(y) = (y^2 - 4, y - 2): iterate the exact Gauss-Newton recursion.
        y = 3.0
        errs = []
        for _ in range(6):
            J = np.array([[2.0 * y], [1.0]])
            r = np.array([y**2 - 4.0, y - 2.0])
            step, _, _ = _minimum_norm_step(J, r)
            y += step[0]
            errs.append(abs(y - 2.0))
        for e_prev, e_next in zip(errs, errs[1:]):
            if e_prev > 1e-12 and e_next > 1e-15:
                assert e_next <= 5.0 * e_prev**2

    def test_max_iter_returns_the_unconverged_iterate(self, regulator, reg_struct,
                                                      reg_omega_exact):
        # A missed tolerance is an outcome, not an error: the iterate and its
        # report come back, and the report says the solve did not converge.
        omega0 = perturbed_start(regulator, reg_struct, reg_omega_exact)
        omega, report = gauss_newton(regulator, reg_struct, omega0, steps=120, tol=1e-14,
                                     max_iter=1)
        assert report.n_iter == 1 and not report.converged and not report.stalled
        assert report.final_residual > 1e-14
        assert report.jacobian_rank == omega.pack().size
        np.testing.assert_array_equal(omega.tau, report.trajectory.tau)

    def test_rank_deficient_detected(self, toy_bang):
        # Duplicating the endpoint row keeps the extremal reachable but makes
        # the two multiplier columns identical: injectivity fails.
        def Phi(x0, xT):
            x0 = np.asarray(x0, dtype=float)
            return np.concatenate([x0, x0], axis=-1)

        def dPhi(x0, xT):
            x0 = np.asarray(x0, dtype=float)
            d0 = np.broadcast_to(np.ones((2, 1)), x0.shape[:-1] + (2, 1))
            return d0, np.zeros(x0.shape[:-1] + (2, 1))

        degenerate = dataclasses.replace(toy_bang, q=2, Phi=Phi, dPhi=dPhi)
        struct = P.toy_bang_structure()
        start = ShootingVector(x0=[[0.2]], tau=[], p0=[[0.7]], psi=[0.3, -0.1],
                               gamma=[])
        omega, report = gauss_newton(degenerate, struct, start, steps=50)
        assert report.converged
        assert report.jacobian_rank < omega.pack().size

    def test_trajectory_is_that_of_the_returned_iterate(self, regulator, reg_struct,
                                                        reg_omega_exact, monkeypatch):
        # From this 40 % start GN halves its step once (no 20 % start tried
        # halves); the grid it keeps must be the returned iterate's, bit for bit,
        # and each point it evaluates must cost one (2m + 1)-row pass and no
        # other pass: the grid comes from the centre row of the last point's.
        omega0 = perturbed_start(regulator, reg_struct, reg_omega_exact, scale=0.4, seed=1)
        m = omega0.pack().size
        points, passes, rows = [], [], []
        for calls, mod, name in ((points, shooting, "_linearize"),
                                 (passes, tp_dynamics, "_arc_nodes")):
            real = getattr(mod, name)
            monkeypatch.setattr(mod, name,
                                lambda *a, calls=calls, real=real: calls.append(a) or real(*a))
        endpoint = shooting.propagate_endpoint
        monkeypatch.setattr(shooting, "propagate_endpoint",
                            lambda prob, kinds, tau, x0, p0, M, centre=None:
                            rows.append(x0.shape[:-2])
                            or endpoint(prob, kinds, tau, x0, p0, M, centre=centre))
        omega, report = gauss_newton(regulator, reg_struct, omega0, steps=300)
        assert report.converged and report.jacobian_rank == omega.pack().size
        assert len(points) > report.n_iter + 1
        assert len(passes) == len(points)
        assert rows == [(2 * m + 1,)] * len(points)
        monkeypatch.undo()
        _assert_same_trajectory(report.trajectory, sequential_pass(
            regulator, reg_struct.kinds, omega.tau, omega.x0, omega.p0,
            steps_per_arc(reg_struct, 300)))

    def test_max_iter_exit_keeps_the_last_iterates_trajectory(self, regulator, reg_struct,
                                                             reg_omega_exact, monkeypatch):
        # One iteration, then the cap ends the solve unconverged: the returned
        # iterate and the report's grid are those of the accepted iterate, the
        # last point evaluated, not the start's.
        omega0 = perturbed_start(regulator, reg_struct, reg_omega_exact, scale=0.2, seed=1)
        points = []
        real = shooting._linearize
        monkeypatch.setattr(shooting, "_linearize",
                            lambda prob, struct, flat, M: points.append(flat)
                            or real(prob, struct, flat, M))
        omega, report = gauss_newton(regulator, reg_struct, omega0, steps=120, tol=1e-14,
                                     max_iter=1)
        assert report.n_iter == 1 and not report.converged and len(points) >= 2
        last = ShootingVector.unpack(points[-1], reg_struct.N, 3, 3, 1)
        assert not np.array_equal(last.pack(), omega0.pack())
        np.testing.assert_array_equal(omega.pack(), points[-1])
        _assert_same_trajectory(report.trajectory, sequential_pass(
            regulator, reg_struct.kinds, last.tau, last.x0, last.p0,
            steps_per_arc(reg_struct, 120)))

    @pytest.mark.parametrize("make", [P.make_regulator, P.make_regulator_fd_brackets],
                             ids=["regulator", "fd_brackets"])
    def test_centre_row_grid_is_the_one_row_pass(self, multi_arc, make):
        # B-,S,C,S,B+ (repeated kinds): the nodes _linearize keeps from row 0 of
        # its stencil pass give the grid of the sequential one-row recursion, bit for bit.
        prob = make()
        struct, traj = multi_arc
        omega = ShootingVector(traj.x[0], traj.tau, traj.p[0], np.zeros(3), np.zeros(1))
        r, _, nodes = _linearize(prob, struct, omega.pack(), 60)
        assert len(nodes) == 61 and nodes[0].shape == (struct.N, 6)
        np.testing.assert_array_equal(r, shooting_function(prob, struct, omega, 300).stacked)
        _assert_same_trajectory(node_trajectory(prob, struct.kinds, omega.tau, nodes),
                                sequential_pass(prob, struct.kinds, omega.tau, omega.x0,
                                                omega.p0, 60))

    @pytest.mark.parametrize("scale", [0.0, 0.01], ids=["analytic", "perturbed_1pct"])
    def test_linearized_residual_is_the_shooting_function(self, regulator, reg_struct,
                                                          reg_omega_exact, scale):
        # The centre row of the stencil pass is the residual, bit for bit.
        omega = perturbed_start(regulator, reg_struct, reg_omega_exact, scale=scale, seed=1)
        r, J, _ = _linearize(regulator, reg_struct, omega.pack(), steps_per_arc(reg_struct, 300))
        np.testing.assert_array_equal(r, shooting_function(regulator, reg_struct, omega,
                                                           300).stacked)
        assert J.shape == (r.size, omega.pack().size)

    def test_step_floor_ends_the_iteration(self, regulator, reg_struct, reg_omega_exact):
        # With tol = 0 no residual is small enough; GN stops when the accepted
        # step falls under STEP_FLOOR, long before max_iter, without a stall.
        _, report = gauss_newton(regulator, reg_struct, reg_omega_exact, steps=250, tol=0.0)
        assert report.n_iter == 2 and not report.stalled and not report.converged
        assert report.iterations[-1]["step_norm"] <= shooting.STEP_FLOOR
        assert report.iterations[0]["step_norm"] > shooting.STEP_FLOOR

    def test_raising_trial_halves_the_step(self, regulator, reg_struct, reg_omega_exact,
                                           monkeypatch):
        # The first trial point raises (call 2; call 1 is the start): the line
        # search treats it as a rejected step, halves it, and the solve goes on.
        omega0 = perturbed_start(regulator, reg_struct, reg_omega_exact)
        solved, full = gauss_newton(regulator, reg_struct, omega0, steps=120)
        assert full.converged and full.jacobian_rank == solved.pack().size
        calls, real = [], shooting._linearize

        def linearize(*args):
            calls.append(args)
            if len(calls) == 2:
                raise ArcshootError("trial point fails")
            return real(*args)

        monkeypatch.setattr(shooting, "_linearize", linearize)
        omega, report = gauss_newton(regulator, reg_struct, omega0, steps=120)
        assert report.converged and not report.stalled
        assert report.jacobian_rank == omega.pack().size
        assert report.iterations[0]["step_norm"] == 0.5 * full.iterations[0]["step_norm"]
        np.testing.assert_allclose(calls[2][2] - calls[0][2],
                                   0.5 * (calls[1][2] - calls[0][2]), rtol=0, atol=1e-15)

    def test_line_search_stall(self, regulator, reg_struct, reg_omega_exact, monkeypatch):
        # Every trial point raises the residual norm: after MAX_HALVINGS
        # halvings GN records the stall and stops at the start.
        omega0 = perturbed_start(regulator, reg_struct, reg_omega_exact)
        points, start, real = [], [], shooting._linearize

        def linearize(*args):
            points.append(args[2])
            if not start:
                start.extend(real(*args))
            r, J, nodes = start
            return (r if len(points) == 1 else 2.0 * r), J, nodes

        monkeypatch.setattr(shooting, "_linearize", linearize)
        omega, report = gauss_newton(regulator, reg_struct, omega0, steps=120)
        assert report.stalled and not report.converged and report.n_iter == 0
        assert len(points) == shooting.MAX_HALVINGS + 2
        np.testing.assert_allclose(points[-1] - points[0],
                                   0.5 ** shooting.MAX_HALVINGS * (points[1] - points[0]),
                                   rtol=0, atol=1e-15)
        np.testing.assert_array_equal(omega.pack(), omega0.pack())

    def test_regulator_converges_from_perturbation(self, reg_solution):
        report = reg_solution["report"]
        assert report.converged
        assert report.final_residual <= 1e-8
        assert not report.stalled


class TestValidation:
    def test_regulator_solution_passes(self, regulator, reg_struct, reg_solution):
        omega = reg_solution["omega"]
        traj = propagate_arc(regulator, reg_struct.kinds, omega.tau, omega.x0, omega.p0,
                             steps_per_arc(reg_struct, 1000))
        rep = validate_solution(regulator, reg_struct, traj)
        assert rep.passed, [c.name for c in rep.checks if not c.passed]
        jump = {c.name: c for c in rep.checks}["control_jump_at_cs_junctions"]
        assert jump.value == pytest.approx(0.2, abs=1e-3)

    def test_repeated_kinds_match_per_arc_reference(self, regulator, multi_arc):
        # Every check equals the same check assembled arc by arc from each
        # arc's own slice; the first-order samples run in arc order.
        struct, traj = multi_arc
        prob, C, S = regulator, ArcKind.Constrained, ArcKind.Singular
        arcs = [(kind, traj.x[:, k], traj.p[:, k], traj.w[:, k])
                for k, kind in enumerate(struct.kinds)]
        on = lambda *kinds: [a[1:] for a in arcs if a[0] in kinds]
        fo = check_first_order(prob, np.concatenate([x for x, _, _ in on(C)]))

        def drift(kind, x, p):
            h = arc_hamiltonian(prob, (kind,), x[:, None], p[:, None])[:, 0]
            return np.max(np.abs(h - h[0])) / (1.0 + np.abs(h[0]))

        want = {
            "bound_margin_on_interior_arcs":
                min(min(np.min(w - prob.u_min), np.min(prob.u_max - w)) for _, _, w in on(C, S)),
            "control_jump_at_cs_junctions":
                min(abs(a[3][-1] - b[3][0]) for a, b in zip(arcs, arcs[1:])
                    if {a[0], b[0]} == {C, S}),
            "first_order_condition_on_c_arcs": fo.min_abs,
            "legendre_clebsch_sign_on_s_arcs":
                max(np.max(legendre_clebsch_value(prob, x, p)) for x, p, _ in on(S)),
            "constraint_multiplier_nonnegative":
                min(np.min(constraint_multiplier_density(prob, x, p)) for x, p, _ in on(C)),
            "state_constraint_satisfied": max(np.max(prob.g(x)) for _, x, _, _ in arcs),
            "hamiltonian_constant_per_arc": max(drift(kind, x, p) for kind, x, p, _ in arcs),
        }
        checks = validate_solution(prob, struct, traj).checks
        assert {c.name: c.value for c in checks} == {k: float(v) for k, v in want.items()}
        assert checks[2].detail == f"min |dg.f1| vs guard {fo.guard:.3e}"

    def test_nonfinite_input_raises(self, regulator, reg_struct, reg_omega_exact):
        flat = reg_omega_exact.pack().copy()
        flat[0] = 1e280
        bad = ShootingVector.unpack(flat, 3, 3, 3, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArcshootError):
                shooting_function(regulator, reg_struct, bad, steps=60)

    def test_nonfinite_multiplier_raises(self, regulator, reg_struct, reg_omega_exact):
        # The states stay finite; only the transversality rows read psi.
        bad = dataclasses.replace(reg_omega_exact, psi=[np.nan, 0.0, 0.0])
        with pytest.raises(NonFiniteResidual, match="residual contains non-finite entries"):
            shooting_function(regulator, reg_struct, bad, steps=60)

    def test_step_budget_guard(self, regulator, reg_struct, reg_omega_exact):
        with pytest.raises(ArcshootError):
            shooting_function(regulator, reg_struct, reg_omega_exact, steps=2)


class TestWarmStart:
    def test_round_trip_and_reconvergence(self, tmp_path, regulator, reg_struct,
                                          reg_solution):
        path = tmp_path / "omega.json"
        save_omega(path, reg_struct, reg_solution["omega"], regulator, steps=1000)
        struct2, omega2, meta = load_omega(path, regulator)
        assert struct2.kinds == reg_struct.kinds
        assert meta["steps"] == 1000
        np.testing.assert_allclose(omega2.pack(), reg_solution["omega"].pack(),
                                   rtol=0, atol=1e-15)
        omega, report = gauss_newton(regulator, struct2, omega2, steps=1000)
        assert report.converged and report.jacobian_rank == omega.pack().size
        assert report.n_iter <= 2
