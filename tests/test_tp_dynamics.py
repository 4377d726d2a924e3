import dataclasses

import numpy as np
import pytest

from arcshoot import problems as P
from arcshoot import tp_dynamics
from arcshoot.arc_structure import ArcKind, ArcStructure
from arcshoot.errors import (
    ArcshootError,
    ConfigurationError,
    FirstOrderViolation,
    NonFiniteState,
    SingularDenominatorError,
)
from arcshoot.problem_def import ProblemDef, gamma_control, second_brackets
from arcshoot.tp_dynamics import (
    arc_controls,
    arc_field,
    arc_hamiltonian,
    constraint_multiplier_density,
    durations,
    propagate_arc,
    propagate_endpoint,
    write_tp_csv,
)
from conftest import sequential_pass

B, C, S = ArcKind.BMinus, ArcKind.Constrained, ArcKind.Singular


# One-arc structures: the joint-pass functions with the single arc kind ``kind``
# and an arc axis of length 1.  The propagators take the arc of duration dt as
# the whole horizon T = dt of a one-arc structure (no switching times).

def _arc(prob, kind, dt, x0, p0, M):
    return propagate_arc(dataclasses.replace(prob, T=dt), (kind,), [],
                         np.asarray(x0)[..., None, :], np.asarray(p0)[..., None, :], M)


def _endpoint(prob, kind, dt, x0, p0, M):
    xe, pe = propagate_endpoint(dataclasses.replace(prob, T=dt), (kind,), [],
                                np.asarray(x0)[..., None, :], np.asarray(p0)[..., None, :], M)
    return xe[..., 0, :], pe[..., 0, :]


def _rhs(prob, kind, dt, x, p):
    """Coupled rates dt (v, -D_x H) of one arc of duration dt."""
    v, hx = arc_field(prob, (kind,), x[..., None, :], p[..., None, :])
    return dt * v[..., 0, :], -dt * hx[..., 0, :]


def _starts(omega):
    """(tau, x0, p0) of a shooting vector, the propagators' arguments."""
    return omega.tau, omega.x0, omega.p0


def _ham(prob, kind, x, p):
    return arc_hamiltonian(prob, (kind,), np.asarray(x)[..., None, :],
                           np.asarray(p)[..., None, :])[..., 0]


def _scalar_growth_problem():
    """xdot = x under the B- rule with u_min = 0 (control never acts)."""
    return ProblemDef(
        n=1, q=0, T=1.0,
        f0=lambda x: np.asarray(x, dtype=float),
        f1=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        df0=lambda x: np.ones(np.asarray(x).shape + (1,)),
        df1=lambda x: np.zeros(np.asarray(x).shape + (1,)),
        g=lambda x: np.asarray(x)[..., 0] - 100.0,
        dg=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        phi=lambda x0, xT: 0.0,
        dphi=lambda x0, xT: (np.zeros(1), np.zeros(1)),
        Phi=lambda x0, xT: np.zeros(0),
        dPhi=lambda x0, xT: (np.zeros((0, 1)), np.zeros((0, 1))),
        u_min=0.0, u_max=1.0,
    )


def _control(prob, kind, x, p):
    """arc_controls of the one-arc structure ``(kind,)`` at states x and costates p (..., n)."""
    x, p = np.asarray(x, dtype=float)[..., None, :], np.asarray(p, dtype=float)[..., None, :]
    return arc_controls(prob, (kind,), x, p, prob.f0(x), prob.f1(x))[..., 0]


class TestArcControl:
    def test_bang_values(self, regulator):
        x, p = np.zeros(3), np.zeros(3)
        assert _control(regulator, B, x, p) == -1.0
        assert _control(regulator, ArcKind.BPlus, x, p) == 1.0

    def test_constrained_feedback(self, regulator):
        assert _control(regulator, C, np.array([0.3, -0.2, 0.1]), np.zeros(3)) == 0.0

    def test_singular_recovers_x1(self, regulator):
        x = np.array([0.17, -0.17, 0.5])
        p = np.array([0.17, 0.0, 1.0])
        assert _control(regulator, S, x, p) == pytest.approx(0.17, abs=1e-14)

    def test_singular_guard(self, regulator):
        with pytest.raises(SingularDenominatorError):
            _control(regulator, S, np.zeros(3), np.array([1.0, 1.0, 0.0]))

    def test_missing_bound_rejected(self, regulator):
        unbounded = dataclasses.replace(regulator, u_min=None)
        with pytest.raises(ConfigurationError, match="B- arc with absent lower bound"):
            _control(unbounded, B, np.zeros(3), np.zeros(3))
        unbounded = dataclasses.replace(regulator, u_max=None)
        with pytest.raises(ConfigurationError, match="B\\+ arc with absent upper bound"):
            _control(unbounded, ArcKind.BPlus, np.zeros(3), np.zeros(3))


class TestArcRhs:
    def test_bminus_state_rate(self, regulator):
        x = np.array([0.4, 0.7, 0.0])
        dx, _ = _rhs(regulator, B, 1.2, x, np.zeros(3))
        np.testing.assert_allclose(dx, 1.2 * np.array([0.7, -1.0, 0.5 * (0.16 + 0.49)]))

    def test_zero_fields(self):
        prob = _scalar_growth_problem()
        zero = dataclasses.replace(prob, f0=prob.f1, df0=prob.df1)
        dx, dp = _rhs(zero, B, 0.7, np.array([2.0]), np.array([3.0]))
        assert dx == pytest.approx(0.0) and dp == pytest.approx(0.0)

    def test_singular_costate_rate(self, regulator):
        x = np.array([0.2, -0.2, 0.1])
        p = np.array([0.2, 0.0, 1.0])
        _, dp = _rhs(regulator, S, 2.4, x, p)
        # D_x H with u independent: (p3 x1, p1 + p3 x2, 0)
        np.testing.assert_allclose(dp, -2.4 * np.array([0.2, 0.0, 0.0]), atol=1e-14)

    def test_constrained_gradient_term(self):
        # Independent oracle: finite differences of H(x) = p (f0 + Gamma(x) f1).
        prob = _curved()
        x = np.array([1.0, 1.0])
        p = np.array([0.3, -0.5])
        _, dp = _rhs(prob, C, 1.0, x, p)

        def ham(y):
            return float(p @ (prob.f0(y) + gamma_control(prob, y, prob.f0(y), prob.f1(y))
                              * prob.f1(y)))

        fd = np.array([
            (ham(x + h_vec) - ham(x - h_vec)) / (2e-6)
            for h_vec in (np.array([1e-6, 0.0]), np.array([0.0, 1e-6]))
        ])
        np.testing.assert_allclose(dp, -fd, rtol=1e-5, atol=1e-8)


def _curved():
    n = 2
    return ProblemDef(
        n=n, q=0, T=1.0,
        f0=lambda x: np.stack([np.asarray(x)[..., 1], -np.asarray(x)[..., 0]], axis=-1),
        f1=lambda x: np.broadcast_to(np.array([0.0, 1.0]), np.asarray(x).shape),
        df0=lambda x: np.broadcast_to(np.array([[0.0, 1.0], [-1.0, 0.0]]),
                                      np.asarray(x).shape + (n,)),
        df1=lambda x: np.zeros(np.asarray(x).shape + (n,)),
        g=lambda x: np.asarray(x)[..., 0] * np.asarray(x)[..., 1] - 1.0,
        dg=lambda x: np.stack([np.asarray(x)[..., 1], np.asarray(x)[..., 0]], axis=-1),
        phi=lambda x0, xT: 0.0,
        dphi=lambda x0, xT: (np.zeros(n), np.zeros(n)),
        Phi=lambda x0, xT: np.zeros(0),
        dPhi=lambda x0, xT: (np.zeros((0, n)), np.zeros((0, n))),
    )


class TestBatchGuards:
    """A guard failure in a (2, 3, n) batch reports the flagged row itself."""

    def test_gamma_control(self):
        prob = _curved()                       # dg.f1 = x1
        x = np.ones((2, 3, 2))
        x[1, 2] = [0.0, 4.0]
        with pytest.raises(FirstOrderViolation) as err:
            gamma_control(prob, x, prob.f0(x), prob.f1(x))
        np.testing.assert_array_equal(err.value.x, [0.0, 4.0])
        assert err.value.denominator == 0.0

    def test_singular_control(self, regulator):
        x = np.arange(18.0).reshape(2, 3, 3)
        p = np.ones((2, 3, 3))
        p[1, 0, 2] = 0.0                       # p [[f1,f0],f1] = -p3
        with pytest.raises(SingularDenominatorError) as err:
            _control(regulator, S, x, p)
        np.testing.assert_array_equal(err.value.x, x[1, 0])

    def test_multiplier_density(self):
        prob = _curved()
        x = np.ones((2, 3, 2))
        x[0, 1] = [0.0, -3.0]
        with pytest.raises(FirstOrderViolation) as err:
            constraint_multiplier_density(prob, x, np.ones((2, 3, 2)))
        np.testing.assert_array_equal(err.value.x, [0.0, -3.0])


class TestPropagate:
    def test_bminus_polynomials_exact(self, regulator):
        arc = _arc(regulator, B, 1.2, np.array([0.0, 1.0, 0.0]), np.zeros(3), 200)
        t = arc.times()[:, 0]
        np.testing.assert_array_equal(t, 1.2 * arc.s)
        np.testing.assert_allclose(arc.x[:, 0, 1], 1.0 - t, atol=1e-12)
        np.testing.assert_allclose(arc.x[:, 0, 0], t - 0.5 * t**2, atol=1e-12)

    def test_zero_duration(self, regulator):
        # The first arc ends where it starts: tau_1 = 0.
        x0 = np.array([[0.3, -0.1, 0.2], [0.1, 0.2, 0.3]])
        p0 = np.array([[1.0, 2.0, 3.0], [1.0, 1.0, 1.0]])
        traj = propagate_arc(regulator, (B, ArcKind.BPlus), [0.0], x0, p0, 10)
        np.testing.assert_array_equal(traj.x[-1, 0], x0[0])
        np.testing.assert_array_equal(traj.p[-1, 0], p0[0])

    def test_exponential_oracle(self):
        arc = _arc(_scalar_growth_problem(), B, 1.0, np.array([1.0]),
                   np.array([0.0]), 100)
        assert abs(arc.x[-1, 0, 0] - np.e) < 1e-8

    def test_step_count_guard(self, regulator):
        with pytest.raises(ConfigurationError):
            _arc(regulator, B, 1.0, np.zeros(3), np.zeros(3), 0)

    def test_rk4_order(self, regulator):
        # terminal-state error vs a quadruple-resolution reference shrinks ~16x
        x0, p0, _ = P.regulator_solution(2.6)
        p0 = np.array([0.2, 0.0, 1.0])
        x0 = np.array([0.2, -0.2, 0.37250133])
        ref = _arc(regulator, S, 2.4, x0, p0, 640).x[-1, 0]
        e1 = np.linalg.norm(_arc(regulator, S, 2.4, x0, p0, 40).x[-1, 0] - ref)
        e2 = np.linalg.norm(_arc(regulator, S, 2.4, x0, p0, 80).x[-1, 0] - ref)
        assert 10.0 < e1 / e2 < 22.0

    def test_constraint_preserved_on_c_arc(self):
        prob = _curved()
        x0 = np.array([1.0, 1.0])  # on g = 0
        arc = _arc(prob, C, 0.8, x0, np.array([0.1, 0.1]), 800)
        gvals = np.array([prob.g(x) for x in arc.x[:, 0]])
        assert np.max(np.abs(gvals)) <= 1e-8

    def test_singular_feedback_consistency(self, regulator, reg_struct, reg_omega_exact):
        traj = propagate_arc(regulator, reg_struct.kinds, *_starts(reg_omega_exact), 300)
        x, p, w = traj.x[:, 2], traj.p[:, 2], traj.w[:, 2]
        b0, b1 = second_brackets(regulator, x)
        resid = np.einsum("ti,ti->t", p, b0) + w * np.einsum("ti,ti->t", p, b1)
        assert np.max(np.abs(resid)) <= 1e-8


@pytest.mark.parametrize("tau, want", [
    ((), [5.0]),
    ([[1.2, 2.6], [0.0, 5.0], [2.0, 2.0]],
     [[1.2, 2.6 - 1.2, 5.0 - 2.6], [0.0, 5.0, 0.0], [2.0, 0.0, 3.0]]),
], ids=["empty_tau", "batch_of_rows"])
def test_durations(tau, want):
    got = durations(tau, 5.0)
    assert got.dtype == float
    np.testing.assert_array_equal(got, want)
    assert got.shape == np.shape(want)


def _blow_up_problem():
    """xdot = x^2 under the B- rule with u_min = 0: from x0 = 1 it blows up at t = 1."""
    return dataclasses.replace(
        _scalar_growth_problem(),
        f0=lambda x: np.asarray(x, dtype=float) ** 2,
        df0=lambda x: 2.0 * np.asarray(x, dtype=float)[..., None],
    )


class TestNonFinite:
    @pytest.mark.parametrize("x0", [[1.0], [[0.1], [1.0]]], ids=["row", "batch"])
    @pytest.mark.parametrize("propagate", [_arc, _endpoint],
                             ids=["propagate_arc", "propagate_endpoint"])
    def test_blow_up_raises(self, propagate, x0):
        x0 = np.array(x0)
        with pytest.raises(NonFiniteState), np.errstate(over="ignore", invalid="ignore"):
            propagate(_blow_up_problem(), B, 2.0, x0, np.zeros_like(x0), 100)

    def test_batch_row_that_stays_finite(self):
        x0 = np.array([[0.1], [0.2]])
        arc = _arc(_blow_up_problem(), B, 2.0, x0, np.zeros_like(x0), 100)
        assert arc.x.shape == (101, 2, 1, 1) and arc.w.shape == (101, 2, 1)
        np.testing.assert_allclose(arc.x[-1, :, 0, 0], x0[:, 0] / (1.0 - 2.0 * x0[:, 0]),
                                   rtol=1e-7)
        xe, _ = _endpoint(_blow_up_problem(), B, 2.0, x0, np.zeros_like(x0), 100)
        np.testing.assert_array_equal(xe, arc.x[-1, :, 0])


class TestCallbackCounts:
    """One arc_field call evaluates each regulator callback it needs once."""

    @pytest.mark.parametrize("kind, x, p, calls", [
        (B, [0.3, 0.5, 0.1], [0.2, 0.1, 1.0], 4),
        (ArcKind.BPlus, [0.3, 0.5, 0.1], [0.2, 0.1, 1.0], 4),
        (S, [0.17, -0.17, 0.5], [0.17, 0.0, 1.0], 6),
        (C, [0.4, -0.2, 0.1], [0.45, 0.02, 1.0], 6),
    ], ids=["B-", "B+", "S", "C"])
    def test_calls_per_rhs(self, regulator, kind, x, p, calls):
        counts = self._counts(regulator, kind, x, p)
        assert sum(counts.values()) == calls, counts
        assert max(counts.values()) == 1, counts

    def test_fd_singular_rule_shares_one_stencil(self):
        # f0, f1, df0, df1 for the field; both second-level brackets from one
        # central difference of [f1,f0] whose centre row is [f1,f0] itself (4
        # calls) and the outer fields and their Jacobians (4).
        counts = self._counts(P.make_regulator_fd_brackets(), S, [0.17, -0.17, 0.5],
                              [0.17, 0.0, 1.0])
        assert counts == {"f0": 3, "f1": 3, "df0": 3, "df1": 3}

    @staticmethod
    def _counts(regulator, kind, x, p):
        """Callback name -> number of calls in one one-arc arc_field call."""
        counts = {}

        def counted(name, fn):
            def wrapper(*args):
                counts[name] = counts.get(name, 0) + 1
                return fn(*args)
            return wrapper

        names = [f.name for f in dataclasses.fields(regulator)
                 if callable(getattr(regulator, f.name))]
        prob = dataclasses.replace(regulator, **{
            name: counted(name, getattr(regulator, name)) for name in names})
        _rhs(prob, kind, 1.0, np.array(x), np.array(p))
        return counts


class TestHamiltonian:
    def test_zero_costate(self, regulator):
        assert _ham(regulator, B, np.array([1.0, 2.0, 3.0]), np.zeros(3)) == 0.0

    def test_constrained_value(self, regulator):
        x = np.array([0.4, -0.2, 0.1])
        p = np.array([0.7, 9.0, 2.0])  # p2 must not contribute since w = 0
        expect = 0.7 * (-0.2) + 0.5 * 2.0 * (0.16 + 0.04)
        assert _ham(regulator, C, x, p) == pytest.approx(expect)

    def test_constant_along_arcs_and_junctions(self, regulator, reg_struct, reg_omega_exact):
        traj = propagate_arc(regulator, reg_struct.kinds, *_starts(reg_omega_exact), 300)
        values = []
        for k, kind in enumerate(traj.kinds):
            h = np.array([_ham(regulator, kind, x, p)
                          for x, p in zip(traj.x[:, k], traj.p[:, k])])
            assert np.max(np.abs(h - h[0])) <= 1e-6 * (1 + abs(h[0]))
            values.append((h[0], h[-1]))
        for (h_prev, h_prev_end), (h_next, _) in zip(values, values[1:]):
            assert abs(h_prev_end - h_next) <= 1e-6


class TestMultiplierDensity:
    def test_regulator_formula(self, regulator):
        x = np.array([0.4, -0.2, 0.1])
        p = np.array([0.45, 0.02, 1.0])
        nu = constraint_multiplier_density(regulator, x, p)
        assert nu == pytest.approx(p[0] + p[2] * x[1])

    def test_zero_costate(self, regulator):
        assert constraint_multiplier_density(regulator, np.array([0.4, -0.2, 0.1]),
                                             np.zeros(3)) == 0.0

    def test_positive_on_c_interior(self, regulator):
        for t in np.linspace(1.25, 2.55, 15):
            x, p, _ = P.regulator_solution(t)
            assert constraint_multiplier_density(regulator, x, p) > 0.0


class TestExport:
    def test_csv_schema(self, tmp_path, regulator, reg_struct, reg_omega_exact):
        traj = propagate_arc(regulator, reg_struct.kinds, *_starts(reg_omega_exact), 5)
        path = tmp_path / "tp.csv"
        write_tp_csv(path, traj)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "arc,k,s,t,u,x1,x2,x3,p1,p2,p3"
        assert len(lines) == 1 + 3 * 6
        first = lines[1].split(",")
        assert first[0] == "B-" and first[1] == "1"

    def test_rows_per_arc_with_repeated_kinds(self, tmp_path, regulator, multi_arc):
        # Arc k's rows come from its own slice, with t = tau_{k-1} + dt_k s.
        struct, traj = multi_arc
        write_tp_csv(tmp_path / "tp.csv", traj)
        bounds = (0.0, *struct.tau, regulator.T)
        want = ["arc,k,s,t,u,x1,x2,x3,p1,p2,p3"]
        for k, kind in enumerate(struct.kinds):
            t = bounds[k] + (bounds[k + 1] - bounds[k]) * traj.s
            rows = np.column_stack([traj.s, t, traj.w[:, k], traj.x[:, k], traj.p[:, k]])
            want += [",".join([kind.value, str(k + 1)] + [f"{v:.9g}" for v in row])
                     for row in rows]
        assert (tmp_path / "tp.csv").read_text().splitlines() == want


class TestJointPass:
    """All arcs step in one RK4 pass; the arc axis couples nothing."""

    @pytest.mark.parametrize("make", [P.make_regulator, P.make_regulator_fd_brackets],
                             ids=["analytic", "fd_brackets"])
    @pytest.mark.parametrize("struct", [
        P.regulator_structure(),
        ArcStructure((B, S, C, S, ArcKind.BPlus), (0.8, 1.7, 2.9, 4.1)),
    ], ids=["B-,C,S", "B-,S,C,S,B+"])
    def test_arcs_independent_of_each_other(self, make, struct):
        # Each arc of a joint recursion equals a recursion over that arc alone, bit for bit.
        prob = make()
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-0.5, 0.5, (struct.N, 3))
        p0 = rng.uniform(0.5, 1.5, (struct.N, 3))   # p3 > 0 keeps S arcs off their guard
        traj = sequential_pass(prob, struct.kinds, struct.tau, x0, p0, 60)
        dts = durations(struct.tau, prob.T)
        for k, kind in enumerate(struct.kinds):
            alone = sequential_pass(dataclasses.replace(prob, T=dts[k]), (kind,), [],
                                    x0[k][None], p0[k][None], 60)
            for f in "xpw":
                np.testing.assert_array_equal(getattr(traj, f)[:, k], getattr(alone, f)[:, 0])
        np.testing.assert_array_equal(traj.s, alone.s)

    def test_guards_see_their_own_kind_only(self):
        # dg.f1 = x1 vanishes along the whole B- arc (x1 stays 0) and is 1 on
        # the C arc; the constrained feedback must only run on the C arc.
        prob = ProblemDef(
            n=2, q=0, T=1.0,
            f0=lambda x: np.stack([x[..., 0], np.ones_like(x[..., 0])], axis=-1),
            f1=lambda x: np.broadcast_to(np.array([0.0, 1.0]), x.shape),
            df0=lambda x: np.broadcast_to(np.array([[1.0, 0.0], [0.0, 0.0]]), x.shape + (2,)),
            df1=lambda x: np.zeros(x.shape + (2,)),
            g=lambda x: x[..., 0] * x[..., 1] - 1.0,
            dg=lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1),
            phi=lambda x0, xT: 0.0,
            dphi=lambda x0, xT: (np.zeros(2), np.zeros(2)),
            Phi=lambda x0, xT: np.zeros(0),
            dPhi=lambda x0, xT: (np.zeros((0, 2)), np.zeros((0, 2))),
            u_min=-1.0, u_max=1.0,
        )
        x0 = np.array([[0.0, 0.0], [1.0, 1.0]])
        with pytest.raises(FirstOrderViolation):
            gamma_control(prob, x0[0], prob.f0(x0[0]), prob.f1(x0[0]))
        traj = propagate_arc(prob, (B, C), [0.5], x0, np.ones((2, 2)), 10)
        np.testing.assert_array_equal(traj.x[:, 0, 0], 0.0)
        np.testing.assert_array_equal(traj.w[:, 0], -1.0)
        assert np.all(np.isfinite(traj.w[:, 1]))


def _parallel_cases():
    """id -> (problem, kinds, tau, x0, p0) of the one-row passes propagate_arc must match."""
    reg, fd = P.make_regulator(), P.make_regulator_fd_brackets()
    om = P.regulator_analytic_omega()
    cases = {"regulator": (reg, P.regulator_structure().kinds, *_starts(om)),
             "fd_brackets": (fd, P.regulator_structure().kinds, *_starts(om))}
    for tokens in (["B-", "S", "C", "S", "B+"], ["B-", "C", "S", "C", "S"]):
        struct = ArcStructure.from_tokens(tokens, (0.8, 1.7, 2.9, 4.1))
        rng = np.random.default_rng(3)
        x0 = rng.uniform(-0.5, 0.5, (struct.N, 3))
        p0 = rng.uniform(0.5, 1.5, (struct.N, 3))   # p3 > 0 keeps S arcs off their guard
        cases[",".join(tokens)] = (reg, struct.kinds, struct.tau, x0, p0)
    cases["toy-bang"] = (P.make_toy_bang(), P.toy_bang_structure().kinds,
                         *_starts(P.toy_bang_analytic_omega()))
    return cases


PARALLEL_CASES = _parallel_cases()


class TestParallelPass:
    """propagate_arc gives the nodes of the sequential recursion, and its errors."""

    @staticmethod
    def _counting_fallback(monkeypatch):
        calls, real = [], tp_dynamics._arc_nodes
        monkeypatch.setattr(tp_dynamics, "_arc_nodes", lambda *a: calls.append(a) or real(*a))
        return calls

    @pytest.mark.parametrize("M", [10, 60, 200, 400])
    @pytest.mark.parametrize("case", sorted(PARALLEL_CASES))
    def test_nodes_match_the_sequential_pass(self, monkeypatch, case, M):
        args = PARALLEL_CASES[case] + (M,)
        want = sequential_pass(*args)
        fallback = self._counting_fallback(monkeypatch)
        got = propagate_arc(*args)
        assert not fallback
        for f in "xpw":
            a, b = getattr(got, f), getattr(want, f)
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) <= 1e-14 * max(1.0, np.max(np.abs(b))), f
        np.testing.assert_array_equal(got.tau, want.tau)

    def test_cap_reached_falls_back_bit_for_bit(self, monkeypatch):
        monkeypatch.setattr(tp_dynamics, "CHORD_ITERS", 1)
        args = PARALLEL_CASES["B-,S,C,S,B+"] + (60,)
        want = sequential_pass(*args)
        fallback = self._counting_fallback(monkeypatch)
        got = propagate_arc(*args)
        assert len(fallback) == 1
        for f in "xpw":
            np.testing.assert_array_equal(getattr(got, f), getattr(want, f))

    @pytest.mark.parametrize("case", ["non-finite", "singular guard", "step count"])
    def test_errors_are_the_sequential_pass_own(self, regulator, case):
        args = {
            "non-finite": (dataclasses.replace(_blow_up_problem(), T=2.0), (B,), [],
                           np.array([[1.0]]), np.zeros((1, 1)), 100),
            "singular guard": (regulator, (S,), [], np.zeros((1, 3)),
                               np.array([[1.0, 1.0, 0.0]]), 50),
            "step count": PARALLEL_CASES["regulator"] + (0,),
        }[case]
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ArcshootError) as seq:
                sequential_pass(*args)
            with pytest.raises(ArcshootError) as par:
                propagate_arc(*args)
        assert type(par.value) is type(seq.value)
        assert str(par.value) == str(seq.value)
