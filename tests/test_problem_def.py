import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcshoot import problems as P
from arcshoot.errors import ConfigurationError, FirstOrderViolation
from arcshoot.problem_def import (
    ProblemDef,
    bracket_f1_f0,
    check_first_order,
    gamma_control,
    gamma_gradient,
    second_brackets,
)

finite_coord = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def _linear_problem(A, b, n):
    """f0 = A x, f1 = b constant; endpoint maps are placeholders."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    return ProblemDef(
        n=n, q=0, T=1.0,
        f0=lambda x: x @ A.T,
        f1=lambda x: np.broadcast_to(b, np.asarray(x).shape),
        df0=lambda x: np.broadcast_to(A, np.asarray(x).shape + (n,)),
        df1=lambda x: np.zeros(np.asarray(x).shape + (n,)),
        g=lambda x: np.asarray(x)[..., 0] - 100.0,
        dg=lambda x: np.broadcast_to(np.eye(n)[0], np.asarray(x).shape),
        phi=lambda x0, xT: 0.0,
        dphi=lambda x0, xT: (np.zeros(n), np.zeros(n)),
        Phi=lambda x0, xT: np.zeros(0),
        dPhi=lambda x0, xT: (np.zeros((0, n)), np.zeros((0, n))),
        u_min=-1.0, u_max=1.0,
    )


class TestLieBracket:
    @given(a=finite_coord, b=finite_coord, c=finite_coord)
    def test_regulator_first_level(self, a, b, c):
        prob = P.make_regulator()
        x = np.array([a, b, c])
        np.testing.assert_allclose(
            bracket_f1_f0(prob, x), [-1.0, 0.0, -b], atol=1e-12
        )

    def test_regulator_second_level(self):
        prob = P.make_regulator()
        x = np.array([0.7, -0.3, 2.0])
        b0, b1 = second_brackets(prob, x)
        np.testing.assert_allclose(b0, [0, 0, 0.7])
        np.testing.assert_allclose(b1, [0, 0, -1.0])

    def test_fd_matches_analytic_overrides(self):
        ana = P.make_regulator()
        fd = P.make_regulator_fd_brackets()
        rng = np.random.default_rng(0)
        for _ in range(5):
            x = rng.uniform(-2, 2, 3)
            for which, b_fd, b_ana in zip(("[[f1,f0],f0]", "[[f1,f0],f1]"),
                                          second_brackets(fd, x), second_brackets(ana, x)):
                np.testing.assert_allclose(b_fd, b_ana, atol=1e-7, err_msg=which)

    def test_identical_fields_bracket_zero(self):
        prob = _linear_problem(np.eye(2), [1.0, 0.0], 2)
        prob = dataclasses.replace(prob, f1=prob.f0, df1=prob.df0)
        x = np.array([0.3, -0.8])
        np.testing.assert_allclose(bracket_f1_f0(prob, x), 0.0, atol=1e-12)

    def test_linear_fields_exact(self):
        A = np.array([[0.0, 2.0], [-1.0, 0.5]])
        b = np.array([1.0, 3.0])
        prob = _linear_problem(A, b, 2)
        x = np.array([0.4, -1.1])
        np.testing.assert_allclose(bracket_f1_f0(prob, x), -A @ b, atol=1e-12)
        # second level: [[f1,f0],f0] = -A' (-A b) = A A b when first bracket constant
        np.testing.assert_allclose(
            second_brackets(prob, x)[0], A @ (A @ b), rtol=1e-6, atol=1e-8
        )

    @given(a=finite_coord, b=finite_coord, c=finite_coord)
    @settings(max_examples=25)
    def test_antisymmetry(self, a, b, c):
        prob = P.make_regulator_fd_brackets()
        swapped = dataclasses.replace(prob, f0=prob.f1, f1=prob.f0, df0=prob.df1, df1=prob.df0)
        x = np.array([a, b, c])
        fwd = bracket_f1_f0(prob, x)
        rev = bracket_f1_f0(swapped, x)
        np.testing.assert_allclose(fwd, -rev, atol=1e-9)

    def test_first_level_is_exact_on_the_regulator(self):
        # df1 f0 - df0 f1 = (-1, 0, -x2): the closed form, bit for bit.
        x = np.random.default_rng(2).uniform(-3, 3, (7, 3))
        expect = np.zeros_like(x)
        expect[:, 0], expect[:, 2] = -1.0, -x[:, 1]
        assert np.array_equal(bracket_f1_f0(P.make_regulator(), x), expect)

    @pytest.mark.parametrize("kept", [0, 1], ids=["f1f0_f0", "f1f0_f1"])
    def test_one_override_present(self, kept):
        # The overridden bracket is the override; the other is the all-FD value.
        names = ("bracket_f1f0_f0", "bracket_f1f0_f1")
        ana, fd = P.make_regulator(), P.make_regulator_fd_brackets()
        mixed = dataclasses.replace(fd, **{names[kept]: getattr(ana, names[kept])})
        x = np.random.default_rng(4).uniform(-2, 2, (5, 3))
        got, want_fd = second_brackets(mixed, x), second_brackets(fd, x)
        assert np.array_equal(got[kept], getattr(ana, names[kept])(x))
        assert np.array_equal(got[1 - kept], want_fd[1 - kept])

    def test_first_level_override_is_gone(self):
        with pytest.raises(TypeError):
            dataclasses.replace(P.make_regulator(), bracket_f1_f0=lambda x: x)


def _gamma_is_minus_x1():
    """g = -x1, f0 = (x1, 0), f1 = (1, 0): the feedback is Gamma(x) = -x1."""
    n = 2
    return ProblemDef(
        n=n, q=0, T=1.0,
        f0=lambda x: np.stack([np.asarray(x)[..., 0], np.zeros(np.asarray(x).shape[:-1])], axis=-1),
        f1=lambda x: np.broadcast_to(np.array([1.0, 0.0]), np.asarray(x).shape),
        df0=lambda x: np.broadcast_to(np.array([[1.0, 0.0], [0.0, 0.0]]), np.asarray(x).shape + (n,)),
        df1=lambda x: np.zeros(np.asarray(x).shape + (n,)),
        g=lambda x: -np.asarray(x)[..., 0],
        dg=lambda x: np.broadcast_to(np.array([-1.0, 0.0]), np.asarray(x).shape),
        phi=lambda x0, xT: 0.0,
        dphi=lambda x0, xT: (np.zeros(n), np.zeros(n)),
        Phi=lambda x0, xT: np.zeros(0),
        dPhi=lambda x0, xT: (np.zeros((0, n)), np.zeros((0, n))),
    )


def _at(prob, x):
    """(x, f0(x), f1(x)): the arguments of gamma_control at x."""
    x = np.asarray(x, dtype=float)
    return x, prob.f0(x), prob.f1(x)


class TestGamma:
    def test_regulator_feedback_is_zero(self):
        prob = P.make_regulator()
        rng = np.random.default_rng(1)
        for _ in range(5):
            assert gamma_control(prob, *_at(prob, rng.uniform(-2, 2, 3))) == pytest.approx(0.0, abs=1e-14)

    def test_substituted_problem(self):
        # dg.f0 = -x1 and dg.f1 = -1, so Gamma = -x1 (sign from both factors).
        prob = _gamma_is_minus_x1()
        assert gamma_control(prob, *_at(prob, [0.7, 2.0])) == pytest.approx(-0.7, abs=1e-12)
        np.testing.assert_allclose(
            gamma_gradient(prob, np.array([0.7, 2.0])), [-1.0, 0.0], atol=1e-8
        )

    def test_zero_numerator(self):
        prob = _gamma_is_minus_x1()
        # x1 = 0 makes dg.f0 vanish while the denominator stays -1.
        assert gamma_control(prob, *_at(prob, [0.0, 5.0])) == pytest.approx(0.0, abs=1e-14)

    def test_first_order_violation_raises(self):
        prob = _gamma_is_minus_x1()
        bad = dataclasses.replace(
            prob, f1=lambda x: np.zeros(np.asarray(x).shape)
        )
        with pytest.raises(FirstOrderViolation):
            gamma_control(bad, *_at(bad, [1.0, 0.0]))

    def test_regulator_gradient_zero(self):
        prob = dataclasses.replace(P.make_regulator(), dgamma=None)
        np.testing.assert_allclose(
            gamma_gradient(prob, np.array([0.5, -0.2, 1.0])), np.zeros(3), atol=1e-10
        )

    def test_gradient_matches_directional_fd(self):
        # Curved constraint: g = x1 x2 - 1 gives a state-dependent feedback.
        prob = _curved_constraint_problem()
        rng = np.random.default_rng(3)
        x = np.array([1.0, 1.0])
        grad = gamma_gradient(prob, x)
        for _ in range(5):
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            h = 1e-5
            fd = (gamma_control(prob, *_at(prob, x + h * d))
                  - gamma_control(prob, *_at(prob, x - h * d))) / (2 * h)
            assert fd == pytest.approx(float(grad @ d), rel=1e-6, abs=1e-8)


def _curved_constraint_problem():
    n = 2
    return ProblemDef(
        n=n, q=0, T=1.0,
        f0=lambda x: np.stack(
            [np.asarray(x)[..., 1], -np.asarray(x)[..., 0]], axis=-1
        ),
        f1=lambda x: np.broadcast_to(np.array([0.0, 1.0]), np.asarray(x).shape),
        df0=lambda x: np.broadcast_to(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.asarray(x).shape + (n,)),
        df1=lambda x: np.zeros(np.asarray(x).shape + (n,)),
        g=lambda x: np.asarray(x)[..., 0] * np.asarray(x)[..., 1] - 1.0,
        dg=lambda x: np.stack([np.asarray(x)[..., 1], np.asarray(x)[..., 0]], axis=-1),
        phi=lambda x0, xT: 0.0,
        dphi=lambda x0, xT: (np.zeros(n), np.zeros(n)),
        Phi=lambda x0, xT: np.zeros(0),
        dPhi=lambda x0, xT: (np.zeros((0, n)), np.zeros((0, n))),
    )


class TestFirstOrderReport:
    def test_regulator_c_arc(self):
        prob = P.make_regulator()
        xs = [P.regulator_solution(t)[0] for t in np.linspace(1.2, 2.6, 20)]
        rep = check_first_order(prob, xs)
        assert rep.passed and rep.min_abs == pytest.approx(1.0)

    def test_empty_passes_vacuously(self):
        rep = check_first_order(P.make_regulator(), [])
        assert rep.passed and rep.min_abs == np.inf

    def test_sign_crossing_fails(self):
        prob = _gamma_is_minus_x1()
        crossing = dataclasses.replace(
            prob,
            dg=lambda x: np.stack(
                [np.asarray(x)[..., 0], np.zeros(np.asarray(x).shape[:-1])], axis=-1
            ),
        )
        xs = [np.array([v, 0.0]) for v in np.linspace(-1, 1, 11)]
        rep = check_first_order(crossing, xs)
        assert not rep.passed
        assert rep.worst_index == 5  # the sample with x1 = 0


class TestProblemDef:
    def test_bound_order_enforced(self):
        with pytest.raises(ConfigurationError):
            dataclasses.replace(P.make_regulator(), u_min=1.0, u_max=-1.0)
        # A bound is finite or left out with None.
        for bounds in ({"u_min": -np.inf, "u_max": np.inf}, {"u_min": -np.inf},
                       {"u_max": np.inf}, {"u_min": np.nan}):
            name = next(iter(bounds))
            with pytest.raises(ConfigurationError, match=f"{name} = .* is not finite; pass None"):
                dataclasses.replace(P.make_regulator(), **bounds)

    @pytest.mark.parametrize("field, value, what", [
        ("n", 0, "state dimension must be positive"),
        ("q", -1, "endpoint constraint count must be >= 0"),
        ("T", 0.0, "horizon must be positive"),
    ])
    def test_sizes_and_horizon_checked(self, field, value, what):
        with pytest.raises(ConfigurationError, match=what):
            dataclasses.replace(P.make_regulator(), **{field: value})

    def test_purity_bit_identical(self):
        prob = P.make_regulator()
        x = np.array([0.1, 0.2, 0.3])
        for fn in (prob.f0, prob.f1, prob.g, prob.dg):
            a, b = np.asarray(fn(x)), np.asarray(fn(x))
            assert np.array_equal(a, b)

    def test_dimension_mismatch_detected(self):
        bad = dataclasses.replace(
            P.make_regulator(),
            bracket_f1f0_f1=lambda x: np.zeros(np.asarray(x).shape[:-1] + (2,)),
        )
        with pytest.raises(ConfigurationError):
            second_brackets(bad, np.zeros(3))


@pytest.mark.parametrize("t", [-1e-9, P.REG_T + 1e-9])
def test_regulator_solution_outside_the_horizon_rejected(t):
    with pytest.raises(ConfigurationError, match=r"outside \[0, 5"):
        P.regulator_solution(t)
