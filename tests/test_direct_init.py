import dataclasses

import numpy as np
import pytest

from arcshoot import problems as P
from arcshoot.arc_structure import ArcKind, detect_structure
from arcshoot.direct_init import DirectSolveConfig, direct_solve
from arcshoot.errors import ConfigurationError


class TestConfig:
    def test_grid_floor(self):
        with pytest.raises(ConfigurationError):
            DirectSolveConfig(grid_size=5)

    def test_penalty_positive(self):
        with pytest.raises(ConfigurationError):
            DirectSolveConfig(penalty_weight=0.0)

    @pytest.mark.parametrize("iters", [-1, -5])
    def test_negative_iteration_cap_rejected(self, iters):
        with pytest.raises(ConfigurationError, match=f"max_iters must be >= 0, got {iters}"):
            DirectSolveConfig(max_iters=iters)

    def test_zero_iteration_cap_keeps_the_start(self, regulator):
        res = direct_solve(regulator, DirectSolveConfig(grid_size=20, max_iters=0))
        assert res.n_iters == 0 and len(res.objective_history) == 1
        np.testing.assert_array_equal(res.u, 0.0)

    def test_free_initial_state_via_penalty(self, toy_bang):
        # Without a pinned x0 the endpoint map Phi = x0 is enforced through
        # the quadratic penalty; the solve should land near x0 = 0, u = -1.
        free = dataclasses.replace(toy_bang, x0_fixed=None)
        res = direct_solve(free, DirectSolveConfig(grid_size=20, penalty_weight=1e3,
                                                   max_iters=1500))
        assert abs(res.x[0, 0]) <= 1e-2
        assert np.max(np.abs(res.u + 1.0)) <= 1e-6


class TestOptimization:
    def test_objective_monotone(self, reg_direct):
        hist = np.asarray(reg_direct.objective_history)
        assert np.all(np.diff(hist) < 0.0)

    def test_zero_cost_problem_keeps_initial_control(self, regulator):
        flat = dataclasses.replace(
            regulator,
            phi=lambda x0, xT: 0.0,
            dphi=lambda x0, xT: (np.zeros(3), np.zeros(3)),
        )
        res = direct_solve(flat, DirectSolveConfig(grid_size=20, max_iters=20))
        # g never activates from this start, so the gradient vanishes and the
        # midpoint initialization (u = 0) survives untouched.
        np.testing.assert_array_equal(res.u, 0.0)
        assert res.cost == 0.0

    def test_feasibility_improves_with_weight(self, regulator):
        def total_violation(weight):
            res = direct_solve(
                regulator,
                DirectSolveConfig(grid_size=60, penalty_weight=weight, max_iters=250),
            )
            viol = np.maximum(0.0, np.array([regulator.g(x) for x in res.x_model]))
            return float(viol @ viol)

        assert total_violation(1e4) < total_violation(1e2)

    def test_regulator_cost_and_structure(self, regulator, reg_direct):
        ref = P.regulator_cost()
        assert abs(reg_direct.cost - ref) <= 0.05 * ref
        struct = detect_structure(regulator, reg_direct.t, reg_direct.u, reg_direct.x)
        assert struct.kinds == (ArcKind.BMinus, ArcKind.Constrained, ArcKind.Singular)

    def test_adjoint_seeds_costates(self, regulator, reg_direct):
        # The discrete adjoint at t = 0 should approximate the analytic
        # costate start; loose tolerance, it only seeds the shooting.
        _, p0, _ = P.regulator_solution(0.0)
        np.testing.assert_allclose(reg_direct.lam[0], p0, atol=0.2)

    def test_n_iters_counts_accepted_iterates(self, reg_direct):
        assert reg_direct.n_iters == len(reg_direct.objective_history) - 1
        with pytest.raises(AttributeError):
            reg_direct.n_iters = 3


class TestEndpointPenalty:
    """Every row of Phi is penalized, whether x0 is pinned or free."""

    @staticmethod
    def _terminal_row(toy_bang, x0_fixed):
        # Phi = (x0, x(1) + 0.5): the terminal row holds x(1) above the
        # lower bang's -1, at -0.5 - 1/(2 rho) for the penalized cost x(1).
        def Phi(x0, xT):
            return np.concatenate([np.asarray(x0, dtype=float),
                                   np.asarray(xT, dtype=float) + 0.5], axis=-1)

        def dPhi(x0, xT):
            x0 = np.asarray(x0, dtype=float)
            lead = x0.shape[:-1]
            return (np.broadcast_to(np.array([[1.0], [0.0]]), lead + (2, 1)),
                    np.broadcast_to(np.array([[0.0], [1.0]]), lead + (2, 1)))

        return dataclasses.replace(toy_bang, q=2, Phi=Phi, dPhi=dPhi, x0_fixed=x0_fixed)

    @pytest.mark.parametrize("pinned", [True, False], ids=["pinned", "free"])
    def test_terminal_row_is_enforced(self, toy_bang, pinned):
        prob = self._terminal_row(toy_bang, toy_bang.x0_fixed if pinned else None)
        res = direct_solve(prob, DirectSolveConfig(grid_size=20, penalty_weight=1e3,
                                                   max_iters=1500))
        bc = prob.Phi(res.x[0], res.x[-1])
        assert np.max(np.abs(bc)) <= 1e-3
        assert abs(res.x[-1, 0] - (-0.5 - 1.0 / 2e3)) <= 1e-3

    def test_pinned_start_is_held(self, toy_bang):
        prob = self._terminal_row(toy_bang, np.array([0.25]))
        res = direct_solve(prob, DirectSolveConfig(grid_size=20, max_iters=200))
        # x0 stays at its pin although Phi's first row pulls it to 0.
        assert res.x[0, 0] == 0.25 and res.x_model[0, 0] == 0.25
