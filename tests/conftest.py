import time

import numpy as np
import pytest

from arcshoot import problems as P
from arcshoot import tp_dynamics
from arcshoot.arc_structure import ArcKind, ArcStructure
from arcshoot.direct_init import DirectSolveConfig, direct_solve
from arcshoot.second_order import assemble_omega, linearized_matrices
from arcshoot.shooting import ShootingVector, gauss_newton
from arcshoot.tp_dynamics import node_trajectory, propagate_arc

PERTURB_SEED = 20240817


def sequential_pass(prob, kinds, tau, x0, p0, M):
    """The trajectory of the RK4 recursion stepped node by node: propagate_arc's reference."""
    return node_trajectory(prob, kinds, tau, tp_dynamics._arc_nodes(prob, kinds, tau, x0, p0, M))


@pytest.fixture(scope="session")
def regulator():
    return P.make_regulator()


@pytest.fixture(scope="session")
def toy_bang():
    return P.make_toy_bang()


@pytest.fixture(scope="session")
def reg_struct():
    return P.regulator_structure()


@pytest.fixture(scope="session")
def reg_omega_exact():
    return P.regulator_analytic_omega()


def perturbed_start(prob, struct, omega, scale=0.05, seed=PERTURB_SEED):
    """Componentwise multiplicative perturbation with a fixed seed."""
    rng = np.random.default_rng(seed)
    flat = omega.pack()
    pert = flat * (1.0 + scale * rng.uniform(-1.0, 1.0, flat.size))
    n_c = struct.kinds.count(ArcKind.Constrained)
    return ShootingVector.unpack(pert, struct.N, prob.n, prob.q, n_c)


@pytest.fixture(scope="session")
def reg_solution(regulator, reg_struct, reg_omega_exact):
    """Converged 1000-step run from the seeded +-5% perturbed analytic start."""
    omega0 = perturbed_start(regulator, reg_struct, reg_omega_exact)
    t0 = time.perf_counter()
    omega, report = gauss_newton(regulator, reg_struct, omega0, steps=1000)
    runtime = time.perf_counter() - t0
    assert report.converged and report.jacobian_rank == omega.pack().size
    return {
        "omega": omega,
        "report": report,
        "runtime": runtime,
        "omega0": omega0,
        "cost": report.trajectory.cost(regulator),
    }


@pytest.fixture(scope="session")
def reg_direct(regulator):
    return direct_solve(regulator, DirectSolveConfig(grid_size=100, penalty_weight=1e3))


@pytest.fixture(scope="session")
def reg_lin(regulator, reg_struct, reg_solution):
    return linearized_matrices(regulator, reg_struct, reg_solution["omega"], nodes=200)


@pytest.fixture(scope="session")
def reg_qfd(reg_lin):
    return assemble_omega(reg_lin)


@pytest.fixture(scope="session")
def multi_arc(regulator):
    """(structure, trajectory) of B-,S,C,S,B+ over 60 steps from seeded (x0, p0).

    Two S arcs, one CS and one SC junction: kinds repeat on the arc axis.
    """
    struct = ArcStructure.from_tokens(["B-", "S", "C", "S", "B+"], (0.8, 1.7, 2.9, 4.1))
    rng = np.random.default_rng(3)
    x0 = rng.uniform(-0.5, 0.5, (struct.N, 3))
    p0 = rng.uniform(0.5, 1.5, (struct.N, 3))   # p3 > 0 keeps S arcs off their guard
    omega = ShootingVector(x0, struct.tau, p0, np.zeros(3), np.zeros(1))
    return struct, propagate_arc(regulator, struct.kinds, omega.tau, omega.x0, omega.p0, 60)
