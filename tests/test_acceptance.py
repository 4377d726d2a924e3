"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Four figures quoted for the regulator example are ruled out by the
regulator's own equations (see README, "Quoted reference figures").  Their
checks test the same quantity against the value the problem's data force,
computed here from the data rather than from the solver, and their verdict
lines still print the quoted figure next to the solved value:

* criterion 1: the second switching time, 2.6 (quoted 2.6036023), and the
  optimal cost, 0.3925013 (quoted 0.3934884),
* criterion 2: p1 at the first junction, 0.676 (quoted 1.404),
* criterion 6: the endpoint term of the transformed quadratic form,
  xi1(T)^2 (the quoted closed form carries h^2).
"""

import numpy as np
import pytest

from arcshoot import problems as P
from arcshoot.arc_structure import ArcKind, detect_structure
from arcshoot.problem_def import bracket_f1_f0, gamma_control, gamma_gradient, second_brackets
from arcshoot.second_order import (
    check_positivity,
    constraint_nullspace,
    cumulative_trapezoid,
    integrate_goh,
    omega_form_value,
    q_form_value,
    rho_value,
)
from arcshoot.shooting import (
    residual_dim,
    shooting_function,
    unknown_dim,
)
from arcshoot.tp_dynamics import (
    constraint_multiplier_density,
    durations,
    propagate_arc,
)
from test_shooting import random_structure

B, C, S = ArcKind.BMinus, ArcKind.Constrained, ArcKind.Singular

REF_COST = 0.3934884
REF_TAU2 = 2.6036023
REF_P1_TAU1 = 1.404


def _verdict(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _forced_junctions(prob):
    """(tau1, tau2, x1(tau1), x1(tau2)) that the regulator's data force.

    On B- the control sits at u_min, so x2 = x2(0) + u_min t and x1 is its
    integral; x2 reaches the bound at tau1.  On C x2 is held at the bound, so
    x1 falls linearly.  On S u = x1, so x1'' = x1, and the transversality
    condition p1(T) = x1(T) with p1 = -x2 removes the growing mode: x2 = -x1
    on the whole arc.  Continuity of x2 at tau2 then gives x1(tau2) = -bound.
    """
    zero = np.zeros(prob.n)
    bound = -float(prob.g(zero)) / float(prob.dg(zero)[1])  # g = 0 <=> x2 = bound
    x1_0, x2_0 = prob.x0_fixed[:2]
    tau1 = (bound - x2_0) / prob.u_min
    x1_tau1 = x1_0 + x2_0 * tau1 + 0.5 * prob.u_min * tau1**2
    x1_tau2 = -bound
    tau2 = tau1 + (x1_tau2 - x1_tau1) / bound
    return tau1, tau2, x1_tau1, x1_tau2


# ---------------------------------------------------------------------------
# Criterion 1: regulator reproduction
# ---------------------------------------------------------------------------


def test_criterion1_convergence_cost_and_tau1(reg_solution):
    report = reg_solution["report"]
    omega = reg_solution["omega"]
    ok = report.converged and report.n_iter <= 10
    ok &= report.final_residual <= 1e-6
    ok &= abs(omega.tau[0] - 1.2) <= 1e-3
    ok &= abs(omega.tau[1] - 2.6) <= 5e-3  # analytic junction value
    cost = reg_solution["cost"]
    # The closed-form extremal is feasible and costs 0.3925013, so the quoted
    # 0.3934884 cannot be this problem's minimum.
    ok &= abs(cost - P.regulator_cost()) <= 1e-7
    ok &= reg_solution["runtime"] < 10.0
    assert _verdict(
        "1 (convergence/cost/tau1)", ok,
        f"iters={report.n_iter} |S|={report.final_residual:.2e} "
        f"tau={omega.tau.round(7).tolist()} cost={cost:.7f} "
        f"(closed form {P.regulator_cost():.7f}, quoted {REF_COST}) "
        f"runtime={reg_solution['runtime']:.2f}s",
    )


def test_criterion1_tau2_published_value(regulator, reg_solution):
    tau2 = float(reg_solution["omega"].tau[1])
    forced = _forced_junctions(regulator)[1]
    ok = abs(tau2 - forced) <= 1e-6
    _verdict("1 (tau2 vs published 2.6036023)", ok,
             f"solved tau2={tau2:.7f}, {tau2 - forced:+.1e} from the {forced:.7f} "
             f"the state equations force, {tau2 - REF_TAU2:+.1e} from the quoted "
             f"{REF_TAU2}")
    assert ok, (
        f"tau2 converged to {tau2:.9f}; the state equations of any B-,C,S "
        f"extremal force {forced:.9f}"
    )


# ---------------------------------------------------------------------------
# Criterion 2: analytic arcs at the converged solution
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solved_traj(reg_solution):
    """The converged iterate's grid (333 steps per arc), kept by Gauss-Newton."""
    return reg_solution["report"].trajectory


def test_criterion2_analytic_arcs(regulator, reg_solution, solved_traj):
    traj = solved_traj
    t = traj.times()
    t_b, x_b = t[:, 0], traj.x[:, 0]
    err_x2 = np.max(np.abs(x_b[:, 1] - (1.0 - t_b)))
    err_x1 = np.max(np.abs(x_b[:, 0] - (t_b - 0.5 * t_b**2)))
    err_x1c = np.max(np.abs(traj.x[:, 1, 0] - (0.72 - t[:, 1] / 5.0)))
    err_p3 = np.max(np.abs(traj.p[:, :, 2] - 1.0))
    err_us = np.max(np.abs(traj.w[:, 2] - traj.x[:, 2, 0]))
    p1_tau1 = float(reg_solution["omega"].p0[1][0])
    ok = err_x2 <= 1e-9 and err_x1 <= 1e-9 and err_x1c <= 1e-6
    ok &= err_p3 <= 1e-8 and err_us <= 1e-8
    ok &= abs(p1_tau1 - P.REG_P1_TAU1) <= 1e-3  # dynamics-consistent 0.676
    assert _verdict(
        "2 (closed-form arcs)", ok,
        f"err[x2]={err_x2:.1e} err[x1]={err_x1:.1e} err[x1 on C]={err_x1c:.1e} "
        f"err[p3]={err_p3:.1e} err[u=x1 on S]={err_us:.1e} p1(tau1)={p1_tau1:.4f}",
    )


def test_criterion2_p1tau1_published_value(regulator, reg_solution):
    p1_tau1 = float(reg_solution["omega"].p0[1][0])
    # The constraint gradient has no x1 part, so p1 does not jump, and
    # p1(tau2) = x1(tau2) because p1 = -x2 = x1 on S.  Integrate p1' = -x1
    # backward over C, where x1 is linear (the trapezoid rule is exact).
    tau1, tau2, x1_tau1, x1_tau2 = _forced_junctions(regulator)
    forced = x1_tau2 + 0.5 * (x1_tau1 + x1_tau2) * (tau2 - tau1)
    ok = abs(p1_tau1 - forced) <= 1e-6
    _verdict("2 (p1(tau1) vs published 1.404)", ok,
             f"solved p1(tau1)={p1_tau1:.7f}, {p1_tau1 - forced:+.1e} from the "
             f"{forced:.7f} that p1' = -x1 forces over the constrained arc, "
             f"{p1_tau1 - REF_P1_TAU1:+.1e} from the quoted {REF_P1_TAU1}")
    assert ok, (
        f"p1(tau1) = {p1_tau1:.9f}; backward integration of p1' = -x1 over the "
        f"constrained arc forces {forced:.9f}"
    )


# ---------------------------------------------------------------------------
# Criterion 3: quadratic convergence evidence
# ---------------------------------------------------------------------------


def test_criterion3_convergence_order(reg_solution):
    order = reg_solution["report"].order_estimate
    hist = [f"{v:.1e}" for v in reg_solution["report"].residual_history]
    ok = order >= 1.7
    assert _verdict("3 (Gauss-Newton order)", ok,
                    f"fitted order={order:.2f} over |S| history {hist}")


# ---------------------------------------------------------------------------
# Criterion 4: overdeterminedness and rank
# ---------------------------------------------------------------------------


def test_criterion4_dimensions_and_rank(regulator, reg_struct, reg_solution):
    rng = np.random.default_rng(404)
    law_ok = True
    for _ in range(20):
        s = random_structure(rng)
        n_s = s.kinds.count(ArcKind.Singular)
        for n, q in ((1, 0), (2, 1), (3, 3)):
            law_ok &= residual_dim(s, n, q) - unknown_dim(s, n, q) == 2 * n_s
    report = reg_solution["report"]
    m = unknown_dim(reg_struct, regulator.n, regulator.q)
    rank_ok = report.jacobian_rank == m and report.smallest_singular_value > 1e-6
    assert _verdict(
        "4 (dimension law + rank)", law_ok and rank_ok,
        f"law holds on 20 random structures; rank={report.jacobian_rank}/{m} "
        f"sigma_min={report.smallest_singular_value:.3e}",
    )


# ---------------------------------------------------------------------------
# Criterion 5: Hamiltonian invariants
# ---------------------------------------------------------------------------


def test_criterion5_hamiltonian_invariants(regulator, reg_struct, reg_solution,
                                           solved_traj):
    from arcshoot.tp_dynamics import arc_hamiltonian

    drift = 0.0
    ends = []
    for k, kind in enumerate(solved_traj.kinds):
        h = arc_hamiltonian(regulator, (kind,), solved_traj.x[:, k : k + 1],
                            solved_traj.p[:, k : k + 1])[:, 0]
        drift = max(drift, float(np.max(np.abs(h - h[0]))))
        ends.append((float(h[0]), float(h[-1])))
    junction = max(abs(ends[k][1] - ends[k + 1][0]) for k in range(len(ends) - 1))
    ok = drift <= 1e-6 and junction <= 1e-6
    assert _verdict("5 (Hamiltonian invariants)", ok,
                    f"max per-arc drift={drift:.2e} max junction gap={junction:.2e}")


# ---------------------------------------------------------------------------
# Criterion 6: second-order certificate
# ---------------------------------------------------------------------------


def test_criterion6_closed_form_match(regulator, reg_struct, reg_qfd):
    # The assembled discrete form against the closed form
    # int (xi1^2 + (xi2 + y)^2) dt + xi1(T)^2 on 50 random critical
    # directions (switching-time components frozen so the closed form
    # applies), at 200 grid cells, 1e-3 relative.  The endpoint term is
    # D^2 phi = diag(1, 0, 0) on the terminal state: B1 h = h f1 shifts only
    # xi2, and H_UX = 0 at the end, so the form has no h^2 term (that square
    # belongs to the order norm, not to the form).
    qfd = reg_qfd
    lin = qfd.lin
    pin = np.zeros((2, qfd.ncoord))
    pin[0, lin.D - 2] = 1.0
    pin[1, lin.D - 1] = 1.0
    Z = constraint_nullspace(np.vstack([qfd.cons, pin]), qfd.ncoord)
    rng = np.random.default_rng(606)
    dts = durations(lin.omega.tau, regulator.T)
    w = lin.weights
    rel = []
    quoted_rel = []
    int_rel = []
    for _ in range(50):
        c = Z @ rng.normal(size=Z.shape[1])
        xi0, Y, h = qfd.split(c)
        Xi = integrate_goh(lin, xi0, Y)
        ours = qfd.value(c)
        closed_int = 0.0
        for k, kind in enumerate(reg_struct.kinds):
            xi1 = Xi[:, 3 * k]
            xi2 = Xi[:, 3 * k + 1]
            y = dts[k] * Y[:, 0] if kind is S else np.zeros_like(xi1)
            closed_int += dts[k] * float(w @ (xi1**2 + (xi2 + y) ** 2))
        closed = closed_int + Xi[-1, 6] ** 2  # xi1 of the last arc at s = 1
        rel.append(abs(ours - closed) / max(abs(closed), 1e-14))
        h_orig = float(dts[2] * h[0])
        quoted_rel.append(abs(ours - closed_int - h_orig**2)
                          / max(abs(closed_int + h_orig**2), 1e-14))
        ours_int = ours - rho_value(lin, Xi[0], Xi[-1], Y[-1])
        int_rel.append(abs(ours_int - closed_int) / max(abs(closed_int), 1e-14))
    worst = float(np.max(rel))
    worst_int = float(np.max(int_rel))
    ok = worst <= 1e-3
    _verdict("6 (closed-form match)", ok,
             f"worst rel err={worst:.1e} with endpoint term xi1(T)^2; running-cost "
             f"part matches to {worst_int:.1e}; the quoted closed form with h^2 "
             f"misses by {max(quoted_rel):.3f}")
    assert ok, (
        f"worst relative deviation {worst:.3e} between the assembled form and "
        f"int (xi1^2 + (xi2 + y)^2) dt + xi1(T)^2 (integral parts agree to "
        f"{worst_int:.1e})"
    )


def test_criterion6_positivity(reg_qfd):
    rep = check_positivity(reg_qfd)
    ok = rep.c_est > 0.0
    assert _verdict(
        "6 (positivity c_est > 0)", ok,
        f"c_est={rep.c_est:.3e} (discretization floor of an exact null "
        f"direction along junction shifts; margin-based pass={rep.passed}, "
        f"nullspace dim={rep.nullspace_dim})",
    )


def test_criterion6_transformation_identity(reg_lin):
    rng = np.random.default_rng(607)
    ds = reg_lin.s[1] - reg_lin.s[0]
    worst = 0.0
    for _ in range(10):
        coef = rng.normal(size=4)
        V = (coef[0] + coef[1] * np.sin(2 * np.pi * reg_lin.s)
             + coef[2] * np.cos(4 * np.pi * reg_lin.s) + coef[3] * reg_lin.s)[:, None]
        Z0 = rng.normal(size=reg_lin.D)
        q = q_form_value(reg_lin, Z0, V)
        om = omega_form_value(reg_lin, Z0, cumulative_trapezoid(V, ds))
        worst = max(worst, abs(q - om) / max(abs(q), 1e-12))
    ok = worst <= 1e-3
    assert _verdict("6 (Q = Omega identity)", ok, f"worst rel err={worst:.2e}")


# ---------------------------------------------------------------------------
# Criterion 7: structure detection
# ---------------------------------------------------------------------------


def test_criterion7_detection(regulator, reg_direct):
    t, u, x = P.sample_regulator(1000)
    s1 = detect_structure(regulator, t, u, x)
    ok = s1.kinds == (B, C, S)
    ok &= abs(s1.tau[0] - 1.2) <= 0.01 and abs(s1.tau[1] - 2.6) <= 0.01
    s2 = detect_structure(regulator, reg_direct.t, reg_direct.u, reg_direct.x)
    ok &= s2.kinds == (B, C, S)
    assert _verdict(
        "7 (structure detection)", ok,
        f"analytic sampling -> {s1.tokens()} tau={np.round(s1.tau, 4).tolist()}; "
        f"direct output -> {s2.tokens()}",
    )


# ---------------------------------------------------------------------------
# Criterion 8: property suites independent of the regulator solve
# ---------------------------------------------------------------------------


def test_criterion8_property_suite(regulator, toy_bang):
    details = []

    struct = P.toy_bang_structure()
    res = shooting_function(toy_bang, struct, P.toy_bang_analytic_omega(), steps=50)
    tb = float(np.linalg.norm(res.stacked, np.inf))
    details.append(f"toy-bang |S|={tb:.1e}")
    ok = tb <= 1e-14

    # RK4 order 4 on xdot = x against the exponential closed form.
    import test_tp_dynamics as ttd

    growth = ttd._scalar_growth_problem()
    e = []
    for M in (50, 100):
        traj = propagate_arc(growth, (B,), [], np.array([[1.0]]), np.array([[0.0]]), M)
        e.append(abs(traj.x[-1, 0, 0] - np.e))
    ratio = e[0] / e[1]
    details.append(f"RK4 halving ratio={ratio:.1f}")
    ok &= 12.0 <= ratio <= 20.0

    # First-level antisymmetry and second-level FD agreement with the overrides.
    import dataclasses

    fd = P.make_regulator_fd_brackets()
    swapped = dataclasses.replace(fd, f0=fd.f1, f1=fd.f0, df0=fd.df1, df1=fd.df0)
    rng = np.random.default_rng(808)
    worst_anti = worst_fd = 0.0
    for _ in range(5):
        x = rng.uniform(-2, 2, 3)
        worst_anti = max(worst_anti, float(np.max(np.abs(
            bracket_f1_f0(fd, x) + bracket_f1_f0(swapped, x)))))
        for b_fd, b_ana in zip(second_brackets(fd, x), second_brackets(regulator, x)):
            worst_fd = max(worst_fd, float(np.max(np.abs(b_fd - b_ana))))
    details.append(f"antisymmetry={worst_anti:.1e} fd-vs-analytic={worst_fd:.1e}")
    ok &= worst_anti <= 1e-9 and worst_fd <= 1e-6

    # Feedback-gradient consistency on a curved constraint problem.
    import test_tp_dynamics as ttd2

    curved = ttd2._curved()
    x = np.array([1.3, 1.0 / 1.3])
    grad = gamma_gradient(curved, x)
    at = lambda y: (y, curved.f0(y), curved.f1(y))
    worst_dir = 0.0
    for _ in range(5):
        d = rng.normal(size=2)
        d /= np.linalg.norm(d)
        h = 1e-5
        fd_dir = (gamma_control(curved, *at(x + h * d))
                  - gamma_control(curved, *at(x - h * d))) / (2 * h)
        worst_dir = max(worst_dir, abs(fd_dir - float(grad @ d)) / max(abs(fd_dir), 1e-9))
    details.append(f"gamma-gradient rel err={worst_dir:.1e}")
    ok &= worst_dir <= 1e-6

    # Constraint multiplier density positive on the constrained-arc interior.
    nus = []
    for t in np.linspace(1.3, 2.55, 12):
        xs, ps, _ = P.regulator_solution(t)
        nus.append(float(constraint_multiplier_density(regulator, xs, ps)))
    details.append(f"min nu on C interior={min(nus):.4f}")
    ok &= min(nus) > 0.0

    assert _verdict("8 (property suite)", ok, "; ".join(details))
