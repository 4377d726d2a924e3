import numpy as np
import pytest

from arcshoot import problems as P
from arcshoot.arc_structure import (
    ArcKind,
    ArcStructure,
    arcs_of,
    detect_structure,
    read_trajectory_csv,
    write_trajectory_csv,
)
from arcshoot.errors import ConfigurationError, StructureDetectionError

B, BP, C, S = ArcKind.BMinus, ArcKind.BPlus, ArcKind.Constrained, ArcKind.Singular


class TestIndexSets:
    """arcs_of: 0-based positions, a slice for one arc, a list otherwise."""

    def test_bcs(self):
        kinds = (B, C, S)
        assert [arcs_of(kinds, k) for k in (S, C, B)] == [slice(2, 3), slice(1, 2), slice(0, 1)]
        assert arcs_of(kinds, BP) == []

    def test_single_singular(self):
        assert arcs_of((S,), S) == slice(0, 1)
        assert arcs_of((S,), C) == []

    def test_bplus_sandwich(self):
        kinds = (BP, S, BP)
        assert arcs_of(kinds, BP) == [0, 2]
        assert arcs_of(kinds, S) == slice(1, 2)
        assert arcs_of(kinds, B) == []


class TestInvariants:
    def test_adjacent_equal_rejected(self):
        with pytest.raises(ConfigurationError):
            ArcStructure((B, B), (1.0,))

    def test_tau_ordering(self):
        with pytest.raises(ConfigurationError):
            ArcStructure((B, C, S), (2.0, 1.0))

    def test_tau_count(self):
        with pytest.raises(ConfigurationError):
            ArcStructure((B, C), ())

    @pytest.mark.parametrize("tau", [(float("nan"), 2.6), (1.2, float("inf"))],
                             ids=["nan", "inf"])
    def test_non_finite_tau_rejected(self, tau):
        # Every comparison with NaN is false, so the ordering check alone lets it through.
        with pytest.raises(ConfigurationError, match="switching times must be finite"):
            ArcStructure((B, C, S), tau)

    def test_bounds_required(self, regulator):
        import dataclasses

        unbounded = dataclasses.replace(regulator, u_min=None)
        s = ArcStructure((B, S), (1.0,))
        with pytest.raises(ConfigurationError):
            s.validate(unbounded)

    @pytest.mark.parametrize("tokens, tau, what", [
        (["B-", "X"], (1.0,), "unknown arc token 'X'"),
        ([], (), "structure needs at least one arc"),
    ], ids=["unknown_token", "no_arc"])
    def test_malformed_tokens_rejected(self, tokens, tau, what):
        with pytest.raises(ConfigurationError, match=what):
            ArcStructure.from_tokens(tokens, tau)

    def test_upper_bound_required(self, regulator):
        import dataclasses

        with pytest.raises(ConfigurationError, match="B\\+ arc requires"):
            ArcStructure((S, BP), (1.0,)).validate(dataclasses.replace(regulator, u_max=None))

    def test_tau_inside_horizon(self, regulator):
        s = ArcStructure((B, S), (7.0,))
        with pytest.raises(ConfigurationError):
            s.validate(regulator)

    def test_with_tau(self):
        s = ArcStructure((B, C, S), (1.0, 2.0))
        s2 = s.with_tau((1.2, 2.6))
        assert s2.kinds == s.kinds and s2.tau == (1.2, 2.6)


class TestDetect:
    def test_regulator_analytic_sampling(self, regulator):
        t, u, x = P.sample_regulator(1000)
        s = detect_structure(regulator, t, u, x)
        assert s.kinds == (B, C, S)
        assert abs(s.tau[0] - 1.2) <= 0.01 and abs(s.tau[1] - 2.6) <= 0.01

    def test_idempotent_under_resampling(self, regulator):
        coarse = detect_structure(regulator, *_reorder(P.sample_regulator(500)))
        fine = detect_structure(regulator, *_reorder(P.sample_regulator(1000)))
        assert coarse.kinds == fine.kinds
        cell = 5.0 / 499
        for a, b in zip(coarse.tau, fine.tau):
            assert abs(a - b) <= cell

    def test_constant_interior_control_is_singular(self, regulator):
        t = np.linspace(0, 5, 200)
        u = np.full_like(t, 0.3)
        x = np.tile([0.0, 1.0, 0.0], (200, 1))  # g = -1.2 < -0.1 throughout
        s = detect_structure(regulator, t, u, x)
        assert s.kinds == (S,) and s.tau == ()

    def test_upper_bang_classified(self, regulator):
        t = np.linspace(0, 5, 200)
        u = np.where(t < 2.0, 1.0, 0.3)
        x = np.tile([0.0, 1.0, 0.0], (200, 1))
        s = detect_structure(regulator, t, u, x)
        assert s.kinds == (BP, S)
        assert abs(s.tau[0] - 2.0) <= 0.05

    def test_empty_grid_rejected(self, regulator):
        with pytest.raises(StructureDetectionError):
            detect_structure(regulator, np.array([]), np.array([]), np.zeros((0, 3)))

    def test_misaligned_samples_rejected(self, regulator):
        t = np.linspace(0, 5, 10)
        with pytest.raises(StructureDetectionError):
            detect_structure(regulator, t, np.zeros(9), np.zeros((10, 3)))

    @pytest.mark.parametrize("index", [47, 48])
    @pytest.mark.parametrize("which", ["t", "u", "x"])
    def test_nan_sample_rejected(self, regulator, which, index):
        # A NaN time compares False both ways, so an order test of the form
        # "any step <= 0" let it through and detection went on to return a
        # structure; NaN in u or x is no sample either.
        t, u, x = (a.copy() for a in P.sample_regulator(200))
        {"t": t, "u": u, "x": x[:, 1]}[which][index] = np.nan
        with pytest.raises(StructureDetectionError):
            detect_structure(regulator, t, u, x)

    def test_short_runs_merge(self, regulator):
        t, u, x = P.sample_regulator(1000)
        u = u.copy()
        u[500] = 0.55  # single-node glitch inside the constrained arc
        s = detect_structure(regulator, t, u, x)
        assert s.kinds == (B, C, S)

    def test_short_end_runs_join_their_only_neighbour(self, regulator):
        # One-node bang runs at both ends (spacing 0.05, min_arc_len 0.1): the
        # first has no left neighbour and the last no right one.
        t = np.linspace(0, 5, 101)
        u = np.where(t < 0.01, -1.0, np.where(t > 4.99, 1.0, 0.3))
        s = detect_structure(regulator, t, u, np.tile([0.0, 1.0, 0.0], (101, 1)))
        assert s.kinds == (S,) and s.tau == ()

    def test_short_middle_run_joins_the_longer_neighbour(self, regulator):
        # B- on [0, 2.95], one constrained node at 3.0, S on [3.05, 5]: the
        # B- run is the longer neighbour and takes the node.
        t = np.linspace(0, 5, 101)
        u = np.where(t < 2.99, -1.0, 0.3)
        x = np.tile([0.0, 1.0, 0.0], (101, 1))
        x[60, 1] = -0.2                               # g = 0 at t = 3.0
        s = detect_structure(regulator, t, u, x)
        assert s.kinds == (B, S)
        assert s.tau == (0.5 * (t[60] + t[61]),)

    def test_short_middle_run_between_equal_neighbours_joins_the_left(self, regulator):
        # B- on nodes 0-39, one constrained node at 40, S on nodes 41-80: both
        # neighbours last 39/16 exactly, and the left one takes the node.
        t = np.arange(81) / 16
        u = np.where(np.arange(81) < 40, -1.0, 0.3)
        x = np.tile([0.0, 1.0, 0.0], (81, 1))
        x[40, 1] = -0.2                               # g = 0 at node 40
        s = detect_structure(regulator, t, u, x)
        assert s.kinds == (B, S)
        assert s.tau == (0.5 * (t[40] + t[41]),)

    def test_short_run_inside_one_kind_joins_both_sides(self, regulator):
        # B- on [0, 1.45], then S on [1.5, 2.95] and [3.05, 5] around one
        # constrained node at 3.0: the node joins an S run, and the S runs
        # on both sides of it join into one.
        t = np.linspace(0, 5, 101)
        u = np.where(t < 1.49, -1.0, 0.3)
        x = np.tile([0.0, 1.0, 0.0], (101, 1))
        x[60, 1] = -0.2                               # g = 0 at t = 3.0
        s = detect_structure(regulator, t, u, x)
        assert s.kinds == (B, S)
        assert s.tau == (0.5 * (t[29] + t[30]),)

    def test_invalid_detected_structure_is_wrapped(self, regulator):
        # Samples past the horizon put the switch at t = 7 > T = 5.
        t = np.linspace(0, 10, 201)
        u = np.where(t < 7.0, -1.0, 0.3)
        with pytest.raises(StructureDetectionError, match="strictly inside") as exc:
            detect_structure(regulator, t, u, np.tile([0.0, 1.0, 0.0], (201, 1)))
        assert isinstance(exc.value.__cause__, ConfigurationError)
        assert list(exc.value.raw) == [B if ti < 7.0 else S for ti in t]

    def test_explicit_tolerances(self, regulator):
        t, u, x = P.sample_regulator(400)
        s = detect_structure(regulator, t, u, x, min_arc_len=0.3)
        assert s.kinds == (B, C, S)


def _reorder(sample):
    t, u, x = sample
    return t, u, x


class TestCsv:
    def test_round_trip(self, tmp_path, regulator):
        t, u, x = P.sample_regulator(50)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, t, u, x)
        t2, u2, x2 = read_trajectory_csv(path)
        np.testing.assert_allclose(t2, t, rtol=1e-8)
        np.testing.assert_allclose(u2, u, rtol=1e-8)
        np.testing.assert_allclose(x2, x, rtol=1e-8, atol=1e-12)

    def test_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigurationError):
            read_trajectory_csv(path)
