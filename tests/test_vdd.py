"""Tests for the Vdd-Hopping solvers (Theorem 3) and the simplex backend."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.continuous.bounds import continuous_lower_bound
from repro.core.models import ContinuousModel, VddHoppingModel
from repro.core.problem import MinEnergyProblem
from repro.core.solution import HoppingAssignment
from repro.core.validation import check_solution
from repro.graphs import generators
from repro.graphs.analysis import longest_path_length
from repro.graphs.taskgraph import TaskGraph
from repro.utils.errors import InfeasibleProblemError, InvalidModelError, SolverError
from repro.vdd import (
    build_vdd_lp,
    solve_lp_simplex,
    solve_vdd_hopping,
    solve_vdd_lp,
    solve_vdd_mixing,
    two_mode_mix,
)


def _problem(graph, slack, modes=(0.4, 0.7, 1.0)):
    model = VddHoppingModel(modes=modes)
    min_makespan = longest_path_length(graph) / model.max_speed
    return MinEnergyProblem(graph=graph, deadline=slack * min_makespan, model=model)


class TestSimplex:
    def test_simple_lp(self):
        # minimise -x - y  s.t.  x + y <= 4, x <= 3, y <= 2, x,y >= 0
        c = np.array([-1.0, -1.0])
        a_ub = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        b_ub = np.array([4.0, 3.0, 2.0])
        result = solve_lp_simplex(c, a_ub=a_ub, b_ub=b_ub)
        assert result.status == "optimal"
        assert result.objective == pytest.approx(-4.0)

    def test_equality_constraints(self):
        # minimise x + 2y  s.t.  x + y == 3, x,y >= 0  ->  x=3, y=0
        c = np.array([1.0, 2.0])
        result = solve_lp_simplex(c, a_eq=np.array([[1.0, 1.0]]), b_eq=np.array([3.0]))
        assert result.objective == pytest.approx(3.0)
        assert result.x[0] == pytest.approx(3.0)

    def test_infeasible(self):
        # x <= 1 and x == 2
        c = np.array([1.0])
        result = solve_lp_simplex(c, a_ub=np.array([[1.0]]), b_ub=np.array([1.0]),
                                  a_eq=np.array([[1.0]]), b_eq=np.array([2.0]))
        assert result.status == "infeasible"

    def test_unbounded(self):
        # minimise -x with only x >= 0
        c = np.array([-1.0])
        with pytest.raises(SolverError):
            solve_lp_simplex(c, a_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))

    def test_no_constraints(self):
        result = solve_lp_simplex(np.array([1.0, 2.0]))
        assert result.objective == 0.0

    def test_redundant_equalities(self):
        # duplicated equality rows must not break phase two
        c = np.array([1.0, 1.0])
        a_eq = np.array([[1.0, 1.0], [2.0, 2.0]])
        b_eq = np.array([2.0, 4.0])
        result = solve_lp_simplex(c, a_eq=a_eq, b_eq=b_eq)
        assert result.objective == pytest.approx(2.0)

    def test_agrees_with_scipy_on_random_lps(self):
        from scipy import optimize

        rng = np.random.default_rng(0)
        for _ in range(10):
            n, m = 6, 4
            c = rng.uniform(0.1, 2.0, size=n)
            a_ub = rng.uniform(-1.0, 1.0, size=(m, n))
            b_ub = rng.uniform(1.0, 3.0, size=m)
            ours = solve_lp_simplex(c, a_ub=a_ub, b_ub=b_ub)
            ref = optimize.linprog(c, A_ub=a_ub, b_ub=b_ub, method="highs")
            assert ours.status == "optimal"
            assert ours.objective == pytest.approx(ref.fun, abs=1e-7)


class TestTwoModeMix:
    def test_mix_preserves_work_and_duration(self):
        segments = two_mode_mix(work=3.0, duration=4.0, s_low=0.5, s_high=1.0)
        assert sum(s * t for s, t in segments) == pytest.approx(3.0)
        assert sum(t for _s, t in segments) == pytest.approx(4.0)

    def test_mix_single_mode_when_equal(self):
        segments = two_mode_mix(work=2.0, duration=4.0, s_low=0.5, s_high=0.5)
        assert segments == [(0.5, pytest.approx(4.0))]

    def test_mix_rejects_unbracketed_speed(self):
        with pytest.raises(InvalidModelError):
            two_mode_mix(work=10.0, duration=4.0, s_low=0.5, s_high=1.0)  # ideal 2.5

    def test_mix_rejects_bad_duration(self):
        with pytest.raises(InvalidModelError):
            two_mode_mix(work=1.0, duration=0.0, s_low=0.5, s_high=1.0)

    @given(st.floats(min_value=0.1, max_value=10.0),
           st.floats(min_value=0.1, max_value=5.0),
           st.floats(min_value=0.1, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=50)
    def test_mix_energy_below_upper_mode_energy(self, work, s_low, gap, frac):
        """Mixing never costs more than running everything at the upper mode
        for the same work (the upper mode is faster, hence more expensive per
        unit of work)."""
        s_high = s_low + gap + 1e-3
        ideal = s_low + frac * (s_high - s_low)
        duration = work / ideal
        segments = two_mode_mix(work, duration, s_low, s_high)
        energy = sum(s ** 3 * t for s, t in segments)
        upper_energy = work * s_high ** 2
        assert energy <= upper_energy * (1 + 1e-9)


class TestVddLP:
    def test_lp_dimensions(self, small_sp_graph):
        p = _problem(small_sp_graph, 1.5)
        lp = build_vdd_lp(p)
        n, m = small_sp_graph.n_tasks, 3
        # [duration | completion | energy]; epigraph, edge and start rows
        assert lp.c.size == 3 * n
        assert lp.a_eq.shape == (0, 3 * n)
        assert lp.a_ub.shape == ((m - 1) * n + small_sp_graph.n_edges + n,
                                 3 * n)

    def test_lp_requires_vdd_model(self, small_sp_graph):
        p = MinEnergyProblem(graph=small_sp_graph, deadline=100.0,
                             model=ContinuousModel())
        with pytest.raises(InvalidModelError):
            build_vdd_lp(p)

    def test_single_task_two_modes_matches_hand_computation(self):
        # one task, work 1, modes {1, 2}, deadline 0.75:
        # run a at speed 1 and b at speed 2 with a + b = 0.75, a + 2b = 1
        # -> b = 0.25, a = 0.5; energy = 0.5 * 1 + 0.25 * 8 = 2.5
        g = TaskGraph(tasks=[("A", 1.0)])
        p = MinEnergyProblem(graph=g, deadline=0.75,
                             model=VddHoppingModel(modes=(1.0, 2.0)))
        s = solve_vdd_lp(p)
        assert s.energy == pytest.approx(2.5, rel=1e-6)
        check_solution(s)

    def test_lp_optimum_between_continuous_and_discrete(self, small_layered_dag):
        modes = (0.4, 0.7, 1.0)
        p = _problem(small_layered_dag, 1.4, modes=modes)
        lp = solve_vdd_lp(p)
        check_solution(lp)
        lb = continuous_lower_bound(p)
        assert lp.energy >= lb * (1 - 1e-6)
        from repro.discrete.heuristics import solve_discrete_best_heuristic
        from repro.core.models import DiscreteModel

        disc = solve_discrete_best_heuristic(p.with_model(DiscreteModel(modes=modes)))
        assert lp.energy <= disc.energy * (1 + 1e-6)

    def test_lp_backends_agree(self, small_sp_graph):
        p = _problem(small_sp_graph, 1.5)
        highs = solve_vdd_lp(p, backend="highs")
        simplex = solve_vdd_lp(p, backend="simplex")
        assert highs.energy == pytest.approx(simplex.energy, rel=1e-6)
        check_solution(simplex)

    def test_unknown_backend(self, small_sp_graph):
        p = _problem(small_sp_graph, 1.5)
        with pytest.raises(SolverError):
            solve_vdd_lp(p, backend="quantum")

    def test_infeasible_instance(self, small_chain):
        model = VddHoppingModel(modes=(0.5, 1.0))
        p = MinEnergyProblem(graph=small_chain, deadline=1.0, model=model)
        with pytest.raises(InfeasibleProblemError):
            solve_vdd_lp(p)

    def test_returns_hopping_assignment(self, small_sp_graph):
        p = _problem(small_sp_graph, 1.5)
        s = solve_vdd_lp(p)
        assert isinstance(s.assignment, HoppingAssignment)
        assert s.optimal

    def test_each_task_uses_at_most_two_modes_in_some_optimum(self, small_layered_dag):
        """The LP optimum found by HiGHS (a vertex solution) mixes at most
        two modes per task — the paper's 'mix two consecutive modes' remark."""
        p = _problem(small_layered_dag, 1.4)
        s = solve_vdd_lp(p)
        for task, segs in s.assignment.segments.items():
            used = [mode for mode, t in segs if t > 1e-9]
            assert len(used) <= 2, f"task {task} mixes {len(used)} modes"


class TestVddMixingAndDispatch:
    def test_mixing_feasible_and_above_lp(self, small_layered_dag):
        p = _problem(small_layered_dag, 1.4)
        mixing = solve_vdd_mixing(p)
        lp = solve_vdd_lp(p)
        check_solution(mixing)
        assert mixing.energy >= lp.energy * (1 - 1e-9)

    def test_mixing_exact_when_continuous_speed_is_a_mode(self):
        # chain with total work 2 and deadline 4 -> continuous speed 0.5, a mode
        g = generators.chain(2, works=[1.0, 1.0])
        p = MinEnergyProblem(graph=g, deadline=4.0,
                             model=VddHoppingModel(modes=(0.5, 1.0)))
        mixing = solve_vdd_mixing(p)
        lp = solve_vdd_lp(p)
        assert mixing.energy == pytest.approx(lp.energy, rel=1e-9)

    def test_mixing_handles_ideal_below_slowest_mode(self):
        g = TaskGraph(tasks=[("A", 1.0)])
        p = MinEnergyProblem(graph=g, deadline=10.0,
                             model=VddHoppingModel(modes=(0.5, 1.0)))
        s = solve_vdd_mixing(p)
        # forced to the slowest mode
        assert s.assignment.segments["A"] == [(0.5, pytest.approx(2.0))]
        check_solution(s)

    def test_mixing_requires_vdd_model(self, small_chain):
        p = MinEnergyProblem(graph=small_chain, deadline=100.0, model=ContinuousModel())
        with pytest.raises(InvalidModelError):
            solve_vdd_mixing(p)

    def test_dispatch_methods(self, small_sp_graph):
        p = _problem(small_sp_graph, 1.5)
        assert solve_vdd_hopping(p).solver.startswith("vdd-lp")
        assert solve_vdd_hopping(p, method="mixing").solver == "vdd-two-mode-mixing"
        with pytest.raises(InvalidModelError):
            solve_vdd_hopping(p, method="telepathy")

    @given(st.integers(min_value=2, max_value=14),
           st.floats(min_value=1.1, max_value=3.0),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=15, deadline=None)
    def test_lp_between_continuous_bound_and_mixing(self, n, slack, seed):
        g = generators.layered_dag(n, seed=seed)
        p = _problem(g, slack)
        lp = solve_vdd_lp(p)
        mixing = solve_vdd_mixing(p)
        lb = continuous_lower_bound(p)
        check_solution(lp)
        assert lb * (1 - 1e-6) <= lp.energy <= mixing.energy * (1 + 1e-6)
