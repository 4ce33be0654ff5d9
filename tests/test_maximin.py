import itertools
import time

import numpy as np
import pytest

from quip import maximin
from quip.bounds import q0
from quip.encoding import design_from_array, min_pairwise_distance
from quip.maximin import (
    FEASIBLE,
    INFEASIBLE,
    FeasibilityInstance,
    InvalidDistanceError,
    SolveReport,
    TooLargeError,
    brute_force_maximin,
    optimize_maximin,
    solve_feasibility,
)


class TestFeasibilityInstance:
    def test_invalid_distance(self):
        with pytest.raises(InvalidDistanceError):
            FeasibilityInstance(3, 3, 2, 4)
        with pytest.raises(InvalidDistanceError):
            FeasibilityInstance(3, 3, 2, -1)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            FeasibilityInstance(0, 3, 2, 1)


class TestSolveFeasibility:
    def test_feasible_witness_valid(self):
        rep = solve_feasibility(FeasibilityInstance(4, 4, 3, 3))
        assert rep.status == FEASIBLE
        assert min_pairwise_distance(rep.design) >= 3

    def test_certified_infeasible(self):
        # five points in {1,2}^3 at pairwise distance >= 2: the distance-2
        # graph on the cube is bipartite 4+4 with no 5-clique
        rep = solve_feasibility(FeasibilityInstance(5, 3, 2, 2))
        assert rep.status == INFEASIBLE
        assert rep.design is None
        assert rep.nodes_explored > 0

    def test_q_zero_shortcut(self):
        rep = solve_feasibility(FeasibilityInstance(10, 2, 2, 0))
        assert rep.status == FEASIBLE and rep.design.n == 10

    def test_n_one(self):
        rep = solve_feasibility(FeasibilityInstance(1, 3, 2, 3))
        assert rep.status == FEASIBLE and rep.design.n == 1

    def test_warm_start_repair(self):
        ws = design_from_array([[1, 1, 1, 1], [1, 1, 1, 2], [2, 2, 2, 2]], 2)
        rep = solve_feasibility(FeasibilityInstance(3, 4, 2, 2, warm_start=ws))
        assert rep.status == FEASIBLE
        assert min_pairwise_distance(rep.design) >= 2

    def test_warm_start_shape_mismatch(self):
        ws = design_from_array([[1, 1]], 2)
        with pytest.raises(ValueError):
            solve_feasibility(FeasibilityInstance(3, 3, 2, 2, warm_start=ws))

    def test_deep_search_does_not_recurse(self):
        # greedy construction fails here and the complete search goes
        # (n-1)*d = 2990 cells deep, past Python's recursion limit
        rep = solve_feasibility(FeasibilityInstance(300, 10, 2, 2))
        assert rep.status == FEASIBLE and rep.nodes_explored > 0
        assert min_pairwise_distance(rep.design) >= 2

    def test_determinism(self):
        a = solve_feasibility(FeasibilityInstance(6, 5, 3, 3, seed=42))
        b = solve_feasibility(FeasibilityInstance(6, 5, 3, 3, seed=42))
        assert a.design == b.design


class TestOptimizeMaximin:
    def test_trivial_two_points(self):
        r = optimize_maximin(2, 3, 2)
        assert r.q_star == 3 and r.certified

    def test_oracle_equivalence_sample(self):
        for n, d, M in [(3, 3, 2), (4, 4, 2), (5, 3, 3), (4, 2, 3)]:
            r = optimize_maximin(n, d, M)
            bq, _ = brute_force_maximin(n, d, M)
            assert r.q_star == bq, (n, d, M)
            assert r.certified
            assert min_pairwise_distance(r.design) == r.q_star

    def test_overfull_lattice(self):
        # n > M^d: only duplicate designs exist
        r = optimize_maximin(5, 2, 2, time_limit=30)
        assert r.q_star == min_pairwise_distance(r.design)
        bq, _ = brute_force_maximin(5, 2, 2)
        assert r.q_star == bq

    def test_trace_records_all_targets(self):
        r = optimize_maximin(3, 3, 2)
        qs = [rep.q for rep in r.trace]
        assert qs[0] == q0(3, 3, 2)
        assert qs == sorted(qs)

    def test_determinism(self):
        a = optimize_maximin(5, 4, 3, seed=7)
        b = optimize_maximin(5, 4, 3, seed=7)
        assert a.design == b.design and a.q_star == b.q_star

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            optimize_maximin(1, 3, 2)

    def test_infeasible_at_q0_is_an_error(self, monkeypatch):
        # q0 is feasible by construction, so an infeasibility verdict there
        # is a solver fault, not a certified duplicate design
        def infeasible(inst):
            return SolveReport(INFEASIBLE, None, inst.q, 0, 0.0)

        monkeypatch.setattr(maximin, "solve_feasibility", infeasible)
        with pytest.raises(RuntimeError, match=f"q0={q0(4, 3, 2)} infeasible"):
            optimize_maximin(4, 3, 2)

    def test_time_limit_covers_the_whole_solve(self):
        # each solve past q0 spends seconds in warm-start repair and greedy
        # construction before any complete search starts
        t0 = time.perf_counter()
        r = optimize_maximin(100, 10, 5, time_limit=1.0)
        assert time.perf_counter() - t0 < 2.0
        assert not r.certified
        assert min_pairwise_distance(r.design) >= r.q_star

    @pytest.mark.parametrize("limit", [0, -1.0, float("inf"), float("nan")])
    def test_time_limit_must_be_finite_positive(self, limit):
        with pytest.raises(ValueError):
            optimize_maximin(3, 3, 2, time_limit=limit)
        with pytest.raises(ValueError):
            FeasibilityInstance(3, 3, 2, 1, time_limit=limit)


class TestBruteForce:
    def test_known_small(self):
        q, D = brute_force_maximin(2, 4, 2)
        assert q == 4
        q, D = brute_force_maximin(4, 3, 2)
        assert q == 2  # even-weight cube subcode

    def test_guard(self):
        with pytest.raises(TooLargeError):
            brute_force_maximin(10, 10, 4)

    def test_witness_consistency(self):
        q, D = brute_force_maximin(3, 4, 3)
        assert min_pairwise_distance(D) == q


class TestSymmetryBreakingSoundness:
    def test_complete_search_agrees_with_enumeration(self):
        # for every q, the complete search's feasibility verdict matches a
        # symmetry-free exhaustive check over all multisets
        n, d, M = 4, 3, 2
        pts = np.array(
            list(itertools.product(range(1, M + 1), repeat=d)), dtype=int
        )
        for q in range(0, d + 1):
            truth = any(
                min(
                    (a != b).sum()
                    for a, b in itertools.combinations(combo, 2)
                )
                >= q
                for combo in itertools.combinations_with_replacement(pts, n)
            )
            rep = solve_feasibility(FeasibilityInstance(n, d, M, q))
            assert (rep.status == FEASIBLE) == truth, q
