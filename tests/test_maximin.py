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

    def test_constant_rows_when_n_at_most_M(self):
        # (i, i, ..., i) for i = 1..n: distance d, no search
        rep = solve_feasibility(FeasibilityInstance(8, 10, 10, 10))
        assert rep.status == FEASIBLE and rep.nodes_explored == 0
        assert rep.design.as_array().tolist() == [[i] * 10 for i in range(1, 9)]
        assert min_pairwise_distance(rep.design) == 10

    def test_warm_start_repair(self):
        ws = design_from_array([[1, 1, 1, 1], [1, 1, 1, 2], [2, 2, 2, 2]], 2)
        rep = solve_feasibility(FeasibilityInstance(3, 4, 2, 2, warm_start=ws))
        assert rep.status == FEASIBLE
        assert min_pairwise_distance(rep.design) >= 2

    def test_warm_start_shape_mismatch(self):
        five_by_four = design_from_array([[1, 2, 1, 2]] * 5, 2)
        for n, d, M, q, ws in [
            (3, 3, 2, 2, design_from_array([[1, 1]], 2)),
            # the q = 0 and n = 1 shortcuts must not return the warm start
            (3, 2, 2, 0, five_by_four),
            (1, 2, 2, 1, five_by_four),
            (3, 2, 2, 1, design_from_array([[1, 3], [2, 1], [3, 3]], 3)),
        ]:
            with pytest.raises(ValueError, match="warm start shape"):
                solve_feasibility(FeasibilityInstance(n, d, M, q, warm_start=ws))

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


# (n, d, M, q, seed, success, repaired rows): outputs of the original
# rescanning repair, which the short-pair table must reproduce move for move
REPAIR_PINS = [
    (3, 4, 2, 2, 0, True, "2221 1111 1222"),
    (5, 3, 2, 2, 1, False, "122 211 111 121 121"),
    (4, 4, 3, 3, 2, True, "3111 2321 2233 1123"),
    (6, 5, 3, 3, 3, True, "31111 33213 12221 13311 22322 23121"),
    (8, 7, 2, 4, 4, False, "2222222 1121122 2122111 1212112 2111212 1211221 2221211 1112212"),
    (8, 7, 2, 4, 5, False, "2212122 1211111 1111222 1122211 2221221 2121112 2121212 2121122"),
    (12, 5, 2, 2, 6, True, "12212 22112 12122 12111 21222 11121 22121 12221 22211 11112 21111 11211"),
    (12, 6, 3, 4, 7, False, "323323 311113 332311 121121 213222 222332 131232 122213 233133 113331 111231 113331"),
    (13, 6, 3, 4, 8, False, "311311 232312 122211 223131 112133 321122 333213 231221 113222 213122 122111 313112 323323"),
    (10, 8, 4, 6, 9, True, "24421334 33244434 11423241 21142124 42434233 32141311 14113413 43311221 22332441 21231212"),
    (2, 3, 2, 3, 10, True, "221 112"),
    (9, 7, 2, 4, 11, False, "1121222 2211221 2222122 1212212 1112121 2122211 1221111 2111112 2122211"),
    (9, 7, 2, 5, 12, False, "2122111 1211122 1211211 1121121 1111212 2112122 2212221 1221212 2121222"),
    (15, 6, 5, 5, 13, False, "555515 521143 444155 135233 415322 143421 332412 222531 323254 354341 514434 241314 253242 151443 345341"),
    (20, 8, 5, 6, 14, True, "15421425 24131414 43435451 14143253 12445542 33255323 32511115 31525554 55512522 43311534 11112431 45252444 44224513 42122152 54355131 55234235 53144312 25544151 25453533 44333322"),
    (7, 2, 3, 2, 15, False, "33 12 21 23 22 31 33"),
    (16, 4, 2, 2, 16, False, "2221 2111 1211 1222 2212 1121 1112 2122 2122 2121 1221 2211 2121 1221 2222 2112"),
    (11, 9, 3, 6, 17, True, "331122321 122322213 113123123 333212232 211121212 212333322 221232123 332111113 223311131 132233131 123231312"),
    (6, 6, 2, 4, 18, False, "211221 112212 121111 222122 221112 112212"),
    (14, 9, 2, 4, 19, True, "211211211 112221221 121121211 222222121 221221222 111222111 122112221 112122212 211111122 122212112 211122221 222121112 212112111 212212222"),
]


@pytest.mark.parametrize("n, d, M, q, seed, ok, rows", REPAIR_PINS)
def test_repair_pinned_outputs(n, d, M, q, seed, ok, rows):
    rng = np.random.default_rng(seed)
    arr = rng.integers(1, M + 1, size=(n, d))
    assert maximin._repair(arr, M, q, rng, None) is ok
    assert [[int(c) for c in r] for r in rows.split()] == arr.tolist()


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

    @pytest.mark.parametrize("n, d, M, limit, q_star", [
        (9, 7, 2, None, 3), (20, 8, 5, 5.0, 6)])
    def test_certified_by_bound(self, n, d, M, limit, q_star):
        # Plotkin: A_2(7, 4) <= 8 < 9 and A_5(8, 7) <= 11 < 20, so the
        # witness at q* certifies it with no exhaustive solve
        r = optimize_maximin(n, d, M, time_limit=limit)
        assert r.certificate == "bound" and r.certified
        assert all(rep.status == FEASIBLE for rep in r.trace)
        assert r.q_star == q_star
        assert min_pairwise_distance(r.design) >= r.q_star

    def test_certified_by_exhaustion(self):
        # no bound rules out q = 5 for (5, 6, 3): the solve there is
        # infeasible by exhaustion
        r = optimize_maximin(5, 6, 3)
        assert r.q_star == 4 and r.certificate == "exhaustion"
        assert r.trace[-1].status == INFEASIBLE and r.trace[-1].q == 5

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
        # each solve past q0 spends its time in warm-start repair before
        # any complete search starts
        t0 = time.perf_counter()
        r = optimize_maximin(100, 10, 5, time_limit=1.0)
        assert time.perf_counter() - t0 < 2.0
        assert not r.certified and r.certificate is None
        assert min_pairwise_distance(r.design) >= r.q_star

    def test_greedy_only_without_warm_start(self, monkeypatch):
        # every solve past q0 is warm-started: a failed repair goes straight
        # to the hinted complete search, with no greedy construction
        warm = []
        solve, greedy = maximin.solve_feasibility, maximin._greedy_rows

        def tracked_solve(inst):
            warm.append(inst.warm_start is not None)
            return solve(inst)

        def cold_greedy(*args):
            assert not warm[-1], "greedy construction in a warm-started solve"
            return greedy(*args)

        monkeypatch.setattr(maximin, "solve_feasibility", tracked_solve)
        monkeypatch.setattr(maximin, "_greedy_rows", cold_greedy)
        r = optimize_maximin(5, 6, 3)
        assert r.certificate == "exhaustion"  # the failed repair was searched
        assert warm == [False] + [True] * (len(warm) - 1)

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
