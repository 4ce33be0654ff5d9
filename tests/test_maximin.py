import hashlib
import itertools
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quip import bounds, maximin
from quip.bounds import q0, q_upper
from quip.encoding import design_from_array, min_pairwise_distance
from quip.maximin import (
    FEASIBLE,
    INFEASIBLE,
    TIME_LIMIT,
    FeasibilityInstance,
    InvalidDistanceError,
    SolveReport,
    TooLargeError,
    brute_force_maximin,
    optimize_maximin,
    solve_feasibility,
)


def singleton_only(monkeypatch):
    """Stop the maximin ascent at the Singleton bound alone, so that (5, 6, 3)
    still reaches the q = 5 solve, which only exhaustion decides."""
    monkeypatch.setattr(bounds, "code_size_bound", lambda d, q, M: M ** (d - q + 1))


class TestFeasibilityInstance:
    def test_invalid_distance(self):
        with pytest.raises(InvalidDistanceError):
            FeasibilityInstance(3, 3, 2, 4)
        with pytest.raises(InvalidDistanceError):
            FeasibilityInstance(3, 3, 2, -1)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            FeasibilityInstance(0, 3, 2, 1)

    @pytest.mark.parametrize("args, name", [((4, 3, 2, 2.0), "q"), ((4.0, 3, 2, 2), "n"),
                                            ((4, 3.0, 2, 2), "d"), ((4, 3, 2.0, 2), "M")])
    def test_non_integer_named(self, args, name):
        # these used to construct, and the solve failed inside numpy with
        # "seed must be integer"
        with pytest.raises(ValueError, match=f"^{name}=.* must be an int"):
            FeasibilityInstance(*args)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_seed_named(self, seed):
        # -1 used to fail only in the repair's SeedSequence, with numpy's bare
        # "expected non-negative integer"
        with pytest.raises(ValueError, match="seed="):
            FeasibilityInstance(5, 4, 3, 2, seed=seed)


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

    def test_q_zero_needs_no_search(self):
        # n > M**d: repair of the random start makes no move at q = 0
        rep = solve_feasibility(FeasibilityInstance(10, 2, 2, 0))
        assert rep.status == FEASIBLE and rep.design.n == 10 and rep.nodes_explored == 0

    def test_n_one(self):
        rep = solve_feasibility(FeasibilityInstance(1, 3, 2, 3))
        assert rep.status == FEASIBLE and rep.design.n == 1

    def test_constant_rows_when_n_at_most_M(self):
        # the code phase's repetition code gives (i, i, ..., i) for i = 1..n
        # at distance d, also for M = 10, which has no field; a direct solve
        # repairs its seeded random start to distance d instead
        res = optimize_maximin(8, 10, 10)
        assert res.design.as_array().tolist() == [[i] * 10 for i in range(1, 9)]
        assert [(r.status, r.phase, r.q, r.nodes_explored) for r in res.trace] == [
            (FEASIBLE, "code", 10, 0)]
        assert res.q_star == 10 and res.certificate == "bound"
        for s in range(5):
            rep = solve_feasibility(FeasibilityInstance(8, 10, 10, 10, seed=s))
            assert rep.status == FEASIBLE and min_pairwise_distance(rep.design) == 10

    def test_warm_start_repair(self):
        ws = design_from_array([[1, 1, 1, 1], [1, 1, 1, 2], [2, 2, 2, 2]], 2)
        rep = solve_feasibility(FeasibilityInstance(3, 4, 2, 2, warm_start=ws))
        assert rep.status == FEASIBLE
        assert min_pairwise_distance(rep.design) >= 2

    def test_warm_start_shape_mismatch(self):
        five_by_four = design_from_array([[1, 2, 1, 2]] * 5, 2)
        for n, d, M, q, ws in [
            (3, 3, 2, 2, design_from_array([[1, 1]], 2)),
            # neither a q = 0 solve nor an n <= M one may return it
            (3, 2, 2, 0, five_by_four),
            (1, 2, 2, 1, five_by_four),
            (3, 2, 2, 1, design_from_array([[1, 3], [2, 1], [3, 3]], 3)),
        ]:
            with pytest.raises(ValueError, match="warm start shape"):
                solve_feasibility(FeasibilityInstance(n, d, M, q, warm_start=ws))

    def test_deep_search_does_not_recurse(self):
        # repair of the random start fails here and the complete search
        # goes (n-1)*d = 2990 cells deep, past Python's recursion limit
        rep = solve_feasibility(FeasibilityInstance(300, 10, 2, 2))
        assert rep.status == FEASIBLE and rep.nodes_explored > 0
        assert min_pairwise_distance(rep.design) >= 2

    def test_search_reads_the_clock_every_256_nodes(self):
        # the deadline has passed before the complete search starts, so it
        # stops at its first clock reading
        rep = solve_feasibility(FeasibilityInstance(20, 8, 2, 3, time_limit=1e-9))
        assert rep.status == TIME_LIMIT and rep.nodes_explored <= 256

    def test_phase_names_the_deciding_phase(self):
        ws = design_from_array([[1, 1, 1, 1], [1, 1, 1, 2], [2, 2, 2, 2]], 2)
        for inst, phase in [
            (FeasibilityInstance(8, 10, 10, 10), "repair"),  # n <= M
            (FeasibilityInstance(10, 2, 2, 0), "repair"),  # q = 0: no move
            (FeasibilityInstance(3, 4, 2, 2, warm_start=ws), "repair"),
            (FeasibilityInstance(4, 4, 3, 3), "repair"),  # of a random start
            (FeasibilityInstance(5, 3, 2, 2), "search"),  # infeasible
            (FeasibilityInstance(300, 10, 2, 2), "search"),  # repair fails
        ]:
            rep = solve_feasibility(inst)
            assert rep.phase == phase, inst
            assert (rep.nodes_explored > 0) == (phase == "search")

    def test_determinism(self):
        a = solve_feasibility(FeasibilityInstance(6, 5, 3, 3, seed=42))
        b = solve_feasibility(FeasibilityInstance(6, 5, 3, 3, seed=42))
        assert a.design == b.design

    def test_q0_needs_no_search(self):
        # over criterion 2's grid, repair of the seeded random start finds
        # every witness at the guaranteed distance
        for n, d, M in itertools.product(range(2, 21), range(2, 11), range(2, 9)):
            rep = solve_feasibility(FeasibilityInstance(n, d, M, q0(n, d, M)))
            assert rep.status == FEASIBLE and rep.nodes_explored == 0, (n, d, M)


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


def _witness(arr):
    """The witness as row strings, or a digest of them past 200 cells."""
    rows = " ".join("".join(str(int(c)) for c in r) for r in arr)
    return rows if arr.size <= 200 else "sha256:" + hashlib.sha256(rows.encode()).hexdigest()[:16]


# (n, d, M, q, hint rows or None, status, nodes, witness): outputs of the
# numpy-array complete search, which the bitmask kernel must reproduce cell
# for cell. Hints come from optimize_maximin's trace (the canonicalized
# witness at q-1) or canonicalize a random design. An exhaustion tries every
# level of every cell it reaches, so its node count guards the pruning and
# the row-lex and value-precedence rules but not the visit order; the
# witness searches guard the order.
SEARCH_PINS = [
    (4, 8, 3, 7, "11111111 21222222 22331231 32133313", INFEASIBLE, 16067, None),
    (5, 6, 3, 5, "111111 112222 123213 222112 333311", INFEASIBLE, 9678, None),
    (5, 5, 2, 3, "11111 11222 12221 21121 22222", INFEASIBLE, 729, None),
    (5, 3, 2, 2, None, INFEASIBLE, 41, None),
    (6, 6, 2, 4, None, INFEASIBLE, 964, None),
    (7, 5, 2, 3, "11111 12111 12112 21112 21121 22121 22121", INFEASIBLE, 729, None),
    (9, 7, 2, 4, None, INFEASIBLE, 130608, None),
    (8, 7, 2, 4, "1111111 1121122 1211222 1222121 1222212 2112121 2121211 2122222", FEASIBLE, 403, "1111111 1121222 1212221 1222112 2112212 2122121 2211122 2221211"),
    (12, 5, 2, 2, "11111 11121 11122 11211 11222 12111 12211 12212 12221 22121 22122 22212", FEASIBLE, 565, "11111 11122 11221 12211 12222 21112 21211 21222 22111 22122 22212 22221"),
    (6, 5, 3, 4, "11111 22122 22212 23332 33222 33231", FEASIBLE, 4125, "11111 12222 22133 23312 31323 33231"),
    (12, 6, 3, 4, "111111 112211 121222 211333 223313 231323 311222 322213 331113 331233 331321 332223", FEASIBLE, 31963, "111111 112222 121233 211332 223313 231221 232112 312133 313321 321122 322211 333232"),
    (20, 8, 4, 5, "11111111 11222222 12123112 22331213 23231313 23341212 31214334 31413322 31423322 32212132 32314142 33313121 33342422 34231111 34313114 41134244 42144431 43121214 43444142 44313114", FEASIBLE, 214, "11111111 11222222 12123123 22331213 23231321 23341132 31214334 31413122 31421313 32212113 32314242 33313311 33342423 34231142 34323134 41134244 42144431 43121212 43444143 44313223"),
    (10, 6, 3, 4, "111111 112212 121323 123213 123223 133133 211231 221322 223311 311232", FEASIBLE, 226, "111111 112222 121323 123231 133312 233133 311233 322332 331122 332211"),
    (10, 5, 2, 2, "11111 11122 11122 12122 21121 21121 21212 22112 22112 22121", FEASIBLE, 113, "11111 11122 11221 12121 21121 21222 22111 22122 22212 22221"),
    (300, 10, 2, 2, None, FEASIBLE, 3733, "sha256:e8a593f87f69977d"),
    (6, 5, 3, 4, None, FEASIBLE, 146, "11111 12222 21233 23312 32331 33123"),
    (20, 8, 4, 5, None, FEASIBLE, 2942, "11111111 11122222 11133333 11144444 12211223 12222114 12233441 12244332 13311334 13322443 13333112 13344221 14411442 14422331 14433224 14444113 21212132 21221241 21234314 21243423"),
    (10, 6, 3, 4, None, FEASIBLE, 291, "111111 112222 113333 221122 222211 231233 233312 321313 323131 332123"),
    (7, 4, 3, 3, None, FEASIBLE, 50, "1111 1222 1333 2123 2231 2312 3132"),
    (9, 5, 3, 3, None, FEASIBLE, 71, "11111 11222 11333 12123 12231 12312 13132 13213 13321"),
]


@pytest.mark.parametrize("n, d, M, q, hint, status, nodes, witness", SEARCH_PINS)
def test_search_pinned_outputs(n, d, M, q, hint, status, nodes, witness):
    if hint is not None:
        hint = np.array([[int(c) for c in r] for r in hint.split()])
    # a changed visit order can turn a pin into a long search: stop it
    deadline = time.perf_counter() + 60.0
    solution, visited, timed_out = maximin._complete_search(
        FeasibilityInstance(n, d, M, q), hint, deadline)
    assert not timed_out and visited == nodes
    found = None if solution is None else _witness(solution)
    assert (found is not None) == (status == FEASIBLE) and found == witness


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
        # Plotkin: A_2(7, 4) <= 8 < 9 and A_5(8, 7) <= 10 < 20, so the
        # witness at q* certifies it with no exhaustive solve
        r = optimize_maximin(n, d, M, time_limit=limit)
        assert r.certificate == "bound" and r.certified
        assert all(rep.status == FEASIBLE for rep in r.trace)
        assert r.q_star == q_star
        assert min_pairwise_distance(r.design) >= r.q_star

    @pytest.mark.parametrize("n, d, M, q_star", [
        (4, 8, 3, 6), (5, 6, 3, 4), (5, 5, 2, 2), (7, 9, 2, 4)])
    def test_column_count_and_parity_bounds_certify(self, n, d, M, q_star):
        # counting the pairs one column makes differ rules out A_3(8, 7) >=
        # 4 (6*7 > 8*5), A_3(6, 5) >= 5 (10*5 > 6*8) and A_2(4, 3) >= 3
        # (3*3 > 4*2, so A_2(5, 3) <= 4); the parity extension gives
        # A_2(9, 5) = A_2(10, 6) <= 6. Without these bounds each needs an
        # exhaustive solve (the last one of 13.2M nodes).
        r = optimize_maximin(n, d, M)
        assert r.q_star == q_star and r.certificate == "bound"
        assert all(rep.status == FEASIBLE for rep in r.trace)

    def test_certified_by_exhaustion(self, monkeypatch):
        # under the Singleton bound alone, q = 5 stays open for (5, 6, 3):
        # the solve there is infeasible by exhaustion
        singleton_only(monkeypatch)
        r = optimize_maximin(5, 6, 3)
        assert r.q_star == 4 and r.certificate == "exhaustion"
        assert r.trace[-1].status == INFEASIBLE and r.trace[-1].q == 5
        assert r.trace[-1].nodes_explored == 9678

    def test_trace_records_all_targets(self):
        # the first target is q0, or the code report's distance, at least
        # q0 and equal to it only where q0 == q_upper leaves no ascent
        # ((5,5,2): one code report at 2); the ascent then tries every
        # target after it, one by one
        for n, d, M in [(3, 3, 2), (13, 6, 3), (8, 4, 6), (5, 5, 2)]:
            r = optimize_maximin(n, d, M)
            qs = [rep.q for rep in r.trace]
            if r.trace[0].phase == "code":
                assert qs[0] >= q0(n, d, M)
                assert (qs[0] == q0(n, d, M)) == (q0(n, d, M) == q_upper(n, d, M))
            else:
                assert qs[0] == q0(n, d, M)
            assert qs == list(range(qs[0], qs[0] + len(qs))), (n, d, M)
        trace = optimize_maximin(5, 5, 2).trace
        assert [(rep.phase, rep.q) for rep in trace] == [("code", 2)]

    def test_determinism(self):
        a = optimize_maximin(5, 4, 3, seed=7)
        b = optimize_maximin(5, 4, 3, seed=7)
        assert a.design == b.design and a.q_star == b.q_star

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            optimize_maximin(1, 3, 2)

    @pytest.mark.parametrize("args, name", [((4.0, 3, 2), "n"), ((4, 3.0, 2), "d"),
                                            ((4, 3, 2.0), "M")])
    def test_non_integer_named(self, args, name):
        # these used to fail with a bare TypeError, such as "slice indices
        # must be integers or None" for n = 4.0
        with pytest.raises(ValueError, match=f"^{name}=.* must be an int"):
            optimize_maximin(*args)

    @pytest.mark.parametrize("n, d, M", [(6, 4, 3), (10, 4, 6)])
    def test_bad_seed_named(self, n, d, M):
        # (6, 4, 3) is settled by the code phase, which draws nothing, so
        # seed=-1 used to return normally; (10, 4, 6) failed in numpy
        for seed in (-1, 2.0):
            with pytest.raises(ValueError, match="seed="):
                optimize_maximin(n, d, M, seed=seed)

    def test_infeasible_at_q0_is_an_error(self, monkeypatch):
        # q0 is feasible by construction, so an infeasibility verdict there
        # is a solver fault, not a certified duplicate design
        def infeasible(inst):
            return SolveReport(INFEASIBLE, None, inst.q, 0, 0.0)

        # no field has 6 elements, so no code witness replaces the q0 solve
        monkeypatch.setattr(maximin, "solve_feasibility", infeasible)
        with pytest.raises(RuntimeError, match=f"q0={q0(8, 4, 6)} infeasible"):
            optimize_maximin(8, 4, 6)

    def test_timeout_at_q0_is_an_error(self, monkeypatch):
        # with no incumbent yet, a time limit leaves no design to return
        def timed_out(inst):
            return SolveReport(maximin.TIME_LIMIT, None, inst.q, 0, 0.0)

        monkeypatch.setattr(maximin, "solve_feasibility", timed_out)
        with pytest.raises(TimeoutError, match=f"q0={q0(8, 4, 6)} timed out"):
            optimize_maximin(8, 4, 6)

    def test_time_limit_covers_the_whole_solve(self):
        # the q = 7 solve's repair gives up within its move budget (about
        # a tenth of the limit); its hinted complete search spends the rest
        # of the second and stops at the deadline
        t0 = time.perf_counter()
        r = optimize_maximin(100, 10, 5, time_limit=1.0)
        assert time.perf_counter() - t0 < 2.0
        assert not r.certified and r.certificate is None
        assert min_pairwise_distance(r.design) >= r.q_star

    def test_no_solve_starts_once_the_limit_has_passed(self, monkeypatch):
        # the clock reads 0 when the limit is set and 1 ever after, so no
        # time is left for any solve. Each used to get 0.05 s regardless,
        # which on this frozen clock let it run to completion.
        def past_the_deadline():
            ticks = itertools.chain([0.0], itertools.repeat(1.0))
            monkeypatch.setattr(maximin, "time", SimpleNamespace(perf_counter=ticks.__next__))

        # (13, 6, 3): the code witness at q = 3 stands, uncertified
        past_the_deadline()
        r = optimize_maximin(13, 6, 3, time_limit=1e-3)
        assert r.q_star == 3 and r.certificate is None
        assert [rep.phase for rep in r.trace] == ["code"]
        # (8, 4, 6): no field, no code witness, so no design to return
        past_the_deadline()
        with pytest.raises(TimeoutError, match=f"q0={q0(8, 4, 6)} timed out"):
            optimize_maximin(8, 4, 6, time_limit=1e-3)

    def test_search_hinted_only_by_a_warm_start(self, monkeypatch):
        # repair is made to fail, so every solve reaches the complete
        # search: a cold one unhinted, a warm-started one (every solve past
        # the first witness) hinted by its canonical warm start
        warm = []
        search = maximin._complete_search

        def checked_search(inst, hint, deadline):
            ws = inst.warm_start
            warm.append(ws is not None)
            if ws is None:
                assert hint is None, "hinted cold search"
            else:
                assert np.array_equal(hint, maximin._canonicalize(ws.as_array()))
            return search(inst, hint, deadline)

        monkeypatch.setattr(maximin, "_complete_search", checked_search)
        monkeypatch.setattr(maximin, "_repair", lambda *args: False)
        singleton_only(monkeypatch)
        r = optimize_maximin(5, 6, 3)
        assert r.certificate == "exhaustion" and r.trace[0].phase == "code"
        assert warm == [True]
        warm.clear()
        r = optimize_maximin(8, 4, 6)  # no field of order 6: q0 is solved cold
        assert r.certified and len(warm) > 1
        assert warm == [False] + [True] * (len(warm) - 1)

    @pytest.mark.parametrize("limit", [0, -1.0, float("inf"), float("nan")])
    def test_time_limit_must_be_finite_positive(self, limit):
        with pytest.raises(ValueError):
            optimize_maximin(3, 3, 2, time_limit=limit)
        with pytest.raises(ValueError):
            FeasibilityInstance(3, 3, 2, 1, time_limit=limit)


class TestCodePhase:
    @pytest.mark.parametrize("M", [2, 3, 4, 5, 7, 8, 9, 11])
    def test_field_axioms(self, M):
        add, mul = maximin._field(M)
        E = np.arange(M)
        assert (add == add.T).all() and (mul == mul.T).all()
        assert (add[:, 0] == E).all() and (mul[:, 1] == E).all() and (mul[:, 0] == 0).all()
        # every row of add, and every nonzero row of mul on the nonzero
        # elements, is a permutation: inverses exist
        assert (np.sort(add, axis=1) == E).all()
        assert (np.sort(mul[1:, 1:], axis=1) == E[1:]).all()
        a, b, c = np.meshgrid(E, E, E, indexing="ij")
        assert (add[add[a, b], c] == add[a, add[b, c]]).all()
        assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
        assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
        if M in maximin._MODULI:  # the modulus is primitive: x (the integer p) has order M-1
            p = maximin._MODULI[M][0]
            powers = itertools.accumulate(range(M - 2), lambda y, _: int(mul[y, p]), initial=p)
            assert sorted(powers) == list(range(1, M))

    @pytest.mark.parametrize("n, d, M", [(8, 4, 6), (20, 5, 10)])
    def test_no_field_no_code_phase(self, n, d, M):
        assert maximin._field(M) is None
        assert q_upper(n, d, M) > q0(n, d, M)  # the phase would run otherwise
        r = optimize_maximin(n, d, M)
        assert r.certified and all(rep.phase != "code" for rep in r.trace)

    @pytest.mark.parametrize("n, d, M, q_star", [
        (8, 7, 2, 4), (12, 5, 2, 2), (9, 7, 2, 3), (300, 10, 2, 2), (20, 12, 5, 10),
        (20, 8, 5, 6), (30, 8, 9, 7)])
    def test_code_reaching_q_upper_settles_the_instance(self, n, d, M, q_star):
        # simplex [7,3,4]_2, parity [5,4,2]_2 and [10,9,2]_2, punctured
        # Reed-Muller [7,4,3]_2, and PG(1, M) codes [12,2,10]_5, [8,2,6]_5
        # and [8,2,7]_9 reach q_upper: one report, no solve
        r = optimize_maximin(n, d, M)
        assert r.q_star == q_star == q_upper(n, d, M) and r.certificate == "bound"
        assert [(rep.status, rep.phase, rep.q, rep.nodes_explored) for rep in r.trace] == [
            (FEASIBLE, "code", q_star, 0)]
        assert min_pairwise_distance(r.design) == q_star

    @pytest.mark.parametrize("n, d, M, q_star", [(5, 5, 2, 2), (12, 4, 2, 1)])
    def test_code_at_q0_equal_to_q_upper_settles_the_instance(self, n, d, M, q_star):
        # q0 == q_upper leaves no ascent: a code witness at that distance
        # certifies by bound, with no seeded repair
        assert q0(n, d, M) == q_upper(n, d, M) == q_star
        r = optimize_maximin(n, d, M)
        assert r.q_star == q_star and r.certificate == "bound"
        assert [(rep.status, rep.phase, rep.q, rep.nodes_explored) for rep in r.trace] == [
            (FEASIBLE, "code", q_star, 0)]
        assert min_pairwise_distance(r.design) == q_star

    @pytest.mark.parametrize("n, nodes", [(13, 712), (12, 16470)])
    def test_code_warm_starts_the_ternary_stalls(self, n, nodes):
        # a [6,3,3]_3 code beats q0 = 2; from its codewords the q = 4
        # witness is found by the same hinted search at every seed
        for seed in range(10):
            r = optimize_maximin(n, 6, 3, time_limit=30, seed=seed)
            assert r.q_star == 4 and r.certificate == "bound"
            assert [(rep.q, rep.phase, rep.nodes_explored) for rep in r.trace] == [
                (3, "code", 0), (4, "search", nodes)]

    def test_witness_is_checked(self, monkeypatch):
        # the report carries the witness's measured distance, not the
        # code's: a faulty table cannot certify a wrong q*
        monkeypatch.setattr(maximin, "_code_witness", lambda n, d, M: np.ones((n, d), int))
        r = optimize_maximin(8, 7, 2)
        assert r.trace[0].phase != "code" and r.q_star == 4

    def test_witness_matches_a_table_loop_encoder(self):
        # every field through its add and mul tables, one message digit at
        # a time, on the rows of itertools.product: the reference for the
        # lattice_array messages, the generator columns picked by message
        # row and the integer product for prime M
        def table_loop_code(k, d, M):
            add, mul = maximin._field(M)
            msgs = np.array(list(itertools.product(range(M), repeat=k)))
            nonzero = msgs[1:]
            leading = nonzero[np.arange(len(nonzero)), (nonzero != 0).argmax(axis=1)]
            points = nonzero[leading == 1]
            weight = np.count_nonzero(points, axis=1)
            points = points[np.lexsort((-weight, weight != 1))]
            parity = np.vstack([np.eye(k, dtype=np.int64), np.ones((1, k), dtype=np.int64)])
            best, best_weight = None, -1
            for columns in (points, msgs[msgs[:, -1] == 1], parity):
                G = columns[np.arange(d) % len(columns)].T
                words = np.zeros((len(msgs), d), dtype=np.int64)
                for i in range(k):
                    words = add[words, mul[msgs[:, i, None], G[i]]]
                w = int(np.count_nonzero(words[1:], axis=1).min())
                if w > best_weight:
                    best, best_weight = words + 1, w
            return best

        codes, nones = {}, 0
        for M in (2, 3, 4, 5, 7, 8, 9, 11):
            for n, d in itertools.product(range(2, 91), range(1, 13)):
                k = next(k for k in itertools.count(1) if M**k >= n)
                got = maximin._code_witness(n, d, M)
                if k > d:
                    assert got is None, (n, d, M)
                    nones += 1
                    continue
                if (k, d, M) not in codes:
                    codes[k, d, M] = table_loop_code(k, d, M)
                assert got.dtype == np.int64 and np.array_equal(got, codes[k, d, M][:n]), (n, d, M)
        assert nones > 0 and len(codes) > 100

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), d=st.integers(1, 4), M=st.integers(2, 4))
    def test_matches_brute_force(self, n, d, M):
        q_star, _ = brute_force_maximin(n, d, M, guard=10**12)
        r = optimize_maximin(n, d, M)
        assert r.q_star == q_star and r.certified
        assert min_pairwise_distance(r.design) >= q_star


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

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 6),
        d=st.integers(1, 4),
        M=st.integers(2, 3),
        seed=st.integers(0, 2**16),
    )
    def test_verdict_matches_brute_force(self, n, d, M, seed):
        # feasibility is monotone in q, so brute force's clique search
        # decides every q at once: feasible iff q <= its optimum
        q_star, _ = brute_force_maximin(n, d, M, guard=10**12)
        levels = np.random.default_rng(seed).integers(1, M + 1, size=(n, d))
        for q in range(d + 1):
            for warm in (None, design_from_array(levels, M)):
                rep = solve_feasibility(
                    FeasibilityInstance(n, d, M, q, warm_start=warm, seed=seed)
                )
                assert rep.status == (FEASIBLE if q <= q_star else INFEASIBLE), q
                if rep.status == FEASIBLE:
                    assert min_pairwise_distance(rep.design) >= q
