import itertools
from math import comb

import pytest

from quip.bounds import _column_pairs, code_size_bound, hamming_ball, q0, q_upper
from quip.maximin import brute_force_maximin


class TestSphereSums:
    def test_hamming_ball(self):
        # full-space ball
        assert hamming_ball(4, 4, 3) == 3**4
        # r=1 ball in {1..2}^5: 1 + 5
        assert hamming_ball(5, 1, 2) == 6


class TestSphereCovering:
    def test_small(self):
        # 10**10 >= 11 * ball(10, 7, 10) but not 11 * ball(10, 8, 10)
        assert q0(11, 10, 10) == 8

    def test_greedy_witness(self):
        # q0's guarantee: greedy construction at q = q0 never dead-ends
        # (exhaustive over a small grid); for n <= M, q0 = d, and a greedy
        # draw at distance d never dead-ends either
        import itertools

        import numpy as np

        for n, d, M in itertools.product(range(2, 6), range(2, 5), (2, 3)):
            q = q0(n, d, M)
            if q == 0:
                continue  # overfull lattice: nothing to extend
            pts = np.array(
                list(itertools.product(range(1, M + 1), repeat=d)), dtype=int
            )
            rows = [pts[0]]
            while len(rows) < n:
                dist = (pts[:, None, :] != np.array(rows)[None, :, :]).sum(axis=2)
                ok = np.nonzero(dist.min(axis=1) >= q)[0]
                assert ok.size > 0, (n, d, M, q)
                rows.append(pts[ok[0]])


class TestQ0:
    def test_constant_rows_regime(self):
        assert q0(5, 7, 5) == 7  # n <= M: constant rows at distance d

    def test_pigeonhole_regime(self):
        # n > M forces two rows to agree somewhere in every factor
        assert q0(11, 10, 10) <= 9

    def test_saturated_lattice(self):
        # more points than the lattice holds: only duplicates remain
        assert q0(100, 2, 2) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            q0(0, 3, 2)
        with pytest.raises(ValueError):
            q0(3, 3, 1)

    @pytest.mark.parametrize("args, name", [((4, 3, 2.5), "M"), ((4.0, 3, 2), "n"),
                                            ((4, True, 2), "d")])
    def test_non_integer_named(self, args, name):
        # q0(4, 3, 2.5) used to return 1, and d=True counted as d = 1
        with pytest.raises(ValueError, match=f"^{name}=.* must be an int"):
            q0(*args)


class TestCodeSizeBound:
    @pytest.mark.parametrize("d, q, M, upper", [
        (7, 4, 2, 8),  # Plotkin
        # Plotkin on the full length, counting pairs: one column makes at
        # most C(11, 2) - 3 - 4*1 = 48 of 11 rows' pairs differ, and
        # 55*7 = 385 > 8*48; for 10 rows 45*7 = 315 <= 8*40. The
        # real-valued Plotkin bound gives 35 // 3 = 11.
        (8, 7, 5, 10),
        (8, 8, 9, 9),  # shortened Plotkin at m = q-1 (Singleton) = Plotkin
        # shortened Plotkin at m = q-1 (Singleton), sphere packing and
        # Plotkin agree
        (4, 3, 3, 9),
        (4, 2, 2, 8),  # shortened Plotkin at m = q-1 (Singleton)
        # counting pairs on 4 columns: 3*3 = 9 > 4*2 rules out 3 rows, so
        # A_2(5, 3) <= 2 * 2 = 4 (the parity extension A_2(6, 4) <= 4
        # agrees: 6*4 <= 6*4, and 5 rows exceed the cap 8 // 2); sphere
        # packing gives 32 // 6 = 5
        (5, 3, 2, 4),
        # parity extension: A_2(9, 5) = A_2(10, 6) <= 6 (15*6 <= 10*9,
        # and 7 rows exceed the cap 12 // 2), where counting pairs on 9
        # columns alone gives 8
        (9, 5, 2, 6),
        (8, 7, 3, 3),  # counting pairs: 6*7 = 42 > 8*5 rules out 4 rows
        (6, 5, 3, 4),  # counting pairs: 10*5 = 50 > 6*8 rules out 5 rows
        (5, 1, 3, 3**5),  # distinct rows: the whole lattice
        (4, 5, 3, 1),  # q > d: two rows differ in at most d columns
        (1, 2, 2, 1),
    ])
    def test_classical_values(self, d, q, M, upper):
        assert code_size_bound(d, q, M) == upper

    def test_at_least_the_true_code_size(self):
        # n rows at the brute-force optimum q* exist, so A_M(d, q*) >= n
        checked = 0
        for n, d, M in itertools.product(range(2, 10), range(1, 6), (2, 3, 4)):
            if comb(M**d + n - 1, n) > 10**8:
                continue  # past brute_force_maximin's guard
            q, _ = brute_force_maximin(n, d, M)
            if q >= 1:
                assert code_size_bound(d, q, M) >= n, (n, d, M, q)
                checked += 1
        assert checked >= 50

    def test_never_above_the_real_valued_formula(self):
        # the minimum of Singleton, sphere packing and the real-valued
        # shortened Plotkin bound, as code_size_bound was before counting
        # pairs and the parity extension
        def real_valued(d, q, M):
            best = min(M ** (d - q + 1), M**d // hamming_ball(d, (q - 1) // 2, M))
            for m in range(1, d + 1):
                slack = M * q - (M - 1) * m
                if slack > 0:
                    best = min(best, M ** (d - m) * (M * q // slack))
            return best

        for d, M in itertools.product(range(1, 13), range(2, 10)):
            for q in range(1, d + 1):
                assert code_size_bound(d, q, M) <= real_valued(d, q, M), (d, q, M)

    def test_nonincreasing_in_q(self):
        # so the ascent's first q with fewer than n rows is its ceiling
        for d, M in itertools.product(range(1, 13), range(2, 10)):
            sizes = [code_size_bound(d, q, M) for q in range(1, d + 2)]
            assert sizes == sorted(sizes, reverse=True), (d, M)

    def test_nonpositive_distance_has_no_bound(self):
        # rows may repeat at q <= 0: any number of them fits
        for q in (0, -1):
            with pytest.raises(ValueError, match="rows may repeat"):
                code_size_bound(4, q, 2)

    def test_validation(self):
        with pytest.raises(ValueError):
            code_size_bound(0, 1, 2)
        with pytest.raises(ValueError):
            code_size_bound(3, 1, 1)


def _max_q0(n, d, M):
    # q0 as a max over the whole filtered range: the reference for its
    # downward scan
    if n <= M:
        return d
    return max((k for k in range(1, d + 1) if M**d >= n * hamming_ball(d, k - 1, M)), default=0)


def _max_plotkin(m, q, M):
    cap = M * q // (M * q - (M - 1) * m)
    return max(n for n in range(1, cap + 1) if comb(n, 2) * q <= m * _column_pairs(n, M))


def _ascending_code_size_bound(d, q, M):
    # every shortened length m from 1 up, each with a max scan: the
    # reference for the early-exit downward scan
    if q > d:
        return 1
    best = M**d // hamming_ball(d, (q - 1) // 2, M)
    for m in range(1, d + 1):
        if M * q > (M - 1) * m:
            best = min(best, M ** (d - m) * _max_plotkin(m, q, M))
    if M == 2 and q % 2 == 1:
        best = min(best, _ascending_code_size_bound(d + 1, q + 1, 2))
    return best


class TestScansMatchFullRanges:
    def test_code_size_bound(self):
        for d, M in itertools.product(range(1, 17), range(2, 13)):
            for q in range(1, d + 1):
                assert code_size_bound(d, q, M) == _ascending_code_size_bound(d, q, M), (d, q, M)

    def test_q0(self):
        for n, d, M in itertools.product(range(1, 41), range(1, 11), range(2, 10)):
            assert q0(n, d, M) == _max_q0(n, d, M), (n, d, M)


class TestQUpper:
    def test_matches_the_largest_open_distance(self):
        # the expression `quip bound` computed inline before q_upper existed
        for n, d, M in itertools.product(range(1, 41), range(1, 11), range(2, 10)):
            old = max((q for q in range(1, d + 1) if code_size_bound(d, q, M) >= n), default=0)
            assert q_upper(n, d, M) == old, (n, d, M)

    def test_validation(self):
        with pytest.raises(ValueError):
            q_upper(0, 3, 2)

    @pytest.mark.parametrize("args, name", [((4, 3, 2.5), "M"), ((4.0, 3, 2), "n"),
                                            ((4, 3.0, 2), "d")])
    def test_non_integer_named(self, args, name):
        # q_upper(4.0, 3, 2) used to return 2; a float d or M failed inside
        # range() or comb() with a bare TypeError
        with pytest.raises(ValueError, match=f"^{name}=.* must be an int"):
            q_upper(*args)
