import itertools
from math import comb

import pytest

from quip.bounds import code_size_bound, gilbert_q, hamming_ball, q0
from quip.maximin import brute_force_maximin


class TestSphereSums:
    def test_hamming_ball(self):
        # full-space ball
        assert hamming_ball(4, 4, 3) == 3**4
        # r=1 ball in {1..2}^5: 1 + 5
        assert hamming_ball(5, 1, 2) == 6


class TestGilbertQ:
    def test_small(self):
        assert gilbert_q(2, 3, 2) == 2  # 8 >= 2*1 (k=1), 8 >= 2*4? no -> 2? check
        assert gilbert_q(11, 10, 10) == 8

    def test_greedy_witness(self):
        # sphere-covering guarantee: greedy construction at q=gilbert_q
        # never dead-ends (exhaustive over a small grid)
        import itertools

        import numpy as np

        for n, d, M in itertools.product(range(2, 6), range(2, 5), (2, 3)):
            q = gilbert_q(n, d, M)
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


class TestCodeSizeBound:
    @pytest.mark.parametrize("d, q, M, upper", [
        (7, 4, 2, 8),  # Plotkin
        (8, 7, 5, 11),  # Plotkin on the full length
        (8, 8, 9, 9),  # Singleton = Plotkin
        (4, 3, 3, 9),  # Singleton, sphere packing and Plotkin agree
        (4, 2, 2, 8),  # Singleton
        (5, 3, 2, 5),  # sphere packing beats Plotkin's 6
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
