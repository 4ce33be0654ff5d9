"""Combinatorial bounds for the maximin distance target.

The lower bound :func:`q0` is a distance that an n-point design always
attains; the upper bound :func:`code_size_bound` caps how many rows a
design at a given distance can have, which rules a distance target out
without a search, and :func:`q_upper` is the largest distance it leaves
open. The maximin optimum lies in [q0, q_upper].

The upper bound's Plotkin term counts pairs exactly (Plotkin 1960, "Binary
codes with specified minimum distance", IRE Trans. IT-6): the pairwise
distances of n rows sum to at least C(n, 2)*q, and one column makes at
most C(n, 2) minus the agreeing pairs of balanced level counts differ. The
largest n passing that test is found by a scan that starts at the
real-valued Plotkin bound, which caps it. For binary designs at odd q the
parity extension A_2(d, q) = A_2(d+1, q+1) (MacWilliams & Sloane 1977,
"The Theory of Error-Correcting Codes", ch. 2) tightens it further.

Every "largest value passing a test" here (:func:`q0`, :func:`q_upper`,
:func:`_plotkin`) is a scan downward from the top of its range that
returns the first value passing: the same value a `max` over the whole
filtered range gives, found without testing the values below it. The
shortened Plotkin term of :func:`code_size_bound` scans its length m
downward too and stops as soon as no shorter length can lower the
bound, which leaves the minimum unchanged (see there).

All arithmetic is exact big-integer arithmetic: M**d overflows fixed-width
integers long before reaching interesting problem sizes, and a single
rounding error would invalidate the feasibility guarantee. Comparisons of
the form M**d / S >= n are therefore done cross-multiplied as M**d >= n*S.
"""

from __future__ import annotations

from math import comb

from .encoding import check_int


def hamming_ball(d: int, r: int, M: int) -> int:
    """Number of points within Hamming distance r of a fixed point in {1..M}^d."""
    return sum(comb(d, l) * (M - 1) ** l for l in range(r + 1))


def _validate(n: int, d: int, M: int) -> None:
    check_int("n", n, 1)
    check_int("d", d, 1)
    check_int("M", M, 2)


def q0(n: int, d: int, M: int) -> int:
    """Distance value guaranteed feasible for an n-point design in {1..M}^d.

    Returns d when n <= M (witness: the constant rows (i, i, ..., i) are at
    mutual distance d). Otherwise returns the sphere-covering bound: the
    largest k in {1..d} with M**d >= n * hamming_ball(d, k-1, M), else 0.
    While fewer than M**d / ball(k-1) points are placed, some lattice point
    lies at distance >= k from all of them, so any partial design extends
    greedily to n points at minimum distance k. When n > M the result is
    always <= d-1, matching the pigeonhole observation that two runs must
    then share a level in every factor. The k=1 condition is exactly n <=
    M**d (enough distinct points); past it only the duplicate-containing
    design, at distance 0, is guaranteed.

    The scan runs k = d, d-1, ..., 1 and returns the first k passing. The
    ball shrinks along it from the whole lattice, ball(d) = M**d, by the
    C(d, k) * (M-1)**k points at distance exactly k.
    """
    _validate(n, d, M)
    if n <= M:
        return d
    size = ball = M**d
    for k in range(d, 0, -1):
        ball -= comb(d, k) * (M - 1) ** k  # hamming_ball(d, k - 1, M)
        if size >= n * ball:
            return k
    return 0


def _column_pairs(n: int, M: int) -> int:
    """Most pairs of n rows that one column with M levels can make differ:
    C(n, 2) minus the agreeing pairs of the balanced level counts (n = k*M
    + r gives r counts of k+1 and M-r counts of k)."""
    k, r = divmod(n, M)
    return comb(n, 2) - r * comb(k + 1, 2) - (M - r) * comb(k, 2)


def _plotkin(m: int, q: int, M: int) -> int:
    """Largest n with C(n, 2)*q <= m*P(n, M), an upper bound on A_M(m, q)
    for M*q > (M-1)*m; P is :func:`_column_pairs`. Scans down from the
    real-valued Plotkin bound, which no larger n passes; n = 1 always
    passes (C(1, 2) = 0), so the scan returns."""
    cap = M * q // (M * q - (M - 1) * m)
    n = cap
    while comb(n, 2) * q > m * _column_pairs(n, M):
        n -= 1
    return n


def code_size_bound(d: int, q: int, M: int) -> int:
    """Upper bound on A_M(d, q): rows of a design in {1..M}^d whose pairwise
    Hamming distances are all >= q, for q >= 1.

    The minimum of two classical bounds:

    - sphere packing: balls of radius (q-1)//2 around the rows are disjoint;
    - Plotkin on a shortened code: for every m <= d with M*q > (M-1)*m,
      M**(d-m) * A, where A bounds the rows at length m. Keeping the rows
      with the most common level of a column and deleting it loses at most
      a factor M of the rows. A is Plotkin's (1960) averaging argument in
      integers: n rows at pairwise distance >= q have pair distances summing
      to at least C(n, 2)*q, and one column makes at most P(n, M) pairs
      differ (:func:`_column_pairs`), so C(n, 2)*q <= m*P(n, M). A is the
      largest n passing this test. Since P(n, M) <= n**2*(M-1)/(2*M), no n
      above M*q // (M*q - (M-1)*m) passes (the real-valued Plotkin bound),
      so the scan starts there and A never exceeds it.

    The lengths m run downward from the largest with M*q > (M-1)*m,
    min(d, (M*q - 1) // (M - 1)), and the scan stops at the first m with
    M**(d-m) >= best, the bound so far. The stop is exact: A >= 1, so that
    m's term is at least M**(d-m) >= best, and each shorter m has a
    larger factor M**(d-m), so no term left could lower the minimum.

    The shortened Plotkin term at m = q-1 is Singleton's bound M**(d-q+1)
    (delete q-1 columns; the rows stay distinct), so it needs no term of
    its own: for q >= 2, M*q > (M-1)*(q-1) always holds and two rows
    cannot differ in q of q-1 columns, so A = 1; for q = 1, m = 1 gives
    M**(d-1) * M.

    For M = 2 and odd q, the binary parity extension also applies: a parity
    column turns every distance of exactly q into q+1, so A_2(d, q) =
    A_2(d+1, q+1) (MacWilliams & Sloane 1977, ch. 2).

    For q > d at most one row fits. For q <= 0 no bound exists (rows may
    repeat), so the call is rejected.
    """
    if d < 1 or M < 2:
        raise ValueError(f"need d >= 1, M >= 2, got d={d}, M={M}")
    if q < 1:
        raise ValueError(f"no bound on the rows at distance q={q} < 1: rows may repeat")
    if q > d:
        return 1
    best = M**d // hamming_ball(d, (q - 1) // 2, M)
    for m in range(min(d, (M * q - 1) // (M - 1)), 0, -1):
        scale = M ** (d - m)
        if scale >= best:
            break
        best = min(best, scale * _plotkin(m, q, M))
    if M == 2 and q % 2 == 1:
        best = min(best, code_size_bound(d + 1, q + 1, 2))
    return best


def q_upper(n: int, d: int, M: int) -> int:
    """Largest q in {1..d} with code_size_bound(d, q, M) >= n, else 0.

    No n-point design in {1..M}^d has minimum distance above q_upper, so
    the maximin optimum q* lies in [q0, q_upper], and a witness at q_upper
    is optimal with no further solve.

    The scan runs q = d, d-1, ..., 1 and returns the first q whose bound
    admits n rows: the largest such q, as a max over the whole range
    would give, with no bound computed for the q below it.
    """
    _validate(n, d, M)
    for q in range(d, 0, -1):
        if code_size_bound(d, q, M) >= n:
            return q
    return 0
