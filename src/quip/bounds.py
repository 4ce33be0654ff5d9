"""Combinatorial bounds for the maximin distance target.

Lower bounds (:func:`gilbert_q`, :func:`q0`) give a distance that an
n-point design always attains; the upper bound :func:`code_size_bound`
caps how many rows a design at a given distance can have, which rules a
distance target out without a search.

The upper bound's Plotkin term counts pairs exactly (Plotkin 1960, "Binary
codes with specified minimum distance", IRE Trans. IT-6): the pairwise
distances of n rows sum to at least C(n, 2)*q, and one column makes at
most C(n, 2) minus the agreeing pairs of balanced level counts differ. The
largest n passing that test is found by a scan that ends at the
real-valued Plotkin bound, which caps it. For binary designs at odd q the
parity extension A_2(d, q) = A_2(d+1, q+1) (MacWilliams & Sloane 1977,
"The Theory of Error-Correcting Codes", ch. 2) tightens it further.

All arithmetic is exact big-integer arithmetic: M**d overflows fixed-width
integers long before reaching interesting problem sizes, and a single
rounding error would invalidate the feasibility guarantee. Comparisons of
the form M**d / S >= n are therefore done cross-multiplied as M**d >= n*S.
"""

from __future__ import annotations

from math import comb


def hamming_ball(d: int, r: int, M: int) -> int:
    """Number of points within Hamming distance r of a fixed point in {1..M}^d."""
    return sum(comb(d, l) * (M - 1) ** l for l in range(r + 1))


def _validate(n: int, d: int, M: int) -> None:
    if n < 1 or d < 1 or M < 2:
        raise ValueError(f"need n >= 1, d >= 1, M >= 2, got ({n},{d},{M})")


def gilbert_q(n: int, d: int, M: int) -> int:
    """Largest k in {1..d} with M**d >= n * hamming_ball(d, k-1, M), else 0.

    Sphere-covering argument: while fewer than M**d / ball(k-1) points are
    placed, some lattice point lies at distance >= k from all of them, so
    any partial design extends greedily to n points at minimum distance k.
    The k=1 condition is exactly n <= M**d (enough distinct points); when
    even that fails, only distance 0 is guaranteed.
    """
    _validate(n, d, M)
    best = 0
    for k in range(1, d + 1):
        if M**d >= n * hamming_ball(d, k - 1, M):
            best = k
        else:
            break
    return best


def q0(n: int, d: int, M: int) -> int:
    """Distance value guaranteed feasible for an n-point design in {1..M}^d.

    Returns d when n <= M (witness: the constant rows (i, i, ..., i) are at
    mutual distance d), else the sphere-covering bound of :func:`gilbert_q`.
    When n > M the result is always <= d-1, matching the pigeonhole
    observation that two runs must then share a level in every factor.

    When n > M**d, no n distinct points exist and the function returns 0:
    only the duplicate-containing design is guaranteed.
    """
    _validate(n, d, M)
    if n <= M:
        return d
    return gilbert_q(n, d, M)


def _column_pairs(n: int, M: int) -> int:
    """Most pairs of n rows that one column with M levels can make differ:
    C(n, 2) minus the agreeing pairs of the balanced level counts (n = k*M
    + r gives r counts of k+1 and M-r counts of k)."""
    k, r = divmod(n, M)
    return comb(n, 2) - r * comb(k + 1, 2) - (M - r) * comb(k, 2)


def _plotkin(m: int, q: int, M: int) -> int:
    """Largest n with C(n, 2)*q <= m*P(n, M), an upper bound on A_M(m, q)
    for M*q > (M-1)*m; P is :func:`_column_pairs`."""
    cap = M * q // (M * q - (M - 1) * m)
    return max(n for n in range(1, cap + 1) if comb(n, 2) * q <= m * _column_pairs(n, M))


def code_size_bound(d: int, q: int, M: int) -> int:
    """Upper bound on A_M(d, q): rows of a design in {1..M}^d whose pairwise
    Hamming distances are all >= q, for q >= 1.

    The minimum of three classical bounds:

    - Singleton: M**(d-q+1) (delete q-1 columns; the rows stay distinct);
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
      so the scan stops there and A never exceeds it.

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
    best = min(M ** (d - q + 1), M**d // hamming_ball(d, (q - 1) // 2, M))
    for m in range(1, d + 1):
        if M * q > (M - 1) * m:
            best = min(best, M ** (d - m) * _plotkin(m, q, M))
    if M == 2 and q % 2 == 1:
        best = min(best, code_size_bound(d + 1, q + 1, 2))
    return best
