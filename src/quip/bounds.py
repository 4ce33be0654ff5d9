"""Combinatorial bounds for the maximin distance target.

Lower bounds (:func:`gilbert_q`, :func:`q0`) give a distance that an
n-point design always attains; the upper bound :func:`code_size_bound`
caps how many rows a design at a given distance can have, which rules a
distance target out without a search.

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


def code_size_bound(d: int, q: int, M: int) -> int:
    """Upper bound on A_M(d, q): rows of a design in {1..M}^d whose pairwise
    Hamming distances are all >= q, for q >= 1.

    The minimum of three classical bounds:

    - Singleton: M**(d-q+1) (delete q-1 columns; the rows stay distinct);
    - sphere packing: balls of radius (q-1)//2 around the rows are disjoint;
    - Plotkin on a shortened code: for every m <= d with M*q > (M-1)*m,
      M**(d-m) * (M*q // (M*q - (M-1)*m)). Keeping the rows with the most
      common level of a column and deleting it loses at most a factor M of
      the rows; Plotkin's averaging argument bounds the rest at length m.

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
        slack = M * q - (M - 1) * m
        if slack > 0:
            best = min(best, M ** (d - m) * (M * q // slack))
    return best
