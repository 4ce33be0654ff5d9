"""Combinatorial lower bounds for the feasibility-program distance target.

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
