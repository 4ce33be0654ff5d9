"""Exact maximin initial designs via iterated feasibility solves.

The feasibility question "does an n-point design in {1..M}^d with minimum
pairwise Hamming distance >= q exist?" is answered by a two-phase solver:

1. one cheap seeded heuristic that can only prove feasibility: repair of
   the warm start, or of a seeded random start when there is none, and
2. a complete depth-first backtracking search over canonical designs that
   certifies infeasibility by exhaustion.

The maximin driver raises q while a witness exists. Its optimum q* is
certified either by a bound (q* reaches :func:`quip.bounds.q_upper`, so
:func:`quip.bounds.code_size_bound` admits fewer than n rows at distance
q*+1 and no solve is needed) or by exhaustion (the solve at q*+1 is
infeasible). The bound counts the pairs one column can make differ
exactly and applies the binary parity extension, so exhaustion is rare:
it decides only where the bound is loose, and no instance of the
benchmark suite needs it.

Before the ascent, a code phase tries a witness from a structured linear
code over GF(M) (prime M, or M = 4, 8, 9): simplex and repeated PG(1, M)
codes, first-order Reed-Muller and Reed-Solomon codes, and the parity
code; for n <= M, the repetition code, for any M. It needs no search and
no random draw. When the best code reaches q_upper it settles the
instance; when it only beats q0, the ascent starts above it, warm-started
from its codewords.

The complete search assigns one cell at a time (row-major) and breaks the
problem's symmetries -- row permutations and independent per-column level
relabelings -- by restricting to canonical matrices: rows in non-decreasing
lexicographic order, and within each column a level k+1 may appear only
after level k has appeared above it. Every orbit of the symmetry group
contains its lexicographically minimal matrix, which satisfies both
restrictions, so the restriction is sound for infeasibility certificates.

Both inner loops run on Python ints, not on numpy arrays of 1-12 elements,
whose call overhead dominated. The complete search keeps rows as lists and
sets of rows as bitmasks: per-column level masks over the completed rows,
and per-frame slack buckets that prune a level with one AND. Repair holds
each row as a one-hot int, so two rows share `(a & b).bit_count()`
columns. The search runs about 1.4M nodes/s on a 2-core machine (about
0.21M with numpy rows) and visits the same nodes in the same order.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .bounds import q0, q_upper
from .encoding import (
    Design,
    design_from_array,
    lattice_array,
    lattice_distances,
    min_pairwise_distance,
)
from .encoding import TooLargeError, check_int, check_time_limit  # TooLargeError: re-exported

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
TIME_LIMIT = "time_limit"

BOUND = "bound"
EXHAUSTION = "exhaustion"


class InvalidDistanceError(ValueError):
    """Requested distance q outside {0..d}."""


@dataclass(frozen=True)
class FeasibilityInstance:
    n: int
    d: int
    M: int
    q: int
    time_limit: float | None = None
    warm_start: Design | None = None
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n", 1), ("d", 1), ("M", 2)):
            check_int(name, getattr(self, name), low)
        if not 0 <= self.q <= self.d:
            raise InvalidDistanceError(f"q={self.q} outside 0..{self.d}")
        check_int("q", self.q, 0)
        check_time_limit(self.time_limit)
        check_int("seed", self.seed, 0)
        ws = self.warm_start
        if ws is not None and (ws.n, ws.d, ws.M) != (self.n, self.d, self.M):
            raise ValueError("warm start shape does not match instance")


@dataclass(frozen=True)
class SolveReport:
    status: str  # FEASIBLE | INFEASIBLE | TIME_LIMIT
    design: Design | None
    q: int
    nodes_explored: int
    elapsed: float
    # which phase decided it: "repair", "search", or "code" for
    # optimize_maximin's linear-code witness
    phase: str = "search"


@dataclass(frozen=True)
class MaximinResult:
    design: Design
    q_star: int
    # BOUND | EXHAUSTION; None when a time limit left q_star a lower bound only
    certificate: str | None
    trace: tuple[SolveReport, ...] = field(default=())

    @property
    def certified(self) -> bool:
        return self.certificate is not None


def _report(
    arr: np.ndarray, M: int, q: int, nodes: int, t0: float, phase: str
) -> SolveReport:
    D = design_from_array(arr, M)
    return SolveReport(FEASIBLE, D, q, nodes, time.perf_counter() - t0, phase)


def _expired(deadline: float | None) -> bool:
    return deadline is not None and time.perf_counter() > deadline


def _repair(
    arr: np.ndarray, M: int, q: int, rng: np.random.Generator, deadline: float | None
) -> bool:
    """Bounded single-cell local search lifting `arr` to min distance >= q.

    Each row is held as a one-hot int with bit j*M + v - 1 set for level v
    in column j, so two rows share `(a & b).bit_count()` columns. `short[b]`
    is the bitmask of rows a < b closer than q to row b. Each move takes the
    first such pair in row-major order (the lowest b with a nonzero mask and
    that mask's lowest bit a), moves one cell of row b off row a's level and
    updates row and column b. Mutates arr in place; budget of 10*n*d moves,
    cut short at the deadline. Returns True on success.
    """
    n, d = arr.shape
    most = d - q  # rows sharing more columns than this are closer than q
    level_bits = (1 << M) - 1  # the M bits of one column
    codes = [sum(1 << (j * M + v - 1) for j, v in enumerate(r)) for r in arr.tolist()]

    def short_below(b: int) -> int:
        cb = codes[b]
        return sum(1 << r for r in range(b) if (codes[r] & cb).bit_count() > most)

    short = [short_below(b) for b in range(n)]
    b = 0
    for _ in range(10 * n * d):
        # a move changes only row b, so no earlier row becomes short again
        while b < n and not short[b]:
            b += 1
        if b == n:
            return True
        if _expired(deadline):
            return False
        a = (short[b] & -short[b]).bit_length() - 1
        common = codes[a] & codes[b]
        eq_cols = [j for j in range(d) if common >> (j * M) & level_bits]
        j = eq_cols[int(rng.integers(len(eq_cols)))]
        old = int(arr[b, j])
        choices = [v for v in range(1, M + 1) if v != old]
        new = choices[int(rng.integers(len(choices)))]
        arr[b, j] = new
        cb = codes[b] ^ (1 << (j * M + old - 1)) ^ (1 << (j * M + new - 1))
        codes[b] = cb
        short[b] = short_below(b)
        bit = 1 << b
        for c in range(b + 1, n):
            if (codes[c] & cb).bit_count() > most:
                short[c] |= bit
            else:
                short[c] &= ~bit
    return False


def _canonicalize(arr: np.ndarray) -> np.ndarray:
    """Map a design to its symmetry-canonical form: relabel each column by
    first occurrence, then sort rows lexicographically (iterated to a
    fixed point, bounded)."""
    cur = arr.copy()
    for _ in range(8):
        nxt = cur.copy()
        for j in range(cur.shape[1]):
            remap: dict[int, int] = {}
            for v in cur[:, j]:
                if int(v) not in remap:
                    remap[int(v)] = len(remap) + 1
            nxt[:, j] = [remap[int(v)] for v in cur[:, j]]
        order = np.lexsort(nxt.T[::-1])
        nxt = nxt[order]
        if np.array_equal(nxt, cur):
            break
        cur = nxt
    return cur


def _complete_search(
    inst: FeasibilityInstance, hint: np.ndarray | None, deadline: float | None
) -> tuple[np.ndarray | None, int, bool]:
    """Depth-first complete search over canonical designs that tries each
    cell's hinted level first. Returns the witness (None when there is none
    or the deadline stopped the search), the nodes visited, and whether the
    deadline stopped it.

    Rows are Python lists and sets of rows are Python-int bitmasks over row
    indices. `eq[j][v]` is the set of completed rows with level v in column
    j. The frame of cell (i, j) holds slack buckets S: S[k] is the set of
    rows r < i whose pair slack mism + (d - j) - q equals k, where mism
    counts the columns < j in which row i already differs from row r. Level
    v at (i, j) drops the rows of E = eq[j][v] one bucket, so it is pruned
    iff S[0] & E is nonzero.

    The search descends one cell per level, so it keeps its frames on an
    explicit stack: a design of n rows is (n-1)*d cells deep, past Python's
    recursion limit for a few hundred rows.
    """
    n, d, M, q = inst.n, inst.d, inst.M, inst.q
    hint = None if hint is None else hint.tolist()
    # row 0 is all-ones by value precedence; distance constraints
    # involve no pair yet.
    grid = [[1] * d] + [[0] * d for _ in range(n - 1)]
    maxused = [1] * d  # max level used so far per column (value precedence)
    eq = [[0, 1] + [0] * (M - 1) for _ in range(d)]
    top = d - q  # the slack of every pair at the start of a row

    def frame(i: int, j: int, S: tuple, tight: bool) -> tuple:
        """Search state for cell (i, j). `tight` means the row-i prefix
        equals the row-(i-1) prefix so far. The frame keeps the iterator
        over the levels still to try and column j's max level on entry,
        restored before each level is tried."""
        lo = grid[i - 1][j] if tight else 1
        hi = min(M, maxused[j] + 1)
        values = range(lo, hi + 1)
        if hint is not None:
            h = hint[i][j]
            if lo <= h <= hi:
                values = [h] + [v for v in values if v != h]
        return i, j, S, tight, lo, iter(values), maxused[j]

    nodes = 0
    stack = [frame(1, 0, (0,) * top + (1,), True)]
    while stack:
        i, j, S, tight, lo, values, old_max = stack[-1]
        maxused[j] = old_max
        row, eqj, S0 = grid[i], eq[j], S[0]
        for v in values:
            nodes += 1
            if nodes % 256 == 0 and _expired(deadline):
                return None, nodes, True
            E = eqj[v]
            if S0 & E:
                continue
            row[j] = v
            if v > old_max:
                maxused[j] = v
            if j + 1 < d:
                if E:  # the rows sharing level v lose one column of slack
                    keep = ~E
                    S = tuple([(a & keep) | (b & E) for a, b in zip(S, S[1:])]
                              + [S[-1] & keep])
                stack.append(frame(i, j + 1, S, tight and v == lo))
            elif i + 1 < n:
                bit = 1 << i
                for jj, u in enumerate(row):
                    eq[jj][u] |= bit
                stack.append(frame(i + 1, 0, (0,) * top + ((bit << 1) - 1,), True))
            else:
                return np.array(grid, dtype=np.int64), nodes, False
            break
        else:
            stack.pop()
            if j == 0:  # row i-1 is no longer complete
                drop = ~(1 << (i - 1))
                for jj, u in enumerate(grid[i - 1]):
                    eq[jj][u] &= drop
    return None, nodes, False


def solve_feasibility(inst: FeasibilityInstance) -> SolveReport:
    """Decide whether a design with min pairwise distance >= q exists.

    FEASIBLE reports carry a witness design; INFEASIBLE is certified by
    exhaustion of the complete search and is never emitted after a
    time-limit abort. The time limit covers the whole solve: repair of the
    warm start, or of a seeded random start when there is none, stops at
    the deadline, and so does the complete search.
    """
    t0 = time.perf_counter()
    deadline = t0 + inst.time_limit if inst.time_limit is not None else None
    n, d, M, q = inst.n, inst.d, inst.M, inst.q
    rng = np.random.default_rng(
        np.random.SeedSequence([inst.seed, n, d, M, q, 0x51D]).generate_state(4)
    )

    # Phase 1: repair of the warm start, else of a random start.
    warm = inst.warm_start
    arr = rng.integers(1, M + 1, size=(n, d)) if warm is None else warm.as_array().copy()
    if _repair(arr, M, q, rng, deadline):
        return _report(arr, M, q, 0, t0, "repair")

    # Phase 2: complete search with symmetry breaking, hinted by the warm start.
    hint = None if warm is None else _canonicalize(warm.as_array())
    witness, nodes, timed_out = _complete_search(inst, hint, deadline)
    if witness is not None:
        return _report(witness, M, q, nodes, t0, "search")
    status = TIME_LIMIT if timed_out else INFEASIBLE
    return SolveReport(status, None, q, nodes, time.perf_counter() - t0)


# GF(p**e) for the prime powers below 10: p and the lower coefficients
# c_0..c_{e-1} of a monic primitive modulus, so x**e = -(c_0 + ... +
# c_{e-1} x**(e-1)): x^2+x+1, x^3+x+1 and x^2+x+2
_MODULI = {4: (2, (1, 1)), 8: (2, (1, 1, 0)), 9: (3, (2, 1))}


@functools.cache
def _field(M: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Read-only M x M addition and multiplication tables of GF(M) on the
    elements 0..M-1, or None when the code phase has no field of order M.

    A prime M is arithmetic mod M. An element of GF(p**e) is the integer
    whose base-p digits are its coefficients in powers of x; the product
    a*b sums b's digit i times a*x**i, where multiplying by x shifts the
    digits up and reduces x**e by the modulus."""
    if M in _MODULI:
        p, low = _MODULI[M]
    elif all(M % f for f in range(2, isqrt(M) + 1)):
        p, low = M, (0,)
    else:
        return None
    e = len(low)
    weights = p ** np.arange(e)
    digits = np.arange(M)[:, None] // weights % p  # M x e
    powers = [digits]  # powers[i][a] holds the digits of a*x**i
    for _ in range(e - 1):
        c = powers[-1]
        up = np.concatenate([np.zeros_like(c[:, :1]), c[:, :-1]], axis=1)
        powers.append((up - c[:, -1:] * np.array(low)) % p)
    add = (digits[:, None, :] + digits[None, :, :]) % p @ weights
    mul = np.einsum("bi,iak->abk", digits, np.array(powers)) % p @ weights
    add.flags.writeable = mul.flags.writeable = False
    return add, mul


def _code_witness(n: int, d: int, M: int) -> np.ndarray | None:
    """Levels of n codewords of a linear [d, k] code over GF(M), with k the
    least such that M**k >= n, or None when k > d or when k > 1 and M is
    not a field order: for n <= M, k = 1 gives the repetition code, whose
    codewords m*(1, ..., 1) need no field.

    Three generator matrices are tried, each a list of columns cycled over
    the d factors (MacWilliams & Sloane 1977, ch. 1):

    - the points of PG(k-1, M) (first nonzero coordinate 1), unit vectors
      first, then by decreasing weight: the simplex code, and for k = 2
      the balanced repetition of PG(1, M), whose nonzero codewords each
      vanish on one point;
    - the affine points, last coordinate 1: first-order Reed-Muller and,
      for k = 2, Reed-Solomon codes;
    - the unit vectors and the all-ones column: the parity code.

    The code with the largest minimum nonzero weight is kept, and the
    codewords of its first n messages in lexicographic order, plus 1, are
    returned. Their pairwise distances are weights of nonzero codewords.

    The messages are `lattice_array(k, M) - 1`, the rows of
    `itertools.product(range(M), repeat=k)` in the same order: row r holds
    the base-M digits of r. Every generator column is a message and is
    picked by its row: the rows M**i .. 2*M**i - 1 are those whose first
    nonzero digit is 1 (the points of PG(k-1, M), in lexicographic order
    over i = 0..k-1), the rows r = 1 mod M those whose last digit is 1,
    row M**(k-1-j) is the unit vector e_j and row (M**k - 1) // (M - 1)
    the all-ones message. The points are sorted stably, so ties of weight
    keep lexicographic order.

    The three codes are encoded side by side, and the first of the largest
    minimum weight is kept, as trying them in turn and keeping only a
    strictly larger weight would. For a prime M the field is arithmetic
    mod M, and so is the repetition code at any M, so the codewords are one
    integer product `msgs @ G % M`, exact since no entry of `msgs @ G`
    exceeds k*(M-1)**2; GF(4), GF(8) and GF(9) add up the rows of G through
    the `_field` tables."""
    tables = _field(M)
    k = 1
    while M**k < n:
        k += 1
    if k > d or (tables is None and k > 1):
        return None
    msgs = lattice_array(k, M) - 1
    weight = np.count_nonzero(msgs, axis=1).tolist()
    points = sorted(
        (r for i in range(k) for r in range(M**i, 2 * M**i)),
        key=lambda r: (weight[r] != 1, -weight[r]),
    )
    affine = range(1, M**k, M)
    parity = [M ** (k - 1 - j) for j in range(k)] + [(M**k - 1) // (M - 1)]
    # the three generator matrices side by side, d columns each
    G = msgs[[c[j % len(c)] for c in (points, affine, parity) for j in range(d)]].T
    if M in _MODULI:
        add, mul = tables
        words = np.zeros((len(msgs), 3 * d), dtype=np.int64)
        for i in range(k):
            words = add[words, mul[msgs[:, i, None], G[i]]]
    else:
        words = msgs @ G % M
    words = words.reshape(len(msgs), 3, d)
    best = int(np.count_nonzero(words[1:], axis=2).min(axis=0).argmax())
    return words[:n, best] + 1


def optimize_maximin(
    n: int,
    d: int,
    M: int,
    time_limit: float | None = None,
    seed: int = 0,
) -> MaximinResult:
    """Maximin design driver: find a witness at the guaranteed-feasible
    distance q0(n, d, M) or above, then raise the target by one
    (warm-starting from the last witness) up to q_upper(n, d, M), the
    largest distance code_size_bound leaves open.

    When n <= M, or M is the order of a supported field (a prime, 4, 8 or
    9), a code phase runs first: a deterministic linear-code witness
    (:func:`_code_witness`), checked by min_pairwise_distance. At q_upper
    (also when q_upper == q0) it settles the instance with no solve; above
    q0 its report replaces the q0 solve and the ascent starts one above it;
    otherwise it is dropped and the ascent starts at q0 with a cold solve.

    The ascent ends with a certificate: "bound" when the witness reaches
    q_upper, so code_size_bound rules q_star+1 out (this covers q_star = d,
    and the pigeonhole cap q_star <= d-1 for n > M, which is the shortened
    Plotkin bound at m = q-1 (Singleton) with q = d), "exhaustion" when the
    bound is loose there and the feasibility solve at q_star+1 is
    infeasible. Each feasibility solve gets the time left; when a solve
    times out, or none is left to start the next, the incumbent design is
    returned with certificate None (certified False): q_star is then only
    a lower bound. With no incumbent yet, that is a TimeoutError.
    """
    if n < 2:
        raise ValueError("optimize_maximin needs n >= 2")
    check_time_limit(time_limit)
    check_int("seed", seed, 0)  # also when the code phase settles it with no draw
    deadline = time.perf_counter() + time_limit if time_limit is not None else None
    low, top = q0(n, d, M), q_upper(n, d, M)
    trace, best, q_star, certificate = [], None, low - 1, BOUND
    t0 = time.perf_counter()
    arr = _code_witness(n, d, M)
    if arr is not None:
        D = design_from_array(arr, M)
        q = min_pairwise_distance(D)
        if q > low or q == top:
            trace.append(SolveReport(FEASIBLE, D, q, 0, time.perf_counter() - t0, "code"))
            best, q_star = D, q
    # q0 <= q_upper (a bound admits the rows q0 guarantees), so without a
    # code witness the first pass is the cold q0 solve
    for qt in range(q_star + 1, top + 1):
        left = None if deadline is None else deadline - time.perf_counter()
        if left is not None and left <= 0:
            status = TIME_LIMIT  # no time left: start no solve
        else:
            rep = solve_feasibility(
                FeasibilityInstance(n, d, M, qt, time_limit=left, warm_start=best, seed=seed)
            )
            trace.append(rep)
            status = rep.status
        if status == FEASIBLE:
            best, q_star = rep.design, qt
        elif best is None and status == TIME_LIMIT:
            raise TimeoutError(
                f"feasibility solve at the guaranteed distance q0={qt} timed out"
            )
        elif best is None:
            # q0 is feasible by construction: d when n <= M (the code
            # phase settles it), 0 when n > M**d (repair makes no move), else
            # the sphere-covering bound, so this verdict would mean the
            # complete search is unsound
            raise RuntimeError(
                f"feasibility solve reported the guaranteed distance q0={qt} infeasible"
            )
        elif status == INFEASIBLE:
            certificate = EXHAUSTION
            break
        else:  # time limit: no infeasibility claim is made
            certificate = None
            break
    return MaximinResult(best, q_star, certificate, tuple(trace))


def brute_force_maximin(
    n: int, d: int, M: int, guard: int = 10**8
) -> tuple[int, Design]:
    """Exact maximin optimum, independent of the feasibility solver.

    Tries distance targets q = d, d-1, ... and searches for n lattice
    points that are pairwise at distance >= q (a clique in the distance-q
    graph, found by depth-first search with candidate-set filtering over
    increasing indices). The first point is pinned to the all-ones corner,
    which is sound because per-column level relabeling maps any design
    point there without changing distances. If no clique exists even at
    q = 1 (n exceeds the lattice), the duplicate design at q = 0 remains.
    """
    from math import comb

    lattice = M**d
    if comb(lattice + n - 1, n) > guard:
        raise TooLargeError(
            f"enumeration for (n={n}, d={d}, M={M}) exceeds guard"
        )
    pts, dist = lattice_distances(d, M)

    chosen: list[int] = []

    def rec(cand: np.ndarray, q: int) -> bool:
        if len(chosen) == n:
            return True
        if len(chosen) + cand.size < n:
            return False
        for i in range(cand.size):
            idx = int(cand[i])
            rest = cand[i + 1 :]
            chosen.append(idx)
            if rec(rest[dist[idx, rest] >= q], q):
                return True
            chosen.pop()
        return False

    for q in range(d, 0, -1):
        chosen.clear()
        chosen.append(0)
        first = np.arange(1, lattice)
        if rec(first[dist[0, first] >= q], q):
            return q, design_from_array(pts[chosen], M)
    return 0, design_from_array(pts[[0] * n], M)
