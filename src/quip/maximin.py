"""Exact maximin initial designs via iterated feasibility solves.

The feasibility question "does an n-point design in {1..M}^d with minimum
pairwise Hamming distance >= q exist?" is answered by a two-phase solver:

1. one cheap seeded heuristic that can only prove feasibility: repair of
   the warm start when there is one, else randomized greedy row
   construction, and
2. a complete depth-first backtracking search over canonical designs that
   certifies infeasibility by exhaustion.

The maximin driver raises q while a witness exists. Its optimum q* is
certified either by a bound (:func:`quip.bounds.code_size_bound` admits
fewer than n rows at distance q*+1, so no solve is needed) or by
exhaustion (the solve at q*+1 is infeasible). The bound counts the pairs
one column can make differ exactly and applies the binary parity
extension, so exhaustion is rare: it decides only where the bound is
loose, and no instance of the benchmark suite needs it.

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

import time
from dataclasses import dataclass, field

import numpy as np

from .bounds import code_size_bound, q0
from .encoding import Design, design_from_array, lattice_distances
from .encoding import TooLargeError, check_time_limit  # TooLargeError: re-exported

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
        if self.n < 1 or self.d < 1 or self.M < 2:
            raise ValueError(f"bad instance ({self.n},{self.d},{self.M})")
        if not 0 <= self.q <= self.d:
            raise InvalidDistanceError(f"q={self.q} outside 0..{self.d}")
        check_time_limit(self.time_limit)
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
    # which phase decided it: "shortcut", "repair", "greedy" or "search"
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


def _greedy_rows(
    n: int, d: int, M: int, q: int, rng: np.random.Generator, deadline: float | None
) -> np.ndarray | None:
    """Randomized greedy construction: add rows one at a time, each sampled
    until it sits at distance >= q from all previous rows. Up to 60
    attempts; the first always runs, later ones only before the deadline."""
    tries_per_row = 120
    for attempt in range(60):
        if attempt and _expired(deadline):
            return None
        rows = [np.ones(d, dtype=np.int64)]
        ok = True
        while len(rows) < n:
            placed = False
            prev = np.array(rows)
            for _ in range(tries_per_row):
                cand = rng.integers(1, M + 1, size=d)
                if np.count_nonzero(prev != cand, axis=1).min() >= q:
                    rows.append(cand)
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok:
            return np.array(rows)
    return None


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


class _CompleteSearch:
    """Depth-first complete search over canonical designs.

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

    def __init__(
        self, inst: FeasibilityInstance, hint: np.ndarray | None, deadline: float | None
    ):
        self.n, self.d, self.M, self.q = inst.n, inst.d, inst.M, inst.q
        self.hint = None if hint is None else hint.tolist()
        self.nodes = 0
        self.deadline = deadline
        self.timed_out = False
        self.solution: np.ndarray | None = None

    def run(self) -> None:
        n, d, M, q = self.n, self.d, self.M, self.q
        hint, deadline = self.hint, self.deadline
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
                if nodes % 2048 == 0 and _expired(deadline):
                    self.nodes, self.timed_out = nodes, True
                    return
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
                    self.nodes = nodes
                    self.solution = np.array(grid, dtype=np.int64)
                    return
                break
            else:
                stack.pop()
                if j == 0:  # row i-1 is no longer complete
                    drop = ~(1 << (i - 1))
                    for jj, u in enumerate(grid[i - 1]):
                        eq[jj][u] &= drop
        self.nodes = nodes


def solve_feasibility(inst: FeasibilityInstance) -> SolveReport:
    """Decide whether a design with min pairwise distance >= q exists.

    FEASIBLE reports carry a witness design; INFEASIBLE is certified by
    exhaustion of the complete search and is never emitted after a
    time-limit abort. The time limit covers the whole solve: repair stops
    at the deadline, greedy construction starts no attempt after its first
    once the deadline has passed, and the complete search stops there.
    """
    t0 = time.perf_counter()
    deadline = t0 + inst.time_limit if inst.time_limit is not None else None
    n, d, M, q = inst.n, inst.d, inst.M, inst.q

    if n <= M:
        # the constant rows (i, i, ..., i) are at mutual distance d >= q
        arr = np.repeat(np.arange(1, n + 1, dtype=np.int64), d).reshape(n, d)
        return _report(arr, M, q, 0, t0, "shortcut")
    if q == 0:
        arr = np.ones((n, d), dtype=np.int64)
        if inst.warm_start is not None:
            arr = inst.warm_start.as_array()
        return _report(arr, M, q, 0, t0, "shortcut")

    rng = np.random.default_rng(
        np.random.SeedSequence([inst.seed, n, d, M, q, 0x51D]).generate_state(4)
    )

    # Phase 1: repair of the warm start, else randomized greedy construction.
    hint = None
    if inst.warm_start is not None:
        arr = inst.warm_start.as_array().copy()
        if _repair(arr, M, q, rng, deadline):
            return _report(arr, M, q, 0, t0, "repair")
        hint = _canonicalize(inst.warm_start.as_array())
    else:
        greedy = _greedy_rows(n, d, M, q, rng, deadline)
        if greedy is not None:
            return _report(greedy, M, q, 0, t0, "greedy")

    # Phase 2: complete search with symmetry breaking.
    search = _CompleteSearch(inst, hint, deadline)
    search.run()
    elapsed = time.perf_counter() - t0
    if search.solution is not None:
        return _report(search.solution, M, q, search.nodes, t0, "search")
    if search.timed_out:
        return SolveReport(TIME_LIMIT, None, q, search.nodes, elapsed)
    return SolveReport(INFEASIBLE, None, q, search.nodes, elapsed)


def optimize_maximin(
    n: int,
    d: int,
    M: int,
    time_limit: float | None = None,
    seed: int = 0,
) -> MaximinResult:
    """Maximin design driver: start from the guaranteed-feasible distance
    q0(n, d, M), then raise the target by one (warm-starting from the last
    witness) while code_size_bound admits n rows at the target.

    The ascent ends with a certificate: "bound" when code_size_bound rules
    q_star+1 out (this covers q_star = d, and the pigeonhole cap q_star <=
    d-1 for n > M, which is Singleton's bound at q = d), "exhaustion" when
    the bound is loose there and the feasibility solve at q_star+1 is
    infeasible. When a feasibility solve times out, the incumbent design is
    returned with certificate None (certified False): q_star is then only a
    lower bound.
    """
    if n < 2:
        raise ValueError("optimize_maximin needs n >= 2")
    check_time_limit(time_limit)
    deadline = time.perf_counter() + time_limit if time_limit is not None else None

    def remaining():
        if deadline is None:
            return None
        return max(0.05, deadline - time.perf_counter())

    qt = q0(n, d, M)
    trace: list[SolveReport] = []
    rep = solve_feasibility(
        FeasibilityInstance(n, d, M, qt, time_limit=remaining(), seed=seed)
    )
    trace.append(rep)
    if rep.status == TIME_LIMIT:
        raise TimeoutError(
            f"feasibility solve at the guaranteed distance q0={qt} timed out"
        )
    if rep.status == INFEASIBLE:
        # q0 is feasible by construction: d when n <= M and 0 when
        # n > M**d (shortcuts answer both), else the sphere-covering bound,
        # so this verdict would mean the complete search is unsound
        raise RuntimeError(
            f"feasibility solve reported the guaranteed distance q0={qt} infeasible"
        )

    best = rep.design
    q_star = qt
    certificate = BOUND
    qt += 1
    while code_size_bound(d, qt, M) >= n:
        rep = solve_feasibility(
            FeasibilityInstance(
                n, d, M, qt, time_limit=remaining(), warm_start=best, seed=seed
            )
        )
        trace.append(rep)
        if rep.status == FEASIBLE:
            best = rep.design
            q_star = qt
            qt += 1
        elif rep.status == INFEASIBLE:
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
