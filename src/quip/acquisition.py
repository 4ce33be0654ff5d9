"""Acquisition criteria over the categorical lattice and their exact
global optimization.

Two criteria are supported, both derived from the fitted surrogate:

* ALM: pick the point of maximum posterior variance tau2 * (1 - Q(x)),
  where Q(x) = g' W g is the quadratic form of the correlation vector g
  to the design and the inverse correlation matrix W.
* UCB: pick the point maximizing mean + lambda * stddev.

The global optimizer is a best-first branch-and-bound over one-factor-at-
a-time assignments. With a subset of factors fixed, each correlation is
g_r = U_r exp(-t_r): an exact prefix product U_r times the free factors'
term, with t_r = sum over free j of theta_j * 1{x_j != X_rj} in [0, T].
Every bound rests on one function, `_linmax`, an upper bound on the
maximum of a linear function l'g over the subtree. It bounds each term
w_r exp(-t_r), w = l o U, by one line c_r - beta_r t_r through the far
corner (T, exp(-T) w_r), with c_r = max(w_r, exp(-T)(1 + T) w_r) and
beta_r = max(kappa w_r, exp(-T) w_r), kappa = (1 - exp(-T))/T. As
exp(-T)(1 + T) <= 1 and exp(-T) <= kappa, both pick the chord of the
convex exp(-t) where w_r >= 0, and where w_r < 0 the tangent at T, toward
which maximizing l'g drives such a term. Since T - t_r sums theta_j over
the free factors that match the design row, the lines' maximum over the
free levels is exact and separable per factor, and never above the box
bound sum_r max(w_r, exp(-T) w_r), the sum of each line's peak on [0, T].
It is used three times:

* the mean g'alpha, with l = alpha;
* Q = g'Wg >= -c'Wc + 2(Wc)'g, the tangent plane of the convex Q at any c
  (W is positive definite), which keeps the cancellation between entries
  of W of opposite sign, large when theta sits at its lower clip. It is
  taken at the subtree's lower corner c = exp(-T) U: the variance is
  largest far from the design, where the correlations are small, and a
  tangent plane is tightest near its point of contact;
* for UCB, where c'Wc < 1 at the midpoint c = a U, a = (1 + exp(-T))/2,
  the tangent plane of the concave UCB there, which reduces to
  mu + lambda tau2 / sigma(c) + linmax(grad o U) with
  grad = alpha - lambda tau2 Wc / sigma(c). Each true correlation row has
  g'Wg <= 1, where UCB is concave. Both terms grow like 1/sigma(c), so it
  is applied only where 1 - c'Wc is well above its rounding, and the
  smaller of it and the separate mean-plus-deviation bound is kept.

The solve is one loop, and each pass expands one node. Its M children's
U rows come from per-factor multiplier tables, and their bounds from one
matrix product U W and one product of the stacked w rows with a matching
table built once per solve; children whose bound exceeds the incumbent go
on the heap. Leaves are scored exactly from their correlation rows in one
batch, with no design rebuild, and only they set the incumbent, the first
argmax in factor order among a batch's ties. A node with one free factor
scores its M leaves; one with two free factors scores, in one batch, the
leaves of every child whose bound exceeds the incumbent, instead of
pushing the children. Until the first leaves are scored, each expansion
takes two factors: it bounds the M^2 grandchildren, whose U rows are outer
products of two tables' rows, in one call, and does not push the best but
expands it next. So every solve opens with a dive from the root to a node
with two free factors (one for odd d) that scores all its leaves; its
ceil(d/2) - 1 descents count as nodes with the root and, being a fixed
few, run without a deadline check. After that each pass pops the heap's
best node, and the search stops once its bound no longer exceeds the
incumbent, which certifies the incumbent as the global optimum.

Everything is evaluated in floating point, so a certificate holds up to
rounding: the certified bound is at least the true optimum less
1e-9 * |optimum| and less the absolute rounding of the computed objective.
For ALM that is the rounding of 1 - Q, a difference of numbers near 1, at
most n * eps * tau2, which exceeds the relative term where the largest
variance is far below tau2. For UCB it is the rounding of the mean g'alpha,
at most n * eps * sum|alpha| (alpha has large entries of both signs when
Gamma is near-singular). Both are tested on clip-pinned models against
full enumeration. The bounds themselves must dominate the computed leaf
values: the Q bound sums U'WU in the W form, whose terms cancel when Gamma
is near-singular, while a leaf's Q comes from a triangular solve. The two
may differ by up to the rounding of U'WU, n * eps * U|W|1 for correlations
0 <= g <= U <= 1, far above n * eps there, and the square root of UCB
amplifies that near small variance. So the Q bound is lowered by it.
A line's constant c_r and its slope term beta_r T are each at most |w_r|,
so a term rounds by a few eps |w_r| and the sum by about n * eps * sum|w|:
at most n * eps * sum|alpha| for the mean, within the allowance above, and
2 n * eps * U|W|1 for Q, the scale of its rounding slack. The constant is
taken at t = 0, where the chord is w_r bit for bit, as is a leaf's term
for a design row that it matches on every free factor.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass

import numpy as np

from .encoding import Point, TooLargeError, check_time_limit, lattice_array
from .gp import GpModel, _posterior, _scipy, cross_correlation

DEFAULT_LAMBDA = 2.96
DEFAULT_GAP = 0.10

STATUS_OPTIMAL = "optimal"
STATUS_GAP = "gap_reached"
STATUS_TIME_LIMIT = "time_limit"

# the UCB tangent needs 1 - c'Wc above this many times its rounding scale
_TANGENT_GUARD = 64.0


@dataclass(frozen=True)
class AcquisitionSpec:
    kind: str  # "alm" or "ucb"
    lam: float = DEFAULT_LAMBDA
    gap_tolerance: float = DEFAULT_GAP
    time_limit: float | None = None

    def __post_init__(self):
        if self.kind not in ("alm", "ucb"):
            raise ValueError(f"unknown acquisition kind {self.kind!r}")
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError("lambda must be finite and non-negative")
        if not 0.0 <= self.gap_tolerance < 1.0:
            raise ValueError("gap tolerance must lie in [0, 1)")
        check_time_limit(self.time_limit)


@dataclass(frozen=True)
class AcqSolveReport:
    best_point: Point
    best_value: float  # maximization convention (variance for ALM)
    certified_bound: float
    relative_gap: float
    nodes: int
    status: str
    elapsed: float


def _objective(model: GpModel, G: np.ndarray, spec: AcquisitionSpec) -> np.ndarray:
    """Acquisition values (maximization convention) of points given by
    their correlation rows G to the design."""
    mean, var = _posterior(model, G)
    if spec.kind == "alm":
        return var
    return mean + spec.lam * np.sqrt(var)


def _objective_batch(model: GpModel, X_new: np.ndarray, spec: AcquisitionSpec):
    """Vectorized acquisition values for an m x d array of levels."""
    G = cross_correlation(X_new, model.design.as_array(), model.params.theta)
    return _objective(model, G, spec)


class _BnB:
    """Best-first branch-and-bound over per-factor level assignments.

    The heap holds level prefixes only; an expanded node's U is rebuilt
    from the per-factor multiplier tables. Its M children (its M^2
    grandchildren while diving) are bounded in one batched step, from one
    product U W and one `_linmax` call over their stacked rows. At one free
    factor its M leaves, and at two the leaves of the children whose bound
    beats the incumbent, are scored exactly in one batch instead. The
    incumbent comes from leaves alone, the first from the opening dive;
    `nodes` counts the root, each descent and each pop.
    """

    def __init__(self, model: GpModel, spec: AcquisitionSpec):
        self.model = model
        self.spec = spec
        X = model.design.as_array()
        self.n, self.d = X.shape
        self.M = model.design.M
        theta = model.params.theta
        self.order = np.argsort(-theta, kind="stable")  # most influential first
        self.W, _ = _scipy.dpotrs(model.chol, np.eye(self.n), lower=1)
        # row sums of |W|: a^2 U|W|1 bounds the rounding scale of c'Wc
        self.w_abs = np.abs(self.W).sum(axis=1)
        self.alpha = model.alpha
        self.tau2 = model.params.tau2
        self.mu = model.params.mu
        # T, the summed theta of the free factors, and exp(-T) per depth
        t = theta[self.order]
        self.free_theta = np.append(np.cumsum(t[::-1])[::-1], 0.0)
        self.free_min = np.exp(-self.free_theta)
        # Y[depth*M + v-1, r]: theta_j * 1{X_rj == v} for the factor j
        # branched at this depth; F = exp(Y - theta_j) is its multiplier
        levels = np.arange(1, self.M + 1)[:, None]
        Y = t[:, None, None] * (X.T[self.order][:, None, :] == levels)
        self.Y = Y.reshape(self.d * self.M, self.n)
        self.F = np.exp(Y - t[:, None, None])

    def _upper(self, levels: tuple[int, ...]) -> np.ndarray:
        """Exact prefix product U per training point for a level prefix."""
        U = np.ones(self.n)
        for depth, v in enumerate(levels):
            U = U * self.F[depth][v - 1]
        return U

    def _linmax(self, w: np.ndarray, depth: int) -> np.ndarray:
        """Upper bound, per row of w = l o U, on max l'g over the subtree of
        a node at this depth with prefix products U.

        There g_r = U_r exp(-t_r), t_r = sum over free factors j of theta_j
        * 1{x_j != X_rj} in [0, T], and w_r exp(-t_r) <= c_r - beta_r t_r,
        c_r = max(w_r, fm (1 + T) w_r), beta_r = max(kappa w_r, fm w_r),
        fm = exp(-T), kappa = (1 - fm)/T: the chord of the convex exp(-t)
        for w_r >= 0 and the tangent at T for w_r < 0. With t_r = T - sum_j
        theta_j 1{x_j == X_rj} the right side's maximum is exact and
        separable: sum c - T sum beta + sum_j max_v sum_r beta_r Y[j, v, r].
        Each line peaks on [0, T] at max(w_r, fm w_r), so this implies the
        box bound sum max(w, fm w)."""
        T = self.free_theta[depth]
        fm = self.free_min[depth]
        beta = np.maximum((-np.expm1(-T) / T) * w, fm * w)
        c = np.maximum(w, (fm * (1.0 + T)) * w)
        S = beta @ self.Y[depth * self.M:].T
        sep = S.reshape(len(w), -1, self.M).max(axis=2).sum(axis=1)
        return c.sum(axis=1) - T * beta.sum(axis=1) + sep

    def _parts(self, U: np.ndarray, depth: int):
        """Per node row of U at this depth: a lower bound on Q = g'Wg over
        its subtree and, for UCB, upper bounds on the mean and the UCB
        tangent plane (inf where it is not applied; None for ALM).

        The convex Q has Q(g) >= -c'Wc + 2(Wc)'g for any c, so with c at
        the lower corner fm U, Q >= -fm^2 U'WU - linmax(-2 fm (WU) o U),
        less the rounding n eps U|W|1 of the W form.
        The plane is exact at c, and the smallest Q, where the variance
        peaks, lies at small correlations, near that corner; a plane at
        the midpoint is loosest there. With c = a U, a = (1 + fm)/2, and
        where c'Wc < 1, the concave UCB is at most UCB(c) + grad'(g - c),
        grad = alpha - lam tau2 Wc / sigma(c); alpha'c cancels, leaving
        mu + lam tau2 / sigma(c) + linmax(grad o U). It is applied only
        where 1 - c'Wc exceeds its rounding scale by _TANGENT_GUARD, since
        both terms grow like 1/sigma(c) and cancel."""
        fm = self.free_min[depth]
        PU = (U @ self.W) * U  # (WU) o U
        u_wu = PU.sum(axis=1)
        # the rounding scale of g'Wg for 0 <= g <= U, by which the leaves'
        # triangular-solve Q may fall below this W form
        rounding = self.n * np.finfo(float).eps * (U @ self.w_abs)
        q_low = -fm * fm * u_wu - rounding
        if self.spec.kind == "alm":
            return q_low - self._linmax(-2.0 * fm * PU, depth), None, None
        a = 0.5 * (1.0 + fm)
        s2 = 1.0 - a * a * u_wu
        ok = s2 > _TANGENT_GUARD * a * a * rounding
        # sigma(c), or any finite stand-in where the tangent is not applied
        sigma = np.sqrt(self.tau2 * np.where(ok, s2, 1.0))
        slope = self.spec.lam * self.tau2 / sigma
        wa = self.alpha * U
        w = np.concatenate([wa, -2.0 * fm * PU, wa - (a * slope)[:, None] * PU])
        mean, lin, tan = self._linmax(w, depth).reshape(3, len(U))
        tangent = np.where(ok, self.mu + slope + tan, np.inf)
        return q_low - lin, self.mu + mean, tangent

    def _bounds(self, U: np.ndarray, depth: int) -> np.ndarray:
        """Admissible upper bounds on the objective over the subtree of each
        node row of U at this depth: the variance from the Q bound and, for
        UCB, the smaller of the mean-plus-deviation bound and the tangent."""
        q_low, mean_high, tangent = self._parts(U, depth)
        var_high = self.tau2 * np.maximum(0.0, 1.0 - np.maximum(0.0, q_low))
        if self.spec.kind == "alm":
            return var_high
        return np.minimum(mean_high + self.spec.lam * np.sqrt(var_high), tangent)

    def solve(self) -> AcqSolveReport:
        t0 = time.perf_counter()
        limit = self.spec.time_limit
        deadline = t0 + limit if limit is not None else None
        tol = self.spec.gap_tolerance
        M = self.M
        singles = [(v,) for v in range(1, M + 1)]
        pairs = list(itertools.product(range(1, M + 1), repeat=2))

        counter = itertools.count()
        heap: list[tuple[float, int, tuple[int, ...]]] = []
        levels: tuple[int, ...] = ()
        nodes = 1  # the root, then each descent and each pop
        incumbent, incumbent_levels = -np.inf, ()  # leaves alone set it
        status = STATUS_OPTIMAL
        open_bound = -np.inf  # bound of the abandoned subtree, if any

        while True:
            depth = len(levels)
            U = self.F[depth] * self._upper(levels)  # its M children's rows
            diving = incumbent == -np.inf
            if depth + 2 < self.d:
                # bound the children or, while diving, the M^2 grandchildren,
                # push those that may beat the incumbent and descend into
                # the best while diving
                tail = singles
                if diving:
                    U = (U[:, None, :] * self.F[depth + 1]).reshape(M * M, self.n)
                    tail = pairs
                bounds = self._bounds(U, depth + len(tail[0]))
                best = int(np.argmax(bounds)) if diving else -1
                for i, b in enumerate(bounds.tolist()):
                    if i != best and b > incumbent + 1e-15:
                        heapq.heappush(heap, (-b, next(counter), levels + tail[i]))
                if diving:
                    levels += tail[best]
                    nodes += 1
                    continue
            else:
                heads = [levels]
                if depth + 2 == self.d:
                    # the leaves of the children that may beat the incumbent
                    keep = np.arange(M)
                    if not diving:
                        bounds = self._bounds(U, depth + 1)
                        keep = np.flatnonzero(bounds > incumbent + 1e-15)
                    heads = [levels + (int(v) + 1,) for v in keep]
                    U = (U[keep, None, :] * self.F[depth + 1]).reshape(-1, self.n)
                if heads:
                    # free_min[d] == 1: exact correlation rows, in one batch
                    vals = _objective(self.model, U, self.spec).reshape(len(heads), M)
                    # the first argmax, as a strict > scan. Leaves tie
                    # exactly where their rows are equal: where each factor's
                    # two levels match the same design rows, so the first is
                    # first in factor order too, or where the two factors'
                    # thetas are equal, and the branching order keeps those
                    # in factor order
                    h, v = divmod(int(np.argmax(vals)), M)
                    if vals[h, v] > incumbent:
                        incumbent = float(vals[h, v])
                        incumbent_levels = heads[h] + (v + 1,)
            if not heap:
                break
            neg_bound, _, levels = heapq.heappop(heap)
            bound = -neg_bound
            nodes += 1
            if bound <= incumbent + 1e-15:
                # remaining nodes are no better: incumbent is optimal
                break
            rel = (bound - incumbent) / max(abs(bound), 1e-12)
            if tol > 0 and rel <= tol:
                status = STATUS_GAP
                open_bound = bound
                break
            if deadline is not None and time.perf_counter() > deadline:
                status = STATUS_TIME_LIMIT
                open_bound = bound
                break

        # best-first: the popped (abandoned) bound dominates the heap
        certified = max(incumbent, open_bound)
        rel_gap = (certified - incumbent) / max(abs(certified), 1e-12)
        x = np.empty(self.d, dtype=np.int64)
        x[self.order] = incumbent_levels  # branching order to factor order
        point = Point(x, self.M)
        return AcqSolveReport(
            point, incumbent, certified, rel_gap, nodes, status,
            time.perf_counter() - t0,
        )


def optimize_acquisition(model: GpModel, spec: AcquisitionSpec) -> AcqSolveReport:
    """Exact (or gap-certified) global optimization of the acquisition.

    Re-selecting an existing design point is allowed: the criteria impose
    no exclusion, and for noiseless fits ALM never re-selects anyway since
    the variance vanishes at observed points.
    """
    if model.is_constant:
        # flat surrogate: every point is optimal; return the lattice origin
        point = Point((1,) * model.design.d, model.design.M)
        val = float(_objective_batch(model, np.asarray([point.levels]), spec)[0])
        return AcqSolveReport(point, val, val, 0.0, 0, STATUS_OPTIMAL, 0.0)
    return _BnB(model, spec).solve()


def enumerate_acquisition(
    model: GpModel, spec: AcquisitionSpec, guard: int = 10**7
) -> tuple[Point, float]:
    """Exact optimum by full lattice enumeration (testing oracle).

    Ties break to the lexicographically smallest point.
    """
    d, M = model.design.d, model.design.M
    if M**d > guard:
        raise TooLargeError(f"lattice size {M}**{d} exceeds enumeration guard")
    best_val = -np.inf
    best_levels = None
    # rows per block: cross_correlation makes a rows x n x d float temporary
    chunk = max(1, 2**18 // (model.design.n * d))
    full = lattice_array(d, M)
    for lo in range(0, full.shape[0], chunk):
        block = full[lo : lo + chunk]
        vals = _objective_batch(model, block, spec)
        k = int(np.argmax(vals))
        if vals[k] > best_val:  # strict: keeps the first (lex-least) argmax
            best_val = float(vals[k])
            best_levels = block[k]
    assert best_levels is not None
    return Point(best_levels, M), best_val


def random_point(d: int, M: int, rng: np.random.Generator) -> Point:
    """Uniform draw from the lattice."""
    return Point(rng.integers(1, M + 1, size=d), M)


def candidate_set_acquisition(
    model: GpModel, spec: AcquisitionSpec, C: int, seed: int
) -> tuple[Point, float]:
    """Best of C uniform i.i.d. candidate points (Monte Carlo baseline).

    Candidates form a seed-determined stream, so enlarging C with a fixed
    seed only extends the candidate prefix.
    """
    if C < 1:
        raise ValueError("need at least one candidate")
    rng = np.random.default_rng(seed)
    d, M = model.design.d, model.design.M
    cands = rng.integers(1, M + 1, size=(C, d))
    vals = _objective_batch(model, cands, spec)
    k = int(np.argmax(vals))
    return Point(cands[k], M), float(vals[k])
