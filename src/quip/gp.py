"""Gaussian-process surrogate over categorical inputs.

The correlation between two points decays by a factor exp(-theta_l) for
every factor l on which they differ:

    gamma(x, x') = exp(-sum_l theta_l * 1{x_l != x'_l})

which gives unit-diagonal correlation matrices with entries in (0, 1].
Observations are treated as noiseless; a fixed diagonal jitter keeps the
Cholesky factorization stable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

from .encoding import (
    Design,
    Point,
    design_from_dict,
    design_to_dict,
    lattice_array,
    read_json,
    write_json,
)
from .maximin import TooLargeError

DEFAULT_NUGGET = 1e-8
LOG_THETA_LO = math.log(1e-3)
LOG_THETA_HI = math.log(10.0)


class DegenerateResponseError(ValueError):
    """Responses are constant; the GP variance estimate collapses."""


@dataclass(frozen=True)
class KernelParams:
    theta: np.ndarray  # length-d, all positive
    mu: float
    tau2: float

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", th)
        if np.any(th <= 0):
            raise ValueError("theta entries must be positive")
        if self.tau2 <= 0:
            raise ValueError("tau2 must be positive")


@dataclass(frozen=True)
class FitConfig:
    n_starts: int = 8
    max_iter: int = 200
    nugget: float = DEFAULT_NUGGET
    seed: int = 0


@dataclass(frozen=True)
class GpModel:
    design: Design
    responses: np.ndarray
    params: KernelParams
    chol: np.ndarray  # lower factor of Gamma + nugget*I
    alpha: np.ndarray  # (Gamma + nugget*I)^{-1} (f - mu*1)
    nugget: float
    is_constant: bool = False  # constant-response fallback predictor

    @property
    def n(self) -> int:
        return self.design.n


def cross_correlation(X_new: np.ndarray, X: np.ndarray, theta) -> np.ndarray:
    """m x n correlation block between new points (rows) and design points."""
    neq = X_new[:, None, :] != X[None, :, :]
    return np.exp(-(neq @ np.asarray(theta, dtype=float)))


def kernel(x: Point, y: Point, theta) -> float:
    if x.d != y.d or x.M != y.M or np.shape(theta) != (x.d,):
        raise ValueError("kernel arguments do not share dimensions")
    X, Y = np.asarray([x.levels]), np.asarray([y.levels])
    return float(cross_correlation(X, Y, theta)[0, 0])


def covariance_matrix(D: Design, theta) -> np.ndarray:
    """n x n correlation matrix under the exchangeable kernel."""
    X = D.as_array()
    return cross_correlation(X, X, theta)


def build_model(
    D: Design, f, params: KernelParams, nugget: float = DEFAULT_NUGGET
) -> GpModel:
    f = np.asarray(f, dtype=float)
    if f.shape != (D.n,):
        raise ValueError(f"responses shape {f.shape} does not match n={D.n}")
    gamma = covariance_matrix(D, params.theta)
    L = cholesky(gamma + nugget * np.eye(D.n), lower=True)
    alpha = cho_solve((L, True), f - params.mu)
    return GpModel(D, f, params, L, alpha, nugget)


def _constant_model(D: Design, f: np.ndarray, nugget: float) -> GpModel:
    """Flagged predictor of the constant response f[0] with zero variance."""
    params = KernelParams(np.ones(D.d), float(f[0]), 1.0)
    return GpModel(D, f, params, np.eye(D.n), np.zeros(D.n), nugget, True)


def _posterior(model: GpModel, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of m points from their m x n correlation
    rows G to the design."""
    if model.is_constant:
        m = G.shape[0]
        return np.full(m, model.responses[0]), np.zeros(m)
    V = solve_triangular(model.chol, G.T, lower=True, check_finite=False)
    var = model.params.tau2 * np.maximum(0.0, 1.0 - np.sum(V * V, axis=0))
    return model.params.mu + G @ model.alpha, var


def predict_batch(model: GpModel, X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior mean/variance for an m x d array of levels."""
    G = cross_correlation(X_new, model.design.as_array(), model.params.theta)
    return _posterior(model, G)


def predict(model: GpModel, x: Point) -> tuple[float, float]:
    """Posterior mean and variance at a single point."""
    mean, var = predict_batch(model, np.asarray([x.levels]))
    return float(mean[0]), float(var[0])


def _profiled_nll(log_theta: np.ndarray, X: np.ndarray, f: np.ndarray, nugget: float):
    """Negative profile log-likelihood; mu and tau2 are concentrated out."""
    lt = np.clip(log_theta, LOG_THETA_LO, LOG_THETA_HI)
    theta = np.exp(lt)
    n = X.shape[0]
    gamma = cross_correlation(X, X, theta) + nugget * np.eye(n)
    try:
        L = cholesky(gamma, lower=True)
    except np.linalg.LinAlgError:
        return np.inf, None
    ones = np.ones(n)
    gi_f = cho_solve((L, True), f)
    gi_1 = cho_solve((L, True), ones)
    mu = float(ones @ gi_f) / float(ones @ gi_1)
    r = f - mu
    tau2 = float(r @ cho_solve((L, True), r)) / n
    if tau2 <= 0:
        return np.inf, None
    nll = 0.5 * n * math.log(tau2) + float(np.sum(np.log(np.diag(L))))
    return nll, (theta, mu, tau2)


def fit_mle(D: Design, f, config: FitConfig | None = None) -> GpModel:
    """Fit kernel parameters by multi-start maximum likelihood.

    The mean and variance are profiled analytically at each candidate
    theta; the search runs in log-theta space from one unit start plus a
    seeded low-discrepancy scatter. The returned likelihood dominates the
    likelihood at every start.

    Constant responses (zero variance) yield a flagged constant-predictor
    model rather than an error.
    """
    # imported here: the optimiser stack roughly doubles `import quip`
    from scipy.optimize import minimize
    from scipy.stats import qmc

    config = config or FitConfig()
    f = np.asarray(f, dtype=float)
    if D.n < 2:
        raise ValueError("fit_mle needs n >= 2")
    if f.shape != (D.n,):
        raise ValueError(f"responses shape {f.shape} does not match n={D.n}")
    if not np.all(np.isfinite(f)):
        raise ValueError("responses must be finite")
    f_range = float(f.max() - f.min())
    if f_range <= 1e-13 * max(1.0, abs(float(f[0]))):
        return _constant_model(D, f, config.nugget)

    X = D.as_array()
    d = D.d
    starts = [np.zeros(d)]
    if config.n_starts > 1:
        m = config.n_starts - 1
        pow2 = 1 << (m - 1).bit_length()  # Sobol balance wants powers of two
        sob = qmc.Sobol(d, scramble=True, seed=config.seed)
        extra = sob.random(pow2)[:m]
        starts.extend(LOG_THETA_LO + (LOG_THETA_HI - LOG_THETA_LO) * extra)

    best_nll = np.inf
    best = None
    for s in starts:
        nll0, fit0 = _profiled_nll(s, X, f, config.nugget)
        if nll0 < best_nll and fit0 is not None:
            best_nll, best = nll0, fit0
        res = minimize(
            lambda lt: _profiled_nll(lt, X, f, config.nugget)[0],
            s,
            method="Nelder-Mead",
            options={"maxiter": config.max_iter, "xatol": 1e-4, "fatol": 1e-8},
        )
        nll1, fit1 = _profiled_nll(res.x, X, f, config.nugget)
        if nll1 < best_nll and fit1 is not None:
            best_nll, best = nll1, fit1
    if best is None:
        raise DegenerateResponseError("likelihood evaluation failed at every start")
    theta, mu, tau2 = best
    return build_model(D, f, KernelParams(theta, mu, tau2), config.nugget)


def d_optimality_ratio(
    n: int, d: int, M: int, theta: float, k: float, guard: int = 200_000
) -> float:
    """Ratio (1 + det at the determinant-optimal design) over (1 + det at
    the maximin design), both under the isotropic kernel scaled by k.

    Both optima are found by exhaustive enumeration over point multisets;
    among maximin-optimal designs the determinant-largest one is used
    (maximin optima are determined only up to symmetry, which does not fix
    the determinant in general).
    """
    lattice = M**d
    n_designs = math.comb(lattice + n - 1, n)
    if n_designs > guard:
        raise TooLargeError(f"{n_designs} designs exceeds enumeration guard")
    pts = lattice_array(d, M)
    dist = np.count_nonzero(pts[:, None, :] != pts[None, :, :], axis=2)
    corr = cross_correlation(pts, pts, np.full(d, theta * k))

    best_det = -np.inf
    best_q = -1
    best_det_at_q = -np.inf
    for combo in itertools.combinations_with_replacement(range(lattice), n):
        idx = list(combo)
        sub = dist[np.ix_(idx, idx)]
        det = float(np.linalg.det(corr[np.ix_(idx, idx)]))
        if det > best_det:
            best_det = det
        qmin = int(sub[np.triu_indices(n, 1)].min()) if n > 1 else d
        if qmin > best_q or (qmin == best_q and det > best_det_at_q):
            if qmin > best_q:
                best_det_at_q = -np.inf
            best_q = qmin
            best_det_at_q = max(best_det_at_q, det)
    return (1.0 + best_det) / (1.0 + best_det_at_q)


def model_to_dict(model: GpModel) -> dict:
    return {
        "design": design_to_dict(model.design),
        "responses": [float(v) for v in model.responses],
        "theta": [float(v) for v in model.params.theta],
        "mu": float(model.params.mu),
        "tau2": float(model.params.tau2),
        "nugget": float(model.nugget),
        "is_constant": bool(model.is_constant),
    }


def model_from_dict(obj: dict) -> GpModel:
    D = design_from_dict(obj["design"])
    f = np.asarray(obj["responses"], dtype=float)
    if obj.get("is_constant"):
        return _constant_model(D, f, float(obj["nugget"]))
    params = KernelParams(
        np.asarray(obj["theta"], dtype=float), float(obj["mu"]), float(obj["tau2"])
    )
    return build_model(D, f, params, float(obj["nugget"]))


def save_model(model: GpModel, path) -> None:
    write_json(model_to_dict(model), path)


def load_model(path) -> GpModel:
    return model_from_dict(read_json(path))
