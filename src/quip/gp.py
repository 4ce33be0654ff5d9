"""Gaussian-process surrogate over categorical inputs.

The correlation between two points decays by a factor exp(-theta_l) for
every factor l on which they differ:

    gamma(x, x') = exp(-sum_l theta_l * 1{x_l != x'_l})

which gives unit-diagonal correlation matrices with entries in (0, 1].
Observations are treated as noiseless; a fixed diagonal jitter keeps the
Cholesky factorization stable.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import itertools
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from .encoding import (
    Design,
    check_int,
    design_from_dict,
    design_to_dict,
    read_json,
    write_json,
)

DEFAULT_NUGGET = 1e-8  # diagonal jitter of every fitted model
_MAX_ITER = 200  # cap on L-BFGS-B iterations per start
LOG_THETA_LO = math.log(1e-3)
LOG_THETA_HI = math.log(10.0)
_FAILED_NLL = 1e10  # objective where the Cholesky factorisation fails
_SOBOL_BITS = 30


@functools.cache
def _scipy_extension(package: str, name: str):
    """scipy's compiled module scipy.<package>.<name>, loaded from its file
    so that scipy/<package>/__init__ never runs. scipy/__init__ itself does
    run first: Windows wheels register their DLL directory there, and its
    __file__ locates the package."""
    import scipy

    base = os.path.join(os.path.dirname(scipy.__file__), package, name)
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            spec = importlib.util.spec_from_file_location(
                f"scipy.{package}.{name}", base + suffix
            )
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise RuntimeError(
        f"scipy's compiled module not found at {base} with any of the suffixes "
        f"{importlib.machinery.EXTENSION_SUFFIXES}"
    )


class _Scipy:
    """The compiled scipy routines the GP calls, each loaded on first access
    and then held as an attribute: LAPACK's Cholesky factorisation, solve,
    inverse and triangular solve from scipy.linalg._flapack, and `setulb`,
    L-BFGS-B's reverse-communication core in the signature (with `ln_task`)
    of scipy's C port of the routine, from scipy.optimize._lbfgsb. Only
    these two extension modules load, not the scipy.linalg (about 27 MB)
    or scipy.optimize (about 21 MB) packages around them, and importing
    quip loads no scipy at all."""

    _MODULES = {
        "dpotrf": ("linalg", "_flapack"),
        "dpotrs": ("linalg", "_flapack"),
        "dpotri": ("linalg", "_flapack"),
        "dtrtrs": ("linalg", "_flapack"),
        "setulb": ("optimize", "_lbfgsb"),
    }

    def __getattr__(self, name):
        if name not in self._MODULES:
            raise AttributeError(name)
        value = getattr(_scipy_extension(*self._MODULES[name]), name)
        setattr(self, name, value)
        return value


_scipy = _Scipy()


class DegenerateResponseError(ValueError):
    """The likelihood could not be evaluated at any start: the Cholesky
    factorisation failed (or gave no positive variance) at every start and
    every point its search reached. Constant responses do not raise this;
    they get the flagged constant-predictor model."""


@dataclass(frozen=True)
class KernelParams:
    theta: np.ndarray  # length-d, all positive
    mu: float
    tau2: float

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        object.__setattr__(self, "theta", th)
        if not np.all(np.isfinite(th)) or np.any(th <= 0):
            raise ValueError("theta entries must be finite and positive")
        if not np.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not (np.isfinite(self.tau2) and self.tau2 > 0):
            raise ValueError("tau2 must be finite and positive")


@dataclass(frozen=True)
class FitConfig:
    n_starts: int = 8
    seed: int = 0

    def __post_init__(self):
        for name, low in (("n_starts", 1), ("seed", 0)):
            object.__setattr__(self, name, check_int(name, getattr(self, name), low))


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


def _check_nugget(nugget: float) -> None:
    if not (math.isfinite(nugget) and nugget >= 0):
        raise ValueError(f"nugget={nugget!r} must be finite and non-negative")


def build_model(
    D: Design, f, params: KernelParams, nugget: float = DEFAULT_NUGGET
) -> GpModel:
    f = np.asarray(f, dtype=float)
    if f.shape != (D.n,):
        raise ValueError(f"responses shape {f.shape} does not match n={D.n}")
    if not np.all(np.isfinite(f)):
        raise ValueError("responses must be finite")
    _check_nugget(nugget)
    X = D.as_array()
    if D.M < 256:
        X = X.astype(np.uint8)  # the same mismatches, compared a byte at a time
    gamma = cross_correlation(X, X, params.theta)
    L, info = _scipy.dpotrf(gamma + nugget * np.eye(D.n), lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{info}-th leading minor of the correlation matrix is not positive definite"
        )
    alpha, _ = _scipy.dpotrs(L, f - params.mu, lower=1)
    return GpModel(D, f, params, L, alpha, nugget)


def _constant_model(D: Design, f: np.ndarray, nugget: float) -> GpModel:
    """Flagged predictor of the constant response f[0] with zero variance."""
    _check_nugget(nugget)
    params = KernelParams(np.ones(D.d), float(f[0]), 1.0)
    return GpModel(D, f, params, np.eye(D.n), np.zeros(D.n), nugget, True)


def _posterior(model: GpModel, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean and variance of m points from their m x n correlation
    rows G to the design."""
    if model.is_constant:
        m = G.shape[0]
        return np.full(m, model.responses[0]), np.zeros(m)
    V, _ = _scipy.dtrtrs(model.chol, G.T, lower=1)
    var = model.params.tau2 * np.maximum(0.0, 1.0 - np.sum(V * V, axis=0))
    return model.params.mu + G @ model.alpha, var


def predict_batch(model: GpModel, X_new: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior mean/variance for an m x d array of levels."""
    G = cross_correlation(X_new, model.design.as_array(), model.params.theta)
    return _posterior(model, G)


class _PairTable(NamedTuple):
    """The n(n-1)/2 pairs i > j of a design, column by column of the lower
    triangle, and the Fortran-ordered n x n buffer `work` in which all of
    one fit's likelihood evaluations factor and invert."""

    i: np.ndarray
    j: np.ndarray  # j < i
    flat: np.ndarray  # i + n*j: the pair's entry of `work`
    Ep: np.ndarray  # (m, d) float indicator of the factors the pair differs on
    work: np.ndarray  # n*n entries


def _pair_table(X: np.ndarray) -> _PairTable:
    n = X.shape[0]
    j, i = np.triu_indices(n, 1)
    return _PairTable(i, j, i + n * j, (X[i] != X[j]).astype(float), np.empty(n * n))


def _nll_and_grad(
    log_theta: np.ndarray, P: _PairTable, f: np.ndarray, rhs: np.ndarray, nugget: float
):
    """Negative profile log-likelihood, its gradient in log-theta and the
    fitted (theta, mu, tau2); None when the Cholesky factorisation fails.
    `rhs` is the (n, 2) right-hand side [f, 1], built once per fit. Each call
    refills the lower triangle of `P.work` with Gamma + nugget*I, which
    LAPACK factors and inverts in place, and reads the arrays LAPACK returns:
    no result depends on an earlier call, and the stale upper triangle is
    never read.

    With K = Gamma + nugget*I, a = K^{-1}(f - mu*1) and tau2 = (f - mu)'a/n,
    d nll / d log theta_l = -theta_l * sum_{i>j} Ep_l * Gamma * (K^{-1} - aa'/tau2)
    (GPML section 5.4, with d Gamma / d theta_l = -Ep_l * Gamma, once per
    pair of the symmetric matrix; mu is profiled, so it contributes no term).
    """
    n = f.size
    theta = np.exp(log_theta)
    gamma = np.exp(-(P.Ep @ theta))
    P.work[P.flat] = gamma
    P.work[:: n + 1] = 1.0 + nugget
    K = P.work.reshape(n, n, order="F")
    L, info = _scipy.dpotrf(K, lower=1, clean=0, overwrite_a=1)
    if info != 0:
        return None
    sol, _ = _scipy.dpotrs(L, rhs, lower=1)
    sums = sol.sum(axis=0)
    mu = sums[0] / sums[1]
    a = sol[:, 0] - mu * sol[:, 1]
    tau2 = float((f - mu) @ a) / n
    if not tau2 > 0:
        return None
    nll = 0.5 * n * math.log(tau2) + float(np.log(L.diagonal()).sum())
    K_inv, _ = _scipy.dpotri(L, lower=1, overwrite_c=1)  # lower triangle read
    w = (K_inv.T.take(P.flat) - a[P.i] * (a[P.j] / tau2)) * gamma
    grad = -theta * (w @ P.Ep)
    return nll, grad, (theta, mu, tau2)


def _check_duplicate_rows(P: _PairTable, f: np.ndarray) -> None:
    """Reject identical design rows whose responses differ: the noiseless
    GP must interpolate both, which drives theta to its clip and tau2 up
    by orders of magnitude. Repeats with equal responses are allowed; the
    pairs that differ on no factor are the identical rows."""
    same = ~P.Ep.any(axis=1)
    ref = np.arange(f.size)  # first copy of each row: its smallest partner
    np.minimum.at(ref, P.i[same], P.j[same])
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(f), np.abs(f[ref])))
    bad = np.flatnonzero(np.abs(f - f[ref]) > tol)
    if bad.size:
        j = int(bad[0])
        i = int(ref[j])
        raise ValueError(
            f"design rows {i} and {j} are identical but their responses "
            f"differ ({float(f[i])!r} vs {float(f[j])!r}); a noiseless GP cannot "
            "interpolate both"
        )


@functools.lru_cache(maxsize=64)
def _sobol(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of scipy's scrambled Sobol sequence in d
    dimensions, bit for bit `qmc.Sobol(d, scramble=True, seed=seed).random(n)`:
    Joe-Kuo direction numbers in 30 bits, a random digital shift and a
    lower-triangular (LMS) scramble drawn in that order from
    `default_rng(seed)`, points in Gray-code order. The direction numbers
    are the first d lines of quip/data/sobol_directions.txt, one dimension
    per line: its polynomial, then its initial numbers. Read-only and
    cached: every fit of a campaign asks for the same starts."""
    B = _SOBOL_BITS
    with (resources.files("quip.data") / "sobol_directions.txt").open() as fh:
        table = [[int(x) for x in line.split()] for line in itertools.islice(fh, d)]
    if d > len(table):
        raise ValueError(f"d={d} exceeds the {len(table)} Sobol dimensions")
    # direction numbers v[j, i] < 2^(i+1) by the Bratley-Fox recursion,
    # then left-aligned in B bits
    v = [[1] * B]
    for p, *row in table[1:]:
        m = p.bit_length() - 1
        for i in range(m, B):
            new = row[i - m]
            for k in range(m):
                if (p >> (m - 1 - k)) & 1:
                    new ^= row[i - k - 1] << (k + 1)
            row.append(new)
        v.append(row)
    v = np.array(v, dtype=np.int64).reshape(d, B) << np.arange(B - 1, -1, -1)
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, B), dtype=np.uint32).astype(np.int64) @ (
        1 << np.arange(B)
    )
    ltm = np.tril(rng.integers(2, size=(d, B, B), dtype=np.uint32)).astype(np.int64)
    ltm[:, np.arange(B), np.arange(B)] = 1
    # scrambled v[j, i]: bit B-1-p is the parity of row p of ltm (most
    # significant bit first) against the bits of v[j, i]
    msb = 1 << np.arange(B - 1, -1, -1)
    vbits = (v[:, :, None] & msb) != 0  # (d, B, B), most significant first
    sv = ((vbits.astype(np.int64) @ ltm.transpose(0, 2, 1)) & 1) @ msb
    gray = np.arange(n) ^ (np.arange(n) >> 1)
    used = (gray[:, None] >> np.arange(B)) & 1 != 0  # (n, B)
    q = np.bitwise_xor.reduce(np.where(used[:, None, :], sv[None], 0), axis=2)
    out = (q ^ shift) * (1.0 / 2**B)
    out.flags.writeable = False
    return out


def _lbfgsb(objective, x0: np.ndarray) -> tuple[np.ndarray, tuple | None]:
    """Minimise `objective` over the log-theta box from x0, clipped to it,
    by L-BFGS-B (Byrd, Lu, Nocedal and Zhu, 1995); returns the final x and
    the objective's output at it. The output starts with value and gradient;
    None (a failed likelihood) scores _FAILED_NLL with zero gradient, so the
    line search backs off. scipy's reverse-communication core `setulb` runs
    in the loop of `minimize(..., method="L-BFGS-B")` with minimize's
    defaults (m = 10, ftol = 2.22e-9, gtol = 1e-5, maxls = 20) and
    `maxiter=_MAX_ITER`, so the same x comes back bit for bit, without
    minimize's per-evaluation wrapper. minimize's cap of 15,000 evaluations
    is left out as it cannot fire: _MAX_ITER iterations of at most maxls
    line-search steps each, plus the start, stay far below it. `setulb`
    stops only at its start, right after an iteration ends, or after a failed
    line search, which restores the last iterate; so the output at the start
    or at the last iteration's end is the output at the returned x.
    """
    m, maxls = 10, 20
    n = x0.size
    x = np.clip(x0, LOG_THETA_LO, LOG_THETA_HI)
    lo = np.full(n, LOG_THETA_LO)
    hi = np.full(n, LOG_THETA_HI)
    nbd = np.full(n, 2, np.int32)  # bounded below and above
    factr = 2.220446049250313e-09 / np.finfo(float).eps
    f = 0.0
    g = np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task = np.zeros(2, np.int32)
    ln_task = np.zeros(2, np.int32)
    lsave = np.zeros(4, np.int32)
    isave = np.zeros(44, np.int32)
    dsave = np.zeros(29)
    iterations = 0
    while True:
        _scipy.setulb(m, x, lo, hi, nbd, f, g, factr, 1e-5, wa, iwa, task,
                      lsave, isave, dsave, maxls, ln_task)
        if task[0] == 3:  # evaluate at x; task[1] == 301 at the start
            out = objective(x)
            f, g = (_FAILED_NLL, np.zeros(n)) if out is None else out[:2]
            if task[1] == 301:
                kept = out
        elif task[0] == 1:  # an iteration ended at the last evaluated x
            kept = out
            iterations += 1
            if iterations >= _MAX_ITER:
                task[:] = 5, 504
        else:  # converged, or the line search gave up
            return x, kept


def fit_mle(D: Design, f, config: FitConfig | None = None) -> GpModel:
    """Fit kernel parameters by multi-start maximum likelihood.

    The mean and variance are profiled analytically at each candidate
    theta. From one unit start plus a seeded scrambled Sobol scatter
    (`_sobol`: scipy's `qmc.Sobol` points, made without importing
    `scipy.stats`), each search runs scipy's L-BFGS-B core with
    `minimize`'s defaults (`_lbfgsb`) in log-theta within the clip bounds,
    on the analytic gradient of the profile likelihood; the pair table
    (`_pair_table`, with the buffer LAPACK works in at every evaluation)
    and the right-hand side [f, 1] are built once per fit.
    The returned likelihood dominates the likelihood at every start, as an
    accepted L-BFGS-B step never raises the value.

    Constant responses (zero variance) yield a flagged constant-predictor
    model rather than an error. Identical rows with different responses
    raise ValueError.
    """
    config = config or FitConfig()
    f = np.asarray(f, dtype=float)
    if D.n < 2:
        raise ValueError("fit_mle needs n >= 2")
    if f.shape != (D.n,):
        raise ValueError(f"responses shape {f.shape} does not match n={D.n}")
    if not np.all(np.isfinite(f)):
        raise ValueError("responses must be finite")
    P = _pair_table(D.as_array())
    _check_duplicate_rows(P, f)
    f_range = float(f.max() - f.min())
    if f_range <= 1e-13 * max(1.0, abs(float(f[0]))):
        return _constant_model(D, f, DEFAULT_NUGGET)

    d = D.d
    rhs = np.column_stack([f, np.ones(D.n)])
    starts = [np.zeros(d)]
    if config.n_starts > 1:
        extra = _sobol(d, config.n_starts - 1, config.seed)
        starts.extend(LOG_THETA_LO + (LOG_THETA_HI - LOG_THETA_LO) * extra)

    best_nll = np.inf
    best = None
    for s in starts:
        _, out = _lbfgsb(lambda lt: _nll_and_grad(lt, P, f, rhs, DEFAULT_NUGGET), s)
        if out is not None and out[0] < best_nll:
            best_nll, best = out[0], out[2]
    if best is None:
        raise DegenerateResponseError("likelihood evaluation failed at every start")
    theta, mu, tau2 = best
    return build_model(D, f, KernelParams(theta, mu, tau2))


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
