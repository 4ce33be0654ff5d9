import json
import math
import os
from importlib import resources

import numpy as np
import pytest

from quip import gp
from quip.encoding import design_from_array
from quip.gp import (
    DegenerateResponseError,
    FitConfig,
    KernelParams,
    build_model,
    cross_correlation,
    fit_mle,
    load_model,
    model_from_dict,
    model_to_dict,
    predict_batch,
    save_model,
)


def _random_distinct_design(rng, n, d, M):
    seen, rows = set(), []
    while len(rows) < n:
        cand = tuple(int(v) for v in rng.integers(1, M + 1, size=d))
        if cand not in seen:
            seen.add(cand)
            rows.append(cand)
    return design_from_array(np.array(rows), M)


def _rhs(f):
    """The likelihood's right-hand side [f, 1], as fit_mle builds it."""
    return np.column_stack([f, np.ones(f.size)])


class TestKernel:
    def test_identity(self):
        X = np.array([[1, 2, 3]])
        assert cross_correlation(X, X, [1.0, 2.0, 0.5])[0, 0] == 1.0

    def test_hand_value(self):
        # differs in factors 0 and 2: exp(-(0.5 + 2.0))
        x, y = np.array([[1, 2, 1]]), np.array([[2, 2, 2]])
        assert cross_correlation(x, y, [0.5, 1.0, 2.0])[0, 0] == pytest.approx(
            np.exp(-2.5), rel=1e-15
        )

    def test_covariance_matrix_psd_and_unit_diag(self):
        rng = np.random.default_rng(0)
        X = _random_distinct_design(rng, 8, 5, 3).as_array()
        G = cross_correlation(X, X, rng.uniform(0.2, 2.0, 5))
        assert np.allclose(np.diag(G), 1.0)
        assert np.allclose(G, G.T)
        assert np.linalg.eigvalsh(G).min() > -1e-10


class TestKernelParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelParams(np.array([1.0, -1.0]), 0.0, 1.0)
        with pytest.raises(ValueError):
            KernelParams(np.array([1.0]), 0.0, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="theta"):
            KernelParams(np.array([1.0, bad]), 0.0, 1.0)
        with pytest.raises(ValueError, match="mu"):
            KernelParams(np.array([1.0]), bad, 1.0)
        with pytest.raises(ValueError, match="tau2"):
            KernelParams(np.array([1.0]), 0.0, bad)


class TestPredict:
    def test_interpolation(self):
        rng = np.random.default_rng(2)
        D = _random_distinct_design(rng, 10, 6, 3)
        f = rng.normal(size=10)
        model = fit_mle(D, f, FitConfig(n_starts=4, seed=0))
        mean, var = predict_batch(model, D.as_array())
        frange = f.max() - f.min()
        assert np.max(np.abs(mean - f)) <= 1e-5 * frange
        assert var.max() <= 1e-5 * model.params.tau2

    def test_far_point_reverts_to_prior(self):
        # with large theta, an unrelated point has mean ~ mu, var ~ tau2
        D = design_from_array([[1, 1, 1], [2, 2, 2]], 3)
        model = build_model(
            D, [1.0, 3.0], KernelParams(np.full(3, 8.0), 2.0, 4.0)
        )
        (m,), (v,) = predict_batch(model, np.array([[3, 3, 3]]))
        assert m == pytest.approx(2.0, abs=1e-3)
        assert v == pytest.approx(4.0, rel=1e-3)


class TestBuildModel:
    def test_non_finite_response_rejected(self):
        D = design_from_array([[1, 1], [2, 2], [1, 2]], 2)
        with pytest.raises(ValueError, match="responses must be finite"):
            build_model(D, [0.0, np.nan, 1.0], KernelParams(np.ones(2), 0.0, 1.0))

    def test_response_shape_rejected(self):
        D = design_from_array([[1, 1], [2, 2], [1, 2]], 2)
        with pytest.raises(ValueError, match=r"responses shape \(2,\) does not match n=3"):
            build_model(D, [0.0, 1.0], KernelParams(np.ones(2), 0.0, 1.0))

    def test_n_is_the_design_size(self):
        D = design_from_array([[1, 1], [2, 2], [1, 2]], 2)
        assert build_model(D, [0.0, 1.0, 2.0], KernelParams(np.ones(2), 0.0, 1.0)).n == 3

    @pytest.mark.parametrize("nugget", [float("nan"), float("inf")])
    def test_non_finite_nugget_rejected(self, nugget):
        D = design_from_array([[1, 1], [2, 2], [1, 2]], 2)
        with pytest.raises(ValueError, match="nugget"):
            build_model(D, [0.0, 1.0, 2.0], KernelParams(np.ones(2), 0.0, 1.0), nugget)

    def test_negative_nugget_rejected(self):
        # -0.05 used to build a model whose mean at a design point read
        # 0.5244 against its response 0.5; a model file's nugget too
        D = design_from_array([[1, 1], [2, 2], [1, 2]], 2)
        with pytest.raises(ValueError, match=r"nugget=-0.05 must be finite and non-negative"):
            build_model(D, [0.5, 1.0, 2.0], KernelParams(np.ones(2), 0.0, 1.0), -0.05)
        obj = model_to_dict(build_model(D, [0.5, 1.0, 2.0], KernelParams(np.ones(2), 0.0, 1.0)))
        for constant in (False, True):
            with pytest.raises(ValueError, match=r"nugget=-0.05"):
                model_from_dict(dict(obj, nugget=-0.05, is_constant=constant))

    def test_singular_correlation_names_the_leading_minor(self):
        # rows 0 and 1 coincide, so without a nugget Gamma's second
        # leading minor is zero
        D = design_from_array([[1, 2], [1, 2], [2, 1]], 2)
        with pytest.raises(np.linalg.LinAlgError, match="2-th leading minor"):
            build_model(D, [1.0, 1.0, 0.0], KernelParams(np.ones(2), 0.0, 1.0), nugget=0.0)


class TestScipyLoader:
    def test_routines_come_from_the_extension_modules(self):
        for name, (package, module) in gp._Scipy._MODULES.items():
            assert getattr(gp._scipy, name) is getattr(
                gp._scipy_extension(package, module), name)
            assert module in ("_flapack", "_lbfgsb")

    def test_missing_module_raises_naming_its_path(self, monkeypatch, tmp_path):
        import scipy

        monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
        with pytest.raises(RuntimeError, match="_flapack") as err:
            gp._scipy_extension.__wrapped__("linalg", "_flapack")
        assert str(tmp_path / "linalg" / "_flapack") in str(err.value)

    def test_unknown_routine(self):
        with pytest.raises(AttributeError):
            gp._scipy.cholesky


class TestFitMle:
    def test_likelihood_dominates_starts(self):
        rng = np.random.default_rng(4)
        D = _random_distinct_design(rng, 12, 5, 3)
        f = np.sin(D.as_array().sum(axis=1)) + 0.1 * rng.normal(size=12)
        cfg = FitConfig(n_starts=6, seed=5)
        model = fit_mle(D, f, cfg)
        P = gp._pair_table(D.as_array())
        theta = model.params.theta
        best_nll = gp._nll_and_grad(np.log(theta), P, f, _rhs(f), gp.DEFAULT_NUGGET)[0]
        nll0 = gp._nll_and_grad(np.zeros(5), P, f, _rhs(f), gp.DEFAULT_NUGGET)[0]
        assert best_nll <= nll0 + 1e-9

    def test_recovers_signal_direction(self):
        # response depends only on factor 0: its theta should be largest
        rng = np.random.default_rng(6)
        D = _random_distinct_design(rng, 20, 4, 3)
        f = (D.as_array()[:, 0] == 1).astype(float) * 2.0 + 0.01 * rng.normal(size=20)
        model = fit_mle(D, f, FitConfig(seed=0))
        assert np.argmax(model.params.theta) == 0

    def test_constant_responses(self):
        D = design_from_array([[1, 1], [2, 2], [1, 2]], 2)
        model = fit_mle(D, [3.0, 3.0, 3.0])
        assert model.is_constant
        (m,), (v,) = predict_batch(model, np.array([[2, 1]]))
        assert m == 3.0 and v == 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_mle(design_from_array([[1, 1]], 2), [1.0])

    @pytest.mark.parametrize("f", [[3.0, 3.0, 3.0], [3.0, 1.0, 2.0], [[1.0] * 5]])
    def test_response_shape_rejected(self, f):
        # a constant short vector must not pass as a constant-response model
        D = design_from_array([[1, 1], [2, 2], [1, 2], [2, 1], [3, 3]], 3)
        with pytest.raises(ValueError, match="does not match n=5"):
            fit_mle(D, f)

    @pytest.mark.parametrize("n_starts", [0, -3, True, 2.5])
    def test_n_starts_must_be_positive(self, n_starts):
        with pytest.raises(ValueError, match="n_starts"):
            FitConfig(n_starts=n_starts)

    def test_numpy_integer_n_starts_fits(self):
        cfg = FitConfig(n_starts=np.int64(3))
        assert type(cfg.n_starts) is int and cfg.n_starts == 3
        D = design_from_array([[1, 1], [2, 2], [1, 2], [2, 1]], 2)
        got = fit_mle(D, [0.5, 1.0, -0.3, 2.0], cfg).params
        want = fit_mle(D, [0.5, 1.0, -0.3, 2.0], FitConfig(n_starts=3)).params
        assert np.array_equal(got.theta, want.theta) and got.mu == want.mu

    @pytest.mark.parametrize("seed", [-1, 1.0, 2.5, True, "3", None])
    def test_seed_must_be_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            FitConfig(seed=seed)

    def test_numpy_integer_seed_becomes_int(self):
        cfg = FitConfig(seed=np.uint64(3458842753))
        assert type(cfg.seed) is int and cfg.seed == 3458842753

    def test_non_finite_rejected(self):
        D = design_from_array([[1, 1], [2, 2]], 2)
        with pytest.raises(ValueError):
            fit_mle(D, [1.0, np.nan])

    def test_determinism(self):
        rng = np.random.default_rng(7)
        D = _random_distinct_design(rng, 8, 4, 3)
        f = rng.normal(size=8)
        a = fit_mle(D, f, FitConfig(seed=9))
        b = fit_mle(D, f, FitConfig(seed=9))
        assert np.array_equal(a.params.theta, b.params.theta)


# Profile NLL reached by the previous per-start Nelder-Mead fit (maxiter 200,
# xatol 1e-4, fatol 1e-8 on the clipped objective) on _snake_model(k)
NELDER_MEAD_NLL = [
    81.25767749371806, 92.30073706583316, 102.90109589648945,
    119.24114320203853, 136.20438598005865, 148.41813912756268,
    158.90927074691, 168.16167072144623, 184.1791893546229, 190.79197807352725,
]


def _fail_cholesky_below(monkeypatch, floor):
    """Make every factorisation of a matrix with an entry below `floor` in
    its lower triangle fail; returns the list the failures are appended to.
    The upper triangle is not judged: the likelihood's buffer leaves it
    stale."""
    real = gp._scipy.dpotrf
    failures = []

    def dpotrf(a, lower=0, **kwargs):
        low = a[np.tril_indices_from(a)].min()
        if low < floor:
            failures.append(low)
            return a, 1
        return real(a, lower=lower, **kwargs)

    monkeypatch.setattr(gp._scipy, "dpotrf", dpotrf)
    return failures


def _snake_model(k):
    """Design, responses and fit settings of the k-th likelihood model:
    n = 20 + 3k distinct rows of {1..5}^8, snake rewards."""
    from quip.simulators import default_snake, snake_reward

    D = _random_distinct_design(np.random.default_rng(k), 20 + 3 * k, 8, 5)
    world = default_snake()
    f = np.array([snake_reward(world, p).value for p in D.points])
    return D, f, FitConfig(n_starts=4, seed=k)


class TestLikelihood:
    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_central_differences(self, seed):
        rng = np.random.default_rng(seed)
        d = 5
        D = _random_distinct_design(rng, 12 + 2 * seed, d, 3)
        f = rng.normal(size=D.n)
        P = gp._pair_table(D.as_array())
        lt = rng.uniform(np.log(0.05), np.log(3.0), d)  # interior theta
        _, grad, _ = gp._nll_and_grad(lt, P, f, _rhs(f), gp.DEFAULT_NUGGET)
        h = 1e-5
        num = np.array([
            (gp._nll_and_grad(lt + h * e, P, f, _rhs(f), gp.DEFAULT_NUGGET)[0]
             - gp._nll_and_grad(lt - h * e, P, f, _rhs(f), gp.DEFAULT_NUGGET)[0]) / (2 * h)
            for e in np.eye(d)
        ])
        assert np.max(np.abs(grad - num)) <= 1e-5 * np.max(np.abs(grad))

    def test_wrapper_matches_direct_nll(self):
        # the profile NLL from first principles: mu and tau2 by GLS
        rng = np.random.default_rng(11)
        D = _random_distinct_design(rng, 10, 4, 3)
        f = rng.normal(size=10)
        theta = rng.uniform(0.2, 2.0, 4)
        X = D.as_array()
        K = cross_correlation(X, X, theta) + gp.DEFAULT_NUGGET * np.eye(10)
        Ki = np.linalg.inv(K)
        ones = np.ones(10)
        mu = (ones @ Ki @ f) / (ones @ Ki @ ones)
        tau2 = (f - mu) @ Ki @ (f - mu) / 10
        want = 5 * np.log(tau2) + 0.5 * np.linalg.slogdet(K)[1]
        nll, _, (th, mu1, tau21) = gp._nll_and_grad(
            np.log(theta), gp._pair_table(D.as_array()), f, _rhs(f), gp.DEFAULT_NUGGET
        )
        assert nll == pytest.approx(want, rel=1e-10)
        assert mu1 == pytest.approx(mu, rel=1e-8) and tau21 == pytest.approx(tau2, rel=1e-8)
        assert np.allclose(th, theta, rtol=1e-14)

    def test_nll_no_worse_than_nelder_mead(self):
        nll = []
        for k in range(10):
            D, f, cfg = _snake_model(k)
            model = fit_mle(D, f, cfg)
            nll.append(gp._nll_and_grad(
                np.log(model.params.theta), gp._pair_table(D.as_array()), f, _rhs(f),
                gp.DEFAULT_NUGGET)[0])
        # on model 2 the simplex crossed into a basin (102.901) that no
        # L-BFGS-B search from the same four starts reaches (best 103.042)
        worse = {k for k in range(10) if nll[k] > NELDER_MEAD_NLL[k] + 1e-9}
        assert worse <= {2}
        assert nll[2] <= NELDER_MEAD_NLL[2] + 0.15
        assert sum(nll) < sum(NELDER_MEAD_NLL)

    def test_failed_cholesky_at_a_start_does_not_abort(self, monkeypatch):
        # factorisations of a correlation matrix with an entry below
        # exp(-2.5) fail: the unit start does (rows 3 apart), and so do
        # line-search steps that leave the region
        rng = np.random.default_rng(12)
        D = _random_distinct_design(rng, 14, 4, 3)
        f = rng.normal(size=14)
        failures = _fail_cholesky_below(monkeypatch, np.exp(-2.5))
        X = D.as_array()
        P = gp._pair_table(X)
        assert gp._nll_and_grad(np.zeros(4), P, f, _rhs(f), gp.DEFAULT_NUGGET) is None
        cfg = FitConfig(n_starts=4, seed=0)
        model = fit_mle(D, f, cfg)
        assert len(failures) > 1
        theta = model.params.theta
        nll = gp._nll_and_grad(np.log(theta), P, f, _rhs(f), gp.DEFAULT_NUGGET)[0]
        assert np.isfinite(nll)
        assert cross_correlation(X, X, model.params.theta).min() >= np.exp(-2.5)

    def test_failed_cholesky_everywhere_raises(self, monkeypatch):
        monkeypatch.setattr(gp._scipy, "dpotrf", lambda a, lower=0, **kwargs: (a, 1))
        D = design_from_array([[1, 1], [2, 2], [1, 2]], 2)
        with pytest.raises(DegenerateResponseError):
            fit_mle(D, [0.0, 1.0, 2.0], FitConfig(n_starts=2))

    def test_no_positive_variance_is_a_failure(self, monkeypatch):
        # equal columns of K^{-1}[f, 1] give mu = 1 and a = 0, so tau2 = 0:
        # the evaluation fails instead of taking log(0)
        monkeypatch.setattr(gp._scipy, "dpotrs",
                            lambda L, b, **kwargs: (np.ones((b.shape[0], 2)), 0))
        f = np.array([0.0, 1.0, 2.0])
        P = gp._pair_table(np.array([[1, 1], [2, 2], [1, 2]]))
        assert gp._nll_and_grad(np.zeros(2), P, f, _rhs(f), gp.DEFAULT_NUGGET) is None


_SOBOL_SEEDS = [0, 1, 17, 3458842753, 2**32 + 5]


class TestSobol:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 12, 20, 40])
    def test_matches_scipy_scrambled_sobol(self, d):
        from scipy.stats import qmc

        for seed in _SOBOL_SEEDS:
            for n in [1 << k for k in range(7)]:
                want = qmc.Sobol(d, scramble=True, seed=seed).random(n)
                assert np.array_equal(gp._sobol(d, n, seed), want), (d, n, seed)

    def test_cached_and_read_only(self):
        a = gp._sobol(4, 8, 3)
        assert gp._sobol(4, 8, 3) is a
        with pytest.raises(ValueError):
            a[0, 0] = 0.5

    def test_dimension_above_the_shipped_ones_rejected(self):
        with pytest.raises(ValueError, match="d=21202 exceeds the 21201 Sobol"):
            gp._sobol.__wrapped__(21202, 2, 0)

    def test_table_matches_scipy_direction_numbers(self):
        import scipy

        npz = os.path.join(os.path.dirname(scipy.__file__), "stats",
                           "_sobol_direction_numbers.npz")
        with np.load(npz) as z:
            poly, vinit = z["poly"].tolist(), z["vinit"].tolist()
        table = (resources.files("quip.data") / "sobol_directions.txt").read_text()
        lines = table.splitlines()
        assert len(lines) == len(poly) == 21201
        for j, line in enumerate(lines):
            deg = poly[j].bit_length() - 1
            assert line == " ".join(map(str, [poly[j], *vinit[j][:deg]])), j

    def test_reads_no_npz(self, monkeypatch):
        from scipy.stats import qmc

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.load called")

        want = qmc.Sobol(6, scramble=True, seed=2).random(4)
        monkeypatch.setattr(np, "load", refuse)
        assert np.array_equal(gp._sobol.__wrapped__(6, 4, 2), want)


def _parent_mismatch(X):
    """(n*n, d) float indicator of the factors on which two design rows
    differ, row i*n + j for the pair (i, j): the n^2 likelihood's table."""
    return (X[:, None, :] != X[None, :, :]).reshape(-1, X.shape[1]).astype(float)


def _parent_nll_and_grad(log_theta, E, f, nugget):
    """The likelihood as fit_mle evaluated it over all n^2 ordered pairs,
    with LAPACK copying its input."""
    n = f.size
    theta = np.exp(log_theta)
    gamma = np.exp(-(E @ theta)).reshape(n, n)
    gamma.flat[:: n + 1] += nugget
    L, info = gp._scipy.dpotrf(gamma, lower=1)
    if info != 0:
        return None
    sol, _ = gp._scipy.dpotrs(L, np.column_stack([f, np.ones(n)]), lower=1)
    mu = sol[:, 0].sum() / sol[:, 1].sum()
    a = sol[:, 0] - mu * sol[:, 1]
    tau2 = float((f - mu) @ a) / n
    if not tau2 > 0:
        return None
    nll = 0.5 * n * math.log(tau2) + float(np.sum(np.log(np.diagonal(L))))
    K_inv, _ = gp._scipy.dpotri(L, lower=1)
    W = (2.0 * K_inv - np.outer(a, a / tau2)) * gamma
    grad = -0.5 * theta * (W.ravel() @ E)
    return nll, grad, (theta, mu, tau2)


def _pair_likelihood(D, f):
    """fit_mle's likelihood of (D, f) as a function of log theta."""
    P, rhs = gp._pair_table(D.as_array()), _rhs(f)
    return lambda lt: gp._nll_and_grad(lt, P, f, rhs, gp.DEFAULT_NUGGET)


def _parent_likelihood(D, f):
    """The n^2 likelihood of (D, f) as a function of log theta."""
    E = _parent_mismatch(D.as_array())
    return lambda lt: _parent_nll_and_grad(lt, E, f, gp.DEFAULT_NUGGET)


def _minimize_fit(D, f, cfg, likelihood):
    """(theta, mu, tau2) by scipy's minimize on `likelihood`, a function of
    log theta, from qmc.Sobol starts: the procedure fit_mle runs in-house."""
    from scipy.optimize import minimize
    from scipy.stats import qmc

    d = D.d
    starts = [np.zeros(d)]
    if cfg.n_starts > 1:
        m = cfg.n_starts - 1
        pow2 = 1 << (m - 1).bit_length()
        extra = qmc.Sobol(d, scramble=True, seed=cfg.seed).random(pow2)[:m]
        starts.extend(gp.LOG_THETA_LO + (gp.LOG_THETA_HI - gp.LOG_THETA_LO) * extra)

    def objective(lt):
        out = likelihood(lt)
        return (gp._FAILED_NLL, np.zeros(d)) if out is None else out[:2]

    best_nll, best = np.inf, None
    for s in starts:
        res = minimize(objective, s, jac=True, method="L-BFGS-B",
                       bounds=[(gp.LOG_THETA_LO, gp.LOG_THETA_HI)] * d,
                       options={"maxiter": gp._MAX_ITER})
        for lt in (s, res.x):
            out = likelihood(lt)
            if out is not None and out[0] < best_nll:
                best_nll, best = out[0], out[2]
    return best


def _frozen_campaign_state(iteration):
    """Design, responses and fit seed before an iteration of the snake
    campaign frozen in perfbench/refs.json."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "refs.json")) as fh:
        c = json.load(fh)["campaign"]
    n = c["n_init"] + iteration - 1
    D = design_from_array(np.asarray(c["points"][:n]), c["M"])
    return D, np.asarray(c["responses"][:n], dtype=float), c["fit_seed"]


def _oracle_case(kind, k):
    """Design, responses and fit seed of a snake model or a frozen state."""
    if kind == "snake":
        D, f, cfg = _snake_model(k)
        return D, f, cfg.seed
    return _frozen_campaign_state(k)


_ORACLE_CASES = [("snake", k) for k in range(6)] + [("frozen", i) for i in (1, 16, 30)]

# relative bounds of the pair likelihood against the n^2 one, about 50 times
# the largest differences over 320 points of the ten snake models: 0 (NLL),
# 2.7e-16 (tau2), 2.9e-14 (mu) and 3.5e-13 of max|grad|
NLL_REL, TAU2_REL, MU_REL, GRAD_REL = 1.5e-14, 2.5e-14, 5e-12, 2e-11


class TestFitOracle:
    """fit_mle returns the bits of scipy's minimize on the same likelihood,
    in-process, and fits as well as minimize on the n^2 likelihood."""

    def _check(self, D, f, seed, n_starts):
        cfg = FitConfig(n_starts=n_starts, seed=seed)
        theta, mu, tau2 = _minimize_fit(D, f, cfg, _pair_likelihood(D, f))
        p = fit_mle(D, f, cfg).params
        assert np.array_equal(p.theta, theta)
        assert p.mu == mu and p.tau2 == tau2

    @pytest.mark.parametrize("n_starts", [4, 8])
    @pytest.mark.parametrize("k", range(6))
    def test_snake_models(self, k, n_starts):
        D, f, cfg = _snake_model(k)
        self._check(D, f, cfg.seed, n_starts)

    @pytest.mark.parametrize("n_starts", [4, 8])
    @pytest.mark.parametrize("iteration", [1, 16, 30])
    def test_frozen_campaign_states(self, iteration, n_starts):
        D, f, seed = _frozen_campaign_state(iteration)
        self._check(D, f, seed, n_starts)

    @pytest.mark.parametrize("n_starts", [4, 8])
    @pytest.mark.parametrize("kind,k", _ORACLE_CASES)
    def test_no_worse_than_the_n2_likelihood_fit(self, kind, k, n_starts):
        # both fits scored by the n^2 likelihood: its last bits may move
        # the searches, but not to a worse optimum than the searches
        # resolve. L-BFGS-B stops once an iteration gains less than
        # ftol = 2.22e-9 of |nll|; along a flat ridge (snake model 4, 4
        # starts) the n^2 fit itself moves by 6.2e-9 nats between one and
        # two BLAS threads.
        D, f, seed = _oracle_case(kind, k)
        cfg = FitConfig(n_starts=n_starts, seed=seed)
        parent = _parent_likelihood(D, f)
        nll0 = parent(np.log(_minimize_fit(D, f, cfg, parent)[0]))[0]
        theta = fit_mle(D, f, cfg).params.theta
        assert parent(np.log(theta))[0] <= nll0 + 2.220446049250313e-09 * max(1.0, abs(nll0))

    def test_no_evaluation_outside_the_searches(self, monkeypatch):
        # the start and the returned x are read back from the searches' own
        # evaluations, also where the line search ends abnormally and the
        # driver returns an earlier iterate (the fourth start here)
        rng = np.random.default_rng(0)
        D = _random_distinct_design(rng, 14, 4, 3)
        f = rng.normal(size=14)
        _fail_cholesky_below(monkeypatch, np.exp(-2.5))
        cfg = FitConfig(n_starts=4, seed=0)
        theta, mu, tau2 = _minimize_fit(D, f, cfg, _pair_likelihood(D, f))
        nll_calls, search_calls = [0], [0]
        real_nll, real_lbfgsb = gp._nll_and_grad, gp._lbfgsb

        def nll(*args):
            nll_calls[0] += 1
            return real_nll(*args)

        def lbfgsb(objective, x0):
            def counted(x):
                search_calls[0] += 1
                return objective(x)

            return real_lbfgsb(counted, x0)

        monkeypatch.setattr(gp, "_nll_and_grad", nll)
        monkeypatch.setattr(gp, "_lbfgsb", lbfgsb)
        p = fit_mle(D, f, cfg).params
        assert nll_calls[0] == search_calls[0] > 0
        assert np.array_equal(p.theta, theta) and p.mu == mu and p.tau2 == tau2

    def test_leaner_likelihood_same_bits(self):
        # the pair likelihood against the n^2 one, at both clips and 30
        # points between them on each of the ten snake models. Not bit for
        # bit: a length-d dot product over the pair rows can round apart
        # from one over the n^2 rows, and the gradient sums in another
        # order.
        rng = np.random.default_rng(0)
        for k in range(10):
            D, f, _ = _snake_model(k)
            pair, parent = _pair_likelihood(D, f), _parent_likelihood(D, f)
            clips = [np.full(D.d, gp.LOG_THETA_LO), np.full(D.d, gp.LOG_THETA_HI)]
            for lt in [*clips, *rng.uniform(gp.LOG_THETA_LO, gp.LOG_THETA_HI, (30, D.d))]:
                nll, grad, (th, mu, tau2) = pair(lt)
                nll0, grad0, (th0, mu0, tau20) = parent(lt)
                assert np.array_equal(th, th0)
                assert nll == pytest.approx(nll0, rel=NLL_REL, abs=0)
                assert tau2 == pytest.approx(tau20, rel=TAU2_REL, abs=0)
                assert mu == pytest.approx(mu0, rel=MU_REL, abs=0)
                assert np.max(np.abs(grad - grad0)) <= GRAD_REL * np.max(np.abs(grad0))


class TestLbfgsbDriver:
    """gp._lbfgsb returns minimize's x bit for bit on the exits the fit
    oracle may never reach."""

    @staticmethod
    def _objective(D, f):
        P = gp._pair_table(D.as_array())
        rhs = _rhs(f)

        def objective(lt):
            out = gp._nll_and_grad(lt, P, f, rhs, gp.DEFAULT_NUGGET)
            return (gp._FAILED_NLL, np.zeros(D.d)) if out is None else out[:2]

        return objective

    @staticmethod
    def _minimize(objective, x0):
        from scipy.optimize import minimize

        return minimize(objective, x0, jac=True, method="L-BFGS-B",
                        bounds=[(gp.LOG_THETA_LO, gp.LOG_THETA_HI)] * x0.size,
                        options={"maxiter": gp._MAX_ITER})

    def test_lbfgsb_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(gp, "_MAX_ITER", 2)
        D, f, _ = _snake_model(0)
        objective = self._objective(D, f)
        x0 = np.zeros(D.d)
        res = self._minimize(objective, x0)
        assert res.nit == 2 and res.status == 1  # stopped by the cap
        assert np.array_equal(gp._lbfgsb(objective, x0)[0], res.x)

    def test_lbfgsb_line_search_fails_on_failed_nll(self, monkeypatch):
        rng = np.random.default_rng(0)
        D = _random_distinct_design(rng, 14, 4, 3)
        f = rng.normal(size=14)
        failures = _fail_cholesky_below(monkeypatch, np.exp(-2.5))
        objective = self._objective(D, f)
        x0 = gp.LOG_THETA_LO + (gp.LOG_THETA_HI - gp.LOG_THETA_LO) * gp._sobol(4, 3, 0)[2]
        res = self._minimize(objective, x0)
        assert res.status == 2 and res.message.startswith("ABNORMAL")
        assert failures and np.isfinite(res.fun) and res.fun < gp._FAILED_NLL
        assert np.array_equal(gp._lbfgsb(objective, x0)[0], res.x)

    def test_lbfgsb_start_on_a_bound(self):
        D, f, _ = _snake_model(1)
        objective = self._objective(D, f)
        x0 = np.full(D.d, gp.LOG_THETA_LO)
        res = self._minimize(objective, x0)
        assert res.nit > 0 and not np.array_equal(res.x, x0)
        assert np.array_equal(gp._lbfgsb(objective, x0)[0], res.x)

    @pytest.mark.parametrize(
        "exit_", ["converged", "iteration_cap", "line_search_fails", "start_on_a_bound"]
    )
    def test_lbfgsb_returns_the_output_at_its_x(self, monkeypatch, exit_):
        # on each exit the driver hands back the likelihood output at the x
        # it returns, as a fresh evaluation there gives it bit for bit
        if exit_ == "line_search_fails":
            rng = np.random.default_rng(0)
            D = _random_distinct_design(rng, 14, 4, 3)
            f = rng.normal(size=14)
            _fail_cholesky_below(monkeypatch, np.exp(-2.5))
            x0 = gp.LOG_THETA_LO + (gp.LOG_THETA_HI - gp.LOG_THETA_LO) * gp._sobol(4, 3, 0)[2]
        else:
            D, f, _ = _snake_model(1)
            x0 = np.full(D.d, gp.LOG_THETA_LO if exit_ == "start_on_a_bound" else 0.0)
        if exit_ == "iteration_cap":
            monkeypatch.setattr(gp, "_MAX_ITER", 2)
        res = self._minimize(self._objective(D, f), x0)
        want = {"converged": 0, "iteration_cap": 1, "line_search_fails": 2,
                "start_on_a_bound": 0}[exit_]
        assert res.status == want and res.nit > 0
        P, rhs = gp._pair_table(D.as_array()), _rhs(f)
        x, out = gp._lbfgsb(lambda lt: gp._nll_and_grad(lt, P, f, rhs, gp.DEFAULT_NUGGET), x0)
        assert np.array_equal(x, res.x)
        nll, grad, (theta, mu, tau2) = gp._nll_and_grad(x, P, f, rhs, gp.DEFAULT_NUGGET)
        assert out[0] == nll and np.array_equal(out[1], grad)
        assert np.array_equal(out[2][0], theta) and (out[2][1], out[2][2]) == (mu, tau2)


class TestPairEvaluator:
    """Each likelihood evaluation stands alone, although all of one fit's
    evaluations factor and invert in the pair table's one buffer."""

    @staticmethod
    def _case():
        # rows 2 and 7 repeat, and so do rows 5, 9 and 11
        rng = np.random.default_rng(3)
        X = rng.integers(1, 4, size=(12, 4))
        X[7] = X[2]
        X[9] = X[11] = X[5]
        f = rng.normal(size=12)
        return X, f, rng.uniform(gp.LOG_THETA_LO, gp.LOG_THETA_HI, (3, 4))

    @staticmethod
    def _same(out, want):
        assert out[0] == want[0] and np.array_equal(out[1], want[1])
        assert np.array_equal(out[2][0], want[2][0]) and out[2][1:] == want[2][1:]

    def test_gamma_from_the_pair_table(self, monkeypatch):
        X, f, lts = self._case()
        real, seen = gp._scipy.dpotrf, []

        def dpotrf(a, **kwargs):
            seen.append(a.copy())
            return real(a, **kwargs)

        monkeypatch.setattr(gp._scipy, "dpotrf", dpotrf)
        P = gp._pair_table(X)
        for lt in lts:
            gp._nll_and_grad(lt, P, f, _rhs(f), gp.DEFAULT_NUGGET)
        assert len(seen) == len(lts)
        low = np.tril_indices(X.shape[0])
        for lt, K in zip(lts, seen):
            want = cross_correlation(X, X, np.exp(lt)) + gp.DEFAULT_NUGGET * np.eye(12)
            assert np.allclose(K[low], want[low], rtol=1e-14, atol=0)

    def test_evaluation_does_not_depend_on_the_ones_before(self, monkeypatch):
        # theta_1, then theta_2 whose factorisation overwrites the buffer and
        # fails, then theta_1 again; and theta_1 where f2py copies each input
        X, f, (lt1, lt2, _) = self._case()
        P, rhs = gp._pair_table(X), _rhs(f)
        first = gp._nll_and_grad(lt1, P, f, rhs, gp.DEFAULT_NUGGET)
        assert first is not None
        real_f, real_i = gp._scipy.dpotrf, gp._scipy.dpotri
        monkeypatch.setattr(gp._scipy, "dpotrf", lambda a, **kw: (real_f(a, **kw)[0], 1))
        assert gp._nll_and_grad(lt2, P, f, rhs, gp.DEFAULT_NUGGET) is None
        monkeypatch.setattr(gp._scipy, "dpotrf", real_f)
        self._same(gp._nll_and_grad(lt1, P, f, rhs, gp.DEFAULT_NUGGET), first)
        monkeypatch.setattr(gp._scipy, "dpotrf",
                            lambda a, **kw: real_f(a, **dict(kw, overwrite_a=0)))
        monkeypatch.setattr(gp._scipy, "dpotri",
                            lambda c, **kw: real_i(c, **dict(kw, overwrite_c=0)))
        self._same(gp._nll_and_grad(lt1, P, f, rhs, gp.DEFAULT_NUGGET), first)

    def test_output_outlives_later_evaluations(self):
        X, f, lts = self._case()
        P, rhs = gp._pair_table(X), _rhs(f)
        _, grad, (theta, _, _) = gp._nll_and_grad(lts[0], P, f, rhs, gp.DEFAULT_NUGGET)
        kept = grad.copy(), theta.copy()
        for lt in lts[1:]:
            gp._nll_and_grad(lt, P, f, rhs, gp.DEFAULT_NUGGET)
        assert np.array_equal(grad, kept[0]) and np.array_equal(theta, kept[1])
        assert not np.shares_memory(grad, P.work) and not np.shares_memory(theta, P.work)


class TestDuplicateRows:
    def _data(self):
        rng = np.random.default_rng(0)
        X = rng.integers(1, 4, size=(10, 4))
        f = rng.normal(size=10)
        return X, f

    def test_conflicting_responses_rejected(self):
        # previously: theta pinned at the 1e-3 clip and tau2 ~ 2.1e6
        X, f = self._data()
        D = design_from_array(np.vstack([X, X[:2]]), 3)
        with pytest.raises(ValueError, match="rows 0 and 10 are identical"):
            fit_mle(D, np.append(f, f[:2] + 0.5))

    def test_first_copy_is_the_earliest_row(self):
        # rows 0, 1 and 2 are one point; only row 2's response differs
        X, f = self._data()
        X[1] = X[2] = X[0]
        f[1] = f[0]
        D = design_from_array(X, 3)
        with pytest.raises(ValueError, match="rows 0 and 2 are identical"):
            fit_mle(D, f)

    def test_conflicting_repeat_of_a_later_row(self):
        X, f = self._data()
        D = design_from_array(np.vstack([X, X[3]]), 3)
        with pytest.raises(ValueError, match="rows 3 and 10 are identical"):
            fit_mle(D, np.append(f, f[3] - 1.0))

    def test_repeats_with_equal_responses_fit(self):
        X, f = self._data()
        D = design_from_array(np.vstack([X, X[:2]]), 3)
        model = fit_mle(D, np.append(f, f[:2]), FitConfig(n_starts=4, seed=0))
        mean, _ = predict_batch(model, X)
        assert np.max(np.abs(mean - f)) <= 1e-5 * (f.max() - f.min())


class TestSerialization:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        D = _random_distinct_design(rng, 6, 4, 3)
        f = rng.normal(size=6)
        model = fit_mle(D, f, FitConfig(n_starts=2, seed=0))
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path)
        X = rng.integers(1, 4, size=(10, 4))
        m0, v0 = predict_batch(model, X)
        m1, v1 = predict_batch(loaded, X)
        assert np.allclose(m0, m1, atol=1e-12)
        assert np.allclose(v0, v1, atol=1e-12)

    def test_constant_round_trip(self):
        D = design_from_array([[1, 1], [2, 2]], 2)
        model = fit_mle(D, [5.0, 5.0])
        again = model_from_dict(model_to_dict(model))
        assert again.is_constant
        mean, var = predict_batch(again, np.array([[1, 2]]))
        assert (mean[0], var[0]) == (5.0, 0.0)

