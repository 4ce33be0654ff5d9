import dataclasses
import heapq
import itertools
import json
import os
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quip import acquisition
from quip.acquisition import (
    AcquisitionSpec,
    _BnB,
    _objective,
    _objective_batch,
    allowance,
    candidate_set_acquisition,
    enumerate_acquisition,
    optimize_acquisition,
    random_point,
)
from quip.encoding import Point, design_from_array, lattice_array
from quip.gp import (
    FitConfig,
    KernelParams,
    _posterior,
    build_model,
    fit_mle,
    predict_batch,
)

THETA_CLIP = 1e-3  # the fit's lower theta clip, exp(gp.LOG_THETA_LO)
THETA_HI = 10.0  # its upper clip, exp(gp.LOG_THETA_HI)


def _model(seed, n=6, d=4, M=3, theta_scale=1.0):
    rng = np.random.default_rng(seed)
    seen, rows = set(), []
    while len(rows) < n:
        cand = tuple(int(v) for v in rng.integers(1, M + 1, size=d))
        if cand not in seen:
            seen.add(cand)
            rows.append(cand)
    D = design_from_array(np.array(rows), M)
    theta = rng.uniform(0.2, 2.0, d) * theta_scale
    params = KernelParams(theta, rng.normal(), rng.uniform(0.5, 2.0))
    f = rng.normal(size=n)
    return build_model(D, f, params)


def _clip_model(seed, n, d, M, theta=None):
    """Model with theta at the fit's lower clip in all factors but one, so
    Gamma is near-singular and W has large entries of both signs, or with
    the given theta."""
    rng = np.random.default_rng(seed)
    full = lattice_array(d, M)
    rows = full[rng.choice(len(full), n, replace=False)]
    if theta is None:
        theta = np.full(d, THETA_CLIP)
        theta[rng.integers(d)] = rng.uniform(0.2, 2.0)
    params = KernelParams(theta, rng.normal(), rng.uniform(0.5, 2.0))
    return build_model(design_from_array(rows, M), rng.normal(size=n), params)


def _upper(bnb, levels):
    """Reference prefix product U per training point for a level prefix in
    the branching order, multiplied left to right over its depths."""
    U = np.ones(bnb.n)
    for depth, v in enumerate(levels):
        U = U * bnb.F[depth][v - 1]
    return U


def _cert_tol(model, spec, point, value):
    """The documented certificate tolerance on an objective value, the
    library's `allowance` at the point's variance."""
    _, (var,) = predict_batch(model, np.asarray([point.levels]))
    return allowance(model, spec.kind, value, var, spec.lam)


def _check_gap0_solve(model, spec, rep):
    """A gap-0 solve against enumeration: certified, and its value and its
    certified bound within the allowance of the enumerated optimum."""
    pt, opt = enumerate_acquisition(model, spec)
    tol = _cert_tol(model, spec, pt, opt)
    assert rep.status == "optimal"
    assert abs(rep.best_value - opt) <= tol
    assert rep.certified_bound >= opt - tol


def _pinned_flaky_model():
    """Clip-pinned UCB model on which a rel 1e-9 tolerance alone once failed
    (branch and bound 0.8847571336, enumeration 0.8847571299)."""
    full = lattice_array(3, 2)
    f = np.all(full == 2, axis=1).astype(float)  # 1 at point 222
    params = KernelParams(np.full(3, THETA_CLIP), 1.0625, 1.0)
    return build_model(design_from_array(full, 2), f, params)


def _rounding_pinned_model():
    """Clip-pinned model on which the Q bound, before its rounding slack,
    fell below the leaves' triangular-solve Q: UCB prefix (3, 2) was bounded
    at 0.16201796598 against its leaf's 0.16201796619."""
    rows = [[1, 2, 2], [2, 1, 2], [2, 3, 2], [1, 1, 1], [1, 2, 1], [2, 2, 2]]
    params = KernelParams(np.full(3, THETA_CLIP), 0.0, 1.0)
    return build_model(design_from_array(rows, 3), np.zeros(6), params)


def _root_rounding_model():
    """UCB model whose optimum has variance 1e-8, where sqrt(var) amplifies
    the variance's rounding: branch and bound scores the optimum (1, 2, 2)
    at 0.0002960166767693913 and enumeration at 0.00029601667348310546, a
    difference of 3.3e-12, above the mean's rounding n * eps * sum|alpha|
    = 3.1e-13 but within the square-root term lam * delta / sqrt(var)."""
    rows = [[1, 1, 1], [1, 1, 2], [2, 2, 1], [1, 2, 1], [1, 2, 2], [2, 1, 2], [2, 2, 2]]
    params = KernelParams(np.array([THETA_CLIP, 0.5, 0.25]), 0.0, 1.0)
    return build_model(design_from_array(rows, 2), [-1, 0, 0, 0, 0, 0, 0], params)


def _mean_rounding_model():
    """Clip-pinned model (sum|alpha| = 2.5e6) on which the UCB mean bound of
    prefix (1, 2) lies 7.8e-11 above the exactly summed leaf maximum but
    1.27e-10 below the float mu + G @ alpha."""
    rows = [[1, 1, 2], [1, 2, 1], [1, 1, 1], [2, 1, 1], [2, 2, 1]]
    params = KernelParams(np.full(3, THETA_CLIP), 0.42304227729617194, 1.7728026213577028)
    f = [-0.7194577397621966, 0.8524986902532271, -1.3731799765771042,
         0.29094754145561796, -0.014561985092286095]
    return build_model(design_from_array(rows, 2), f, params)


@st.composite
def _small_models(draw):
    """Random model with d <= 4, M <= 3 and n <= 8 distinct design rows."""
    d = draw(st.integers(1, 4))
    M = draw(st.integers(2, 3))
    full = lattice_array(d, M)
    n = draw(st.integers(1, min(8, len(full))))
    rows = draw(
        st.lists(st.integers(0, len(full) - 1), min_size=n, max_size=n, unique=True)
    )
    # some factors at the fit's lower clip, where Gamma is near-singular
    theta = draw(
        st.lists(
            st.one_of(st.just(THETA_CLIP), st.floats(0.05, 3.0)),
            min_size=d,
            max_size=d,
        )
    )
    f = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    params = KernelParams(
        np.array(theta), draw(st.floats(-2.0, 2.0)), draw(st.floats(0.1, 3.0))
    )
    return build_model(design_from_array(full[rows], M), f, params)


class TestSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AcquisitionSpec("ei")
        with pytest.raises(ValueError):
            AcquisitionSpec("ucb", lam=-1.0)
        with pytest.raises(ValueError):
            AcquisitionSpec("alm", gap_tolerance=1.0)

    @pytest.mark.parametrize("lam", [float("nan"), float("inf")])
    def test_lambda_must_be_finite(self, lam):
        with pytest.raises(ValueError, match="lambda"):
            AcquisitionSpec("ucb", lam=lam)

    @pytest.mark.parametrize("limit", [0, 0.0, -1.0, float("inf"), float("nan")])
    def test_time_limit_must_be_finite_positive(self, limit):
        with pytest.raises(ValueError):
            AcquisitionSpec("ucb", time_limit=limit)

    def test_time_limit_accepts_none_and_positive(self):
        assert AcquisitionSpec("ucb").time_limit is None
        assert AcquisitionSpec("ucb", time_limit=0.5).time_limit == 0.5


class TestEvalFunctions:
    def test_alm_variance_consistency(self):
        # the ALM objective is tau2 * (1 - Q) with Q = g' K^{-1} g, and it
        # is the posterior variance
        model = _model(0)
        rng = np.random.default_rng(1)
        X = np.array([
            random_point(model.design.d, model.design.M, rng).levels for _ in range(100)
        ])
        alm = _objective_batch(model, X, AcquisitionSpec("alm"))
        _, var = predict_batch(model, X)
        K = model.chol @ model.chol.T
        D = model.design.as_array()
        for x, a, v in zip(X, alm, var):
            g = np.exp(-((D != x) @ model.params.theta))
            q = g @ np.linalg.solve(K, g)
            assert abs(model.params.tau2 * (1.0 - q) - a) <= 1e-10
            assert abs(a - v) <= 1e-10

    def test_ucb_closed_form_n1_consistency(self):
        model = _model(2)
        x = np.array([[1, 2, 3, 1]])
        (mean,), (var,) = predict_batch(model, x)
        ucb = _objective_batch(model, x, AcquisitionSpec("ucb", lam=2.0))[0]
        assert ucb == pytest.approx(mean + 2.0 * np.sqrt(var), abs=1e-12)

    def test_alm_zero_at_training_points(self):
        model = _model(3)
        _, var = predict_batch(model, model.design.as_array())
        assert np.all(var <= 1e-6 * model.params.tau2)


class TestBoundAdmissibility:
    @staticmethod
    def _check_subtrees(model):
        # every internal node's objective bound >= max objective over its
        # subtree, and each use of linmax holds there alone: the Q bound <=
        # min Q and, for UCB, the mean bound >= max mean and, where applied,
        # the tangent plane >= max UCB. Each holds to the smaller of 1e-10
        # and the documented `allowance` (for Q, the ALM one over tau2; for
        # the mean, the UCB one at lambda 0). The reference mean is summed
        # exactly from the float rows G and alpha and rounded once, since
        # mu + G @ alpha itself rounds by about n * eps * sum|alpha|
        d, M = model.design.d, model.design.M
        tau2 = model.params.tau2
        mu, alpha = Fraction(model.params.mu), [Fraction(a) for a in model.alpha]

        def tol(kind, value, var=0.0, lam=0.0, scale=1.0):
            return min(1e-10, allowance(model, kind, value, var, lam) / scale)

        full = lattice_array(d, M)
        for kind in ("alm", "ucb"):
            spec = AcquisitionSpec(kind, gap_tolerance=0.0)
            bnb = _BnB(model, spec)
            G = np.stack([_upper(bnb, tuple(row[bnb.order])) for row in full])
            mean = np.array(
                [float(mu + sum(Fraction(v) * a for v, a in zip(g, alpha))) for g in G])
            _, var = _posterior(model, G)
            vals = var if kind == "alm" else mean + spec.lam * np.sqrt(var)
            Q = np.einsum("ij,ij->i", G @ bnb.W, G)
            for depth in range(d):
                for prefix in itertools.product(range(1, M + 1), repeat=depth):
                    # subtree members: points agreeing with prefix in the
                    # branching order
                    inside = np.all(full[:, bnb.order[:depth]] == prefix, axis=1)
                    U = _upper(bnb, prefix)[None, :]
                    k = np.flatnonzero(inside)[np.argmax(vals[inside])]
                    top, top_var, q_min = vals[k], var[k], Q[inside].min()
                    top_tol = tol(kind, top, top_var, spec.lam)
                    bound = bnb._bounds(U, depth)[0]
                    assert bound >= top - top_tol, (kind, prefix)
                    (q_low,), mean_high, tangent = bnb._parts(U, depth)
                    q_tol = tol("alm", tau2 * (1.0 - q_min), scale=tau2)
                    assert q_low <= q_min + q_tol, (kind, prefix)
                    if kind == "ucb":
                        m = mean[inside].max()
                        assert mean_high[0] >= m - tol("ucb", m), prefix
                        assert tangent[0] >= top - top_tol, prefix

    def test_bound_dominates_subtree(self):
        self._check_subtrees(_model(4, n=5, d=3, M=2))
        # clip-pinned: W has large entries of both signs, so the rows w of
        # the Q and tangent bounds do too
        self._check_subtrees(_clip_model(0, n=8, d=3, M=3))
        self._check_subtrees(_clip_model(14, n=10, d=4, M=3))

    @settings(max_examples=40, deadline=None)
    @given(model=_small_models())
    @example(model=_rounding_pinned_model())
    @example(model=_mean_rounding_model())
    def test_bound_dominates_subtree_property(self, model):
        self._check_subtrees(model)


class TestLinmax:
    """`_linmax` against the brute-force maximum of l'g over every subtree,
    for random coefficients l of mixed sign (rows w = l o U), and against
    the same bound in its sign-split form."""

    @staticmethod
    def _split_form(bnb, w, depth):
        """The bound as sum c - sum_j min_v sum_r beta_r Z[j, v, r] with the
        mismatch table Z[j, v, r] = theta_j 1{X_rj != v}: the chord c = w,
        beta = kappa w for w >= 0, and for w < 0 the far-corner tangent
        c = exp(-T)(1 + T) w, beta = exp(-T) w."""
        T, fm = bnb.free_theta[depth], bnb.free_min[depth]
        order = bnb.order[depth:]
        theta = bnb.model.params.theta[order]
        X = bnb.model.design.as_array()[:, order]
        levels = np.arange(1, bnb.M + 1)
        Z = theta[:, None, None] * (X.T[:, None, :] != levels[:, None])
        pos = w >= 0.0
        beta = np.where(pos, (-np.expm1(-T) / T) * w, fm * w)
        c = np.where(pos, w, (fm * (1.0 + T)) * w)
        S = np.einsum("kr,jvr->kjv", beta, Z)
        return c.sum(axis=1) - S.min(axis=2).sum(axis=1)

    @classmethod
    def _check(cls, model, seed):
        rng = np.random.default_rng(seed)
        d, M = model.design.d, model.design.M
        full = lattice_array(d, M)
        bnb = _BnB(model, AcquisitionSpec("alm"))
        G = np.stack([_upper(bnb, tuple(row[bnb.order])) for row in full])
        L = rng.normal(size=(8, model.design.n)) * rng.lognormal(size=(8, 1))
        L[0], L[1] = np.abs(L[0]), -np.abs(L[1])  # one-signed rows too
        for depth in range(d):
            for prefix in itertools.product(range(1, M + 1), repeat=depth):
                inside = np.all(full[:, bnb.order[:depth]] == prefix, axis=1)
                w = L * _upper(bnb, prefix)
                bound = bnb._linmax(w, depth)
                brute = (G[inside] @ L.T).max(axis=0)
                box = np.maximum(w, bnb.free_min[depth] * w).sum(axis=1)
                tol = 1e-12 * np.abs(w).sum(axis=1)
                assert np.all(bound >= brute - tol), (depth, prefix)
                # never looser than the box: each line peaks over [0, T]
                # at its box term, so only rounding can exceed it
                assert np.all(bound <= box + tol), (depth, prefix)
                split = cls._split_form(bnb, w, depth)
                assert np.all(np.abs(bound - split) <= tol), (depth, prefix)

    @pytest.mark.parametrize("seed", range(4))
    def test_dominates_subtree_max(self, seed):
        self._check(_model(seed + 30, n=6, d=4, M=3), seed)
        self._check(_model(seed + 40, n=8, d=3, M=4, theta_scale=0.1), seed)
        self._check(_clip_model(seed, n=8, d=3, M=3), seed)
        self._check(_clip_model(seed + 14, n=10, d=4, M=3), seed)
        # the far-corner tangent's constant exp(-T)(1 + T) at its extremes:
        # theta at the upper clip everywhere, so T reaches d * 10 at the
        # root, and theta split between the two clips
        self._check(_clip_model(seed, n=8, d=4, M=3, theta=np.full(4, THETA_HI)), seed)
        split = np.array([THETA_CLIP, THETA_HI, THETA_CLIP, THETA_HI])
        self._check(_clip_model(seed + 14, n=10, d=4, M=3, theta=split), seed)

    @settings(max_examples=30, deadline=None)
    @given(model=_small_models(), seed=st.integers(0, 2**16))
    def test_dominates_subtree_max_property(self, model, seed):
        self._check(model, seed)


class TestUcbTangentGuard:
    def test_separate_bound_where_cwc_reaches_one(self):
        # rows U with c'Wc >= 1 or within rounding of 1 (c = a U): there
        # lam tau2 / sigma(c) and the tangent's slope cancel at a scale that
        # grows without limit, so the bound is the mean-plus-deviation one
        for model in (_model(4, n=5, d=3, M=2), _clip_model(14, n=10, d=4, M=3)):
            spec = AcquisitionSpec("ucb", gap_tolerance=0.0)
            bnb = _BnB(model, spec)
            depth = model.design.d - 1
            u = _upper(bnb, tuple(model.design.as_array()[0, bnb.order[:depth]]))
            a = 0.5 * (1.0 + bnb.free_min[depth])
            unit = u / (a * np.sqrt(u @ bnb.W @ u))  # c'Wc = 1
            scales = [1.5, 1.0] + [1.0 - k * 1e-16 for k in range(1, 40)]
            U = np.stack([s * unit for s in scales])
            q_low, mean_high, tangent = bnb._parts(U, depth)
            var_high = model.params.tau2 * np.maximum(0.0, 1.0 - np.maximum(0.0, q_low))
            separate = mean_high + spec.lam * np.sqrt(var_high)
            assert np.all(np.isinf(tangent))
            np.testing.assert_array_equal(bnb._bounds(U, depth), separate)
            # at the root, far from c'Wc = 1, the tangent applies
            _, _, tangent = bnb._parts(np.ones((1, model.design.n)), 0)
            assert np.isfinite(tangent[0])


class TestLeafValues:
    def test_match_objective_batch_at_every_lattice_point(self):
        # Leaves are scored from their exact correlation rows in one batch;
        # the reference is the predict_batch path. The variance
        # tau2 * (1 - Q) cancels at design points, so it is compared on the
        # tau2 scale, and sqrt(var) amplifies that rounding, so UCB with
        # lambda > 0 is compared off the design.
        model = _model(11, n=8, d=4, M=3)
        full = lattice_array(4, 3)
        X = model.design.as_array()
        off_design = ~(full[:, None, :] == X[None, :, :]).all(axis=2).any(axis=1)
        cases = [
            (AcquisitionSpec("alm"), np.full(len(full), True), model.params.tau2),
            (AcquisitionSpec("ucb", lam=0.0), np.full(len(full), True), 0.0),
            (AcquisitionSpec("ucb"), off_design, 0.0),
        ]
        for spec, rows, scale in cases:
            bnb = _BnB(model, spec)
            G = np.stack([_upper(bnb, tuple(row[bnb.order])) for row in full[rows]])
            np.testing.assert_allclose(
                _objective(model, G, spec),
                _objective_batch(model, full[rows], spec),
                rtol=1e-12,
                atol=1e-12 * scale,
            )


class TestOptimize:
    def test_oracle_equivalence_quick(self):
        for seed in range(8):
            model = _model(seed + 100, n=7, d=4, M=3)
            for kind in ("alm", "ucb"):
                spec = AcquisitionSpec(kind, gap_tolerance=0.0)
                rep = optimize_acquisition(model, spec)
                _, opt = enumerate_acquisition(model, spec)
                assert rep.best_value == pytest.approx(opt, abs=1e-9)
                assert rep.status == "optimal"
                assert rep.relative_gap == 0.0
                assert rep.certified_bound >= opt - 1e-12

    def test_gap_stop_is_conservative(self):
        for seed in range(5):
            model = _model(seed + 200, n=10, d=5, M=3)
            spec = AcquisitionSpec("ucb", gap_tolerance=0.10)
            rep = optimize_acquisition(model, spec)
            _, opt = enumerate_acquisition(
                model, AcquisitionSpec("ucb", gap_tolerance=0.0)
            )
            assert rep.certified_bound >= opt - 1e-9
            assert rep.best_value <= opt + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(model=_small_models(), kind=st.sampled_from(["alm", "ucb"]))
    @example(model=_pinned_flaky_model(), kind="ucb")
    @example(model=_root_rounding_model(), kind="ucb")
    def test_oracle_equivalence_property(self, model, kind):
        spec = AcquisitionSpec(kind, gap_tolerance=0.0)
        _check_gap0_solve(model, spec, optimize_acquisition(model, spec))

    @pytest.mark.parametrize("kind", ["alm", "ucb"])
    def test_allowance_catches_a_bound_twice_below(self, kind):
        # the check has teeth: a certified bound, or a value, off the
        # enumerated optimum by twice the allowance fails it
        for model in (_root_rounding_model(), _clip_model(3, n=8, d=3, M=3)):
            spec = AcquisitionSpec(kind, gap_tolerance=0.0)
            rep = optimize_acquisition(model, spec)
            pt, opt = enumerate_acquisition(model, spec)
            tol = _cert_tol(model, spec, pt, opt)
            assert 0.0 < tol < 1e-6 * abs(opt)
            _check_gap0_solve(model, spec, rep)
            for field in ("certified_bound", "best_value"):
                off = dataclasses.replace(rep, **{field: opt - 2.0 * tol})
                with pytest.raises(AssertionError):
                    _check_gap0_solve(model, spec, off)

    def test_allowance_root_term(self):
        # UCB adds lam times the rounding of sqrt(var) for a variance off
        # by delta = n eps tau2: delta / sqrt(var) above delta, sqrt(delta)
        # at or below it; ALM adds delta alone
        model = _root_rounding_model()
        n, tau2 = model.design.n, model.params.tau2
        eps = np.finfo(float).eps
        delta = n * eps * tau2
        mean = n * eps * np.abs(model.alpha).sum()
        assert allowance(model, "alm", 0.0, 1e-8) == delta
        assert allowance(model, "ucb", 0.0, 1e-8, 0.0) == mean
        assert allowance(model, "ucb", 0.0, 1e-8, 2.0) == pytest.approx(
            mean + 2.0 * delta / 1e-4, rel=1e-12)
        for var in (0.0, delta):
            assert allowance(model, "ucb", 0.0, var, 2.0) == pytest.approx(
                mean + 2.0 * np.sqrt(delta), rel=1e-12)
        with pytest.raises(ValueError):
            allowance(model, "ei", 0.0, 1.0)

    def test_time_limit_keeps_a_valid_bracket(self):
        model = _model(12, n=10, d=6, M=3)
        spec = AcquisitionSpec("ucb", gap_tolerance=0.0, time_limit=1e-9)
        rep = optimize_acquisition(model, spec)
        _, opt = enumerate_acquisition(model, AcquisitionSpec("ucb", gap_tolerance=0.0))
        assert rep.status == "time_limit"
        assert rep.best_value <= opt + 1e-9
        assert rep.certified_bound >= opt - 1e-9
        assert rep.relative_gap > 0.0

    def test_time_limit_before_any_leaf_reports_an_off_design_point(self):
        # used to return a training point, variance 1e-8, against a bound
        # of 0.99996: the limit fired before a leaf was scored. Draw 2: the
        # dive does not certify it (draws 0 and 1's do), and its leaves lie
        # below the optimum
        rng = np.random.default_rng(2)
        full = lattice_array(8, 5)
        rows = full[rng.choice(len(full), 25, replace=False)]
        theta = np.array([THETA_CLIP] * 4 + [0.5, 1.0, 2.0, 3.0])
        model = build_model(design_from_array(rows, 5), rng.normal(size=25),
                            KernelParams(theta, 0.0, 1.0))
        spec = AcquisitionSpec("alm", gap_tolerance=0.0, time_limit=1e-9)
        rep = optimize_acquisition(model, spec)
        _, opt = enumerate_acquisition(model, AcquisitionSpec("alm", gap_tolerance=0.0))
        assert rep.status == "time_limit"
        # the dive's ceil(d/2) expansions, then the one pop the deadline stops
        assert rep.nodes == (model.design.d + 1) // 2 + 1
        assert rep.best_point.levels not in {tuple(r) for r in rows.tolist()}
        assert rep.best_value > 0.5 * opt
        assert rep.certified_bound >= opt

    @pytest.mark.parametrize("kind", ["alm", "ucb"])
    def test_tied_leaves_in_one_batch_keep_the_first(self, kind):
        # every design row has level 1 at factor 3, so levels 2 and 3 there
        # give identical correlation rows and exactly tied leaves, and the
        # optimum takes one of them. Factor 3 has the second smallest theta,
        # so both leaves lie in one batch of a node with two free factors,
        # where factor 3 is branched before factor 2, against factor order
        rng = np.random.default_rng(4)
        full = lattice_array(3, 3)
        rows = np.column_stack([full[rng.choice(len(full), 10, replace=False)],
                                np.ones(10, dtype=int)])
        params = KernelParams(np.array([1.0, 0.8, 0.3, 0.5]), 0.0, 1.0)
        model = build_model(design_from_array(rows, 3), rng.normal(size=10), params)
        spec = AcquisitionSpec(kind, gap_tolerance=0.0)
        rep = optimize_acquisition(model, spec)
        pt, opt = enumerate_acquisition(model, spec)
        twin = np.array(pt.levels)
        assert twin[3] == 2
        twin[3] = 3
        v, v_twin = _objective_batch(model, np.array([pt.levels, twin]), spec)
        assert v == v_twin == opt
        assert rep.status == "optimal"
        assert rep.best_point == pt
        assert rep.best_value == pytest.approx(opt, rel=1e-12)

    def test_m2_d1(self):
        D = design_from_array([[1]], 2)
        model = build_model(D, [1.0], KernelParams(np.array([1.0]), 0.0, 1.0))
        spec = AcquisitionSpec("alm", gap_tolerance=0.0)
        rep = optimize_acquisition(model, spec)
        pt, opt = enumerate_acquisition(model, spec)
        assert rep.best_value == pytest.approx(opt, abs=1e-12)
        assert rep.best_point == pt == Point((2,), 2)

    def test_full_coverage_alm_vanishes(self):
        # design covering the whole lattice: max variance ~ nugget scale
        full = lattice_array(2, 2)
        D = design_from_array(full, 2)
        model = build_model(
            D, [0.0, 1.0, 2.0, 0.5], KernelParams(np.array([1.0, 1.0]), 0.5, 1.0)
        )
        rep = optimize_acquisition(model, AcquisitionSpec("alm", gap_tolerance=0.0))
        assert rep.best_value <= 1e-6

    def test_constant_model(self):
        D = design_from_array([[1, 1], [2, 2]], 2)
        model = fit_mle(D, [2.0, 2.0])
        rep = optimize_acquisition(model, AcquisitionSpec("ucb"))
        assert rep.status == "optimal"

    def test_xi_tensor_materialization_d2_m2(self):
        # materialize the quadratic-form coefficient tensor on the one-hot
        # encoding and confirm the multilinear form matches the ALM
        # objective tau2 * (1 - Q)
        from scipy.linalg import cho_solve

        model = _model(5, n=3, d=2, M=2)
        W = cho_solve((model.chol, True), np.eye(model.design.n))
        X = model.design.as_array()
        theta = model.params.theta
        d, M = 2, 2
        # xi[k1,k2,l1,l2] = sum_rs W_rs * gamma(levels (k,l) vs rows r,s)
        for lv in itertools.product(range(1, 3), repeat=2):
            x = np.array(lv)
            g = np.exp(-((X != x) @ theta))
            q_direct = float(g @ W @ g)
            # multilinear form via one-hot selection: e[j, k] = 1{x_j = k+1}
            e = np.eye(M, dtype=int)[x - 1]
            total = 0.0
            for k1, k2, l1, l2 in itertools.product(range(M), repeat=4):
                gr = np.exp(-theta[0] * (X[:, 0] != k1 + 1)
                            - theta[1] * (X[:, 1] != k2 + 1))
                gs = np.exp(-theta[0] * (X[:, 0] != l1 + 1)
                            - theta[1] * (X[:, 1] != l2 + 1))
                xi = float(gr @ W @ gs)
                total += xi * e[0, k1] * e[1, k2] * e[0, l1] * e[1, l2]
            assert total == pytest.approx(q_direct, abs=1e-10)
            var = _objective_batch(model, x[None, :], AcquisitionSpec("alm"))[0]
            assert q_direct == pytest.approx(1.0 - var / model.params.tau2, abs=1e-10)


class TestClipPinned:
    """Gap-0 branch and bound against enumeration where most theta sit at
    the fit's lower clip, Gamma is near-singular and both bounds on Q are
    exercised. The certificate tolerance is the documented one,
    `allowance`."""

    @staticmethod
    def _models(count):
        for seed in range(count):
            rng = np.random.default_rng([seed, 0xC11])
            d, M = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            while M**d > 5000:
                M -= 1
            full = lattice_array(d, M)
            n = int(rng.integers(min(4, len(full)), min(30, len(full)) + 1))
            rows = full[rng.choice(len(full), n, replace=False)]
            theta = np.full(d, THETA_CLIP)
            free = rng.choice(d, int(rng.integers(0, (d - 1) // 2 + 1)), replace=False)
            theta[free] = rng.uniform(0.05, 3.0, len(free))
            params = KernelParams(theta, rng.normal(), rng.uniform(0.5, 2.0))
            yield build_model(design_from_array(rows, M), rng.normal(size=n), params)

    def test_gap0_matches_enumeration(self):
        for model in self._models(20):
            for kind in ("alm", "ucb"):
                spec = AcquisitionSpec(kind, gap_tolerance=0.0)
                _check_gap0_solve(model, spec, optimize_acquisition(model, spec))


# the first iteration of the seed-2 rover campaign: initial_design(20, 8, 9,
# 2), its rover responses, and theta, mu and tau2 from fit_mle(...,
# FitConfig(4, 2)). Five theta sit near the clip.
ROVER_S2_ROWS = [
    [7, 7, 9, 2, 1, 7, 2, 1], [6, 1, 2, 3, 8, 6, 7, 4], [8, 4, 7, 3, 2, 8, 1, 8],
    [1, 1, 1, 1, 7, 9, 3, 8], [3, 6, 8, 6, 7, 6, 9, 7], [2, 5, 1, 2, 5, 7, 3, 7],
    [6, 3, 9, 8, 7, 5, 5, 8], [1, 8, 7, 3, 1, 4, 3, 4], [3, 9, 7, 2, 7, 3, 2, 3],
    [6, 6, 1, 7, 4, 2, 9, 4], [6, 8, 2, 1, 6, 1, 1, 3], [5, 6, 1, 4, 9, 3, 5, 8],
    [8, 3, 4, 4, 4, 2, 4, 5], [4, 2, 1, 9, 1, 8, 1, 7], [3, 7, 3, 7, 6, 6, 4, 1],
    [5, 8, 6, 2, 6, 3, 8, 7], [4, 6, 6, 3, 8, 8, 9, 5], [9, 6, 7, 2, 6, 2, 7, 5],
    [3, 5, 9, 3, 6, 4, 7, 3], [7, 3, 1, 3, 3, 1, 6, 5],
]
ROVER_S2_RESPONSES = [
    -25.36246412104876, -23.596604927281213, -21.457473777354146,
    -28.3701719096913, -14.45465809474533, -16.186171500347623,
    -18.382992273089062, -24.865533896267593, -24.75739469922074,
    -26.108465485656932, -24.795275267159077, -22.782332846993842,
    -24.642011377844838, -27.919510800376823, -17.130895926122207,
    -17.44542880078528, -23.027833047210436, -20.01400782270415,
    -25.74354222716188, -24.560800662251342,
]
ROVER_S2_PARAMS = KernelParams(
    np.array([0.014491344363249435, 0.01110297735107714, 0.01406610705592935,
              10.000000000000002, 0.012854095879459643, 0.0010000106155414188,
              0.007850599375287672, 10.000000000000002]),
    -22.744592162915996, 15.6028616988594,
)


def test_rover_gap0_alm_certified_by_the_dive():
    # the dive's leaves hold the optimum and every sibling's bound falls
    # below it: the dive's ceil(d/2) expansions and one pop (a search seeded
    # by the training points took 22,147 nodes here)
    model = build_model(design_from_array(ROVER_S2_ROWS, 9), ROVER_S2_RESPONSES,
                        ROVER_S2_PARAMS)
    rep = optimize_acquisition(model, AcquisitionSpec("alm", gap_tolerance=0.0))
    assert rep.status == "optimal"
    assert rep.nodes <= (model.design.d + 1) // 2 + 1
    assert rep.best_value == pytest.approx(model.params.tau2, rel=1e-9)


# node counts and points of the certified gap-0 solves on the frozen d=12
# models of perfbench/refs.json, the dive's d/2 expansions included: a
# looser bound shows here as more nodes. q0-n30-s1/alm returns a point tied
# with refs.json's ref_point, which differs from it at the last factor
D12_PINS = [
    ("q0-n30-s1", "alm", 15, (3, 2, 2, 2, 2, 5, 3, 2, 4, 1, 4, 4)),
    ("q0-n30-s2", "ucb", 14, (4, 5, 4, 1, 1, 2, 5, 1, 4, 3, 2, 4)),
    ("q0-n40-s0", "ucb", 32, (4, 1, 5, 5, 3, 3, 1, 1, 2, 3, 4, 4)),
    ("q0-n40-s0", "alm", 14, (1, 3, 3, 4, 4, 2, 5, 2, 2, 2, 5, 5)),
    ("q0-n40-s1", "alm", 13, (5, 5, 5, 4, 5, 3, 2, 2, 4, 2, 1, 5)),
    ("q0-n50-s1", "ucb", 7, (4, 5, 1, 1, 5, 4, 4, 1, 5, 1, 2, 1)),
    ("q0-n50-s1", "alm", 10, (4, 3, 3, 4, 5, 3, 2, 3, 4, 5, 1, 2)),
    ("q0-n60-s0", "ucb", 9, (4, 4, 5, 4, 3, 1, 2, 2, 4, 4, 3, 2)),
    ("q0-n60-s2", "ucb", 19, (5, 4, 1, 4, 2, 4, 1, 3, 2, 3, 2, 1)),
    ("q0-n60-s2", "alm", 8, (1, 4, 2, 3, 1, 4, 3, 3, 3, 5, 2, 4)),
    ("q0-n90-s0", "alm", 7, (2, 5, 2, 3, 2, 5, 1, 3, 1, 1, 4, 5)),
    ("q0-n90-s1", "ucb", 9, (4, 5, 4, 1, 3, 4, 5, 4, 1, 1, 3, 4)),
    ("q0-n100-s3", "ucb", 11, (4, 1, 5, 5, 3, 2, 4, 1, 1, 4, 2, 5)),
    ("q0-n100-s3", "alm", 11, (5, 5, 2, 5, 2, 1, 2, 1, 2, 1, 1, 2)),
]


def _frozen_d12_solves():
    """(model, solve) per certified solve frozen in perfbench/refs.json,
    keyed by model name and kind."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "perfbench", "refs.json")) as fh:
        acq = json.load(fh)["acq"]
    out = {}
    for m in acq["models"]:
        D = design_from_array(np.asarray(m["points"]), acq["M"])
        params = KernelParams(np.asarray(m["theta"]), m["mu"], m["tau2"])
        model = build_model(D, np.asarray(m["responses"], dtype=float), params, m["nugget"])
        for s in m["solves"]:
            if s["class"] == "certified":
                out[m["name"], s["kind"]] = (model, s)
    return out


def test_frozen_d12_solves_pinned():
    solves = _frozen_d12_solves()
    assert sorted(solves) == sorted((name, kind) for name, kind, _, _ in D12_PINS)
    for name, kind, nodes, point in D12_PINS:
        model, ref = solves[name, kind]
        rep = optimize_acquisition(model, AcquisitionSpec(kind, gap_tolerance=0.0))
        assert rep.status == "optimal", (name, kind)
        assert rep.best_value == pytest.approx(ref["ref_value"], rel=1e-9), (name, kind)
        assert rep.nodes == nodes, (name, kind)
        assert rep.best_point.levels == point, (name, kind)


class TestCarriedRows:
    """Each heap entry carries the prefix row U of the node that pushed it,
    whose levels are the entry's first `start`; every popped row must equal
    the reference product over those levels bit for bit."""

    @staticmethod
    def _popped(model, spec):
        """The solve's report and every (levels, start, row) its heap
        popped, the row copied as popped."""
        popped = []

        def pop(heap):
            entry = heapq.heappop(heap)
            _, _, levels, row, start = entry
            popped.append((levels, start, row.copy()))
            return entry

        hooks = SimpleNamespace(heappush=heapq.heappush, heappop=pop)
        with mock.patch.object(acquisition, "heapq", hooks):
            rep = optimize_acquisition(model, spec)
        return rep, popped

    @classmethod
    def _check(cls, model, spec):
        rep, popped = cls._popped(model, spec)
        bnb = _BnB(model, spec)
        for levels, start, row in popped:
            assert len(levels) - start in (1, 2), levels
            assert row.tobytes() == _upper(bnb, levels[:start]).tobytes(), levels
        return rep, len(popped)

    def test_frozen_d12_rows_match_the_reference(self):
        for (name, kind), (model, _) in sorted(_frozen_d12_solves().items()):
            rep, count = self._check(model, AcquisitionSpec(kind, gap_tolerance=0.0))
            # the root and the dive's ceil(d/2) - 1 descents are not popped
            assert count == rep.nodes - (model.design.d + 1) // 2 > 0, (name, kind)

    def test_random_rows_match_the_reference(self):
        total = 0
        for seed in range(6):
            for model in (_model(seed + 300, n=10, d=6, M=3),
                          _clip_model(seed, n=12, d=5, M=3)):
                for kind in ("alm", "ucb"):
                    total += self._check(model, AcquisitionSpec(kind, gap_tolerance=0.0))[1]
        assert total > 0


class TestEnumerate:
    def test_guard(self):
        from quip.maximin import TooLargeError

        model = _model(6, n=4, d=4, M=3)
        with pytest.raises(TooLargeError):
            enumerate_acquisition(model, AcquisitionSpec("alm"), guard=10)

    def test_lex_tie_break(self):
        model = fit_mle(design_from_array([[1, 1], [2, 2]], 2), [0.0, 0.0001])
        spec = AcquisitionSpec("alm")
        pt, _ = enumerate_acquisition(model, spec)
        # (1, 2) and (2, 1) tie exactly; the point must be the first argmax
        # in lexicographic order
        v12, v21 = _objective_batch(model, np.array([[1, 2], [2, 1]]), spec)
        assert v12 == v21
        assert pt.levels == (1, 2)


class TestBaselines:
    def test_random_point_distribution(self):
        rng = np.random.default_rng(0)
        d, M, N = 3, 4, 100_000
        draws = np.array([random_point(d, M, rng).levels for _ in range(N)])
        p = 1.0 / M
        sigma = np.sqrt(p * (1 - p) / N)
        freq = (draws[:, 0][:, None] == np.arange(1, M + 1)).mean(axis=0)
        assert np.all(np.abs(freq - p) < 3 * sigma + 1e-3)

    def test_random_point_seeded(self):
        a = [random_point(4, 3, np.random.default_rng(5)).levels for _ in range(3)]
        b = [random_point(4, 3, np.random.default_rng(5)).levels for _ in range(3)]
        assert a[0] == b[0]

    def test_candidate_below_oracle(self):
        model = _model(7, n=6, d=4, M=3)
        spec = AcquisitionSpec("ucb", gap_tolerance=0.0)
        _, opt = enumerate_acquisition(model, spec)
        _, val = candidate_set_acquisition(model, spec, 50, seed=3)
        assert val <= opt + 1e-12

    def test_candidate_monotone_in_c(self):
        model = _model(8, n=6, d=4, M=3)
        spec = AcquisitionSpec("alm", gap_tolerance=0.0)
        vals = [
            candidate_set_acquisition(model, spec, C, seed=11)[1]
            for C in (1, 10, 100, 1000)
        ]
        assert vals == sorted(vals)

    def test_candidate_needs_one(self):
        model = _model(9)
        with pytest.raises(ValueError):
            candidate_set_acquisition(model, AcquisitionSpec("alm"), 0, seed=0)
