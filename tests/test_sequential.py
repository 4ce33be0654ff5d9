import numpy as np
import pytest

from quip.acquisition import AcquisitionSpec, optimize_acquisition
from quip.encoding import Point, design_from_array, lattice_array
from quip.gp import KernelParams, build_model, predict_batch
from quip.sequential import (
    Campaign,
    CampaignError,
    best_so_far,
    campaign_from_dict,
    campaign_to_dict,
    load_campaign,
    rrmse,
    run_campaign,
    run_loop,
    save_campaign,
)


def _synthetic(x: Point) -> float:
    lv = np.asarray(x.levels)
    return float(np.sin(lv.sum()) + 0.3 * lv[0])


class TestRrmse:
    def test_perfect_predictor(self):
        y = [1.0, 2.0, 5.0]
        assert rrmse(y, y) == pytest.approx(0.0, abs=1e-12)

    def test_mean_predictor(self):
        y = np.array([1.0, 2.0, 6.0])
        assert rrmse(y, np.full(3, y.mean())) == pytest.approx(1.0, abs=1e-12)

    def test_hand_case(self):
        assert rrmse([0.0, 2.0], [1.0, 1.0]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_truth(self):
        with pytest.raises(ValueError):
            rrmse([2.0, 2.0], [1.0, 3.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rrmse([1.0, 2.0], [1.0])


class TestCampaignBasics:
    def test_lockstep_validation(self):
        D = design_from_array([[1, 1], [2, 2]], 2)
        with pytest.raises(ValueError):
            Campaign(D, np.array([1.0]), AcquisitionSpec("alm"), 0)

    def test_non_finite_responses_rejected(self):
        D = design_from_array([[1, 1], [2, 2]], 2)
        for f in ([0.0, np.nan], [np.inf, 1.0], [0.0, -np.inf]):
            with pytest.raises(ValueError, match="responses must be finite"):
                Campaign(D, np.array(f), AcquisitionSpec("alm"), 0)
        obj = campaign_to_dict(Campaign(D, np.array([0.0, 1.0]), AcquisitionSpec("alm"), 0))
        with pytest.raises(ValueError, match="response 1 is nan"):
            campaign_from_dict(dict(obj, responses=[0.0, float("nan")]))

    def test_zero_budget(self):
        D = design_from_array([[1, 1], [2, 2]], 2)
        f = np.array([0.0, 1.0])
        c = run_campaign(D, f, _synthetic, AcquisitionSpec("alm"), 0, seed=0)
        assert c.history == ()
        assert c.design == D

    def test_negative_seed_rejected_before_any_iteration(self):
        D = design_from_array([[1, 1], [2, 2]], 2)
        calls = []
        with pytest.raises(ValueError, match="seed=-1"):
            run_campaign(D, np.array([0.0, 1.0]), calls.append,
                         AcquisitionSpec("alm"), 2, seed=-1)
        assert calls == []

    def test_best_so_far(self):
        D = design_from_array([[1, 1], [2, 2], [1, 2]], 2)
        c = Campaign(D, np.array([1.0, 5.0, 5.0]), AcquisitionSpec("alm"), 0)
        pt, val = best_so_far(c)
        assert val == 5.0 and pt == D.points[1]  # first-index tie-break


class TestRunCampaign:
    def test_lockstep_growth_and_history(self):
        D = design_from_array([[1, 1, 1], [2, 2, 2]], 2)
        f = np.array([_synthetic(p) for p in D.points])
        c = run_campaign(
            D, f, _synthetic, AcquisitionSpec("ucb", gap_tolerance=0.0), 4, seed=0
        )
        assert c.design.n == 6 and c.responses.shape == (6,)
        assert len(c.history) == 4
        for i, h in enumerate(c.history, start=1):
            assert h["iteration"] == i
            assert h["response"] == pytest.approx(
                _synthetic(Point(tuple(h["point"]), 2)), abs=1e-12
            )

    def test_history_records_solve_nodes(self, monkeypatch):
        import quip.sequential as seq

        reps = []

        def recording(model, spec):
            reps.append(optimize_acquisition(model, spec))
            return reps[-1]

        monkeypatch.setattr(seq, "optimize_acquisition", recording)
        D = design_from_array([[1, 1, 1], [2, 2, 2]], 2)
        f = np.array([_synthetic(p) for p in D.points])
        c = run_campaign(
            D, f, _synthetic, AcquisitionSpec("ucb", gap_tolerance=0.0), 3, seed=0
        )
        assert [h["nodes"] for h in c.history] == [r.nodes for r in reps]
        assert all(r.nodes > 0 for r in reps)

    def test_alm_no_repeats_while_uncovered(self):
        # noiseless GP: variance is zero at sampled points, positive
        # elsewhere, so ALM never re-selects while the lattice is uncovered
        D = design_from_array([[1, 1, 1], [2, 2, 2]], 2)
        f = np.array([0.0, 1.0])
        c = run_campaign(
            D, f, _synthetic, AcquisitionSpec("alm", gap_tolerance=0.0), 5, seed=1
        )
        pts = [p.levels for p in c.design.points]
        assert len(set(pts)) == len(pts)

    def test_reproducibility(self):
        D = design_from_array([[1, 1, 1], [2, 2, 2], [1, 2, 1]], 2)
        f = np.array([_synthetic(p) for p in D.points])
        spec = AcquisitionSpec("ucb", gap_tolerance=0.0)
        a = run_campaign(D, f, _synthetic, spec, 3, seed=9)
        b = run_campaign(D, f, _synthetic, spec, 3, seed=9)
        assert a.design == b.design

        def strip(history):
            return [{k: v for k, v in h.items() if k != "wall_time"}
                    for h in history]

        assert strip(a.history) == strip(b.history)

    def test_alm_variance_shrinks_fixed_theta(self):
        # with frozen kernel parameters the max posterior variance over the
        # lattice is non-increasing across ALM iterations
        d, M = 3, 2
        D = design_from_array([[1, 1, 1], [2, 2, 2]], M)
        f = np.array([0.0, 1.0])
        params = KernelParams(np.full(d, 0.8), 0.5, 1.0)
        full = lattice_array(d, M)

        maxvars = []
        fs = f.copy()
        for _ in range(4):
            model = build_model(D, fs, params)
            _, var = predict_batch(model, full)
            maxvars.append(var.max())
            rep = optimize_acquisition(model, AcquisitionSpec("alm", gap_tolerance=0.0))
            D = design_from_array(np.vstack([D.as_array(), rep.best_point.levels]), M)
            fs = np.append(fs, _synthetic(rep.best_point))
        assert all(b <= a + 1e-10 for a, b in zip(maxvars, maxvars[1:]))

    def test_failure_preserves_partial(self):
        D = design_from_array([[1, 1, 1], [2, 2, 2]], 2)
        f = np.array([0.0, 1.0])
        calls = {"k": 0}

        def flaky(x):
            calls["k"] += 1
            if calls["k"] >= 3:
                raise RuntimeError("sensor died")
            return _synthetic(x)

        with pytest.raises(CampaignError) as err:
            run_campaign(D, f, flaky, AcquisitionSpec("alm", gap_tolerance=0.0), 5)
        partial = err.value.partial
        assert partial.design.n == 4  # two successful iterations appended
        assert len(partial.history) == 2
        assert partial.n_seq == 3

    def test_non_finite_response_fails_its_own_iteration(self):
        # a NaN response used to be appended, and the campaign failed (if at
        # all) one iteration later with the NaN kept in its partial campaign
        D = design_from_array([[1, 1, 1], [2, 2, 2]], 2)
        values = iter([0.5, float("nan"), 1.0])

        def rule(D, f):
            return Point((1, 2, D.n % 2 + 1), 2), {}

        with pytest.raises(CampaignError) as err:
            run_loop(D, [0.0, 1.0], lambda x: next(values), AcquisitionSpec("alm"), 3, rule)
        assert str(err.value) == "iteration 2 failed: simulator returned nan at point [1, 2, 2]"
        partial = err.value.partial
        assert partial.design.n == 3 and len(partial.history) == 1
        assert list(partial.responses) == [0.0, 1.0, 0.5]
        assert partial.n_seq == 2

    def test_history_keys_in_order(self):
        D = design_from_array([[1, 1, 1], [2, 2, 2]], 2)
        c = run_campaign(D, [0.0, 1.0], _synthetic, AcquisitionSpec("ucb"), 1, seed=0)
        assert list(c.history[0]) == [
            "iteration", "point", "acq_value", "certified_bound", "relative_gap",
            "solver_status", "nodes", "theta", "mu", "tau2", "response", "wall_time"]

    def test_run_loop_takes_any_rule(self):
        # the rule's fields sit between the point and the response; the
        # loop appends each chosen point and its response in lockstep
        D = design_from_array([[1, 1, 1], [2, 2, 2]], 2)
        seen = []

        def rule(D, f):
            seen.append((D.n, f.size))
            return Point((1, 2, D.n % 2 + 1), 2), {"rule": "fixed"}

        c = run_loop(D, [0.0, 1.0], _synthetic, AcquisitionSpec("alm"), 2, rule, seed=4)
        assert seen == [(2, 2), (3, 3)]
        assert [list(h) for h in c.history] == [
            ["iteration", "point", "rule", "response", "wall_time"]] * 2
        assert [p.levels for p in c.design.points[2:]] == [(1, 2, 1), (1, 2, 2)]
        assert list(c.responses[2:]) == [h["response"] for h in c.history]
        assert c.seed == 4 and c.n_seq == 0

    def test_negative_budget(self):
        D = design_from_array([[1, 1], [2, 2]], 2)
        # 2.5 used to fail in range() with a bare TypeError
        for n_seq in (-1, 2.5):
            with pytest.raises(ValueError, match="n_seq="):
                run_campaign(D, [0.0, 1.0], _synthetic, AcquisitionSpec("alm"), n_seq)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        D = design_from_array([[1, 1, 1], [2, 2, 2]], 2)
        f = np.array([0.0, 1.0])
        c = run_campaign(
            D, f, _synthetic, AcquisitionSpec("ucb", gap_tolerance=0.0), 2, seed=3
        )
        path = tmp_path / "c.json"
        save_campaign(c, path)
        again = load_campaign(path)
        assert again.design == c.design
        assert np.array_equal(again.responses, c.responses)
        assert len(again.history) == len(c.history)

    def test_dict_round_trip(self):
        D = design_from_array([[1, 2], [2, 1]], 2)
        c = Campaign(D, np.array([1.0, 2.0]), AcquisitionSpec("alm"), 3, (), 7)
        again = campaign_from_dict(campaign_to_dict(c))
        assert again.design == c.design and again.seed == 7 and again.n_seq == 3
