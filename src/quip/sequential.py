"""Sequential design loop: choose a point, evaluate, append.

`run_loop` takes the choice rule as a function, so every bench arm runs the
same loop. `run_campaign` is the certified rule, the standard model-based
pattern: at each iteration the surrogate is refit by maximum likelihood on
all data so far, the chosen acquisition (ALM for active learning, UCB for
optimization) is globally optimized, and the simulator is evaluated at the
selected point.

Everything here uses the maximization convention; simulators that expose
costs should be passed in negated (wrap as ``lambda x: -cost(x)``).
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .acquisition import AcquisitionSpec, optimize_acquisition
from .encoding import (
    Design,
    Point,
    check_int,
    design_from_array,
    design_from_dict,
    design_to_dict,
    read_json,
    write_json,
)
from .gp import FitConfig, fit_mle


@dataclass(frozen=True)
class Campaign:
    design: Design
    responses: np.ndarray
    spec: AcquisitionSpec
    n_seq: int  # remaining budget
    history: tuple[dict, ...] = field(default=())
    seed: int = 0

    def __post_init__(self):
        f = np.asarray(self.responses, dtype=float)
        object.__setattr__(self, "responses", f)
        if f.shape != (self.design.n,):
            raise ValueError("responses and design sizes differ")
        bad = np.flatnonzero(~np.isfinite(f))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"responses must be finite; response {k} is {float(f[k])!r}")


class CampaignError(RuntimeError):
    """An iteration failed; the partial campaign is preserved on the error."""

    def __init__(self, message: str, partial: Campaign, cause: Exception):
        super().__init__(message)
        self.partial = partial
        self.cause = cause


def best_so_far(c: Campaign) -> tuple[Point, float]:
    """Best evaluated point (running max of responses, first-index ties)."""
    k = int(np.argmax(c.responses))
    return Point(c.design.as_array()[k], c.design.M), float(c.responses[k])


def rrmse(truth, predictions) -> float:
    """Relative root-mean-squared error:
    sqrt( sum (y - yhat)^2 / sum (y - mean(y))^2 )."""
    y = np.asarray(truth, dtype=float)
    yhat = np.asarray(predictions, dtype=float)
    if y.shape != yhat.shape or y.ndim != 1 or y.size == 0:
        raise ValueError("truth and predictions must be equal-length vectors")
    denom = float(np.sum((y - y.mean()) ** 2))
    if denom <= 0:
        raise ValueError("truth is constant: RRMSE denominator is zero")
    return float(np.sqrt(np.sum((y - yhat) ** 2) / denom))


def run_loop(initial: Design, f_init, simulator, spec: AcquisitionSpec, n_seq: int,
             choose, seed: int = 0) -> Campaign:
    """Run n_seq iterations of choose, evaluate, append; return the Campaign.

    `choose(D, f)` returns the next Point and the fields it adds to that
    iteration's history, between `point` and `response`. `simulator` maps a
    Point to a scalar response (maximization sign).

    If an iteration raises, or its simulator returns a non-finite response,
    a CampaignError carrying the completed partial campaign is raised
    instead of discarding progress.
    """
    n_seq = check_int("n_seq", n_seq, 0)
    D = initial
    f = Campaign(D, f_init, spec, n_seq, (), seed).responses  # size-checked
    history: list[dict] = []
    for it in range(1, n_seq + 1):
        t0 = time.perf_counter()
        try:
            x, fields = choose(D, f)
            y = float(simulator(x))
            if not math.isfinite(y):
                raise ValueError(f"simulator returned {y!r} at point {list(x.levels)}")
        except Exception as exc:
            partial = Campaign(D, f, spec, n_seq - it + 1, tuple(history), seed)
            raise CampaignError(
                f"iteration {it} failed: {exc}", partial, exc
            ) from exc
        D = design_from_array(np.vstack([D.as_array(), x.levels]), D.M)
        f = np.append(f, y)
        history.append({"iteration": it, "point": list(x.levels), **fields,
                        "response": y, "wall_time": time.perf_counter() - t0})
    return Campaign(D, f, spec, 0, tuple(history), seed)


def fit_fields(model) -> dict:
    """The history fields of an iteration's fitted kernel parameters."""
    p = model.params
    return {"theta": [float(v) for v in p.theta], "mu": float(p.mu), "tau2": float(p.tau2)}


def run_campaign(
    initial: Design,
    f_init,
    simulator,
    spec: AcquisitionSpec,
    n_seq: int,
    seed: int = 0,
    fit_config: FitConfig | None = None,
) -> Campaign:
    """The certified rule over :func:`run_loop`: each iteration refits the
    GP by maximum likelihood and takes the acquisition's certified optimum."""
    fit_config = fit_config or FitConfig(seed=seed)

    def certified(D, f):
        model = fit_mle(D, f, fit_config)
        rep = optimize_acquisition(model, spec)
        return rep.best_point, {
            "acq_value": rep.best_value,
            "certified_bound": rep.certified_bound,
            "relative_gap": rep.relative_gap,
            "solver_status": rep.status,
            "nodes": rep.nodes,
            **fit_fields(model),
        }

    return run_loop(initial, f_init, simulator, spec, n_seq, certified, seed)


def campaign_to_dict(c: Campaign) -> dict:
    return {
        "design": design_to_dict(c.design),
        "responses": [float(v) for v in c.responses],
        "spec": asdict(c.spec),
        "n_seq": c.n_seq,
        "history": list(c.history),
        "seed": c.seed,
    }


def campaign_from_dict(obj: dict) -> Campaign:
    return Campaign(
        design_from_dict(obj["design"]),
        np.asarray(obj["responses"], dtype=float),
        AcquisitionSpec(**obj["spec"]),
        int(obj["n_seq"]),
        tuple(obj["history"]),
        int(obj["seed"]),
    )


def save_campaign(c: Campaign, path) -> None:
    write_json(campaign_to_dict(c), path)


def load_campaign(path) -> Campaign:
    return campaign_from_dict(read_json(path))
