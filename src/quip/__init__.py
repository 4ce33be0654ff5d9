"""QuIP: exact maximin designs and sequential acquisition optimization
over categorical lattices, with path-planning benchmark simulators."""

from .acquisition import (
    AcqSolveReport,
    AcquisitionSpec,
    candidate_set_acquisition,
    enumerate_acquisition,
    optimize_acquisition,
    random_point,
)
from .bounds import code_size_bound, hamming_ball, q0, q_upper
from .encoding import (
    Design,
    Point,
    design_from_array,
    load_design,
    min_pairwise_distance,
    save_design,
)
from .gp import (
    FitConfig,
    GpModel,
    KernelParams,
    build_model,
    fit_mle,
    load_model,
    predict_batch,
    save_model,
)
from .maximin import (
    FeasibilityInstance,
    MaximinResult,
    SolveReport,
    brute_force_maximin,
    optimize_maximin,
    solve_feasibility,
)
from .sequential import (
    Campaign,
    best_so_far,
    load_campaign,
    rrmse,
    run_campaign,
    save_campaign,
)
from .simulators import (
    GridWorld,
    ObstacleCourse,
    SimResult,
    maze_cost,
    rover_cost,
    snake_reward,
)

__version__ = "0.1.0"

__all__ = [
    "AcqSolveReport",
    "AcquisitionSpec",
    "Campaign",
    "Design",
    "FeasibilityInstance",
    "FitConfig",
    "GpModel",
    "GridWorld",
    "KernelParams",
    "MaximinResult",
    "ObstacleCourse",
    "Point",
    "SimResult",
    "SolveReport",
    "best_so_far",
    "brute_force_maximin",
    "build_model",
    "candidate_set_acquisition",
    "code_size_bound",
    "design_from_array",
    "enumerate_acquisition",
    "fit_mle",
    "hamming_ball",
    "load_campaign",
    "load_design",
    "load_model",
    "maze_cost",
    "min_pairwise_distance",
    "optimize_acquisition",
    "optimize_maximin",
    "predict_batch",
    "q0",
    "q_upper",
    "random_point",
    "rover_cost",
    "rrmse",
    "run_campaign",
    "save_campaign",
    "save_design",
    "save_model",
    "snake_reward",
    "solve_feasibility",
]
