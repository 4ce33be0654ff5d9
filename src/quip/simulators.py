"""Deterministic path-planning benchmark simulators over categorical inputs.

Three problems share the "one factor = one timestep decision" layout:

* maze: 5 actions on a grid; cost is the shortest-path distance from the
  final cell to the goal.
* snake: 5 actions on a grid; reward per step with early-prize discounting,
  consecutive-prize bonus, idle penalty and out-of-bounds penalty.
* rover: 9 actions (speed x heading, or stay) tracing a piecewise-linear
  trajectory; cost integrates an obstacle-occupancy field along the path
  plus a terminal distance penalty.

Grid coordinates are 1-indexed (x right, y up). Every simulator records a
per-step trace from which its scalar value is exactly recomputable.
`PROBLEMS` maps each problem name to its lattice, default configuration
and simulator; the benchmark harness and the CLI dispatch through it.
"""

from __future__ import annotations

import functools
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from types import MappingProxyType
from typing import Callable, NamedTuple

import numpy as np

from .encoding import Point, read_json

# action codes for maze/snake: up, down, left, right, stay
MOVES5 = {1: (0, 1), 2: (0, -1), 3: (-1, 0), 4: (1, 0), 5: (0, 0)}

ROVER_ANGLES = (0.0, np.pi / 6, np.pi / 3, np.pi / 2)


@dataclass(frozen=True)
class SimResult:
    value: float
    trace: tuple[dict, ...]


@dataclass(frozen=True)
class GridWorld:
    width: int
    height: int
    start: tuple[int, int]
    goal: tuple[int, int] | None = None
    obstacles: frozenset = frozenset()
    prizes: frozenset = frozenset()

    def __post_init__(self):
        # hashable fields: distance_field caches by world
        object.__setattr__(self, "start", tuple(self.start))
        if self.goal is not None:
            object.__setattr__(self, "goal", tuple(self.goal))
        object.__setattr__(self, "obstacles", frozenset(self.obstacles))
        object.__setattr__(self, "prizes", frozenset(self.prizes))
        if not self.in_bounds(self.start):
            raise ValueError("start outside grid")
        if self.start in self.obstacles:
            raise ValueError("start sits on an obstacle")
        if self.goal is not None and not self.in_bounds(self.goal):
            raise ValueError("goal outside grid")

    def in_bounds(self, cell) -> bool:
        x, y = cell
        return 1 <= x <= self.width and 1 <= y <= self.height


@functools.lru_cache(maxsize=32)
def distance_field(world: GridWorld) -> Mapping[tuple[int, int], int]:
    """BFS distances to the goal over non-obstacle cells, 4-neighbor moves.
    Run once per world (worlds are frozen) and returned read-only."""
    if world.goal is None:
        raise ValueError("world has no goal")
    dist = {world.goal: 0}
    queue = deque([world.goal])
    while queue:
        cx, cy = queue.popleft()
        for dx, dy in ((0, 1), (0, -1), (-1, 0), (1, 0)):
            nxt = (cx + dx, cy + dy)
            if (
                world.in_bounds(nxt)
                and nxt not in world.obstacles
                and nxt not in dist
            ):
                dist[nxt] = dist[(cx, cy)] + 1
                queue.append(nxt)
    return MappingProxyType(dist)


def maze_cost(world: GridWorld, path: Point) -> SimResult:
    """Cost of a path: BFS distance from its final cell to the goal."""
    if path.M != 5:
        raise ValueError("maze/snake paths use M=5 actions")
    dist = distance_field(world)
    unreachable = world.width * world.height  # larger than any true distance
    pos = world.start
    trace = []
    for j, a in enumerate(path.levels, start=1):
        dx, dy = MOVES5[a]
        cand = (pos[0] + dx, pos[1] + dy)
        blocked = not world.in_bounds(cand) or cand in world.obstacles
        if not blocked:
            pos = cand
        trace.append(
            {"step": j, "action": a, "position": pos, "blocked": blocked,
             "step_value": 0.0}
        )
    cost = float(dist.get(pos, unreachable))
    trace[-1]["step_value"] = cost
    return SimResult(cost, tuple(trace))


def snake_reward(world: GridWorld, path: Point) -> SimResult:
    """Cumulative reward of a path on the prize grid.

    Step j landing on a prize square scores 5*(d-j+1), doubled when the
    previous square was also a prize; a non-prize in-bounds square scores
    -2*(j-1); stepping out of bounds scores -10 and keeps the previous
    position. The starting square never counts as a prize before the
    first step, so that step is never doubled. Snake worlds have no
    obstacles; a world with some is rejected.
    """
    if path.M != 5:
        raise ValueError("maze/snake paths use M=5 actions")
    if world.obstacles:
        raise ValueError("snake worlds have no obstacles")
    d = path.d
    pos = world.start
    prev_on_prize = False
    total = 0.0
    trace = []
    for j, a in enumerate(path.levels, start=1):
        dx, dy = MOVES5[a]
        cand = (pos[0] + dx, pos[1] + dy)
        if not world.in_bounds(cand):
            r = -10.0
            on_prize = pos in world.prizes
        else:
            pos = cand
            on_prize = pos in world.prizes
            if on_prize:
                r = (10.0 if prev_on_prize else 5.0) * (d - j + 1)
            else:
                r = -2.0 * (j - 1)
        total += r
        trace.append(
            {"step": j, "action": a, "position": pos, "prize": on_prize,
             "step_value": r}
        )
        prev_on_prize = on_prize
    return SimResult(total, tuple(trace))


@dataclass(frozen=True)
class ObstacleCourse:
    start: tuple[float, float] = (0.05, 0.05)
    target: tuple[float, float] = (0.75, 0.75)
    speed_low: float = 0.05
    speed_high: float = 0.125
    boxes: tuple = field(default=())  # axis-aligned (x0, y0, x1, y1)
    substeps: int = 20

    def __post_init__(self):
        # substeps 0 divides by zero and a negative count drops the path
        # integral; an inverted box contains no point, so it is no obstacle
        if self.substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {self.substeps}")
        for x0, y0, x1, y1 in self.boxes:
            if x0 > x1 or y0 > y1:
                raise ValueError(f"obstacle box {(x0, y0, x1, y1)} has x0 > x1 or y0 > y1")


def _occupancy(course: ObstacleCourse, x: float, y: float) -> float:
    for x0, y0, x1, y1 in course.boxes:
        if x0 <= x <= x1 and y0 <= y <= y1:
            return 30.0
    return 0.0


def rover_decision(code: int, course: ObstacleCourse) -> tuple[float, float]:
    """Map an action code 1..9 to a per-timestep displacement vector."""
    if not 1 <= code <= 9:
        raise ValueError(f"rover action {code} outside 1..9")
    if code == 9:
        return (0.0, 0.0)
    speed = course.speed_low if code <= 4 else course.speed_high
    angle = ROVER_ANGLES[(code - 1) % 4]
    return (speed * float(np.cos(angle)), speed * float(np.sin(angle)))


def rover_cost(course: ObstacleCourse, path: Point) -> SimResult:
    """Trajectory cost: trapezoidal integral of (obstacle occupancy + 0.05)
    along the path at `course.substeps` sub-steps per step, plus 50 *
    distance from the final position to the target, minus a constant 5."""
    if path.M != 9:
        raise ValueError("rover paths use M=9 actions")
    S = course.substeps
    x, y = (float(v) for v in course.start)
    trace = []
    running = 0.0
    for j, a in enumerate(path.levels, start=1):
        dx, dy = rover_decision(a, course)
        seg = 0.0
        step_len = float(np.linalg.norm((dx, dy))) / S
        if step_len > 0:
            costs = [_occupancy(course, x + dx * (t / S), y + dy * (t / S)) + 0.05
                     for t in range(S + 1)]
            for t in range(S):
                seg += 0.5 * (costs[t] + costs[t + 1]) * step_len
        running += seg
        x, y = x + dx, y + dy
        trace.append({"step": j, "action": a, "position": (x, y), "step_value": seg})
    tx, ty = course.target
    terminal = 50.0 * float(np.linalg.norm((x - tx, y - ty))) - 5.0
    trace.append({"step": path.d + 1, "action": None, "position": (x, y),
                  "step_value": terminal})
    return SimResult(running + terminal, tuple(trace))


# -- configuration files ------------------------------------------------


def gridworld_from_dict(obj: dict) -> GridWorld:
    for key in ("width", "height", "start"):
        if key not in obj:
            raise ValueError(f"grid world config missing field '{key}'")
    # stepping off the grid scores a penalty and keeps the last square
    # ("clamp"), the only out-of-bounds rule the simulators implement
    if obj.get("oob_rule", "clamp") != "clamp":
        raise ValueError(f"unsupported oob_rule {obj['oob_rule']!r}; only 'clamp'")
    # the starting square never scores as a prize (see snake_reward)
    if obj.get("start_is_prize", False):
        raise ValueError("unsupported start_is_prize true; the start is never a prize")
    return GridWorld(
        width=int(obj["width"]),
        height=int(obj["height"]),
        start=tuple(obj["start"]),
        goal=tuple(obj["goal"]) if obj.get("goal") else None,
        obstacles=frozenset(tuple(c) for c in obj.get("obstacles", [])),
        prizes=frozenset(tuple(c) for c in obj.get("prizes", [])),
    )


def course_from_dict(obj: dict) -> ObstacleCourse:
    base = ObstacleCourse()
    speeds = obj.get("speeds", {})
    return ObstacleCourse(
        start=tuple(obj.get("start", base.start)),
        target=tuple(obj.get("target", base.target)),
        speed_low=float(speeds.get("low", base.speed_low)),
        speed_high=float(speeds.get("high", base.speed_high)),
        boxes=tuple(tuple(b) for b in obj.get("boxes", base.boxes)),
        substeps=int(obj.get("substeps", base.substeps)),
    )


def default_maze() -> GridWorld:
    return PROBLEMS["maze"].config()


def default_snake() -> GridWorld:
    return PROBLEMS["snake"].config()


def default_rover() -> ObstacleCourse:
    return PROBLEMS["rover"].config()


class Problem(NamedTuple):
    """A shipped problem; `sign` turns the simulator's value into a reward."""

    M: int  # actions per step
    d: int  # default path length
    data: str  # the default config, a JSON file under quip/data
    from_dict: Callable[[dict], object]
    simulate: Callable[[object, Point], SimResult]
    sign: float

    def config(self, path=None):
        """The config read from the JSON file at `path`, or the default one."""
        return self.from_dict(read_json(path or resources.files("quip.data") / self.data))


# simulators are looked up by name at call time, so a wrapper installed on
# the module attribute (a profiler, a test double) applies here too
PROBLEMS = {
    "maze": Problem(5, 12, "maze6.json", gridworld_from_dict,
                    lambda world, x: maze_cost(world, x), -1.0),
    "snake": Problem(5, 12, "snake8.json", gridworld_from_dict,
                     lambda world, x: snake_reward(world, x), 1.0),
    "rover": Problem(9, 8, "rover.json", course_from_dict,
                     lambda course, x: rover_cost(course, x), -1.0),
}
