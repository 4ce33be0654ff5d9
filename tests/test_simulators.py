import dataclasses
import json
import math

import numpy as np
import pytest

from quip.encoding import Point
from quip.simulators import (
    PROBLEMS,
    GridWorld,
    ObstacleCourse,
    course_from_dict,
    default_maze,
    default_rover,
    default_snake,
    distance_field,
    gridworld_from_dict,
    maze_cost,
    rover_cost,
    rover_decision,
    snake_reward,
)


class TestGridWorld:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridWorld(3, 3, (0, 1))
        with pytest.raises(ValueError):
            GridWorld(3, 3, (1, 1), obstacles=frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            GridWorld(3, 3, (1, 1), goal=(4, 4))

    def test_config_round_trip(self):
        w = gridworld_from_dict(
            {"width": 4, "height": 4, "start": [1, 1], "goal": [4, 4],
             "obstacles": [[2, 2]], "prizes": [[3, 3]]}
        )
        assert w.goal == (4, 4) and (2, 2) in w.obstacles

    def test_only_clamp_oob_rule(self):
        obj = {"width": 4, "height": 4, "start": [1, 1]}
        assert gridworld_from_dict(dict(obj, oob_rule="clamp")).width == 4
        with pytest.raises(ValueError, match="oob_rule"):
            gridworld_from_dict(dict(obj, oob_rule="wrap"))

    def test_start_is_never_a_prize(self):
        obj = {"width": 4, "height": 4, "start": [1, 1], "prizes": [[1, 1]]}
        assert gridworld_from_dict(dict(obj, start_is_prize=False)).width == 4
        with pytest.raises(ValueError, match="start_is_prize"):
            gridworld_from_dict(dict(obj, start_is_prize=True))

    @pytest.mark.parametrize("key", ["width", "height", "start"])
    def test_missing_field_named(self, key):
        obj = {"width": 4, "height": 4, "start": [1, 1]}
        del obj[key]
        with pytest.raises(ValueError, match=f"missing field '{key}'"):
            gridworld_from_dict(obj)

    def test_config_file_read_as_json_object(self, tmp_path):
        # configs skipped read_json's schema_version and top-level checks
        path = tmp_path / "w.json"
        obj = {"width": 4, "height": 4, "start": [1, 1], "goal": [4, 4]}
        path.write_text(json.dumps(obj))
        assert PROBLEMS["maze"].config(path) == gridworld_from_dict(obj)
        path.write_text(json.dumps(dict(obj, schema_version=99)))
        with pytest.raises(ValueError, match="schema_version 99"):
            PROBLEMS["snake"].config(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="expected a JSON object"):
            PROBLEMS["rover"].config(path)


class TestMaze:
    def test_goal_reaching_path_costs_zero(self):
        w = GridWorld(3, 3, (1, 1), goal=(3, 1))
        res = maze_cost(w, Point((4, 4) + (5,) * 10, 5))  # right, right, stay...
        assert res.value == 0.0

    def test_distance_field_needs_a_goal(self):
        with pytest.raises(ValueError, match="world has no goal"):
            distance_field(GridWorld(3, 3, (1, 1)))

    def test_bfs_runs_once_per_world(self):
        # the field was recomputed on every evaluation; a new world's field
        # is computed once, read-only, and gives the same costs
        w = GridWorld(7, 5, (1, 1), goal=(6, 4), obstacles=frozenset({(3, 2), (3, 3)}))
        fresh = distance_field.__wrapped__(w)
        rng = np.random.default_rng(6)
        paths = [Point(tuple(rng.integers(1, 6, size=10)), 5) for _ in range(200)]
        misses = distance_field.cache_info().misses
        costs = [maze_cost(w, p).value for p in paths]
        assert distance_field.cache_info().misses == misses + 1
        assert costs == [maze_cost(w, p).value for p in paths]
        assert distance_field(w) == fresh
        with pytest.raises(TypeError):
            distance_field(w)[w.goal] = 5

    def test_world_from_lists_and_sets(self):
        # a set of obstacles made the world unhashable for distance_field
        w = GridWorld(4, 3, [1, 1], goal=[4, 1], obstacles={(2, 1)})
        assert w == GridWorld(4, 3, (1, 1), goal=(4, 1), obstacles=frozenset({(2, 1)}))
        assert maze_cost(w, Point((5,) * 4, 5)).value == 5.0

    def test_all_stay_equals_field_at_start(self):
        w = default_maze()
        field = distance_field(w)
        res = maze_cost(w, Point((5,) * 12, 5))
        assert res.value == field[w.start]

    def test_bfs_oracle_random_paths(self):
        # cost always equals an independent BFS distance from the final cell
        from collections import deque

        w = default_maze()
        rng = np.random.default_rng(0)

        def bfs(src):
            if src == w.goal:
                return 0
            seen = {src}
            q = deque([(src, 0)])
            while q:
                (cx, cy), dist = q.popleft()
                for dx, dy in ((0, 1), (0, -1), (-1, 0), (1, 0)):
                    nxt = (cx + dx, cy + dy)
                    if (w.in_bounds(nxt) and nxt not in w.obstacles
                            and nxt not in seen):
                        if nxt == w.goal:
                            return dist + 1
                        seen.add(nxt)
                        q.append((nxt, dist + 1))
            return w.width * w.height

        for _ in range(50):
            path = Point(tuple(rng.integers(1, 6, size=12)), 5)
            res = maze_cost(w, path)
            final = res.trace[-1]["position"]
            assert res.value == bfs(final)

    def test_bounce_stay(self):
        w = GridWorld(3, 3, (1, 1), goal=(3, 3), obstacles=frozenset({(2, 1)}))
        # moving right into the obstacle leaves the position unchanged
        trace = maze_cost(w, Point((4, 4, 5), 5)).trace
        assert trace[0]["position"] == (1, 1)

    @pytest.mark.parametrize("levels", [(1, 2, 7), (1, 2, 3)])
    def test_wrong_m(self, levels):
        # M=9 paths are rejected, also when every level is a valid move
        for sim, world in ((maze_cost, default_maze()),
                           (snake_reward, default_snake())):
            with pytest.raises(ValueError, match="M=5"):
                sim(world, Point(levels, 9))

    def test_trace_consistency(self):
        w = default_maze()
        res = maze_cost(w, Point((1, 4, 1, 4, 1, 4, 1, 4, 5, 5, 5, 5), 5))
        assert sum(t["step_value"] for t in res.trace) == res.value


class TestSnake:
    def test_no_prize_path(self):
        w = default_snake()
        res = snake_reward(w, Point((1, 2) * 6, 5))  # oscillate, no prizes
        assert res.value == -2 * sum(range(12)) == -132

    def test_first_step_out_of_bounds(self):
        w = GridWorld(3, 3, (1, 1))
        res = snake_reward(w, Point((3,) + (5,) * 11, 5))
        assert res.trace[0]["step_value"] == -10.0
        assert res.trace[0]["position"] == (1, 1)  # clamped

    def test_prize_on_step_one(self):
        w = GridWorld(3, 3, (1, 1), prizes=frozenset({(2, 1)}))
        res = snake_reward(w, Point((4,) + (5,) * 11, 5))
        assert res.trace[0]["step_value"] == 5 * 12

    def test_consecutive_prize_doubles(self):
        w = GridWorld(4, 1, (1, 1), prizes=frozenset({(2, 1), (3, 1)}))
        res = snake_reward(w, Point((4, 4) + (5,) * 10, 5))
        assert res.trace[0]["step_value"] == 5 * 12
        assert res.trace[1]["step_value"] == 10 * 11

    def test_staying_on_prize_keeps_bonus(self):
        # prizes are not consumed: staying scores the consecutive rate
        w = GridWorld(3, 1, (1, 1), prizes=frozenset({(2, 1)}))
        res = snake_reward(w, Point((4, 5) + (5,) * 10, 5))
        assert res.trace[1]["step_value"] == 10 * 11

    def test_reward_value_set(self):
        # every step reward is one of the four defined forms
        w = default_snake()
        rng = np.random.default_rng(1)
        d = 12
        for _ in range(50):
            res = snake_reward(w, Point(tuple(rng.integers(1, 6, size=d)), 5))
            for t in res.trace:
                j = t["step"]
                assert t["step_value"] in {
                    -10.0, -2.0 * (j - 1), 5.0 * (d - j + 1), 10.0 * (d - j + 1)
                }

    def test_obstacles_rejected(self):
        # action 4 from (4, 4) would land on the obstacle at (5, 4)
        w = GridWorld(8, 8, (4, 4), obstacles=frozenset({(5, 4)}))
        with pytest.raises(ValueError, match="obstacles"):
            snake_reward(w, Point((4,) + (5,) * 11, 5))
        assert not default_snake().obstacles

    def test_trace_consistency(self):
        w = default_snake()
        rng = np.random.default_rng(2)
        for _ in range(20):
            res = snake_reward(w, Point(tuple(rng.integers(1, 6, size=12)), 5))
            assert sum(t["step_value"] for t in res.trace) == res.value


class TestRover:
    def test_decision_codes(self):
        c = ObstacleCourse()
        assert rover_decision(9, c) == (0.0, 0.0)
        assert rover_decision(1, c) == (0.05, 0.0)
        dx, dy = rover_decision(8, c)  # high speed, angle pi/2
        assert dx == pytest.approx(0.0, abs=1e-15) and dy == pytest.approx(0.125)
        with pytest.raises(ValueError):
            rover_decision(10, c)

    def test_all_stay_closed_form(self):
        c = default_rover()
        res = rover_cost(c, Point((9,) * 8, 9))
        expected = 50.0 * math.dist(c.start, c.target) - 5.0
        assert res.value == pytest.approx(expected, abs=1e-12)

    def test_obstacle_free_leg_running_cost(self):
        # a straight leg of length L off obstacles integrates to 0.05*L
        c = ObstacleCourse(boxes=())
        res = rover_cost(c, Point((5,) + (9,) * 7, 9))  # one high-speed leg
        assert res.trace[0]["step_value"] == pytest.approx(0.05 * 0.125, rel=1e-12)

    def test_refinement_oracle(self):
        # obstacle-free: substep refinement does not change the integral
        c = ObstacleCourse(boxes=())
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = Point(tuple(rng.integers(1, 10, size=8)), 9)
            a = rover_cost(c, p)
            b = rover_cost(dataclasses.replace(c, substeps=200), p)
            assert a.value == pytest.approx(b.value, abs=1e-6)

    def test_cost_lower_bound(self):
        c = default_rover()
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = Point(tuple(rng.integers(1, 10, size=8)), 9)
            assert rover_cost(c, p).value >= -5.0

    def test_obstacle_penalty_counts(self):
        wide = ObstacleCourse(start=(0.0, 0.0), boxes=((-1.0, -1.0, 1.0, 1.0),))
        res = rover_cost(wide, Point((1,) + (9,) * 7, 9))
        # fully inside the obstacle: (30 + 0.05) per unit length
        assert res.trace[0]["step_value"] == pytest.approx(30.05 * 0.05, rel=1e-12)

    def test_trace_consistency(self):
        c = default_rover()
        rng = np.random.default_rng(5)
        for _ in range(10):
            p = Point(tuple(rng.integers(1, 10, size=8)), 9)
            res = rover_cost(c, p)
            assert sum(t["step_value"] for t in res.trace) == pytest.approx(
                res.value, abs=1e-12
            )

    def test_wrong_m(self):
        with pytest.raises(ValueError):
            rover_cost(default_rover(), Point((1,) * 8, 5))

    @pytest.mark.parametrize("d", [8, 12])
    def test_matches_the_vector_formula(self, d):
        # rover_cost used numpy 2-vectors for every sample; the same
        # arithmetic on Python floats gives identical results
        def vector_cost(course, path):
            S = course.substeps
            pos = np.asarray(course.start, dtype=float)
            trace, running = [], 0.0
            for j, a in enumerate(path.levels, start=1):
                delta = np.asarray(rover_decision(a, course))
                nxt = pos + delta
                seg = 0.0
                step_len = float(np.linalg.norm(delta)) / S
                if step_len > 0:
                    costs = [(30.0 if any(x0 <= p[0] <= x1 and y0 <= p[1] <= y1
                                          for x0, y0, x1, y1 in course.boxes) else 0.0)
                             + 0.05 for p in (pos + delta * (t / S) for t in range(S + 1))]
                    for t in range(S):
                        seg += 0.5 * (costs[t] + costs[t + 1]) * step_len
                running += seg
                trace.append({"step": j, "action": a, "step_value": seg,
                              "position": (float(nxt[0]), float(nxt[1]))})
                pos = nxt
            terminal = 50.0 * float(np.linalg.norm(pos - np.asarray(course.target))) - 5.0
            trace.append({"step": path.d + 1, "action": None, "step_value": terminal,
                          "position": (float(pos[0]), float(pos[1]))})
            return running + terminal, tuple(trace)

        two_boxes = ObstacleCourse(boxes=((0.1, 0.1, 0.3, 0.35), (0.4, 0.2, 0.6, 0.5)),
                                   substeps=7)
        rng = np.random.default_rng(d)
        for course in (default_rover(), two_boxes):
            for _ in range(300):
                p = Point(tuple(int(v) for v in rng.integers(1, 10, size=d)), 9)
                res = rover_cost(course, p)
                assert (res.value, res.trace) == vector_cost(course, p), p

    def test_course_config(self):
        c = course_from_dict({"speeds": {"low": 0.1, "high": 0.2}, "boxes": []})
        assert c.speed_low == 0.1 and c.speed_high == 0.2
        assert course_from_dict({}) == ObstacleCourse()

    @pytest.mark.parametrize("bad, match", [
        ({"substeps": 0}, "substeps"), ({"substeps": -1}, "substeps"),
        ({"boxes": [[0.5, 0.2, 0.3, 0.4]]}, "box"), ({"boxes": [[0.2, 0.5, 0.3, 0.4]]}, "box")])
    def test_course_config_rejected(self, bad, match):
        # substeps 0 divided by zero in rover_cost, -1 dropped the path
        # integral, and an inverted box silently removed its obstacle
        with pytest.raises(ValueError, match=match):
            course_from_dict(bad)


class TestDeterminism:
    def test_identical_inputs_identical_results(self):
        w = default_snake()
        p = Point((1, 4, 4, 1, 2, 3, 5, 1, 4, 2, 3, 5), 5)
        assert snake_reward(w, p) == snake_reward(w, p)
        c = default_rover()
        q = Point((1, 5, 8, 9, 2, 6, 3, 7), 9)
        assert rover_cost(c, q) == rover_cost(c, q)
