import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quip.encoding import (
    Design,
    DimensionMismatchError,
    NeedsTwoPointsError,
    Point,
    design_from_array,
    design_from_dict,
    design_to_dict,
    lattice_array,
    lattice_distances,
    load_design,
    min_pairwise_distance,
    read_json,
    save_design,
)


def _hamming(x: Point, y: Point) -> int:
    """Number of dissimilar entries between two points: the reference
    distance for the library's array-based ones."""
    return sum(a != b for a, b in zip(x.levels, y.levels))


points = st.integers(2, 5).flatmap(
    lambda M: st.lists(st.integers(1, M), min_size=1, max_size=8).map(
        lambda lv: Point(tuple(lv), M)
    )
)


class TestPoint:
    def test_valid(self):
        p = Point((1, 3, 2), 3)
        assert p.d == 3 and p.M == 3

    def test_level_out_of_range(self):
        with pytest.raises(ValueError):
            Point((1, 4), 3)
        with pytest.raises(ValueError):
            Point((0, 1), 3)

    def test_m_too_small(self):
        with pytest.raises(ValueError):
            Point((1,), 1)

    def test_empty(self):
        with pytest.raises(ValueError):
            Point((), 2)


class TestDesign:
    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Design((Point((1, 2), 2), Point((1,), 2)))
        with pytest.raises(DimensionMismatchError):
            Design((Point((1, 2), 2), Point((1, 2), 3)))

    def test_not_equal_to_other_types(self):
        D = design_from_array([[1, 2]], 2)
        assert D.__eq__([[1, 2]]) is NotImplemented
        assert D != [[1, 2]] and D != "design"

    def test_duplicates_allowed(self):
        D = Design((Point((1, 1), 2), Point((1, 1), 2)))
        assert min_pairwise_distance(D) == 0

    def test_as_array(self):
        D = design_from_array([[1, 2], [2, 1]], 2)
        assert np.array_equal(D.as_array(), [[1, 2], [2, 1]])
        assert D.as_array().dtype == np.int64
        assert D.as_array() is D.as_array()

    def test_as_array_is_read_only(self):
        levels = np.array([[1, 2], [2, 1]])
        D = design_from_array(levels, 2)
        with pytest.raises(ValueError):
            D.as_array()[0, 0] = 2
        levels[0, 0] = 2  # the design holds its own copy
        assert D.as_array()[0, 0] == 1

    @pytest.mark.parametrize(
        "levels",
        [[1, 2, 1], [[[1, 2]]], [], [[]], np.zeros((0, 3), dtype=int)],
    )
    def test_from_array_rejects_bad_shapes(self, levels):
        with pytest.raises(ValueError, match="n x d array"):
            design_from_array(levels, 2)

    @pytest.mark.parametrize(
        "levels, M", [([[1, 3]], 2), ([[0, 1]], 2), ([[1, -1]], 3), ([[1, 1]], 1)]
    )
    def test_from_array_rejects_bad_levels(self, levels, M):
        with pytest.raises(ValueError):
            design_from_array(levels, M)

    def test_empty_point_list_rejected(self):
        with pytest.raises(ValueError):
            Design(())

    def test_points_constructor_matches_array_constructor(self):
        pts = (Point((1, 3, 2), 3), Point((2, 2, 1), 3))
        D = Design(pts)
        assert D == design_from_array([[1, 3, 2], [2, 2, 1]], 3)
        assert D != design_from_array([[1, 3, 2], [2, 2, 1]], 4)
        assert D.points == pts
        assert (D.n, D.d, D.M) == (2, 3, 3)

    @given(
        st.integers(2, 5).flatmap(
            lambda M: st.tuples(
                st.just(M),
                st.integers(1, 6).flatmap(
                    lambda d: st.lists(
                        st.lists(st.integers(1, M), min_size=d, max_size=d),
                        min_size=1,
                        max_size=8,
                    )
                ),
            )
        )
    )
    @settings(max_examples=100)
    def test_round_trip(self, case):
        M, rows = case
        D = design_from_array(rows, M)
        assert D.as_array().tolist() == rows
        assert [list(p.levels) for p in D.points] == rows
        assert Design(D.points) == D
        assert design_from_dict(design_to_dict(D)) == D


class TestEncode:
    def test_trace_identity(self):
        # Hamming distance = d - <X, Y> for the one-hot matrices of the
        # paper's integer program, built here from the levels
        eye = np.eye(3, dtype=int)
        for a, b in itertools.product(lattice_array(3, 3), repeat=2):
            inner = int(np.sum(eye[a - 1] * eye[b - 1]))
            assert _hamming(Point(a, 3), Point(b, 3)) == 3 - inner


class TestHamming:
    def test_known(self):
        assert _hamming(Point((1, 2, 3), 3), Point((1, 3, 3), 3)) == 1

    @given(points, st.randoms())
    @settings(max_examples=50)
    def test_metric_properties(self, p, rnd):
        lv = list(p.levels)
        rnd.shuffle(lv)
        q = Point(tuple(lv), p.M)
        assert _hamming(p, p) == 0
        assert _hamming(p, q) == _hamming(q, p)
        assert 0 <= _hamming(p, q) <= p.d

    def test_triangle_inequality_exhaustive(self):
        pts = [Point(row, 2) for row in lattice_array(3, 2)]
        for a, b, c in itertools.product(pts, repeat=3):
            assert _hamming(a, c) <= _hamming(a, b) + _hamming(b, c)


class TestMinPairwiseDistance:
    def test_needs_two(self):
        with pytest.raises(NeedsTwoPointsError):
            min_pairwise_distance(Design((Point((1,), 2),)))

    def test_known(self):
        D = design_from_array([[1, 1, 1], [2, 2, 2], [1, 2, 2]], 2)
        assert min_pairwise_distance(D) == 1

    def test_matches_pairwise_hamming(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            D = design_from_array(rng.integers(1, 4, size=(6, 4)), 3)
            pts = D.points
            want = min(_hamming(p, q) for p, q in itertools.combinations(pts, 2))
            assert min_pairwise_distance(D) == want

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 150])
    def test_blocks_match_brute_force_with_duplicate_rows(self, n):
        # n = 150 compares three blocks of rows, the last one partial; a
        # copied row lands in the same block or in a later one
        rng = np.random.default_rng(n)
        for trial in range(12):
            arr = rng.integers(1, 5, size=(n, 7))
            if trial % 2:
                i, j = sorted(rng.choice(n, size=2, replace=False))
                arr[j] = arr[i]
            want = min(
                int(np.count_nonzero(a != b)) for a, b in itertools.combinations(arr, 2)
            )
            assert min_pairwise_distance(design_from_array(arr, 4)) == want
            if trial % 2:
                assert want == 0


class TestAllPoints:
    def test_count_and_order(self):
        # lattice_array enumerates all points of {1..M}^d in lexicographic order
        full = lattice_array(2, 3)
        assert full.shape == (9, 2) and full.dtype == np.int64
        for d, M in ((2, 3), (3, 2), (1, 4)):
            want = [list(p) for p in itertools.product(range(1, M + 1), repeat=d)]
            assert lattice_array(d, M).tolist() == want

    def test_distances_match_hamming(self):
        pts, dist = lattice_distances(3, 2)
        assert pts.tolist() == lattice_array(3, 2).tolist()
        P = [Point(tuple(int(v) for v in row), 2) for row in pts]
        assert dist.tolist() == [[_hamming(x, y) for y in P] for x in P]


class TestSerialization:
    def test_json_round_trip(self, tmp_path):
        D = design_from_array([[1, 3], [2, 1]], 3)
        path = tmp_path / "d.json"
        save_design(D, path)
        obj = json.loads(path.read_text())
        assert obj["schema_version"] == 1
        assert load_design(path) == D

    def test_dict_round_trip(self):
        D = design_from_array([[2, 2], [1, 1]], 2)
        assert design_from_dict(design_to_dict(D)) == D

    def test_json_m_must_match(self, tmp_path):
        path = tmp_path / "d.json"
        save_design(design_from_array([[1, 2]], 2), path)
        assert load_design(path, M=2).M == 2
        with pytest.raises(ValueError, match="has M=2, expected M=3"):
            load_design(path, M=3)

    def test_csv_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n3,1,2\n")
        D = load_design(path, M=3)
        assert D.n == 2 and D.M == 3

    def test_csv_ragged_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,3\n1,2\n")
        with pytest.raises(ValueError, match="point 1 has 2 fields, expected 3"):
            load_design(path)

    def test_csv_non_integer_level_named(self, tmp_path):
        # "1,x" used to give only "invalid literal for int() with base 10: 'x'"
        path = tmp_path / "d.csv"
        for text, field in (("1,2\n1,x\n", "'x'"), ("1,2\n1,2.0\n", "'2.0'")):
            path.write_text(text)
            with pytest.raises(ValueError) as exc:
                load_design(path)
            assert str(exc.value) == (f"design {path}: point 1 has a field that is not "
                                      f"an integer at position 2 of 2: {field}")

    def test_csv_interior_blank_field(self, tmp_path):
        # "1,,2" used to load as the 2-factor point [1, 2]
        path = tmp_path / "d.csv"
        for text in ("1,3,2\n1,,2\n", "1,3,2\n,1,2\n"):
            path.write_text(text)
            with pytest.raises(ValueError, match="point 1 has an empty field"):
                load_design(path)
        path.write_text("1,3,\n2,1, \n")
        assert load_design(path).as_array().tolist() == [[1, 3], [2, 1]]

    def test_missing_field(self):
        with pytest.raises(ValueError, match="points"):
            design_from_dict({"n": 1, "d": 1, "M": 2})

    def test_point_level_count_must_match_d(self):
        # the points agree with each other, so only the declared d catches it
        with pytest.raises(ValueError, match="point 0 has 2 levels, expected 3"):
            design_from_dict({"n": 1, "d": 3, "M": 2, "points": [[1, 2]]})

    def test_csv_without_points_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\n\n")
        with pytest.raises(ValueError, match="no points found"):
            load_design(path)

    def test_inconsistent_counts(self):
        with pytest.raises(ValueError):
            design_from_dict(
                {"n": 2, "d": 1, "M": 2, "points": [[1]]}
            )

    def test_schema_version_checked(self, tmp_path):
        path = tmp_path / "d.json"
        obj = {"n": 1, "d": 2, "M": 2, "points": [[1, 2]]}
        path.write_text(json.dumps(obj))  # no version field: accepted
        assert load_design(path) == design_from_array([[1, 2]], 2)
        assert read_json(path) == obj
        path.write_text(json.dumps({"schema_version": 2, **obj}))
        with pytest.raises(ValueError, match="schema_version"):
            load_design(path)
        with pytest.raises(ValueError, match="schema_version"):
            read_json(path)
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            read_json(path)
