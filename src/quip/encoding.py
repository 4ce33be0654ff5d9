"""Categorical points, designs, Hamming geometry and the input file formats.

Levels are 1-indexed everywhere: a point with d factors and M levels per
factor lives in {1..M}^d. A design stores its n points as one validated,
read-only n x d int64 array of levels; `Point` is the one-point type used
at the API and CLI edges. Every point and design carries its (d, M) so
dimension mismatches surface as errors instead of silent corruption.

Every JSON file the library reads goes through `read_json`, and every
comma-separated input (design, responses, lookup table, path) through `read_csv`.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = 1


class DimensionMismatchError(ValueError):
    """Two points or designs do not share the same (d, M)."""


class NeedsTwoPointsError(ValueError):
    """Operation requires a design with at least two points."""


class TooLargeError(ValueError):
    """Brute-force enumeration would exceed the size guard."""


def check_int(name: str, value, low: int) -> int:
    """Return `value` as an int; reject a bool, a non-integer (a JSON 2.0
    included) or a value below `low`, naming the field."""
    # `type is int` first: the ABC isinstance costs ~0.5 us per call
    integral = type(value) is int or (
        not isinstance(value, bool) and isinstance(value, numbers.Integral))
    if not integral or value < low:
        raise ValueError(f"{name}={value!r} must be an int >= {low}")
    return int(value)


def check_time_limit(time_limit: float | None) -> None:
    """Reject a wall-clock limit that is neither None (no limit) nor a
    finite positive number of seconds."""
    if time_limit is not None and not (math.isfinite(time_limit) and time_limit > 0):
        raise ValueError(f"time limit must be positive and finite, got {time_limit!r}")


@dataclass(frozen=True)
class Point:
    """A single categorical point: 1-indexed levels in {1..M}^d."""

    levels: tuple[int, ...]
    M: int

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(int(v) for v in self.levels))
        if len(self.levels) < 1:
            raise ValueError("point needs at least one factor")
        if self.M < 2:
            raise ValueError(f"M must be >= 2, got {self.M}")
        for j, v in enumerate(self.levels):
            if not 1 <= v <= self.M:
                raise ValueError(f"level {v} at factor {j} outside 1..{self.M}")

    @property
    def d(self) -> int:
        return len(self.levels)


class Design:
    """An ordered collection of n points sharing (d, M), held as one
    read-only n x d int64 array of levels.

    Duplicate points are representable; they form a valid degenerate
    design with minimum pairwise distance 0. Build one from Points with
    ``Design(points)`` or from an array with :func:`design_from_array`.
    """

    def __init__(self, points):
        points = tuple(points)
        for p in points[1:]:
            if (p.d, p.M) != (points[0].d, points[0].M):
                raise DimensionMismatchError(
                    f"point ({p.d},{p.M}) does not match design "
                    f"({points[0].d},{points[0].M})"
                )
        M = points[0].M if points else 2  # no points: the shape check rejects
        D = design_from_array([p.levels for p in points], M)
        self._levels, self._M = D._levels, D._M

    @property
    def n(self) -> int:
        return self._levels.shape[0]

    @property
    def d(self) -> int:
        return self._levels.shape[1]

    @property
    def M(self) -> int:
        return self._M

    @property
    def points(self) -> tuple[Point, ...]:
        """The design's points, built on demand."""
        return tuple(Point(row, self._M) for row in self._levels.tolist())

    def as_array(self) -> np.ndarray:
        """The stored n x d int64 array of 1-indexed levels (read-only)."""
        return self._levels

    def __eq__(self, other) -> bool:
        if not isinstance(other, Design):
            return NotImplemented
        return self._M == other._M and np.array_equal(self._levels, other._levels)

    def __repr__(self) -> str:
        return f"design_from_array({self._levels.tolist()}, M={self._M})"


def design_from_array(levels, M: int) -> Design:
    """Design over {1..M}^d from an n x d array of levels, which is copied
    and checked (the one check of every design's levels)."""
    arr = np.array(levels, dtype=np.int64, order="C")
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(
            f"design needs an n x d array of levels, n, d >= 1; got shape {arr.shape}"
        )
    if M < 2:
        raise ValueError(f"M must be >= 2, got {M}")
    bad = (arr < 1) | (arr > M)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise ValueError(f"level {arr[i, j]} of point {i} at factor {j} outside 1..{M}")
    arr.flags.writeable = False
    D = Design.__new__(Design)
    D._levels, D._M = arr, M
    return D


_BLOCK = 64  # rows per block of min_pairwise_distance


def min_pairwise_distance(D: Design) -> int:
    """Minimum Hamming distance over all point pairs of the design.

    The rows are compared one block pair at a time: block s against the
    blocks from s on, as one broadcast comparison of at most _BLOCK x
    _BLOCK x d cells, so memory stays bounded and a design of up to _BLOCK
    rows takes one comparison. A block against itself holds each pair
    twice, and its diagonal, each row against itself, is set to d, which
    never lowers the minimum. The scan stops at the first duplicate pair."""
    if D.n < 2:
        raise NeedsTwoPointsError("min pairwise distance needs n >= 2")
    arr, n, d = D.as_array(), D.n, D.d
    best = d
    for s in range(0, n, _BLOCK):
        rows = arr[s : s + _BLOCK, None, :]
        for t in range(s, n, _BLOCK):
            dist = np.count_nonzero(rows != arr[None, t : t + _BLOCK, :], axis=2)
            if t == s:
                dist.flat[:: len(dist) + 1] = d
            best = min(best, int(dist.min()))
            if best == 0:
                return 0
    return best


def lattice_array(d: int, M: int) -> np.ndarray:
    """Full lattice {1..M}^d as an M**d x d int64 array in lexicographic order."""
    grid = np.indices((M,) * d, dtype=np.int64).reshape(d, -1)
    return np.ascontiguousarray(grid.T) + 1


def lattice_distances(d: int, M: int) -> tuple[np.ndarray, np.ndarray]:
    """The lattice as `lattice_array` and its M**d x M**d matrix of
    pairwise Hamming distances."""
    pts = lattice_array(d, M)
    return pts, np.count_nonzero(pts[:, None, :] != pts[None, :, :], axis=2)


def write_json(obj: dict, path=None) -> None:
    """Write obj as indented JSON with the schema version first, to the
    file at `path` or, when it is None, to standard output."""
    text = json.dumps({"schema_version": SCHEMA_VERSION, **obj}, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    with open(path, "w") as fh:
        fh.write(text)


def read_json(path) -> dict:
    """Read a JSON object, rejecting a schema version other than this
    library's; a file without the field is accepted."""
    with open(path) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} is not supported "
            f"(expected {SCHEMA_VERSION})"
        )
    return obj


_KIND = {int: "an integer", float: "a number"}


def read_csv(lines, where, cast, last=None, width=None) -> list[tuple[int, list]]:
    """The rows of comma-separated `lines` as (line number, values) pairs,
    line numbers 1-based. Each field is stripped and trailing empty fields
    are dropped, so a trailing comma ends a row and a blank line is
    skipped; the fields are converted by `cast` (int or float), the last
    one by `last` when given. A row with an empty field before a value, a
    field that does not convert, or other than `width` fields (by default
    the first row's) is rejected, and so is text the csv module cannot
    split; each is named as `where(i, line)` for the i-th row kept
    (0-based)."""
    rows = []
    reader = csv.reader(lines)
    try:
        for row in reader:
            line = reader.line_num
            fields = [v.strip() for v in row]
            while fields and not fields[-1]:
                fields.pop()
            if not fields:
                continue
            if "" in fields:
                raise ValueError(
                    f"{where(len(rows), line)} has an empty field at position "
                    f"{fields.index('') + 1} of {len(fields)}: {','.join(row)!r}"
                )
            width = width or len(fields)
            if len(fields) != width:
                raise ValueError(
                    f"{where(len(rows), line)} has {len(fields)} fields, expected {width}"
                )
            casts = [cast] * (width - 1) + [last or cast]
            values = []
            for k, (to, v) in enumerate(zip(casts, fields)):
                try:
                    values.append(to(v))
                except ValueError:
                    raise ValueError(
                        f"{where(len(rows), line)} has a field that is not "
                        f"{_KIND[to]} at position {k + 1} of {width}: {v!r}"
                    ) from None
            rows.append((line, values))
    except csv.Error as exc:
        # the csv module's advice on a line break, to open the file in
        # universal-newline mode, does not apply to lines already split
        reason = "it has a line break inside a row" if "new-line" in str(exc) else exc
        raise ValueError(
            f"{where(len(rows), reader.line_num)} is not comma-separated text: {reason}"
        ) from None
    return rows


def design_to_dict(D: Design) -> dict:
    return {"n": D.n, "d": D.d, "M": D.M, "points": D.as_array().tolist()}


def design_from_dict(obj: dict) -> Design:
    for field in ("n", "d", "M", "points"):
        if field not in obj:
            raise ValueError(f"design file missing field '{field}'")
    for i, row in enumerate(obj["points"]):
        if len(row) != obj["d"]:
            raise ValueError(f"point {i} has {len(row)} levels, expected {obj['d']}")
    if len(obj["points"]) != obj["n"]:
        raise ValueError(
            f"file declares n={obj['n']} but has {len(obj['points'])} points"
        )
    return design_from_array(obj["points"], int(obj["M"]))


def save_design(D: Design, path) -> None:
    write_json(design_to_dict(D), path)


def load_design(path, M: int | None = None) -> Design:
    """Read a design from JSON, or from headerless CSV (one point per row).

    CSV has no (d, M) header, so `M` must be supplied for CSV input;
    it defaults to the largest level present. A JSON design declares its
    own M, which must equal `M` when `M` is given.
    """
    with open(path) as fh:
        text = fh.read()
    if text.lstrip().startswith("{"):
        D = design_from_dict(read_json(path))
        if M is not None and D.M != M:
            raise ValueError(f"design {path} has M={D.M}, expected M={M}")
        return D
    rows = [levels for _, levels in read_csv(
        text.splitlines(), lambda i, line: f"design {path}: point {i}", int)]
    if not rows:
        raise ValueError(f"no points found in {path}")
    level_max = max(max(r) for r in rows)
    return design_from_array(rows, M if M is not None else max(level_max, 2))
