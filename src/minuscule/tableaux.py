"""Rectangular row-strict tableaux, their path bijection, and promotion.

Internally everything runs in shape coordinates (length-n weakly
decreasing integer vectors): shapes grow monotonically as entries are
added, which keeps the slides local.  Conversion to rank n-1 weights
(consecutive differences of the shape vector) happens only at the path
boundary.

Validation happens once, where data enters: the public
``RowStrictTableau`` constructor checks that it gets a list of rows of
``int`` entries, the shape and strictness.  The tableau of a path and
the promotion of a tableau are row-strict by construction, so they are
built with the unchecked ``RowStrictTableau._trusted``;
``path_to_tableau`` still checks that every step is in its weight's
orbit and that the rows fill a rectangle, and ``promote`` that every
hole ends in the last column.

``promote`` is Schutzenberger's jeu de taquin driven by the holes the 1s
leave, not by the values: one relabelling copy of the boxes, then each
hole slides right or down to the last column, so only the cells on the
holes' paths move.  It shares no code with path rotation, so the check
that promotion is rotation through ``path_to_tableau`` stays a check.

``path_to_tableau`` lifts steps through a table per (root system,
weight omega_k), built once and forward: for each k-subset S of the n
rows it maps the step of an entry landing in S, the weight whose i-th
coordinate is [i in S] - [i+1 in S], to S.  These steps are the Weyl
orbit of omega_k, so a step missing from the table has left its orbit,
which is an ``AlgorithmInvariantViolated``.
"""
from __future__ import annotations

import functools
import itertools
from types import MappingProxyType

from .errors import AlgorithmInvariantViolated, InvalidTableau, TypeMismatch
from .paths import LittelmannPath, WeightSequence, _int_lists, _steps
from .records import FrozenRecord
from .rootsys import Weight, build_root_system


class RowStrictTableau(FrozenRecord):
    """n x b array, rows strictly increasing, columns weakly increasing."""

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]):
        self._fill(rows)
        self._validate()

    def _validate(self):
        if not _int_lists(self.rows):
            raise InvalidTableau(f"a tableau is a list of rows of integers, not {self.rows!r}")
        rows = tuple(tuple(row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        if not rows or not rows[0]:
            raise InvalidTableau("tableau must have at least one box")
        b = len(rows[0])
        if any(len(row) != b for row in rows):
            raise InvalidTableau("tableau must be rectangular")
        for row in rows:
            if any(x < 1 for x in row):
                raise InvalidTableau("entries must be positive integers")
            if any(a >= c for a, c in zip(row, row[1:])):
                raise InvalidTableau(f"row {row} is not strictly increasing")
        for c in range(b):
            col = [row[c] for row in rows]
            if any(a > d for a, d in zip(col, col[1:])):
                raise InvalidTableau(f"column {c + 1} is not weakly increasing")

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...]):
        """Build without checks: ``rows`` is a non-empty rectangle of int
        tuples, rows strictly and columns weakly increasing."""
        t = object.__new__(cls)
        object.__setattr__(t, "rows", rows)
        return t

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def to_json_list(self):
        return [list(row) for row in self.rows]


@functools.lru_cache(maxsize=None)
def _lift_table(rs, lam) -> MappingProxyType[Weight, tuple[int, ...]]:
    """Every step in the orbit of ``lam`` = omega_k, mapped to the k rows
    its entry lands in, built from the k-subsets of the rows."""
    n = rs.rank + 1
    table = {tuple((i in rows) - (i + 1 in rows) for i in range(n - 1)): rows
             for rows in itertools.combinations(range(n), lam.index(1) + 1)}
    return MappingProxyType(table)  # cached and shared: read only


def path_to_tableau(p: LittelmannPath) -> RowStrictTableau:
    """Record, for each step, the rows in which its entry lands."""
    rs = p.seq.rs
    if rs.family != "A":
        raise TypeMismatch(f"tableaux need type A, got {rs}")
    n = rs.rank + 1
    rows: list[list[int]] = [[] for _ in range(n)]
    steps = zip(_steps(p.points), p.points, p.seq.weights)
    for j, (step, point, lam) in enumerate(steps, start=1):
        lifted = _lift_table(rs, lam).get(step)
        if lifted is None:
            raise AlgorithmInvariantViolated(f"step into {point} leaves the orbit of {lam}")
        for r in lifted:
            rows[r].append(j)
    if len({len(r) for r in rows}) != 1:
        raise AlgorithmInvariantViolated("path did not fill a rectangle")
    return RowStrictTableau._trusted(tuple(map(tuple, rows)))


def tableau_to_path(t: RowStrictTableau) -> LittelmannPath:
    """Inverse of ``path_to_tableau``: subtableau shapes, projected to weights."""
    n = t.n_rows
    if n < 2:
        raise InvalidTableau("need at least two rows to define a rank >= 1 path")
    # the rows holding each value, from one scan over the boxes
    rows_of: dict[int, list[int]] = {}
    for r, row in enumerate(t.rows):
        for x in row:
            rows_of.setdefault(x, []).append(r)
    # the entries are positive and at most the one in the last box, as rows
    # strictly and columns weakly increase, so all of 1..max appear exactly
    # when max values do
    top = t.rows[-1][-1]
    if len(rows_of) != top:
        raise InvalidTableau("every entry value up to the maximum must appear")
    # a row holds a value at most once, so only a full column is too many
    if any(len(rows) == n for rows in rows_of.values()):
        raise InvalidTableau("an entry filling a full column has no minuscule step")
    rs = build_root_system("A", n - 1)
    weights = []
    shape = [0] * n
    points = []
    for x in range(1, top + 1):
        rows = rows_of[x]
        weights.append(rs.fundamental_weight(len(rows)))
        for r in rows:
            shape[r] += 1
        points.append(tuple(shape[i] - shape[i + 1] for i in range(n - 1)))
    return LittelmannPath(WeightSequence(rs, tuple(weights)), tuple(points))


def promote(t: RowStrictTableau) -> RowStrictTableau:
    """Jeu-de-taquin promotion: delete the 1s, slide the holes they leave
    to the last column, relabel every other entry down by one and fill
    the holes with the old maximum.

    The 1s sit at the top of column 0, and each hole they leave slides in
    turn, bottom hole first: the smaller of its right and lower neighbours
    moves into it, the right one on a tie (a row holds no repeats).  A
    cell outside the rectangle, or a hole already settled, reads as the
    old maximum ``top``, which exceeds every relabelled entry, so a hole
    stops where both of its neighbours read as ``top``.  The cost is one
    copy of the boxes plus one step per cell on each hole's path, at most
    k * (n + b) for k holes in an n x b rectangle, whatever the values."""
    rows = t.rows
    top = rows[-1][-1]  # rows strictly, columns weakly increasing
    grid = [[x - 1 for x in row] for row in rows]
    bottom, last = len(grid) - 1, len(grid[0]) - 1
    for r in range([row[0] for row in rows].count(1) - 1, -1, -1):
        row, c = grid[r], 0
        while True:
            right = row[c + 1] if c < last else top
            below = grid[r + 1][c] if r < bottom else top
            if right <= below:
                if right == top:
                    break
                row[c] = right
                c += 1
            else:
                row[c] = below
                r += 1
                row = grid[r]
        if c != last:
            raise AlgorithmInvariantViolated("gaps did not migrate to the last column")
        row[c] = top
    return RowStrictTableau._trusted(tuple(map(tuple, grid)))
