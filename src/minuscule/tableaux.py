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
``path_to_tableau`` still checks that every step lifts to a 0/1 row
vector and that the rows fill a rectangle, and ``promote`` that the gaps
end in the last column.

``path_to_tableau`` lifts steps through a table per (root system,
weight), built once from the weight's Weyl orbit: each orbit element maps
to the rows its entry lands in, computed by ``_lift_rows`` with its 0/1
checks.  A step missing from the table has left its orbit, which is an
``AlgorithmInvariantViolated`` as a failed lift is.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType

from .errors import AlgorithmInvariantViolated, InvalidTableau, TypeMismatch
from .paths import LittelmannPath, WeightSequence, _int_lists, _sub
from .rootsys import Weight, build_root_system, weyl_orbit


@dataclass(frozen=True)
class RowStrictTableau:
    """n x b array, rows strictly increasing, columns weakly increasing."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
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

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    @property
    def content(self) -> tuple[int, ...]:
        top = max(max(row) for row in self.rows)
        counts = [0] * top
        for row in self.rows:
            for x in row:
                counts[x - 1] += 1
        return tuple(counts)

    def to_json_list(self):
        return [list(row) for row in self.rows]


def _lift_rows(step, box_count, n) -> tuple[int, ...]:
    """The rows the new entry occupies: the support of the 0/1 vector of
    length n with consecutive differences ``step`` summing to
    ``box_count``."""
    suffix = [0] * n
    for k in range(n - 2, -1, -1):
        suffix[k] = suffix[k + 1] + step[k]
    base, rem = divmod(box_count - sum(suffix), n)
    if rem:
        raise AlgorithmInvariantViolated("step does not lift to the standard basis")
    lift = [base + s for s in suffix]
    if set(lift) - {0, 1}:
        raise AlgorithmInvariantViolated(f"lift {lift} is not a 0/1 vector")
    return tuple(r for r, occupied in enumerate(lift) if occupied)


@functools.lru_cache(maxsize=None)
def _lift_table(rs, lam) -> MappingProxyType[Weight, tuple[int, ...]]:
    """Every step in the orbit of ``lam``, mapped to the rows its entry lands in."""
    n, box_count = rs.rank + 1, lam.index(1) + 1
    table = {step: _lift_rows(step, box_count, n) for step in weyl_orbit(rs, lam)}
    return MappingProxyType(table)  # cached and shared: read only


def path_to_tableau(p: LittelmannPath) -> RowStrictTableau:
    """Record, for each step, the rows in which its entry lands."""
    rs = p.seq.rs
    if rs.family != "A":
        raise TypeMismatch(f"tableaux need type A, got {rs}")
    n = rs.rank + 1
    tables = {lam: _lift_table(rs, lam) for lam in set(p.seq.weights)}
    rows: list[list[int]] = [[] for _ in range(n)]
    prev = rs.zero()
    for j, (point, lam) in enumerate(zip(p.points, p.seq.weights), start=1):
        lifted = tables[lam].get(_sub(point, prev))
        if lifted is None:
            raise AlgorithmInvariantViolated(f"step into {point} leaves the orbit of {lam}")
        for r in lifted:
            rows[r].append(j)
        prev = point
    if len({len(r) for r in rows}) != 1:
        raise AlgorithmInvariantViolated("path did not fill a rectangle")
    return RowStrictTableau._trusted(tuple(map(tuple, rows)))


def tableau_to_path(t: RowStrictTableau) -> LittelmannPath:
    """Inverse of ``path_to_tableau``: subtableau shapes, projected to weights."""
    n = t.n_rows
    if n < 2:
        raise InvalidTableau("need at least two rows to define a rank >= 1 path")
    # the values 1..max (max in the last box, as rows strictly and columns
    # weakly increase) all appear only if max is at most the box count;
    # refuse before ``content`` sizes a list by the maximum
    if t.rows[-1][-1] > n * t.n_cols:
        raise InvalidTableau("every entry value up to the maximum must appear")
    rs = build_root_system("A", n - 1)
    content = t.content
    m = len(content)
    if any(c == 0 for c in content):
        raise InvalidTableau("every entry value up to the maximum must appear")
    if any(not 1 <= c <= n - 1 for c in content):
        raise InvalidTableau("an entry filling a full column has no minuscule step")
    weights = tuple(rs.fundamental_weight(c) for c in content)
    shape = [0] * n
    points = []
    for value in range(1, m + 1):
        for r, row in enumerate(t.rows):
            if value in row:
                shape[r] += 1
        points.append(tuple(shape[i] - shape[i + 1] for i in range(n - 1)))
    return LittelmannPath(WeightSequence(rs, weights), tuple(points))


def promote(t: RowStrictTableau) -> RowStrictTableau:
    """Jeu-de-taquin promotion: delete the 1s, slide each next value left
    then up into the gaps while relabelling down, refill the last column.

    Only the boxes present are visited, in ascending order of value, so
    the cost follows the number of boxes and not the largest entry."""
    rows = t.rows
    top = rows[-1][-1]  # rows strictly, columns weakly increasing
    grid: list[list[int | None]] = [list(row) for row in rows]
    # a value only moves on its own turn, so one sort orders every box: the
    # 1s come first and are cleared; the boxes of each later value (at most
    # one per row) come top to bottom, and each slides left within its row,
    # then up, so a cell vacated above frees the one below it; the box is
    # written once, where it stops
    first_count = 0
    for value, r, c in sorted([(x, r, c) for r, row in enumerate(rows)
                               for c, x in enumerate(row)]):
        row = grid[r]
        row[c] = None
        if value == 1:
            first_count += 1
            continue
        while c and row[c - 1] is None:
            c -= 1
        while r and grid[r - 1][c] is None:
            r -= 1
        grid[r][c] = value - 1
    # one pass counts and refills the gaps in the last column
    gaps = 0
    for row in grid:
        if row[-1] is None:
            row[-1] = top
            gaps += 1
    if gaps != first_count or any(None in row for row in grid):
        raise AlgorithmInvariantViolated("gaps did not migrate to the last column")
    return RowStrictTableau._trusted(tuple(map(tuple, grid)))
