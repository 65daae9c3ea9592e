import collections
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuscule import battery, tableaux
from minuscule.errors import AlgorithmInvariantViolated, InvalidTableau, TypeMismatch
from minuscule.paths import LittelmannPath, WeightSequence, enumerate_paths
from minuscule.rootsys import build_root_system, weyl_orbit
from minuscule.tableaux import (
    RowStrictTableau,
    path_to_tableau,
    promote,
    tableau_to_path,
)

from support import A1, A2, A3, BIG, W, peak_memory

TYPE_A_SEQUENCES = [
    WeightSequence(A1, (W, W)),
    WeightSequence(A1, (W,) * 4),
    WeightSequence(A1, (W,) * 6),
    WeightSequence(A2, ((1, 0),) * 3),
    WeightSequence(A2, ((1, 0), (0, 1), (1, 0), (0, 1))),
    WeightSequence(A2, ((1, 0), (1, 0), (0, 1), (1, 0), (1, 0))),
    WeightSequence(A3, ((0, 1, 0),) * 4),
    WeightSequence(A3, ((1, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 1))),
]


def entry_counts(t):
    """How often each value appears in ``t``."""
    return collections.Counter(x for row in t.rows for x in row)


class TestValidation:
    def test_rejects_ragged(self):
        with pytest.raises(InvalidTableau):
            RowStrictTableau(((1, 2), (3,)))

    def test_rejects_weak_rows(self):
        with pytest.raises(InvalidTableau):
            RowStrictTableau(((1, 1), (2, 3)))

    def test_rejects_decreasing_columns(self):
        with pytest.raises(InvalidTableau):
            RowStrictTableau(((2, 3), (1, 4)))

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(InvalidTableau):
            RowStrictTableau(((0, 1),))

    def test_accepts_repeats_within_a_column(self):
        t = RowStrictTableau(((1, 3), (2, 3), (4, 5)))
        assert entry_counts(t) == {1: 1, 2: 1, 3: 2, 4: 1, 5: 1}
        assert t.n_rows == 3 and len(t.rows[0]) == 2


class TestPathBijection:
    def test_forward_values(self):
        p1, p2 = enumerate_paths(WeightSequence(A1, (W,) * 4))
        assert path_to_tableau(p1).rows == ((1, 3), (2, 4))
        assert path_to_tableau(p2).rows == ((1, 2), (3, 4))
        (column,) = enumerate_paths(WeightSequence(A2, ((1, 0),) * 3))
        assert path_to_tableau(column).rows == ((1,), (2,), (3,))

    def test_inverse_values(self):
        p = tableau_to_path(RowStrictTableau(((1, 3), (2, 4))))
        assert p.points == ((1,), (0,), (1,), (0,))
        p = tableau_to_path(RowStrictTableau(((1, 2), (3, 4))))
        assert p.points == ((1,), (2,), (1,), (0,))

    def test_type_mismatch(self):
        d4 = build_root_system("D", 4)
        seq = WeightSequence(d4, (d4.fundamental_weight(1),) * 4)
        with pytest.raises(TypeMismatch):
            path_to_tableau(enumerate_paths(seq)[0])

    def test_full_column_entry_rejected(self):
        with pytest.raises(InvalidTableau):
            tableau_to_path(RowStrictTableau(((1, 2), (1, 3))))

    def test_a_missing_value_is_refused_before_a_full_column(self):
        # 1 fills a column in both; only in the first is 2 missing
        with pytest.raises(InvalidTableau, match="must appear"):
            tableau_to_path(RowStrictTableau(((1, 3), (1, 4))))
        with pytest.raises(InvalidTableau, match="full column has no minuscule step"):
            tableau_to_path(RowStrictTableau(((1, 2), (1, 3))))

    def test_single_row_rejected(self):
        with pytest.raises(InvalidTableau):
            tableau_to_path(RowStrictTableau(((1, 2, 3),)))

    def test_step_outside_its_orbit_is_caught(self):
        # (2,) is no weight of the A1 standard orbit {(1,), (-1,)}
        bad = LittelmannPath._trusted(WeightSequence(A1, (W,) * 4), ((2,), (1,), (1,), (0,)))
        with pytest.raises(AlgorithmInvariantViolated):
            path_to_tableau(bad)
        # steps (1,), (0,), (-1,), (0,): the two in the orbit alone fill a
        # 2 x 1 rectangle, so only the orbit check can catch the (0,) steps
        bad = LittelmannPath._trusted(WeightSequence(A1, (W,) * 4), ((1,), (1,), (0,), (0,)))
        with pytest.raises(AlgorithmInvariantViolated):
            path_to_tableau(bad)

    def test_a_refused_step_is_never_stored(self, monkeypatch):
        # a fresh memo, filled by every A1 (omega_1)^4 path
        monkeypatch.setattr(tableaux, "_lifts", functools.lru_cache(maxsize=None)(
            tableaux._lifts.__wrapped__))
        seq = WeightSequence(A1, (W,) * 4)
        for p in enumerate_paths(seq):
            path_to_tableau(p)
        memo = tableaux._lifts(A1, W)
        assert memo
        # the planted paths of test_step_outside_its_orbit_is_caught: the
        # second meets a refused pair after a stored one
        for points, (prev, point) in ((((2,), (1,), (1,), (0,)), ((0,), (2,))),
                                      (((1,), (1,), (0,), (0,)), ((1,), (1,)))):
            bad = LittelmannPath._trusted(seq, points)
            for _ in range(2):
                with pytest.raises(AlgorithmInvariantViolated, match="leaves the orbit"):
                    path_to_tableau(bad)
            assert point not in memo.get(prev, {})

    def test_the_lift_memo_agrees_with_the_table(self, monkeypatch):
        monkeypatch.setattr(tableaux, "_lifts", functools.lru_cache(maxsize=None)(
            tableaux._lifts.__wrapped__))
        cases = [seq for seq in battery.standard_battery() if seq.rs.family == "A"]
        for seq in cases:
            for p in enumerate_paths(seq):
                path_to_tableau(p)
        stored = 0
        for rs, lam in {(seq.rs, lam) for seq in cases for lam in seq.weights}:
            table = tableaux._lift_table(rs, lam)
            for prev, nexts in tableaux._lifts(rs, lam).items():
                for point, rows in nexts.items():
                    assert rows == table[tuple(a - b for a, b in zip(point, prev))]
                    stored += 1
        assert stored

    def test_path_that_fills_no_rectangle_is_caught(self):
        # every step is in its orbit, but both entries land in the first row
        bad = LittelmannPath._trusted(WeightSequence(A1, (W, W)), ((1,), (2,)))
        with pytest.raises(AlgorithmInvariantViolated):
            path_to_tableau(bad)

    @pytest.mark.parametrize("rank", range(1, 10))
    def test_the_lift_table_covers_exactly_the_weyl_orbit(self, rank):
        # built forward from row sets, the table's steps are checked here
        # against the orbit that rootsys finds by reflections
        rs = build_root_system("A", rank)
        for k in range(1, rank + 1):
            lam = rs.fundamental_weight(k)
            table = tableaux._lift_table(rs, lam)
            assert set(table) == set(weyl_orbit(rs, lam))
            for rows in table.values():
                assert len(rows) == k and list(rows) == sorted(set(rows))
                assert 0 <= rows[0] and rows[-1] <= rank

    @pytest.mark.parametrize("seq", TYPE_A_SEQUENCES)
    def test_round_trip(self, seq):
        for p in enumerate_paths(seq):
            assert tableau_to_path(path_to_tableau(p)).points == p.points


class TestLargeEntries:
    """Cost follows the number of boxes, not the largest entry."""

    def test_promote_visits_only_the_values_present(self):
        t = RowStrictTableau(((1, BIG),))
        with peak_memory() as peak:
            rows = promote(t).rows
        assert rows == ((BIG - 1, BIG),)
        assert peak[0] < 1 << 20

    def test_tableau_to_path_refuses_a_maximum_above_the_box_count(self):
        t = RowStrictTableau(((1, 2), (3, BIG)))
        with peak_memory() as peak:
            with pytest.raises(InvalidTableau, match="must appear"):
                tableau_to_path(t)
        assert peak[0] < 1 << 20


class TestPromotion:
    def test_spec_values(self):
        assert promote(RowStrictTableau(((1, 3), (2, 4)))).rows == ((1, 2), (3, 4))
        assert promote(RowStrictTableau(((1, 2), (3, 4)))).rows == ((1, 3), (2, 4))
        assert promote(RowStrictTableau(((1,), (2,), (3,)))).rows == ((1,), (2,), (3,))

    def test_column_repeat_case(self):
        # the 3s share a column; the slides must not collide
        t = RowStrictTableau(((1, 3), (2, 3), (4, 5)))
        assert promote(t).rows == ((1, 2), (2, 4), (3, 5))

    @pytest.mark.parametrize("seq", TYPE_A_SEQUENCES)
    def test_equivariance(self, seq):
        # promote matches rotate through the bijection, and promotion^m = id
        result = battery.suite_promotion_equivariance([seq])
        assert result.passed, result.failures

    @pytest.mark.parametrize("seq", TYPE_A_SEQUENCES)
    def test_content_shifts_cyclically(self, seq):
        # every value 1..m appears in a path's tableau, so top is m and
        # promotion sends each value v to v - 1, and 1 to top
        for p in enumerate_paths(seq):
            t = path_to_tableau(p)
            before = entry_counts(t)
            top = max(before)
            shifted = {(v - 2) % top + 1: k for v, k in before.items()}
            assert entry_counts(promote(t)) == shifted

    @pytest.mark.parametrize("seq", TYPE_A_SEQUENCES)
    def test_outputs_stay_valid(self, seq):
        for p in enumerate_paths(seq):
            t = promote(path_to_tableau(p))
            # the constructor re-validates shape and monotonicity
            assert RowStrictTableau(t.rows).rows == t.rows


@st.composite
def row_strict_tableaux(draw):
    """Any valid row-strict rectangle: each entry exceeds its left
    neighbour by at least 1 and its upper neighbour by at least 0, so
    values may be skipped and may repeat down a column."""
    n, b = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    rows: list[list[int]] = []
    for r in range(n):
        row: list[int] = []
        for c in range(b):
            floor = max(row[-1] + 1 if row else 1, rows[-1][c] if rows else 1)
            row.append(floor + draw(st.integers(0, 2)))
        rows.append(row)
    return RowStrictTableau(rows)


def promote_by_full_scans(t):
    """Promotion as first written: one scan of the whole grid per value."""
    n, b = t.n_rows, len(t.rows[0])
    top = max(max(row) for row in t.rows)
    grid = [[None if x == 1 else x for x in row] for row in t.rows]
    for value in range(2, top + 1):
        slid = []
        for r, c in [(r, c) for r in range(n) for c in range(b) if grid[r][c] == value]:
            while c > 0 and grid[r][c - 1] is None:
                grid[r][c - 1], grid[r][c] = grid[r][c], None
                c -= 1
            slid.append((r, c))
        for r, c in sorted(slid):
            while r > 0 and grid[r - 1][c] is None:
                grid[r - 1][c], grid[r][c] = grid[r][c], None
                r -= 1
            grid[r][c] = value - 1
    return tuple(tuple(top if x is None else x for x in row) for row in grid)


class TestPromotionProperties:
    @settings(max_examples=300, deadline=None)
    @given(row_strict_tableaux())
    def test_any_valid_tableau(self, t):
        u = promote(t)
        assert RowStrictTableau(u.rows) == u
        assert u.rows == promote_by_full_scans(t)

    @pytest.mark.parametrize("rows, promoted", [
        # the 1s fill column 0: every row holds a hole
        (((1, 2, 4), (1, 3, 5), (1, 4, 6)), ((1, 3, 6), (2, 4, 6), (3, 5, 6))),
        (((1, 2, 5),), ((1, 4, 5),)),  # one row: the hole only moves right
        (((1,), (1,), (2,)), ((1,), (2,), (2,))),  # one column: only down
        (((2, 3), (4, 5)), ((1, 2), (3, 4))),  # no 1: no hole, every entry relabelled
        (((1, 2), (1, 3)), ((1, 3), (2, 3))),  # repeats down a column
        # the hole of row 0 moves down and settles in row 1's last box, where
        # flat index + 1 is row 2's first box: a read that wraps fails here
        pytest.param(((1, 2, 3), (1, 4, 5), (2, 6, 7)), ((1, 2, 4), (1, 3, 7), (5, 6, 7)),
                     id="hole-settles-at-the-end-of-a-row-above-the-bottom"),
    ])
    def test_fixed_cases(self, rows, promoted):
        t = RowStrictTableau(rows)
        assert promote(t).rows == promoted == promote_by_full_scans(t)

    def test_a_hole_stopping_short_is_caught(self):
        # not column-weak (column 1 reads 4, 6, 3): the hole in row 0 meets
        # the old maximum 3 to its right and more below, so it stops in column 0
        t = RowStrictTableau._trusted(((1, 4), (5, 6), (2, 3)))
        with pytest.raises(AlgorithmInvariantViolated, match="last column"):
            promote(t)


@st.composite
def path_tableaux(draw):
    """A tableau that ``tableau_to_path`` accepts: an n x b rectangle grown
    one vertical strip per value, no strip a full column."""
    n, b = draw(st.integers(2, 5)), draw(st.integers(1, 6))
    shape = [0] * n
    rows: list[list[int]] = [[] for _ in range(n)]
    value = 0
    while shape[-1] < b:
        strip: list[int] = []
        for r in range(n):
            # a box fits below a longer row, or below a box of this strip
            fits = shape[r] < b and (r == 0 or shape[r] < shape[r - 1] or r - 1 in strip)
            if fits and draw(st.booleans()):
                strip.append(r)
        if not strip:  # the first row that can take a box always can alone
            strip = [next(r for r in range(n)
                          if shape[r] < b and (r == 0 or shape[r] < shape[r - 1]))]
        if len(strip) == n:  # a full column: the strip stays one without its last row
            strip.pop()
        value += 1
        for r in strip:
            shape[r] += 1
            rows[r].append(value)
    return RowStrictTableau(rows)


def tableau_to_path_by_row_scans(t):
    """The points of ``tableau_to_path`` as first written: every row is
    tested for every value."""
    n = t.n_rows
    shape = [0] * n
    points = []
    for value in range(1, max(map(max, t.rows)) + 1):
        for r, row in enumerate(t.rows):
            if value in row:
                shape[r] += 1
        points.append(tuple(shape[i] - shape[i + 1] for i in range(n - 1)))
    return tuple(points)


class TestTableauToPathScan:
    @settings(max_examples=200, deadline=None)
    @given(path_tableaux())
    def test_accepted_tableau(self, t):
        p = tableau_to_path(t)
        assert p.points == tableau_to_path_by_row_scans(t)
        assert path_to_tableau(p) == t

    @settings(max_examples=200, deadline=None)
    @given(row_strict_tableaux())
    def test_any_row_strict_tableau(self, t):
        # skipped values and full columns are refused as before
        try:
            p = tableau_to_path(t)
        except InvalidTableau as refused:
            assert str(refused) in (
                "need at least two rows to define a rank >= 1 path",
                "every entry value up to the maximum must appear",
                "an entry filling a full column has no minuscule step",
            )
        else:
            assert p.points == tableau_to_path_by_row_scans(t)

    def test_two_long_rows(self):
        t = RowStrictTableau((tuple(range(1, 4000, 2)), tuple(range(2, 4001, 2))))
        p = tableau_to_path(t)
        assert len(p.points) == 4000
        assert p.points == tableau_to_path_by_row_scans(t)
