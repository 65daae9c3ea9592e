import contextlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuscule.errors import AlgorithmInvariantViolated, InvalidTableau, TypeMismatch
from minuscule.paths import LittelmannPath, WeightSequence, enumerate_paths, rotate
from minuscule.rootsys import build_root_system
from minuscule.tableaux import (
    RowStrictTableau,
    path_to_tableau,
    promote,
    tableau_to_path,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
W = (1,)
BIG = 3_000_000

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
        assert t.content == (1, 1, 2, 1, 1)
        assert t.n_rows == 3 and t.n_cols == 2


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

    def test_path_that_fills_no_rectangle_is_caught(self):
        # every step is in its orbit, but both entries land in the first row
        bad = LittelmannPath._trusted(WeightSequence(A1, (W, W)), ((1,), (2,)))
        with pytest.raises(AlgorithmInvariantViolated):
            path_to_tableau(bad)

    @pytest.mark.parametrize("seq", TYPE_A_SEQUENCES)
    def test_round_trip(self, seq):
        for p in enumerate_paths(seq):
            assert tableau_to_path(path_to_tableau(p)).points == p.points


@contextlib.contextmanager
def peak_memory():
    """Yield a list that receives the tracemalloc peak of the block, in
    bytes, when the block ends."""
    out: list[int] = []
    tracemalloc.start()
    try:
        yield out
    finally:
        out.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()


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
        for p in enumerate_paths(seq):
            assert promote(path_to_tableau(p)).rows == path_to_tableau(rotate(p)).rows

    @pytest.mark.parametrize("seq", TYPE_A_SEQUENCES)
    def test_order_divides_m(self, seq):
        m = len(seq)
        for p in enumerate_paths(seq):
            t = path_to_tableau(p)
            image = t
            for _ in range(m):
                image = promote(image)
            assert image.rows == t.rows

    @pytest.mark.parametrize("seq", TYPE_A_SEQUENCES)
    def test_content_shifts_cyclically(self, seq):
        for p in enumerate_paths(seq):
            t = path_to_tableau(p)
            before = t.content
            after = promote(t).content
            assert after == before[1:] + before[:1]

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
    n, b = draw(st.integers(1, 4)), draw(st.integers(1, 4))
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
    n, b = t.n_rows, t.n_cols
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
