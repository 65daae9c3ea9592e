import collections
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from minuscule import battery, kostka
from minuscule.errors import EnumerationTooLarge, InvalidContent, OracleTooLarge, SizeMismatch
from minuscule.kostka import (
    _charge_counts,
    _pruned_terms,
    _q_count,
    charge,
    invariant_dim,
    kostka_foulkes,
    q_kostant,
)
from minuscule.paths import WeightSequence
from minuscule.poly import IntPolynomial
from minuscule.rootsys import build_root_system

from support import BIG, peak_memory, poly


def reading_word(rows) -> tuple[int, ...]:
    """Rows left to right, bottom row first."""
    out = []
    for row in reversed(rows):
        out.extend(row)
    return tuple(out)


class TestCharge:
    @pytest.mark.parametrize("word,value", [
        ((3, 2, 1), 0),
        ((3, 1, 2), 2),
        ((2, 1, 3), 1),
        ((1, 2, 3), 3),
        ((2, 1, 1), 0),
        ((2, 3, 1, 1), 1),
    ])
    def test_anchors(self, word, value):
        assert charge(word) == value

    def test_rejects_non_partition_content(self):
        with pytest.raises(InvalidContent):
            charge((2, 2, 3))  # content (0, 2, 1)
        with pytest.raises(InvalidContent):
            charge((1, 3))  # letter 2 missing
        with pytest.raises(InvalidContent):
            charge((0, 1))

    def test_empty_word(self):
        assert charge(()) == 0

    def test_refuses_a_letter_above_the_word_length_before_counting(self):
        with peak_memory() as peak:
            with pytest.raises(InvalidContent, match="exceeds the word length 2"):
                charge([1, BIG])
        assert peak[0] < 1 << 20

    @pytest.mark.parametrize("word", [[1.5, 1], ["2", "1", True], [2, True], [1, None]])
    def test_rejects_letters_that_are_not_ints(self, word):
        with pytest.raises(InvalidContent):
            charge(word)

    def test_accepts_any_iterable_of_ints(self):
        assert charge(int(c) for c in "2311") == charge([2, 3, 1, 1]) == 1


class TestKostkaFoulkes:
    def test_anchors(self):
        assert kostka_foulkes((2, 2), (1, 1, 1, 1)) == poly(0, 0, 1, 0, 1)
        assert kostka_foulkes((2, 1), (2, 1)) == poly(1)
        assert kostka_foulkes((3,), (1, 1, 1)) == poly(0, 0, 0, 1)
        assert kostka_foulkes((2, 1), (1, 1, 1)) == poly(0, 1, 1)

    def test_size_mismatch(self):
        with pytest.raises(SizeMismatch):
            kostka_foulkes((2, 2), (1, 1, 1))
        with pytest.raises(InvalidContent):
            kostka_foulkes((1, 2), (1, 1, 1))

    def test_rejects_a_negative_content_entry(self):
        # the sizes agree, so only the sign of -1 refuses
        for compute in (kostka_foulkes, q_kostant):
            with pytest.raises(InvalidContent, match="nonnegative"):
                compute((1,), (2, -1))

    def test_zero_when_shape_cannot_hold_content(self):
        # more identical letters than columns in their rows
        assert kostka_foulkes((1, 1), (2,)) == poly()

    def test_value_at_one_counts_tableaux(self):
        for nu in battery._partitions(5):
            for gamma in battery._partitions(5):
                count = sum(1 for _ in recursive_column_strict_tableaux(nu, gamma))
                assert sum(kostka_foulkes(nu, gamma).coeffs) == count

    def test_degree_formula(self):
        def weighted(parts):
            return sum(i * p for i, p in enumerate(parts))
        for nu in battery._partitions(6):
            for gamma in battery._partitions(6):
                k = kostka_foulkes(nu, gamma)
                if not k.is_zero():
                    assert len(k.coeffs) - 1 == weighted(gamma) - weighted(nu)

    @pytest.mark.parametrize("nu,gamma", [
        ((2.5,), (2,)),
        ((2,), (2.5,)),
        ((2.7,), (2.2,)),
        ((2,), ("2",)),
        (("2",), (2,)),
        ((True, True), (1, 1)),
        ((2,), (True, True)),
    ])
    def test_rejects_entries_that_are_not_ints(self, nu, gamma):
        with pytest.raises(InvalidContent):
            kostka_foulkes(nu, gamma)
        with pytest.raises(InvalidContent):
            q_kostant(nu, gamma)

    def test_bound_counts_merged_entries_not_tableaux(self, monkeypatch):
        # (5,5,5,5) has 1,662,804 standard tableaux; by the q-hook formula
        # their charge polynomial is q^40 [20]_q! / prod over boxes [hook]_q
        def q_int(k):
            return IntPolynomial((1,) * k)

        numerator = IntPolynomial((1,))
        for k in range(1, 21):
            numerator = numerator * q_int(k)
        denominator = IntPolynomial((1,))
        for i in range(4):
            for j in range(5):
                denominator = denominator * q_int((5 - j) + (4 - i) - 1)
        expected = (numerator // denominator).shift(40)
        assert sum(expected.coeffs) == 1_662_804
        monkeypatch.setattr(kostka, "CHARGE_COUNT_CAP", 100_000)
        assert kostka_foulkes((5, 5, 5, 5), (1,) * 20) == expected
        monkeypatch.setattr(kostka, "CHARGE_COUNT_CAP", 1000)
        with pytest.raises(EnumerationTooLarge, match="more than 1000 entries"):
            kostka_foulkes((5, 5, 5, 5), (1,) * 20)

    def test_content_permutation_invariance(self):
        rng = random.Random(1)
        for gamma in ((2, 1, 1), (3, 1, 2), (1, 2, 2, 1)):
            base = kostka_foulkes((4, 2) if sum(gamma) == 6 else (2, 2), gamma)
            for _ in range(4):
                shuffled = list(gamma)
                rng.shuffle(shuffled)
                assert kostka_foulkes((4, 2) if sum(gamma) == 6 else (2, 2), shuffled) == base


class TestQKostant:
    def test_anchors(self):
        assert q_kostant((2, 2), (1, 1, 1, 1)) == poly(0, 0, 1, 0, 1)
        assert q_kostant((1, 1), (1, 1)) == poly(1)
        assert q_kostant((2,), (1, 1)) == poly(0, 1)

    def test_cap(self):
        with pytest.raises(OracleTooLarge):
            q_kostant((1,) * 9, (1,) * 9)
        # eight parts, but the q-partition count grows with the entries:
        # this pair needs about 6.7M units of work
        with pytest.raises(OracleTooLarge, match="q-partition"):
            q_kostant((8,) * 4, (4,) * 8)

    def test_largest_pair_of_size_8_answers_within_its_exact_work(self, monkeypatch):
        # (6,2) with 1^8 takes 226,770 units of work, the most of any pair
        # with n <= 8, and the cap is exact
        monkeypatch.setattr(kostka, "Q_PARTITION_CAP", 226_770)
        assert q_kostant((6, 2), (1,) * 8) == kostka_foulkes((6, 2), (1,) * 8)
        monkeypatch.setattr(kostka, "Q_PARTITION_CAP", 226_769)
        with pytest.raises(OracleTooLarge, match="more than 226769 units of work"):
            q_kostant((6, 2), (1,) * 8)

    def test_work_cap_bounds_memory(self):
        # the count holds one level of merged states at a time
        with peak_memory() as peak:
            q_kostant((8,), (1,) * 8)
        assert peak[0] < 3 << 20

    def test_refusal_does_not_depend_on_earlier_calls(self, monkeypatch):
        # (6,) with 1^6 takes 6,422 units of work and (5,1) with 1^6
        # takes 6,959; a cap between the two separates them in any order
        small, large = ((6,), (1,) * 6), ((5, 1), (1,) * 6)
        monkeypatch.setattr(kostka, "Q_PARTITION_CAP", 6_700)
        with pytest.raises(OracleTooLarge):
            q_kostant(*large)
        assert q_kostant(*small) == kostka_foulkes(*small)
        with pytest.raises(OracleTooLarge):
            q_kostant(*large)
        assert q_kostant(*small) == kostka_foulkes(*small)

    def test_equivalence_sampled_large(self):
        rng = random.Random(11)
        pool7 = list(battery._partitions(7))
        for _ in range(10):
            nu, gamma = rng.choice(pool7), rng.choice(pool7)
            assert kostka_foulkes(nu, gamma) == q_kostant(nu, gamma)


@st.composite
def shapes_and_contents(draw, max_size=10):
    """A partition with at most 6 parts and a content vector of the same
    size with at most 6 parts (zeros allowed, any order)."""
    parts = draw(st.lists(st.integers(1, max_size), min_size=1, max_size=6))
    shape, size = [], 0
    for part in sorted(parts, reverse=True):
        if size + part <= max_size:
            shape.append(part)
            size += part
    cuts = sorted(draw(st.lists(st.integers(0, size), min_size=0, max_size=5)))
    content = [b - a for a, b in zip([0] + cuts, cuts + [size])]
    return tuple(shape), tuple(content)


@settings(max_examples=150, deadline=None)
@given(shapes_and_contents())
def test_charge_route_matches_alternating_sum(case):
    shape, content = case
    assert kostka_foulkes(shape, content) == q_kostant(shape, content)


@settings(max_examples=150, deadline=None)
@given(shapes_and_contents())
def test_carried_charge_is_the_charge_of_each_reading_word(case):
    shape, content = case
    content = tuple(sorted((c for c in content if c), reverse=True))
    expected = collections.Counter(charge(reading_word(rows))
                                   for rows in recursive_column_strict_tableaux(shape, content))
    assert _charge_counts(shape, content) == expected


def _prefixes_ok(beta):
    total = 0
    for x in beta:
        total += x
        if total < 0:
            return False
    return total == 0


def _sign_from_decreasing(perm):
    sign = 1
    for a in range(len(perm)):
        for b in range(a + 1, len(perm)):
            if perm[a] < perm[b]:
                sign = -sign
    return sign


def _weyl_vectors(shape, content):
    """lambda + rho and mu + rho over m = max(parts, 1) coordinates."""
    mu = tuple(sorted((c for c in content if c), reverse=True))
    m = max(len(shape), len(mu), 1)
    rho = range(m - 1, -1, -1)
    lam_rho = tuple(a + b for a, b in zip(shape + (0,) * (m - len(shape)), rho))
    target = tuple(a + b for a, b in zip(mu + (0,) * (m - len(mu)), rho))
    return lam_rho, target


def brute_force_terms(shape, content):
    """Reference: (sign, permutation) over all of S_m, filtered by prefix sums."""
    lam_rho, target = _weyl_vectors(shape, content)
    for perm in itertools.permutations(lam_rho):
        if _prefixes_ok(tuple(a - b for a, b in zip(perm, target))):
            yield _sign_from_decreasing(perm), perm


def brute_force_q_kostant(shape, content):
    lam_rho, target = _weyl_vectors(shape, content)
    total = IntPolynomial()
    for sign, perm in brute_force_terms(shape, content):
        beta = tuple(a - b for a, b in zip(perm, target))
        part = _q_count({beta: 1}, len(beta))
        total = total + sign * IntPolynomial(part)
    return total


def root_multiplicity_count(beta):
    """Reference: the coefficients of the sum of q^(k_1 + ... + k_r) over
    every vector of multiplicities k of the positive roots e_i - e_j with
    sum k_ij (e_i - e_j) = beta.  k_ij adds to every prefix sum from i to
    j - 1, so it is at most the prefix sum through i."""
    m = len(beta)
    roots = [(i, j) for i in range(m) for j in range(i + 1, m)]
    prefix = list(itertools.accumulate(beta))
    coeffs = collections.Counter()
    for ks in itertools.product(*(range(prefix[i] + 1) for i, _ in roots)):
        reached = [0] * m
        for (i, j), k in zip(roots, ks):
            reached[i] += k
            reached[j] -= k
        if tuple(reached) == beta:
            coeffs[sum(ks)] += 1
    return tuple(coeffs[e] for e in range(max(coeffs, default=-1) + 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=3))
def test_q_partition_count_matches_root_multiplicities(prefix):
    # beta with these prefix sums and total 0, as q_kostant passes it
    sums = [0, *prefix, 0]
    beta = tuple(b - a for a, b in zip(sums, sums[1:]))
    assert tuple(_q_count({beta: 1}, len(beta))) == root_multiplicity_count(beta)


@settings(max_examples=150, deadline=None)
@given(shapes_and_contents())
def test_pruned_walk_reaches_exactly_the_filtered_permutations(case):
    shape, content = case
    lam_rho, target = _weyl_vectors(shape, content)
    walked = [(sign, tuple(b + t for b, t in zip(beta, target)))
              for sign, beta in _pruned_terms(lam_rho, target)]
    assert len(walked) == len(set(walked))
    assert sorted(walked) == sorted(brute_force_terms(shape, content))
    assert q_kostant(shape, content) == brute_force_q_kostant(shape, content)


class TestInvariantDim:
    def test_catalan_values(self):
        a1 = build_root_system("A", 1)
        for m, want in ((2, 1), (4, 2), (6, 5), (8, 14)):
            assert invariant_dim(WeightSequence(a1, ((1,),) * m)) == want

    def test_d4_vector_fourth_power(self):
        d4 = build_root_system("D", 4)
        seq = WeightSequence(d4, (d4.fundamental_weight(1),) * 4)
        assert invariant_dim(seq) == 3

    def test_e6_pair_of_dual_pairs(self):
        e6 = build_root_system("E", 6)
        seq = WeightSequence(
            e6, (e6.fundamental_weight(1), e6.fundamental_weight(6)) * 2)
        assert invariant_dim(seq) == 3

    def test_zero_outside_root_lattice(self):
        a1 = build_root_system("A", 1)
        assert invariant_dim(WeightSequence(a1, ((1,),) * 3)) == 0

    @pytest.mark.parametrize("family,rank,indices", [
        ("A", 1, (1, 1, 1, 1)),
        ("A", 2, (1, 1, 1)),
        ("A", 2, (1, 2, 1, 2)),
        ("A", 3, (2, 2, 2, 2)),
        ("A", 3, (1, 3, 1, 3)),
        ("B", 3, (3, 3, 3, 3)),
        ("C", 3, (1, 1, 1, 1)),
    ])
    def test_agrees_with_path_enumeration(self, family, rank, indices):
        rs = build_root_system(family, rank)
        seq = WeightSequence(rs, tuple(rs.fundamental_weight(i) for i in indices))
        result = battery.suite_counting([seq])
        assert result.passed, result.failures


def recursive_column_strict_tableaux(shape, content):
    """Reference: the recursive generator over chains of shapes, with the
    strips regenerated at every node."""
    shape = tuple(shape)
    n = len(shape)

    def strips(inner, size):
        def rec(row, remaining, above_prev):
            if row == n:
                if remaining == 0:
                    yield ()
                return
            low = inner[row]
            for length in range(low, min(shape[row], above_prev, low + remaining) + 1):
                for rest in rec(row + 1, remaining - (length - low), inner[row]):
                    yield (length,) + rest
        yield from rec(0, size, shape[0])

    def rec(level, current):
        if level == len(content):
            if current == shape:
                yield (current,)
            return
        for nxt in strips(current, content[level]):
            for chain in rec(level + 1, nxt):
                yield (current,) + chain

    for chain in rec(0, (0,) * n):
        rows = [[] for _ in range(n)]
        for value in range(1, len(content) + 1):
            for r in range(n):
                rows[r].extend([value] * (chain[value][r] - chain[value - 1][r]))
        yield tuple(tuple(r) for r in rows)


class TestColumnStrictTableaux:
    def test_empty_shape(self):
        assert _charge_counts((), ()) == {0: 1}
        assert list(recursive_column_strict_tableaux((), ())) == [()]

    @settings(max_examples=150, deadline=None)
    @given(shapes_and_contents(max_size=8))
    def test_every_tableau_is_column_strict_with_the_content(self, case):
        shape, content = case
        for rows in recursive_column_strict_tableaux(shape, content):
            assert tuple(map(len, rows)) == shape
            for row in rows:
                assert all(a <= b for a, b in zip(row, row[1:]))
            for upper, lower in zip(rows, rows[1:]):
                assert all(a < b for a, b in zip(upper, lower))
            entries = [x for row in rows for x in row]
            assert [entries.count(v) for v in range(1, len(content) + 1)] == list(content)


def test_reading_word_is_bottom_up():
    assert reading_word(((1, 2), (3, 4))) == (3, 4, 1, 2)
