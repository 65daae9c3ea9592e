import functools
import itertools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import minuscule
from minuscule import rootsys
from minuscule.crystals import TensorCrystalElement, crystal_op, epsilon, phi
from minuscule.errors import (
    AlgorithmInvariantViolated,
    InvalidIndex,
    InvalidType,
    InvalidWeight,
    OrbitTooLarge,
)
from minuscule.rootsys import (
    apply_word,
    build_root_system,
    dual_index,
    in_root_lattice,
    minuscule_weights,
    simple_reflection,
    to_dominant,
    two_rho_pairing,
    weyl_orbit,
)
from minuscule.paths import WeightSequence

# closed-form data used as oracles, independent of the closure algorithm
POSITIVE_ROOT_COUNTS = {
    ("A", 1): 1, ("A", 2): 3, ("A", 3): 6, ("A", 4): 10,
    ("B", 2): 4, ("B", 3): 9, ("C", 3): 9, ("D", 4): 12,
    ("E", 6): 36, ("E", 7): 63, ("E", 8): 120, ("F", 4): 24, ("G", 2): 6,
}


def weyl_order(family, rank):
    if family == "A":
        return math.factorial(rank + 1)
    if family in ("B", "C"):
        return 2 ** rank * math.factorial(rank)
    if family == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {("F", 4): 1152, ("G", 2): 12}[(family, rank)]


SMALL_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3),
               ("C", 3), ("D", 4), ("F", 4), ("G", 2)]


@pytest.mark.parametrize("family,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_positive_coroot_counts(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.positive_coroots) == POSITIVE_ROOT_COUNTS[(family, rank)]
    # each type is built once, and a root system equals only itself
    assert build_root_system(family, rank) is rs


@pytest.mark.parametrize("family,rank", sorted(POSITIVE_ROOT_COUNTS))
def test_cartan_sanity(family, rank):
    rs = build_root_system(family, rank)
    C = rs.cartan
    for i in range(rank):
        assert C[i][i] == 2
        for j in range(rank):
            if i != j:
                assert C[i][j] <= 0
                assert (C[i][j] == 0) == (C[j][i] == 0)
    # the covector is the column sums of the positive-coroot table
    for i in range(rank):
        assert rs.two_rho_covector[i] == sum(c[i] for c in rs.positive_coroots)


def test_rank_one_data():
    rs = build_root_system("A", 1)
    assert rs.cartan == ((2,),)
    assert rs.positive_coroots == ((1,),)
    assert rs.two_rho_covector == (1,)


def test_a2_data():
    rs = build_root_system("A", 2)
    assert rs.cartan == ((2, -1), (-1, 2))
    # three positive coroots pair with (omega_1 + omega_2) summing to 2 each
    assert rs.two_rho_covector == (2, 2)


def test_g2_has_six_positive_coroots():
    assert len(build_root_system("G", 2).positive_coroots) == 6


@pytest.mark.parametrize("family,rank", [
    ("A", 0), ("B", 1), ("C", 1), ("D", 3), ("E", 5), ("E", 9),
    ("F", 3), ("G", 3), ("H", 2),
])
def test_invalid_types(family, rank):
    with pytest.raises(InvalidType):
        build_root_system(family, rank)


def _index_calls():
    """Every public function that takes a simple-root index or a rank, as a
    call of that one argument, with the error a bad value must raise."""
    a2 = build_root_system("A", 2)
    b = TensorCrystalElement(WeightSequence(a2, ((1, 0), (1, 0))), ((1, 0), (0, -1)))
    return {
        "build_root_system": (lambda n: build_root_system("A", n), InvalidType),
        "fundamental_weight": (a2.fundamental_weight, InvalidIndex),
        "simple_reflection": (lambda i: simple_reflection(a2, i, (1, 0)), InvalidIndex),
        "apply_word": (lambda i: apply_word(a2, (2, i), (1, 0)), InvalidIndex),
        "dual_index": (lambda i: dual_index(a2, i), InvalidIndex),
        "crystal_op raise": (lambda i: crystal_op("raise", i, b), InvalidIndex),
        "crystal_op lower": (lambda i: crystal_op("lower", i, b), InvalidIndex),
        "epsilon": (lambda i: epsilon(i, b), InvalidIndex),
        "phi": (lambda i: phi(i, b), InvalidIndex),
    }


@pytest.mark.parametrize("bad", [True, False, 1.0, 1.5, 2.0, "1", None, (1,)], ids=repr)
@pytest.mark.parametrize("name", list(_index_calls()))
def test_indices_and_ranks_must_be_int(name, bad):
    # bool and float values equal to 1 or 2 would pass a range check, read
    # a coordinate or hit a cache entry of that int; each must be refused
    call, error = _index_calls()[name]
    call(1)  # the int is accepted, and any cache now holds it
    call(2)
    with pytest.raises(error):
        call(bad)


def _weight_calls():
    """Every public rootsys function that takes a weight, as a call of that
    one argument over A2."""
    a2 = build_root_system("A", 2)
    return {
        "simple_reflection": lambda w: simple_reflection(a2, 1, w),
        "apply_word": lambda w: apply_word(a2, (1, 2), w),
        "apply_word empty": lambda w: apply_word(a2, (), w),
        "to_dominant": lambda w: to_dominant(a2, w),
        "weyl_orbit": lambda w: weyl_orbit(a2, w),
        "in_root_lattice": lambda w: in_root_lattice(a2, w),
        "two_rho_pairing": lambda w: two_rho_pairing(a2, w),
    }


@pytest.mark.parametrize("bad", [
    (1.5, 0), (1.0, 0), (True, 0), ("1", 0), (None, 0), (1,), (1, 0, 0), (), 10, "10", None,
    {1: 0, 2: 0},
], ids=repr)
@pytest.mark.parametrize("name", list(_weight_calls()))
def test_weights_must_be_rank_ints(name, bad):
    # a float or bool entry would reflect to a non-weight or hit the cache
    # entry of the equal int weight; a wrong length would read past the
    # rank or build a mixed-length orbit; each must be refused
    call = _weight_calls()[name]
    call((1, 0))  # the int weight is accepted, and any cache now holds it
    call([0, 1])
    with pytest.raises(InvalidWeight):
        call(bad)


@pytest.mark.parametrize("family", "ABCD")
def test_rank_above_the_maximum_is_refused_before_any_cartan_data(family, monkeypatch):
    def unbuildable(*args):
        raise AssertionError("Cartan data built for a refused rank")

    monkeypatch.setattr(rootsys, "_cartan_matrix", unbuildable)
    monkeypatch.setattr(rootsys, "_positive_coroots", unbuildable)
    with pytest.raises(InvalidType, match="largest supported rank"):
        build_root_system(family, 10 ** 12)
    with pytest.raises(InvalidType):
        build_root_system(family, rootsys.MAX_RANK + 1)


@pytest.mark.parametrize("family", "ABCD")
def test_every_family_builds_at_the_maximum_rank(family):
    rs = build_root_system(family, rootsys.MAX_RANK)
    assert rs.rank == rootsys.MAX_RANK


def test_simple_reflection_examples():
    a1 = build_root_system("A", 1)
    assert simple_reflection(a1, 1, (1,)) == (-1,)
    a2 = build_root_system("A", 2)
    assert simple_reflection(a2, 1, (1, 0)) == (-1, 1)
    # zero pairing means fixed point
    assert simple_reflection(a2, 1, (0, 5)) == (0, 5)
    with pytest.raises(InvalidIndex):
        simple_reflection(a2, 3, (0, 0))
    with pytest.raises(InvalidIndex):
        simple_reflection(a2, 0, (0, 0))


@given(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
       st.integers(1, 3))
def test_reflection_involution_a3(w, i):
    rs = build_root_system("A", 3)
    assert simple_reflection(rs, i, simple_reflection(rs, i, w)) == w


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_reflection_involution_everywhere(family, rank):
    rs = build_root_system(family, rank)
    for w in itertools.product((-2, 0, 1), repeat=rank):
        for i in range(1, rank + 1):
            assert simple_reflection(rs, i, simple_reflection(rs, i, w)) == w


def test_to_dominant_examples():
    a1 = build_root_system("A", 1)
    assert to_dominant(a1, (3,)) == ((3,), to_dominant(a1, (3,))[1])
    assert to_dominant(a1, (3,))[1] == ()
    dom, word = to_dominant(a1, (-1,))
    assert dom == (1,) and word == (1,)
    a2 = build_root_system("A", 2)
    dom, word = to_dominant(a2, (-1, 0))
    assert dom == (0, 1)
    assert len(word) == 2


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_to_dominant_properties(family, rank):
    rs = build_root_system(family, rank)
    for w in itertools.product((-2, -1, 0, 2), repeat=rank):
        dom, word = to_dominant(rs, w)
        assert all(x >= 0 for x in dom)
        assert apply_word(rs, word, w) == dom
        # minimal length equals the number of coroots paired negatively
        inversions = sum(
            1 for c in rs.positive_coroots
            if sum(a * b for a, b in zip(w, c)) < 0)
        assert len(word) == inversions


EVERY_FINITE_TYPE = ([("A", n) for n in range(1, 7)] + [("B", n) for n in range(2, 6)]
                     + [("C", n) for n in range(2, 6)] + [("D", n) for n in range(4, 8)]
                     + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])


@st.composite
def weights_in_any_type(draw):
    family, rank = draw(st.sampled_from(EVERY_FINITE_TYPE))
    w = draw(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank))
    return build_root_system(family, rank), tuple(w)


def to_dominant_by_reflections(rs, w):
    """Reference: reflect at the smallest negative index with
    ``simple_reflection`` until dominant; the word applies right to left."""
    letters = []
    while min(w) < 0:
        i = next(k for k, x in enumerate(w) if x < 0) + 1
        w = simple_reflection(rs, i, w)
        letters.append(i)
    return w, tuple(reversed(letters))


@settings(max_examples=400, deadline=None)
@given(weights_in_any_type())
def test_to_dominant_matches_repeated_simple_reflections(case):
    # B, C, F4 and G2 have Cartan entries -2 and -3, where a sign slip shows
    rs, w = case
    dom, word = to_dominant(rs, w)
    assert (dom, word) == to_dominant_by_reflections(rs, w)
    assert apply_word(rs, word, w) == dom
    assert min(dom) >= 0
    inversions = sum(1 for c in rs.positive_coroots if sum(a * b for a, b in zip(w, c)) < 0)
    assert len(word) == inversions


MAX_RANK_TYPES = [(family, rootsys.MAX_RANK) for family in "ABCD"]


@pytest.mark.parametrize("family,rank", EVERY_FINITE_TYPE + MAX_RANK_TYPES)
def test_simple_roots_are_the_cartan_columns(family, rank):
    rs = build_root_system(family, rank)
    assert len(rs.simple_roots) == rank
    for i, root in enumerate(rs.simple_roots):
        assert root == tuple(rs.cartan[j][i] for j in range(rank))


def positive_coroots_by_all_reflections(cartan):
    """Reference: close the simple coroots under every simple reflection,
    negative coroots included, then keep the positive ones."""
    rank = len(cartan)
    simple = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for c in frontier:
            for j in range(rank):
                img = list(c)
                img[j] -= sum(c[k] * cartan[k][j] for k in range(rank))
                img = tuple(img)
                if img not in seen:
                    seen.add(img)
                    fresh.append(img)
        frontier = fresh
    return tuple(sorted(c for c in seen if all(x >= 0 for x in c)))


@pytest.mark.parametrize("family,rank", EVERY_FINITE_TYPE + MAX_RANK_TYPES)
def test_positive_coroots_match_the_search_over_all_coroots(family, rank):
    rs = build_root_system(family, rank)
    assert rs.positive_coroots == positive_coroots_by_all_reflections(rs.cartan)


@pytest.mark.parametrize("family,rank", EVERY_FINITE_TYPE + MAX_RANK_TYPES)
def test_w0_word_is_a_reduced_word_of_w0(family, rank):
    # rho has trivial stabilizer, so only w0 sends it to -rho, and a reduced
    # word of w0 has one letter per positive coroot; the minimal word that
    # straightens -rho is one
    rs = build_root_system(family, rank)
    w0 = to_dominant(rs, (-1,) * rank)[1]
    assert len(w0) == len(rs.positive_coroots)
    assert apply_word(rs, w0, (1,) * rank) == (-1,) * rank


@pytest.mark.parametrize("family,rank", EVERY_FINITE_TYPE + MAX_RANK_TYPES)
def test_duals_are_an_involution_given_by_w0(family, rank):
    rs = build_root_system(family, rank)
    w0 = to_dominant(rs, (-1,) * rank)[1]
    for i in range(1, rank + 1):
        star = rs.duals[i - 1]
        assert rs.duals[star - 1] == i and dual_index(rs, i) == star
        minus_omega = tuple(-x for x in rs.fundamental_weight(i))
        # omega_{i*} is the dominant form of -omega_i, and -w0.omega_i
        assert to_dominant(rs, minus_omega)[0] == rs.fundamental_weight(star)
        # the stored word is the straightening word, in application order
        assert rs.dual_words[i - 1] == to_dominant(rs, minus_omega)[1][::-1]
        assert apply_word(rs, w0, rs.fundamental_weight(star)) == minus_omega


def test_a_dual_that_does_not_straighten_is_an_internal_error():
    # the column support of ((2, 0), (-1, 2)), which is no Cartan matrix:
    # there -omega_1 straightens to omega_1 + omega_2, which only a bug
    # could produce from a root system, so it is never reported as bad input
    with pytest.raises(AlgorithmInvariantViolated, match="omega_1"):
        rootsys._duals((((1, -1),), ()))


def test_weyl_orbit_examples():
    a1 = build_root_system("A", 1)
    assert weyl_orbit(a1, (1,)) == ((-1,), (1,))
    a2 = build_root_system("A", 2)
    assert len(weyl_orbit(a2, (1, 0))) == 3
    a3 = build_root_system("A", 3)
    assert len(weyl_orbit(a3, (0, 1, 0))) == 6  # choose(4, 2)


def test_weyl_orbit_cap():
    # rho is regular, so its orbit is all of W(E6): 51,840 > DEFAULT_ORBIT_CAP
    rs = build_root_system("E", 6)
    with pytest.raises(OrbitTooLarge):
        weyl_orbit(rs, (1,) * 6)


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_orbit_size_divides_group_order(family, rank):
    rs = build_root_system(family, rank)
    order = weyl_order(family, rank)
    for i in range(1, rank + 1):
        assert order % len(weyl_orbit(rs, rs.fundamental_weight(i))) == 0


MINUSCULE_TABLE = {
    ("A", 3): [1, 2, 3],
    ("B", 3): [3],
    ("C", 3): [1],
    ("D", 4): [1, 3, 4],
    ("D", 5): [1, 4, 5],
    ("E", 6): [1, 6],
    ("E", 7): [7],
    ("E", 8): [],
    ("F", 4): [],
    ("G", 2): [],
}


@pytest.mark.parametrize("family,rank", sorted(MINUSCULE_TABLE))
def test_minuscule_lists(family, rank):
    rs = build_root_system(family, rank)
    got = [w.index(1) + 1 for w in minuscule_weights(rs)]
    assert got == MINUSCULE_TABLE[(family, rank)]


@pytest.mark.parametrize("family,rank", [("A", 3), ("B", 3), ("D", 4), ("E", 6), ("E", 7)])
def test_minuscule_pairing_bound(family, rank):
    rs = build_root_system(family, rank)
    for lam in minuscule_weights(rs):
        for mu in weyl_orbit(rs, lam):
            assert all(c in (-1, 0, 1) for c in mu)


def test_two_rho_pairing_examples():
    a1 = build_root_system("A", 1)
    a2 = build_root_system("A", 2)
    assert two_rho_pairing(a1, (0,)) == 0
    assert two_rho_pairing(a1, (1,)) == 1
    assert two_rho_pairing(a2, (1, 0)) == 2


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_two_rho_type_a_closed_form(rank):
    # <omega_i, 2 rho_vee> = i (n + 1 - i) for A_n
    rs = build_root_system("A", rank)
    for i in range(1, rank + 1):
        assert two_rho_pairing(rs, rs.fundamental_weight(i)) == i * (rank + 1 - i)


def test_in_root_lattice_examples():
    a1 = build_root_system("A", 1)
    assert in_root_lattice(a1, (2,))
    assert not in_root_lattice(a1, (1,))
    a2 = build_root_system("A", 2)
    assert in_root_lattice(a2, (1, 1))


LATTICE_TYPES = ([("A", n) for n in range(1, 10)] + [("B", n) for n in range(2, 7)]
                 + [("C", n) for n in range(2, 7)] + [("D", n) for n in range(4, 9)]
                 + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)] + MAX_RANK_TYPES)

# det C in closed form: the index of the root lattice in the weight lattice
DETERMINANTS = {"A": lambda n: n + 1, "B": lambda n: 2, "C": lambda n: 2, "D": lambda n: 4,
                "E": lambda n: 9 - n, "F": lambda n: 1, "G": lambda n: 1}


@functools.lru_cache(maxsize=None)
def fraction_inverse(family, rank):
    """Reference: the inverse of the Cartan matrix over the rationals, by
    Gauss-Jordan elimination with ``Fraction`` entries and row swaps."""
    cartan = build_root_system(family, rank).cartan
    n = rank
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(cartan)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        aug[col] = [x / aug[col][col] for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@pytest.mark.parametrize("family,rank", LATTICE_TYPES)
def test_lattice_rows_are_det_times_the_inverse(family, rank):
    rs = build_root_system(family, rank)
    d, rows = rs.lattice
    assert d == DETERMINANTS[family](rank)
    assert all(type(x) is int for row in rows for x in row)
    product = [[sum(row[k] * rs.cartan[k][j] for k in range(rank)) for j in range(rank)]
               for row in rows]
    assert product == [[d * int(i == j) for j in range(rank)] for i in range(rank)]


@st.composite
def lattice_cases(draw):
    """A type and a weight: either random, or a random element of the root
    lattice shifted by a random multiple of one fundamental weight, so
    both verdicts are drawn in every type."""
    family, rank = draw(st.sampled_from(LATTICE_TYPES))
    rs = build_root_system(family, rank)
    if draw(st.booleans()):
        return rs, tuple(draw(st.lists(st.integers(-6, 6), min_size=rank, max_size=rank)))
    coeffs = draw(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank))
    w = [sum(a * c for a, c in zip(row, coeffs)) for row in rs.cartan]
    w[draw(st.integers(0, rank - 1))] += draw(st.integers(-2, 2))
    return rs, tuple(w)


@settings(max_examples=500, deadline=None)
@given(lattice_cases())
def test_in_root_lattice_matches_a_fraction_reference(case):
    rs, w = case
    inverse = fraction_inverse(rs.family, rs.rank)
    expected = all(sum(f * x for f, x in zip(row, w)).denominator == 1 for row in inverse)
    assert in_root_lattice(rs, w) == expected


@pytest.mark.parametrize("family,rank", SMALL_TYPES)
def test_root_lattice_closed_under_roots(family, rank):
    rs = build_root_system(family, rank)
    alpha_1 = tuple(rs.cartan[j][0] for j in range(rank))
    for w in itertools.product((-1, 0, 2), repeat=rank):
        shifted = tuple(a + b for a, b in zip(w, alpha_1))
        assert in_root_lattice(rs, w) == in_root_lattice(rs, shifted)


def test_dual_index():
    a2 = build_root_system("A", 2)
    assert dual_index(a2, 1) == 2 and dual_index(a2, 2) == 1
    d4 = build_root_system("D", 4)
    assert [dual_index(d4, i) for i in range(1, 5)] == [1, 2, 3, 4]
    a3 = build_root_system("A", 3)
    assert [dual_index(a3, i) for i in range(1, 4)] == [3, 2, 1]


def test_unpickling_returns_the_instance_built_here():
    # a root system equals only itself, so one pickled in another
    # interpreter must load as the instance this process built for its type
    code = ("import pickle, sys; from minuscule.rootsys import build_root_system; "
            "sys.stdout.buffer.write(pickle.dumps(build_root_system('D', 4)))")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=str(Path(minuscule.__file__).parent.parent))
    data = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, check=True).stdout
    assert pickle.loads(data) is build_root_system("D", 4)
