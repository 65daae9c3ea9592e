import itertools
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import minuscule
from minuscule.errors import InvalidIndex, InvalidType, OrbitTooLarge
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
    assert to_dominant(a1, (3,))[1].letters == ()
    dom, word = to_dominant(a1, (-1,))
    assert dom == (1,) and word.letters == (1,)
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


def test_weyl_orbit_examples():
    a1 = build_root_system("A", 1)
    assert weyl_orbit(a1, (1,)) == ((-1,), (1,))
    a2 = build_root_system("A", 2)
    assert len(weyl_orbit(a2, (1, 0))) == 3
    a3 = build_root_system("A", 3)
    assert len(weyl_orbit(a3, (0, 1, 0))) == 6  # choose(4, 2)


def test_weyl_orbit_cap():
    rs = build_root_system("D", 4)
    with pytest.raises(OrbitTooLarge):
        weyl_orbit(rs, (1, 1, 1, 1), cap=10)


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


def test_cached_hash_survives_pickling_across_interpreters():
    # string hashes differ between interpreters, so an unpickled root
    # system must hash like one built here
    code = ("import pickle, sys; from minuscule.rootsys import build_root_system; "
            "sys.stdout.buffer.write(pickle.dumps(build_root_system('D', 4)))")
    env = dict(os.environ, PYTHONHASHSEED="1",
               PYTHONPATH=str(Path(minuscule.__file__).parent.parent))
    data = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, check=True).stdout
    here = build_root_system("D", 4)
    there = pickle.loads(data)
    assert there == here and hash(there) == hash(here)
