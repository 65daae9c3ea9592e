import random

import pytest
from hypothesis import given, settings, strategies as st

from minuscule.crystals import (
    DEFAULT_NODE_CAP,
    TensorCrystalElement,
    _decode,
    _encode,
    _reflect,
    _tables,
    _to_highest,
    _to_lowest,
    all_elements,
    commutor_rotate,
    crystal_op,
    crystal_size,
    epsilon,
    invariant_elements,
    is_highest_weight,
    is_invariant,
    path_bijection,
    phi,
    schutzenberger,
    schutzenberger_all,
)
from minuscule import crystals
from minuscule.errors import EnumerationTooLarge, InvalidIndex, NotInvariant, OrbitTooLarge
from minuscule.kostka import invariant_dim
from minuscule.paths import WeightSequence, enumerate_paths, rotate
from minuscule.rootsys import (
    WeylWord,
    apply_word,
    build_root_system,
    dual_index,
    in_root_lattice,
    minuscule_weights,
    simple_reflection,
    weyl_orbit,
)

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
D4 = build_root_system("D", 4)
W = (1,)

SMALL_SEQUENCES = [
    WeightSequence(A1, (W, W)),
    WeightSequence(A1, (W,) * 4),
    WeightSequence(A2, ((1, 0), (0, 1))),
    WeightSequence(A2, ((1, 0),) * 3),
    WeightSequence(A2, ((1, 0), (0, 1), (1, 0), (0, 1))),
    WeightSequence(A3, ((0, 1, 0),) * 4),
    WeightSequence(D4, (D4.fundamental_weight(1),) * 4),
]


def elem(seq, *factors):
    return TensorCrystalElement(seq, tuple(factors))


class TestCrystalOp:
    def test_single_factor(self):
        seq = WeightSequence(A1, (W,))
        assert crystal_op("lower", 1, elem(seq, (1,))).factors == ((-1,),)
        assert crystal_op("lower", 1, elem(seq, (-1,))) is None
        assert crystal_op("raise", 1, elem(seq, (-1,))).factors == ((1,),)

    def test_routing(self):
        seq = WeightSequence(A1, (W, W))
        # phi(left) = 1 beats eps(right) = 0, so lowering goes left
        assert crystal_op("lower", 1, elem(seq, (1,), (1,))).factors == ((-1,), (1,))
        # highest-weight element of the trivial component
        assert crystal_op("raise", 1, elem(seq, (1,), (-1,))) is None
        assert crystal_op("lower", 1, elem(seq, (-1,), (1,))).factors == ((-1,), (-1,))

    def test_bad_index(self):
        seq = WeightSequence(A1, (W,))
        with pytest.raises(InvalidIndex):
            crystal_op("lower", 2, elem(seq, (1,)))
        with pytest.raises(InvalidIndex):
            crystal_op("sideways", 1, elem(seq, (1,)))

    @pytest.mark.parametrize("i", [0, -1, 3])
    def test_string_statistics_check_the_index(self, i):
        # 0 and -1 would read alpha_2 from the end; 3 is rank + 1 in A2
        b = elem(WeightSequence(A2, ((1, 0),)), (0, -1))
        with pytest.raises(InvalidIndex):
            epsilon(i, b)
        with pytest.raises(InvalidIndex):
            phi(i, b)

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES[:5])
    def test_raise_lower_mutually_inverse(self, seq):
        for b in all_elements(seq):
            for i in range(1, seq.rs.rank + 1):
                up = crystal_op("raise", i, b)
                if up is not None:
                    down = crystal_op("lower", i, up)
                    assert down is not None and down.factors == b.factors
                down = crystal_op("lower", i, b)
                if down is not None:
                    up = crystal_op("raise", i, down)
                    assert up is not None and up.factors == b.factors

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES[:5])
    def test_string_statistics_count_operator_strings(self, seq):
        for b in all_elements(seq):
            for i in range(1, seq.rs.rank + 1):
                ups = 0
                x = b
                while (nxt := crystal_op("raise", i, x)) is not None:
                    ups += 1
                    x = nxt
                assert ups == epsilon(i, b)
                downs = 0
                x = b
                while (nxt := crystal_op("lower", i, x)) is not None:
                    downs += 1
                    x = nxt
                assert downs == phi(i, b)

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES[:5])
    def test_kashiwara_reflection_is_an_operator_string(self, seq):
        # S_i = f_i^n for n = phi_i - eps_i >= 0, and e_i^-n otherwise
        rs = seq.rs
        for b in all_elements(seq):
            for i in range(1, rs.rank + 1):
                n = phi(i, b) - epsilon(i, b)
                x = b
                for _ in range(abs(n)):
                    x = crystal_op("lower" if n > 0 else "raise", i, x)
                t, ids = _encode(b)
                _reflect(t, ids, i)
                assert _decode(seq, t, ids).factors == x.factors


class TestHighestLowest:
    @pytest.mark.parametrize("seq", SMALL_SEQUENCES[:5])
    def test_prefix_of_highest_is_highest(self, seq):
        # split b_1 (x) ... (x) b_m at every position: a highest-weight
        # element has highest-weight left part, a lowest one has lowest right
        rs = seq.rs
        for b in all_elements(seq):
            for cut in range(1, len(seq)):
                left = TensorCrystalElement(
                    WeightSequence(rs, seq.weights[:cut]), b.factors[:cut])
                right = TensorCrystalElement(
                    WeightSequence(rs, seq.weights[cut:]), b.factors[cut:])
                if is_highest_weight(b):
                    assert is_highest_weight(left)
                if all(phi(i, b) == 0 for i in range(1, rs.rank + 1)):
                    assert all(phi(i, right) == 0 for i in range(1, rs.rank + 1))


class TestInvariantElements:
    def test_a1_pair(self):
        seq = WeightSequence(A1, (W, W))
        assert [b.factors for b in invariant_elements(seq)] == [((1,), (-1,))]

    def test_a1_four_factors(self):
        assert len(invariant_elements(WeightSequence(A1, (W,) * 4))) == 2

    def test_a2_dual_pair(self):
        assert len(invariant_elements(WeightSequence(A2, ((1, 0), (0, 1))))) == 1

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            invariant_elements(WeightSequence(A1, (W,) * 8), cap=5)

    def test_single_factor_has_no_invariants(self):
        assert invariant_elements(WeightSequence(A1, (W,))) == ()

    def test_e6_six_factors_within_the_default_cap(self):
        # without the prefix cut this search needs 14,246,524 nodes
        E6 = build_root_system("E", 6)
        seq = WeightSequence(E6, (E6.fundamental_weight(1),) * 6)
        found = invariant_elements(seq, cap=DEFAULT_NODE_CAP)
        assert len(found) == len(enumerate_paths(seq)) == 15
        assert invariant_elements(seq, cap=10_000) == found

    def test_a3_twelve_factors(self):
        assert len(invariant_elements(WeightSequence(A3, ((1, 0, 0),) * 12))) == 462


class TestSchutzenberger:
    def test_single_factor_values(self):
        seq = WeightSequence(A1, (W,))
        assert schutzenberger(elem(seq, (1,))).factors == ((-1,),)
        seq2 = WeightSequence(A2, ((1, 0),))
        assert schutzenberger(elem(seq2, (1, 0))).factors == ((0, -1),)

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES)
    def test_involution(self, seq):
        for b in all_elements(seq):
            assert schutzenberger(schutzenberger(b)).factors == b.factors

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES[:5])
    def test_weight_negates_through_duality(self, seq):
        rs = seq.rs
        for b in all_elements(seq):
            wt = b.weight()
            image = schutzenberger(b).weight()
            expected = tuple(-wt[dual_index(rs, i + 1) - 1] for i in range(rs.rank))
            assert image == expected

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES[:5])
    def test_policy_independence(self, seq):
        rng = random.Random(5)

        def chaotic(options):
            return rng.choice(options)

        for b in all_elements(seq):
            reference = schutzenberger(b).factors
            for _ in range(5):
                assert schutzenberger(b, policy=chaotic).factors == reference


class TestCommutor:
    def test_a1_fixed_point(self):
        seq = WeightSequence(A1, (W, W))
        b = elem(seq, (1,), (-1,))
        assert commutor_rotate(b).factors == ((1,), (-1,))

    def test_requires_invariance(self):
        seq = WeightSequence(A1, (W, W))
        with pytest.raises(NotInvariant):
            commutor_rotate(elem(seq, (1,), (1,)))

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES)
    def test_output_is_invariant_over_rotated_type(self, seq):
        for b in invariant_elements(seq):
            image = commutor_rotate(b)
            assert image.seq.weights == seq.rotated(1).weights
            assert is_invariant(image)
            assert not any(image.weight())


class TestPathBijection:
    def test_values(self):
        (p,) = enumerate_paths(WeightSequence(A1, (W, W)))
        assert path_bijection(p).factors == ((1,), (-1,))
        paths4 = enumerate_paths(WeightSequence(A1, (W,) * 4))
        assert path_bijection(paths4[0]).factors == ((1,), (-1,), (1,), (-1,))

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES)
    def test_bijection_onto_invariants(self, seq):
        images = sorted(path_bijection(p).factors for p in enumerate_paths(seq))
        assert images == [b.factors for b in invariant_elements(seq)]

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES)
    def test_exchanges_the_two_rotations(self, seq):
        for p in enumerate_paths(seq):
            via_crystal = commutor_rotate(path_bijection(p)).factors
            via_path = path_bijection(rotate(p)).factors
            assert via_crystal == via_path


def test_crystal_size():
    assert crystal_size(WeightSequence(A1, (W,) * 4)) == 16
    assert crystal_size(WeightSequence(D4, (D4.fundamental_weight(1),) * 4)) == 4096


# Random minuscule sequences from every family that has minuscule weights.
MINUSCULE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("A", 5), ("B", 2), ("B", 4),
                   ("C", 3), ("C", 4), ("D", 4), ("D", 5), ("E", 6), ("E", 7)]


@st.composite
def sequences(draw, types=MINUSCULE_TYPES):
    rs = build_root_system(*draw(st.sampled_from(types)))
    weights = minuscule_weights(rs)
    # fewer factors for larger orbits keeps every search small
    orbit = max(len(weyl_orbit(rs, lam)) for lam in weights)
    longest = 8 if orbit <= 4 else 6 if orbit <= 10 else 4 if orbit <= 32 else 3
    picked = draw(st.lists(st.sampled_from(weights), min_size=1, max_size=longest))
    return WeightSequence(rs, tuple(picked))


def _closed(seq):
    """``seq``, with one minuscule weight appended when its total lies
    outside the root lattice (it would have no paths at all)."""
    rs = seq.rs
    total = seq.total()
    if in_root_lattice(rs, total):
        return seq
    lam = next(lam for lam in minuscule_weights(rs)
               if in_root_lattice(rs, tuple(a + b for a, b in zip(total, lam))))
    return WeightSequence(rs, seq.weights + (lam,))


@st.composite
def elements(draw):
    seq = draw(sequences())
    factors = tuple(draw(st.sampled_from(weyl_orbit(seq.rs, lam))) for lam in seq.weights)
    return TensorCrystalElement(seq, factors)


def revalidated(b):
    """Rebuild through the checking constructor; raises if ``b`` is invalid."""
    return TensorCrystalElement(b.seq, b.factors)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(elements())
    def test_smallest_and_largest_index_routes_agree_and_are_an_involution(self, b):
        xi = schutzenberger(b)
        assert xi.factors == schutzenberger(b, policy=max).factors
        assert schutzenberger(xi).factors == b.factors

    @settings(max_examples=80, deadline=None)
    @given(elements())
    def test_lowest_of_top_has_no_phi(self, b):
        t, ids = _encode(b)
        _to_highest(t, ids)
        assert is_highest_weight(_decode(b.seq, t, ids))
        _to_lowest(t, ids)
        low = _decode(b.seq, t, ids)
        assert all(phi(i, low) == 0 for i in range(1, b.seq.rs.rank + 1))

    @settings(max_examples=80, deadline=None)
    @given(elements())
    def test_outputs_revalidate(self, b):
        for i in range(1, b.seq.rs.rank + 1):
            for direction in ("raise", "lower"):
                image = crystal_op(direction, i, b)
                if image is not None:
                    assert revalidated(image) == image
        xi = schutzenberger(b)
        assert revalidated(xi) == xi

    @settings(max_examples=60, deadline=None)
    @given(sequences())
    def test_invariant_counts_agree(self, seq):
        found = invariant_elements(seq)
        assert len(found) == len(enumerate_paths(seq)) == invariant_dim(seq)
        for b in found:
            image = commutor_rotate(b)
            assert revalidated(image) == image

    @settings(max_examples=60, deadline=None)
    @given(sequences().map(_closed))
    def test_commutor_matches_its_definition(self, seq):
        # Henriques-Kamnitzer: b_1 (x) c -> xi(c) (x) xi(b_1), each xi on its own factors
        rs = seq.rs
        for b in invariant_elements(seq):
            head = TensorCrystalElement(WeightSequence(rs, seq.weights[:1]), b.factors[:1])
            tail = TensorCrystalElement(WeightSequence(rs, seq.weights[1:]), b.factors[1:])
            assert b.factors[0] == seq.weights[0]
            assert all(phi(i, tail) == 0 for i in range(1, rs.rank + 1))
            image = commutor_rotate(b)
            assert image.seq.weights == seq.rotated(1).weights
            assert image.factors == schutzenberger(tail).factors + schutzenberger(head).factors

    @settings(max_examples=60, deadline=None)
    @given(sequences().map(_closed))
    def test_commutor_is_rotation(self, seq):
        for p in enumerate_paths(seq):
            assert commutor_rotate(path_bijection(p)) == path_bijection(rotate(p))


@st.composite
def samples(draw):
    """A sequence and a sample of its crystal: drawn elements together with
    some of their neighbours under single operators, so that several
    elements share a component and the sample spans several components."""
    seq = draw(sequences())
    rank = seq.rs.rank
    sample = []
    for _ in range(draw(st.integers(1, 6))):
        factors = tuple(draw(st.sampled_from(weyl_orbit(seq.rs, lam))) for lam in seq.weights)
        b = TensorCrystalElement(seq, factors)
        sample.append(b)
        for _ in range(draw(st.integers(0, 3))):
            image = crystal_op(draw(st.sampled_from(("raise", "lower"))),
                               draw(st.integers(1, rank)), b)
            if image is not None:
                sample.append(image)
    return seq, draw(st.permutations(sample))


class TestSchutzenbergerAll:
    @settings(max_examples=80, deadline=None)
    @given(samples())
    def test_one_call_equals_one_call_per_element(self, drawn):
        _, sample = drawn
        assert schutzenberger_all(sample) == [schutzenberger(b) for b in sample]

    @settings(max_examples=60, deadline=None)
    @given(samples(), st.integers(0, 2 ** 32 - 1))
    def test_seeded_random_route_equals_one_call_per_element(self, drawn, seed):
        _, sample = drawn
        rng = random.Random(seed)

        def route(options):
            return rng.choice(options)

        assert schutzenberger_all(sample, policy=route) == [schutzenberger(b) for b in sample]

    def test_empty_sample(self):
        assert schutzenberger_all(()) == []

    def test_one_descent_per_top_and_the_memo_dies_with_the_call(self, monkeypatch):
        seq = WeightSequence(A1, (W,) * 4)
        sample = list(all_elements(seq))
        # V^4 = V(4) + 3 V(2) + 2 V(0): six components, six tops
        tops = sum(1 for b in sample if is_highest_weight(b))
        assert tops == 6
        expected = [schutzenberger(b) for b in sample]
        descents = []

        def counted(t, ids):
            descents.append(tuple(ids))
            _to_lowest(t, ids)

        before = dict(vars(crystals))
        tables = crystals._tables.cache_info().currsize
        monkeypatch.setattr(crystals, "_to_lowest", counted)
        for _ in range(2):
            descents.clear()
            assert schutzenberger_all(sample) == expected
            assert len(descents) == len(set(descents)) == tops
        monkeypatch.undo()
        # nothing new at module level, no binding replaced, no table built
        assert vars(crystals).keys() == before.keys()
        assert all(vars(crystals)[name] is value for name, value in before.items())
        assert crystals._tables.cache_info().currsize == tables


class TestIdTables:
    @pytest.mark.parametrize("family,rank", MINUSCULE_TYPES)
    def test_tables_reproduce_reflections_and_pairings(self, family, rank):
        rs = build_root_system(family, rank)
        lams = minuscule_weights(rs)
        t = _tables(rs, frozenset(lams))
        assert t.weights == tuple(sorted(set().union(*(weyl_orbit(rs, lam) for lam in lams))))
        for k, w in enumerate(t.weights):
            assert t.index[w] == k
            for i in range(1, rs.rank + 1):
                reflected = simple_reflection(rs, i, w)
                # s_i(w) = w - <w, alpha_i_vee> alpha_i, and alpha_i has 2 at i
                pairing = (w[i - 1] - reflected[i - 1]) // 2
                assert t.pair[i - 1][k] == pairing in (-1, 0, 1)
                assert t.weights[t.refl[i - 1][k]] == reflected
                assert (i - 1 in t.ups[k], i - 1 in t.downs[k]) == (pairing == 1, pairing == -1)

    @pytest.mark.parametrize("family,rank", MINUSCULE_TYPES)
    def test_w0_column(self, family, rank):
        rs = build_root_system(family, rank)
        lams = minuscule_weights(rs)
        t = _tables(rs, frozenset(lams))
        w0 = WeylWord(t.w0)
        # rho has trivial stabilizer, so only w0 sends it to -rho
        assert apply_word(rs, w0, (1,) * rank) == (-1,) * rank
        for k, w in enumerate(t.weights):
            image = t.w0_image[k]
            assert t.weights[image] == apply_word(rs, w0, w)
            assert t.w0_image[image] == k
        for lam in lams:
            seq = WeightSequence(rs, (lam,))
            for w in weyl_orbit(rs, lam):
                lowest = t.weights[t.w0_image[t.index[w]]]
                assert schutzenberger(elem(seq, w)).factors == (lowest,)

    def test_tables_cover_only_the_sequences_own_orbits(self):
        # A15 also has omega_8, whose orbit of 12,870 weights is past the
        # orbit cap; the tables of (omega_1, omega_15) must never touch it
        A15 = build_root_system("A", 15)
        with pytest.raises(OrbitTooLarge):
            weyl_orbit(A15, A15.fundamental_weight(8))
        seq = WeightSequence(A15, (A15.fundamental_weight(1), A15.fundamental_weight(15)))
        assert len(_tables(A15, frozenset(seq.weights)).weights) == 32
        for b in all_elements(seq):
            xi = schutzenberger(b)
            assert schutzenberger(xi) == b
            assert xi.weight() == tuple(-x for x in reversed(b.weight()))
        (p,) = enumerate_paths(seq)
        assert invariant_elements(seq) == (path_bijection(p),)
        assert commutor_rotate(path_bijection(p)) == path_bijection(rotate(p))
