import io
import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from minuscule.crystals import (
    TensorCrystalElement,
    _dual,
    _flip,
    _string,
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
from minuscule import battery, crystals, paths
from minuscule.cli import run
from minuscule.errors import (
    AlgorithmInvariantViolated,
    EnumerationTooLarge,
    InvalidIndex,
    NotInvariant,
    OrbitTooLarge,
)
from minuscule.paths import DEFAULT_PATH_CAP, WeightSequence, enumerate_paths, rotate
from minuscule.rootsys import (
    apply_word,
    build_root_system,
    dual_index,
    minuscule_weights,
    simple_reflection,
    to_dominant,
    weyl_orbit,
)

from support import A1, A2, A3, D4, MINUSCULE_TYPES, W, closed, elements, sequences, weight

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


def _reflect(factors: list, j: int, roots, moves: dict):
    """Kashiwara's S_(j+1) in place: f^(p-a) or e^(a-p) along the string,
    one move at a time.  Along a reduced word of w0 the S_i carry a top to
    the bottom of its component, the reference for ``_to_lowest``."""
    a, p = _string(factors, j)[:2]
    pick = 3 if p > a else 2  # the leftmost '+' or the rightmost '-'
    for _ in range(abs(p - a)):
        _flip(factors, j, _string(factors, j)[pick], roots, moves)


def w0_word(rs):
    """A reduced word of w0: the minimal word that straightens -rho."""
    return to_dominant(rs, (-1,) * rs.rank)[1]


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
                factors = list(b.factors)
                _reflect(factors, i - 1, rs.simple_roots, {})
                assert tuple(factors) == x.factors


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

    @pytest.mark.parametrize("seq, count", [
        (WeightSequence(A1, (W,) * 8), 14),
        (WeightSequence(D4, (D4.fundamental_weight(1),) * 4), 3),
    ])
    def test_cap_boundary(self, seq, count):
        # the cap counts invariants found: it passes at the count and stops
        # one below it
        found = invariant_elements(seq, cap=count)
        assert len(found) == count and found == invariant_elements(seq)
        with pytest.raises(EnumerationTooLarge):
            invariant_elements(seq, cap=count - 1)

    def test_an_image_that_breaks_the_signature_rule_is_a_bug(self, monkeypatch):
        # (1) (x) (-1) (x) (-1) (x) (1) is a closed walk through the point
        # -1: its first '-' cancels the '+' and the second survives
        seq = WeightSequence(A1, (W,) * 4)
        bad = paths.LittelmannPath._trusted(seq, ((1,), (0,), (-1,), (0,)))
        monkeypatch.setattr(crystals, "enumerate_paths", lambda seq, cap: (bad,))
        with pytest.raises(AlgorithmInvariantViolated, match="is not highest weight"):
            invariant_elements(seq)

    def test_single_factor_has_no_invariants(self):
        assert invariant_elements(WeightSequence(A1, (W,))) == ()

    def test_e6_six_factors_within_the_default_cap(self):
        E6 = build_root_system("E", 6)
        seq = WeightSequence(E6, (E6.fundamental_weight(1),) * 6)
        found = invariant_elements(seq, cap=DEFAULT_PATH_CAP)
        assert len(found) == len(enumerate_paths(seq)) == 15
        assert invariant_elements(seq, cap=15) == found

    def test_a3_twelve_factors(self):
        assert len(invariant_elements(WeightSequence(A3, ((1, 0, 0),) * 12))) == 462


class TestSchutzenberger:
    def test_single_factor_values(self):
        seq = WeightSequence(A1, (W,))
        assert schutzenberger(elem(seq, (1,))).factors == ((-1,),)
        seq2 = WeightSequence(A2, ((1, 0),))
        assert schutzenberger(elem(seq2, (1, 0))).factors == ((0, -1),)

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES[:5])
    def test_weight_negates_through_duality(self, seq):
        rs = seq.rs
        for b in all_elements(seq):
            wt = weight(b)
            image = weight(schutzenberger(b))
            expected = tuple(-wt[dual_index(rs, i + 1) - 1] for i in range(rs.rank))
            assert image == expected


def assert_local_rule(b):
    """xi(b) = e_{i*} xi(e_i b) at every i with e_i b nonzero, through the
    public operators only."""
    rs = b.seq.rs
    xi = schutzenberger(b)
    for i in range(1, rs.rank + 1):
        up = crystal_op("raise", i, b)
        if up is not None:
            assert crystal_op("raise", dual_index(rs, i), schutzenberger(up)) == xi


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
            assert not any(weight(image))

    def test_string_reads_follow_the_word(self, monkeypatch):
        # one read per letter of the word straightening -lambda_1 and one
        # per index for the output's invariance; the input is not rescanned
        calls = []
        string = crystals._string

        def counted(factors, j):
            calls.append(j)
            return string(factors, j)

        monkeypatch.setattr(crystals, "_string", counted)
        for seq in battery.standard_battery():
            rs = seq.rs
            word = rs.dual_words[seq.weights[0].index(1)]
            for b in invariant_elements(seq):
                calls.clear()
                commutor_rotate(b)
                assert calls == [j - 1 for j in word] + list(range(rs.rank))

    def test_a_word_one_letter_short_is_an_internal_error(self):
        # planted fault: every stored word of E6 loses its last letter, so
        # the ascent stops below the top; on an invariant that is a bug,
        # never a refused input
        seq = battery.standard_battery()[-1]
        rs = seq.rs
        assert str(rs) == "E6"
        b = invariant_elements(seq)[0]
        argv = ["crystal", "rotate", "--type", "E", "--rank", "6", "--weights", "1,6,1,6"]
        text = json.dumps(b.to_json_dict())
        words = rs.dual_words
        object.__setattr__(rs, "dual_words", tuple(w[:-1] for w in words))
        try:
            with pytest.raises(AlgorithmInvariantViolated, match="no longer invariant"):
                commutor_rotate(b)
            out, err = io.StringIO(), io.StringIO()
            code = run(argv, stdout=out, stderr=err, stdin=io.StringIO(text))
            assert code == 3 and out.getvalue() == ""
            assert json.loads(err.getvalue())["message"] == "rotated element is no longer invariant"
            # a non-invariant input with b_1 = lambda_1 is still refused as such
            with pytest.raises(NotInvariant):
                commutor_rotate(TensorCrystalElement(seq, seq.weights))
        finally:
            object.__setattr__(rs, "dual_words", words)
        assert commutor_rotate(b).seq.weights == seq.rotated(1).weights


class TestPathBijection:
    def test_values(self):
        (p,) = enumerate_paths(WeightSequence(A1, (W, W)))
        assert path_bijection(p).factors == ((1,), (-1,))
        paths4 = enumerate_paths(WeightSequence(A1, (W,) * 4))
        assert path_bijection(paths4[0]).factors == ((1,), (-1,), (1,), (-1,))

    @pytest.mark.parametrize("seq", SMALL_SEQUENCES)
    def test_exchanges_the_two_rotations(self, seq):
        # the suite also checks that the path images are invariant, and the
        # involution and local rule of xi over the whole crystal
        result = battery.suite_crystal_coherence([seq], 0)
        assert result.passed, result.failures


def test_crystal_size():
    assert crystal_size(WeightSequence(A1, (W,) * 4)) == 16
    assert crystal_size(WeightSequence(D4, (D4.fundamental_weight(1),) * 4)) == 4096


WALK_TYPES = ([("A", n) for n in range(1, 6)] + [(f, n) for f in "BC" for n in (2, 3, 4)]
              + [("D", n) for n in (4, 5, 6)] + [("E", 6), ("E", 7)])


def dual_element(b):
    """D(b) = (-b_m) (x) ... (x) (-b_1), through the checking constructor
    over the reversed dual sequence (lambda_m*, ..., lambda_1*)."""
    rs = b.seq.rs
    weights = tuple(rs.fundamental_weight(dual_index(rs, lam.index(1) + 1))
                    for lam in reversed(b.seq.weights))
    return TensorCrystalElement(WeightSequence(rs, weights), tuple(_dual(b.factors)))


@st.composite
def commutor_inputs(draw):
    """Elements of every minuscule type; half of them have b_1 = lambda_1,
    which every invariant has, so the commutor walks its word on them."""
    b = draw(elements())
    if draw(st.booleans()):
        b = TensorCrystalElement(b.seq, (b.seq.weights[0],) + b.factors[1:])
    return b


def revalidated(b):
    """Rebuild through the checking constructor; raises if ``b`` is invalid."""
    return TensorCrystalElement(b.seq, b.factors)


class TestProperties:
    @settings(max_examples=80, deadline=None)
    @given(elements())
    def test_involution_and_local_rule(self, b):
        assert schutzenberger(schutzenberger(b)) == b
        assert_local_rule(b)

    @settings(max_examples=80, deadline=None)
    @given(elements())
    def test_lowest_of_top_has_no_phi(self, b):
        rs = b.seq.rs
        factors = list(b.factors)
        _to_highest(rs, factors, {}, {})
        assert is_highest_weight(TensorCrystalElement._trusted(b.seq, tuple(factors)))
        low = TensorCrystalElement._trusted(b.seq, _to_lowest(rs, factors, {}))
        assert revalidated(low) == low
        assert all(phi(i, low) == 0 for i in range(1, rs.rank + 1))

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
        result = battery.suite_counting([seq])
        assert result.passed, result.failures
        for b in invariant_elements(seq):
            image = commutor_rotate(b)
            assert revalidated(image) == image

    @settings(max_examples=150, deadline=None)
    @given(commutor_inputs())
    def test_commutor_refuses_exactly_the_non_invariants(self, b):
        try:
            image = commutor_rotate(b)
        except NotInvariant:
            assert not is_invariant(b)
        else:
            assert is_invariant(b) and is_invariant(image)
            assert image.seq.weights == b.seq.rotated(1).weights

    @settings(max_examples=60, deadline=None)
    @given(sequences().map(closed))
    def test_commutor_matches_its_definition(self, seq):
        # Henriques-Kamnitzer: b_1 (x) c -> xi(c) (x) xi(b_1), each xi on its own factors
        rs = seq.rs
        found = invariant_elements(seq)
        # enumeration order is the order of factors, with no sort
        assert [b.factors for b in found] == sorted(b.factors for b in found)
        for b in found:
            head = TensorCrystalElement(WeightSequence(rs, seq.weights[:1]), b.factors[:1])
            tail = TensorCrystalElement(WeightSequence(rs, seq.weights[1:]), b.factors[1:])
            assert b.factors[0] == seq.weights[0]
            assert all(phi(i, tail) == 0 for i in range(1, rs.rank + 1))
            image = commutor_rotate(b)
            assert image.seq.weights == seq.rotated(1).weights
            assert image.factors == schutzenberger(tail).factors + schutzenberger(head).factors

    @settings(max_examples=20, deadline=None)
    @given(sequences().map(closed))
    def test_commutor_is_rotation(self, seq):
        result = battery.suite_crystal_coherence([seq], 0)
        assert result.passed, result.failures


def kashiwara(rs, i, factors):
    """(eps_i, phi_i, e_i b, f_i b) of b = head (x) tail by Kashiwara's
    two-factor rule, recursing on the tail; e_i b and f_i b are factor
    tuples, None for the crystal zero.  On one factor, e_i and f_i are
    s_i where the pairing is -1 and +1.  Lowering acts on the head when
    phi(head) > eps(tail), raising when phi(head) >= eps(tail)."""
    head, tail = factors[0], factors[1:]
    a = head[i - 1]
    eps_h, phi_h = max(0, -a), max(0, a)
    up_h = (simple_reflection(rs, i, head),) if a == -1 else None
    down_h = (simple_reflection(rs, i, head),) if a == 1 else None
    if not tail:
        return eps_h, phi_h, up_h, down_h
    eps_t, phi_t, up_t, down_t = kashiwara(rs, i, tail)
    eps = eps_h + max(0, eps_t - phi_h)
    ph = phi_t + max(0, phi_h - eps_t)
    if phi_h >= eps_t:
        up = None if up_h is None else up_h + tail
    else:
        up = (head,) + up_t
    if phi_h > eps_t:
        down = down_h + tail
    else:
        down = None if down_t is None else (head,) + down_t
    return eps, ph, up, down


@st.composite
def walks(draw):
    """Elements of every minuscule type, half of them drawn so that each
    factor keeps the running weight dominant (there is always one: the
    orbit's dominant weight), so highest-weight elements are common."""
    seq = draw(sequences())
    rs = seq.rs
    dominant = draw(st.booleans())
    total = rs.zero()
    factors = []
    for lam in seq.weights:
        orbit = weyl_orbit(rs, lam)
        if dominant:
            orbit = [f for f in orbit if all(a + x >= 0 for a, x in zip(total, f))]
        f = draw(st.sampled_from(orbit))
        factors.append(f)
        total = tuple(a + x for a, x in zip(total, f))
    return TensorCrystalElement(seq, tuple(factors))


class TestPathOracle:
    @settings(max_examples=200, deadline=None)
    @given(walks())
    def test_highest_weight_is_a_dominant_path(self, b):
        # a tensor element is highest weight exactly when its partial sums,
        # the points of its path, are all dominant; it is invariant when
        # the path also closes at zero
        points = list(itertools.accumulate(b.factors, lambda p, f: tuple(map(sum, zip(p, f)))))
        dominant = all(min(p) >= 0 for p in points)
        assert is_highest_weight(b) == dominant
        assert is_invariant(b) == (dominant and not any(points[-1]))


class TestKashiwaraOracle:
    @settings(max_examples=200, deadline=None)
    @given(elements())
    def test_operators_match_the_tensor_rule(self, b):
        rs = b.seq.rs
        for i in range(1, rs.rank + 1):
            eps, ph, up, down = kashiwara(rs, i, b.factors)
            assert (epsilon(i, b), phi(i, b)) == (eps, ph)
            for direction, want in (("raise", up), ("lower", down)):
                got = crystal_op(direction, i, b)
                assert (None if got is None else got.factors) == want
                if got is not None:
                    assert got.seq is b.seq and revalidated(got) == got


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

    def test_empty_sample(self):
        assert schutzenberger_all(()) == []

    def test_one_call_keeps_root_systems_apart(self):
        # both elements have the factors ((1,0,0), (1,-1,0)), and their
        # images differ, so one map keyed on factors alone would mix them
        A3, C3 = build_root_system("A", 3), build_root_system("C", 3)
        a = elem(WeightSequence(A3, ((1, 0, 0), (0, 0, 1))), (1, 0, 0), (1, -1, 0))
        c = elem(WeightSequence(C3, ((1, 0, 0), (1, 0, 0))), (1, 0, 0), (1, -1, 0))
        assert schutzenberger(a).factors == ((0, 0, -1), (0, 1, -1))
        assert schutzenberger(c).factors == ((-1, 1, 0), (-1, 0, 0))
        for pair in ([a, c], [c, a]):
            assert schutzenberger_all(pair) == [schutzenberger(b) for b in pair]

    def test_one_descent_per_top_and_the_memo_dies_with_the_call(self, monkeypatch):
        seq = WeightSequence(A1, (W,) * 4)
        sample = list(all_elements(seq))
        # V^4 = V(4) + 3 V(2) + 2 V(0): six components, six tops
        tops = sum(1 for b in sample if is_highest_weight(b))
        assert tops == 6
        expected = [schutzenberger(b) for b in sample]
        descents = []

        def counted(rs, factors, moves):
            descents.append(tuple(factors))
            return _to_lowest(rs, factors, moves)

        before = dict(vars(crystals))
        monkeypatch.setattr(crystals, "_to_lowest", counted)
        for _ in range(2):
            descents.clear()
            assert schutzenberger_all(sample) == expected
            assert len(descents) == len(set(descents)) == tops
        monkeypatch.undo()
        # nothing new at module level and no binding replaced
        assert vars(crystals).keys() == before.keys()
        assert all(vars(crystals)[name] is value for name, value in before.items())

    @pytest.mark.parametrize("shuffled", [False, True])
    def test_one_scan_per_element_on_the_default_route(self, monkeypatch, shuffled):
        # the ascent stops at the first state mapped earlier in the call, so
        # over a whole crystal each element is scanned exactly once; apart
        # from those, each top's descent makes one ascent of its dual
        sample = list(all_elements(WeightSequence(D4, (D4.fundamental_weight(1),) * 4)))
        if shuffled:
            random.Random(13).shuffle(sample)
        tops = sum(1 for b in sample if is_highest_weight(b))
        expected = [schutzenberger(b) for b in sample]
        descending = [False]
        scans = {False: 0, True: 0}
        ascents = {False: 0, True: 0}
        unmatched, to_highest, to_lowest = crystals._unmatched, crystals._to_highest, crystals._to_lowest

        def counted_scan(factors, start=0):
            scans[descending[0]] += 1
            return unmatched(factors, start)

        def counted_ascent(rs, factors, known, moves):
            ascents[descending[0]] += 1
            return to_highest(rs, factors, known, moves)

        def counted_descent(rs, factors, moves):
            descending[0] = True
            bottom = to_lowest(rs, factors, moves)
            descending[0] = False
            return bottom

        monkeypatch.setattr(crystals, "_unmatched", counted_scan)
        monkeypatch.setattr(crystals, "_to_highest", counted_ascent)
        monkeypatch.setattr(crystals, "_to_lowest", counted_descent)
        assert schutzenberger_all(sample) == expected
        assert len(sample) == scans[False] == ascents[False] == 4096
        assert ascents[True] == tops

    def test_string_scans_of_the_coherence_suite_are_pinned(self, monkeypatch):
        # every sign scan of one full crystal-coherence run, operators and
        # walks together; a change that walks more fails here
        calls = []
        string = crystals._string

        def counted(factors, j):
            calls.append(1)
            return string(factors, j)

        monkeypatch.setattr(crystals, "_string", counted)
        result = battery.suite_crystal_coherence(battery.standard_battery(), 0)
        assert result.passed and len(calls) == 111_665


class TestOneWalk:
    """The ascent is the only walk: it finds a component's top, and as the
    dual D swaps e_i and f_i, the bottom as D(top(D(h)))."""

    @settings(max_examples=150, deadline=None)
    @given(elements(WALK_TYPES))
    def test_dual_swaps_raising_and_lowering(self, b):
        d = dual_element(b)
        assert tuple(_dual(d.factors)) == b.factors
        for i in range(1, b.seq.rs.rank + 1):
            for op, swapped in (("raise", "lower"), ("lower", "raise")):
                image = crystal_op(op, i, b)
                want = None if image is None else dual_element(image)
                assert crystal_op(swapped, i, d) == want

    @settings(max_examples=100, deadline=None)
    @given(elements(WALK_TYPES))
    def test_bottom_is_the_kashiwara_descent_along_w0(self, b):
        rs = b.seq.rs
        top = list(b.factors)
        _to_highest(rs, top, {}, {})
        low = list(top)
        for i in w0_word(rs):
            _reflect(low, i - 1, rs.simple_roots, {})
        assert _to_lowest(rs, top, {}) == tuple(low)

    @settings(max_examples=100, deadline=None)
    @given(elements(WALK_TYPES))
    def test_restarted_ascent_takes_the_rescanning_route(self, b):
        # the reference rescans every index from 1 before each e_i
        rs = b.seq.rs
        for start in (b, dual_element(b)):
            route, x = [], start
            while (i := next((i for i in range(1, rs.rank + 1) if epsilon(i, x)), 0)):
                route.append((i, x.factors))
                x = crystal_op("raise", i, x)
            factors = list(start.factors)
            assert _to_highest(rs, factors, {}, {}) == route
            assert tuple(factors) == x.factors


class TestRootSystemData:
    # the root-system data the kernels read besides the factor weights:
    # the simple roots that move a factor and w0, which maps each one-factor
    # element to its image under xi
    @pytest.mark.parametrize("family,rank", MINUSCULE_TYPES)
    def test_simple_roots_reproduce_reflections_and_pairings(self, family, rank):
        rs = build_root_system(family, rank)
        roots = rs.simple_roots
        moves = {}
        for lam in minuscule_weights(rs):
            for w in weyl_orbit(rs, lam):
                for i in range(1, rs.rank + 1):
                    reflected = simple_reflection(rs, i, w)
                    # s_i(w) = w - <w, alpha_i_vee> alpha_i, and alpha_i has 2 at i
                    pairing = (w[i - 1] - reflected[i - 1]) // 2
                    assert w[i - 1] == pairing in (-1, 0, 1)
                    if pairing:
                        # a move by the column is s_i, computed once per call
                        factors, again = [w], [w]
                        _flip(factors, i - 1, 0, roots, moves)
                        _flip(again, i - 1, 0, roots, moves)
                        assert factors == [reflected] and again[0] is factors[0]

    @pytest.mark.parametrize("family,rank", MINUSCULE_TYPES)
    def test_w0_images(self, family, rank):
        rs = build_root_system(family, rank)
        w0 = w0_word(rs)
        for lam in minuscule_weights(rs):
            seq = WeightSequence(rs, (lam,))
            # the commutor's xi(lambda) = w0.lambda = -omega_{i*}
            star = rs.fundamental_weight(dual_index(rs, lam.index(1) + 1))
            assert apply_word(rs, w0, lam) == tuple(-x for x in star)
            for w in weyl_orbit(rs, lam):
                lowest = apply_word(rs, w0, w)
                assert apply_word(rs, w0, lowest) == w
                assert schutzenberger(elem(seq, w)).factors == (lowest,)

    def test_kernels_touch_only_the_sequences_own_orbits(self):
        # A15 also has omega_8, whose orbit of 12,870 weights is past the
        # orbit cap; the kernels on (omega_1, omega_15) must never touch it
        A15 = build_root_system("A", 15)
        with pytest.raises(OrbitTooLarge):
            weyl_orbit(A15, A15.fundamental_weight(8))
        seq = WeightSequence(A15, (A15.fundamental_weight(1), A15.fundamental_weight(15)))
        for b in all_elements(seq):
            xi = schutzenberger(b)
            assert schutzenberger(xi) == b
            assert weight(xi) == tuple(-x for x in reversed(weight(b)))
        (p,) = enumerate_paths(seq)
        assert invariant_elements(seq) == (path_bijection(p),)
        assert commutor_rotate(path_bijection(p)) == path_bijection(rotate(p))
