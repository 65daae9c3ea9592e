import doctest

import pytest
from hypothesis import given, strategies as st

from minuscule import poly
from minuscule.csp import csp_check
from minuscule.paths import WeightSequence
from minuscule.poly import IntPolynomial

from support import A1, W

coeff_lists = st.lists(st.integers(-9, 9), max_size=8)


def test_trimming():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0,)).is_zero()
    assert not IntPolynomial((0,)) and IntPolynomial((0, 1))


@pytest.mark.parametrize("coeffs", [[0.5, 0, 0.5], [0, 0, True, 0, True]])
def test_coefficients_outside_the_integers_are_refused(coeffs):
    # a float or a bool is not a coefficient in Z[q], even where it
    # compares equal to one
    with pytest.raises(TypeError, match="is not an int"):
        IntPolynomial(coeffs)


P = IntPolynomial((1, 2))


@pytest.mark.parametrize("make", [
    lambda: P + 2.5,
    lambda: P - 2.5,
    lambda: P * 2.5,
    lambda: 2.5 * P,
    lambda: divmod(P, 2.5),
    lambda: P // 2.5,
    lambda: P + "q",
    lambda: P * True,
    lambda: IntPolynomial(x for x in (1, 2)),
    lambda: IntPolynomial({1: 2}),
    lambda: IntPolynomial("12"),
], ids=["add", "sub", "mul", "rmul", "divmod", "floordiv", "add str", "mul bool",
        "generator", "dict", "str"])
def test_operands_outside_the_ring_are_a_type_error(make):
    with pytest.raises(TypeError):
        make()


@pytest.mark.parametrize("make", [
    lambda: P - 1,
    lambda: 1 - P,
    lambda: P - P,
    lambda: P(1),
], ids=["sub int", "rsub int", "sub", "call"])
def test_no_subtraction_and_no_evaluation(make):
    # the value at 1 is sum(p.coeffs); roots of unity go through csp.eval_matches
    with pytest.raises(TypeError):
        make()


def test_a_report_keeps_its_hash():
    report = csp_check(WeightSequence(A1, (W,) * 4), 1)
    before = hash(report)
    with pytest.raises(AttributeError):
        report.instance.poly.coeffs = (9,)
    assert hash(report) == before
    assert report.to_json_dict()["polynomial"] == [0, 0, 0, 0, 1, 0, 1]


def test_docstring_examples_run():
    result = doctest.testmod(poly)
    assert result.failed == 0 and result.attempted >= 1


def test_arithmetic():
    p = IntPolynomial((1, 2))
    q = IntPolynomial((0, 1, 1))
    assert (p + q).coeffs == (1, 3, 1)
    assert (p * q).coeffs == (0, 1, 3, 2)
    assert (3 * p).coeffs == (3, 6)
    assert p.shift(2).coeffs == (0, 0, 1, 2)
    assert IntPolynomial().shift(2).is_zero()
    assert (p + 1).coeffs == (1 + p).coeffs == (2, 2)
    # an int divisor is a constant too
    assert (3 * p) // 3 == p and divmod(p, 1) == (p, IntPolynomial())
    assert p == IntPolynomial([1, 2]) and p != q
    # an int compares as a constant; a bool is not a coefficient
    assert IntPolynomial((1,)) == 1 and IntPolynomial((1,)) != True


@pytest.mark.parametrize("k", [-1, -5, True, 1.0])
def test_shift_takes_an_int_of_at_least_0(k):
    # a negative k used to return the polynomial unchanged, and True
    # multiplied by q
    for p in (IntPolynomial((1, 2)), IntPolynomial((0, 0, 1)), IntPolynomial()):
        with pytest.raises(ValueError, match="must be an int of at least 0"):
            p.shift(k)


def horner(p, x):
    value = 0
    for c in reversed(p.coeffs):
        value = value * x + c
    return value


@given(coeff_lists, coeff_lists)
def test_mul_matches_evaluation(a, b):
    p, q = IntPolynomial(a), IntPolynomial(b)
    assert horner(p * q, 3) == horner(p, 3) * horner(q, 3)
    assert horner(p + q, 7) == horner(p, 7) + horner(q, 7)


def test_divmod_exact():
    n = IntPolynomial((-1, 0, 0, 1))  # q^3 - 1
    d = IntPolynomial((-1, 1))        # q - 1
    quo, rem = divmod(n, d)
    assert quo.coeffs == (1, 1, 1) and rem.is_zero()
    assert n // d == quo


def test_divmod_leaves_remainder():
    quo, rem = divmod(IntPolynomial((1, 0, 1)), IntPolynomial((1, 1)))
    assert not rem.is_zero()
    with pytest.raises(ValueError):
        IntPolynomial((1, 0, 1)) // IntPolynomial((1, 1))


def test_divmod_requires_exact_integer_leading_division():
    with pytest.raises(ValueError):
        divmod(IntPolynomial((0, 1)), IntPolynomial((0, 2)))
    with pytest.raises(ZeroDivisionError):
        divmod(IntPolynomial((1,)), IntPolynomial(()))


@given(coeff_lists, st.lists(st.integers(-9, 9), min_size=1, max_size=4))
def test_division_roundtrip(a, b):
    p, d = IntPolynomial(a), IntPolynomial(b)
    if d.is_zero():
        return
    product = p * d
    try:
        quo, rem = divmod(product, d)
    except ValueError:
        return  # leading-coefficient division left the ring midway
    assert rem.is_zero() and quo == p


def test_text_format_ascending():
    assert str(IntPolynomial(())) == "0"
    assert str(IntPolynomial((7,))) == "7"
    assert str(IntPolynomial((0, 1))) == "q"
    assert str(IntPolynomial((0, 0, 1, 0, 1))) == "q^2 + q^4"
    assert str(IntPolynomial((1, -1, 1))) == "1 - q + q^2"
    assert str(IntPolynomial((-2, 0, 3))) == "-2 + 3q^2"
    assert repr(IntPolynomial((0, 1))) == "IntPolynomial('q')"

