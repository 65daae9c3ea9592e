"""Dense integer polynomials in the variable q.

Coefficients are plain Python ints indexed by exponent, trailing zeros
trimmed, so equality of polynomials is equality of coefficient tuples.
Division is exact integer division and raises when the quotient would
leave the ring; nothing here ever touches a float.
"""
from __future__ import annotations

import itertools


class IntPolynomial:
    """An element of Z[q].

    >>> IntPolynomial([0, 0, 1, 0, 1])
    IntPolynomial('q^2 + q^4')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:end]))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "IntPolynomial":
        return cls((0,) * k + (c,))

    @property
    def degree(self) -> int:
        """Degree of the leading term; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return IntPolynomial(tuple(a + b for a, b in itertools.zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = IntPolynomial((other,))
        return IntPolynomial(tuple(a - b for a, b in itertools.zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return IntPolynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by q^k."""
        if self.is_zero():
            return self
        return IntPolynomial((0,) * k + self.coeffs)

    def __call__(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __divmod__(self, other: "IntPolynomial"):
        """Long division; requires every leading-coefficient division exact."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        lead = other.coeffs[-1]
        for k in range(len(rem) - len(other.coeffs), -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            if top == 0:
                continue
            t, r = divmod(top, lead)
            if r:
                raise ValueError(f"{top} not divisible by leading coefficient {lead}")
            quot[k] = t
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= t * b
        return IntPolynomial(quot), IntPolynomial(rem)

    def __floordiv__(self, other):
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return q

    def __repr__(self):
        return f"IntPolynomial({str(self)!r})"

    def __str__(self):
        """Ascending-exponent text form, e.g. ``q^2 + q^4``."""
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "q" if k == 1 else f"q^{k}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)
