"""Dense integer polynomials in the variable q.

``IntPolynomial`` is a frozen record whose one field, ``coeffs``, holds
the int coefficients indexed by exponent with trailing zeros trimmed, so
equal polynomials have equal tuples.  It offers ``+`` and ``*`` on either
side, exact ``divmod`` and ``//``, ``shift`` and a zero test; an int
operand is a constant, any other a ``TypeError``.  It has no evaluation:
the value at 1 is ``sum(p.coeffs)``, and ``csp.eval_matches`` decides
values at roots of unity.  Nothing here ever touches a float.
"""
from __future__ import annotations

import itertools

from .records import FrozenRecord


class IntPolynomial(FrozenRecord):
    """An element of Z[q].

    >>> IntPolynomial([0, 0, 1, 0, 1])
    IntPolynomial('q^2 + q^4')
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        if not isinstance(coeffs, (list, tuple)):
            raise TypeError(f"coefficients must be a list or tuple, not {coeffs!r}")
        for c in coeffs:
            if type(c) is not int:
                raise TypeError(f"coefficient {c!r} is not an int")
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        self._fill(tuple(coeffs[:end]))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is int:
            other = IntPolynomial((other,))
        return super().__eq__(other)

    __hash__ = FrozenRecord.__hash__

    def __add__(self, other):
        if type(other) is int:
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return IntPolynomial(tuple(a + b for a, b in itertools.zip_longest(
            self.coeffs, other.coeffs, fillvalue=0)))

    __radd__ = __add__

    def __mul__(self, other):
        if type(other) is int:
            return IntPolynomial(tuple(c * other for c in self.coeffs))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        out = [0] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def shift(self, k: int) -> "IntPolynomial":
        """Multiply by q^k, for ``k`` an ``int`` (not ``bool``) of at least 0."""
        if type(k) is not int or k < 0:
            raise ValueError(f"the shift must be an int of at least 0, got {k!r}")
        return IntPolynomial((0,) * k + self.coeffs)

    def __divmod__(self, other):
        """Long division; requires every leading-coefficient division exact."""
        if type(other) is int:
            other = IntPolynomial((other,))
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quot = [0] * max(0, len(rem) - len(other.coeffs) + 1)
        lead = other.coeffs[-1]
        for k in range(len(rem) - len(other.coeffs), -1, -1):
            top = rem[k + len(other.coeffs) - 1]
            t, r = divmod(top, lead)
            if r:
                raise ValueError(f"{top} not divisible by leading coefficient {lead}")
            quot[k] = t
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= t * b
        return IntPolynomial(quot), IntPolynomial(rem)

    def __floordiv__(self, other):
        if type(other) is not int and not isinstance(other, IntPolynomial):
            return NotImplemented
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
