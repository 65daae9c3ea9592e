"""Exact cyclic-sieving verification.

Whether f(zeta^d) equals an integer N, for zeta a primitive r-th root of
unity, is decided inside Z[q]: fold f(q^d) modulo q^r - 1 and test
divisibility of the difference by the r-th cyclotomic polynomial.  The
verdicts are equalities of algebraic integers, so nothing here may
approximate.

Each precondition of a verdict is checked once, and ``csp_check`` refuses
in the same order with or without a supplied polynomial: the type (the
automatic polynomial exists in type A only, and elsewhere is refused with
``TypeMismatch``, the refusal tableaux give outside type A), the root
lattice (outside it the instance is empty), the period ell
(``orbit_structure``), then the path cap, and last the automatic
polynomial's capped Kostka-Foulkes count.  Weyl orbits are capped in
``rootsys.weyl_orbit``.
"""
from __future__ import annotations

import functools

from .errors import AlgorithmInvariantViolated, NotInRootLattice, TypeMismatch
from .kostka import kostka_foulkes
from .paths import WeightSequence, orbit_structure
from .poly import IntPolynomial
from .records import FrozenRecord
from .rootsys import in_root_lattice, two_rho_pairing


# the cache saves 3-7% of a `sieve` pass and 1-3% of `battery` (BENCH_40.json)
@functools.lru_cache(maxsize=None, typed=True)
def cyclotomic(r: int) -> IntPolynomial:
    """The r-th cyclotomic polynomial, by exact recursive division, for
    ``r`` an ``int`` (not ``bool``) of at least 1."""
    if type(r) is not int or r < 1:
        raise ValueError(f"the cyclotomic index must be an int of at least 1, got {r!r}")
    # q^r - 1 divided by the cyclotomic polynomials of the proper divisors
    out = IntPolynomial((-1,) + (0,) * (r - 1) + (1,))
    for d in range(1, r):
        if r % d == 0:
            out = out // cyclotomic(d)
    return out


def eval_matches(f: IntPolynomial, r: int, d: int, value: int) -> bool:
    """True iff f(zeta^d) == value for zeta a primitive r-th root of unity;
    ``f`` is an ``IntPolynomial``, and ``r``, ``d`` and ``value`` are ``int``
    (not ``bool``), ``r`` at least 1."""
    if not isinstance(f, IntPolynomial):
        raise TypeError(f"the polynomial must be an IntPolynomial, got {f!r}")
    if type(r) is not int or r < 1:
        raise ValueError(f"the order r must be an int of at least 1, got {r!r}")
    if type(d) is not int:
        raise ValueError(f"the power d must be an int, got {d!r}")
    if type(value) is not int:
        raise ValueError(f"the value must be an int, got {value!r}")
    folded = [0] * r
    for k, c in enumerate(f.coeffs):
        folded[(k * d) % r] += c
    folded[0] -= value
    _, rem = divmod(IntPolynomial(folded), cyclotomic(r))
    return rem.is_zero()


def _check_lattice(seq: WeightSequence) -> None:
    if not in_root_lattice(seq.rs, seq.total()):
        raise NotInRootLattice("total weight outside the root lattice; the instance is empty")


def _type_a_content(seq: WeightSequence) -> tuple[int, ...]:
    if seq.rs.family != "A":
        raise TypeMismatch(f"no automatic sieving polynomial for {seq.rs}")
    return tuple(w.index(1) + 1 for w in seq.weights)


def exponent_identity(seq: WeightSequence) -> tuple[int, int]:
    """Both sides of n * sum(i_j) - sum(i_j^2) = <total, 2 rho_vee> for a
    type-A sequence of content (i_1..i_m), computed independently.  When
    sum(i_j) = n*b the left side is n^2 b - sum(i_j^2), twice the q-power
    of the sieving polynomial."""
    content = _type_a_content(seq)
    n = seq.rs.rank + 1
    return (n * sum(content) - sum(i * i for i in content),
            two_rho_pairing(seq.rs, seq.total()))


def type_a_csp_polynomial(seq: WeightSequence) -> IntPolynomial:
    """q-power times Kostka-Foulkes, the sieving polynomial in type A.

    For content (i_1..i_m) with sum n*b the exponent is
    (n^2 b - sum i_j^2)/2, which equals the pairing of the total weight
    with the half-sum of positive coroots; ``exponent_identity`` computes
    both and they are compared.  Outside type A, a total outside the root
    lattice and a failed exponent identity are refused before any search.
    """
    content = _type_a_content(seq)
    _check_lattice(seq)
    n = seq.rs.rank + 1
    exponent2, pairing = exponent_identity(seq)
    if exponent2 != pairing or exponent2 % 2 or exponent2 < 0:
        raise AlgorithmInvariantViolated(
            f"exponent identity failed: {exponent2} vs <total, 2 rho_vee> = {pairing}")
    return kostka_foulkes((n,) * (sum(content) // n), content).shift(exponent2 // 2)


class CSPInstance(FrozenRecord):
    """A sieving triple as a plain record: the sequence, the rotation step
    ell, the order r of that rotation and the polynomial.  It checks
    nothing; ``csp_check`` fills it in after the root-lattice test and
    ``orbit_structure`` have accepted the input."""

    __slots__ = ("seq", "ell", "r", "poly")

    def __init__(self, seq: WeightSequence, ell: int, r: int, poly: IntPolynomial):
        self._fill(seq, ell, r, poly)


class CSPReport(FrozenRecord):
    __slots__ = ("instance", "fixed_counts", "evaluations_ok", "sign_diagnostic")

    def __init__(self, instance: CSPInstance, fixed_counts: tuple[int, ...],
                 evaluations_ok: tuple[bool, ...], sign_diagnostic: int):
        self._fill(instance, fixed_counts, evaluations_ok, sign_diagnostic)

    @property
    def verdict(self) -> str:
        return "pass" if all(self.evaluations_ok) else "fail"

    def to_json_dict(self):
        return {
            "r": self.instance.r,
            "ell": self.instance.ell,
            "fixed_counts": list(self.fixed_counts),
            "polynomial": list(self.instance.poly.coeffs),
            "evaluations_ok": list(self.evaluations_ok),
            "sign_diagnostic": self.sign_diagnostic,
            "verdict": self.verdict,
        }


def csp_check(seq: WeightSequence, ell: int, poly: IntPolynomial | None = None) -> CSPReport:
    """Verify the sieving triple for the ell-fold rotation on the path set.

    ``poly=None`` requests the automatic type-A polynomial; outside type A
    a polynomial must be supplied, never fabricated.  The reported sign is
    the parity of the pairing of the first ell weights with the
    positive-coroot sum; it does not enter the verdict.  Its (r-1)-th
    power is the one sign by which rotation permutes a basis of invariants.
    """
    if poly is not None and not isinstance(poly, IntPolynomial):
        raise TypeError(f"the polynomial must be an IntPolynomial, got {poly!r}")
    if poly is None:
        _type_a_content(seq)
    _check_lattice(seq)
    structure = orbit_structure(seq, ell)
    if poly is None:
        poly = type_a_csp_polynomial(seq)
    instance = CSPInstance(seq, ell, structure.r, poly)
    ok = tuple(
        eval_matches(poly, structure.r, d, count)
        for d, count in enumerate(structure.fixed_counts)
    )
    window = sum(two_rho_pairing(seq.rs, w) for w in seq.weights[:ell])
    return CSPReport(instance, structure.fixed_counts, ok, -1 if window % 2 else 1)
