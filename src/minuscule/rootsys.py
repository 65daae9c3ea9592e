"""Root-system and Weyl-group kernel, exact integer arithmetic throughout.

Conventions, fixed once for the whole package:

* A weight is a tuple of ints in the fundamental-weight basis, so
  ``w[i]`` equals the pairing of ``w`` with the (i+1)-st simple coroot
  and ``w`` is dominant iff all entries are >= 0.
* The Cartan matrix is stored with ``cartan[i][j] = <alpha_j, alpha_i_vee>``,
  hence column ``i`` of the matrix expresses the simple root ``alpha_i``
  in the fundamental-weight basis.
* Node numbering follows Bourbaki in every family; all public indices
  are 1-based.
* A coroot is a tuple of ints in the simple-coroot basis.

Every object here is immutable and every function is pure, so values can
be shared freely across threads or worker processes.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidIndex, InvalidType, OrbitTooLarge

Weight = tuple  # tuple[int, ...] in the fundamental-weight basis

DEFAULT_ORBIT_CAP = 10_000


@dataclass(frozen=True)
class WeylWord:
    """A word in the simple reflections, applied right to left."""

    letters: tuple[int, ...]

    def __len__(self):
        return len(self.letters)


@dataclass(frozen=True)
class RootSystem:
    family: str
    rank: int
    cartan: tuple[tuple[int, ...], ...]
    positive_coroots: tuple[tuple[int, ...], ...]
    two_rho_covector: tuple[int, ...]

    def __post_init__(self):
        # Instances key several lru_caches on hot paths, so hash the
        # fields once instead of on every lookup.
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self):
        return (self.family, self.rank, self.cartan, self.positive_coroots,
                self.two_rho_covector)

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild through the constructor: string hashes differ per process
        return (RootSystem, self._fields())

    def __str__(self):
        return f"{self.family}{self.rank}"

    def zero(self) -> Weight:
        return (0,) * self.rank

    def fundamental_weight(self, i: int) -> Weight:
        _check_index(self, i)
        return tuple(1 if k == i - 1 else 0 for k in range(self.rank))


_RANK_CONSTRAINTS = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 2,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}


def _cartan_matrix(family: str, rank: int) -> tuple[tuple[int, ...], ...]:
    C = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]

    def join(i, j, cij=-1, cji=-1):
        # 1-based nodes; cij goes into row i, column j.
        C[i - 1][j - 1] = cij
        C[j - 1][i - 1] = cji

    if family == "A":
        for i in range(1, rank):
            join(i, i + 1)
    elif family == "B":
        # alpha_rank is the short root.
        for i in range(1, rank - 1):
            join(i, i + 1)
        join(rank - 1, rank, -1, -2)
    elif family == "C":
        # alpha_rank is the long root; transpose of B.
        for i in range(1, rank - 1):
            join(i, i + 1)
        join(rank - 1, rank, -2, -1)
    elif family == "D":
        for i in range(1, rank - 1):
            join(i, i + 1)
        join(rank - 2, rank)
    elif family == "E":
        join(1, 3)
        join(2, 4)
        for i in range(3, rank):
            join(i, i + 1)
    elif family == "F":
        join(1, 2)
        join(2, 3, -1, -2)
        join(3, 4)
    elif family == "G":
        join(1, 2, -3, -1)
    return tuple(tuple(row) for row in C)


def _coroot_reflection(cartan, coroot, j):
    """Reflect a coroot (simple-coroot coordinates) at the j-th simple root."""
    pairing = sum(coroot[k] * cartan[k][j] for k in range(len(coroot)))
    if pairing == 0:
        return coroot
    img = list(coroot)
    img[j] -= pairing
    return tuple(img)


def _positive_coroots(cartan):
    rank = len(cartan)
    simple = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for c in frontier:
            for j in range(rank):
                img = _coroot_reflection(cartan, c, j)
                if img not in seen:
                    seen.add(img)
                    fresh.append(img)
        frontier = fresh
    return tuple(sorted(c for c in seen if all(x >= 0 for x in c)))


@functools.lru_cache(maxsize=None)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the Cartan data for a finite type, Bourbaki numbered."""
    check = _RANK_CONSTRAINTS.get(family)
    if check is None or not isinstance(rank, int) or not check(rank):
        raise InvalidType(f"no finite root system of type {family}{rank}")
    cartan = _cartan_matrix(family, rank)
    coroots = _positive_coroots(cartan)
    two_rho = tuple(sum(c[i] for c in coroots) for i in range(rank))
    return RootSystem(family, rank, cartan, coroots, two_rho)


def _check_index(rs: RootSystem, i: int):
    if not 1 <= i <= rs.rank:
        raise InvalidIndex(f"index {i} out of range for {rs}")


def simple_reflection(rs: RootSystem, i: int, w: Weight) -> Weight:
    """Reflect ``w`` at the i-th simple root: w - <w, alpha_i_vee> alpha_i."""
    _check_index(rs, i)
    c = w[i - 1]
    if c == 0:
        return tuple(w)
    return tuple(w[j] - c * rs.cartan[j][i - 1] for j in range(rs.rank))


def apply_word(rs: RootSystem, word: WeylWord, w: Weight) -> Weight:
    for i in reversed(word.letters):
        w = simple_reflection(rs, i, w)
    return w


def to_dominant(rs: RootSystem, w: Weight) -> tuple[Weight, WeylWord]:
    """Dominant representative of the orbit of ``w`` and a minimal word to it.

    Greedy: reflect at the smallest negative coordinate until dominant.  Any
    policy yields the same representative; the smallest-index tie-break makes
    the word reproducible.  The word length equals the number of positive
    coroots pairing negatively with ``w``.
    """
    w = tuple(w)
    applied = []
    while True:
        i = next((k for k in range(rs.rank) if w[k] < 0), None)
        if i is None:
            break
        applied.append(i + 1)
        w = simple_reflection(rs, i + 1, w)
    applied.reverse()
    return w, WeylWord(tuple(applied))


def weyl_orbit(rs: RootSystem, w: Weight, cap: int | None = None) -> tuple[Weight, ...]:
    """Full Weyl orbit of ``w``, sorted, capped to keep large types bounded."""
    if cap is None or cap == DEFAULT_ORBIT_CAP:
        return _orbit_cached(rs, tuple(w))
    return _orbit(rs, tuple(w), cap)


@functools.lru_cache(maxsize=None)
def _orbit_cached(rs, w):
    return _orbit(rs, w, DEFAULT_ORBIT_CAP)


def _orbit(rs, w, cap):
    seen = {w}
    frontier = [w]
    while frontier:
        fresh = []
        for v in frontier:
            for i in range(1, rs.rank + 1):
                img = simple_reflection(rs, i, v)
                if img not in seen:
                    seen.add(img)
                    fresh.append(img)
        if len(seen) > cap:
            raise OrbitTooLarge(f"orbit of {w} in {rs} exceeds cap {cap}")
        frontier = fresh
    return tuple(sorted(seen))


@functools.lru_cache(maxsize=None)
def minuscule_weights(rs: RootSystem) -> tuple[Weight, ...]:
    """All fundamental weights whose orbit pairs with every coroot in {-1,0,1}.

    For a dominant weight the extreme pairing is attained on a positive
    coroot, so ``omega_i`` qualifies iff no positive coroot has an i-th
    coefficient above 1.  This avoids enumerating the (possibly huge) orbits.
    """
    out = []
    for i in range(1, rs.rank + 1):
        if all(c[i - 1] <= 1 for c in rs.positive_coroots):
            out.append(rs.fundamental_weight(i))
    return tuple(out)


def two_rho_pairing(rs: RootSystem, w: Weight) -> int:
    """Pairing of ``w`` with the sum of the positive coroots."""
    return sum(a * b for a, b in zip(w, rs.two_rho_covector))


@functools.lru_cache(maxsize=None)
def _cartan_inverse(rs: RootSystem):
    """Exact inverse of the Cartan matrix, as rows of Fractions."""
    n = rs.rank
    aug = [[Fraction(rs.cartan[i][j]) for j in range(n)]
           + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def in_root_lattice(rs: RootSystem, w: Weight) -> bool:
    """True iff ``w`` is an integer combination of the simple roots."""
    inv = _cartan_inverse(rs)
    for row in inv:
        coeff = sum(f * c for f, c in zip(row, w))
        if coeff.denominator != 1:
            return False
    return True


@functools.lru_cache(maxsize=None)
def dual_index(rs: RootSystem, i: int) -> int:
    """Index i* with omega_{i*} the dominant representative of -omega_i."""
    _check_index(rs, i)
    neg = tuple(-x for x in rs.fundamental_weight(i))
    dom, _ = to_dominant(rs, neg)
    if sum(dom) != 1 or set(dom) - {0, 1}:
        raise InvalidIndex(f"-omega_{i} did not straighten to a fundamental weight")
    return dom.index(1) + 1
