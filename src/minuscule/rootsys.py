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

Every object here is immutable and every function is pure.  A root system
is built once per type and process by ``build_root_system`` and equals
only itself; pickling one and loading it again returns that process's
instance of the same type.  Besides the Cartan matrix C, its positive
coroots and their sum, it carries what the kernels derive from C, built
with it: ``simple_roots`` (the columns of C), their off-diagonal support
``columns`` that ``to_dominant`` and the crystal ascent walk, the dual
indices ``duals`` (w0.omega_i = -omega_{i*}), the words ``dual_words``
that straighten each -omega_i to omega_{i*}, which the commutor walks,
and ``lattice``, the pair (det C, det C * C^-1) of the integer
root-lattice test.
"""
from __future__ import annotations

import functools

from .errors import AlgorithmInvariantViolated, InvalidIndex, InvalidType, InvalidWeight, OrbitTooLarge
from .records import FrozenRecord

Weight = tuple  # tuple[int, ...] in the fundamental-weight basis

DEFAULT_ORBIT_CAP = 10_000

# Largest rank ``build_root_system`` accepts.  The positive coroots grow
# quadratically with the rank and their closure costs far more, so a
# huge rank would exhaust time and memory before any orbit cap could act;
# every family builds in a fraction of a second at this rank.
MAX_RANK = 32


class RootSystem(FrozenRecord):
    """Cartan data of one finite type.  ``build_root_system`` builds each
    type once, so a root system equals only itself and hashes by identity."""

    __slots__ = ("family", "rank", "cartan", "positive_coroots", "two_rho_covector",
                 "simple_roots", "columns", "duals", "dual_words", "lattice")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, family: str, rank: int, cartan: tuple[tuple[int, ...], ...],
                 positive_coroots: tuple[tuple[int, ...], ...],
                 two_rho_covector: tuple[int, ...], simple_roots: tuple[Weight, ...],
                 columns: tuple[tuple[tuple[int, int], ...], ...], duals: tuple[int, ...],
                 dual_words: tuple[tuple[int, ...], ...],
                 lattice: tuple[int, tuple[tuple[int, ...], ...]]):
        self._fill(family, rank, cartan, positive_coroots, two_rho_covector,
                   simple_roots, columns, duals, dual_words, lattice)

    def __reduce__(self):
        return build_root_system, (self.family, self.rank)

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
    # with _simple_reflection's, saves 1/5 of building root systems and orbits (BENCH_40.json)
    if pairing == 0:
        return coroot
    img = list(coroot)
    img[j] -= pairing
    return tuple(img)


def _positive_coroots(cartan):
    """The positive coroots, sorted.  s_j negates alpha_j_vee and permutes
    the other positive coroots, and each non-simple positive coroot is s_j
    of a lower one for some j.  So the search reflects positive coroots
    only, skips alpha_j_vee at j, and reaches every positive coroot and no
    negative one."""
    rank = len(cartan)
    simple = [tuple(int(k == i) for k in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for c in frontier:
            for j in range(rank):
                if c == simple[j]:
                    continue
                img = _coroot_reflection(cartan, c, j)
                if img not in seen:
                    seen.add(img)
                    fresh.append(img)
        frontier = fresh
    return tuple(sorted(seen))


@functools.lru_cache(maxsize=None, typed=True)
def build_root_system(family: str, rank: int) -> RootSystem:
    """Construct the Cartan data for a finite type, Bourbaki numbered.

    The rank must be an ``int``; ``True`` or ``1.0`` would equal 1 and
    share its cache entry, so the cache is typed and they are refused.
    Ranks above ``MAX_RANK`` are refused before anything is built."""
    check = _RANK_CONSTRAINTS.get(family)
    if check is None or type(rank) is not int or not check(rank):
        raise InvalidType(f"no finite root system of type {family}{rank}")
    if rank > MAX_RANK:
        raise InvalidType(f"rank {rank} is above the largest supported rank {MAX_RANK}")
    cartan = _cartan_matrix(family, rank)
    coroots = _positive_coroots(cartan)
    two_rho = tuple(sum(c[i] for c in coroots) for i in range(rank))
    roots = tuple(zip(*cartan))
    columns = tuple(tuple((j, a) for j, a in enumerate(root) if j != i and a)
                    for i, root in enumerate(roots))
    return RootSystem(family, rank, cartan, coroots, two_rho, roots, columns,
                      *_duals(columns), _lattice(cartan))


def _straighten(columns, w: list) -> list[int]:
    """Reflect the list ``w`` in place at its smallest negative coordinate
    until it is dominant; return the 1-based indices, in order.  A step at
    i negates w[i] = x and moves only the w[j] in ``columns[i]``, the pairs
    (j, cartan[j][i]) of nonzero entries off the diagonal, by -x * cartan[j][i]."""
    applied = []
    while True:
        for i, x in enumerate(w):
            if x < 0:
                break
        else:
            return applied
        w[i] = -x
        for j, a in columns[i]:
            w[j] -= x * a
        applied.append(i + 1)


def _duals(columns) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """(i* for each i, the word straightening -omega_i for each i): -omega_i
    straightens to omega_{i*}, anything else would signal a bug, and the
    word is its 1-based letters in application order."""
    duals, words = [], []
    for i in range(len(columns)):
        w = [-int(j == i) for j in range(len(columns))]
        words.append(tuple(_straighten(columns, w)))
        if sum(w) != 1 or set(w) - {0, 1}:
            raise AlgorithmInvariantViolated(
                f"-omega_{i + 1} did not straighten to a fundamental weight")
        duals.append(w.index(1) + 1)
    return tuple(duals), tuple(words)


def _lattice(cartan) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d, d * C^-1) with d = det C, by fraction-free Gauss-Jordan on [C | I]:
    each division is exact, as every entry after step k is a minor of order
    k + 1.  The pivots are the leading principal minors, positive for a
    Cartan matrix, so no row is swapped, and the last pivot is d."""
    n = len(cartan)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(cartan)]
    d = 1
    for k, pivot in enumerate(aug):
        p = pivot[k]
        for i, row in enumerate(aug):
            if i != k:
                aug[i] = [(p * x - row[k] * y) // d for x, y in zip(row, pivot)]
        d = p
    return d, tuple(tuple(row[n:]) for row in aug)


def _check_index(rs: RootSystem, i: int):
    if type(i) is not int:
        raise InvalidIndex(f"index {i!r} is not an int")
    if not 1 <= i <= rs.rank:
        raise InvalidIndex(f"index {i} out of range for {rs}")


def _check_weight(rs: RootSystem, w: Weight):
    """A weight of ``rs`` is a list or tuple of exactly ``rank`` ints;
    ``bool`` and ``float`` entries are refused like any other type."""
    if (not isinstance(w, (list, tuple)) or len(w) != rs.rank
            or any(type(x) is not int for x in w)):
        raise InvalidWeight(f"{w!r} is not a weight of {rs}: it needs {rs.rank} int entries")


def simple_reflection(rs: RootSystem, i: int, w: Weight) -> Weight:
    """Reflect ``w`` at the i-th simple root: w - <w, alpha_i_vee> alpha_i."""
    _check_index(rs, i)
    _check_weight(rs, w)
    return _simple_reflection(rs, i, w)


def _simple_reflection(rs: RootSystem, i: int, w: Weight) -> Weight:
    """w - <w, alpha_i_vee> alpha_i for an index and a weight already
    checked."""
    c = w[i - 1]
    # with _coroot_reflection's, saves 1/5 of building root systems and orbits (BENCH_40.json)
    if c == 0:
        return tuple(w)
    return tuple(x - c * a for x, a in zip(w, rs.simple_roots[i - 1]))


def apply_word(rs: RootSystem, letters: tuple[int, ...], w: Weight) -> Weight:
    """Apply the simple reflections ``letters`` (1-based), right to left.
    The weight is checked once and every letter as it is applied."""
    _check_weight(rs, w)
    for i in reversed(letters):
        _check_index(rs, i)
        w = _simple_reflection(rs, i, w)
    return w


def to_dominant(rs: RootSystem, w: Weight) -> tuple[Weight, tuple[int, ...]]:
    """Dominant representative of the orbit of ``w`` and a minimal word to it:
    a tuple of 1-based simple-reflection indices, applied right to left.

    Greedy: reflect at the smallest negative coordinate until dominant.  Any
    policy yields the same representative; the smallest-index tie-break makes
    the word reproducible.  The word length equals the number of positive
    coroots pairing negatively with ``w``.

    The steps run in place (``_straighten``); ``_simple_reflection`` stays
    the reference that ``simple_reflection``, ``apply_word`` and orbits use.
    """
    _check_weight(rs, w)
    w = list(w)
    applied = _straighten(rs.columns, w)
    applied.reverse()
    return tuple(w), tuple(applied)


def weyl_orbit(rs: RootSystem, w: Weight) -> tuple[Weight, ...]:
    """Full Weyl orbit of ``w``, sorted and cached.  The one place orbits
    are capped: past ``DEFAULT_ORBIT_CAP`` elements it raises ``OrbitTooLarge``.
    The weight is checked before the cache, which would take ``(True, 0)``
    for the entry of ``(1, 0)``."""
    _check_weight(rs, w)
    return _orbit(rs, tuple(w))


@functools.lru_cache(maxsize=None)
def _orbit(rs, w):
    seen = {w}
    frontier = [w]
    while frontier:
        fresh = []
        for v in frontier:
            for i in range(1, rs.rank + 1):
                img = _simple_reflection(rs, i, v)
                if img not in seen:
                    seen.add(img)
                    fresh.append(img)
        if len(seen) > DEFAULT_ORBIT_CAP:
            raise OrbitTooLarge(f"orbit of {w} in {rs} exceeds cap {DEFAULT_ORBIT_CAP}")
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
    _check_weight(rs, w)
    return sum(a * b for a, b in zip(w, rs.two_rho_covector))


def in_root_lattice(rs: RootSystem, w: Weight) -> bool:
    """True iff ``w`` is an integer combination of the simple roots, that
    is, iff every row of d * C^-1 (``rs.lattice``) pairs with it to a multiple of d."""
    _check_weight(rs, w)
    d, rows = rs.lattice
    return all(sum(a * b for a, b in zip(row, w)) % d == 0 for row in rows)


def dual_index(rs: RootSystem, i: int) -> int:
    """Index i* with omega_{i*} the dominant representative of -omega_i."""
    _check_index(rs, i)
    return rs.duals[i - 1]
