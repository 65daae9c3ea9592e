"""Tensor products of minuscule crystals and the commutor form of rotation.

Each factor of a tensor element is just a weight in the orbit of its type,
since a minuscule crystal is its weight orbit.  Tensor convention, fixed
once: per-factor statistics are eps_i = max(0, -<mu, alpha_i_vee>) and
phi_i = max(0, <mu, alpha_i_vee>); lowering routes to the left factor when
phi(left) > eps(right), raising routes left when phi(left) >= eps(right).
Equivalently: write '-' for a factor pairing to -1 and '+' for +1, cancel
adjacent "+-" pairs, then lowering acts at the leftmost surviving '+' and
raising at the rightmost surviving '-'.  The crystal zero is represented
by ``None``; it is a value, never an error.

The surviving signs always read '-'^a '+'^p, so a whole operator string
is one pass over the factors: e_i^c flips the rightmost c surviving '-',
f_i^c the leftmost c surviving '+'.  Kashiwara's Weyl-group action S_i
reflects an element within its i-string; it flips the leftmost p - a '+'
or the rightmost a - p '-'.  Along a reduced word of w0, the S_i carry a
highest-weight element to the lowest-weight element of its component.

Validation happens once, where data enters: the public
``TensorCrystalElement`` constructor checks orbit membership.  Operators,
strings, S_i, the invariant search and the commutor only ever reflect
factors that are already in their orbits, so they build their results
with the unchecked ``TensorCrystalElement._trusted``.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import (
    AlgorithmInvariantViolated,
    EnumerationTooLarge,
    InvalidIndex,
    InvalidPath,
    NotInvariant,
)
from .paths import LittelmannPath, WeightSequence, _add, _sub
from .rootsys import (
    Weight,
    dual_index,
    simple_reflection,
    to_dominant,
    two_rho_pairing,
    weyl_orbit,
)

DEFAULT_NODE_CAP = 5_000_000


@functools.lru_cache(maxsize=None)
def _orbit_set(rs, lam):
    return frozenset(weyl_orbit(rs, lam))


@functools.lru_cache(maxsize=None)
def _w0_word(rs) -> tuple[int, ...]:
    """A reduced word of the longest Weyl element: it sends -rho to rho."""
    _, word = to_dominant(rs, (-1,) * rs.rank)
    return word.letters


@dataclass(frozen=True)
class TensorCrystalElement:
    """An element b_1 (x) ... (x) b_m, one orbit weight per tensor factor."""

    seq: WeightSequence
    factors: tuple[Weight, ...]

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(tuple(f) for f in self.factors))
        if len(self.factors) != len(self.seq):
            raise InvalidPath("factor count does not match the type sequence")
        for f, lam in zip(self.factors, self.seq.weights):
            if f not in _orbit_set(self.seq.rs, lam):
                raise InvalidPath(f"factor {f} is not in the orbit of {lam}")

    @classmethod
    def _trusted(cls, seq: WeightSequence, factors: tuple[Weight, ...]):
        """Build without checks: ``factors`` is a tuple of weight tuples, one
        per entry of ``seq``, each already in the orbit of its type."""
        b = object.__new__(cls)
        object.__setattr__(b, "seq", seq)
        object.__setattr__(b, "factors", factors)
        return b

    def weight(self) -> Weight:
        total = self.seq.rs.zero()
        for f in self.factors:
            total = _add(total, f)
        return total

    def to_json_dict(self):
        return {"factors": [list(f) for f in self.factors]}


def _signature(factors, i: int):
    """Surviving signs after cancelling "+-": the indices of the factors
    left with a '-' and of those left with a '+', both ascending.  Every
    surviving '-' lies left of every surviving '+'."""
    j = i - 1
    minus: list[int] = []
    plus: list[int] = []
    for k, f in enumerate(factors):
        a = f[j]
        if a == 1:
            plus.append(k)
        elif a == -1:
            if plus:
                plus.pop()
            else:
                minus.append(k)
    return minus, plus


@functools.lru_cache(maxsize=None)
def _reflected(rs, i: int, f: Weight) -> Weight:
    # factors range over a few small orbits, so the same reflections recur
    return simple_reflection(rs, i, f)


def _flip(rs, factors: list, i: int, positions):
    """Reflect the listed factors at alpha_i, in place."""
    for k in positions:
        factors[k] = _reflected(rs, i, factors[k])


def _reflect(rs, factors: list, i: int):
    """Kashiwara's S_i in place: f_i^(p-a) or e_i^(a-p) along the i-string."""
    minus, plus = _signature(factors, i)
    a, p = len(minus), len(plus)
    _flip(rs, factors, i, plus[:p - a] if p > a else minus[p:])


def crystal_op(direction: str, i: int, b: TensorCrystalElement):
    """Apply a raising or lowering operator; ``None`` is the crystal zero."""
    rs = b.seq.rs
    if not 1 <= i <= rs.rank:
        raise InvalidIndex(f"index {i} out of range for {rs}")
    if direction not in ("raise", "lower"):
        raise InvalidIndex(f"unknown direction {direction!r}")
    minus, plus = _signature(b.factors, i)
    if direction == "lower":
        positions = plus[:1]
    else:
        positions = minus[-1:]
    if not positions:
        return None
    factors = list(b.factors)
    _flip(rs, factors, i, positions)
    return TensorCrystalElement._trusted(b.seq, tuple(factors))


def epsilon(i: int, b: TensorCrystalElement) -> int:
    return len(_signature(b.factors, i)[0])


def phi(i: int, b: TensorCrystalElement) -> int:
    return len(_signature(b.factors, i)[1])


def is_highest_weight(b: TensorCrystalElement) -> bool:
    return all(epsilon(i, b) == 0 for i in range(1, b.seq.rs.rank + 1))


def is_invariant(b: TensorCrystalElement) -> bool:
    return not any(b.weight()) and is_highest_weight(b)


def all_elements(seq: WeightSequence):
    """Iterate the full tensor crystal in lexicographic factor order."""
    orbits = [weyl_orbit(seq.rs, lam) for lam in seq.weights]
    for combo in itertools.product(*orbits):
        yield TensorCrystalElement._trusted(seq, combo)


def crystal_size(seq: WeightSequence) -> int:
    size = 1
    for lam in seq.weights:
        size *= len(weyl_orbit(seq.rs, lam))
    return size


def _append_signs(unmatched: tuple[int, ...], f: Weight):
    """Unmatched '+' count per index after appending the factor ``f``, or
    ``None`` when ``f`` leaves a '-' that nothing can cancel: eps_i is then
    positive for every extension of the prefix."""
    out = list(unmatched)
    for j, a in enumerate(f):
        if a == 1:
            out[j] += 1
        elif a == -1:
            if not out[j]:
                return None
            out[j] -= 1
    return tuple(out)


def invariant_elements(seq: WeightSequence, cap: int = DEFAULT_NODE_CAP) -> tuple[TensorCrystalElement, ...]:
    """All highest-weight elements of weight zero, in deterministic order.

    Searches factor by factor.  Every prefix of a highest-weight element is
    highest weight, so a branch is cut as soon as a factor leaves a '-' in
    some signature that no '+' before it cancels.  Partial weights are
    bounded through the positive-coroot sum, the last factor is forced to
    whatever cancels the running total, and every candidate is checked
    with ``is_highest_weight``.
    """
    rs = seq.rs
    m = len(seq)
    orbits = [weyl_orbit(rs, lam) for lam in seq.weights]
    budget = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        budget[k] = budget[k + 1] + two_rho_pairing(rs, seq.weights[k])

    visited = 0
    out = []
    prefix: list[Weight] = []

    def search(k: int, partial: Weight, unmatched: tuple[int, ...]):
        nonlocal visited
        visited += 1
        if visited > cap:
            raise EnumerationTooLarge(f"crystal search exceeded {cap} nodes")
        if abs(two_rho_pairing(rs, partial)) > budget[k]:
            return
        if k == m - 1:
            last = _sub(rs.zero(), partial)
            if last in _orbit_set(rs, seq.weights[k]):
                candidate = TensorCrystalElement._trusted(seq, tuple(prefix) + (last,))
                if is_highest_weight(candidate):
                    out.append(candidate)
            return
        for f in orbits[k]:
            signs = _append_signs(unmatched, f)
            if signs is None:
                continue
            prefix.append(f)
            search(k + 1, _add(partial, f), signs)
            prefix.pop()

    search(0, rs.zero(), (0,) * rs.rank)
    out.sort(key=lambda b: b.factors)
    return tuple(out)


def _to_highest(b, policy=None):
    """Raise to the top of the connected component, recording the indices
    in application order.

    Without a ``policy`` each step raises a whole string e_i^eps_i at the
    smallest index with eps_i > 0.  With one, each step is a single e_i at
    the index ``policy(options, element)`` picks, so a random policy
    exercises a different route.
    """
    rs = b.seq.rs
    record: list[int] = []
    if policy is not None:
        while True:
            options = [i for i in range(1, rs.rank + 1) if epsilon(i, b) > 0]
            if not options:
                return b, record
            i = policy(options, b)
            record.append(i)
            b = crystal_op("raise", i, b)
    factors = list(b.factors)
    while True:
        for i in range(1, rs.rank + 1):
            minus, _ = _signature(factors, i)
            if minus:
                _flip(rs, factors, i, minus)
                record.extend([i] * len(minus))
                break
        else:
            return TensorCrystalElement._trusted(b.seq, tuple(factors)), record


def _to_lowest(top):
    """The lowest-weight element of the component of the highest-weight
    element ``top``: Kashiwara's S_i along a reduced word of w0.  As w0 is
    an involution, the word's letters may be applied in either order."""
    rs = top.seq.rs
    factors = list(top.factors)
    for i in _w0_word(rs):
        _reflect(rs, factors, i)
    return TensorCrystalElement._trusted(top.seq, tuple(factors))


def schutzenberger(b: TensorCrystalElement, policy=None) -> TensorCrystalElement:
    """The involution swapping highest and lowest weight elements.

    Raise ``b`` to the top of its component recording indices i_1..i_k in
    application order, move to the component's bottom by Kashiwara's S_i
    along a reduced word of w0, then replay the record backwards through
    raising operators at the dual indices, each run of equal entries as
    one string e_{i*}^c.  Without a ``policy`` the ascent raises whole
    strings; a ``policy`` picks every single step instead.  The result
    does not depend on the route; ``policy`` exists so tests can
    randomize it.  The input was validated when it was built, and every
    step reflects factors inside their orbits, so nothing is re-checked.
    """
    rs = b.seq.rs
    top, record = _to_highest(b, policy)
    x = list(_to_lowest(top).factors)
    for i, run in itertools.groupby(reversed(record)):
        j = dual_index(rs, i)
        c = sum(1 for _ in run)
        minus, _ = _signature(x, j)
        if len(minus) < c:  # pragma: no cover - would signal a bug
            raise AlgorithmInvariantViolated("replay of the raising record left the crystal")
        _flip(rs, x, j, minus[len(minus) - c:])
    return TensorCrystalElement._trusted(b.seq, tuple(x))


def commutor_rotate(b: TensorCrystalElement) -> TensorCrystalElement:
    """Send b_1 (x) rest to xi(rest) (x) xi(b_1), staying inside invariants."""
    if not is_invariant(b):
        raise NotInvariant("commutor rotation is defined on invariant elements only")
    seq = b.seq
    rs = seq.rs
    head = TensorCrystalElement._trusted(WeightSequence(rs, seq.weights[:1]), b.factors[:1])
    tail = TensorCrystalElement._trusted(WeightSequence(rs, seq.weights[1:]), b.factors[1:])
    out = TensorCrystalElement._trusted(
        seq.rotated(1), schutzenberger(tail).factors + schutzenberger(head).factors)
    if not is_invariant(out):  # pragma: no cover - would signal a bug
        raise AlgorithmInvariantViolated("rotated element is no longer invariant")
    return out


def path_bijection(p: LittelmannPath) -> TensorCrystalElement:
    """Successive differences of a dominant path, as a tensor element.

    A path's steps were checked against their orbits when it was built."""
    prev = p.seq.rs.zero()
    factors = []
    for point in p.points:
        factors.append(_sub(point, prev))
        prev = point
    return TensorCrystalElement._trusted(p.seq, tuple(factors))
