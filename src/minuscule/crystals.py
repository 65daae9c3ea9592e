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

The Schutzenberger involution xi is fixed one component at a time: every
element of a component rises to the same top, and the descent from that
top depends on nothing else.  ``schutzenberger_all`` keeps a map from
elements to images that lives only for the call: it descends once per
top met and stops each ascent at the first element already mapped.
``schutzenberger`` is its one-element case.

The commutor b_1 (x) c -> xi(c) (x) xi(b_1) needs none of that on an
invariant.  There b_1 = lambda_1 and c is lowest weight in its component
(phi_i(c) = 0 for every i, see ``commutor_rotate``), so xi(c) is the top
of c's component, one ascent away, and xi(b_1) = w0.lambda_1 is a
table lookup.  ``schutzenberger_all`` stays the general algorithm.

The one-step public operators ``crystal_op``, ``epsilon`` and ``phi``
read the signs straight off the weights, in one pass (``_string``):
``w[i-1]`` is the pairing of a factor with alpha_i_vee, and the one
factor an operator moves changes by +-alpha_i, column i of the Cartan
matrix (``_simple_roots``).  Nothing is encoded for them.

The kernels that take many steps on one element work on integer ids
instead: the Schutzenberger ascent, descent and replay,
``commutor_rotate``, and ``is_highest_weight``, which checks every
candidate of the invariant search.  There each factor is its index in
the sorted union of the orbits of the sequence's own distinct weights.
Read-only tables, built once per (root system, distinct weights), give
each id's pairing with every simple coroot, its id after every simple
reflection and its id after w0 (``_tables``), so signatures, strings, S_i and the replay are lookups
over a list of ints; such a kernel encodes its input once (``_encode``)
and decodes its result once (``_decode``).  The ascent to a component's
top takes one e_i per step, at the smallest index that can still raise,
found by one pass over the factors (``_to_highest``).  That xi does not
depend on this choice is the local rule xi(b) = e_{i*} xi(e_i b) at
every i with e_i b nonzero, which the battery checks with the public
weight-level operators, so the id kernels and a second implementation
of e_i check each other.

Validation happens once, where data enters: the public
``TensorCrystalElement`` constructor checks that it gets a list of
``int`` weights, one per factor, each in its orbit.  Operators,
strings, S_i, the invariant search and the commutor only ever reflect
factors that are already in their orbits, so they build their results
with the unchecked ``TensorCrystalElement._trusted``.
"""
from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from types import MappingProxyType

from .errors import (
    AlgorithmInvariantViolated,
    EnumerationTooLarge,
    InvalidIndex,
    InvalidPath,
    NotInvariant,
)
from .paths import LittelmannPath, WeightSequence, _add, _budget, _int_lists, _orbit_set, _sub
from .paths import _tables as _path_tables
from .rootsys import (
    Weight,
    _check_index,
    dual_index,
    simple_reflection,
    to_dominant,
    weyl_orbit,
)

DEFAULT_NODE_CAP = 5_000_000


@dataclass(frozen=True, slots=True)
class TensorCrystalElement:
    """An element b_1 (x) ... (x) b_m, one orbit weight per tensor factor."""

    seq: WeightSequence
    factors: tuple[Weight, ...]

    def __post_init__(self):
        if not _int_lists(self.factors):
            raise InvalidPath(f"factors must be a list of int weights, not {self.factors!r}")
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


class _IdTables:
    """Read-only id tables for the factors of a sequence over ``rs`` whose
    distinct weights are ``lams``.

    ``weights`` is the sorted union of the orbits of those weights, and a
    factor's id is its position there; only these orbits are enumerated,
    never those of the other minuscule weights, which can be far larger.
    For the 0-based index j of alpha_(j+1): ``pair[j][id]`` is the pairing
    of the weight with the coroot, in {-1, 0, 1}, and ``refl[j][id]`` is
    the id after the simple reflection.  ``ups[id]`` and ``downs[id]``
    list the j where the pairing is +1 and -1.  ``w0`` is a reduced word
    of the longest element, ``w0_image[id]`` the id of w0 applied to the
    weight, and ``dual[j]`` the dual index of j + 1.
    """

    __slots__ = ("weights", "index", "pair", "refl", "ups", "downs", "w0", "w0_image",
                 "dual")

    def __init__(self, rs, lams):
        weights = tuple(sorted(set().union(*(weyl_orbit(rs, lam) for lam in lams))))
        index = {w: k for k, w in enumerate(weights)}
        span = range(rs.rank)
        self.weights = weights
        self.index = MappingProxyType(index)  # cached and shared: read only
        self.pair = tuple(tuple(w[j] for w in weights) for j in span)
        self.refl = tuple(tuple(index[simple_reflection(rs, j + 1, w)] for w in weights)
                          for j in span)
        self.ups = tuple(tuple(j for j in span if w[j] == 1) for w in weights)
        self.downs = tuple(tuple(j for j in span if w[j] == -1) for w in weights)
        self.w0 = to_dominant(rs, (-1,) * rs.rank)[1]  # w0 sends -rho to rho
        image = list(range(len(weights)))
        for i in reversed(self.w0):
            refl = self.refl[i - 1]
            image = [refl[x] for x in image]
        self.w0_image = tuple(image)
        self.dual = tuple(dual_index(rs, j + 1) for j in span)


@functools.lru_cache(maxsize=None)
def _tables(rs, lams: frozenset) -> _IdTables:
    """The id tables of ``rs`` and a set of distinct weights, built once."""
    return _IdTables(rs, lams)


def _encode(b: TensorCrystalElement) -> tuple[_IdTables, list[int]]:
    """The tables of ``b``'s sequence and its factors as a list of ids."""
    t = _tables(b.seq.rs, frozenset(b.seq.weights))
    index = t.index
    return t, [index[f] for f in b.factors]


def _decode(seq: WeightSequence, t: _IdTables, ids) -> TensorCrystalElement:
    weights = t.weights
    return TensorCrystalElement._trusted(seq, tuple([weights[x] for x in ids]))


def _signature(t: _IdTables, ids, i: int):
    """Surviving signs at alpha_i after cancelling "+-": the positions of
    the factors left with a '-' and of those left with a '+', both
    ascending.  Every surviving '-' lies left of every surviving '+'."""
    pair = t.pair[i - 1]
    minus: list[int] = []
    plus: list[int] = []
    for k, x in enumerate(ids):
        a = pair[x]
        if a == 1:
            plus.append(k)
        elif a == -1:
            if plus:
                plus.pop()
            else:
                minus.append(k)
    return minus, plus


def _unmatched(t: _IdTables, ids):
    """Every index in one pass over the factors: for each 0-based j, the
    number of surviving '+' (phi) and the position of the rightmost
    surviving '-' (-1 when eps is 0)."""
    n = len(t.pair)
    plus = [0] * n
    last = [-1] * n
    ups, downs = t.ups, t.downs
    for k, x in enumerate(ids):
        for j in downs[x]:
            if plus[j]:
                plus[j] -= 1
            else:
                last[j] = k
        for j in ups[x]:
            plus[j] += 1
    return plus, last


def _is_invariant(t: _IdTables, ids) -> bool:
    # weight zero and highest weight: every eps and then every phi is 0
    plus, last = _unmatched(t, ids)
    return not any(plus) and max(last) < 0


def _flip(t: _IdTables, ids: list, i: int, positions):
    """Reflect the listed factors at alpha_i, in place."""
    refl = t.refl[i - 1]
    for k in positions:
        ids[k] = refl[ids[k]]


def _reflect(t: _IdTables, ids: list, i: int):
    """Kashiwara's S_i in place: f_i^(p-a) or e_i^(a-p) along the i-string."""
    minus, plus = _signature(t, ids, i)
    a, p = len(minus), len(plus)
    _flip(t, ids, i, plus[:p - a] if p > a else minus[p:])


@functools.lru_cache(maxsize=None)
def _simple_roots(rs) -> tuple[Weight, ...]:
    """alpha_1..alpha_rank in the fundamental-weight basis: the columns of
    the Cartan matrix."""
    return tuple(zip(*rs.cartan))


def _string(factors, j: int):
    """The i-string of an element at the 0-based index j = i - 1, read off
    the weights in one pass: (eps_i, phi_i, position of the rightmost
    surviving '-', position of the leftmost surviving '+'), a position
    being -1 when there is none.  A '-' cancels the nearest unmatched
    '+' on its left, so the leftmost surviving '+' is the last one met
    while no '+' was unmatched."""
    eps = plus = 0
    last = first = -1
    for k, f in enumerate(factors):
        a = f[j]
        if a == 1:
            if not plus:
                first = k
            plus += 1
        elif a == -1:
            if plus:
                plus -= 1
            else:
                eps += 1
                last = k
    return eps, plus, last, first if plus else -1


def crystal_op(direction: str, i: int, b: TensorCrystalElement):
    """Apply a raising or lowering operator; ``None`` is the crystal zero.

    e_i moves the factor at the rightmost surviving '-' by +alpha_i and
    f_i the factor at the leftmost surviving '+' by -alpha_i, which is
    s_i on that factor; the other factors are shared with ``b``."""
    seq = b.seq
    _check_index(seq.rs, i)
    factors = b.factors
    if direction == "raise":
        k, move = _string(factors, i - 1)[2], operator.add
    elif direction == "lower":
        k, move = _string(factors, i - 1)[3], operator.sub
    else:
        raise InvalidIndex(f"unknown direction {direction!r}")
    if k < 0:
        return None
    moved = tuple(map(move, factors[k], _simple_roots(seq.rs)[i - 1]))
    return TensorCrystalElement._trusted(seq, (*factors[:k], moved, *factors[k + 1:]))


def epsilon(i: int, b: TensorCrystalElement) -> int:
    _check_index(b.seq.rs, i)
    return _string(b.factors, i - 1)[0]


def phi(i: int, b: TensorCrystalElement) -> int:
    _check_index(b.seq.rs, i)
    return _string(b.factors, i - 1)[1]


def is_highest_weight(b: TensorCrystalElement) -> bool:
    _, last = _unmatched(*_encode(b))
    return max(last) < 0


def is_invariant(b: TensorCrystalElement) -> bool:
    return _is_invariant(*_encode(b))


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


def invariant_elements(seq: WeightSequence, cap: int = DEFAULT_NODE_CAP) -> tuple[TensorCrystalElement, ...]:
    """All highest-weight elements of weight zero, sorted by factors.

    Depth-first, factor by factor, on an explicit stack that pops factors
    in increasing order, as the moves are stored reversed.  Every prefix of
    a highest-weight element is highest weight, so a branch is cut as soon
    as a factor leaves a '-' that no earlier '+' cancels; as minuscule
    factors pair with each simple coroot in {-1, 0, 1}, the unmatched '+'
    count at alpha_i is the i-th coordinate of the running weight, so the
    cut keeps that weight dominant.  Partial weights are bounded through
    the positive-coroot sum by ``paths._budget``, as in ``enumerate_paths``,
    the last factor is forced to whatever cancels the running total.  So
    every candidate has dominant prefixes and closes at zero, hence is
    highest weight; each is still checked with ``is_highest_weight``, and
    a failure is an ``AlgorithmInvariantViolated``.  Every node popped
    counts toward ``cap``.

    Each weight's factors and their pairings are the ``moves`` of its path
    tables, and the running total closes exactly when it lies in the last
    weight's ``shift_id``, the orbit of minus that weight.  The search
    never reads ``succ``, so its count stays independent of the path
    enumeration that the battery compares it with.
    """
    rs = seq.rs
    m = len(seq)
    budget = _budget(seq)
    moves = [_path_tables(rs, lam).moves for lam in seq.weights]
    closing = _path_tables(rs, seq.weights[-1]).shift_id

    visited = 0
    out = []
    # prefix holds the factors b_1..b_k while the node (k, partial) is expanded
    prefix: list[Weight] = []
    stack = [(0, rs.zero(), 0, None)]
    while stack:
        k, partial, height, factor = stack.pop()
        visited += 1
        if visited > cap:
            raise EnumerationTooLarge(f"crystal search exceeded {cap} nodes")
        if height > budget[k]:
            continue
        if k:
            prefix[k - 1:] = [factor]
        if k == m - 1:
            if partial in closing:
                last = _sub(rs.zero(), partial)
                candidate = TensorCrystalElement._trusted(seq, tuple(prefix) + (last,))
                if not is_highest_weight(candidate):
                    raise AlgorithmInvariantViolated(
                        f"search candidate {candidate.factors} is not highest weight")
                out.append(candidate)
            continue
        for f, rise in moves[k]:
            nxt = _add(partial, f)
            if min(nxt) >= 0:
                stack.append((k + 1, nxt, height + rise, f))
    return tuple(out)


def _to_highest(t: _IdTables, ids: list, known) -> list:
    """Raise ``ids`` in place toward the top of its connected component and
    return the steps taken, in order, each as ``(i, state)``: the index i
    of the e_i applied and the state (tuple of ids) it was applied to.

    Each step is a single e_i at the smallest index with eps_i > 0, which
    one pass over the factors finds together with that index's rightmost
    surviving '-'.  The ascent stops at a top, or at the first state in
    ``known``, a map keyed on states, before scanning it.
    """
    record: list = []
    refl = t.refl
    while True:
        state = tuple(ids)
        if state in known:
            return record
        _, last = _unmatched(t, ids)
        for j, k in enumerate(last):
            if k >= 0:
                break
        else:
            return record
        record.append((j + 1, state))
        ids[k] = refl[j][ids[k]]


def _to_lowest(t: _IdTables, ids: list):
    """Move the highest-weight ``ids`` in place to the lowest-weight
    element of its component: Kashiwara's S_i along a reduced word of w0.
    As w0 is an involution, the word's letters may be applied in either
    order."""
    for i in t.w0:
        _reflect(t, ids, i)


def schutzenberger_all(elements) -> list[TensorCrystalElement]:
    """The involution swapping highest and lowest weight elements, applied
    to each of ``elements`` in order.

    Raise an element to the top of its component recording indices
    i_1..i_k in application order, move to the component's bottom by
    Kashiwara's S_i along a reduced word of w0, then replay the record
    backwards, one raising operator e_{i*} at the dual index per entry.
    The ascent takes one e_i per step, at the smallest index i with
    eps_i > 0.  The result does not depend on that route, which the
    battery checks as the local rule xi(b) = e_{i*} xi(e_i b).

    Every element of a component rises to the same top, and the descent
    from that top depends on nothing else.  The ascent is fixed as well:
    its record from b is i followed by its record from e_i b.
    ``images`` maps each state met in this call to its image and is
    dropped when the call returns.  The ascent stops at the first state
    already in it, or at a top, which is descended once; the replay walks
    the trail back down one e_{i*} at a time and files the image of every
    state on it, so a new element costs one ascent step and a repeat
    costs none.

    The work happens on factor ids: each element is encoded once on the
    way in and its image decoded once on the way out.  The input was
    validated when it was built, and every step maps ids inside their
    orbits, so nothing is re-checked.
    """
    images: dict = {}  # tables -> {state: image state}
    out = []
    for b in elements:
        t, ids = _encode(b)
        known = images.setdefault(t, {})
        steps = _to_highest(t, ids, known)
        end = tuple(ids)
        image = known.get(end)
        if image is None:  # a top not met before
            _to_lowest(t, ids)
            image = known[end] = tuple(ids)
        ids = list(image)
        dual = t.dual
        for i, state in reversed(steps):
            j = dual[i - 1]
            minus, _ = _signature(t, ids, j)
            if not minus:  # would signal a bug
                raise AlgorithmInvariantViolated("replay of the raising record left the crystal")
            _flip(t, ids, j, minus[-1:])
            known[state] = tuple(ids)
        out.append(_decode(b.seq, t, ids))
    return out


def schutzenberger(b: TensorCrystalElement) -> TensorCrystalElement:
    """The involution on one element, ``schutzenberger_all((b,))[0]``.

    To map many elements, call ``schutzenberger_all`` once: it runs one
    descent per component and one ascent step per element."""
    return schutzenberger_all((b,))[0]


def commutor_rotate(b: TensorCrystalElement) -> TensorCrystalElement:
    """Send b_1 (x) c to xi(c) (x) xi(b_1), staying inside invariants.

    This is the Henriques-Kamnitzer commutor, and on an invariant both
    halves are known without running Schutzenberger.  Let b = b_1 (x) c be
    highest weight of weight zero.  Its one-factor prefix b_1 is highest
    weight, so dominant, so b_1 = lambda_1.  The eps_i(c) signs '-' that
    survive inside c must each cancel a '+' of b_1, so eps_i(c) <=
    <lambda_1, alpha_i_vee>; with wt(c) = -lambda_1 that gives
    phi_i(c) = eps_i(c) - <lambda_1, alpha_i_vee> <= 0 for every i: c is
    the lowest-weight element of its component.
    Then xi(c) is the top of that component, which one ascent
    reaches, and xi(b_1) = w0.lambda_1, one lookup in ``w0_image``.  The
    descent by S_i and the replay of the general involution never run.

    Both parts are factors of one sequence, so one encoding serves both.
    The input must be invariant and the output is checked to be."""
    t, ids = _encode(b)
    if not _is_invariant(t, ids):
        raise NotInvariant("commutor rotation is defined on invariant elements only")
    out = ids[1:]
    _to_highest(t, out, {})
    out.append(t.w0_image[ids[0]])
    if not _is_invariant(t, out):  # pragma: no cover - would signal a bug
        raise AlgorithmInvariantViolated("rotated element is no longer invariant")
    return _decode(b.seq.rotated(1), t, out)


def path_bijection(p: LittelmannPath) -> TensorCrystalElement:
    """Successive differences of a dominant path, as a tensor element.

    A path's steps were checked against their orbits when it was built."""
    prev = p.seq.rs.zero()
    factors = []
    for point in p.points:
        factors.append(_sub(point, prev))
        prev = point
    return TensorCrystalElement._trusted(p.seq, tuple(factors))
