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

The dual D(b_1 (x) ... (x) b_m) = (-b_m) (x) ... (x) (-b_1) swaps e_i
and f_i (``_dual``), so it swaps the tops and the bottoms of components,
and one walk, the ascent, finds both: the bottom of the component of a
top h is D(top(D(h))).

The Schutzenberger involution xi is fixed one component at a time: every
element of a component rises to the same top, and the descent from that
top depends on nothing else.  ``schutzenberger_all`` keeps a map from
elements to images that lives only for the call: it descends once per
top met and stops each ascent at the first element already mapped.
``schutzenberger`` is its one-element case.

The commutor b_1 (x) c -> xi(c) (x) xi(b_1) needs none of that on an
invariant.  There b_1 = lambda_1 = omega_i and c is the bottom of a copy
of the minuscule crystal B(omega_{i*}) (see ``commutor_rotate``), where
e_j applies exactly where the weight pairs to -1 with alpha_j_vee.  So
xi(c), the top of that copy, is reached along the word that straightens
-omega_i, one e_j per letter and no index search, and xi(b_1) =
w0.lambda_1 is -omega_{i*}.  ``schutzenberger_all`` stays the general
algorithm.

Every kernel works on the factor weights themselves.  ``w[i-1]`` is the
pairing of a factor with alpha_i_vee, so one pass over the factors reads
an i-string off the weights (``_string``), and every kernel reads its
signs that way: ``crystal_op``, ``epsilon`` and ``phi``, the replay,
and the search for the smallest index that can still raise
(``_unmatched``), which from the first index is the highest-weight
test (``is_highest_weight``).  A factor that e_i or f_i moves changes
by +-alpha_i, column i of the Cartan matrix; the ascent restarts its
search at the Dynkin neighbours of i, the replay and the commutor read
the dual indices i*, and the commutor walks the straightening word of
-lambda_1.  All four are fields of the root system (``simple_roots``,
``columns``, ``duals``, ``dual_words``), and no orbit is enumerated to
run a kernel.  The ascent to a component's top takes one
e_i per step, at the smallest index that can still raise
(``_to_highest``).  That xi does not depend on this choice is the local
rule xi(b) = e_{i*} xi(e_i b) at every i with e_i b nonzero, which the
battery checks with the public operators.

The invariants are not searched for here.  A tensor element is highest
weight exactly when its partial sums, the points of its path, stay
dominant, so the invariants are the images under ``path_bijection`` of
the closed dominant paths that ``paths.enumerate_paths`` lists, and
``invariant_elements`` adds only the signature-rule check of each image.
The images need no sort: paths come in lexicographic order of points,
and two paths whose points first differ at k share point k - 1, so
their steps first differ at k too and compare there as the points do.

Validation happens once, where data enters: the public
``TensorCrystalElement`` constructor checks that it gets a list of
``int`` weights, one per factor, each in the cached ``weyl_orbit`` of its
type, and fills the element once they pass; no path memo is built or
read.  Operators, strings, the ascent and the commutor
only ever reflect factors that are already in their orbits, and a path's
steps were checked when it was built, so they and ``path_bijection``
build their results with the unchecked ``TensorCrystalElement._trusted``.
"""
from __future__ import annotations

import itertools
import operator

from .errors import AlgorithmInvariantViolated, InvalidIndex, InvalidPath, NotInvariant
from .paths import DEFAULT_PATH_CAP, LittelmannPath, WeightSequence, enumerate_paths
from .paths import _add, _int_lists, _steps
from .records import FrozenRecord
from .rootsys import Weight, _check_index, weyl_orbit


class TensorCrystalElement(FrozenRecord):
    """An element b_1 (x) ... (x) b_m, one orbit weight per tensor factor."""

    __slots__ = ("seq", "factors")

    def __init__(self, seq: WeightSequence, factors: tuple[Weight, ...]):
        if not _int_lists(factors):
            raise InvalidPath(f"factors must be a list of int weights, not {factors!r}")
        factors = tuple(map(tuple, factors))
        if len(factors) != len(seq):
            raise InvalidPath("factor count does not match the type sequence")
        for f, lam in zip(factors, seq.weights):
            if f not in weyl_orbit(seq.rs, lam):
                raise InvalidPath(f"factor {f} is not in the orbit of {lam}")
        self._fill(seq, factors)

    @classmethod
    def _trusted(cls, seq: WeightSequence, factors: tuple[Weight, ...]):
        """Build without checks: ``factors`` is a tuple of weight tuples, one
        per entry of ``seq``, each already in the orbit of its type."""
        b = object.__new__(cls)
        _set_seq(b, seq)
        _set_factors(b, factors)
        return b

    def to_json_dict(self):
        return {"factors": [list(f) for f in self.factors]}


_set_seq, _set_factors = TensorCrystalElement._setters


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


def _unmatched(factors, start=0):
    """The first index that can still raise: the smallest 0-based j >=
    ``start`` with eps > 0 and the position of its rightmost surviving
    '-', or ``None`` if there is none, which from 0 means a top."""
    for j in range(start, len(factors[0])):
        k = _string(factors, j)[2]
        if k >= 0:
            return j, k
    return None


def _is_invariant(factors) -> bool:
    # highest weight (every eps is 0) and weight zero, so every phi is 0
    return _unmatched(factors) is None and not any(map(sum, zip(*factors)))


def _flip(factors: list, j: int, k: int, roots, moves: dict):
    """Reflect factor k at alpha_(j+1), in place: it pairs to +-1 with the
    coroot, so it moves by -+alpha_(j+1), column j of ``roots``.  ``moves``
    maps (j, factor) to the moved factor over the root system of
    ``roots``, so each move is computed once per call and the states a
    call keeps share their factors."""
    f = factors[k]
    # the memo saves 3-16% of a `battery` pass (BENCH_40.json)
    moved = moves.get((j, f))
    if moved is None:
        move = operator.sub if f[j] == 1 else operator.add
        moved = moves[j, f] = tuple(map(move, f, roots[j]))
    factors[k] = moved


def _dual(factors) -> list:
    """D(b_1 (x) ... (x) b_m) = (-b_m) (x) ... (x) (-b_1), an element of the
    crystal of (lambda_m*, ..., lambda_1*).  Reversing the factors and
    negating each one turns each '+' into a '-' and keeps every cancelling
    "+-" pair, so D(e_i b) = f_i D(b): D swaps e_i and f_i, and tops and
    bottoms, and is its own inverse."""
    return [tuple(map(operator.neg, f)) for f in reversed(factors)]


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
    moved = tuple(map(move, factors[k], seq.rs.simple_roots[i - 1]))
    return TensorCrystalElement._trusted(seq, (*factors[:k], moved, *factors[k + 1:]))


def epsilon(i: int, b: TensorCrystalElement) -> int:
    _check_index(b.seq.rs, i)
    return _string(b.factors, i - 1)[0]


def phi(i: int, b: TensorCrystalElement) -> int:
    _check_index(b.seq.rs, i)
    return _string(b.factors, i - 1)[1]


def is_highest_weight(b: TensorCrystalElement) -> bool:
    return _unmatched(b.factors) is None


def is_invariant(b: TensorCrystalElement) -> bool:
    return _is_invariant(b.factors)


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


def invariant_elements(seq: WeightSequence, cap: int = DEFAULT_PATH_CAP) -> tuple[TensorCrystalElement, ...]:
    """All highest-weight elements of weight zero, sorted by factors: the
    ``path_bijection`` images of ``enumerate_paths(seq, cap)``, so ``cap``
    counts the invariants found, as it counts paths there.  Each image is
    checked with ``is_highest_weight``, the signature rule, and a failure
    is an ``AlgorithmInvariantViolated``.  The images keep the paths'
    order, which is already the order of factors (see the module docstring)."""
    out = []
    for p in enumerate_paths(seq, cap):
        b = path_bijection(p)
        if not is_highest_weight(b):
            raise AlgorithmInvariantViolated(f"path image {b.factors} is not highest weight")
        out.append(b)
    return tuple(out)


def _to_highest(rs, factors: list, known, moves: dict) -> list:
    """Raise ``factors`` in place toward the top of its connected component.

    Each step is a single e_i at the smallest index with eps_i > 0, which
    one scan (``_unmatched``) finds together with that index's rightmost
    surviving '-'.  An e_j changes the strings at j and at its Dynkin
    neighbours (``rs.columns[j]``) only, and every index below j had
    eps = 0, so the next scan starts at the smallest of these.

    The ascent stops at a top or at the first state in ``known``, a map
    keyed on states, before scanning it, and returns the steps taken, in
    order, each as ``(i, state)``: the index i of the e_i applied and the
    state (tuple of factors) it was applied to.
    """
    roots, columns = rs.simple_roots, rs.columns
    record: list = []
    start = 0
    while True:
        state = tuple(factors)
        if state in known:
            return record
        found = _unmatched(factors, start)
        if found is None:
            return record
        j, k = found
        record.append((j + 1, state))
        _flip(factors, j, k, roots, moves)
        # restarting at the neighbours saves 1-4% of `battery` (BENCH_40.json)
        start = min(j, columns[j][0][0]) if columns[j] else j


def _to_lowest(rs, factors, moves: dict) -> tuple:
    """The lowest-weight element of the component of the top ``factors``,
    as D(top(D(h))).  D(h) has every phi_i = 0, as h has every eps_i = 0,
    so it is the bottom of its own component; one ascent takes it to
    that component's top, which D maps back to the bottom of h's."""
    dual = _dual(factors)
    _to_highest(rs, dual, {}, moves)
    return tuple(_dual(dual))


def schutzenberger_all(elements) -> list[TensorCrystalElement]:
    """The involution swapping highest and lowest weight elements, applied
    to each of ``elements`` in order.

    Raise an element to the top of its component recording indices
    i_1..i_k in application order, move to the component's bottom as
    the dual of the ascent (``_to_lowest``), then replay the record
    backwards, one raising operator e_{i*} at the dual index per entry.
    The ascent takes one e_i per step, at the smallest index i with
    eps_i > 0.  The result does not depend on that route, which the
    battery checks as the local rule xi(b) = e_{i*} xi(e_i b).

    Every element of a component rises to the same top, and the descent
    from that top depends on nothing else.  The ascent is fixed as well:
    its record from b is i followed by its record from e_i b.
    ``known`` maps each state met in this call to its image, and
    ``moves`` each factor moved to its image (see ``_flip``); both are
    kept per root system, as A3 and C3 share weight tuples, and dropped
    when the call returns.  The ascent stops at the first state already
    known, or at a top, which is descended once; the replay walks the
    trail back down one e_{i*} at a time and files the image of every
    state on it, so a new element costs one ascent step and a repeat
    costs none.

    The input was validated when it was built, and every step moves a
    factor inside its orbit, so nothing is re-checked.
    """
    # root system -> ({state: image state}, {(j, factor): moved factor})
    maps: dict = {}
    out = []
    for b in elements:
        rs = b.seq.rs
        roots = rs.simple_roots
        factors = list(b.factors)
        known, moves = maps.setdefault(rs, ({}, {}))
        steps = _to_highest(rs, factors, known, moves)
        end = tuple(factors)
        image = known.get(end)
        if image is None:  # a top not met before
            image = known[end] = _to_lowest(rs, factors, moves)
        factors = list(image)
        for i, state in reversed(steps):
            j = rs.duals[i - 1] - 1
            k = _string(factors, j)[2]
            if k < 0:  # would signal a bug
                raise AlgorithmInvariantViolated("replay of the raising record left the crystal")
            _flip(factors, j, k, roots, moves)
            known[state] = tuple(factors)
        out.append(TensorCrystalElement._trusted(b.seq, tuple(factors)))
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
    weight, so dominant, so b_1 = lambda_1 = omega_i.  The eps_j(c) signs
    '-' that survive inside c must each cancel a '+' of b_1, so eps_j(c)
    <= <lambda_1, alpha_j_vee>; with wt(c) = -lambda_1 that gives
    phi_j(c) = eps_j(c) - <lambda_1, alpha_j_vee> <= 0 for every j: c is
    the lowest-weight element of its component, which has lowest weight
    -omega_i and so is a copy of the minuscule crystal B(omega_{i*}).
    There an element of weight mu has eps_j = max(0, -<mu, alpha_j_vee>)
    and e_j adds alpha_j, so the ascent from c to the top xi(c) is the
    word that straightens -omega_i to omega_{i*} (``rs.dual_words``),
    fixed by the root system: each letter j is one e_j, at the rightmost
    surviving '-' of the j-string.  And xi(b_1) = w0.omega_i = -omega_{i*}.
    The descent and the replay of the general involution never run.

    The input is scanned for invariance only when this route fails.  A
    first factor other than lambda_1 is refused at once.  Otherwise the
    word is walked, and if every letter finds a '-' and the result out =
    c' (x) (-omega_{i*}) is invariant, it is returned; and then b was
    invariant.  For c' is a highest-weight prefix of weight omega_{i*},
    the top of a copy of B(omega_{i*}); undoing the word, c = f...f c' is
    in that copy with weight -omega_i, so it is its bottom, with eps_j(c)
    = delta_ij and phi_j(c) = 0.  So eps_j(omega_i (x) c) = max(0,
    delta_ij - delta_ij) = 0 for every j, and b has weight zero.  When the
    route fails, the full scan of b tells a non-invariant input
    (``NotInvariant``) from a bug (``AlgorithmInvariantViolated``)."""
    seq = b.seq
    rs = seq.rs
    factors = b.factors
    lam = seq.weights[0]
    if factors[0] == lam:
        i = lam.index(1)  # lambda_1 = omega_(i+1)
        roots = rs.simple_roots
        out = list(factors[1:])
        for j in rs.dual_words[i]:
            k = _string(out, j - 1)[2]
            if k < 0:
                break
            out[k] = _add(out[k], roots[j - 1])
        else:
            xi = [0] * rs.rank  # xi(b_1) = -omega_{i*}
            xi[rs.duals[i] - 1] = -1
            out.append(tuple(xi))
            if _is_invariant(out):
                return TensorCrystalElement._trusted(seq.rotated(1), tuple(out))
        if _is_invariant(factors):  # would signal a bug
            raise AlgorithmInvariantViolated("rotated element is no longer invariant")
    raise NotInvariant("commutor rotation is defined on invariant elements only")


def path_bijection(p: LittelmannPath) -> TensorCrystalElement:
    """Successive differences of a dominant path, as a tensor element.

    A path's steps were checked against their orbits when it was built."""
    return TensorCrystalElement._trusted(p.seq, _steps(p.points))
