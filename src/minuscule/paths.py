"""Dominant lattice paths with minuscule steps, and their rotation.

A path is stored as its list of points (the origin is implicit), because
rotation manipulates points, not steps.

Validation happens once, where data enters: the public ``LittelmannPath``
constructor checks the shape of the input (a list of points of exactly
``rank`` int coordinates), that every step stays in its orbit, that every
point is dominant and that the path returns to the origin.  Enumeration
and rotation produce paths that are correct by construction, so they
build them with the unchecked ``_trusted``; rotation still checks its
output exactly once, and a failure there is an
``AlgorithmInvariantViolated``.

Enumeration and rotation visit the same few thousand dominant points
over and over, so each (root system, minuscule weight lambda) has one
``_PathTables`` (built by the ``lru_cache``d ``_tables`` on first use,
nothing at import) holding two memos, each filled on a miss by the
exact computation it replaces:

* ``succ``: a dominant point -> {each dominant point one step in
  W.lambda away: that step's pairing with 2 rho_vee}, in the order the
  enumeration stack pops them.  Enumeration expands a point through it,
  and rotation checks each output step against it: a step of lambda
  onto a dominant point is exactly a key of ``succ[prev]``;
* ``carry``: (dominant point beta, shift id s) -> (the point beta + s
  straightened, the shift carried on), where shift ids index the orbit
  of -lambda.  By the stabilizer lemma the straightening word of
  beta + s fixes beta, so the carried shift stays in that orbit and
  rotation is a walk on finitely many (point, shift) pairs.

The public ``LittelmannPath`` constructor neither reads nor fills these
memos: data from outside is tested step by step against its orbit, never
taken on a memo's word, and validating user paths does not grow the
process.

Rotation works on a whole set of paths of one type: ``rotate_all(paths,
k)`` returns every path's k-fold rotation in one call, ``rotate`` is its
one-path case and ``orbit_structure`` makes one call on its enumeration.
Output point i of a rotation depends only on input points 0..i+1, so
the call keeps, per level and only while it runs, the previous path's
output points and carried shift ids.  A path whose input agrees with
the previous one on its first L points restarts each level at point
max(L - 1, 0), and that level's output then agrees on the points before
the restart, which is the L of the next level.  Sorted paths, as
``enumerate_paths`` returns them, share long prefixes.  Every point a
level computes is checked, and so is the step that closes the path.
"""
from __future__ import annotations

import functools
import operator

from .errors import (
    AlgorithmInvariantViolated,
    EnumerationTooLarge,
    InvalidPath,
    InvalidSequence,
    SequenceNotPeriodic,
)
from .records import FrozenRecord
from .rootsys import (
    RootSystem,
    Weight,
    apply_word,
    in_root_lattice,
    minuscule_weights,
    to_dominant,
    two_rho_pairing,
    weyl_orbit,
)

DEFAULT_PATH_CAP = 100_000


def _add(a, b):
    return tuple(map(operator.add, a, b))


def _sub(a, b):
    return tuple(map(operator.sub, a, b))


def _int_lists(data) -> bool:
    """Whether outside data is a list of lists of ``int`` (not ``bool``), the
    form of a path's points, a tableau's rows and a crystal element's factors."""
    return isinstance(data, (list, tuple)) and all(
        isinstance(row, (list, tuple)) and all(type(x) is int for x in row) for row in data)


@functools.lru_cache(maxsize=None)
def _orbit_set(rs, lam):
    return frozenset(weyl_orbit(rs, lam))


class _PathTables:
    """Lazily filled path memos of one minuscule weight ``lam`` over ``rs``.

    ``moves`` is the steps of W.lam with their pairings, reversed so they
    pop from a stack in sorted order.  ``shifts`` is the sorted orbit of
    -lam and ``shift_id`` its index.  ``succ`` and ``carry`` (one dict per
    shift id, keyed on the point) are the memos of the module docstring.
    """

    __slots__ = ("rs", "lam", "moves", "shifts", "shift_id", "succ", "carry")

    def __init__(self, rs, lam):
        self.rs = rs
        self.lam = lam
        orbit = weyl_orbit(rs, lam)
        self.moves = tuple((step, two_rho_pairing(rs, step)) for step in reversed(orbit))
        self.shifts = tuple(sorted(tuple(-x for x in step) for step in orbit))
        self.shift_id = {s: k for k, s in enumerate(self.shifts)}
        self.succ: dict[Weight, dict[Weight, int]] = {}
        self.carry: tuple[dict[Weight, tuple[Weight, int]], ...] = tuple(
            {} for _ in self.shifts)

    def successors(self, point):
        """The dominant points one step from ``point``, each with its step's
        pairing, in stack-pop order."""
        nexts = {}
        for step, rise in self.moves:
            nxt = _add(point, step)
            if min(nxt) >= 0:
                nexts[nxt] = rise
        hit = self.succ[point] = nexts
        return hit

    def carried(self, beta, s):
        """``beta`` plus shift ``s``, straightened by one sweep step, and
        the id of the shift carried on from it."""
        shift = self.shifts[s]
        q = _add(beta, shift)
        if min(q) < 0:
            q = to_dominant(self.rs, q)[0]
            nxt = self.shift_id.get(_sub(q, beta))
            if nxt is None:
                raise AlgorithmInvariantViolated(
                    f"straightening {beta} + {shift} carried the shift {_sub(q, beta)} "
                    f"out of the orbit of -{self.lam}")
        else:
            nxt = s
        hit = self.carry[s][beta] = (q, nxt)
        return hit


@functools.lru_cache(maxsize=None)
def _tables(rs, lam) -> _PathTables:
    """The path memos of ``rs`` and the minuscule weight ``lam``, built once."""
    return _PathTables(rs, lam)


class WeightSequence(FrozenRecord):
    """A sequence of dominant minuscule weights over a fixed root system."""

    __slots__ = ("rs", "weights")

    def __init__(self, rs: RootSystem, weights: tuple[Weight, ...]):
        self._fill(rs, weights)
        self._validate()

    def _validate(self):
        if not _int_lists(self.weights):
            raise InvalidSequence(f"weights must be a list of int weights, not {self.weights!r}")
        if len(self.weights) < 1:
            raise InvalidSequence("weight sequence must be non-empty")
        allowed = set(minuscule_weights(self.rs))
        for w in self.weights:
            if tuple(w) not in allowed:
                raise InvalidSequence(f"{w} is not a dominant minuscule weight of {self.rs}")
        object.__setattr__(self, "weights", tuple(tuple(w) for w in self.weights))

    @classmethod
    def _trusted(cls, rs: RootSystem, weights: tuple[Weight, ...]):
        """Build without checks: ``weights`` is a non-empty tuple of weight
        tuples, each a dominant minuscule weight of ``rs``."""
        seq = object.__new__(cls)
        object.__setattr__(seq, "rs", rs)
        object.__setattr__(seq, "weights", weights)
        return seq

    def __len__(self):
        return len(self.weights)

    def rotated(self, j: int = 1) -> "WeightSequence":
        j %= len(self.weights)
        return WeightSequence._trusted(self.rs, self.weights[j:] + self.weights[:j])

    def total(self) -> Weight:
        total = self.rs.zero()
        for w in self.weights:
            total = _add(total, w)
        return total


class LittelmannPath(FrozenRecord):
    """Points gamma_1..gamma_m of a dominant path returning to the origin;
    the step into each must stay in its orbit.

    Every step is tested against its orbit; no memo is consulted."""

    __slots__ = ("seq", "points")

    def __init__(self, seq: WeightSequence, points: tuple[Weight, ...]):
        self._fill(seq, points)
        self._validate()

    def _validate(self):
        rank = self.seq.rs.rank
        if not _int_lists(self.points) or any(len(p) != rank for p in self.points):
            raise InvalidPath(f"points must be a list of points of {rank} int coordinates, "
                              f"got {self.points!r}")
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))
        if len(self.points) != len(self.seq):
            raise InvalidPath("point count does not match the type sequence")
        rs = self.seq.rs
        prev = rs.zero()
        for point, lam in zip(self.points, self.seq.weights):
            if _sub(point, prev) not in _orbit_set(rs, lam):
                raise InvalidPath(f"step into {point} leaves the orbit of {lam}")
            prev = point
        if min(map(min, self.points)) < 0:
            raise InvalidPath("all points of the path must be dominant")
        if any(self.points[-1]):
            raise InvalidPath("the path must end at the origin")

    @classmethod
    def _trusted(cls, seq: WeightSequence, points: tuple[Weight, ...]):
        """Build without checks: ``points`` is a tuple of int tuples, one per
        entry of ``seq``, every step in its orbit, dominant throughout and
        back at the origin."""
        p = object.__new__(cls)
        object.__setattr__(p, "seq", seq)
        object.__setattr__(p, "points", points)
        return p

    def __len__(self):
        return len(self.points)

    def to_json_dict(self):
        return {
            "type": [list(w) for w in self.seq.weights],
            "points": [list(p) for p in self.points],
        }


def _budget(seq: WeightSequence) -> list[int]:
    """``budget[k]``: the sum of <lambda_j, 2 rho_vee> over the steps after
    the k-th, the most that they can lower a point's pairing with 2 rho_vee."""
    budget = [0] * (len(seq) + 1)
    for k in range(len(seq) - 1, -1, -1):
        budget[k] = budget[k + 1] + two_rho_pairing(seq.rs, seq.weights[k])
    return budget


def enumerate_paths(seq: WeightSequence, cap: int = DEFAULT_PATH_CAP) -> tuple[LittelmannPath, ...]:
    """All dominant paths of the given type from the origin back to itself.

    Depth-first search in sorted step order: the moves are stored in
    reverse sorted order, so the stack pops each point's children in
    increasing order and the paths come out, unsorted, in lexicographic
    order of their concatenated coordinates.  A branch dies
    when the pairing of the current point with the positive-coroot sum
    exceeds what the remaining steps can cancel; that potential drops by
    at most <lambda_j, 2 rho_vee> per step, in every type.  The search
    keeps an explicit stack, so its depth is not bounded by recursion.

    The dominant children of a point, with their pairings, come from the
    ``succ`` memo of the step's weight, filled once per (weight, point);
    the last step closes the path exactly when the point lies in the
    orbit of minus the last weight, its ``shift_id`` index.

    A closed path exists only if the total weight lies in the root
    lattice; otherwise the answer is empty and no search is made, since
    the cap counts found paths and would never stop it.  A ``cap`` that
    is not an ``int`` of at least 1 is refused before any search.
    """
    if type(cap) is not int or cap < 1:
        raise ValueError(f"cap must be an int of at least 1, got {cap!r}")
    rs = seq.rs
    if not in_root_lattice(rs, seq.total()):
        return ()
    m = len(seq)
    zero = rs.zero()
    budget = _budget(seq)
    tables = [_tables(rs, lam) for lam in seq.weights]
    # -point is in W.lambda_m exactly when point is in W.(-lambda_m)
    closing = tables[-1].shift_id

    found: list[tuple[Weight, ...]] = []
    # prefix holds gamma_1..gamma_k while the node (k, gamma_k) is expanded
    prefix: list[Weight] = []
    stack = [(0, zero, 0)]
    while stack:
        k, point, height = stack.pop()
        if k:
            prefix[k - 1:] = [point]
        if k == m - 1:
            # final step forced: it must land exactly on the origin
            if point in closing:
                found.append(tuple(prefix) + (zero,))
                if len(found) > cap:
                    raise EnumerationTooLarge(f"more than {cap} paths of {m} steps over {rs}")
            continue
        t = tables[k]
        nexts = t.succ.get(point)
        if nexts is None:
            nexts = t.successors(point)
        room = budget[k + 1] - height
        for nxt, rise in nexts.items():
            if rise <= room:
                stack.append((k + 1, nxt, height + rise))
    return tuple(LittelmannPath._trusted(seq, pts) for pts in found)


def rotate_all(paths, k: int = 1) -> list[LittelmannPath]:
    """The k-fold rotation of each of ``paths``, all of one type, in order.

    Rotation drops the first step mu_1, translates the rest back to the
    origin, straightens it and closes the loop.  Straightening shifts the
    whole tail from its first non-dominant point q by to_dominant(q) - q,
    and that index strictly increases, so it is one left-to-right sweep
    that carries a shift, starting at -mu_1, and adds to_dominant(q) - q
    at each point q that is still non-dominant.  By the stabilizer lemma
    the straightening word of beta + shift fixes the dominant point beta,
    so every carried shift stays in the orbit of -lambda_1.  Each output
    point is then one lookup in the ``carry`` memo of lambda_1, keyed on
    (input point, shift id).

    Each of the k levels keeps the previous path's output points and the
    shift id used at each (``flat``, ``kept``).  When a path's input agrees
    with the previous one on its first L points, the level restarts at
    point L-1 with the kept shift, or at point 0 with the shift -mu_1 when
    L is 0; as output point i depends only on input points 0..i+1, the
    output points before the restart are the previous path's, and the
    restart point is the L of the next level.  Every point the level
    computes is checked by ``_check_step``: its step from the output point
    before it must be a key of that point's ``succ`` entry, that is, a
    step of its weight onto a dominant point.  The step into the origin,
    which closes the path, is checked the same way.  A failure is an
    ``AlgorithmInvariantViolated`` that names the input path.
    """
    if type(k) is not int or k < 0:
        raise ValueError(f"the number of rotations must be an int of at least 0, got {k!r}")
    paths = tuple(paths)
    if not paths or not k:
        return list(paths)
    seq = paths[0].seq
    rs = seq.rs
    weights = seq.weights
    m = len(weights)
    zero = rs.zero()
    tables = {lam: _tables(rs, lam) for lam in set(weights)}
    levels = []
    for j in range(k):
        t = tables[weights[j % m]]
        r = (j + 1) % m
        checks = [tables[lam] for lam in weights[r:] + weights[:r]]
        levels.append((t.carry, t.carried, t.shift_id, checks, [zero] * m, [0] * m))
    target = seq.rotated(k)
    out = []
    prev = None
    try:
        for p in paths:
            if p.seq is not seq and p.seq != seq:
                raise InvalidPath(f"rotate_all takes paths of one type, got {p.seq.weights} "
                                  f"after {seq.weights}")
            pts = p.points
            # how many leading input points agree with the previous input
            agree = 0
            if prev is not None:
                while agree < m and pts[agree] == prev[agree]:
                    agree += 1
            prev = pts
            for level, (carry, carried, shift_id, checks, flat, kept) in enumerate(levels):
                if agree:
                    start = agree - 1
                    s = kept[start]
                else:
                    start = 0
                    s = shift_id[_sub(zero, pts[0])]
                for i in range(start, m - 1):
                    beta = pts[i + 1]
                    kept[i] = s
                    q, s = carry[s].get(beta) or carried(beta, s)
                    _check_step(checks[i], flat[i - 1] if i else zero, q)
                    flat[i] = q
                _check_step(checks[m - 1], flat[m - 2] if m > 1 else zero, zero)
                pts = flat
                # output points before start are the previous path's
                agree = start
            out.append(LittelmannPath._trusted(target, tuple(pts)))
    except AlgorithmInvariantViolated as exc:
        raise AlgorithmInvariantViolated(
            f"rotation of {p.points} (step {level + 1} of {k}): {exc}") from None
    return out


def _check_step(t: _PathTables, prev, point):
    """Pass when ``point`` is dominant and one step of ``t.lam`` from the
    dominant point ``prev``: a key of ``t.succ[prev]``."""
    if point not in (t.succ.get(prev) or t.successors(prev)):
        raise AlgorithmInvariantViolated(
            f"step from {prev} into {point} is not a step of {t.lam} onto a dominant point")


def rotate(p: LittelmannPath) -> LittelmannPath:
    """The rotation bijection onto the paths of the once-rotated type: the
    one-path case of ``rotate_all``."""
    return rotate_all((p,), 1)[0]


class OrbitStructure(FrozenRecord):
    __slots__ = ("seq", "ell", "r", "orbits", "fixed_counts")

    def __init__(self, seq: WeightSequence, ell: int, r: int,
                 orbits: tuple[tuple[LittelmannPath, ...], ...], fixed_counts: tuple[int, ...]):
        self._fill(seq, ell, r, orbits, fixed_counts)

    def to_json_dict(self):
        return {
            "ell": self.ell,
            "r": self.r,
            "fixed_counts": list(self.fixed_counts),
            "orbits": [[[list(q) for q in p.points] for p in orbit] for orbit in self.orbits],
        }


def periods(seq: WeightSequence) -> tuple[int, ...]:
    """Every ell that divides m and fixes the weights under rotation by ell."""
    m, w = len(seq), seq.weights
    return tuple(ell for ell in range(1, m + 1) if m % ell == 0 and w[ell:] + w[:ell] == w)


def orbit_structure(seq: WeightSequence, ell: int) -> OrbitStructure:
    """Orbits of the ell-fold rotation and fixed-point counts of its powers;
    ``ell`` must be one of ``periods(seq)``, an ``int`` (not ``bool``)."""
    if type(ell) is not int or ell not in periods(seq):
        raise SequenceNotPeriodic(f"ell={ell!r} is not a period; the periods are {periods(seq)}")
    r = len(seq) // ell
    paths = enumerate_paths(seq)
    index = {p.points: i for i, p in enumerate(paths)}
    perm = [index[q.points] for q in rotate_all(paths, ell)]

    orbits = []
    seen = set()
    for i in range(len(paths)):
        if i in seen:
            continue
        cycle = []
        j = i
        while j not in seen:
            seen.add(j)
            cycle.append(paths[j])
            j = perm[j]
        orbits.append(tuple(cycle))

    # a path on an orbit of length L is fixed by the d-th power iff L | d
    lengths = [len(cycle) for cycle in orbits]
    fixed_counts = tuple(sum(n for n in lengths if d % n == 0) for d in range(r))
    return OrbitStructure(seq, ell, r, tuple(orbits), fixed_counts)


def stabilizer_word_fixes_base(rs: RootSystem, beta: Weight, x: Weight) -> bool:
    """Check the straightening word of beta+x fixes the dominant weight beta.

    ``x`` must come from a minuscule orbit; the minimal word carrying
    beta+x to dominance then lies in the stabilizer of beta.
    """
    gamma = _add(beta, x)
    _, word = to_dominant(rs, gamma)
    return apply_word(rs, word, beta) == tuple(beta)
