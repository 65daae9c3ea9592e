"""Dominant lattice paths with minuscule steps, and their rotation.

A path is stored as its list of points (the origin is implicit), because
rotation manipulates points, not steps.

Validation happens once, where data enters: the public ``MinusculePath``
and ``LittelmannPath`` constructors check the shape of the input (a list
of points of exactly ``rank`` int coordinates), that every step stays in
its orbit, and, for a Littelmann path, dominance and the return to the
origin.  Enumeration, straightening and rotation produce paths that are
correct by construction, so they build them with the unchecked
``_trusted``; rotation still checks its output exactly once, and a
failure there is an ``AlgorithmInvariantViolated``.

Enumeration and rotation visit the same few thousand dominant points
over and over, so each (root system, minuscule weight lambda) has one
``_PathTables`` (built by the ``lru_cache``d ``_tables`` on first use,
nothing at import) holding three memos, each filled on a miss by the
exact computation it replaces:

* ``succ``: a dominant point -> the dominant points one step in
  W.lambda away, with each step's pairing with 2 rho_vee, in the order
  the enumeration stack pops them;
* ``carry``: (dominant point beta, shift id s) -> (the point beta + s
  straightened, the shift carried on), where shift ids index the orbit
  of -lambda.  By the stabilizer lemma the straightening word of
  beta + s fixes beta, so the carried shift stays in that orbit and
  rotation is a walk on finitely many (point, shift) pairs;
* ``verified``: the (prev, point) pairs of rotation outputs whose point
  is dominant and whose difference has passed the exact test
  ``in _orbit_set(rs, lambda)``; rotation runs that test only on pairs
  not in it.  The public constructors neither read nor grow this memo:
  data from outside is tested step by step against its orbit
  (``_step_defect``), never taken on a memo's word, and validating user
  paths, non-dominant ones included, does not grow the process.

Rotation works on a whole set of paths of one type: ``rotate_all(paths,
k)`` returns every path's k-fold rotation in one call, ``rotate`` is its
one-path case and ``orbit_structure`` makes one call on its enumeration.
Output point i of a rotation depends only on input points 0..i+1, so
the call keeps, per level and only while it runs, the previous path's
output points and carried shift ids, and recomputes from the first
input point that differs.  Sorted paths, as ``enumerate_paths`` returns
them, share long prefixes.  A shared output prefix is made of the same
(prev, point) pairs that passed the check for the previous path, so it
needs no second check; every point computed anew is checked as before.
"""
from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

from .errors import (
    AlgorithmInvariantViolated,
    EnumerationTooLarge,
    InvalidPath,
    InvalidSequence,
    SequenceNotPeriodic,
)
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


def _all_dominant(points):
    return min(map(min, points)) >= 0


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

    ``orbit`` is the frozenset W.lam and ``moves`` its steps with their
    pairings, reversed so they pop from a stack in sorted order.
    ``shifts`` is the sorted orbit of -lam and ``shift_id`` its index.
    ``succ``, ``carry`` (one dict per shift id, keyed on the point) and
    ``verified`` are the memos of the module docstring.
    """

    __slots__ = ("rs", "lam", "orbit", "moves", "shifts", "shift_id", "succ", "carry",
                 "verified")

    def __init__(self, rs, lam):
        self.rs = rs
        self.lam = lam
        self.orbit = _orbit_set(rs, lam)
        self.moves = tuple((step, two_rho_pairing(rs, step))
                           for step in reversed(weyl_orbit(rs, lam)))
        self.shifts = tuple(sorted(tuple(-x for x in step) for step in self.orbit))
        self.shift_id = {s: k for k, s in enumerate(self.shifts)}
        self.succ: dict[Weight, tuple[tuple[Weight, int], ...]] = {}
        self.carry: tuple[dict[Weight, tuple[Weight, int]], ...] = tuple(
            {} for _ in self.shifts)
        self.verified: set[tuple[Weight, Weight]] = set()

    def successors(self, point):
        """The dominant points one step from ``point``, with the steps'
        pairings, in stack-pop order."""
        nexts = []
        for step, rise in self.moves:
            nxt = _add(point, step)
            if min(nxt) >= 0:
                nexts.append((nxt, rise))
        hit = self.succ[point] = tuple(nexts)
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


@dataclass(frozen=True)
class WeightSequence:
    """A sequence of dominant minuscule weights over a fixed root system."""

    rs: RootSystem
    weights: tuple[Weight, ...]

    def __post_init__(self):
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


def _step_defect(seq: WeightSequence, points) -> str | None:
    """Why some step of ``points`` leaves its orbit, or None.

    Every step is tested against its orbit; no memo is consulted."""
    rs = seq.rs
    prev = rs.zero()
    for point, lam in zip(points, seq.weights):
        if _sub(point, prev) not in _orbit_set(rs, lam):
            return f"step into {point} leaves the orbit of {lam}"
        prev = point
    return None


def _closed_defect(points) -> str | None:
    """Why ``points`` is not dominant throughout and back at the origin, or None."""
    if not _all_dominant(points):
        return "all points of the path must be dominant"
    if any(points[-1]):
        return "the path must end at the origin"
    return None


@dataclass(frozen=True)
class MinusculePath:
    """Points gamma_1..gamma_m; the step into each must stay in its orbit."""

    seq: WeightSequence
    points: tuple[Weight, ...]

    def __post_init__(self):
        rank = self.seq.rs.rank
        if not _int_lists(self.points) or any(len(p) != rank for p in self.points):
            raise InvalidPath(f"points must be a list of points of {rank} int coordinates, "
                              f"got {self.points!r}")
        object.__setattr__(self, "points", tuple(tuple(p) for p in self.points))
        if len(self.points) != len(self.seq):
            raise InvalidPath("point count does not match the type sequence")
        defect = _step_defect(self.seq, self.points)
        if defect:
            raise InvalidPath(defect)

    @classmethod
    def _trusted(cls, seq: WeightSequence, points: tuple[Weight, ...]):
        """Build without checks: ``points`` is a tuple of int tuples, one per
        entry of ``seq``, every step in its orbit (and, for a
        ``LittelmannPath``, dominant throughout and back at the origin)."""
        p = object.__new__(cls)
        object.__setattr__(p, "seq", seq)
        object.__setattr__(p, "points", points)
        return p

    def __len__(self):
        return len(self.points)

    def is_dominant(self) -> bool:
        return _all_dominant(self.points)


class LittelmannPath(MinusculePath):
    """A dominant path returning to the origin."""

    def __post_init__(self):
        super().__post_init__()
        defect = _closed_defect(self.points)
        if defect:
            raise InvalidPath(defect)

    def to_json_dict(self):
        return {
            "type": [list(w) for w in self.seq.weights],
            "points": [list(p) for p in self.points],
        }


def enumerate_paths(seq: WeightSequence, cap: int = DEFAULT_PATH_CAP) -> tuple[LittelmannPath, ...]:
    """All dominant paths of the given type from the origin back to itself.

    Depth-first search in sorted step order, which already emits paths in
    lexicographic order of their concatenated coordinates.  A branch dies
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
    the cap counts found paths and would never stop it.
    """
    rs = seq.rs
    if not in_root_lattice(rs, seq.total()):
        return ()
    m = len(seq)
    zero = rs.zero()
    budget = [0] * (m + 1)
    for k in range(m - 1, -1, -1):
        budget[k] = budget[k + 1] + two_rho_pairing(rs, seq.weights[k])
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
                    raise EnumerationTooLarge(f"more than {cap} paths of type {seq.weights}")
            continue
        t = tables[k]
        nexts = t.succ.get(point)
        if nexts is None:
            nexts = t.successors(point)
        room = budget[k + 1] - height
        for nxt, rise in nexts:
            if rise <= room:
                stack.append((k + 1, nxt, height + rise))
    found.sort()
    return tuple(LittelmannPath._trusted(seq, pts) for pts in found)


def _straightened(rs, points, shift) -> list[Weight]:
    """``points`` translated by ``shift`` and straightened in one sweep.

    A single straightening step shifts the whole tail from the first
    non-dominant point q by to_dominant(q) - q, and that index strictly
    increases, so repeating the step until the path is dominant amounts to
    one left-to-right pass that carries the accumulated shift and adds
    to_dominant(q) - q at each point q that is still non-dominant.
    """
    out = []
    for q in points:
        q = _add(q, shift)
        if min(q) < 0:
            dom = to_dominant(rs, q)[0]
            shift = _add(shift, _sub(dom, q))
            q = dom
        out.append(q)
    return out


def straighten(p: MinusculePath) -> MinusculePath:
    """Repeat the single straightening step until dominant, done as one sweep.

    Reflecting a tail keeps every step in its orbit, so the result is
    built unchecked; a path that is already dominant comes back as is.
    """
    if p.is_dominant():
        return p
    rs = p.seq.rs
    return MinusculePath._trusted(p.seq, tuple(_straightened(rs, p.points, rs.zero())))


def rotate_all(paths, k: int = 1) -> list[LittelmannPath]:
    """The k-fold rotation of each of ``paths``, all of one type, in order.

    Rotation drops the first step mu_1, translates the rest back to the
    origin, straightens it and closes the loop.  The sweep of
    ``_straightened`` carries a shift that starts at -mu_1, and by the
    stabilizer lemma the straightening word of beta + shift fixes the
    dominant point beta, so every carried shift stays in the orbit of
    -lambda_1.  Each output point is then one lookup in the ``carry`` memo
    of lambda_1, keyed on (input point, shift id).

    Each of the k levels keeps the previous path's output points and the
    shift id used at each (``flat``, ``kept``): when a path's input agrees
    with the previous one on its first L points, the level starts at point
    L-1 with the kept shift, and the first output point that differs gives
    L for the next level.  Every point computed anew is checked by
    ``_check_step`` unless its pair is in the ``verified`` memo; the step
    into the origin closes the path.  A failure is an
    ``AlgorithmInvariantViolated`` that names the input path.
    """
    if k < 0:
        raise ValueError(f"the number of rotations must be at least 0, got {k}")
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
            shared = prev is not None
            if shared:
                while agree < m and pts[agree] == prev[agree]:
                    agree += 1
            prev = pts
            for level, (carry, carried, shift_id, checks, flat, kept) in enumerate(levels):
                same = shared
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
                    if same:
                        if q == flat[i]:
                            continue
                        same = False
                        agree = i
                    pair = (flat[i - 1] if i else zero, q)
                    if pair not in checks[i].verified:
                        _check_step(checks[i], pair)
                    flat[i] = q
                if same:
                    agree = m
                else:
                    pair = (flat[m - 2] if m > 1 else zero, zero)
                    if pair not in checks[m - 1].verified:
                        _check_step(checks[m - 1], pair)
                pts = flat
            out.append(LittelmannPath._trusted(target, tuple(pts)))
    except AlgorithmInvariantViolated as exc:
        raise AlgorithmInvariantViolated(
            f"rotation of {p.points} (step {level + 1} of {k}): {exc}") from None
    return out


def _check_step(t: _PathTables, pair):
    """Pass when the step of ``pair`` = (prev, point) is in ``t``'s orbit
    and ``point`` is dominant, and remember the pair in ``t.verified``."""
    prev, point = pair
    if _sub(point, prev) not in t.orbit:
        raise AlgorithmInvariantViolated(f"step into {point} leaves the orbit of {t.lam}")
    if min(point) < 0:
        raise AlgorithmInvariantViolated("all points of the path must be dominant")
    t.verified.add(pair)


def rotate(p: LittelmannPath) -> LittelmannPath:
    """The rotation bijection onto the paths of the once-rotated type: the
    one-path case of ``rotate_all``."""
    return rotate_all((p,), 1)[0]


@dataclass(frozen=True)
class OrbitStructure:
    seq: WeightSequence
    ell: int
    r: int
    orbits: tuple[tuple[LittelmannPath, ...], ...]
    fixed_counts: tuple[int, ...]

    def to_json_dict(self):
        return {
            "ell": self.ell,
            "r": self.r,
            "fixed_counts": list(self.fixed_counts),
            "orbits": [[p.to_json_dict()["points"] for p in orbit] for orbit in self.orbits],
        }


def periods(seq: WeightSequence) -> tuple[int, ...]:
    """Every ell that divides m and fixes the weights under rotation by ell."""
    m, w = len(seq), seq.weights
    return tuple(ell for ell in range(1, m + 1) if m % ell == 0 and w[ell:] + w[:ell] == w)


def orbit_structure(seq: WeightSequence, ell: int) -> OrbitStructure:
    """Orbits of the ell-fold rotation and fixed-point counts of its powers;
    ``ell`` must be one of ``periods(seq)``."""
    if ell not in periods(seq):
        raise SequenceNotPeriodic(f"ell={ell} is not a period; the periods are {periods(seq)}")
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
