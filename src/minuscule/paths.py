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
    """Why some step of ``points`` leaves its orbit, or None."""
    rs = seq.rs
    orbits = {lam: _orbit_set(rs, lam) for lam in set(seq.weights)}
    prev = rs.zero()
    for point, lam in zip(points, seq.weights):
        if _sub(point, prev) not in orbits[lam]:
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
    # each step with its pairing, reversed so steps pop in sorted order
    moves = [[(step, two_rho_pairing(rs, step)) for step in reversed(weyl_orbit(rs, lam))]
             for lam in seq.weights]
    last_orbit = _orbit_set(rs, seq.weights[-1])

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
            if _sub(zero, point) in last_orbit:
                found.append(tuple(prefix) + (zero,))
                if len(found) > cap:
                    raise EnumerationTooLarge(f"more than {cap} paths of type {seq.weights}")
            continue
        room = budget[k + 1]
        for step, rise in moves[k]:
            nxt = _add(point, step)
            if min(nxt) >= 0 and height + rise <= room:
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


def rotate(p: LittelmannPath) -> LittelmannPath:
    """The rotation bijection onto the paths of the once-rotated type.

    Drop the first step, translate the rest back to the origin, straighten
    it and close the loop.  The output is checked once, exactly.
    """
    seq = p.seq
    rs = seq.rs
    mu1 = p.points[0]
    flat = _straightened(rs, p.points[1:], _sub(rs.zero(), mu1))
    flat.append(rs.zero())
    target = seq.rotated(1)
    defect = _step_defect(target, flat) or _closed_defect(flat)
    if defect:  # pragma: no cover - would signal a bug
        raise AlgorithmInvariantViolated(f"rotation of {p.points}: {defect}")
    return LittelmannPath._trusted(target, tuple(flat))


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

    def rot_ell(p):
        for _ in range(ell):
            p = rotate(p)
        return p

    perm = [index[rot_ell(p).points] for p in paths]

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

    fixed_counts = []
    power = list(range(len(paths)))
    for _ in range(r):
        fixed_counts.append(sum(1 for i, j in enumerate(power) if i == j))
        power = [perm[j] for j in power]
    return OrbitStructure(seq, ell, r, tuple(orbits), tuple(fixed_counts))


def stabilizer_word_fixes_base(rs: RootSystem, beta: Weight, x: Weight) -> bool:
    """Check the straightening word of beta+x fixes the dominant weight beta.

    ``x`` must come from a minuscule orbit; the minimal word carrying
    beta+x to dominance then lies in the stabilizer of beta.
    """
    gamma = _add(beta, x)
    _, word = to_dominant(rs, gamma)
    return apply_word(rs, word, beta) == tuple(beta)
