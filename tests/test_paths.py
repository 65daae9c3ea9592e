import functools
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minuscule import paths
from minuscule.errors import (
    AlgorithmInvariantViolated,
    EnumerationTooLarge,
    InvalidPath,
    InvalidSequence,
    SequenceNotPeriodic,
)
from minuscule.paths import (
    LittelmannPath,
    MinusculePath,
    WeightSequence,
    enumerate_paths,
    orbit_structure,
    periods,
    rotate,
    rotate_all,
    straighten,
)
from minuscule.rootsys import build_root_system, to_dominant, weyl_orbit
from minuscule.tableaux import RowStrictTableau, path_to_tableau, promote
from test_crystals import MINUSCULE_TYPES, _closed, sequences

A1 = build_root_system("A", 1)
A2 = build_root_system("A", 2)
A3 = build_root_system("A", 3)
D4 = build_root_system("D", 4)
W = (1,)
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def seq_a1(m):
    return WeightSequence(A1, (W,) * m)


# The single straightening step, kept here as the reference that the
# library's one-sweep straightening and rotation are checked against.

def first_nondominant(points):
    """0-based index of the first non-dominant point (the straightening
    locus), or None when every point is dominant."""
    return next((k for k, q in enumerate(points) if min(q) < 0), None)


def raise_once_points(rs, points):
    """One straightening step on bare points: shift the tail of the list so
    the first non-dominant point becomes the dominant member of its orbit."""
    points = tuple(tuple(q) for q in points)
    k = first_nondominant(points)
    bad = points[k]
    dom, _ = to_dominant(rs, bad)
    shift = tuple(a - b for a, b in zip(dom, bad))
    return points[:k] + tuple(tuple(a + b for a, b in zip(q, shift)) for q in points[k:])


def raise_once(p):
    """One straightening step; the constructor re-checks every step orbit."""
    return MinusculePath(p.seq, raise_once_points(p.seq.rs, p.points))


def brute_force_paths(seq):
    """Reference enumeration from the definition alone: every choice of
    steps, one orbit at a time, kept while all its points are dominant
    (no later step can repair a non-dominant point).  It uses no bound on
    what the remaining steps can cancel and no memo."""
    rs = seq.rs
    prefixes = [((), rs.zero())]
    for lam in seq.weights:
        grown = []
        for points, here in prefixes:
            for step in weyl_orbit(rs, lam):
                nxt = tuple(a + b for a, b in zip(here, step))
                if min(nxt) >= 0:
                    grown.append((points + (nxt,), nxt))
        prefixes = grown
    return sorted(points for points, here in prefixes if not any(here))


class TestWeightSequence:
    def test_validation(self):
        with pytest.raises(InvalidSequence):
            WeightSequence(A1, ())
        with pytest.raises(InvalidSequence):
            WeightSequence(A1, ((2,),))
        with pytest.raises(InvalidSequence):
            WeightSequence(build_root_system("B", 3), ((1, 0, 0),))  # not minuscule

    def test_rotation(self):
        seq = WeightSequence(A2, ((1, 0), (0, 1), (1, 0)))
        assert seq.rotated(1).weights == ((0, 1), (1, 0), (1, 0))
        assert seq.rotated(3).weights == seq.weights
        assert seq.total() == (2, 1)


class TestEnumerate:
    def test_unique_path(self):
        (p,) = enumerate_paths(seq_a1(2))
        assert p.points == ((1,), (0,))

    def test_catalan_two(self):
        ps = enumerate_paths(seq_a1(4))
        assert [p.points for p in ps] == [
            ((1,), (0,), (1,), (0,)),
            ((1,), (2,), (1,), (0,)),
        ]

    def test_d4_middle_points(self):
        seq = WeightSequence(D4, (D4.fundamental_weight(1),) * 4)
        ps = enumerate_paths(seq)
        assert len(ps) == 3
        middles = sorted(p.points[1] for p in ps)
        assert middles == [(0, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0)]

    def test_empty_when_total_outside_root_lattice(self):
        assert enumerate_paths(seq_a1(3)) == ()
        bad = WeightSequence(A2, ((1, 0), (1, 0), (0, 1), (1, 0), (1, 0), (0, 1)))
        assert enumerate_paths(bad) == ()

    def test_cap(self):
        with pytest.raises(EnumerationTooLarge):
            enumerate_paths(seq_a1(8), cap=3)

    def test_outside_root_lattice_makes_no_search(self):
        # the cap counts found paths, so only the lattice test can stop a
        # search with none to find; 41 steps would take hours to exhaust
        start = time.perf_counter()
        assert enumerate_paths(seq_a1(41), cap=50) == ()
        assert time.perf_counter() - start < 0.5

    @pytest.mark.parametrize("seq", [
        seq_a1(2), seq_a1(4), seq_a1(6),
        WeightSequence(A2, ((1, 0), (1, 0), (1, 0))),
        WeightSequence(A2, ((1, 0), (0, 1), (1, 0), (0, 1))),
        WeightSequence(A3, ((0, 1, 0),) * 4),
    ])
    def test_matches_unpruned_search(self, seq):
        assert [p.points for p in enumerate_paths(seq)] == brute_force_paths(seq)

    @settings(max_examples=100, deadline=None)
    @given(sequences().map(_closed))
    def test_matches_unpruned_search_in_every_type(self, seq):
        assert [p.points for p in enumerate_paths(seq)] == brute_force_paths(seq)

    def test_lexicographic_order(self):
        ps = enumerate_paths(seq_a1(8))
        flat = [tuple(c for q in p.points for c in q) for p in ps]
        assert flat == sorted(flat)


class TestPathValidation:
    def test_step_must_stay_in_orbit(self):
        with pytest.raises(InvalidPath):
            MinusculePath(seq_a1(2), ((2,), (0,)))
        with pytest.raises(InvalidPath):
            LittelmannPath(seq_a1(2), ((1,), (2,)))  # endpoint not origin
        with pytest.raises(InvalidPath):
            LittelmannPath(seq_a1(4), ((1,), (0,), (-1,), (0,)))  # non-dominant

    @pytest.mark.parametrize("points", [
        5,                       # not a list
        "ab",                    # a string is not a list of points
        ((1,), 0),               # a point that is not a list
        ((1.0,), (0,)),          # float coordinate
        ((True,), (0,)),         # bool coordinate
        ((1, 0), (0,)),          # too many coordinates
        ((1,), ()),              # too few coordinates
    ])
    def test_rejects_malformed_points(self, points):
        with pytest.raises(InvalidPath):
            LittelmannPath(seq_a1(2), points)

    def test_accepts_lists_and_stores_tuples(self):
        p = LittelmannPath(seq_a1(2), [[1], [0]])
        assert p.points == ((1,), (0,))


class TestStraightening:
    def test_first_nondominant_spec_values(self):
        assert first_nondominant([(0,), (-1,), (0,), (-1,)]) == 1
        assert first_nondominant([(1,), (0,), (-1,)]) == 2
        assert first_nondominant([(1, 0), (-1, 1)]) == 1

    def test_first_nondominant_requires_a_bad_point(self):
        assert first_nondominant([(0,), (1,)]) is None

    def test_raise_once_spec_values(self):
        assert raise_once_points(A1, [(0,), (-1,), (0,), (-1,)]) == ((0,), (1,), (2,), (1,))
        assert raise_once_points(A1, [(0,), (1,), (0,), (-1,)]) == ((0,), (1,), (0,), (1,))

    def test_bad_index_strictly_increases(self):
        for pts in ([(0,), (-1,), (0,), (-1,)], [(0,), (1,), (0,), (-1,)]):
            before = first_nondominant(pts)
            after = first_nondominant(raise_once_points(A1, pts))
            assert after is None or after > before

    def test_raise_once_preserves_step_orbits(self):
        # the tail of a rotated path is a genuine minuscule path; the
        # MinusculePath constructor re-checks every step orbit, so the
        # loop below fails loudly if straightening ever leaves them
        seq = WeightSequence(A2, ((1, 0), (0, 1), (1, 0), (0, 1)))
        for p in enumerate_paths(seq):
            mu1 = p.points[0]
            tail = MinusculePath(
                WeightSequence(A2, seq.weights[1:]),
                tuple(tuple(a - b for a, b in zip(q, mu1)) for q in p.points[1:]))
            while not tail.is_dominant():
                tail = raise_once(tail)
            assert straighten(tail).points == tail.points


class TestRotate:
    def test_spec_values(self):
        p1, p2 = enumerate_paths(seq_a1(4))
        assert rotate(p1).points == ((1,), (2,), (1,), (0,))
        assert rotate(p2).points == ((1,), (0,), (1,), (0,))
        (p,) = enumerate_paths(seq_a1(2))
        assert rotate(p).points == p.points

    @pytest.mark.parametrize("seq", [
        seq_a1(4), seq_a1(6),
        WeightSequence(A2, ((1, 0), (1, 0), (1, 0))),
        WeightSequence(A2, ((1, 0), (0, 1), (1, 0), (0, 1))),
        WeightSequence(A3, ((1, 0, 0), (0, 0, 1), (1, 0, 0), (0, 0, 1))),
        WeightSequence(D4, (D4.fundamental_weight(1),) * 4),
    ])
    def test_bijection_onto_rotated_type(self, seq):
        source = enumerate_paths(seq)
        target = {p.points for p in enumerate_paths(seq.rotated(1))}
        images = {rotate(p).points for p in source}
        assert images == target and len(images) == len(source)

    def test_rotation_order_divides_m(self):
        for seq in (seq_a1(4), seq_a1(6)):
            m = len(seq)
            for p in enumerate_paths(seq):
                q = p
                for _ in range(m):
                    q = rotate(q)
                assert q.points == p.points

    def test_rotate_all_edge_cases(self):
        found = enumerate_paths(seq_a1(4))
        assert rotate_all((), 3) == [] and rotate_all(found, 0) == list(found)
        with pytest.raises(ValueError):
            rotate_all(found, -1)
        with pytest.raises(InvalidPath, match="one type"):
            rotate_all(found + enumerate_paths(seq_a1(2)), 1)

    def test_bijection_across_whole_battery(self):
        from minuscule.battery import standard_battery
        for seq in standard_battery():
            source = enumerate_paths(seq)
            target = {p.points for p in enumerate_paths(seq.rotated(1))}
            images = {rotate(p).points for p in source}
            assert images == target and len(images) == len(source)


class TestPathTables:
    def test_corrupted_carry_entry_is_caught(self, monkeypatch):
        p = enumerate_paths(seq_a1(6))[0]
        assert p.points[:2] == ((1,), (0,))
        rotate(p)  # the carry memo now holds every step of this rotation
        t = paths._tables(A1, W)
        s = t.shift_id[(-1,)]
        q, nxt = t.carry[s][(0,)]
        assert q == (1,)
        # one step of 2 from the origin: outside the orbit of omega_1
        monkeypatch.setitem(t.carry[s], (0,), ((2,), nxt))
        with pytest.raises(AlgorithmInvariantViolated):
            rotate(p)

    def test_shift_leaving_its_orbit_is_an_invariant_violation(self, monkeypatch):
        # fresh tables, so the broken straightening is met on a miss
        monkeypatch.setattr(paths, "_tables", functools.lru_cache(maxsize=None)(
            paths._PathTables))
        monkeypatch.setattr(paths, "to_dominant", lambda rs, q: ((5,), None))
        p = enumerate_paths(seq_a1(4))[0]
        with pytest.raises(AlgorithmInvariantViolated, match="out of the orbit"):
            rotate(p)

    def test_corrupted_carry_entry_past_a_shared_prefix_is_caught(self, monkeypatch):
        monkeypatch.setattr(paths, "_tables", functools.lru_cache(maxsize=None)(
            paths._PathTables))
        first, second = enumerate_paths(seq_a1(6))[:2]
        assert first.points[:3] == second.points[:3] != first.points[:4]
        # the second path's rotation reaches input point (2,) with the shift
        # (1,) only after the three input points it shares with the first,
        # and the first never looks (2,) up
        assert rotate(second).points == ((1,), (2,), (3,), (2,), (1,), (0,))
        t = paths._tables(A1, W)
        s = t.shift_id[(1,)]
        assert (2,) not in first.points
        monkeypatch.setitem(t.carry[s], (2,), ((4,), s))
        assert rotate_all([first], 1)[0].points == rotate(first).points
        with pytest.raises(AlgorithmInvariantViolated,
                           match=re.escape(f"rotation of {second.points}")):
            rotate_all([first, second], 1)

    def test_shift_leaving_its_orbit_is_caught_through_orbit_structure(self, monkeypatch):
        monkeypatch.setattr(paths, "_tables", functools.lru_cache(maxsize=None)(
            paths._PathTables))
        monkeypatch.setattr(paths, "to_dominant", lambda rs, q: ((5,), None))
        with pytest.raises(AlgorithmInvariantViolated, match="out of the orbit"):
            orbit_structure(seq_a1(6), 1)

    def test_constructors_never_fill_the_verified_memo(self, monkeypatch):
        monkeypatch.setattr(paths, "_tables", functools.lru_cache(maxsize=None)(
            paths._PathTables))
        lam = A3.fundamental_weight(2)
        seq = WeightSequence(A3, (lam,) * 4)
        t = paths._tables(A3, lam)
        before = len(t.verified)
        built = set()
        for steps in itertools.product(weyl_orbit(A3, lam), repeat=4):
            points = list(itertools.accumulate(
                steps, lambda a, b: tuple(x + y for x, y in zip(a, b))))
            built.add(MinusculePath(seq, points).points)  # non-dominant points too
        closed = enumerate_paths(seq)
        for p in closed:
            LittelmannPath(seq, [list(q) for q in p.points])
        assert len(built) == 6 ** 4 and len(t.verified) == before
        rotate(closed[0])
        assert len(t.verified) > before

    def test_constructors_do_not_trust_the_verified_memo(self, monkeypatch):
        # outside data is tested against its orbit, never taken on a memo's
        # word: the planted step (0,) -> (3,) is (3,), outside W.(1,)
        monkeypatch.setattr(paths, "_tables", functools.lru_cache(maxsize=None)(
            paths._PathTables))
        paths._tables(A1, W).verified.add(((0,), (3,)))
        with pytest.raises(InvalidPath, match="leaves the orbit"):
            MinusculePath(WeightSequence(A1, (W, W)), [(3,), (2,)])

    def test_import_builds_no_tables(self):
        code = ("import minuscule, minuscule.paths as p; "
                "print(p._tables.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, check=True).stdout
        assert out == "0\n"

    def test_memos_match_the_computations_they_replace(self):
        seq = WeightSequence(D4, (D4.fundamental_weight(1),) * 6)
        for p in enumerate_paths(seq):
            rotate(p)
        t = paths._tables(D4, D4.fundamental_weight(1))
        for point, nexts in t.succ.items():
            steps = (tuple(a + b for a, b in zip(point, step))
                     for step in reversed(weyl_orbit(D4, t.lam)))
            assert [q for q, _ in nexts] == [q for q in steps if min(q) >= 0]
        for s, memo in enumerate(t.carry):
            for beta, (q, nxt) in memo.items():
                shifted = tuple(a + b for a, b in zip(beta, t.shifts[s]))
                assert q == to_dominant(D4, shifted)[0]
                assert t.shifts[nxt] == tuple(a - b for a, b in zip(q, beta))
        for prev, point in t.verified:
            assert tuple(a - b for a, b in zip(point, prev)) in weyl_orbit(D4, t.lam)


class TestOrbitStructure:
    def test_two_path_swap(self):
        structure = orbit_structure(seq_a1(4), 1)
        assert structure.r == 4
        assert len(structure.orbits) == 1 and len(structure.orbits[0]) == 2
        assert structure.fixed_counts == (2, 0, 2, 0)

    def test_single_fixed_path(self):
        assert orbit_structure(seq_a1(2), 1).fixed_counts == (1, 1)
        seq = WeightSequence(A2, ((1, 0),) * 3)
        structure = orbit_structure(seq, 1)
        assert structure.fixed_counts == (1, 1, 1)
        assert len(structure.orbits) == 1 and len(structure.orbits[0]) == 1

    def test_fixed_counts_depend_on_gcd(self):
        import math
        structure = orbit_structure(seq_a1(8), 1)
        for d1 in range(structure.r):
            for d2 in range(structure.r):
                if math.gcd(d1, structure.r) == math.gcd(d2, structure.r):
                    assert structure.fixed_counts[d1] == structure.fixed_counts[d2]

    def test_rejects_bad_shift(self):
        with pytest.raises(SequenceNotPeriodic):
            orbit_structure(seq_a1(4), 3)
        mixed = WeightSequence(A2, ((1, 0), (0, 1), (1, 0), (0, 1)))
        with pytest.raises(SequenceNotPeriodic):
            orbit_structure(mixed, 1)
        assert orbit_structure(mixed, 2).r == 2


def test_json_encoding():
    p = enumerate_paths(seq_a1(4))[0]
    data = json.loads(json.dumps(p.to_json_dict()))
    assert data == {"type": [[1], [1], [1], [1]], "points": [[1], [0], [1], [0]]}
    rebuilt = LittelmannPath(p.seq, tuple(tuple(q) for q in data["points"]))
    assert rebuilt.points == p.points


def translated_tail(p):
    """The path minus its first step, translated back to the origin."""
    rs, seq = p.seq.rs, p.seq
    mu1 = p.points[0]
    return MinusculePath(WeightSequence(rs, seq.weights[1:]),
                         tuple(tuple(a - b for a, b in zip(q, mu1)) for q in p.points[1:]))


def rotate_by_raise_once(p):
    """Rotation as first defined: raise_once on the translated tail until it
    is dominant, then close the loop."""
    tail = translated_tail(p)
    while not tail.is_dominant():
        tail = raise_once(tail)
    return tail.points + (p.seq.rs.zero(),)


def rotate_k_by_raise_once(p, k):
    """The points of ``rotate_by_raise_once`` applied ``k`` times."""
    points = p.points
    for j in range(k):
        points = rotate_by_raise_once(LittelmannPath(p.seq.rotated(j), points))
    return points


TYPE_A = [t for t in MINUSCULE_TYPES if t[0] == "A"]


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(sequences().map(_closed))
    def test_rotate_matches_repeated_raise_once(self, seq):
        for p in enumerate_paths(seq):
            assert rotate(p).points == rotate_by_raise_once(p)

    @settings(max_examples=100, deadline=None)
    @given(sequences().map(_closed))
    def test_rotation_to_the_m_is_the_identity(self, seq):
        for p in enumerate_paths(seq):
            q = p
            for _ in range(len(seq)):
                q = rotate(q)
            assert q.seq.weights == seq.weights and q.points == p.points

    @settings(max_examples=100, deadline=None)
    @given(sequences().map(_closed))
    def test_outputs_revalidate(self, seq):
        for p in enumerate_paths(seq):
            assert LittelmannPath(p.seq, p.points) == p
            image = rotate(p)
            assert LittelmannPath(image.seq, image.points) == image
            flat = straighten(translated_tail(p))
            assert flat.is_dominant()
            assert MinusculePath(flat.seq, flat.points) == flat
            if seq.rs.family == "A":
                t = path_to_tableau(p)
                assert RowStrictTableau(t.rows) == t
                u = promote(t)
                assert RowStrictTableau(u.rows) == u

    @settings(max_examples=100, deadline=None)
    @given(sequences(types=TYPE_A).map(_closed))
    def test_promotion_is_rotation(self, seq):
        for p in enumerate_paths(seq):
            assert promote(path_to_tableau(p)) == path_to_tableau(rotate(p))

    @settings(max_examples=100, deadline=None)
    @given(sequences().map(_closed), st.randoms(use_true_random=False))
    def test_rotate_all_matches_raise_once_in_any_order(self, seq, rng):
        found = enumerate_paths(seq)
        shuffled = list(found)
        rng.shuffle(shuffled)
        for ell in periods(seq):
            want = {p.points: rotate_k_by_raise_once(p, ell) for p in found}
            for order in (found, found[::-1], shuffled):
                got = rotate_all(order, ell)
                assert [q.points for q in got] == [want[p.points] for p in order]
                assert all(q.seq.weights == seq.rotated(ell).weights for q in got)
        whole_turn = rotate_all(found, len(seq))
        assert [q.points for q in whole_turn] == [p.points for p in found]
