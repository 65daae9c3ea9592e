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

from minuscule import battery, paths
from minuscule.errors import (
    AlgorithmInvariantViolated,
    EnumerationTooLarge,
    InvalidPath,
    InvalidSequence,
    SequenceNotPeriodic,
)
from minuscule.paths import (
    LittelmannPath,
    WeightSequence,
    enumerate_paths,
    orbit_structure,
    rotate,
    rotate_all,
)
from minuscule.rootsys import build_root_system, to_dominant, two_rho_pairing, weyl_orbit
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
# library's rotation is checked against.  It works on bare point tuples and
# checks step orbits itself, so it shares no validation with the library.

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


def assert_steps_in_orbits(rs, weights, points):
    """Each step of ``points``, from the origin, lies in the Weyl orbit of
    its weight."""
    prev = rs.zero()
    for q, lam in zip(points, weights):
        assert tuple(a - b for a, b in zip(q, prev)) in weyl_orbit(rs, lam), (points, q)
        prev = q


def raise_once(rs, weights, points):
    """One straightening step, with every step orbit re-checked."""
    raised = raise_once_points(rs, points)
    assert_steps_in_orbits(rs, weights, raised)
    return raised


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

    @pytest.mark.parametrize("weights", [
        ((True,), (True,)),      # bool coordinates, equal to 1 as numbers
        ((1.0,), (1.0,)),        # float coordinates
    ])
    def test_rejects_non_int_coordinates(self, weights):
        with pytest.raises(InvalidSequence, match="int weights"):
            WeightSequence(A1, weights)

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

    @pytest.mark.parametrize("cap", [True, 0.5, 2.0, "2", 0, -1])
    def test_cap_must_be_an_int_of_at_least_1(self, cap):
        # refused before the lattice test, which alone answers (omega_1)^3
        with pytest.raises(ValueError, match="cap must be an int of at least 1"):
            enumerate_paths(seq_a1(3), cap=cap)

    def test_cap_boundary(self):
        # (omega_1)^8 of A1 has 14 paths: the cap counts found paths
        assert len(enumerate_paths(seq_a1(8), cap=14)) == 14
        with pytest.raises(EnumerationTooLarge):
            enumerate_paths(seq_a1(8), cap=13)

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
        with pytest.raises(InvalidPath, match=re.escape("step into (2,) leaves the orbit")):
            LittelmannPath(seq_a1(2), ((2,), (0,)))
        with pytest.raises(InvalidPath, match="must end at the origin"):
            LittelmannPath(seq_a1(2), ((1,), (2,)))
        with pytest.raises(InvalidPath, match="must be dominant"):
            LittelmannPath(seq_a1(4), ((1,), (0,), (-1,), (0,)))

    def test_checks_run_in_order(self):
        # orbit before dominance: (-2,) is both outside W.(1,) and not dominant
        with pytest.raises(InvalidPath, match="leaves the orbit"):
            LittelmannPath(seq_a1(2), ((-2,), (0,)))
        # dominance before closure: (-1,) is neither dominant nor the origin
        with pytest.raises(InvalidPath, match="must be dominant"):
            LittelmannPath(seq_a1(3), ((1,), (0,), (-1,)))

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
        with pytest.raises(InvalidPath, match="points must be a list of points of 1 int"):
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
        # the tail of a rotated path is a genuine minuscule path; raise_once
        # re-checks every step orbit, so the loop below fails loudly if
        # straightening ever leaves them
        seq = WeightSequence(A2, ((1, 0), (0, 1), (1, 0), (0, 1)))
        for p in enumerate_paths(seq):
            weights, tail = translated_tail(seq.weights, p.points)
            assert_steps_in_orbits(A2, weights, tail)
            while first_nondominant(tail) is not None:
                tail = raise_once(A2, weights, tail)


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

    def test_rotate_all_edge_cases(self):
        found = enumerate_paths(seq_a1(4))
        assert rotate_all((), 3) == [] and rotate_all(found, 0) == list(found)
        with pytest.raises(InvalidPath, match="one type"):
            rotate_all(found + enumerate_paths(seq_a1(2)), 1)

    @pytest.mark.parametrize("k", [-1, True, 1.0, "1", None])
    def test_rotate_all_takes_an_int_of_at_least_0(self, k):
        found = enumerate_paths(seq_a1(4))
        with pytest.raises(ValueError, match="rotations must be an int of at least 0"):
            rotate_all(found, k)

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

    def test_corrupted_carry_entry_off_the_dominant_chamber_is_caught(self, monkeypatch):
        # the step from the origin to (-1,) is in W.(1,), but (-1,) is not
        # dominant: the check on succ refuses it as the orbit-and-dominance
        # test did
        p = enumerate_paths(seq_a1(6))[0]
        rotate(p)
        t = paths._tables(A1, W)
        s = t.shift_id[(-1,)]
        monkeypatch.setitem(t.carry[s], (0,), ((-1,), t.carry[s][(0,)][1]))
        with pytest.raises(AlgorithmInvariantViolated, match="onto a dominant point"):
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

    def test_constructors_never_fill_the_succ_memo(self, monkeypatch):
        monkeypatch.setattr(paths, "_tables", functools.lru_cache(maxsize=None)(
            paths._PathTables))
        lam = A3.fundamental_weight(2)
        seq = WeightSequence(A3, (lam,) * 4)
        t = paths._tables(A3, lam)
        # every step is in its orbit: all but the 3 closed dominant paths
        # are refused only for a non-dominant point or an open end
        closed = []
        for steps in itertools.product(weyl_orbit(A3, lam), repeat=4):
            points = list(itertools.accumulate(
                steps, lambda a, b: tuple(x + y for x, y in zip(a, b))))
            try:
                closed.append(LittelmannPath(seq, [list(q) for q in points]))
            except InvalidPath as exc:
                assert "leaves the orbit" not in str(exc)
        assert [p.points for p in closed] == brute_force_paths(seq) and len(closed) == 3
        assert t.succ == {}
        rotate(closed[0])  # the rotation check fills it
        assert t.succ

    def test_constructors_do_not_trust_the_succ_memo(self, monkeypatch):
        # outside data is tested against its orbit, never taken on a memo's
        # word: the planted step (0,) -> (3,) is (3,), outside W.(1,)
        monkeypatch.setattr(paths, "_tables", functools.lru_cache(maxsize=None)(
            paths._PathTables))
        paths._tables(A1, W).succ[(0,)] = {(3,): 2}
        with pytest.raises(InvalidPath, match="leaves the orbit"):
            LittelmannPath(WeightSequence(A1, (W, W)), [(3,), (2,)])

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
            steps = [(tuple(a + b for a, b in zip(point, step)), two_rho_pairing(D4, step))
                     for step in reversed(weyl_orbit(D4, t.lam))]
            assert list(nexts.items()) == [(q, rise) for q, rise in steps if min(q) >= 0]
        for s, memo in enumerate(t.carry):
            for beta, (q, nxt) in memo.items():
                shifted = tuple(a + b for a, b in zip(beta, t.shifts[s]))
                assert q == to_dominant(D4, shifted)[0]
                assert t.shifts[nxt] == tuple(a - b for a, b in zip(q, beta))


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

    @pytest.mark.parametrize("ell", [True, 1.0, "1", None])
    def test_an_ell_that_is_not_an_int_is_not_a_period(self, ell):
        with pytest.raises(SequenceNotPeriodic, match="is not a period"):
            orbit_structure(seq_a1(4), ell)


def test_json_encoding():
    p = enumerate_paths(seq_a1(4))[0]
    data = json.loads(json.dumps(p.to_json_dict()))
    assert data == {"type": [[1], [1], [1], [1]], "points": [[1], [0], [1], [0]]}
    rebuilt = LittelmannPath(p.seq, tuple(tuple(q) for q in data["points"]))
    assert rebuilt.points == p.points


def translated_tail(weights, points):
    """The weights and points of a path minus its first step, translated
    back to the origin."""
    mu1 = points[0]
    return weights[1:], tuple(tuple(a - b for a, b in zip(q, mu1)) for q in points[1:])


def rotate_by_raise_once(rs, weights, points):
    """Rotation as first defined: raise_once on the translated tail until it
    is dominant, then close the loop."""
    weights, tail = translated_tail(weights, points)
    assert_steps_in_orbits(rs, weights, tail)
    while first_nondominant(tail) is not None:
        tail = raise_once(rs, weights, tail)
    return tail + (rs.zero(),)


TYPE_A = [t for t in MINUSCULE_TYPES if t[0] == "A"]


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(sequences().map(_closed))
    def test_rotate_matches_repeated_raise_once(self, seq):
        for p in enumerate_paths(seq):
            assert rotate(p).points == rotate_by_raise_once(seq.rs, seq.weights, p.points)

    @settings(max_examples=100, deadline=None)
    @given(sequences().map(_closed))
    def test_rotation_to_the_m_is_the_identity(self, seq):
        result = battery.suite_rotation_order([seq])
        assert result.passed, result.failures

    @settings(max_examples=100, deadline=None)
    @given(sequences().map(_closed))
    def test_outputs_revalidate(self, seq):
        for p in enumerate_paths(seq):
            assert LittelmannPath(p.seq, p.points) == p
            image = rotate(p)
            assert LittelmannPath(image.seq, image.points) == image
            if seq.rs.family == "A":
                t = path_to_tableau(p)
                assert RowStrictTableau(t.rows) == t
                u = promote(t)
                assert RowStrictTableau(u.rows) == u

    @settings(max_examples=100, deadline=None)
    @given(sequences(types=TYPE_A).map(_closed))
    def test_promotion_is_rotation(self, seq):
        # the suite also checks that promotion^m is the identity
        result = battery.suite_promotion_equivariance([seq])
        assert result.passed, result.failures

    @settings(max_examples=100, deadline=None)
    @given(sequences().map(_closed), st.randoms(use_true_random=False))
    def test_rotate_all_matches_raise_once_in_any_order(self, seq, rng):
        found = enumerate_paths(seq)
        shuffled = list(found)
        rng.shuffle(shuffled)
        # every k up to two whole turns: each level restarts where the
        # level before it did, across types that rotate to other types;
        # want holds each path's k-fold rotation by raise_once
        want = {p.points: p.points for p in found}
        for k in range(2 * len(seq) + 1):
            for order in (found, found[::-1], shuffled):
                got = rotate_all(order, k)
                assert [q.points for q in got] == [want[p.points] for p in order]
                assert all(q.seq.weights == seq.rotated(k).weights for q in got)
            want = {p: rotate_by_raise_once(seq.rs, seq.rotated(k).weights, q)
                    for p, q in want.items()}
        whole_turn = rotate_all(found, len(seq))
        assert [q.points for q in whole_turn] == [p.points for p in found]
