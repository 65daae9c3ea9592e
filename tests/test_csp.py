import json

import pytest

from minuscule.csp import (
    CSPReport,
    csp_check,
    cyclotomic,
    eval_matches,
    exponent_identity,
    type_a_csp_polynomial,
)
from minuscule import battery, csp
from minuscule.errors import (
    AlgorithmInvariantViolated,
    EnumerationTooLarge,
    NotInRootLattice,
    SequenceNotPeriodic,
    TypeMismatch,
)
from minuscule.paths import WeightSequence, orbit_structure
from minuscule.rootsys import build_root_system, two_rho_pairing

from support import A1, A2, A3, W, poly


class TestCyclotomic:
    def test_values(self):
        assert cyclotomic(1) == poly(-1, 1)
        assert cyclotomic(4) == poly(1, 0, 1)
        assert cyclotomic(6) == poly(1, -1, 1)
        assert cyclotomic(12) == poly(1, 0, -1, 0, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cyclotomic(0)


# each call names one count that is not an int of its range
BAD_COUNTS = {
    "cyclotomic(2.0)": (cyclotomic, (2.0,), 2.0),
    "cyclotomic(True)": (cyclotomic, (True,), True),
    "eval_matches r=0": (eval_matches, (poly(1, 1), 0, 1, 2), 0),
    "eval_matches r=-2": (eval_matches, (poly(1, 1), -2, 1, 0), -2),
    "eval_matches r=True": (eval_matches, (poly(1, 1), True, 1, 2), True),
    "eval_matches d=1.5": (eval_matches, (poly(1, 1), 2, 1.5, 0), 1.5),
    "eval_matches d=True": (eval_matches, (poly(1, 1), 2, True, 0), True),
    "eval_matches value=1.5": (eval_matches, (poly(1, 1), 2, 1, 1.5), 1.5),
}


@pytest.mark.parametrize("case", BAD_COUNTS)
def test_a_count_that_is_not_an_int_of_its_range_is_refused(case):
    function, args, bad = BAD_COUNTS[case]
    cyclotomic(1)  # cached first, so True cannot read back its entry
    with pytest.raises(ValueError, match="must be an int") as refused:
        function(*args)
    assert str(refused.value).endswith(repr(bad))


class TestEvalMatches:
    def test_spec_values(self):
        f = poly(1, 0, 1)
        assert eval_matches(f, 4, 1, 0)       # 1 + i^2 = 0
        assert eval_matches(f, 4, 2, 2)       # 1 + (-1)^2 = 2
        assert not eval_matches(poly(0, 1), 2, 1, 1)  # q(-1) = -1

    def test_power_zero_is_value_at_one(self):
        for coeffs in ((1, 2, 3), (0, -1, 0, 5), (7,)):
            f = poly(*coeffs)
            for r in (1, 2, 3, 5, 8):
                assert eval_matches(f, r, 0, sum(f.coeffs))
                assert not eval_matches(f, r, 0, sum(f.coeffs) + 1)

    def test_periodicity_in_d(self):
        f = poly(2, 0, 0, 1, 4)
        for d in range(12):
            assert eval_matches(f, 4, d, 0) == eval_matches(f, 4, d % 4, 0)


class TestTypeAPolynomial:
    def test_a1_four_factors(self):
        seq = WeightSequence(A1, (W,) * 4)
        assert type_a_csp_polynomial(seq) == poly(0, 0, 0, 0, 1, 0, 1)  # q^4 + q^6

    def test_a2_column(self):
        seq = WeightSequence(A2, ((1, 0),) * 3)
        assert type_a_csp_polynomial(seq) == poly(0, 0, 0, 0, 0, 0, 1)  # q^6

    def test_prefactor_exponent_is_rho_pairing(self):
        from minuscule.kostka import kostka_foulkes
        for seq in (WeightSequence(A1, (W,) * 6),
                    WeightSequence(A2, ((1, 0), (0, 1), (1, 0), (0, 1))),
                    WeightSequence(A3, ((0, 1, 0),) * 4)):
            n = seq.rs.rank + 1
            content = tuple(w.index(1) + 1 for w in seq.weights)
            shape = (n,) * (sum(content) // n)
            shift = two_rho_pairing(seq.rs, seq.total()) // 2
            assert type_a_csp_polynomial(seq) == kostka_foulkes(shape, content).shift(shift)

    def test_exponent_identity_holds_on_every_content(self):
        # linear in the weights: omega_i pairs with 2 rho_vee to i(n - i)
        for rs in (A1, A2, A3):
            for i in range(1, rs.rank + 1):
                lam = rs.fundamental_weight(i)
                for m in range(1, 4):
                    doubled, pairing = exponent_identity(WeightSequence(rs, (lam,) * m))
                    assert doubled == pairing == m * i * (rs.rank + 1 - i)

    def test_exponent_identity_outside_type_a_names_the_identity(self):
        (d4,) = [seq for seq in battery.standard_battery() if seq.rs.family == "D"]
        assert str(d4.rs) == "D4" and d4.weights == (d4.rs.fundamental_weight(1),) * 4
        with pytest.raises(TypeMismatch) as caught:
            exponent_identity(d4)
        assert str(caught.value) == "the exponent identity needs type-A content, got D4"
        # the automatic polynomial keeps its own refusal
        with pytest.raises(TypeMismatch, match="^no automatic sieving polynomial for D4$"):
            type_a_csp_polynomial(d4)

    def test_one_exponent_identity_serves_polynomial_and_suite(self, monkeypatch):
        monkeypatch.setattr(csp, "exponent_identity", lambda seq: (2, 0))
        with pytest.raises(AlgorithmInvariantViolated):
            type_a_csp_polynomial(WeightSequence(A1, (W,) * 4))
        assert not battery.suite_exponent_identity(battery.quick_battery()).passed

    def test_rejects_incompatible_content(self):
        with pytest.raises(NotInRootLattice):
            type_a_csp_polynomial(WeightSequence(A1, (W,) * 3))
        bad = WeightSequence(A2, ((1, 0), (1, 0), (0, 1)) * 2)
        with pytest.raises(NotInRootLattice):
            type_a_csp_polynomial(bad)

    def test_value_at_one_counts_paths(self):
        from minuscule.paths import enumerate_paths
        for seq in (WeightSequence(A1, (W,) * 8),
                    WeightSequence(A3, ((1, 0, 0), (0, 0, 1)) * 2)):
            assert sum(type_a_csp_polynomial(seq).coeffs) == len(enumerate_paths(seq))


class TestCspCheck:
    def test_a1_four(self):
        report = csp_check(WeightSequence(A1, (W,) * 4), 1)
        assert report.fixed_counts == (2, 0, 2, 0)
        assert report.verdict == "pass"
        assert all(report.evaluations_ok)
        assert report.sign_diagnostic == -1

    def test_a1_two(self):
        report = csp_check(WeightSequence(A1, (W, W)), 1)
        assert report.fixed_counts == (1, 1) and report.verdict == "pass"

    def test_a1_six_matches_orbit_structure(self):
        seq = WeightSequence(A1, (W,) * 6)
        report = csp_check(seq, 1)
        assert report.verdict == "pass"
        assert report.fixed_counts == orbit_structure(seq, 1).fixed_counts

    def test_every_valid_shift(self):
        seq = WeightSequence(A2, ((1, 0), (0, 1), (1, 0), (0, 1)))
        with pytest.raises(SequenceNotPeriodic):
            csp_check(seq, 1)
        for ell in (2, 4):
            assert csp_check(seq, ell).verdict == "pass"

    @pytest.mark.parametrize("ell", [True, 1.0, "1"])
    def test_an_ell_that_is_not_an_int_is_not_a_period(self, ell):
        with pytest.raises(SequenceNotPeriodic, match="is not a period"):
            csp_check(WeightSequence(A1, (W,) * 4), ell)

    def test_wrong_polynomial_fails_cleanly(self):
        report = csp_check(WeightSequence(A1, (W,) * 4), 1, poly(2))
        assert report.verdict == "fail"
        assert report.evaluations_ok == (True, False, True, False)

    def test_supplied_polynomial_outside_type_a(self):
        d4 = build_root_system("D", 4)
        seq = WeightSequence(d4, (d4.fundamental_weight(1),) * 4)
        with pytest.raises(TypeMismatch, match="no automatic sieving polynomial for D4"):
            csp_check(seq, 1)
        counts = orbit_structure(seq, 1).fixed_counts
        # a constant polynomial verifies iff every power has that many fixed points
        report = csp_check(seq, 1, poly(counts[0]))
        expected = tuple(c == counts[0] for c in counts)
        assert report.evaluations_ok == expected

    def test_instance_requires_root_lattice(self):
        bad = WeightSequence(A2, ((1, 0), (1, 0), (0, 1)) * 2)
        with pytest.raises(NotInRootLattice):
            csp_check(bad, 3, poly(0))

    @pytest.mark.parametrize("supplied", [None, poly(1)], ids=["automatic", "supplied"])
    def test_the_lattice_is_refused_before_the_period(self, supplied):
        # ell = 2 is no period of 3 steps, but both routes refuse the lattice first
        with pytest.raises(NotInRootLattice) as refused:
            csp_check(WeightSequence(A1, (W,) * 3), 2, supplied)
        assert str(refused.value) == "total weight outside the root lattice; the instance is empty"

    @pytest.mark.parametrize("supplied", [None, poly(1)], ids=["automatic", "supplied"])
    def test_the_period_is_refused_before_the_charge_cap(self, supplied):
        # the automatic polynomial of (omega_1, omega_2)^20 is past the charge
        # cap, but ell = 1 is no period, and both routes refuse that first
        seq = WeightSequence(A2, ((1, 0), (0, 1)) * 20)
        with pytest.raises(SequenceNotPeriodic) as refused:
            csp_check(seq, 1, supplied)
        assert str(refused.value) == "ell=1 is not a period; the periods are (2, 4, 8, 10, 20, 40)"
        with pytest.raises(EnumerationTooLarge, match="charge count"):
            type_a_csp_polynomial(seq)

    @pytest.mark.parametrize("f", [[0, 0, 1, 0, 1], (0, 0, 1, 0, 1), 2, "q^2 + q^4", None],
                             ids=["list", "tuple", "int", "str", "None"])
    def test_a_polynomial_must_be_an_intpolynomial(self, f, monkeypatch):
        # these raised AttributeError on coeffs, csp_check only after every
        # path had been enumerated and rotated
        with pytest.raises(TypeError, match="must be an IntPolynomial"):
            eval_matches(f, 4, 1, 0)
        if f is None:
            return  # csp_check reads None as the automatic polynomial

        def not_reached(*args):
            raise AssertionError("orbit_structure was called")
        monkeypatch.setattr(csp, "orbit_structure", not_reached)
        with pytest.raises(TypeError, match="must be an IntPolynomial"):
            csp_check(WeightSequence(A1, (W,) * 4), 1, f)

    def test_supplied_polynomial_refused_without_a_search(self):
        # 41 A1 steps: outside the root lattice, and far too many to search
        with pytest.raises(NotInRootLattice):
            csp_check(WeightSequence(A1, (W,) * 41), 1, poly(1))

    def test_path_cap_refuses_a1_twenty_eight_steps(self):
        # the 2,674,440 paths are past the enumeration cap, which is tested
        # before the Kostka-Foulkes count of (2^14)
        with pytest.raises(EnumerationTooLarge):
            csp_check(WeightSequence(A1, (W,) * 28), 1)

    def test_report_schema(self):
        report = csp_check(WeightSequence(A1, (W,) * 4), 2)
        data = json.loads(json.dumps(report.to_json_dict()))
        assert set(data) == {"r", "ell", "fixed_counts", "polynomial",
                             "evaluations_ok", "sign_diagnostic", "verdict"}
        assert data["r"] == 2 and data["ell"] == 2
        assert data["verdict"] == "pass"
        assert isinstance(report, CSPReport)

    def test_sign_diagnostic_tracks_window(self):
        # window omega: pairing 1, odd
        assert csp_check(WeightSequence(A1, (W, W)), 1).sign_diagnostic == -1
        # window omega+omega: pairing 2, even
        assert csp_check(WeightSequence(A1, (W,) * 4), 2).sign_diagnostic == 1
