"""The record classes: constructors, equality, hashing, immutability and
validation, as the package's callers rely on them."""
import copy
import pickle

import pytest

from minuscule.battery import SuiteResult
from minuscule.crystals import TensorCrystalElement
from minuscule.csp import CSPInstance, CSPReport
from minuscule.errors import InvalidPath, InvalidSequence, InvalidTableau
from minuscule.paths import LittelmannPath, OrbitStructure, WeightSequence
from minuscule.poly import IntPolynomial
from minuscule.rootsys import RootSystem
from minuscule.tableaux import RowStrictTableau

from support import A1, A2

SEQ = WeightSequence(A2, ((1, 0), (0, 1)))
OTHER_SEQ = WeightSequence(A1, ((1,), (1,)))
PATH = LittelmannPath(SEQ, ((1, 0), (0, 0)))
OTHER_PATH = LittelmannPath(OTHER_SEQ, ((1,), (0,)))
POLY = IntPolynomial((0, 1))


def rs_fields(rs):
    return (rs.family, rs.rank, rs.cartan, rs.positive_coroots, rs.two_rho_covector,
            rs.simple_roots, rs.columns, rs.duals, rs.dual_words, rs.lattice)


# each class: its field names in constructor order, the fields of one
# record, and the fields of a record that differs from it
RECORDS = {
    RootSystem: (("family", "rank", "cartan", "positive_coroots", "two_rho_covector",
                  "simple_roots", "columns", "duals", "dual_words", "lattice"),
                 rs_fields(A2), rs_fields(A1)),
    WeightSequence: (("rs", "weights"), (A2, ((1, 0), (0, 1))), (A2, ((0, 1), (1, 0)))),
    LittelmannPath: (("seq", "points"), (SEQ, ((1, 0), (0, 0))), (OTHER_SEQ, ((1,), (0,)))),
    OrbitStructure: (("seq", "ell", "r", "orbits", "fixed_counts"),
                     (SEQ, 2, 1, ((PATH,),), (1,)), (OTHER_SEQ, 2, 1, ((OTHER_PATH,),), (1,))),
    TensorCrystalElement: (("seq", "factors"), (SEQ, ((1, 0), (0, 1))), (SEQ, ((1, 0), (1, -1)))),
    RowStrictTableau: (("rows",), (((1, 2), (3, 4)),), (((1, 3), (2, 4)),)),
    CSPInstance: (("seq", "ell", "r", "poly"), (SEQ, 2, 1, POLY), (SEQ, 2, 1, IntPolynomial((1,)))),
    CSPReport: (("instance", "fixed_counts", "evaluations_ok", "sign_diagnostic"),
                (CSPInstance(SEQ, 2, 1, POLY), (1,), (True,), 1),
                (CSPInstance(SEQ, 2, 1, POLY), (1,), (False,), 1)),
    SuiteResult: (("name", "checks", "failures"), ("counting", 3, []),
                  ("counting", 3, ["case"])),
    IntPolynomial: (("coeffs",), ((0, 1),), ((1,),)),
}
CLASSES = list(RECORDS)


# a polynomial keeps its text repr, which the doctest in poly pins
@pytest.mark.parametrize("cls", [cls for cls in CLASSES if cls is not IntPolynomial],
                         ids=lambda cls: cls.__name__)
def test_construction_by_position_and_by_keyword(cls):
    names, fields, _ = RECORDS[cls]
    by_position = cls(*fields)
    by_keyword = cls(**dict(zip(names, fields)))
    for record in (by_position, by_keyword):
        assert tuple(getattr(record, name) for name in names) == fields
    assert repr(by_position) == repr(by_keyword) == "{}({})".format(
        cls.__name__, ", ".join(f"{name}={value!r}" for name, value in zip(names, fields)))


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if cls is not RootSystem],
                         ids=lambda cls: cls.__name__)
def test_equality_compares_the_fields_of_one_class(cls):
    _, fields, other = RECORDS[cls]
    a, b, c = cls(*fields), cls(*fields), cls(*other)
    assert a == b and not a != b
    assert a != c and not a == c
    # a record is no tuple: it neither equals its fields nor iterates
    assert a != fields and fields != a
    assert a.__eq__(fields) is NotImplemented
    with pytest.raises(TypeError):
        iter(a)
    if cls is SuiteResult:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(fields)


def test_a_root_system_equals_only_itself():
    _, fields, _ = RECORDS[RootSystem]
    a, b = RootSystem(*fields), RootSystem(*fields)
    assert a == a and a != b and a != A2
    assert hash(a) == object.__hash__(a)
    assert {a: 1, b: 2, A2: 3}[A2] == 3


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if cls is not SuiteResult],
                         ids=lambda cls: cls.__name__)
def test_a_frozen_record_refuses_assignment(cls):
    names, fields, other = RECORDS[cls]
    record = cls(*fields)
    with pytest.raises(AttributeError):
        setattr(record, names[0], other[0])
    with pytest.raises(AttributeError):
        delattr(record, names[0])
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, names[0]) == fields[0]


def test_a_suite_result_is_mutable():
    result = SuiteResult("counting", 3)
    assert result.passed
    result.fail("case")
    result.checks += 1
    assert result == SuiteResult("counting", 4, ["case"]) and not result.passed
    with pytest.raises(AttributeError):
        result.passed = True
    assert SuiteResult("x").failures is not SuiteResult("x").failures
    assert SuiteResult("x") == SuiteResult("x", 0, [])


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_no_record_has_an_instance_dict(cls):
    _, fields, _ = RECORDS[cls]
    assert not hasattr(cls(*fields), "__dict__")


@pytest.mark.parametrize("cls", [cls for cls in CLASSES if cls is not RootSystem],
                         ids=lambda cls: cls.__name__)
def test_pickle_and_copy_keep_a_record(cls):
    _, fields, _ = RECORDS[cls]
    record = cls(*fields)
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert clone == record and clone.__class__ is cls


@pytest.mark.parametrize("cls,args,error", [
    (WeightSequence, (A2, ((1, 1),)), InvalidSequence),
    (WeightSequence, (A2, ()), InvalidSequence),
    (WeightSequence, (A2, [[1.0, 0]]), InvalidSequence),
    (LittelmannPath, (SEQ, ((1, 0), (1, 1))), InvalidPath),
    (LittelmannPath, (SEQ, ((1, 0),)), InvalidPath),
    (LittelmannPath, (SEQ, [[1, 0], [0, True]]), InvalidPath),
    (TensorCrystalElement, (SEQ, ((1, 0), (1, 0))), InvalidPath),
    (TensorCrystalElement, (SEQ, ((1, 0),)), InvalidPath),
    (TensorCrystalElement, (SEQ, "ab"), InvalidPath),
    (RowStrictTableau, ([[2, 1]],), InvalidTableau),
    (RowStrictTableau, ([[1, 4], [5, 6], [2, 3]],), InvalidTableau),
    (RowStrictTableau, ([],), InvalidTableau),
], ids=lambda x: x.__name__ if isinstance(x, type) else "")
def test_the_public_constructors_validate(cls, args, error):
    with pytest.raises(error):
        cls(*args)


@pytest.mark.parametrize("cls,args", [
    (WeightSequence, (A2, [[1, 0], [0, 1]])),
    (LittelmannPath, (SEQ, [[1, 0], [0, 0]])),
    (TensorCrystalElement, (SEQ, [[1, 0], [0, 1]])),
    (RowStrictTableau, ([[1, 2], [3, 4]],)),
], ids=lambda x: x.__name__ if isinstance(x, type) else "")
def test_trusted_records_equal_the_checked_ones(cls, args):
    checked = cls(*args)
    normalised = tuple(tuple(map(tuple, a)) if isinstance(a, list) else a for a in args)
    trusted = cls._trusted(*normalised)
    assert trusted == checked and hash(trusted) == hash(checked)
    assert trusted.__class__ is cls and not hasattr(trusted, "__dict__")
