"""The contract of the package's value types: equality, hash, immutability, repr, pickle and copy.

The types were frozen dataclasses; these tests pin what callers and caches
relied on then, including the hash of the field tuple and the reprs.
"""

import copy
import pickle

import pytest

from dirichletj.characters import AbelianField, DirichletCharacter, UnitGroupStructure, enumerate_characters, get_structure
from dirichletj.cli import RunReport
from dirichletj.exactalg import AbelianGroupExpr, InputError
from dirichletj.padic import PAdicCharacterData


def _samples() -> list:
    """One or more instances of every frozen value type."""
    return [
        get_structure(1),
        get_structure(40),
        enumerate_characters(40)[7],
        enumerate_characters(1)[0],
        AbelianGroupExpr.zero(),
        AbelianGroupExpr.cyclic(12) + AbelianGroupExpr.free(2) + AbelianGroupExpr.q_mod_z().away_from([2, 3]),
        PAdicCharacterData(5, 2, 3, 1),
        PAdicCharacterData(p=2, v=0, tame=0),
        AbelianField(13, (1, 3, 9)),
    ]


def _fields(x) -> tuple:
    return tuple(getattr(x, name) for name in x._fields)


def test_hash_is_the_hash_of_the_field_tuple_for_every_character_up_to_200():
    # The dataclass hash: hash((modulus, generators)) and hash((structure, exponents)).
    # Spelling the structure as its field tuple checks the character against the same rule.
    count = 0
    for N in range(1, 201):
        st = get_structure(N)
        assert hash(st) == hash((st.modulus, st.generators))
        for chi in enumerate_characters(N):
            assert hash(chi) == hash(((st.modulus, st.generators), chi.exponents))
            count += 1
    assert count == 12_232  # sum of phi(N) for N <= 200


@pytest.mark.parametrize("x", _samples(), ids=repr)
def test_hash_and_equality_follow_the_fields(x):
    twin = type(x)(*_fields(x))
    assert twin == x and not twin != x and hash(twin) == hash(x) == hash(_fields(x))


def test_different_classes_never_compare_equal():
    st = get_structure(5)
    field = AbelianField(st.modulus, st.generators)  # the same field tuple in another class
    assert _fields(field) == _fields(st) and hash(field) == hash(st)
    assert field != st and st != field
    assert st != (st.modulus, st.generators)
    assert AbelianGroupExpr.cyclic(2) != AbelianGroupExpr.cyclic(2).atoms
    assert PAdicCharacterData(5, 2, 3, 1) != (5, 2, 3, 1)


@pytest.mark.parametrize("x", _samples(), ids=repr)
def test_assignment_raises_attribute_error(x):
    for name in (*x._fields, "_hash", "new_attribute"):
        with pytest.raises(AttributeError):
            setattr(x, name, 0)
    with pytest.raises(AttributeError, match="cannot delete field"):
        delattr(x, x._fields[0])
    with pytest.raises(AttributeError, match="cannot assign to field"):
        setattr(x, x._fields[0], 0)


def test_reprs_are_the_dataclass_reprs():
    assert [repr(x) for x in _samples()] == [
        "UnitGroupStructure(modulus=1, generators=())",
        "UnitGroupStructure(modulus=40, generators=((2, 3, 31, 2), (2, 3, 21, 2), (5, 1, 17, 4)))",
        "DirichletCharacter(40:7)",
        "DirichletCharacter(1:0)",
        "AbelianGroupExpr('0')",
        "AbelianGroupExpr('Z^2 + Q/Z[1/6] + Z/4 + Z/3')",
        "PAdicCharacterData(p=5, v=2, tame=3, prime_to_p=1)",
        "PAdicCharacterData(p=2, v=0, tame=0, prime_to_p=None)",
        "AbelianField(conductor=13, subgroup=(1, 3, 9))",
    ]
    report = RunReport("demo", {"a": 1}, 3, 1, 1, 1, {"case": [2], "lhs": "Z/2"}, 1.5)
    assert repr(report) == (
        "RunReport(suite='demo', params={'a': 1}, run=3, passed=1, failed=1, findings=1, "
        "first_counterexample={'case': [2], 'lhs': 'Z/2'}, wall_time=1.5)"
    )


@pytest.mark.parametrize("roundtrip", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
                         ids=["pickle", "deepcopy", "copy"])
@pytest.mark.parametrize("x", _samples(), ids=repr)
def test_pickle_and_copy_round_trip(x, roundtrip):
    y = roundtrip(x)
    assert type(y) is type(x) and y == x and hash(y) == hash(x) and repr(y) == repr(x)
    if isinstance(x, DirichletCharacter):
        # The derived slots are rebuilt, not left empty.
        assert (y.order(), y._weights, y.modulus) == (x.order(), x._weights, x.modulus)
    if isinstance(x, UnitGroupStructure):
        assert y.orders == x.orders and y.phi() == x.phi()


def test_constructors_keep_their_validation():
    st = get_structure(40)
    with pytest.raises(InputError, match="exponent tuple has wrong length"):
        DirichletCharacter(st, (0, 0))
    with pytest.raises(InputError, match="reduced modulo generator orders"):
        DirichletCharacter(structure=st, exponents=(0, 0, 4))
    with pytest.raises(ValueError, match="tame exponent out of range"):
        PAdicCharacterData(5, 1, 4)
    with pytest.raises(ValueError, match="cyclic order must be positive"):
        AbelianGroupExpr.cyclic(0)
    assert AbelianGroupExpr() is not AbelianGroupExpr.zero() and AbelianGroupExpr() == AbelianGroupExpr.zero()


def test_run_report_is_immutable_and_unhashable():
    # A value of its eight fields; its params dict keeps it out of sets and dict keys.
    report = RunReport("demo", {"a": 1}, 2, 1, 1)
    with pytest.raises(AttributeError):
        report.run = 3
    with pytest.raises(AttributeError):
        del report.failed
    assert report.run == 2 and report == RunReport("demo", {"a": 1}, 2, 1, 1)
    assert report != RunReport("demo", {"a": 1}, 2, 2, 0) and RunReport("demo", {}) != RunReport("other", {})
    with pytest.raises(TypeError):
        hash(report)
    assert pickle.loads(pickle.dumps(report)) == report and RunReport._fields == RunReport.__slots__
