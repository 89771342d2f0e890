"""``core.Clauses``: a frozenset of clauses that iterates in build order, and
the constructors that return one.  Only the standard library is imported, so
the file also runs without pytest: ``python tests/test_clauses.py``."""

import copy
import pickle

from fpcsat.core import Clauses, effective_clauses, variables_of
from fpcsat.dimacs import parse_dimacs
from fpcsat.instances import complete_minus_one
from fpcsat.oracle import complete_formula, power_set

A, B, C, D = frozenset({1}), frozenset({-2, 3}), frozenset(), frozenset({2, -2})


def test_iteration_follows_first_occurrence():
    assert list(Clauses([B, A, C])) == [B, A, C]
    assert list(Clauses(iter([C, B, A]))) == [C, B, A]
    assert list(Clauses()) == []


def test_duplicates_keep_their_first_position():
    s = Clauses([B, A, B, C, A, B])
    assert list(s) == [B, A, C]
    assert len(s) == 3


def test_equality_and_hash_are_a_frozensets():
    s, plain = Clauses([B, A, C]), frozenset([A, B, C])
    assert s == plain and plain == s
    assert s == Clauses([C, B, A])
    assert hash(s) == hash(plain) == hash(Clauses([C, A, B]))
    assert s != frozenset([A, B])
    assert {s: 1}[plain] == 1
    assert A in s and D not in s


def test_set_operations_return_plain_frozensets():
    s = Clauses([B, A, C])
    for result in (
        s | {D}, s & {A}, s - {A}, s ^ {D},
        s.union([D]), s.intersection([A]), s.difference([A]),
        s.symmetric_difference([D]), s.copy(),
    ):
        assert type(result) is frozenset
    assert s - {A} == frozenset([B, C])


def test_pickle_and_copy_keep_type_and_order():
    s = Clauses([C, B, A, B])
    copies = [copy.copy(s), copy.deepcopy(s)]
    copies += [pickle.loads(pickle.dumps(s, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for d in copies:
        assert type(d) is Clauses
        assert list(d) == [C, B, A]
        assert d == s


def test_clauses_has_no_instance_dict():
    assert not hasattr(Clauses([A]), "__dict__")


def test_to_formula_keeps_file_order():
    f = parse_dimacs("p cnf 3 5\n-2 3 0\n1 0\n2 -2 0\n0\n3 -2 0\n").to_formula()
    assert type(f.clauses) is Clauses
    assert list(f.clauses) == [B, A, D, C]
    assert f.original_count == 5


def test_complete_formula_keeps_build_order():
    clauses = complete_formula(frozenset({1, 2})).clauses
    assert type(clauses) is Clauses
    expected = [(), (1,), (-1,), (2,), (1, 2), (-1, 2), (-2,), (1, -2), (-1, -2)]
    assert list(clauses) == list(map(frozenset, expected))


def test_complete_minus_one_keeps_the_complete_formulas_order():
    for n in range(5):
        f = complete_minus_one(n)
        v = frozenset(range(1, n + 1))
        complete = complete_formula(v).clauses
        assert type(f.clauses) is Clauses
        assert list(f.clauses) == [c for c in complete if c not in power_set(v)]
        assert f.clauses == complete - power_set(v)
        assert len(f.clauses) == f.original_count == 3**n - 2**n


def test_effective_clauses_keep_the_formulas_order():
    f = parse_dimacs("p cnf 3 4\n-2 3 0\n2 -2 0\n1 0\n0\n").to_formula()
    assert effective_clauses(f) == [B, A, C]


def test_variables_of_over_clauses():
    f = parse_dimacs("p cnf 3 4\n-2 3 0\n2 -2 0\n1 0\n0\n").to_formula()
    assert variables_of(f) == frozenset({1, 2, 3})
    assert variables_of(complete_minus_one(0)) == frozenset()


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    for name, fn in tests:
        fn()
    print(f"{len(tests)} passed")
