import contextlib
import gc
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import clauses
from fpcsat.core import (
    EMPTY_CLAUSE,
    Formula,
    TautologyError,
    UnassignedVariableError,
    are_siblings,
    clause,
    evaluate_clause,
    evaluate_formula,
    gc_paused,
    is_fully_populated,
    is_tautology,
    normalize,
    variables_of,
)


def fs(*lits):
    return frozenset(lits)


def test_clause_rejects_zero():
    with pytest.raises(ValueError):
        clause([1, 0])


def test_is_tautology():
    assert is_tautology(fs(1, -1))
    assert not is_tautology(fs(1, 2, -3))
    assert not is_tautology(EMPTY_CLAUSE)


def test_evaluate_clause():
    assert evaluate_clause(fs(1, 2), {1: True, 2: False})
    assert not evaluate_clause(fs(1, 2), {1: False, 2: False})
    assert not evaluate_clause(EMPTY_CLAUSE, {})
    assert not evaluate_clause(EMPTY_CLAUSE, {1: True})


def test_evaluate_clause_unassigned():
    with pytest.raises(UnassignedVariableError):
        evaluate_clause(fs(1, 2), {1: False})


def test_evaluate_formula():
    f = Formula.from_clauses([[-1], [1, -2]])
    assert evaluate_formula(f, {1: False, 2: False})
    assert not evaluate_formula(Formula.from_clauses([[], [1]]), {1: True})
    assert evaluate_formula(Formula.from_clauses([]), {})


def test_evaluate_formula_requires_totality():
    f = Formula.from_clauses([[1], [2]])
    with pytest.raises(UnassignedVariableError):
        evaluate_formula(f, {1: True})


def test_variables_of():
    assert variables_of(Formula.from_clauses([[1, -2]])) == fs(1, 2)
    assert variables_of(Formula.from_clauses([[3], [-1]])) == fs(1, 3)
    assert variables_of(Formula.from_clauses([])) == frozenset()


def test_is_fully_populated():
    assert is_fully_populated(fs(1, -2), fs(1, 2))
    assert not is_fully_populated(fs(1), fs(1, 2))
    assert not is_fully_populated(fs(1, 2, 3), fs(1, 2))
    assert is_fully_populated(EMPTY_CLAUSE, frozenset())


def test_is_fully_populated_rejects_tautology():
    with pytest.raises(TautologyError):
        is_fully_populated(fs(1, -1), fs(1))


def test_are_siblings():
    v = fs(1, 2)
    assert are_siblings(fs(-1, 2), fs(1, -2), v)
    assert not are_siblings(fs(1, 2), fs(1, 2), v)
    assert not are_siblings(fs(1), fs(1, -2), v)
    # tautology inputs are simply not siblings, no error
    assert not are_siblings(fs(1, -1), fs(1, 2), v)


def test_formula_dedup_and_original_count():
    f = Formula.from_clauses([[1], [1]])
    assert len(f.clauses) == 1
    assert f.original_count == 2


def test_formula_is_an_immutable_value():
    f = Formula.from_clauses([[1, -2], [3]])
    g = Formula(clauses=frozenset({fs(3), fs(-2, 1)}), original_count=2)
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1
    assert f != Formula(clauses=f.clauses, original_count=3)
    assert f != Formula.from_clauses([[1, -2]])
    for name, value in (("clauses", frozenset()), ("original_count", 0), ("extra", 1)):
        with pytest.raises(AttributeError):
            setattr(f, name, value)
    with pytest.raises(AttributeError):
        del f.clauses
    assert f == g
    assert repr(g) == f"Formula(clauses={g.clauses!r}, original_count=2)"
    assert pickle.loads(pickle.dumps(f)) == f


def test_normalize_reports():
    report = normalize(Formula.from_clauses([[1], [1]]))
    assert report.duplicates_removed == 1
    assert not report.tautologies
    assert not report.has_empty_clause

    report = normalize(Formula.from_clauses([[1, -1], [2]]))
    assert report.tautologies == (fs(1, -1),)
    assert not report.has_empty_clause

    report = normalize(Formula.from_clauses([[], [1]]))
    assert report.has_empty_clause


@given(clauses(max_var=6), st.data())
def test_false_clause_has_all_literals_false(c, data):
    # draw a total assignment over the clause's variables
    a = data.draw(
        st.fixed_dictionaries({abs(lit): st.booleans() for lit in c})
    )
    if not evaluate_clause(c, a):
        assert all(a[abs(lit)] != (lit > 0) for lit in c)


@settings(max_examples=300)
@given(clauses(max_var=6), st.data())
def test_subset_of_false_clause_is_false(c, data):
    a = data.draw(st.fixed_dictionaries({abs(lit): st.booleans() for lit in c}))
    if evaluate_clause(c, a):
        return
    subset = data.draw(st.sets(st.sampled_from(sorted(c)) if c else st.nothing()))
    assert not evaluate_clause(frozenset(subset), a)


@pytest.fixture
def collector():
    """Restore the collector's state after the test, whatever it leaves."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_paused_restores_the_collector_state(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    with gc_paused():
        assert not gc.isenabled()
    assert gc.isenabled() == enabled
    with pytest.raises(ZeroDivisionError):
        with gc_paused():
            1 / 0
    assert gc.isenabled() == enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_gc_paused_as_a_decorator(collector, enabled):
    @gc_paused()
    def build(fail):
        if fail:
            raise ValueError("no clauses")
        return gc.isenabled()

    (gc.enable if enabled else gc.disable)()
    assert build(False) is False
    assert gc.isenabled() == enabled
    with pytest.raises(ValueError):
        build(True)
    assert gc.isenabled() == enabled
    # each call pauses afresh
    assert build(False) is False
    assert gc.isenabled() == enabled


def build_in_gc_paused(fail: bool) -> list:
    """5,000 frozensets made inside ``gc_paused()``, whose block raises
    ``ZeroDivisionError`` (caught here) if ``fail``."""
    built = []
    with pytest.raises(ZeroDivisionError) if fail else contextlib.nullcontext():
        with gc_paused():
            built.extend(frozenset((i, -i - 1)) for i in range(5000))
            if fail:
                1 / 0
    return built


def tracked_ids(*generations: int) -> set[int]:
    return {id(o) for g in generations for o in gc.get_objects(generation=g)}


@pytest.mark.parametrize("fail", [False, True])
def test_gc_paused_hands_what_it_built_to_the_oldest_generation(collector, fail):
    if gc.get_freeze_count():
        # CPython 3.12.1 starts with tuples frozen, and then there is no handoff
        pytest.skip("objects were frozen before the test")
    gc.enable()
    built = build_in_gc_paused(fail)
    assert gc.get_freeze_count() == 0
    ids = set(map(id, built))
    assert not ids & tracked_ids(0, 1)
    assert ids <= tracked_ids(2)


@pytest.mark.parametrize("fail", [False, True])
def test_gc_paused_leaves_a_callers_frozen_objects_frozen(collector, fail):
    gc.enable()
    kept = [frozenset((i, -i - 1)) for i in range(100)]
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen >= len(kept)
        build_in_gc_paused(fail)
        assert gc.get_freeze_count() == frozen
        assert not set(map(id, kept)) & tracked_ids(0, 1, 2)
    finally:
        gc.unfreeze()
