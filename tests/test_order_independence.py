"""No result may depend on the order a formula's clause set iterates in.

Each formula of a corpus with tautologies, duplicates and the empty clause is
taken as a plain frozenset, as ``Clauses`` in the frozenset's order, in the
reverse of it and in a seeded shuffle, with duplicates fed in again; every
function below must give identical results on all four."""

import random

from conftest import corpus, unit_pinned
from fpcsat.cardinality import preprocess, profile
from fpcsat.core import Clauses, Formula, is_tautology, normalize, variables_of
from fpcsat.dimacs import write_dimacs
from fpcsat.instances import complete_minus_one
from fpcsat.oracle import brute_force_sat, condition_check
from fpcsat.solver import check_sat
from test_solve_digest import CONFIGS


def variants(f):
    """``f`` itself, then ``f`` as ``Clauses`` in three orders."""
    given = list(f.clauses)
    shuffled = given[:]
    random.Random(len(given)).shuffle(shuffled)
    yield f
    for order in (given, given[::-1], shuffled):
        # the duplicates come again after their first occurrence
        yield Formula(Clauses(order + order[::3]), f.original_count)


def solved(f, cfg):
    r = check_sat(f, cfg)
    return r.verdict, list(r.order), list(r.entries), r.stats._replace(elapsed_time=0.0)


def results(f):
    return (
        [solved(f, cfg) for cfg in CONFIGS],
        normalize(f),
        profile(f),
        preprocess(f),
        write_dimacs(f),
        brute_force_sat(f),
        condition_check(f),
        variables_of(f),
    )


def order_corpus():
    """The random corpus, plus formulas on which one FPC survives a class
    boundary, so that ``check_sat``'s boundary test runs."""
    formulas = list(corpus(seed=25, count=150, n_max=10, m_factor=4,
                           tautology_prob=0.2, empty_clause_prob=0.01, duplicate_prob=0.2))
    formulas += unit_pinned(seed=25, count=20)
    formulas += map(complete_minus_one, range(1, 6))
    return formulas


def test_corpus_has_tautologies_duplicates_and_the_empty_clause():
    formulas = order_corpus()
    assert any(any(map(is_tautology, f.clauses)) for f in formulas)
    assert any(normalize(f).duplicates_removed for f in formulas)
    assert any(normalize(f).has_empty_clause for f in formulas)
    assert any(check_sat(f).verdict == "SAT" for f in formulas)


def test_results_do_not_depend_on_clause_order():
    for f in order_corpus():
        expected = results(f)
        for g in variants(f):
            assert g.clauses == f.clauses
            assert results(g) == expected
