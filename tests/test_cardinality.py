import pytest
from hypothesis import given, settings

from conftest import corpus, formulas
from fpcsat.cardinality import (
    IndicatorVectors,
    PreprocessReport,
    VariableCounts,
    check_tautology_clauses,
    count_either,
    count_neg,
    count_pos,
    eval_f,
    literal_counts,
    preprocess,
    profile,
    scan_count_either,
    scan_count_neg,
    scan_count_pos,
    total_clauses,
)
from fpcsat.core import Formula, is_tautology, variables_of
from fpcsat.oracle import brute_force_sat, complete_formula, enumerate_fpcs, power_set

# (x1 v x2 v -x3) ^ (-x1 v x2 v x3): two clauses sharing x2, mirrored on x1/x3
PAIR = Formula.from_clauses([[1, 2, -3], [-1, 2, 3]])


def fs(*lits):
    return frozenset(lits)


def test_eval_f_counts_clauses():
    ones = IndicatorVectors.ones(variables_of(PAIR))
    assert eval_f(PAIR, ones) == 2

    zero_first = IndicatorVectors.ones(variables_of(PAIR))
    zero_first.x[1] = 0
    assert eval_f(PAIR, zero_first) == 1


def test_eval_f_empty_clause_counts_one():
    f = Formula.from_clauses([[], [1]])
    assert eval_f(f, IndicatorVectors.ones(variables_of(f))) == 2


def test_eval_f_requires_coverage():
    with pytest.raises(KeyError):
        eval_f(PAIR, IndicatorVectors(x={1: 1}, xc={1: 1}))


@given(formulas(max_var=6))
def test_all_ones_equals_clause_count(f):
    assert total_clauses(f) == len(f.clauses)


def test_total_clauses_examples():
    assert total_clauses(PAIR) == 2
    assert total_clauses(Formula.from_clauses([])) == 0
    assert total_clauses(complete_formula(fs(1, 2))) == 9


def test_counts_on_pair():
    assert count_pos(PAIR, 1) == 1
    assert count_neg(PAIR, 1) == 1
    assert count_either(PAIR, 1) == 2


def test_counts_absent_variable():
    assert count_pos(PAIR, 9) == 0
    assert count_neg(PAIR, 9) == 0
    assert count_either(PAIR, 9) == 0


def test_counts_with_both_polarities_in_one_clause():
    f = Formula.from_clauses([[1, -1, 2]])
    assert count_pos(f, 1) == 1
    assert count_neg(f, 1) == 1
    assert count_either(f, 1) == 1


def test_check_tautology_clauses():
    assert check_tautology_clauses(Formula.from_clauses([[1, -1, 2]]))
    assert not check_tautology_clauses(PAIR)
    assert not check_tautology_clauses(Formula.from_clauses([]))


@settings(deadline=None)
@given(formulas(max_var=7, max_clauses=12, max_size=5))
def test_function_counts_agree_with_scans(f):
    for i in sorted(variables_of(f)):
        assert count_pos(f, i) == scan_count_pos(f, i)
        assert count_neg(f, i) == scan_count_neg(f, i)
        assert count_either(f, i) == scan_count_either(f, i)
    assert check_tautology_clauses(f) == any(is_tautology(c) for c in f.clauses)


def test_profile_invariants():
    for f in corpus(seed=23, count=120, n_max=8):
        prof = profile(f)
        assert prof.total == len(f.clauses)
        for i, counts in prof.per_variable.items():
            assert counts.n_pos + counts.n_neg >= counts.n_either
            both = any(i in c and -i in c for c in f.clauses)
            assert (counts.n_pos + counts.n_neg > counts.n_either) == both


def test_profile_agrees_with_counting_function():
    # the c7 corpus of tests/test_acceptance.py
    for f in corpus(seed=700, count=600, n_max=10):
        prof = profile(f)
        variables = sorted(variables_of(f))
        assert sorted(prof.per_variable) == variables
        for i in variables:
            assert prof.per_variable[i] == VariableCounts(
                count_pos(f, i), count_neg(f, i), count_either(f, i)
            )
        assert prof.total == total_clauses(f)
        assert prof.n == len(variables)
        assert prof.n_effective == sum(1 for c in f.clauses if not is_tautology(c))


def reference_preprocess(f: Formula) -> PreprocessReport:
    """preprocess with every count taken from the counting function."""
    variables = sorted(variables_of(f))
    n = len(variables)
    effective = [c for c in f.clauses if not is_tautology(c)]
    has_tautology = check_tautology_clauses(f)
    general_bound = (1 << (2 * n)) - (1 << n)
    effective_bound = None if has_tautology else 3**n - 2**n
    var_bound = 3 ** (n - 1) - 2 ** (n - 1) if n >= 1 else 0
    effective_formula = Formula(clauses=frozenset(effective), original_count=len(effective))
    unsat_vars, forced = [], []
    for i in variables:
        pos = count_pos(effective_formula, i)
        neg = count_neg(effective_formula, i)
        if min(pos, neg) > var_bound:
            unsat_vars.append(i)
        elif pos <= var_bound < neg:
            forced.append((i, False))
        elif neg <= var_bound < pos:
            forced.append((i, True))
    return PreprocessReport(
        n=n,
        effective_count=len(effective),
        has_tautology=has_tautology,
        effective_bound=effective_bound,
        general_bound=general_bound,
        unsat_by_total_bound=effective_bound is not None and len(effective) > effective_bound,
        unsat_by_general_bound=len(f.clauses) > general_bound,
        unsat_by_variable_bound=tuple(unsat_vars),
        forced_literals=tuple(forced),
    )


def test_preprocess_agrees_with_counting_function():
    fired = 0
    for f in corpus(seed=700, count=600, n_max=10):
        report = preprocess(f)
        assert report == reference_preprocess(f)
        fired += bool(report.forced_literals or report.unsat_by_variable_bound)
    assert fired  # the corpus exercises the per-variable rules
    # complete formulas hit the variable bound on every variable
    fn = complete_formula(frozenset(range(1, 4)))
    assert preprocess(fn) == reference_preprocess(fn)
    assert preprocess(fn).unsat_by_variable_bound == (1, 2, 3)


def test_literal_counts():
    literals, either, tautologies = literal_counts(
        Formula.from_clauses([[1, -2], [1, -1, 3], [-1], []])
    )
    assert dict(literals) == {1: 2, -1: 2, -2: 1, 3: 1}
    assert dict(either) == {1: 3, 2: 1, 3: 1}
    assert tautologies == [fs(1, -1, 3)]


def test_counting_theorems_on_complete_formula():
    for n in range(1, 7):
        v = frozenset(range(1, n + 1))
        fn = complete_formula(v)
        assert len(fn.clauses) == 3**n
        for i in sorted(v):
            assert count_pos(fn, i) == 3 ** (n - 1)
            assert count_neg(fn, i) == 3 ** (n - 1)
            null_count = total_clauses(fn) - count_either(fn, i)
            assert null_count == 3 ** (n - 1)


def test_counting_theorem_on_fpc_power_set():
    for n in range(1, 7):
        v = frozenset(range(1, n + 1))
        fpc = enumerate_fpcs(v)[0]  # the all-positive one
        clauses = power_set(fpc)
        f = Formula(clauses=frozenset(clauses), original_count=len(clauses))
        for i in sorted(v):
            assert count_pos(f, i) == 2 ** (n - 1)
            null_count = total_clauses(f) - count_either(f, i)
            assert null_count == 2 ** (n - 1)


def test_preprocess_total_bound():
    # n=1: two unit clauses exceed 3^1 - 2^1 = 1
    f = Formula.from_clauses([[1], [-1]])
    report = preprocess(f)
    assert report.unsat_by_total_bound
    assert not brute_force_sat(f, collect_models=False).satisfiable


def test_preprocess_forced_literal():
    f = Formula.from_clauses([[1], [1, 2], [1, -2]])
    report = preprocess(f)
    assert report.forced_literals == ((1, True),)
    assert not report.proves_unsat
    models = brute_force_sat(f).models
    assert models and all(m[1] is True for m in models)


def test_preprocess_empty_formula():
    report = preprocess(Formula.from_clauses([]))
    assert not report.proves_unsat
    assert report.forced_literals == ()


def test_preprocess_empty_clause_formula():
    report = preprocess(Formula.from_clauses([[]]))
    assert report.unsat_by_total_bound  # 1 > 3^0 - 2^0 = 0


def test_preprocess_variable_bound_fires_only_when_unsat():
    # complete formula over 2 vars minus nothing: every count is maximal
    fn = complete_formula(fs(1, 2))
    report = preprocess(fn)
    assert report.proves_unsat
    assert not brute_force_sat(fn, collect_models=False).satisfiable


def test_preprocess_sound_against_oracle():
    for f in corpus(seed=29, count=400, n_max=10):
        report = preprocess(f)
        result = brute_force_sat(f)
        if report.proves_unsat:
            assert not result.satisfiable
        for var, value in report.forced_literals:
            assert all(m[var] == value for m in result.models)

