import hashlib
import itertools
import random

import pytest

from conftest import corpus, dpll_satisfiable
from fpcsat import oracle
from fpcsat.core import Formula, evaluate_formula, is_tautology, variables_of
from fpcsat.instances import complete_minus_one, pigeonhole, random_3sat
from fpcsat.oracle import (
    VariableLimitError,
    brute_force_sat,
    complete_formula,
    condition_check,
    enumerate_fpcs,
    falsified_fpc,
    power_set,
)


def fs(*lits):
    return frozenset(lits)


ILLUSTRATION = Formula.from_clauses([[-1, -2], [3], [-1], [1, -2, -3]])


def test_illustration_has_unique_model():
    result = brute_force_sat(ILLUSTRATION)
    assert result.satisfiable
    assert result.models == ({1: False, 2: False, 3: True},)
    assert result.falsified_fpc_per_model == (fs(-3, 1, 2),)


def test_empty_clause_unsat():
    assert not brute_force_sat(Formula.from_clauses([[]])).satisfiable


def test_empty_formula_sat_with_empty_model():
    result = brute_force_sat(Formula.from_clauses([]))
    assert result.satisfiable
    assert result.models == ({},)


def test_collect_models_flag():
    result = brute_force_sat(ILLUSTRATION, collect_models=False)
    assert result.satisfiable
    assert result.models == ()


def test_brute_force_respects_limit():
    f = Formula.from_clauses([[v] for v in range(1, 6)])
    with pytest.raises(VariableLimitError):
        brute_force_sat(f, limit_vars=4)


def test_explicit_variables_must_cover():
    with pytest.raises(ValueError):
        brute_force_sat(Formula.from_clauses([[1, 2]]), variables=frozenset({1}))


def test_enumerate_fpcs_order_and_counts():
    assert enumerate_fpcs(fs(1, 2)) == [fs(1, 2), fs(1, -2), fs(-1, 2), fs(-1, -2)]
    assert enumerate_fpcs(frozenset()) == [frozenset()]
    assert len(enumerate_fpcs(fs(1, 2, 3))) == 8
    for n in range(0, 11):
        assert len(enumerate_fpcs(frozenset(range(1, n + 1)))) == 2**n


def test_power_set():
    p = power_set(fs(1, -2))
    assert p == {frozenset(), fs(1), fs(-2), fs(1, -2)}
    for n in range(0, 8):
        assert len(power_set(frozenset(range(1, n + 1)))) == 2**n


def test_condition_check_examples():
    assert condition_check(Formula.from_clauses([[-1], [1, -2]])) == [fs(1, 2)]
    assert condition_check(
        Formula.from_clauses([]), variables=fs(1)
    ) == [fs(1), fs(-1)]
    all_fpcs = Formula.from_clauses(enumerate_fpcs(fs(1, 2)))
    assert condition_check(all_fpcs) == []


def test_condition_check_ignores_tautologies():
    f = Formula.from_clauses([[1, -1]])
    assert set(condition_check(f)) == {fs(1), fs(-1)}
    # variable 3 occurs only in a tautology, yet every FPC holds it
    f = Formula.from_clauses([[3, -3], [1, 2], [-1]])
    assert condition_check(f) == [fs(1, -2, 3), fs(1, -2, -3)]


def polarity_key(fpc):
    """enumerate_fpcs's order, stated on its own: by sign, variable by variable
    in ascending order, positive first."""
    return [lit < 0 for lit in sorted(fpc, key=abs)]


def explicit_variable_cases():
    """(formula, explicit variable set) pairs: the formula's own variables,
    and supersets holding variables the formula lacks."""
    only_in_tautology = [
        Formula.from_clauses([[3, -3], [1, 2], [-1]]),
        Formula.from_clauses([[1, -1]]),
        Formula.from_clauses([[2, -2, 4], [-4], [1]]),
    ]
    with_tautologies = corpus(seed=31, count=150, n_max=9, tautology_prob=0.3)
    for f in [*only_in_tautology, *with_tautologies]:
        v = variables_of(f)
        top = max(v, default=0)
        yield f, v
        yield f, v | {top + 1}
        yield f, v | {top + 2, top + 5}
    yield Formula.from_clauses([]), frozenset()
    yield Formula.from_clauses([]), fs(2, 7)
    yield Formula.from_clauses([[]]), fs(1, 3)


def test_condition_check_lists_the_fpcs_the_models_falsify_in_order():
    for f, v in explicit_variable_cases():
        falsified = brute_force_sat(f, variables=v).falsified_fpc_per_model
        expected = sorted(falsified, key=polarity_key)
        assert condition_check(f, variables=v) == expected
        if v == variables_of(f):
            assert condition_check(f) == expected


def test_condition_check_rejects_a_set_missing_a_formula_variable():
    f = Formula.from_clauses([[1, 2], [-3, 3]])
    for v in (fs(1), fs(1, 2), fs(2, 3, 4)):
        with pytest.raises(ValueError, match="cover"):
            condition_check(f, variables=v)


def test_condition_check_keeps_the_twenty_variable_limit():
    ten = frozenset(range(1, 11))
    assert len(condition_check(Formula.from_clauses([[1]]), variables=ten)) == 2**9
    wide = Formula.from_clauses([[v] for v in range(1, 22)])
    with pytest.raises(VariableLimitError):
        condition_check(wide)
    with pytest.raises(VariableLimitError):
        condition_check(Formula.from_clauses([]), variables=frozenset(range(1, 22)))


# brute_force_sat's listings and verdicts and condition_check's survivors for
# 146 formulas, each over its own variables and over a superset of them; a
# change meant to leave the oracle's output as it was leaves the digest as it is
ORACLE_DIGEST = "d0a4d060462562e053616eaaa6d980d15321465a6601d3664c04ae622ca19294"


def oracle_digest_corpus():
    for n in range(0, 7):
        yield complete_minus_one(n)
    yield from (pigeonhole(k) for k in range(1, 4))
    yield from corpus(seed=37, count=120, n_max=10, tautology_prob=0.2)
    rng = random.Random(37)
    for n in range(3, 11):
        for ratio in (1.5, 4.3):
            yield random_3sat(n, round(ratio * n), rng)


def oracle_digest():
    h = hashlib.sha256()
    for f in oracle_digest_corpus():
        v = variables_of(f)
        for variables in (None, v | {max(v, default=0) + 2}):
            r = brute_force_sat(f, variables=variables)
            quick = brute_force_sat(f, variables=variables, collect_models=False)
            survivors = condition_check(f, variables=variables)
            h.update(repr((
                r.satisfiable,
                [list(m.items()) for m in r.models],
                [sorted(c) for c in r.falsified_fpc_per_model],
                quick.satisfiable,
                quick.models,
                quick.falsified_fpc_per_model,
                [sorted(c) for c in survivors],
            )).encode())
    return h.hexdigest()


def test_oracle_digest_is_pinned():
    assert oracle_digest() == ORACLE_DIGEST


def test_complete_formula_matches_listing():
    f2 = complete_formula(fs(1, 2))
    assert f2.clauses == {
        fs(1, 2), fs(1, -2), fs(-1, 2), fs(-1, -2),
        fs(1), fs(-1), fs(2), fs(-2), frozenset(),
    }
    assert complete_formula(frozenset()).clauses == {frozenset()}
    assert len(complete_formula(fs(1, 2, 3)).clauses) == 27
    assert all(not is_tautology(c) for c in f2.clauses)


def reference_complete_formula(v):
    """Each clause from one choice of positive, negative or absent per variable."""
    ordered = sorted(v)
    return frozenset(
        frozenset(s * var for s, var in zip(choice, ordered) if s != 0)
        for choice in itertools.product((1, -1, 0), repeat=len(ordered))
    )


@pytest.mark.parametrize(
    "v", [frozenset(range(1, n + 1)) for n in range(8)] + [fs(2, 5, 9)]
)
def test_complete_formula_matches_product_reference(v):
    f = complete_formula(v)
    assert f.clauses == reference_complete_formula(v)
    assert f.original_count == len(f.clauses) == 3 ** len(v)


def test_complete_formula_keeps_its_limit():
    with pytest.raises(VariableLimitError):
        complete_formula(frozenset(range(1, 14)))


def test_complete_formula_is_union_of_fpc_power_sets():
    # every non-tautology clause over v is a subset of some FPC over v
    for n in range(0, 7):
        v = frozenset(range(1, n + 1))
        via_powersets = set()
        for fpc in enumerate_fpcs(v):
            via_powersets |= power_set(fpc)
        assert complete_formula(v).clauses == via_powersets


def test_oracle_condition_equivalence_exhaustive_small():
    # every effective formula over one and two variables
    for n in (1, 2):
        v = frozenset(range(1, n + 1))
        non_null = sorted(
            (c for c in complete_formula(v).clauses if c), key=sorted
        )
        for mask in range(1 << len(non_null)):
            chosen = [c for i, c in enumerate(non_null) if (mask >> i) & 1]
            f = Formula(clauses=frozenset(chosen), original_count=len(chosen))
            sat = brute_force_sat(f, variables=v, collect_models=False).satisfiable
            assert sat == bool(condition_check(f, variables=v))


def test_oracle_condition_equivalence_sampled_n3():
    # random subsets of the complete formula over three variables
    rng = random.Random(3)
    v = fs(1, 2, 3)
    non_null = sorted((c for c in complete_formula(v).clauses if c), key=sorted)
    for _ in range(1500):
        chosen = [c for c in non_null if rng.random() < rng.random()]
        f = Formula(clauses=frozenset(chosen), original_count=len(chosen))
        sat = brute_force_sat(f, variables=v, collect_models=False).satisfiable
        assert sat == bool(condition_check(f, variables=v))


def test_oracle_condition_equivalence_random():
    for f in corpus(seed=11, count=400, n_max=12):
        sat = brute_force_sat(f, collect_models=False).satisfiable
        assert sat == bool(condition_check(f))


def test_model_fpc_bijection():
    for f in corpus(seed=13, count=200, n_max=10):
        result = brute_force_sat(f)
        survivors = set(condition_check(f))
        assert set(result.falsified_fpc_per_model) == survivors
        for model, fpc in zip(result.models, result.falsified_fpc_per_model):
            assert falsified_fpc(model) == fpc


def test_satisfiable_complete_minus_powerset():
    # removing one FPC's power set from the complete formula leaves exactly
    # that FPC's falsifying assignment as the unique model
    for n in range(0, 5):
        v = frozenset(range(1, n + 1))
        fn = complete_formula(v)
        for fpc in enumerate_fpcs(v):
            remaining = fn.clauses - power_set(fpc)
            f = Formula(clauses=remaining, original_count=len(remaining))
            result = brute_force_sat(f, variables=v)
            assert result.satisfiable
            assert result.models == ({var: not (var in fpc) for var in sorted(v)},)
            assert result.falsified_fpc_per_model == (fpc,)


def test_adding_back_any_subset_makes_unsat():
    for n in range(0, 4):
        v = frozenset(range(1, n + 1))
        fn = complete_formula(v)
        for fpc in enumerate_fpcs(v):
            remaining = fn.clauses - power_set(fpc)
            for extra in power_set(fpc):
                clauses = remaining | {extra}
                f = Formula(clauses=clauses, original_count=len(clauses))
                assert not brute_force_sat(f, variables=v, collect_models=False).satisfiable


def test_subsets_of_satisfiable_stay_satisfiable():
    rng = random.Random(17)
    checked = 0
    for f in corpus(seed=19, count=200, n_max=8):
        result = brute_force_sat(f, collect_models=False)
        if not result.satisfiable:
            continue
        clauses = sorted(f.clauses, key=sorted)
        for _ in range(3):
            kept = [c for c in clauses if rng.random() < 0.6]
            sub = Formula(clauses=frozenset(kept), original_count=len(kept))
            assert brute_force_sat(sub, collect_models=False).satisfiable
            checked += 1
    assert checked > 100


@pytest.mark.parametrize("chunk_vars", [0, 1, 3])
def test_small_chunks_leave_the_oracle_digest_as_it_is(monkeypatch, chunk_vars):
    # every formula of the digest corpus over more than chunk_vars variables
    # then spans several chunks
    monkeypatch.setattr(oracle, "CHUNK_VARS", chunk_vars)
    assert oracle_digest() == ORACLE_DIGEST


@pytest.mark.parametrize("f", [
    *(pytest.param(random_3sat(n, round(ratio * n), random.Random(n)), id=f"rand3sat-n{n}-r{ratio}")
      for n in range(17, 21) for ratio in (1.5, 4.3)),
    pytest.param(pigeonhole(4), id="php5_4"),
])
def test_default_chunks_match_one_chunk_and_dpll(monkeypatch, f):
    n = len(variables_of(f))
    assert n > oracle.CHUNK_VARS
    sat = dpll_satisfiable(f)
    assert brute_force_sat(f, collect_models=False).satisfiable == sat
    chunked = brute_force_sat(f)
    assert chunked.satisfiable == sat
    monkeypatch.setattr(oracle, "CHUNK_VARS", n)
    assert brute_force_sat(f).models == chunked.models
