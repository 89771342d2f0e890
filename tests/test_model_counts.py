"""``peak_nodes`` against model counts the solver does not compute.

After a prefix of the clauses is applied, the frontier holds exactly the FPCs
over the registered variables that no applied clause is a subset of: the
prefix's models over those variables.  Registering a variable only doubles
the frontier and a clause only shrinks it, so ``peak_nodes`` is the largest
model count of an applied prefix over the variables registered with it.
"""

import pytest

from conftest import corpus, eliminate_hook
from fpcsat.bench import EXPONENTIAL, fit_growth, run_family
from fpcsat.core import EMPTY_CLAUSE, Formula, effective_clauses, variables_of
from fpcsat.instances import disjoint_pairs
from fpcsat.oracle import brute_force_sat
from fpcsat.solver import ORDERS, SAT, SolveConfig, check_sat

# stable test ids: True for the paper's cardinality order, False for
# --no-sort; an order not listed here is named by its key
ORDER_IDS = {"cardinality": "True", "lex": "False"}.get
# the default corpus, mostly units and pairs, and one of wider clauses with
# larger peaks
CORPORA = [
    dict(seed=43, count=150, n_max=9, tautology_prob=0.1),
    dict(seed=53, count=150, n_max=12, m_factor=3, max_len=5, tautology_prob=0.1),
]


def model_count(clauses, variables) -> int:
    f = Formula(clauses=frozenset(clauses), original_count=len(clauses))
    return len(brute_force_sat(f, variables=variables).models)


def prefix_peak(f: Formula, cfg: SolveConfig):
    """Solve ``f`` and return its result with the largest model count of an
    applied prefix, over the variables registered with it, at each
    registration: the clauses ``check_sat`` hands ``eliminate`` are recorded
    as it takes them, before they register their variables."""
    applied = []
    counts = [1]  # the frontier's one entry before any variable registers

    def hook(tree, c):
        if not tree.literals.issuperset(c):
            registered = variables_of(Formula(frozenset(applied) | {c}, 0))
            counts.append(model_count(applied, registered))
        applied.append(c)

    with eliminate_hook(hook):
        result = check_sat(f, cfg)
    return result, max(counts)


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("params", CORPORA)
def test_peak_is_the_largest_prefix_model_count(params, order):
    cfg = SolveConfig(order=order)
    for f in corpus(**params):
        result, peak = prefix_peak(f, cfg)
        if EMPTY_CLAUSE in f.clauses:  # decided before the frontier holds anything
            assert result.stats.peak_nodes == 0
        else:
            assert result.stats.peak_nodes == peak


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("params", CORPORA)
def test_all_models_lists_every_model_over_the_effective_variables(params, order):
    cfg = SolveConfig(report_all_models=True, order=order)
    seen_sat = 0
    for f in corpus(**params):
        result = check_sat(f, cfg)
        if result.verdict != SAT:
            continue
        seen_sat += 1
        clauses = effective_clauses(f)
        effective = variables_of(Formula(frozenset(clauses), 0))
        assert sorted(result.order) == sorted(effective)
        assert len(result.entries) == model_count(clauses, effective)
    assert seen_sat > 20


@pytest.mark.parametrize("order", ORDERS, ids=ORDER_IDS)
@pytest.mark.parametrize("k", range(1, 11))
def test_disjoint_pairs_peak_is_four_times_three_to_the_k_minus_one(k, order):
    # the model count 3^k is reached only after the last clause, but the
    # last registration doubles the 2*3^(k-1) models of the first k-1
    result = check_sat(disjoint_pairs(k), SolveConfig(order=order))
    assert result.verdict == SAT
    assert result.stats.peak_nodes == 4 * 3 ** (k - 1)


def test_disjoint_pairs_grows_exponentially():
    records = run_family("disjoint-pairs", range(1, 11))
    assert [r.n for r in records] == list(range(2, 22, 2))
    assert [r.peak_nodes for r in records] == [4 * 3 ** (k - 1) for k in range(1, 11)]
    report = fit_growth(records)
    assert report.label == EXPONENTIAL
    # two variables per pair, the frontier times 3 per pair
    assert report.ratio_tail_median == pytest.approx(3 ** 0.5)
