"""One pinned digest of ``check_sat``'s deterministic output over a fixed
corpus and a fixed set of configs.

The digest covers the verdict, ``order``, ``entries`` and every ``SolveStats``
field except ``elapsed_time``, so it also pins the exact ``work`` of passes
that share several clauses and of budgets that trip mid-solve.  A change
meant to leave every solve as it was must leave the digest as it is; a change
that moves a solve on purpose records the new digest beside the reason.
"""

import hashlib
import random

from conftest import closing_in_each_class, corpus, unit_pinned
from fpcsat.instances import complete_minus_one, pigeonhole, random_3sat
from fpcsat.solver import SolveConfig, check_sat

CONFIGS = [
    SolveConfig(),
    SolveConfig(order="lex"),
    SolveConfig(node_budget=8),
    SolveConfig(node_budget=64),
    SolveConfig(report_all_models=True),
    SolveConfig(node_budget=64, report_all_models=True),
    *(SolveConfig(work_budget=w) for w in (1, 2, 3, 5, 8, 13, 40, 100, 300, 333, 1000, 3000, 5000)),
]

# 4,826 solves; 13 of them trip a work budget inside the tail that
# ``check_sat`` charges without handing it to ``eliminate``
DIGEST = "8ba6b7ab75d56a4df8f92f05a46d4e3f28e3aac6fd18c2cf7abbd55dc3dad526"


def digest_corpus():
    yield from (pigeonhole(k) for k in range(2, 5))
    for n in range(1, 8):
        yield complete_minus_one(n)
        yield from closing_in_each_class(n)
    yield from unit_pinned(seed=17, count=60)
    yield from corpus(seed=17, count=120, n_max=10, m_factor=4)
    rng = random.Random(17)
    for n in range(3, 12):
        for ratio in (1.5, 3.0, 4.3, 6.0):
            yield random_3sat(n, round(ratio * n), rng)


def solve_digest():
    h = hashlib.sha256()
    for f in digest_corpus():
        for cfg in CONFIGS:
            r = check_sat(f, cfg)
            stats = r.stats._replace(elapsed_time=0.0)
            h.update(repr((r.verdict, list(r.order), list(r.entries), stats)).encode())
    return h.hexdigest()


def test_solve_digest_is_pinned():
    assert solve_digest() == DIGEST
