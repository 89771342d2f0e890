"""Slow tier: solves too large for tier-1, which collects ``tests/`` only
(``testpaths`` in pyproject.toml).  Run it from the repository root with

    PYTHONPATH=src python -m pytest -q slowtests

It reuses the eager reference frontier of ``tests/conftest.py``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import EagerTree  # noqa: E402

from fpcsat import solver  # noqa: E402
from fpcsat.instances import pigeonhole  # noqa: E402
from fpcsat.solver import UNSAT, check_sat  # noqa: E402


def test_php7_6_counters_are_pinned_and_match_the_eager_reference(monkeypatch):
    # PHP(7,6), 42 variables: the largest pigeonhole instance the default
    # node budget decides
    f = pigeonhole(6)
    result = check_sat(f)
    assert result.verdict == UNSAT
    stats = result.stats
    assert (stats.peak_nodes, stats.work, stats.eliminations) == (458_752, 5_026_395, 1_649_888)
    monkeypatch.setattr(solver, "FpcTree", EagerTree)
    eager = check_sat(f)
    assert eager._replace(stats=None) == result._replace(stats=None)
    assert eager.stats._replace(elapsed_time=0) == stats._replace(elapsed_time=0)
