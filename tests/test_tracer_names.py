"""``perfbench/run.py --trace 1`` splits a run's time by module through
``perfbench/tracer.instrument``, which wraps fpcsat functions by name.  A
rename or a changed call shape in ``solver``, ``tree``, ``cli`` or
``cardinality`` must fail here rather than in the traced benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import contextlib, io, json, sys
sys.path.insert(0, "perfbench")
from tracer import Tracer, instrument

tracer = Tracer()
instrument(tracer)
from fpcsat import cli

codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "calls": tracer.snapshot()["calls"]}))
"""


def traced(tmp_path, *argvs):
    """Exit codes and span call counts of CLI runs on the illustration
    (plus a tautology clause) under ``tracer.instrument``."""
    cnf = tmp_path / "illustration.cnf"
    cnf.write_text("p cnf 3 5\n-1 -2 0\n3 0\n-1 0\n1 -2 -3 0\n2 -2 0\n")
    argvs = [[str(cnf) if arg == "CNF" else arg for arg in argv] for argv in argvs]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    return out["codes"], out["calls"]


def test_tracer_instruments_every_name(tmp_path):
    codes, calls = traced(
        tmp_path,
        ["solve", "CNF"], ["solve", "--no-sort", "CNF"], ["stats", "CNF"], ["preprocess", "CNF"],
    )
    assert codes == [10, 10, 0, 0]
    assert calls["core.normalize"] == 3  # the two solves and stats
    assert calls["core.effective_clauses"] == 2
    # check_sat sorts the list effective_clauses returns, once per solve
    assert calls["solver.order_sort"] == 2
    assert calls["solver.check_sat"] == 2
    # each solve hands its 4 non-tautologies to one eliminate call, which
    # registers x3, x1, x2
    assert calls["tree.register"] == 6
    assert calls["tree.eliminate"] == 2
    assert calls["cardinality.profile"] == 1
    assert calls["cardinality.preprocess"] == 1


def test_model_rendering_stays_inside_the_traced_span(tmp_path):
    # dimacs.write_result_s measures the v-line rendering only while
    # write_result does it, for solve and oracle alike
    codes, calls = traced(tmp_path, ["solve", "--all-models", "CNF"], ["oracle", "--all-models", "CNF"])
    assert codes == [10, 10]
    assert calls["dimacs.write_result"] == 2


def test_tripped_budget_stays_inside_the_traced_spans(tmp_path):
    # the node budget trips on the first registration, which raises out of
    # the tree.register span and the tree.eliminate span around it and ends
    # the solve with exit 30
    codes, calls = traced(tmp_path, ["solve", "--max-nodes", "1", "CNF"])
    assert codes == [30]
    assert calls["solver.check_sat"] == 1
    assert calls["tree.register"] == 1
    assert calls["tree.eliminate"] == 1
