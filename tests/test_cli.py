import argparse
import hashlib
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from fpcsat.dimacs import write_dimacs
from fpcsat.instances import random_3sat

README = Path(__file__).resolve().parents[1] / "README.md"
ILLUSTRATION_CNF = "p cnf 3 4\n-1 -2 0\n3 0\n-1 0\n1 -2 -3 0\n"


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "fpcsat", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.fixture
def illustration(tmp_path):
    path = tmp_path / "illustration.cnf"
    path.write_text(ILLUSTRATION_CNF)
    return str(path)


def test_solve_illustration(illustration):
    proc = run_cli("solve", illustration)
    assert proc.stdout == "s SATISFIABLE\nv -1 -2 3 0\n"
    assert proc.returncode == 10


def test_solve_from_stdin():
    proc = run_cli("solve", "-", stdin=ILLUSTRATION_CNF)
    assert proc.stdout == "s SATISFIABLE\nv -1 -2 3 0\n"
    assert proc.returncode == 10


def test_solve_unsat_exit_code(tmp_path):
    path = tmp_path / "empty-clause.cnf"
    path.write_text("p cnf 1 1\n0\n")
    proc = run_cli("solve", str(path))
    assert proc.stdout == "s UNSATISFIABLE\n"
    assert proc.returncode == 20


def test_solve_rejects_a_node_budget_below_one(tmp_path):
    # even where the empty clause would decide the formula without a frontier
    path = tmp_path / "empty-clause.cnf"
    path.write_text("p cnf 0 1\n0\n")
    proc = run_cli("solve", str(path), "--max-nodes", "0")
    assert proc.stdout == ""
    assert proc.stderr == "error: node_budget must be >= 1\n"
    assert proc.returncode == 1


def test_solve_resource_exit_code(tmp_path):
    path = tmp_path / "two-vars.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    proc = run_cli("solve", str(path), "--max-nodes", "1")
    assert proc.stdout == "s UNKNOWN\n"
    assert proc.returncode == 30


def test_solve_all_models(tmp_path):
    path = tmp_path / "one-var.cnf"
    path.write_text("p cnf 1 1\n1 0\n")
    proc = run_cli("solve", str(path), "--all-models")
    assert proc.stdout == "s SATISFIABLE\nv 1 0\n"
    assert proc.returncode == 10


# sha256 of the --all-models listings of random_3sat(16, 24, Random(7)), 3,983
# models each, as the per-model dict renderer printed them
ALL_MODELS_SHA256 = {
    "solve": "d70bc64b7aebe01b12cfaf3b40e514a64f6383177ebc1f50a63d3455827b8fee",
    "oracle": "b34661a2df4cf72f65c6b855028fc42c7f35a328cd04af45bb29257ad0d81583",
}


@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_all_models_listing_is_pinned(tmp_path, command):
    path = tmp_path / "random3sat-16.cnf"
    path.write_text(write_dimacs(random_3sat(16, 24, random.Random(7))))
    proc = run_cli(command, "--all-models", str(path))
    assert proc.returncode == 10
    assert proc.stdout.count("\nv ") == 3983
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == ALL_MODELS_SHA256[command]


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", ["solve", "oracle"])
def test_reader_closing_stdout_early_keeps_the_exit_code(tmp_path, command, unbuffered):
    # 3^8 models over 16 variables, about 370 kB of v lines: far more than a
    # pipe holds, so the writer is still writing when the reader closes
    path = tmp_path / "pairs.cnf"
    path.write_text("p cnf 16 8\n" + "".join(f"{v} {v + 1} 0\n" for v in range(1, 16, 2)))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "fpcsat", command, "--all-models", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"s SATISFIABLE\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 10
    for bad in ("error:", "Traceback", "Exception ignored"):
        assert bad not in stderr


def test_solve_flag_variants_agree(illustration):
    baseline = run_cli("solve", illustration)
    proc = run_cli("solve", illustration, "--no-sort")
    assert proc.stdout == baseline.stdout
    assert proc.returncode == baseline.returncode


def test_bench_reports_insufficient_data(tmp_path):
    out = tmp_path / "short.csv"
    proc = run_cli(
        "bench", "--family", "pigeonhole", "--n-range", "2..3", "--out", str(out)
    )
    assert proc.returncode == 0
    assert "growth_label=insufficient-data" in proc.stdout
    assert len(out.read_text().splitlines()) == 3  # header + 2 records


def test_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 1 1\n1 oops 0\n")
    proc = run_cli("solve", str(path))
    assert proc.returncode == 1
    assert "error:" in proc.stderr


# solve - reads stdin exactly as solve FILE reads the file; the child decodes
# its stdin strictly, as a UTF-8 locale other than C does
@pytest.mark.parametrize("via", ["file", "stdin"])
def test_non_utf8_byte_in_file(tmp_path, via):
    def solve(data):
        path = tmp_path / "input.cnf"
        path.write_bytes(data)
        return subprocess.run(
            [sys.executable, "-m", "fpcsat", "solve", str(path) if via == "file" else "-"],
            input=data if via == "stdin" else None,
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
            timeout=120,
        )

    # a Latin-1 byte in a comment is ignored
    proc = solve(b"c caf\xe9\np cnf 2 1\n1 -2 0\n")
    assert proc.stdout == b"s SATISFIABLE\nv 1 2 0\n"
    assert proc.returncode == 10

    # in clause data it is a parse error that names its line
    proc = solve(b"p cnf 2 1\n1 -2\xe9 0\n")
    assert proc.returncode == 1
    assert b"line 2: non-integer token" in proc.stderr

    # a bare CR ends a line
    proc = solve(b"p cnf 1 1\r1 0\r")
    assert proc.stdout == b"s SATISFIABLE\nv 1 0\n"
    assert proc.returncode == 10


def test_missing_file_exit_code():
    proc = run_cli("solve", "/nonexistent/input.cnf")
    assert proc.returncode == 1


# solve has no --dump-tree or --preprocess; they fail like any unknown flag
@pytest.mark.parametrize("flag", ["--frobnicate", "--dump-tree", "--preprocess"])
def test_unknown_flag_exit_code(illustration, flag):
    proc = run_cli("solve", illustration, flag)
    assert proc.returncode == 1


def test_oracle_matches_solve_output(illustration):
    solve = run_cli("solve", illustration)
    oracle = run_cli("oracle", illustration)
    assert oracle.stdout == solve.stdout
    assert oracle.returncode == 10


def test_verify_agreement(illustration):
    proc = run_cli("verify", illustration)
    assert proc.returncode == 0
    assert proc.stdout == "solver=SAT oracle=SAT\n"


def test_verify_mismatch_is_loud(tmp_path, monkeypatch, capsys):
    # a solver that runs out of budget disagrees with the oracle's SAT
    from fpcsat import cli
    from fpcsat.solver import RESOURCE_EXCEEDED, SolveResult

    monkeypatch.setattr(cli, "check_sat", lambda f: SolveResult(RESOURCE_EXCEEDED))
    path = tmp_path / "sat.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    assert cli.main(["verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "solver=RESOURCE_EXCEEDED oracle=SAT" in out
    assert "MISMATCH" in err


def test_verify_refuses_past_the_oracle_limit_before_solving(tmp_path, monkeypatch, capsys):
    # the solve of a formula past the oracle's 20 variables can take minutes
    from fpcsat import cli

    def no_solve(*args):
        raise AssertionError("check_sat ran before the oracle refused")

    monkeypatch.setattr(cli, "check_sat", no_solve)
    path = tmp_path / "wide.cnf"
    path.write_text("p cnf 21 1\n" + " ".join(map(str, range(1, 22))) + " 0\n")
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr() == ("", "error: brute_force_sat: 21 variables exceeds limit 20\n")


def test_bench_workers_match_serial(tmp_path):
    args = (
        "bench", "--family", "random3sat", "--n-range", "5..8",
        "--seed", "3", "--seeds-per-n", "2", "--timeout-ms", "500",
    )
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    run_cli(*args, "--out", str(serial))
    run_cli(*args, "--workers", "2", "--out", str(parallel))
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.parametrize(
    "module",
    ["multiprocessing", "dataclasses", "inspect", "statistics", "csv",
     "fpcsat.bench", "fpcsat.cardinality", "fpcsat.oracle"],
)
def test_cli_import_leaves_out_unused_modules(module):
    # every process pays for what importing the CLI loads: the process pool
    # is for bench --workers N > 1 only, bench (with statistics and csv) for
    # bench, cardinality for stats and preprocess only, the oracle for oracle
    # and verify (and the complete-minus-one family) only
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, fpcsat.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_stats_output(illustration):
    proc = run_cli("stats", illustration)
    assert proc.returncode == 0
    assert "clauses=4" in proc.stdout
    assert "var:1 n_neg=2" in proc.stdout


def test_stats_counts_duplicates_tautologies_and_the_empty_clause(tmp_path):
    path = tmp_path / "noisy.cnf"
    path.write_text("p cnf 2 5\n1 -1 0\n2 0\n2 0\n0\n-2 1 0\n")
    proc = run_cli("stats", str(path))
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[:6] == [
        "clauses=4",
        "effective_clauses=3",
        "variables=2",
        "duplicates_removed=1",
        "tautology_clauses=1",
        "has_empty_clause=true",
    ]


def test_preprocess_output(tmp_path):
    path = tmp_path / "forced.cnf"
    path.write_text("p cnf 2 3\n1 0\n1 2 0\n1 -2 0\n")
    proc = run_cli("preprocess", str(path))
    assert proc.returncode == 0
    assert "var:1 forced_value=1" in proc.stdout
    assert "proves_unsat=false" in proc.stdout


STATS_AND_PREPROCESS_INPUTS = {
    "noisy": "p cnf 2 5\n1 -1 0\n2 0\n2 0\n0\n-2 1 0\n",
    "forced": "p cnf 2 3\n1 0\n1 2 0\n1 -2 0\n",
    "bound": "p cnf 1 2\n1 0\n-1 0\n",
    "cmo4": None,  # write_dimacs(complete_minus_one(4))
}

STATS_AND_PREPROCESS_STDOUT = {
    ("noisy", "stats"): [
        "clauses=4", "effective_clauses=3", "variables=2", "duplicates_removed=1",
        "tautology_clauses=1", "has_empty_clause=true",
        "var:1 n_pos=2", "var:1 n_neg=1", "var:1 n_either=2",
        "var:2 n_pos=1", "var:2 n_neg=1", "var:2 n_either=2",
    ],
    ("noisy", "preprocess"): [
        "variables=2", "effective_clauses=3", "has_tautology=true", "general_bound=12",
        "unsat_by_general_bound=false", "proves_unsat=false",
    ],
    ("forced", "stats"): [
        "clauses=3", "effective_clauses=3", "variables=2", "duplicates_removed=0",
        "tautology_clauses=0", "has_empty_clause=false",
        "var:1 n_pos=3", "var:1 n_neg=0", "var:1 n_either=3",
        "var:2 n_pos=1", "var:2 n_neg=1", "var:2 n_either=2",
    ],
    ("forced", "preprocess"): [
        "variables=2", "effective_clauses=3", "has_tautology=false", "general_bound=12",
        "unsat_by_general_bound=false", "effective_bound=5", "unsat_by_total_bound=false",
        "var:1 forced_value=1", "proves_unsat=false",
    ],
    ("bound", "stats"): [
        "clauses=2", "effective_clauses=2", "variables=1", "duplicates_removed=0",
        "tautology_clauses=0", "has_empty_clause=false",
        "var:1 n_pos=1", "var:1 n_neg=1", "var:1 n_either=2",
    ],
    ("bound", "preprocess"): [
        "variables=1", "effective_clauses=2", "has_tautology=false", "general_bound=2",
        "unsat_by_general_bound=false", "effective_bound=1", "unsat_by_total_bound=true",
        "var:1 unsat_by_variable_bound=true", "proves_unsat=true",
    ],
    ("cmo4", "stats"): [
        "clauses=65", "effective_clauses=65", "variables=4", "duplicates_removed=0",
        "tautology_clauses=0", "has_empty_clause=false",
        *(f"var:{v} {key}" for v in range(1, 5)
          for key in ("n_pos=19", "n_neg=27", "n_either=46")),
    ],
    ("cmo4", "preprocess"): [
        "variables=4", "effective_clauses=65", "has_tautology=false", "general_bound=240",
        "unsat_by_general_bound=false", "effective_bound=65", "unsat_by_total_bound=false",
        *(f"var:{v} forced_value=0" for v in range(1, 5)),
        "proves_unsat=false",
    ],
}


@pytest.mark.parametrize("name, command", sorted(STATS_AND_PREPROCESS_STDOUT))
def test_stats_and_preprocess_print_exactly_these_lines(name, command, tmp_path, capsys):
    from fpcsat import cli
    from fpcsat.instances import complete_minus_one

    text = STATS_AND_PREPROCESS_INPUTS[name] or write_dimacs(complete_minus_one(4))
    path = tmp_path / f"{name}.cnf"
    path.write_text(text)
    assert cli.main([command, str(path)]) == 0
    expected = STATS_AND_PREPROCESS_STDOUT[name, command]
    assert capsys.readouterr() == ("".join(line + "\n" for line in expected), "")


def test_bench_rejects_a_reversed_range(tmp_path, capsys):
    from fpcsat import cli

    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--n-range", "14..8", "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", "error: --n-range 14..8 is empty: B must be >= A\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["--seeds-per-n", "0"], "--seeds-per-n 0 is below 1"),
        (["--seeds-per-n", "-2"], "--seeds-per-n -2 is below 1"),
        (["--family", "random3sat", "--n-range", "2..4"], "random 3-SAT needs at least 3 variables"),
        (["--family", "pigeonhole", "--n-range", "0..3"], "need at least one hole"),
        (["--timeout-ms", "inf"], "--timeout-ms inf is not a finite number above 0"),
        (["--timeout-ms", "nan"], "--timeout-ms nan is not a finite number above 0"),
        (["--timeout-ms", "-5"], "--timeout-ms -5 is not a finite number above 0"),
        (["--timeout-ms", "0"], "--timeout-ms 0 is not a finite number above 0"),
        (["--ratio", "inf"], "--ratio inf is not a finite number of at least 0"),
        (["--ratio", "nan"], "--ratio nan is not a finite number of at least 0"),
        (["--ratio", "-1"], "--ratio -1 is not a finite number of at least 0"),
        (["--workers", "0"], "--workers 0 is below 1"),
        (["--workers", "-2"], "--workers -2 is below 1"),
    ],
)
def test_bench_that_fails_before_its_first_record_leaves_no_csv(tmp_path, capsys, args, message):
    from fpcsat import cli

    out = tmp_path / "bench.csv"
    assert cli.main(["bench", "--n-range", "8..9", *args, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_readme_synopsis_names_every_option():
    from fpcsat.cli import build_parser

    synopsis = README.read_text(encoding="utf-8").split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    documented, command = {}, None
    for line in synopsis.splitlines():
        line = line.split("#", 1)[0]
        if line.startswith("fpcsat "):
            command = line.split()[1]
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {
        name: {o for a in p._actions for o in a.option_strings if o != "--help" and o.startswith("--")}
        for name, p in sub.choices.items()
    }
    assert documented == defined


def test_bench_writes_csv(tmp_path):
    out = tmp_path / "bench.csv"
    proc = run_cli(
        "bench", "--family", "complete-minus-one", "--n-range", "2..5",
        "--out", str(out),
    )
    assert proc.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "family,n,clause_count,seed,verdict,elapsed_ms,peak_nodes,eliminations,timed_out"
    assert len(lines) == 5
    assert "growth_label=" in proc.stdout


def test_bench_from_n_zero(tmp_path):
    out = tmp_path / "bench.csv"
    proc = run_cli(
        "bench", "--family", "complete-minus-one", "--n-range", "0..4", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) == 6  # header + 5 records
    assert "growth_label=" in proc.stdout
    assert "growth_label=insufficient-data" not in proc.stdout


def test_bench_deterministic(tmp_path):
    args = (
        "bench", "--family", "random3sat", "--n-range", "5..8",
        "--seed", "42", "--seeds-per-n", "2", "--timeout-ms", "500",
    )
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    p1 = run_cli(*args, "--out", str(out1))
    p2 = run_cli(*args, "--out", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    assert p1.stdout == p2.stdout


def test_solve_deterministic(illustration):
    a = run_cli("solve", illustration, "--all-models")
    b = run_cli("solve", illustration, "--all-models")
    assert a.stdout == b.stdout
