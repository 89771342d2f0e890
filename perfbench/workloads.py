"""The benchmark's workloads: their inputs, reference answers and checks.

Every input is built by fpcsat's own generators from fixed parameters and
written with ``write_dimacs``; its sha256 must equal the one in ``pins.json``,
so every commit is measured on the same bytes.  Every reference answer comes
from outside the solver: a theorem, the construction of the instance, the
truth-table oracle, or a count made here.
"""

from __future__ import annotations

import csv
import hashlib
import io
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from fpcsat.core import Formula, evaluate_formula
from fpcsat.dimacs import write_dimacs
from fpcsat.instances import complete_minus_one, pigeonhole, random_3sat
from fpcsat.oracle import brute_force_sat

# (exit code, stdout) -> what is wrong with the answer, or None
Check = Callable[[int, bytes], "str | None"]


@dataclass
class Command:
    argv: list[str]  # arguments after ``python -m fpcsat``
    check: Check


@dataclass
class Setup:
    commands: list[Command]
    digests: dict[str, str]  # sha256 of each input, compared with pins.json


class SetupError(RuntimeError):
    """A reference answer contradicts how its instance was constructed."""


def _lines(out: bytes) -> list[str]:
    return out.decode("utf-8", errors="replace").splitlines()


def _variables(formula: Formula) -> list[int]:
    return sorted({abs(lit) for c in formula.clauses for lit in c})


def _is_tautology(c) -> bool:
    return any(-lit in c for lit in c)


def _model(assignment: dict[int, bool]) -> tuple[int, ...]:
    """An assignment as the literals of its ``v`` line."""
    return tuple(v if assignment[v] else -v for v in sorted(assignment))


def truth_table_models(formula: Formula) -> set[tuple[int, ...]]:
    """Every model over the formula's variables, from a truth table.

    Bit ``a`` of a column is a value under assignment ``a``, in which
    variable number ``j`` (in sorted order) takes bit ``j`` of ``a``.
    """
    variables = _variables(formula)
    n = len(variables)
    nbytes = max(1, (1 << n) // 8)
    full = (1 << (1 << n)) - 1

    def column(j: int) -> int:
        if j < 3:
            pattern = bytes([(0xAA, 0xCC, 0xF0)[j]])
        else:
            half = 1 << (j - 3)
            pattern = b"\x00" * half + b"\xff" * half
        return int.from_bytes((pattern * (nbytes // len(pattern) + 1))[:nbytes], "little") & full

    columns = {v: column(j) for j, v in enumerate(variables)}
    table = full
    for c in formula.clauses:
        clause_column = 0
        for lit in c:
            col = columns[abs(lit)]
            clause_column |= col if lit > 0 else full ^ col
        table &= clause_column
    models = set()
    for i, byte in enumerate(table.to_bytes(nbytes, "little")):
        for k in range(8) if byte else ():
            if byte >> k & 1:
                a = 8 * i + k
                models.add(tuple(v if a >> j & 1 else -v for j, v in enumerate(variables)))
    return models


def dpll_satisfiable(formula: Formula) -> bool:
    """Satisfiability by a plain DPLL search with unit propagation."""

    def assign(clauses, lit):
        return [c - {-lit} for c in clauses if lit not in c]

    def search(clauses) -> bool:
        while True:
            if not clauses:
                return True
            if frozenset() in clauses:
                return False
            unit = next((c for c in clauses if len(c) == 1), None)
            if unit is None:
                break
            clauses = assign(clauses, next(iter(unit)))
        lit = max(min(clauses, key=len), key=abs)
        return search(assign(clauses, lit)) or search(assign(clauses, -lit))

    return search(list(formula.clauses))


# -- checks ----------------------------------------------------------------

def expect_unsat(code: int, out: bytes) -> str | None:
    head = _lines(out)[:1]
    if code != 20 or head != ["s UNSATISFIABLE"]:
        return f"expected UNSAT and exit 20, got exit {code} and {head}"
    return None


def sat_checker(formula: Formula, models: set, all_models: bool) -> Check:
    """Accept exit 10 with one model from ``models`` (or, with ``all_models``,
    exactly ``models``), each of which must satisfy ``formula``."""
    passed: set[tuple[int, bytes]] = set()

    def check(code: int, out: bytes) -> str | None:
        key = (code, hashlib.sha256(out).digest())
        if key in passed:  # these exact bytes were checked already
            return None
        lines = _lines(out)
        if code != 10 or lines[:1] != ["s SATISFIABLE"]:
            return f"expected SAT and exit 10, got exit {code} and {lines[:1]}"
        found = []
        for line in lines[1:]:
            tokens = line.split()
            if tokens[:1] != ["v"] or tokens[-1:] != ["0"]:
                return f"malformed model line {line[:80]!r}"
            try:
                found.append(tuple(int(t) for t in tokens[1:-1]))
            except ValueError:
                return f"malformed model line {line[:80]!r}"
        if all_models:
            if len(found) != len(models) or set(found) != models:
                right = len(set(found) & models)
                return (f"listed {len(found)} models, {right} of them among the"
                        f" {len(models)} models of the formula")
        elif len(found) != 1 or found[0] not in models:
            return f"reported {found[:2]}, not one model of the formula"
        for model in set(found):
            try:
                ok = evaluate_formula(formula, {abs(lit): lit > 0 for lit in model})
            except KeyError as exc:
                return f"model {model} leaves variable {exc} unassigned"
            if not ok:
                return f"model {model} falsifies the formula"
        passed.add(key)
        return None

    return check


def _rows(out: bytes) -> dict[str, str]:
    """``key=value`` lines of ``fpcsat stats``/``preprocess`` as a dict."""
    return dict(line.partition("=")[::2] for line in _lines(out))


def stats_checker(formula: Formula) -> Check:
    """Compare ``fpcsat stats`` with counts made here."""
    pos_neg = Counter(lit for c in formula.clauses for lit in c)
    either = Counter(v for c in formula.clauses for v in {abs(lit) for lit in c})
    tautologies = sum(1 for c in formula.clauses if _is_tautology(c))
    want = {
        "clauses": len(formula.clauses),
        "effective_clauses": len(formula.clauses) - tautologies,
        "variables": len(_variables(formula)),
        "duplicates_removed": formula.original_count - len(formula.clauses),
        "tautology_clauses": tautologies,
        "has_empty_clause": "true" if frozenset() in formula.clauses else "false",
    }
    for v in _variables(formula):
        want[f"var:{v} n_pos"] = pos_neg[v]
        want[f"var:{v} n_neg"] = pos_neg[-v]
        want[f"var:{v} n_either"] = either[v]
    want = {key: str(value) for key, value in want.items()}

    def check(code: int, out: bytes) -> str | None:
        if code != 0:
            return f"exit {code}"
        got = _rows(out)
        wrong = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        if wrong:
            k = wrong[0]
            return f"{len(wrong)} wrong rows, first {k}: got {got.get(k)}, want {want.get(k)}"
        return None

    return check


def preprocess_checker(formula: Formula, model: tuple[int, ...]) -> Check:
    """``fpcsat preprocess`` on a formula whose only model is ``model``: it must
    not prove UNSAT, and every forced value must agree with that model."""
    value = {abs(lit): lit > 0 for lit in model}
    tautologies = sum(1 for c in formula.clauses if _is_tautology(c))
    want = {
        "variables": str(len(value)),
        "effective_clauses": str(len(formula.clauses) - tautologies),
        "has_tautology": "true" if tautologies else "false",
        "proves_unsat": "false",
    }

    def check(code: int, out: bytes) -> str | None:
        if code != 0:
            return f"exit {code}"
        got = _rows(out)
        for key, expected in want.items():
            if got.get(key) != expected:
                return f"{key}={got.get(key)}, want {expected}"
        for key, forced in got.items():
            scope, _, name = key.partition(" ")
            if name != "forced_value":
                continue
            try:
                agrees = bool(int(forced)) == value[int(scope.removeprefix("var:"))]
            except (KeyError, ValueError):
                agrees = False
            if not agrees:
                return f"{scope} forced to {forced}, against the only model"
        return None

    return check


CSV_KEY = ("family", "n", "clause_count", "seed", "verdict")


def compare_csv(data: bytes, expected: list[list[str]]) -> str | None:
    """The bench CSV's key columns must equal ``expected``; nothing may time out."""
    records = list(csv.DictReader(io.StringIO(data.decode("utf-8", errors="replace"))))
    got = [[r.get(k) for k in CSV_KEY] for r in records]
    if got != expected:
        bad = next((i for i, (g, e) in enumerate(zip(got, expected)) if g != e), None)
        if bad is None:
            return f"{len(got)} records, want {len(expected)}"
        return f"record {bad}: {got[bad]}, want {expected[bad]}"
    if any(r.get("timed_out") != "false" for r in records):
        return "a record timed out"
    return None


def csv_checker(path: Path, expected: list[list[str]]) -> Check:
    """Check the CSV the command wrote; it must also be byte-identical to the
    first CSV of this run."""
    first: list[bytes] = []

    def check(code: int, out: bytes) -> str | None:
        if code != 0:
            return f"exit {code}"
        try:
            data = path.read_bytes()
        except OSError as exc:
            return f"no CSV: {exc}"
        problem = compare_csv(data, expected)
        if problem is None and f"records={len(expected)}" not in _lines(out):
            problem = f"stdout lacks records={len(expected)}"
        if problem is None:
            if not first:
                first.append(data)
            elif data != first[0]:
                problem = "CSV differs from the first CSV of this run"
        return problem

    return check


# -- workloads --------------------------------------------------------------

def _write(work: Path, name: str, formula: Formula, spans, digests: dict) -> None:
    data = spans.call("dimacs.write", write_dimacs, formula).encode()
    (work / name).write_bytes(data)
    digests[name] = hashlib.sha256(data).hexdigest()


def setup_php(work: Path, spans) -> Setup:
    digests: dict[str, str] = {}
    formula = spans.call("instances.pigeonhole", pigeonhole, 5)
    _write(work, "php6_5.cnf", formula, spans, digests)
    # 6 pigeons do not fit into 5 holes: UNSAT by the pigeonhole principle,
    # which a search here confirms for the generated formula
    if spans.call("reference.dpll", dpll_satisfiable, formula):
        raise SetupError("DPLL finds a model of PHP(6,5)")
    return Setup([Command(["solve", "php6_5.cnf"], expect_unsat)], digests)


def setup_cmo(work: Path, spans) -> Setup:
    digests: dict[str, str] = {}
    formulas = {}
    for n in (10, 9):
        formulas[n] = spans.call("instances.complete_minus_one", complete_minus_one, n)
        _write(work, f"cmo{n}.cnf", formulas[n], spans, digests)
    # The construction keeps every non-tautology clause over n variables except
    # the subsets of the clause (1 2 ... n), so its only model sets all n false.
    only = {n: tuple(-v for v in range(1, n + 1)) for n in formulas}
    for n, formula in formulas.items():
        found = spans.call("oracle.brute_force", brute_force_sat, formula, limit_vars=n)
        if [_model(m) for m in found.models] != [only[n]]:
            raise SetupError(f"oracle finds {len(found.models)} models of complete_minus_one({n})")
    return Setup(
        [
            Command(["solve", "cmo10.cnf"], sat_checker(formulas[10], {only[10]}, all_models=False)),
            Command(["preprocess", "cmo9.cnf"], preprocess_checker(formulas[9], only[9])),
            Command(["stats", "cmo9.cnf"], stats_checker(formulas[9])),
        ],
        digests,
    )


RAND3SAT_SEED, RAND3SAT_N, RAND3SAT_SEEDS_PER_N, RAND3SAT_RATIO = 1, range(16, 23), 5, 4.3


def setup_rand3sat(work: Path, spans) -> Setup:
    instances = hashlib.sha256()
    expected = []
    for n in RAND3SAT_N:
        for rep in range(RAND3SAT_SEEDS_PER_N):
            # the instance seed that ``fpcsat bench`` derives from its --seed
            seed = RAND3SAT_SEED * 1_000_003 + n * 1_009 + rep
            formula = spans.call("instances.random_3sat", random_3sat,
                                 n, round(RAND3SAT_RATIO * n), random.Random(seed))
            instances.update(spans.call("dimacs.write", write_dimacs, formula).encode())
            sat = spans.call("oracle.brute_force", brute_force_sat, formula,
                             limit_vars=22, collect_models=False).satisfiable
            expected.append(["random3sat", str(len(_variables(formula))),
                             str(len(formula.clauses)), str(seed), "SAT" if sat else "UNSAT"])
    columns = "\n".join(",".join(row) for row in expected).encode()
    argv = ["bench", "--family", "random3sat",
            "--n-range", f"{RAND3SAT_N.start}..{RAND3SAT_N.stop - 1}",
            "--ratio", str(RAND3SAT_RATIO), "--seeds-per-n", str(RAND3SAT_SEEDS_PER_N),
            "--seed", str(RAND3SAT_SEED), "--workers", "1", "--out", "rand3sat.csv"]
    return Setup(
        [Command(argv, csv_checker(work / "rand3sat.csv", expected))],
        {
            "rand3sat.instances": instances.hexdigest(),
            "rand3sat.csv_columns": hashlib.sha256(columns).hexdigest(),
        },
    )


def setup_models(work: Path, spans) -> Setup:
    digests: dict[str, str] = {}
    formula = spans.call("instances.random_3sat", random_3sat, 22, 33, random.Random(7))
    _write(work, "models.cnf", formula, spans, digests)
    sat = spans.call("oracle.brute_force", brute_force_sat, formula,
                     limit_vars=22, collect_models=False).satisfiable
    # brute_force_sat lists models one big-integer step at a time, which takes
    # tens of seconds for this many; the truth table here is read bytewise
    models = spans.call("reference.truth_table", truth_table_models, formula)
    if sat != bool(models):
        raise SetupError("the oracle and the truth table disagree on the verdict")
    return Setup(
        [Command(["solve", "--all-models", "models.cnf"], sat_checker(formula, models, all_models=True))],
        digests,
    )


WORKLOADS = {
    "php": setup_php,
    "cmo": setup_cmo,
    "rand3sat": setup_rand3sat,
    "models": setup_models,
}


def self_test() -> list[str]:
    """Feed the checks wrong answers; return the ones that slipped through."""
    formula = Formula.from_clauses([[1, 2], [-1, 2], [1, -2]])  # only model: 1 2
    models = truth_table_models(formula)
    one, listing = sat_checker(formula, models, False), sat_checker(formula, models, True)
    expected_csv = [["random3sat", "3", "1", "5", "SAT"]]
    csv_text = "family,n,clause_count,seed,verdict,timed_out\nrandom3sat,3,1,5,{},false\n"
    must_fail = {
        "flipped UNSAT verdict": expect_unsat(10, b"s SATISFIABLE\nv 1 2 0\n"),
        "flipped SAT verdict": one(20, b"s UNSATISFIABLE\n"),
        "corrupted model": one(10, b"s SATISFIABLE\nv 1 -2 0\n"),
        "corrupted model in a listing": listing(10, b"s SATISFIABLE\nv -1 2 0\n"),
        "model that falsifies the formula": sat_checker(formula, {(1, -2)}, False)(
            10, b"s SATISFIABLE\nv 1 -2 0\n"),
        "wrong forced value": preprocess_checker(formula, (1, 2))(
            0, b"variables=2\neffective_clauses=3\nhas_tautology=false\n"
               b"proves_unsat=false\nvar:2 forced_value=0\n"),
        "flipped CSV verdict": compare_csv(csv_text.format("UNSAT").encode(), expected_csv),
    }
    must_pass = {
        "right UNSAT answer": expect_unsat(20, b"s UNSATISFIABLE\n"),
        "right model": one(10, b"s SATISFIABLE\nv 1 2 0\n"),
        "right listing": listing(10, b"s SATISFIABLE\nv 1 2 0\n"),
        "right CSV": compare_csv(csv_text.format("SAT").encode(), expected_csv),
        "right preprocess": preprocess_checker(formula, (1, 2))(
            0, b"variables=2\neffective_clauses=3\nhas_tautology=false\n"
               b"proves_unsat=false\nvar:2 forced_value=1\n"),
    }
    missed = [name for name, problem in must_fail.items() if problem is None]
    missed += [f"{name}: {problem}" for name, problem in must_pass.items() if problem is not None]
    if models != {(1, 2)}:
        missed.append(f"truth table gives {models}")
    if not dpll_satisfiable(formula) or dpll_satisfiable(Formula.from_clauses([[1], [-1]])):
        missed.append("DPLL gets a verdict wrong")
    return missed
