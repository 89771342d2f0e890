"""Command-line interface.

Exit codes follow the SAT-competition convention: 10 satisfiable, 20
unsatisfiable, 30 resource budget exceeded, 1 usage or input errors.
``verify`` exits 0 when solver and oracle agree, 2 otherwise.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from math import inf

from .core import Formula, normalize
from .dimacs import parse_dimacs, write_result
from .instances import FAMILIES
from .solver import SolveConfig, SolveResult, check_sat
from .tree import NODE_BUDGET, pack

# bench loads inside bench, cardinality inside stats and preprocess, the
# oracle inside oracle and verify: no command pays for importing a module it
# does not run (or statistics and csv)

EXIT_CODES = {"SAT": 10, "UNSAT": 20, "RESOURCE_EXCEEDED": 30}


def _read_formula(path: str) -> Formula:
    # stdin reads as a file does: a bad byte becomes U+FFFD (ignored in a
    # comment, a parse error in a clause) and a bare CR ends a line
    with open(sys.stdin.fileno() if path == "-" else path, encoding="utf-8",
              errors="replace", closefd=path != "-") as fh:
        text = fh.read()
    doc = parse_dimacs(text)
    for w in doc.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return doc.to_formula()


def _print_result(result) -> None:
    try:  # a reader that closes stdout early leaves the verdict's exit code
        write_result(result, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:  # flushing at exit would raise again; see signal's SIGPIPE note
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_solve(args) -> int:
    f = _read_formula(args.file)
    cfg = SolveConfig(
        node_budget=args.max_nodes,
        report_all_models=args.all_models,
        order=args.order,
    )
    result = check_sat(f, cfg)
    _print_result(result)
    s = result.stats
    print(
        f"stats: clauses_processed={s.clauses_processed}"
        f" tautologies_skipped={s.tautologies_skipped}"
        f" duplicates_removed={s.duplicates_removed}"
        f" peak_nodes={s.peak_nodes} eliminations={s.eliminations}"
        f" work={s.work} elapsed_s={s.elapsed_time:.6f}",
        file=sys.stderr,
    )
    return EXIT_CODES[result.verdict]


def _cmd_oracle(args) -> int:
    from .oracle import brute_force_sat, falsified_fpc

    f = _read_formula(args.file)
    result = brute_force_sat(f)
    models = result.models if args.all_models else result.models[:1]
    verdict = "SAT" if result.satisfiable else "UNSAT"
    # pack the FPC each printed model falsifies as the frontier would, over
    # the variables every such FPC holds
    order = sorted(models[0]) if models else []
    entries = pack(order, map(falsified_fpc, models))
    _print_result(SolveResult(verdict, order, entries))
    return EXIT_CODES[verdict]


def _cmd_verify(args) -> int:
    from .oracle import brute_force_sat

    f = _read_formula(args.file)
    # the oracle first, so that past its variable limit no solve runs at all
    oracle_result = brute_force_sat(f, collect_models=False)
    solver_result = check_sat(f)
    oracle_verdict = "SAT" if oracle_result.satisfiable else "UNSAT"
    print(f"solver={solver_result.verdict} oracle={oracle_verdict}")
    if solver_result.verdict != oracle_verdict:
        print("MISMATCH between solver and oracle verdicts", file=sys.stderr)
        return 2
    return 0


def _cmd_stats(args) -> int:
    from . import cardinality

    f = _read_formula(args.file)
    prof, report = cardinality.profile(f), normalize(f)
    print(f"clauses={prof.total}")
    print(f"effective_clauses={prof.n_effective}")
    print(f"variables={prof.n}")
    print(f"duplicates_removed={report.duplicates_removed}")
    print(f"tautology_clauses={prof.total - prof.n_effective}")
    print(f"has_empty_clause={str(report.has_empty_clause).lower()}")
    for var in sorted(prof.per_variable):
        counts = prof.per_variable[var]
        print(f"var:{var} n_pos={counts.n_pos}")
        print(f"var:{var} n_neg={counts.n_neg}")
        print(f"var:{var} n_either={counts.n_either}")
    return 0


def _cmd_preprocess(args) -> int:
    from . import cardinality

    f = _read_formula(args.file)
    report = cardinality.preprocess(f)
    print(f"variables={report.n}")
    print(f"effective_clauses={report.effective_count}")
    print(f"has_tautology={str(report.has_tautology).lower()}")
    print(f"general_bound={report.general_bound}")
    print(f"unsat_by_general_bound={str(report.unsat_by_general_bound).lower()}")
    if report.effective_bound is not None:
        print(f"effective_bound={report.effective_bound}")
        print(f"unsat_by_total_bound={str(report.unsat_by_total_bound).lower()}")
    for var in report.unsat_by_variable_bound:
        print(f"var:{var} unsat_by_variable_bound=true")
    for var, value in report.forced_literals:
        print(f"var:{var} forced_value={int(value)}")
    print(f"proves_unsat={str(report.proves_unsat).lower()}")
    return 0


def _parse_range(text: str) -> list[int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        return [int(text)]
    if int(hi) < int(lo):
        raise ValueError(f"--n-range {text} is empty: B must be >= A")
    return list(range(int(lo), int(hi) + 1))


def _cmd_bench(args) -> int:
    from . import bench as bench_mod

    n_values = _parse_range(args.n_range)
    if args.seeds_per_n < 1:
        raise ValueError(f"--seeds-per-n {args.seeds_per_n} is below 1")
    if args.workers < 1:
        raise ValueError(f"--workers {args.workers} is below 1")
    if not 0 < args.timeout_ms < inf:
        raise ValueError(f"--timeout-ms {args.timeout_ms:g} is not a finite number above 0")
    if not 0 <= args.ratio < inf:
        raise ValueError(f"--ratio {args.ratio:g} is not a finite number of at least 0")
    started = time.perf_counter()
    fh = None  # made with the first record, so that a run failing before it leaves no CSV

    def append(record):
        nonlocal fh
        if fh is None:
            fh = open(args.out, "w", encoding="utf-8", newline="")
            bench_mod.write_csv_header(fh)
        bench_mod.append_csv_record(fh, record)

    try:
        records = bench_mod.run_family(
            args.family,
            n_values,
            seed=args.seed,
            seeds_per_n=args.seeds_per_n,
            ratio=args.ratio,
            timeout_ms=args.timeout_ms,
            workers=args.workers,
            on_record=append,
        )
    finally:
        if fh is not None:
            fh.close()
    print(f"family={args.family}")
    print(f"records={len(records)}")
    try:
        report = bench_mod.fit_growth(records)
        for line in report.lines():
            print(line)
    except bench_mod.InsufficientDataError as exc:
        print(f"growth_label=insufficient-data ({exc})")
    wall = time.perf_counter() - started
    print(f"bench wall time: {wall:.2f}s (CSV times are deterministic effort"
          f" at {bench_mod.WORK_PER_MS} frontier entries scanned/ms)", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fpcsat",
        description="SAT solving by fully-populated-clause elimination",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("file", help="DIMACS CNF file, or - for stdin")

    p = sub.add_parser("solve", help="decide satisfiability")
    add_input(p)
    p.add_argument("--max-nodes", type=int, default=NODE_BUDGET,
                   help="cap on the surviving fully populated clauses held at once"
                        " (default 2^24)")
    p.add_argument("--all-models", action="store_true",
                   help="print one model per surviving fully populated clause")
    p.add_argument("--no-sort", dest="order", action="store_const", const="lex",
                   default="cardinality",
                   help="order clauses by their canonical literals, not by cardinality")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("oracle", help="brute-force truth-table verdict")
    add_input(p)
    p.add_argument("--all-models", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="cross-check solver against the oracle")
    add_input(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="cardinality profile of a formula")
    add_input(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("preprocess", help="cardinality bounds and forced literals")
    add_input(p)
    p.set_defaults(func=_cmd_preprocess)

    p = sub.add_parser("bench", help="scaling study over an instance family")
    p.add_argument("--family", choices=FAMILIES, default="random3sat")
    p.add_argument("--n-range", default="8..14", help="A..B inclusive (family parameter)")
    p.add_argument("--ratio", type=float, default=4.3,
                   help="clause/variable ratio for random3sat")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seeds-per-n", type=int, default=3)
    p.add_argument("--timeout-ms", type=float, default=10_000.0,
                   help="per-instance budget in deterministic effort milliseconds")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the contract here is 1
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # DimacsError and VariableLimitError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
