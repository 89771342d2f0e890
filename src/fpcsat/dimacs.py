"""DIMACS CNF parsing/writing and SAT-competition result lines."""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Clause, Formula, canonical_literals, clause_key, variables_of


class DimacsError(ValueError):
    """Malformed DIMACS input."""


@dataclass
class DimacsDocument:
    declared_vars: int
    declared_clauses: int
    clauses: list[Clause]
    comments: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    duplicate_literals_collapsed: int = 0

    def to_formula(self) -> Formula:
        return Formula(clauses=frozenset(self.clauses), original_count=len(self.clauses))


def _check_tokens(line: str, lineno: int) -> None:
    """Reject what ``int()`` reads but DIMACS does not define: a ``+`` sign,
    a ``_`` digit separator or a non-ASCII digit."""
    if line.isascii() and "+" not in line and "_" not in line:
        return
    for token in line.split():
        if not token.isascii() or "+" in token or "_" in token:
            raise DimacsError(f"line {lineno}: non-integer token {token!r}")


def parse_dimacs(text: str | bytes) -> DimacsDocument:
    """Parse DIMACS CNF text.

    Clauses are whitespace-separated signed integers terminated by 0 and may
    span lines or share one.  ``c`` lines are comments; a ``p cnf n m`` header
    must precede the clauses.  A ``%`` line, as in SATLIB files, ends the
    clauses and everything after it is ignored.  Sloppy headers (wrong
    counts, too-small n) are warnings, not errors; real-world CNF files earn
    that leniency.  Integers are plain ASCII: ``+3``, ``1_0`` and non-ASCII
    digits, which ``int()`` would read, are errors.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8", errors="replace")

    declared_vars = declared_clauses = -1
    comments: list[str] = []
    warnings: list[str] = []
    clauses: list[Clause] = []
    current: set[int] = set()
    current_len = 0
    collapsed = 0

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("%"):
            break
        if stripped.startswith("c"):
            comments.append(stripped[1:].lstrip())
            continue
        _check_tokens(stripped, lineno)
        if stripped.startswith("p"):
            if declared_vars >= 0:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = stripped.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {stripped!r}")
            try:
                declared_vars, declared_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {stripped!r}") from None
            if declared_vars < 0 or declared_clauses < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
            continue
        if declared_vars < 0:
            raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
        for token in stripped.split():
            try:
                lit = int(token)
            except ValueError:
                raise DimacsError(f"line {lineno}: non-integer token {token!r}") from None
            if lit == 0:
                clauses.append(frozenset(current))
                collapsed += current_len - len(current)
                current = set()
                current_len = 0
            else:
                if abs(lit) > declared_vars:
                    warnings.append(
                        f"line {lineno}: literal {lit} exceeds declared_vars={declared_vars}"
                    )
                    declared_vars = abs(lit)
                current.add(lit)
                current_len += 1

    if current or current_len:
        raise DimacsError("unterminated clause at end of input (missing trailing 0)")
    if declared_vars < 0:
        raise DimacsError("missing 'p cnf' header")
    if declared_clauses != len(clauses):
        warnings.append(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    if collapsed:
        warnings.append(f"collapsed {collapsed} duplicate literal(s) inside clauses")
    return DimacsDocument(
        declared_vars=declared_vars,
        declared_clauses=declared_clauses,
        clauses=clauses,
        comments=comments,
        warnings=warnings,
        duplicate_literals_collapsed=collapsed,
    )


def write_dimacs(f: Formula) -> str:
    """Render a formula as DIMACS text; round-trips through ``parse_dimacs``.

    Clauses are emitted in canonical order so output is byte-stable.
    """
    variables = variables_of(f)
    n = max(variables) if variables else 0
    lines = [f"p cnf {n} {len(f.clauses)}"]
    for c in sorted(f.clauses, key=clause_key):
        parts = [str(lit) for lit in canonical_literals(c)]
        parts.append("0")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def write_result(result) -> str:
    """SAT-competition style result lines for a SolveResult-like object.

    One ``v`` line per reported model, listing the literal true for each
    assigned variable, 0-terminated.  Resource exhaustion renders as UNKNOWN.
    """
    verdict = result.verdict
    if verdict == "SAT":
        lines = ["s SATISFIABLE"]
        for model in result.models:
            lits = [(v if model[v] else -v) for v in sorted(model)]
            lines.append("v " + " ".join(str(x) for x in lits + [0]))
        return "\n".join(lines) + "\n"
    if verdict == "UNSAT":
        return "s UNSATISFIABLE\n"
    return "s UNKNOWN\n"
