"""DIMACS CNF parsing/writing and SAT-competition result lines."""

from __future__ import annotations

import re
from itertools import product
from typing import NamedTuple

from .core import Clause, Formula, canonical_literals, clause_key, variables_of


class DimacsError(ValueError):
    """Malformed DIMACS input."""


class DimacsDocument(NamedTuple):
    declared_vars: int
    declared_clauses: int
    clauses: list[Clause]
    comments: list[str]
    warnings: list[str]
    duplicate_literals_collapsed: int

    def to_formula(self) -> Formula:
        return Formula(clauses=frozenset(self.clauses), original_count=len(self.clauses))


# what int() or str.split() accept but DIMACS does not define: a "+" sign
# (\x2b), a "_" digit separator (\x5f), the separators U+001C-U+001F and any
# non-ASCII character.  A negated ASCII class compiles in a fraction of a
# millisecond; a class spelling out \x80-\U0010ffff takes several.
_UNDEFINED = "[^\x00-\x1b\x20-\x2a\x2c-\x5e\x60-\x7f]"
_HAS_UNDEFINED = re.compile(_UNDEFINED)
_TOKEN_WITH_UNDEFINED = re.compile(f"[^ \t\r\v\f]*{_UNDEFINED}[^ \t\r\v\f]*")


def _check_tokens(line: str, lineno: int) -> None:
    """Reject a line that holds an ``_UNDEFINED`` character, naming the token,
    delimited by ASCII whitespace only, that holds it."""
    if _HAS_UNDEFINED.search(line) is not None:
        token = _TOKEN_WITH_UNDEFINED.search(line).group()
        raise DimacsError(f"line {lineno}: non-integer token {token!r}")


def parse_dimacs(text: str | bytes) -> DimacsDocument:
    """Parse DIMACS CNF text.

    Clauses are whitespace-separated signed integers terminated by 0 and may
    span lines or share one.  ``c`` lines are comments; a ``p cnf n m`` header
    must precede the clauses.  A ``%`` line, as in SATLIB files, ends the
    clauses and everything after it is ignored.  Sloppy headers (wrong
    counts, too-small n) are warnings, not errors; real-world CNF files earn
    that leniency.  Lines end at a line feed (a carriage return before it is
    stripped), and outside comments the text is plain ASCII: ``+3``,
    ``1_0``, non-ASCII digits or whitespace and the separators
    U+001C-U+001F, which ``int()``, ``str.split()`` or ``str.splitlines()``
    would read, are errors.
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

    # one C-level scan of the whole text; only a text it flags, perhaps for
    # a comment alone, is checked line by line
    check = _HAS_UNDEFINED.search(text) is not None
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped.startswith("c"):
            comments.append(stripped[1:].lstrip())
            continue
        if check:
            _check_tokens(line, lineno)
        if not stripped:
            continue
        if stripped.startswith("%"):
            break
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
    """SAT-competition result lines for a ``SolveResult``: one ``v`` line per
    model, the true literal of each variable in ascending order, 0-terminated;
    resource exhaustion renders as UNKNOWN.

    Lookup tables over chunks of ``w`` bits permute each packed entry from
    registration into ascending variable order, then map each chunk to its
    pre-rendered text.  A chunk costs a fixed part, one step per table row
    (2^w of them) and one per model, so ``w`` grows with the number of models
    and the number of chunks falls with it."""
    if result.verdict == "UNSAT":
        return "s UNSATISFIABLE\n"
    if result.verdict != "SAT":
        return "s UNKNOWN\n"
    order, entries = result.order, result.entries
    k = len(order)
    if not k:  # the one FPC over no variables, the empty clause
        return "s SATISFIABLE\n" + "v 0\n" * len(entries)
    ascending = sorted(order)
    rank = {v: j for j, v in enumerate(ascending)}
    # entry bit k-1-i is the sign of order[i]; permuted bit k-1-j that of ascending[j]
    moves = [1 << (k - 1 - rank[v]) for v in order]
    # a set bit is the FPC's positive literal, which the model falsifies; the
    # first and last variable's texts open and close the line
    texts = [(" " + v, " -" + v) for v in map(str, ascending)]
    texts[0] = ("v" + texts[0][0], "v" + texts[0][1])
    texts[-1] = (texts[-1][0] + " 0\n", texts[-1][1] + " 0\n")
    # a chunk's fixed part costs about as much as 10 table rows or models
    w = min(range(1, 9), key=lambda w: -(-k // w) * (10 + (1 << w) + len(entries)))
    # chunk [a, b) of either list is bits k-b .. k-1-a, its first item the highest
    spans = [(a, min(a + w, k)) for a in range(0, k, w)]

    permuted = [0] * len(entries)
    for a, b in spans:
        table = [0]
        for bit in reversed(moves[a:b]):
            table += [x | bit for x in table]
        shift, mask = k - b, (1 << (b - a)) - 1
        permuted = [p | table[m >> shift & mask] for p, m in zip(permuted, entries)]
    columns = []
    for a, b in spans:
        table = list(map("".join, product(*texts[a:b])))
        shift, mask = k - b, (1 << (b - a)) - 1
        columns.append([table[p >> shift & mask] for p in permuted])
    del permuted
    lines = ["s SATISFIABLE\n"]  # one join builds the whole text once
    lines += [text for line in zip(*columns) for text in line]
    del columns
    return "".join(lines)
