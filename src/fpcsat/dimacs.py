"""DIMACS CNF parsing/writing and SAT-competition result lines."""

from __future__ import annotations

import re
from itertools import repeat
from typing import NamedTuple

from .core import Clause, Formula, gc_paused, literal_key
from .tree import sign_bits


class DimacsError(ValueError):
    """Malformed DIMACS input."""


class DimacsDocument(NamedTuple):
    declared_vars: int
    declared_clauses: int
    clauses: list[Clause]
    warnings: list[str]

    @gc_paused()
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


@gc_paused()
def parse_dimacs(text: str) -> DimacsDocument:
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
    declared_vars = declared_clauses = -1
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
        warnings=warnings,
    )


class _LiteralKeys(dict):
    """``literal_key`` of each literal, computed the first time it is asked for."""

    def __missing__(self, lit):
        key = self[lit] = literal_key(lit)
        return key


@gc_paused()
def write_dimacs(f: Formula) -> str:
    """Render a formula as DIMACS text; round-trips through ``parse_dimacs``.

    Clauses come in ``clause_key`` order, literals by ``literal_key``, so the
    output is byte-stable: lists of literal keys, sorted, then stably by length."""
    keys = _LiteralKeys()
    rows = sorted(map(sorted, map(map, repeat(keys.__getitem__), f.clauses)))
    rows.sort(key=len)
    text = {key: f"{lit} " for lit, key in keys.items()}
    body = "0\n".join(map("".join, map(map, repeat(text.__getitem__), rows)))
    n = max(text, default=0) >> 1
    return f"p cnf {n} {len(rows)}\n" + body + "0\n" * bool(rows)


# literals per batch of v lines, the most text write_result holds at once
BATCH_LITERALS = 1 << 16


class _Chunk(dict):
    """The text of up to 8 variables, keyed by an entry's bits for them
    (``m & mask``); a key is rendered the first time an entry holds it."""

    def __init__(self, variables, bit):
        self.pairs = [(v, bit[v]) for v in variables]
        self.mask = sum(map(bit.__getitem__, variables))

    def __missing__(self, key):
        # a set bit is the FPC's positive literal, which the model falsifies
        text = self[key] = "".join([f" -{v}" if key & b else f" {v}" for v, b in self.pairs])
        return text


def write_result(result, out) -> None:
    """Write the SAT-competition result lines of a ``SolveResult`` to the text
    stream ``out``: one ``v`` line per model, the true literal of each
    variable in ascending order, 0-terminated; UNKNOWN on resource exhaustion.

    The variables, in ascending order, fall into chunks of up to 8, each with
    a table from an entry's bits for them to their text that holds only the
    keys that occur, so a line costs one lookup per chunk.  Lines go out in
    batches of about ``BATCH_LITERALS`` literals."""
    if result.verdict != "SAT":
        out.write("s UNSATISFIABLE\n" if result.verdict == "UNSAT" else "s UNKNOWN\n")
        return
    out.write("s SATISFIABLE\n")
    k, entries = len(result.order), result.entries
    bit = dict(sign_bits(result.order))
    ascending = sorted(result.order)
    # k = 0, the one FPC over no variables (the empty clause), is one empty chunk
    chunks = [_Chunk(ascending[a:a + 8], bit) for a in range(0, max(k, 1), 8)]
    per_batch = max(1, BATCH_LITERALS // max(k, 1))
    for i in range(0, len(entries), per_batch):
        batch = entries[i:i + per_batch]
        lines = zip(*[map(c.__getitem__, map(c.mask.__and__, batch)) for c in chunks])
        out.write("v" + " 0\nv".join(map("".join, lines)) + " 0\n")
