"""DIMACS CNF parsing/writing and SAT-competition result lines."""

from __future__ import annotations

import re
from itertools import repeat
from typing import Iterator, NamedTuple

from .core import Clause, Clauses, Formula, gc_paused, literal_key
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
        """The clauses as a formula whose clause set iterates in file order."""
        return Formula(clauses=Clauses(self.clauses), original_count=len(self.clauses))


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


# a comment, header or ``%`` line: its first character past what
# ``str.strip()`` strips is one of these; ``[^\S\n]`` is that whitespace
# less the line feed
_SPECIAL_LINE = re.compile(r"^[^\S\n]*[cp%].*$", re.M)
# characters of text per block, at least; a block ends at a line feed
BLOCK_CHARS = 1 << 16


def _blocks(text: str, size: int) -> Iterator[str]:
    """The text in pieces of at least ``size`` characters, each cut after the
    first line feed that allows, the last maybe shorter and without one."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + size - 1) + 1 or len(text)
        yield text[start:end]
        start = end


class _Values(dict):
    """``int()`` of each token, computed the first time it is asked for; a
    token ``int()`` rejects raises its ``ValueError``.  ``top`` is the largest
    ``abs()`` of the values so far."""

    top = 0

    def __missing__(self, token):
        value = self[token] = int(token)
        self.top = max(self.top, abs(value))
        return value


def _header(stripped: str, lineno: int) -> tuple[int, int]:
    """The variable and clause counts of a ``p cnf n m`` line."""
    parts = stripped.split()
    if len(parts) != 4 or parts[1] != "cnf":
        raise DimacsError(f"line {lineno}: malformed header {stripped!r}")
    try:
        counts = int(parts[2]), int(parts[3])
    except ValueError:
        raise DimacsError(f"line {lineno}: malformed header {stripped!r}") from None
    if min(counts) < 0:
        raise DimacsError(f"line {lineno}: negative counts in header")
    return counts


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

    The text goes in blocks of ``BLOCK_CHARS`` characters or more, each cut
    after a line feed.  Comment, header and ``%`` lines are handled one by
    one; each run of data lines between them is converted in one pass, and
    walked line by line only if it holds an error or a literal above
    ``declared_vars``.
    """
    declared_vars = declared_clauses = -1
    warnings: list[str] = []
    clauses: list[Clause] = []
    current: list[int] = []  # the literals of a clause still open
    collapsed = 0
    values = _Values()

    def literals(run: str, lineno: int) -> list[int]:
        """The literals of a run of data lines, the first of them ``lineno``."""
        nonlocal declared_vars
        # ``_HAS_UNDEFINED.search(run) is None``, in str tests that are far faster
        if declared_vars >= 0 and run.isascii() and not (
            "+" in run or "_" in run
            or "\x1c" in run or "\x1d" in run or "\x1e" in run or "\x1f" in run
        ):
            try:
                lits = list(map(values.__getitem__, run.split()))
            except ValueError:
                pass
            else:
                if values.top <= declared_vars:
                    return lits
        lits = []
        for lineno, line in enumerate(run.split("\n"), start=lineno):
            _check_tokens(line, lineno)
            tokens = line.split()
            if tokens and declared_vars < 0:
                raise DimacsError(f"line {lineno}: clause data before 'p cnf' header")
            for token in tokens:
                try:
                    lit = int(token)
                except ValueError:
                    raise DimacsError(f"line {lineno}: non-integer token {token!r}") from None
                if abs(lit) > declared_vars:
                    warnings.append(
                        f"line {lineno}: literal {lit} exceeds declared_vars={declared_vars}"
                    )
                    declared_vars = abs(lit)
                lits.append(lit)
        return lits

    def add(run: str, lineno: int) -> int:
        """Close each clause that a run of data lines ends; return the number
        of the line after the run."""
        nonlocal current, collapsed
        lits = literals(run, lineno)
        if current:
            lits[:0] = current
        a = 0
        try:
            while True:
                b = lits.index(0, a)
                # a frozenset of a set gets a table sized to the set, not to the list
                c = frozenset(set(lits[a:b]))
                clauses.append(c)
                collapsed += b - a - len(c)
                a = b + 1
        except ValueError:
            current = lits[a:]
        return lineno + run.count("\n")

    lineno = 1
    for block in _blocks(text, BLOCK_CHARS):
        start = 0
        # a block with no c, p or % holds no special line: skip the regex scan
        has_special = "c" in block or "p" in block or "%" in block
        for m in _SPECIAL_LINE.finditer(block) if has_special else ():
            lineno = add(block[start:m.start()], lineno)
            start = m.end() + 1
            line = m.group()
            stripped = line.strip()
            if not stripped.startswith("c"):
                _check_tokens(line, lineno)
                if stripped.startswith("%"):
                    break
                if declared_vars >= 0:
                    raise DimacsError(f"line {lineno}: duplicate header")
                declared_vars, declared_clauses = _header(stripped, lineno)
            lineno += 1
        else:
            lineno = add(block[start:], lineno)
            continue
        break  # at a % line

    if current:
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

    Clauses come by ascending length, then by their lists of literal keys,
    literals by ``literal_key``, so the output is byte-stable."""
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
