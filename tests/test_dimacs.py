import io
import random
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import clause_key, formulas
from fpcsat import dimacs
from fpcsat.core import Formula, canonical_literals, variables_of
from fpcsat.dimacs import (
    BATCH_LITERALS, BLOCK_CHARS, DimacsDocument, DimacsError, _check_tokens, parse_dimacs,
    write_dimacs, write_result,
)
from fpcsat.instances import complete_minus_one
from fpcsat.solver import SAT, SolveConfig, SolveResult, check_sat


def fs(*lits):
    return frozenset(lits)


def test_parse_basic():
    doc = parse_dimacs("p cnf 2 2\n-1 0\n1 -2 0\n")
    assert doc.declared_vars == 2
    assert doc.declared_clauses == 2
    assert doc.clauses == [fs(-1), fs(1, -2)]
    assert not doc.warnings


def test_parse_comment():
    doc = parse_dimacs("c comment\np cnf 1 1\n1 0\n")
    assert doc.clauses == [fs(1)]


def test_parse_illustration():
    doc = parse_dimacs("p cnf 3 4\n-1 -2 0\n3 0\n-1 0\n1 -2 -3 0\n")
    assert doc.to_formula().clauses == {
        fs(-1, -2),
        fs(3),
        fs(-1),
        fs(1, -2, -3),
    }


def test_parse_multiline_and_shared_lines():
    doc = parse_dimacs("p cnf 3 3\n1\n2 0 2 3 0\n-1 -3 0\n")
    assert doc.clauses == [fs(1, 2), fs(2, 3), fs(-1, -3)]


def test_parse_empty_clause():
    doc = parse_dimacs("p cnf 1 2\n0\n1 0\n")
    assert doc.clauses == [frozenset(), fs(1)]


def test_parse_satlib_end_marker():
    doc = parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n%\n0\n\n")
    assert doc.clauses == [fs(1, 2), fs(-1)]
    assert not doc.warnings
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 2 2\n1 2 0\n-1\n%\n0\n")  # clause still open at %


def test_parse_errors():
    with pytest.raises(DimacsError):
        parse_dimacs("1 0\n")  # clause before header
    with pytest.raises(DimacsError):
        parse_dimacs("p dnf 1 1\n1 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf one 1\n1 0\n")
    with pytest.raises(DimacsError, match="line 1: negative counts in header"):
        parse_dimacs("p cnf -1 2\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1 1\n1 x 0\n")
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1 1\n1\n")  # unterminated clause
    with pytest.raises(DimacsError):
        parse_dimacs("")  # missing header
    with pytest.raises(DimacsError):
        parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")


@pytest.mark.parametrize(
    "text, lineno, token",
    [
        ("p cnf 3 1\n+3 0\n", 2, "+3"),
        ("p cnf 10 1\n1_0 0\n", 2, "1_0"),
        ("p cnf 3 1\n\u0663 0\n", 2, "\u0663"),  # Arabic-Indic three
        ("p cnf 3 1\n1 -2\n-\uff13 0\n", 3, "-\uff13"),  # fullwidth three
        ("c x\np cnf +3 1\n3 0\n", 2, "+3"),
        ("p cnf 1_0 1\n3 0\n", 1, "1_0"),
        ("p cnf 3 \u0661\n3 0\n", 1, "\u0661"),
        # characters str.splitlines() or str.split() break on, DIMACS does not
        ("p cnf 2 1\n1\u00a02 0\n", 2, "1\u00a02"),  # no-break space
        ("p cnf 2 1\n1\u20282 0\n", 2, "1\u20282"),  # line separator
        ("p cnf 2 1\n1\u00852 0\n", 2, "1\u00852"),  # next line
        ("p cnf 2 1\n1\x1c2 0\n", 2, "1\x1c2"),  # file separator
        ("p cnf 2 1\n1\x1f2 0\n", 2, "1\x1f2"),  # unit separator
        ("p cnf 2 1\n\n1 2 0\u00a0\n", 3, "0\u00a0"),
        ("p cnf 2 1\n\u3000\n1 2 0\n", 2, "\u3000"),  # blank but for U+3000
    ],
)
def test_parse_rejects_tokens_only_int_accepts(text, lineno, token):
    with pytest.raises(DimacsError) as exc:
        parse_dimacs(text)
    assert str(exc.value) == f"line {lineno}: non-integer token {token!r}"


def test_parse_crlf_and_utf8_comment():
    doc = parse_dimacs("c caf\u00e9 \u2028 x+y_z\r\np cnf 2 2\r\n1 -2 0\r\n2 0\r\n")
    assert doc.clauses == [fs(1, -2), fs(2)]
    assert not doc.warnings
    assert parse_dimacs("c \u00fcber\np cnf 1 1\n1 0").clauses == [fs(1)]


ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))


def int_only_spellings(lit: int) -> list[str]:
    """Spellings that ``int()`` reads as ``lit`` but DIMACS does not define."""
    text = str(lit)
    underscored = text.replace("-", "-0_") if lit < 0 else "0_" + text
    spellings = [underscored, text.translate(ARABIC_INDIC)]
    if lit > 0:
        spellings.append("+" + text)
    return spellings


@given(formulas(max_var=12, max_clauses=8, max_size=4), st.data())
def test_parse_rejects_int_only_spelling_anywhere(f, data):
    lines = write_dimacs(f).splitlines()
    with_literals = [i for i, line in enumerate(lines[1:], start=1) if line != "0"]
    if not with_literals:
        return
    i = data.draw(st.sampled_from(with_literals))
    tokens = lines[i].split()
    j = data.draw(st.integers(0, len(tokens) - 2))  # a literal, not the final 0
    spelling = data.draw(st.sampled_from(int_only_spellings(int(tokens[j]))))
    assert int(spelling) == int(tokens[j])
    tokens[j] = spelling
    lines[i] = " ".join(tokens)
    with pytest.raises(DimacsError) as exc:
        parse_dimacs("\n".join(lines) + "\n")
    assert str(exc.value) == f"line {i + 1}: non-integer token {spelling!r}"


def test_parse_warnings():
    doc = parse_dimacs("p cnf 1 1\n2 0\n")
    assert doc.declared_vars == 2  # raised to cover the literal
    assert any("exceeds" in w for w in doc.warnings)

    doc = parse_dimacs("p cnf 1 2\n1 0\n")
    assert any("declares 2" in w for w in doc.warnings)

    doc = parse_dimacs("p cnf 1 1\n1 1 0\n")
    assert "collapsed 1 duplicate literal(s) inside clauses" in doc.warnings
    assert doc.clauses == [fs(1)]


def test_parse_keeps_tautology():
    doc = parse_dimacs("p cnf 1 1\n1 -1 0\n")
    assert doc.clauses == [fs(1, -1)]


def reference_parse_dimacs(text: str) -> DimacsDocument:
    """The parser line by line and token by token, as it was before it went
    by blocks and runs of data lines."""
    declared_vars = declared_clauses = -1
    warnings: list[str] = []
    clauses = []
    current: set[int] = set()
    current_len = 0
    collapsed = 0
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if stripped.startswith("c"):
            continue
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
        warnings.append(f"header declares {declared_clauses} clauses, found {len(clauses)}")
    if collapsed:
        warnings.append(f"collapsed {collapsed} duplicate literal(s) inside clauses")
    return DimacsDocument(declared_vars, declared_clauses, clauses, warnings)


LITERALS = st.one_of(st.integers(-9, 9).map(str), st.sampled_from(["00", "-0", "007", "-12"]))
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "\x0b", "\x0c"])
QUIET_LINES = st.sampled_from([
    "c", "c comment", "c caf\u00e9 +3 \u3000", "  c indented", "\u3000c after U+3000",
    "", " ", "\t",
])
RARE_LINES = st.sampled_from([
    "%", " %", "p cnf 3 4", "  p cnf 9 2", "p cnf 2", "p dnf 1 1", "p cnf x 1", "p cnf -1 1",
    "p cnf +3 1",
])
# what int() or str.split() accept but DIMACS does not, and plain junk
UNDEFINED = st.sampled_from(
    ["+3", "1_0", "\u0663", "-\uff13", "x", "-", "\x1c", "\x1f", "\xa0", "\u2028", "\u3000"]
)


@st.composite
def dimacs_texts(draw):
    """Texts of data lines, with comment, blank, header and ``%`` lines among
    them, mostly after a header, with LF or CRLF ends, maybe no final line
    feed, and in one text in four something DIMACS does not define."""
    lines = []
    if draw(st.integers(0, 3)):
        lines.append(draw(st.sampled_from(["p cnf 3 4", "p cnf 9 2", "p cnf 0 0"])))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 19))
        if kind < 14:
            tokens = draw(st.lists(LITERALS, max_size=6)) + ["0"] * (kind % 4 > 0)
            seps = draw(st.lists(SEPARATORS, min_size=len(tokens), max_size=len(tokens)))
            lines.append("".join(map("".join, zip(seps, tokens))))
        else:
            lines.append(draw(QUIET_LINES if kind < 19 else RARE_LINES))
    ends = draw(st.lists(st.sampled_from(["\n", "\n", "\r\n"]), min_size=len(lines),
                         max_size=len(lines)))
    text = "".join(map("".join, zip(lines, ends)))
    if not draw(st.integers(0, 3)):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(UNDEFINED) + text[i:]
    return text if draw(st.booleans()) else text.rstrip("\n")


def parsed(text, block_chars):
    try:
        with patch.object(dimacs, "BLOCK_CHARS", block_chars):
            return parse_dimacs(text)
    except DimacsError as exc:
        return str(exc)


def reference_parsed(text):
    try:
        return reference_parse_dimacs(text)
    except DimacsError as exc:
        return str(exc)


@settings(max_examples=400)
@given(dimacs_texts())
@example("p cnf 2 2\n1 -2\n0 2 0\n")  # a clause across lines, so across blocks of 1
@example("p cnf 1 1\n1 0\n2 0\n3 -4 0\n")  # one warning per literal above the count
@example("p cnf 2 1\r\n1 2 0\r\n%\r\n+3\n")
def test_parse_matches_line_by_line_reference(text):
    want = reference_parsed(text)
    for block_chars in (1, 2, 7, BLOCK_CHARS):
        assert parsed(text, block_chars) == want


@pytest.mark.parametrize("block_chars", [7, 4096, BLOCK_CHARS])
def test_parse_large_texts_match_reference(block_chars):
    text = write_dimacs(complete_minus_one(7))
    lines = text.split("\n")
    commented = list(lines)
    commented[1::50] = [f"{line}\nc {i}" for i, line in enumerate(lines[1::50])]
    late_error = list(lines)
    late_error[1500] += " +3"
    variants = [
        text,
        text.replace("p cnf 7", "p cnf 2"),  # warnings past the first block
        text.replace("\n", "\r\n"),
        "\n".join(commented),
        "\n".join(late_error),
        "p cnf 7 2059\n" + " ".join(lines[1:]),  # one line of data
    ]
    for variant in variants:
        assert parsed(variant, block_chars) == reference_parsed(variant)


# a spelling of the literal 1 (or a blank, for U+001C-U+001F) for each
# character that ``int()`` or ``str.split()`` reads and DIMACS does not
# define; U+0661 is the Arabic-Indic one
RUN_UNDEFINED = {
    "+": "+1", "_": "0_1", "\u0661": "\u0661",
    "\x1c": "\x1c1", "\x1d": "1\x1d", "\x1e": "1\x1e", "\x1f": "\x1f1",
}


@pytest.mark.parametrize("char", RUN_UNDEFINED)
def test_fast_path_rejects_each_undefined_character_as_the_reference_does(char):
    lines = write_dimacs(complete_minus_one(6)).split("\n")
    for i, block_chars in ((3, BLOCK_CHARS), (600, 64)):  # the header's block, a later one
        variant = list(lines)
        variant[i] = f"{RUN_UNDEFINED[char]} {variant[i]}"
        text = "\n".join(variant)
        want = reference_parsed(text)
        assert want.startswith(f"line {i + 1}: non-integer token ")
        assert parsed(text, block_chars) == want


@pytest.mark.parametrize("block_chars", [64, 4096])
def test_special_lines_in_later_blocks_match_reference(block_chars):
    lines = write_dimacs(complete_minus_one(6)).split("\n")
    commented = ["c complete_minus_one(6), with p and % in a comment"] + lines
    # a block past the header's holds no c, p or %, and so skips the regex scan
    assert not {"c", "p", "%"} & set(list(dimacs._blocks("\n".join(commented), block_chars))[1])
    variants = [
        commented,
        # each line the only c, p or % in its block
        lines[:400] + ["c a comment in a later block", "\tc"] + lines[400:],
        lines[:400] + [" %", "+3 junk"] + lines[400:],
        lines[:400] + ["p dnf 6 1"] + lines[400:],  # duplicate header
    ]
    for variant in map("\n".join, variants):
        assert parsed(variant, block_chars) == reference_parsed(variant)


def test_write_examples():
    assert write_dimacs(Formula.from_clauses([[1]])) == "p cnf 1 1\n1 0\n"
    assert write_dimacs(Formula.from_clauses([])) == "p cnf 0 0\n"


@given(formulas(max_var=9, max_clauses=12, max_size=5))
def test_write_parse_round_trip(f):
    text = write_dimacs(f)
    doc = parse_dimacs(text)
    assert doc.to_formula().clauses == f.clauses
    assert doc.clauses == sorted(f.clauses, key=clause_key)
    assert doc.declared_clauses == len(f.clauses)
    assert not doc.warnings
    assert write_dimacs(doc.to_formula()) == text


def reference_write_dimacs(f) -> str:
    """The writer clause by clause: sorted by ``clause_key``, literals by
    ``canonical_literals``, ``n`` the largest of ``variables_of``."""
    variables = variables_of(f)
    lines = [f"p cnf {max(variables, default=0)} {len(f.clauses)}"]
    for c in sorted(f.clauses, key=clause_key):
        lines.append(" ".join([*map(str, canonical_literals(c)), "0"]))
    return "\n".join(lines) + "\n"


@given(formulas(max_var=9, max_clauses=12, max_size=5))
@example(Formula.from_clauses([]))
@example(Formula.from_clauses([[]]))
@example(Formula.from_clauses([[3, -3], [], [2, -1, 2], [2, -1], [-3, 3, 1], [7]]))
def test_write_matches_clause_by_clause_reference(f):
    assert write_dimacs(f) == reference_write_dimacs(f)


@pytest.mark.parametrize("n", range(9))
def test_write_complete_minus_one_matches_reference(n):
    f = complete_minus_one(n)
    assert write_dimacs(f) == reference_write_dimacs(f)


def render(result) -> str:
    out = io.StringIO()
    write_result(result, out)
    return out.getvalue()


def test_write_result_lines():
    sat = check_sat(Formula.from_clauses([[-1], [1, -2]]))
    assert render(sat) == "s SATISFIABLE\nv -1 -2 0\n"

    unsat = check_sat(Formula.from_clauses([[]]))
    assert render(unsat) == "s UNSATISFIABLE\n"

    capped = check_sat(Formula.from_clauses([[1, 2]]), SolveConfig(node_budget=1))
    assert capped.verdict == "RESOURCE_EXCEEDED"
    assert render(capped) == "s UNKNOWN\n"


def test_write_result_illustration_model():
    f = Formula.from_clauses([[-1, -2], [3], [-1], [1, -2, -3]])
    result = check_sat(f)
    assert render(result) == "s SATISFIABLE\nv -1 -2 3 0\n"


def reference_result(result) -> str:
    """The per-literal renderer the table renderer replaced: one dict per
    model, sorted and formatted literal by literal."""
    lines = ["s SATISFIABLE"]
    k = len(result.order)
    for m in result.entries:
        model = {v: not m >> (k - 1 - i) & 1 for i, v in enumerate(result.order)}
        lits = [(v if model[v] else -v) for v in sorted(model)]
        lines.append("v " + " ".join(str(x) for x in lits + [0]))
    return "\n".join(lines) + "\n"


@st.composite
def packed_models(draw):
    """A registration order and 1-300 packed entries over it."""
    # k crosses the chunk width 8 and goes past 64 bits
    k = draw(st.sampled_from([0, 1, 7, 8, 9, 16, 17, 65]))
    variables = draw(st.sets(st.integers(1, 200), min_size=k, max_size=k))
    order = draw(st.permutations(sorted(variables)))
    entries = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=300))
    return list(order), entries


# one model over 2,000 shuffled variables, in 250 chunks
WIDE_ORDER = random.Random(0).sample(range(1, 6001), 2000)
WIDE_ENTRY = random.Random(1).getrandbits(2000)
# one entry more than a batch holds at k = 2, so a batch boundary falls inside
BATCH_ORDER = [9, 4]
BATCH_ENTRIES = [i % 4 for i in range(BATCH_LITERALS // 2 + 1)]


@example((WIDE_ORDER, [WIDE_ENTRY]))
@example((BATCH_ORDER, BATCH_ENTRIES))
@given(packed_models())
def test_write_result_matches_per_literal_reference(case):
    order, entries = case
    for reported in (entries[:1], entries):  # solve without and with --all-models
        result = SolveResult(SAT, order, reported)
        assert render(result) == reference_result(result)


class RecordingStream(io.StringIO):
    """A text stream that keeps each ``write`` apart."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


@pytest.mark.parametrize("k", [1, 22, 2000])
def test_write_result_writes_one_batch_at_a_time(k):
    # no write may hold the whole listing: a batch is BATCH_LITERALS // k lines
    per_batch = max(1, BATCH_LITERALS // k)
    rng = random.Random(k)
    order = rng.sample(range(1, 3 * k + 1), k)
    entries = [rng.getrandbits(k) for _ in range(2 * per_batch + 1)]
    out = RecordingStream()
    write_result(SolveResult(SAT, order, entries), out)
    lines = [text.count("\n") for text in out.writes]
    assert sum(lines) == 1 + len(entries)
    assert max(lines) <= per_batch
    assert out.getvalue() == reference_result(SolveResult(SAT, order, entries))
