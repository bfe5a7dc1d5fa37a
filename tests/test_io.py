"""The text sequence-set format."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cskit.algebra import Sequence
from cskit.errors import InputError, ParseError
from cskit.io import parse_header, parse_set, serialize_set
from cskit.search import canonical_rows, first_cs, search_cs
from cskit.verify import ComplementarySet

from helpers import oracle_parse_set, signs


def make_set(q, rows):
    return ComplementarySet(tuple(Sequence.from_exponents(q, r) for r in rows))


def stacks(max_q=10):
    def build(args):
        q, p, n, seed = args
        import random

        rng = random.Random(seed)
        return make_set(q, [[rng.randrange(q) for _ in range(n)] for _ in range(p)])

    return st.tuples(
        st.integers(1, max_q), st.integers(1, 6), st.integers(1, 12), st.integers(0, 10**6)
    ).map(build)


def test_text_format_shape():
    cs = make_set(2, [[0, 0, 1], [0, 1, 0]])
    text = serialize_set(cs)
    assert text == "q=2 rows=2 len=3\n001\n010\n"


def test_binary_digit_convention():
    # '0' carries +1 and '1' carries -1
    cs, _ = parse_set("q=2 rows=1 len=4\n0010\n")
    assert cs.rows[0] == signs("++-+")


def test_note_lines_round_trip():
    cs = make_set(4, [[0, 1, 2, 3]])
    text = serialize_set(cs, note="provenance=literature\nsecond line")
    parsed, note = parse_set(text)
    assert parsed.rows == cs.rows
    assert note == "provenance=literature\nsecond line"


@given(stacks())
@settings(max_examples=120, deadline=None)
def test_text_round_trip(cs):
    parsed, note = parse_set(serialize_set(cs))
    assert parsed.rows == cs.rows
    assert note is None
    assert serialize_set(parsed) == serialize_set(cs)


@pytest.mark.parametrize(
    "text,line,col",
    [
        ("", 1, 1),
        ("q=2 rows=2\n00\n01\n", 1, 1),
        ("q=0 rows=1 len=1\n0\n", 1, 3),
        ("q=2 rows=1 len=3\n0010\n", 2, 4),
        ("q=2 rows=1 len=3\n00\n", 2, 3),
        ("q=2 rows=1 len=3\n0x0\n", 2, 2),
        ("q=2 rows=1 len=3\n020\n", 2, 2),
        ("q=2 rows=2 len=2\n00\n", 2, 1),
        ("q=2 rows=1 len=2\n00\n# note after data\n", 3, 1),
        ("q=4 rows=2 len=2\n0\u00b2\n00\n", 2, 2),
        ("q=4 rows=1 len=1\n\u0663\n", 2, 1),
        ("q=\u0664 rows=1 len=1\n0\n", 1, 1),
    ],
)
def test_parse_errors_carry_line_and_column(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse_set(text)
    assert exc.value.line == line
    assert exc.value.column == col


@pytest.mark.parametrize("q", [0, 11, 12, 97, 257, 300])
def test_alphabet_range_is_refused_everywhere(q):
    # q outside [1, 10] is an InputError at every entry point that takes a
    # q, never a ValueError from bytes() or an IndexError from a table; so
    # no set exists that the text format could not write
    row = (0, max(q - 1, 0))
    for call in (lambda: Sequence(q, row), lambda: Sequence.from_exponents(q, row),
                 lambda: search_cs(q, 2, 2), lambda: first_cs(q, 2, 2),
                 lambda: canonical_rows(q, [row, (0, 0)])):
        with pytest.raises(InputError) as exc:
            call()
        assert type(exc.value) is InputError
    with pytest.raises(ParseError) as exc:
        parse_header(f"q={q} rows=1 len=1\n0\n")
    assert (str(exc.value), exc.value.line, exc.value.column) == (
        f"q={q} outside [1, 10] (line 1, column 3)", 1, 3)


# ---------------------------------------------------------------------------
# parse_set against the per-character oracle.

# characters a mutated row may carry: non-digits, non-ASCII digits
# (superscript two, Arabic-Indic three, fullwidth zero), a note marker
_ODD_CHARS = "x #-+\t\u00b2\u0663\uff10\u00e9"


@st.composite
def set_texts(draw):
    """A set file whose rows are valid, or mutated: one character replaced
    (by any ASCII digit, digits >= q included, or an odd character), one
    character dropped or one added."""
    q, rows, n = draw(st.integers(1, 10)), draw(st.integers(1, 4)), draw(st.integers(1, 12))
    body = []
    for _ in range(draw(st.integers(max(rows - 1, 0), rows + 1))):
        row = draw(st.text("0123456789"[:q], min_size=n, max_size=n))
        col = draw(st.integers(0, n - 1))
        mutation = draw(st.sampled_from(["none", "none", "replace", "drop", "add"]))
        if mutation == "replace":
            ch = draw(st.sampled_from("0123456789" + _ODD_CHARS))
            row = row[:col] + ch + row[col + 1:]
        elif mutation == "drop":
            row = row[:col] + row[col + 1:]
        elif mutation == "add":
            row = row[:col] + draw(st.sampled_from("0123456789" + _ODD_CHARS)) + row[col:]
        body.append(row)
    return f"q={q} rows={rows} len={n}\n" + "".join(row + "\n" for row in body)


def outcome(parse, text):
    """(rows, note) of a parse, or the message, line and column of its error."""
    try:
        cs, note = parse(text)
    except ParseError as exc:
        return "error", str(exc), exc.line, exc.column
    return "ok", tuple(row.exponents for row in cs.rows), cs.q, note


@given(set_texts())
@settings(max_examples=400, deadline=None)
def test_parse_matches_per_character_oracle(text):
    assert outcome(parse_set, text) == outcome(oracle_parse_set, text)


@pytest.mark.parametrize("text", [
    "", "\n", "\nq=2 rows=1 len=1\n0\n", "q=2 rows=1 len=1", "q=2 rows=1 len=1\r\n0\r\n",
    "q=2 rows=1 len=1\x850\n", "q=2 rows=1 len=1\u2028\n0\n", "q=2 rows=1\x85 len=1\n0\n",
    "q=2 rows=1 len=1\r", "q=11 rows=1 len=1\n0\n", "q=2 rows=0 len=1\n",
])
def test_header_line_ends_where_splitlines_ends_it(text):
    # parse_header reads the header without splitting the whole text
    assert outcome(parse_set, text) == outcome(oracle_parse_set, text)


@pytest.mark.parametrize("q", range(1, 11))
def test_parse_reports_the_first_invalid_character(q):
    # the first exponent >= q or non-digit, whichever comes first
    out = str(q) if q < 10 else "x"
    for row, col in [("00000" + out + "x", 6), ("0x" + out * 5, 2), ("000000\u0663", 7)]:
        text = f"q={q} rows=1 len=7\n{row}\n"
        assert outcome(parse_set, text) == outcome(oracle_parse_set, text)
        assert outcome(parse_set, text)[3] == col
