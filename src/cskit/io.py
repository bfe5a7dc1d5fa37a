"""The text format for sequence sets.

A header line `q=<int> rows=<int> len=<int>`, optional `#` note lines, then
one line per row of exactly `len` ASCII digits (the exponent of each entry;
q in [1, MAX_Q], the alphabets a `Sequence` admits, so every set has a
text form). For q=2 that makes `0` mean +1 and `1` mean -1. Files are UTF-8.
A row costs one regex scan, which finds its first invalid character (a
ParseError names its line and column), and one `bytes.translate`.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Union

from .algebra import MAX_Q, Sequence
from .errors import ParseError
from .verify import ComplementarySet

_HEADER = re.compile(r"^q=([0-9]+) rows=([0-9]+) len=([0-9]+)$")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def serialize_set(cs: ComplementarySet, note: Optional[str] = None) -> str:
    lines = [f"q={cs.q} rows={cs.size} len={cs.length}"]
    if note:
        lines.extend(f"# {part}" for part in note.splitlines())
    lines.extend(row.render() for row in cs.rows)
    return "\n".join(lines) + "\n"


def parse_header(text: str) -> tuple[int, int, int]:
    """q, rows and len from a set file's header, read without its rows."""
    if not text:
        raise ParseError("empty input", 1, 1)
    end = text.find("\n")
    # the first of splitlines' lines ends at or before the first "\n"
    first = (text[:end] if end >= 0 else text).splitlines()
    m = _HEADER.match(first[0] if first else "")
    if not m:
        raise ParseError("header must be 'q=<int> rows=<int> len=<int>'", 1, 1)
    q, rows, length = (int(g) for g in m.groups())
    if not 1 <= q <= MAX_Q:
        raise ParseError(f"q={q} outside [1, {MAX_Q}]", 1, 3)
    if rows < 1 or length < 1:
        raise ParseError("rows and len must be >= 1", 1, 1)
    return q, rows, length


def parse_set(text: str) -> tuple[ComplementarySet, Optional[str]]:
    q, rows, length = parse_header(text)
    lines = text.splitlines()
    note_parts: list[str] = []
    data: list[tuple[int, ...]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        if raw.startswith("#"):
            if data:
                raise ParseError("note lines must precede the data rows", lineno, 1)
            note_parts.append(raw[1:].lstrip())
            continue
        if len(raw) != length:
            raise ParseError(
                f"row must have exactly {length} characters, got {len(raw)}",
                lineno,
                min(len(raw) + 1, length + 1),
            )
        bad = re.search(f"[^0-{q - 1}]", raw)  # the first character that is no digit below q
        if bad:
            ch, col = bad.group(), bad.start() + 1
            if not "0" <= ch <= "9":
                raise ParseError(f"bad character {ch!r}", lineno, col)
            raise ParseError(f"exponent {ch} outside [0, {q})", lineno, col)
        data.append(tuple(raw.encode("ascii").translate(_DIGIT_VALUES)))
    if len(data) != rows:
        raise ParseError(f"expected {rows} rows, found {len(data)}", len(lines), 1)

    cs = ComplementarySet(tuple(Sequence(q, r) for r in data))
    note = "\n".join(note_parts) if note_parts else None
    return cs, note


def decode_text(data: bytes) -> str:
    """The UTF-8 text of a set file's bytes; a ParseError names the first
    byte that is not UTF-8."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(
            f"byte 0x{data[exc.start]:02x} is not UTF-8", line, exc.start - line_start + 1
        ) from None


def read_set_file(path: Union[str, Path]) -> tuple[ComplementarySet, Optional[str]]:
    return parse_set(decode_text(Path(path).read_bytes()))


def write_set_file(path: Union[str, Path], cs: ComplementarySet) -> None:
    Path(path).write_text(serialize_set(cs), encoding="utf-8")
