"""The text format for sequence sets.

A header line `q=<int> rows=<int> len=<int>`, optional `#` note lines, then
one line per row of exactly `len` ASCII digits (the exponent of each entry;
q in [1, MAX_Q], the alphabets a `Sequence` admits, so every set has a
text form). For q=2 that makes `0` mean +1 and `1` mean -1. Files are UTF-8.
A row costs one regex scan, which finds its first invalid character (a
ParseError names its line and column), and one `bytes.translate`.

Set files are capped at SET_LEN_CAP = 2^16 entries a row and SET_ENTRY_CAP =
2^19 in all. `read_set_file` checks the caps on the header line, then reads at
most its rows (each with a `\r\n`) and SET_NOTE_BYTES = 2^16 bytes of notes.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Optional, Union

from .algebra import MAX_Q, Sequence
from .errors import InputError, ParseError, WorkBoundExceeded
from .verify import ComplementarySet

SET_LEN_CAP = 2**16  # length of rows read or written; theorem2 on capped gcp pairs writes 49,152
SET_ENTRY_CAP = 8 * SET_LEN_CAP  # rows * len of set files read or written; theorem2 writes 8 rows
SET_NOTE_BYTES = 2**16  # the most a set file read holds beyond its header line and rows
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


def check_caps(what: str, rows: int, length: int) -> None:
    if length > SET_LEN_CAP:
        raise WorkBoundExceeded(f"{what}: row length {length} is above the cap of {SET_LEN_CAP}")
    if rows * length > SET_ENTRY_CAP:
        raise WorkBoundExceeded(
            f"{what}: {rows} rows of length {length} are above the cap of {SET_ENTRY_CAP} entries"
        )


def read_set_file(path) -> tuple[ComplementarySet, Optional[str]]:
    """The set and note of the file `path`: a str, or a Path or resource with `open`."""
    # open("") names the missing file ''; Path("") would be the directory "."
    with open(path, "rb") if isinstance(path, str) else path.open("rb") as fh:
        head = fh.readline(256)
        q, rows, length = parse_header(decode_text(head))
        check_caps(str(path), rows, length)
        size = rows * (length + 2) + SET_NOTE_BYTES
        data = head + fh.read(size + 1)
    if len(data) > len(head) + size:
        raise InputError(f"{path}: longer than q={q} rows={rows} len={length} and its notes")
    return parse_set(decode_text(data))


def without_path(exc: Exception, path) -> str:
    """The message of a refusal by `read_set_file(path)`, without the path
    that its cap and length refusals name first; for callers that name the
    file themselves."""
    return str(exc).removeprefix(f"{path}: ")


def write_set_file(path: Union[str, Path], cs: ComplementarySet) -> None:
    Path(path).write_text(serialize_set(cs), encoding="utf-8")
