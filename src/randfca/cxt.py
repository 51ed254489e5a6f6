"""Plain-text cross-table context files (.cxt).

The format, one field per line. Every source (str or bytes, a file or
stdin) is read alike: CRLF and lone-CR endings as LF, and one leading
byte-order mark skipped.

    line 1      the magic character "B"
    line 2      blank (a context name is tolerated here when reading)
    line 3      object count, ASCII decimal digits only (no sign, space or '_')
    line 4      attribute count, likewise
    line 5      blank
    next |G|    object labels, one per line
    next |M|    attribute labels, one per line
    next |G|    incidence rows: exactly |M| characters, 'X' or '.'

Writing emits LF endings, and a blank line 2 unless the document carries a title.
The incidence rows, in order, are the context's row-major incidence digits
with 'X' for '1' and '.' for '0'; the context module maps them to bits.
"""

from __future__ import annotations

from .context import FormalContext, _bit_row_digits
from .errors import ParseError, SerializationError, quote
from .record import Record


# str.translate tables between incidence characters and binary digits;
# _NOT_A_CROSS deletes both legal characters, so only illegal ones remain.
_CROSS_TO_BIT = str.maketrans("X.", "10")
_BIT_TO_CROSS = str.maketrans("10", "X.")
_NOT_A_CROSS = str.maketrans("", "", "X.")


class CxtDocument(Record):
    """A context plus the optional title text a file may carry."""

    context: FormalContext
    title: str | None

    def __init__(self, context: FormalContext, title: str | None = None) -> None:
        self.__dict__.update(context=context, title=None if title == "" else title)


def _need(lines: list[str], count: int, what: str) -> None:
    """The one end-of-file check: the file must reach line `count`."""
    if len(lines) < count:
        raise ParseError(f"unexpected end of file, expected {what}", len(lines) + 1)


def _count(lines: list[str], number: int, what: str) -> int:
    _need(lines, number, what)
    line = lines[number - 1]
    if line.isascii() and line.isdigit():
        try:
            return int(line)
        except ValueError:  # past int()'s limit on the digits of a decimal string
            pass
    raise ParseError(f"expected {what} as a decimal integer, got {quote(line)}", number)


def _labels(lines: list[str], start: int, count: int, kind: str) -> tuple[str, ...]:
    """The `count` labels after line `start`, each one new to its section."""
    labels: dict[str, None] = {}
    for number, label in enumerate(lines[start : start + count], start + 1):
        if label in labels:
            raise ParseError(f"duplicate {kind} label {quote(label)}", number)
        labels[label] = None
    _need(lines, start + count, f"{kind} label")
    return tuple(labels)


def read_cxt(data: str | bytes) -> CxtDocument:
    """Parse a cross-table document, str or UTF-8 bytes, with universal
    newlines and one leading byte-order mark skipped. Raises ParseError
    with a line number.

    Once the counts are read, each section is a slice at a known offset. A
    section is checked as far as the file reaches before its end is
    required, so the error names the first bad line in file order."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from None
    lines = data.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if lines[0] != "B":
        raise ParseError(f"expected magic line 'B', got {quote(lines[0])}", 1)
    _need(lines, 2, "title line")
    g = _count(lines, 3, "object count")
    m = _count(lines, 4, "attribute count")
    _need(lines, 5, "blank separator line")
    if lines[4] != "":
        raise ParseError(f"expected a blank line, got {quote(lines[4])}", 5)
    objects = _labels(lines, 5, g, "object")
    attributes = _labels(lines, 5 + g, m, "attribute")
    start = 5 + g + m
    rows = lines[start : start + g]
    for number, row in enumerate(rows, start + 1):
        if len(row) != m:
            raise ParseError(f"incidence row has {len(row)} characters, expected {m}", number)
        illegal = row.translate(_NOT_A_CROSS)
        if illegal:
            raise ParseError(
                f"illegal incidence character {illegal[0]!r} (only 'X' and '.' allowed)", number
            )
    _need(lines, start + g, "incidence row")
    for number, line in enumerate(lines[start + g :], start + g + 1):
        if line:
            raise ParseError("unexpected content after incidence rows", number)
    digits = "".join(rows).translate(_CROSS_TO_BIT)
    return CxtDocument(FormalContext(objects, attributes, digits), lines[1])


def write_cxt(doc: CxtDocument | FormalContext) -> str:
    """Serialize to the canonical cross-table text (LF endings, trailing LF)."""
    if isinstance(doc, FormalContext):
        doc = CxtDocument(context=doc)
    ctx = doc.context
    title = doc.title or ""
    for label in (title, *ctx.objects, *ctx.attributes):
        if "\n" in label or "\r" in label:
            raise SerializationError(
                f"label {quote(label)} contains a line break and cannot be serialized"
            )
    lines = [
        "B",
        title,
        str(ctx.object_count),
        str(ctx.attribute_count),
        "",
        *ctx.objects,
        *ctx.attributes,
        *cross_rows(ctx),
    ]
    return "\n".join(lines) + "\n"


def cross_rows(ctx: FormalContext) -> list[str]:
    """The incidence rows as text, 'X' for a cross and '.' for none."""
    m = len(ctx.attributes)
    crosses = _bit_row_digits(ctx._rows, ctx.object_count, m).translate(_BIT_TO_CROSS)
    return [crosses[i * m : i * m + m] for i in range(ctx.object_count)]
