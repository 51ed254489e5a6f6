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

from dataclasses import dataclass

from .context import FormalContext, _bit_row_digits
from .errors import ParseError, SerializationError, quote


# str.translate tables between incidence characters and binary digits;
# _NOT_A_CROSS deletes both legal characters, so only illegal ones remain.
_CROSS_TO_BIT = str.maketrans("X.", "10")
_BIT_TO_CROSS = str.maketrans("10", "X.")
_NOT_A_CROSS = str.maketrans("", "", "X.")


@dataclass(frozen=True)
class CxtDocument:
    """A context plus the optional title text a file may carry."""

    context: FormalContext
    title: str | None = None

    def __post_init__(self) -> None:
        if self.title == "":
            object.__setattr__(self, "title", None)


class _LineReader:
    def __init__(self, text: str) -> None:
        self._lines = text.split("\n")
        self._next = 0

    @property
    def line_number(self) -> int:
        return self._next

    def take(self, what: str) -> str:
        if self._next >= len(self._lines):
            raise ParseError(f"unexpected end of file, expected {what}", self._next + 1)
        line = self._lines[self._next]
        self._next += 1
        return line

    def expect_trailing_blank(self) -> None:
        while self._next < len(self._lines):
            if self._lines[self._next] != "":
                raise ParseError("unexpected content after incidence rows", self._next + 1)
            self._next += 1


def _take_count(reader: _LineReader, what: str) -> int:
    line = reader.take(what)
    if line.isascii() and line.isdigit():
        try:
            return int(line)
        except ValueError:  # past int()'s limit on the digits of a decimal string
            pass
    raise ParseError(f"expected {what} as a decimal integer, got {quote(line)}", reader.line_number)


def _take_labels(reader: _LineReader, count: int, kind: str) -> tuple[str, ...]:
    labels: dict[str, None] = {}
    for _ in range(count):
        label = reader.take(f"{kind} label")
        if label in labels:
            raise ParseError(f"duplicate {kind} label {quote(label)}", reader.line_number)
        labels[label] = None
    return tuple(labels)


def read_cxt(data: str | bytes) -> CxtDocument:
    """Parse a cross-table document, str or UTF-8 bytes, with universal
    newlines and one leading byte-order mark skipped. Raises ParseError
    with a line number."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"not valid UTF-8: {exc}") from None
    data = data.removeprefix("\ufeff")
    reader = _LineReader(data.replace("\r\n", "\n").replace("\r", "\n"))
    magic = reader.take("magic line 'B'")
    if magic != "B":
        raise ParseError(f"expected magic line 'B', got {quote(magic)}", 1)
    title = reader.take("title line") or None
    object_count = _take_count(reader, "object count")
    attribute_count = _take_count(reader, "attribute count")
    blank = reader.take("blank separator line")
    if blank != "":
        raise ParseError(f"expected a blank line, got {quote(blank)}", reader.line_number)
    objects = _take_labels(reader, object_count, "object")
    attributes = _take_labels(reader, attribute_count, "attribute")
    rows = []
    for _ in range(object_count):
        line = reader.take("incidence row")
        if len(line) != attribute_count:
            raise ParseError(
                f"incidence row has {len(line)} characters, expected {attribute_count}",
                reader.line_number,
            )
        illegal = line.translate(_NOT_A_CROSS)
        if illegal:
            raise ParseError(
                f"illegal incidence character {illegal[0]!r} (only 'X' and '.' allowed)",
                reader.line_number,
            )
        rows.append(line)
    reader.expect_trailing_blank()
    digits = "".join(rows).translate(_CROSS_TO_BIT)
    context = FormalContext._from_digits(objects, attributes, digits)
    return CxtDocument(context=context, title=title)


def write_cxt(doc: CxtDocument | FormalContext) -> str:
    """Serialize to the canonical cross-table text (LF endings, trailing LF)."""
    if isinstance(doc, FormalContext):
        doc = CxtDocument(context=doc)
    ctx = doc.context
    title = doc.title or ""
    for label in (title, *ctx.objects, *ctx.attributes):
        if "\n" in label or "\r" in label:
            raise SerializationError(
                f"label {label!r} contains a line break and cannot be serialized"
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
