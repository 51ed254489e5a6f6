import pytest
from hypothesis import given
from hypothesis import strategies as st

from randfca import (
    CxtDocument,
    FormalContext,
    ModelParams,
    ParseError,
    SerializationError,
    contranomial,
    empty_relation,
    full_relation,
    read_cxt,
    sample_context,
    write_cxt,
)
from randfca.cxt import cross_rows

from conftest import contexts

IDENTITY_2X2 = "B\n\n2\n2\n\na\nb\nx\ny\nX.\n.X\n"


class TestRead:
    def test_identity_relation(self):
        doc = read_cxt(IDENTITY_2X2)
        assert doc.context.objects == ("a", "b")
        assert doc.context.attributes == ("x", "y")
        assert cross_rows(doc.context) == ["X.", ".X"]
        assert doc.title is None

    def test_full_2x2(self):
        doc = read_cxt("B\n\n2\n2\n\na\nb\nx\ny\nXX\nXX\n")
        assert cross_rows(doc.context) == cross_rows(full_relation(2, 2)) == ["XX", "XX"]

    def test_accepts_bytes(self):
        assert read_cxt(IDENTITY_2X2.encode()) == read_cxt(IDENTITY_2X2)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_crlf_and_cr_read_as_lf(self, newline):
        text = IDENTITY_2X2.replace("\n", newline)
        assert read_cxt(text) == read_cxt(IDENTITY_2X2)
        assert read_cxt(text.encode()) == read_cxt(IDENTITY_2X2)

    def test_leading_byte_order_mark_is_skipped(self):
        assert read_cxt("\ufeff" + IDENTITY_2X2) == read_cxt(IDENTITY_2X2)
        assert read_cxt(b"\xef\xbb\xbf" + IDENTITY_2X2.encode()) == read_cxt(IDENTITY_2X2)
        # Only one: a second mark is part of the magic line.
        with pytest.raises(ParseError) as err:
            read_cxt("\ufeff\ufeff" + IDENTITY_2X2)
        assert err.value.line == 1

    def test_invalid_utf8_after_a_byte_order_mark_names_its_offset_in_the_file(self):
        with pytest.raises(ParseError) as err:
            read_cxt(b"\xef\xbb\xbf\xff")
        assert "byte 0xff in position 3" in str(err.value)

    def test_title_line_is_kept(self):
        doc = read_cxt("B\nmy table\n1\n1\n\ng\nm\nX\n")
        assert doc.title == "my table"

    def test_bad_magic(self):
        with pytest.raises(ParseError) as err:
            read_cxt("A\n\n1\n1\n\ng\nm\nX\n")
        assert err.value.line == 1
        assert str(err.value) == "line 1: expected magic line 'B', got 'A'"
        # A line past 40 characters is quoted by its first 40 and its length.
        with pytest.raises(ParseError) as err:
            read_cxt("A" * 100_000 + "\n\n1\n1\n\ng\nm\nX\n")
        assert str(err.value) == (
            f"line 1: expected magic line 'B', got {'A' * 40!r}... (100000 characters)"
        )

    # A count is ASCII decimal digits only; 5000 digits pass int()'s string limit.
    @pytest.mark.parametrize(
        "count",
        [
            "two", "+2", " 2", "2 ", "1_0", "\u0662", "-0", "-1", "",
            pytest.param("1" * 5000, id="5000-digits"),
        ],
    )
    def test_bad_count(self, count):
        with pytest.raises(ParseError) as err:
            read_cxt(f"B\n\n{count}\n1\n\ng\nm\nX\n")
        assert err.value.line == 3
        assert "object count as a decimal integer" in str(err.value)
        assert len(str(err.value)) < 200

    def test_illegal_row_character(self):
        with pytest.raises(ParseError) as err:
            read_cxt("B\n\n1\n2\n\ng\nm1\nm2\nX?\n")
        assert err.value.line == 9
        assert "?" in str(err.value)

    def test_illegal_character_after_a_valid_prefix(self):
        with pytest.raises(ParseError) as err:
            read_cxt("B\n\n2\n4\n\ng1\ng2\nm1\nm2\nm3\nm4\nX..X\nX.x?\n")
        assert str(err.value) == (
            "line 13: illegal incidence character 'x' (only 'X' and '.' allowed)"
        )

    def test_objects_without_attributes(self):
        ctx = read_cxt("B\n\n2\n0\n\ng1\ng2\n\n\n").context
        assert ctx.objects == ("g1", "g2")
        assert ctx.attributes == ()
        assert cross_rows(ctx) == ["", ""]

    def test_row_length_mismatch(self):
        with pytest.raises(ParseError) as err:
            read_cxt("B\n\n1\n2\n\ng\nm1\nm2\nX\n")
        assert err.value.line == 9

    def test_duplicate_label(self):
        with pytest.raises(ParseError) as err:
            read_cxt("B\n\n2\n1\n\ng\ng\nm\nX\nX\n")
        assert err.value.line == 7
        assert str(err.value) == "line 7: duplicate object label 'g'"
        label = "g" * 50_000
        with pytest.raises(ParseError) as err:
            read_cxt(f"B\n\n2\n1\n\n{label}\n{label}\nm\nX\nX\n")
        assert str(err.value) == (
            f"line 7: duplicate object label {'g' * 40!r}... (50000 characters)"
        )

    def test_truncated_file(self):
        with pytest.raises(ParseError):
            read_cxt("B\n\n2\n2\n")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError) as err:
            read_cxt(IDENTITY_2X2 + "leftover\n")
        assert err.value.line == 12

    # Files with two faults, a later one often the end of the file: the
    # first fault in file order is the one reported, line and message.
    @pytest.mark.parametrize(
        "text,line,message",
        [
            pytest.param("", 1, "expected magic line 'B', got ''", id="empty"),
            pytest.param("A\n", 1, "expected magic line 'B', got 'A'", id="bad-magic-then-end"),
            pytest.param("B", 2, "unexpected end of file, expected title line", id="magic-only"),
            pytest.param(
                "B\n\nx", 3, "expected object count as a decimal integer, got 'x'",
                id="bad-count-then-end",
            ),
            pytest.param(
                "B\n\n1\n", 4, "expected attribute count as a decimal integer, got ''",
                id="empty-count-then-end",
            ),
            pytest.param(
                "B\n\n1\n1", 5, "unexpected end of file, expected blank separator line",
                id="no-separator",
            ),
            pytest.param(
                "B\n\n1\n1\nfoo", 5, "expected a blank line, got 'foo'", id="bad-separator-then-end"
            ),
            pytest.param(
                "B\n\n3\n1\n\ng\ng\n", 7, "duplicate object label 'g'",
                id="duplicate-object-then-end",
            ),
            pytest.param(
                "B\r\n\r\n3\r\n1\r\n\r\ng\r\ng", 7, "duplicate object label 'g'",
                id="crlf-duplicate-object-then-end",
            ),
            pytest.param(
                "B\n\n1\n3\n\ng\nm\nm\n", 8, "duplicate attribute label 'm'",
                id="duplicate-attribute-then-end",
            ),
            pytest.param(
                "B\n\n" + "9" * 4000 + "\n1\n\ng\ng\n", 7, "duplicate object label 'g'",
                id="huge-count-duplicate-then-end",
            ),
            pytest.param(
                "B\n\n" + "9" * 4000 + "\n1\n\ng\nh\n", 9,
                "unexpected end of file, expected object label", id="huge-count-then-end",
            ),
            pytest.param(
                "B\n\n1\n" + "9" * 4000 + "\n\ng\nm\n", 9,
                "unexpected end of file, expected attribute label",
                id="huge-attribute-count-then-end",
            ),
            pytest.param(
                "B\n\n2\n1\n\ng\ng\nm\nX\n?\n", 7, "duplicate object label 'g'",
                id="duplicate-object-then-bad-row",
            ),
            pytest.param(
                "B\n\n2\n2\n\na\nb\nx\ny\nX?\n", 10,
                "illegal incidence character '?' (only 'X' and '.' allowed)",
                id="bad-row-then-end",
            ),
            pytest.param(
                "B\n\n3\n2\n\na\nb\nc\nx\ny\nX\n", 11,
                "incidence row has 1 characters, expected 2", id="short-row-then-end",
            ),
            pytest.param(
                "B\n\n1\n1\n\ng\nm\n?\nzzz\n", 8,
                "illegal incidence character '?' (only 'X' and '.' allowed)",
                id="bad-row-then-trailing-content",
            ),
            pytest.param(
                "B\n\n1\n1\n\ng\nm", 8, "unexpected end of file, expected incidence row",
                id="no-rows",
            ),
            pytest.param(
                "B\n\n1\n1\n\ng\nm\nX\n\n\nx", 11, "unexpected content after incidence rows",
                id="content-after-blank-lines",
            ),
            pytest.param(
                "B\n\n0\n2\n\nx\ny\nstuff", 8, "unexpected content after incidence rows",
                id="no-objects-then-content",
            ),
        ],
    )
    def test_first_fault_in_file_order_is_reported(self, text, line, message):
        with pytest.raises(ParseError) as err:
            read_cxt(text)
        assert (err.value.line, str(err.value)) == (line, f"line {line}: {message}")


class TestWrite:
    def test_contranomial_rows(self):
        text = write_cxt(CxtDocument(contranomial(2)))
        assert text == "B\n\n2\n2\n\n1\n2\n1\n2\n.X\nX.\n"

    def test_single_empty_cell(self):
        text = write_cxt(CxtDocument(empty_relation(1, 1)))
        assert text.endswith("\n.\n")

    def test_uses_lf_only(self):
        assert "\r" not in write_cxt(CxtDocument(contranomial(3)))

    def test_accepts_bare_context(self):
        assert write_cxt(contranomial(2)) == write_cxt(CxtDocument(contranomial(2)))

    def test_newline_in_label_rejected(self):
        ctx = FormalContext(("a\nb",), (), "")
        with pytest.raises(SerializationError):
            write_cxt(CxtDocument(ctx))


class TestRoundTrip:
    def test_sampled_contexts(self):
        params = ModelParams(9, 0.5, 0.5)
        for k in range(100):
            ctx = sample_context(params, k)
            doc = read_cxt(write_cxt(CxtDocument(ctx)))
            assert doc.context == ctx

    def test_title_round_trips(self):
        doc = CxtDocument(contranomial(2), title="diagonal-off")
        assert read_cxt(write_cxt(doc)) == doc

    @given(contexts())
    def test_arbitrary_contexts(self, ctx):
        assert read_cxt(write_cxt(CxtDocument(ctx))).context == ctx

    @given(
        st.lists(
            st.text(
                alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
                min_size=1,
            ),
            max_size=6,
            unique=True,
        )
    )
    def test_odd_labels_survive(self, labels):
        ctx = FormalContext(tuple(labels), (), "")
        assert read_cxt(write_cxt(CxtDocument(ctx))).context == ctx
