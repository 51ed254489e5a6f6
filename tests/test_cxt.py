import pytest
from hypothesis import given
from hypothesis import strategies as st

from randfca import (
    CxtDocument,
    FormalContext,
    ModelParams,
    ParseError,
    Seed,
    SerializationError,
    contranomial,
    empty_relation,
    full_relation,
    read_cxt,
    sample_context,
    write_cxt,
)

from conftest import contexts

IDENTITY_2X2 = "B\n\n2\n2\n\na\nb\nx\ny\nX.\n.X\n"


class TestRead:
    def test_identity_relation(self):
        doc = read_cxt(IDENTITY_2X2)
        assert doc.context.objects == ("a", "b")
        assert doc.context.attributes == ("x", "y")
        assert doc.context.incidence == ((True, False), (False, True))
        assert doc.title is None

    def test_full_2x2(self):
        doc = read_cxt("B\n\n2\n2\n\na\nb\nx\ny\nXX\nXX\n")
        assert doc.context.incidence == full_relation(2, 2).incidence

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
        assert ctx.incidence == ((), ())

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
        ctx = FormalContext(("a\nb",), (), ((),))
        with pytest.raises(SerializationError):
            write_cxt(CxtDocument(ctx))


class TestRoundTrip:
    def test_sampled_contexts(self):
        params = ModelParams(9, 0.5, 0.5)
        for k in range(100):
            ctx = sample_context(params, Seed(k))
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
        ctx = FormalContext(tuple(labels), (), tuple(() for _ in labels))
        assert read_cxt(write_cxt(CxtDocument(ctx))).context == ctx
