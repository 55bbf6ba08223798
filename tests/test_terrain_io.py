from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terrainguard import DiagonalEdge, ParseError, parse, serialize, validate
from tests.conftest import terrains

SQUARE_VALLEY_TEXT = "4\n0 10\n0 0\n10 0\n10 10\n"

# str.splitlines() breaks lines at these, and str.split() treats the ones that
# are not line breaks as blanks; the format knows only ASCII blanks and line ends
UNICODE_AND_CONTROL_SEPARATORS = [
    "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", "\xa0", "\u1680",
    "\u2000", "\u2003", "\u200a", "\u2028", "\u2029", "\u202f", "\u205f", "\u3000",
]
# any non-ASCII character, or an ASCII control character other than tab and line ends
foreign_characters = st.one_of(
    st.sampled_from(UNICODE_AND_CONTROL_SEPARATORS),
    st.characters().filter(lambda ch: not ch.isascii() or not (ch.isprintable() or ch in "\t\n\r")),
)


class TestParse:
    def test_square_valley(self, square_valley):
        assert parse(SQUARE_VALLEY_TEXT) == square_valley

    def test_comments_and_blank_lines_are_skipped(self, square_valley):
        text = "# a square valley\n4\n\n0 10\n0 0\n  # floor done\n10 0\n10 10\n"
        assert parse(text) == square_valley

    def test_missing_vertices(self):
        with pytest.raises(ParseError) as exc:
            parse("3\n0 0\n")
        assert exc.value.line == 3

    def test_bad_header(self):
        with pytest.raises(ParseError) as exc:
            parse("four\n")
        assert exc.value.line == 1

    def test_negative_count(self):
        with pytest.raises(ParseError):
            parse("-2\n0 0\n")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_bad_vertex_line(self):
        with pytest.raises(ParseError) as exc:
            parse("2\n0 0\n1 two\n")
        assert exc.value.line == 3

    def test_wrong_token_count(self):
        with pytest.raises(ParseError):
            parse("2\n0 0 0\n1 1\n")

    def test_trailing_content(self):
        with pytest.raises(ParseError) as exc:
            parse("2\n0 0\n0 5\n1 1\n")
        assert exc.value.line == 4

    def test_validation_errors_propagate(self):
        with pytest.raises(DiagonalEdge):
            parse("2\n0 0\n5 5\n")

    def test_missing_final_newline_accepted(self, square_valley):
        assert parse(SQUARE_VALLEY_TEXT.rstrip("\n")) == square_valley

    @pytest.mark.parametrize("newline", ["\r", "\r\n"])
    def test_carriage_return_line_ends(self, square_valley, newline):
        assert parse(SQUARE_VALLEY_TEXT.replace("\n", newline)) == square_valley
        with pytest.raises(ParseError) as exc:
            parse(newline.join(["3", "0 0", "0 5", ""]))
        assert exc.value.line == 4

    def test_signs_and_surrounding_blanks_accepted(self, square_valley):
        assert parse(" +4 \n\t0 +10\n-0 0 \n 10  -0\n+10 10\n") == square_valley

    @pytest.mark.parametrize(
        "text, line",
        [("1_0\n", 1), ("4\n0 1_0\n0 0\n10 0\n10 10\n", 2)],
    )
    def test_rejects_underscore_separators(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == line

    @pytest.mark.parametrize(
        "text, line",
        [("\u0664\n", 1), ("4\n0 10\n0 0\n\u0661\u0660 0\n10 10\n", 4)],
    )
    def test_rejects_non_ascii_digits(self, text, line):
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == line

    @pytest.mark.parametrize("sep", UNICODE_AND_CONTROL_SEPARATORS)
    @pytest.mark.parametrize("where", ["header", "blank", "line end"])
    def test_rejects_each_separator_at_its_line(self, sep, where):
        lines = SQUARE_VALLEY_TEXT.split("\n")
        if where == "header":
            lines[0] += sep
        elif where == "blank":
            lines[2] = lines[2].replace(" ", sep)
        else:
            lines[2] += sep + lines.pop(3)
        with pytest.raises(ParseError) as exc:
            parse("\n".join(lines))
        assert exc.value.line == (1 if where == "header" else 3)

    @settings(max_examples=200, deadline=None)
    @given(terrains(), st.data())
    def test_rejects_any_foreign_character_inserted(self, t, data):
        text = serialize(t)
        at = data.draw(st.integers(0, len(text)), label="at")
        ch = data.draw(foreign_characters, label="ch")
        with pytest.raises(ParseError):
            parse(text[:at] + ch + text[at:])


class TestSerialize:
    def test_square_valley(self, square_valley):
        assert serialize(square_valley) == SQUARE_VALLEY_TEXT

    def test_canonicalizes_comments_away(self):
        text = "# hi\n4\n0 10\n0 0\n# mid\n10 0\n10 10\n"
        assert serialize(parse(text)) == SQUARE_VALLEY_TEXT

    def test_round_trip_on_corpus(self, corpus):
        for t in corpus:
            assert parse(serialize(t)) == t

    @settings(max_examples=200, deadline=None)
    @given(terrains())
    def test_round_trip_property(self, t):
        assert parse(serialize(t)) == t

    def test_negative_coordinates_round_trip(self):
        t = validate([(-5, 3), (-5, -8), (0, -8), (0, -1)])
        assert parse(serialize(t)) == t
