from __future__ import annotations

import pytest

from terrainguard import DiagonalEdge, ParseError, parse, serialize, validate

SQUARE_VALLEY_TEXT = "4\n0 10\n0 0\n10 0\n10 10\n"


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


class TestSerialize:
    def test_square_valley(self, square_valley):
        assert serialize(square_valley) == SQUARE_VALLEY_TEXT

    def test_canonicalizes_comments_away(self):
        text = "# hi\n4\n0 10\n0 0\n# mid\n10 0\n10 10\n"
        assert serialize(parse(text)) == SQUARE_VALLEY_TEXT

    def test_round_trip_on_corpus(self, corpus):
        for t in corpus:
            assert parse(serialize(t)) == t

    def test_negative_coordinates_round_trip(self):
        t = validate([(-5, 3), (-5, -8), (0, -8), (0, -1)])
        assert parse(serialize(t)) == t
