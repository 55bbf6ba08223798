from __future__ import annotations

import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import terrainguard.geometry as geometry_module
import terrainguard.terrain_io as terrain_io_module
from terrainguard import DiagonalEdge, ParseError, Terrain, ValidationError, parse, serialize, validate
from tests.conftest import terrains
from tests.oracles import oracle_parse, oracle_vertex_line
from tests.test_golden import golden_corpus

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
# what a vertex line is made of, with look-alikes that int() or str.split() accept
VERTEX_LINE_ALPHABET = list("0123456789+-_#x \t") + ["\xa0", "\u3000", "\u0661", "\x0c"]


@st.composite
def vertex_lines(draw):
    """A well-formed vertex line with up to three characters replaced,
    inserted or deleted, or free text over the same alphabet."""

    chars = st.sampled_from(VERTEX_LINE_ALPHABET)
    if draw(st.booleans()):
        return draw(st.text(chars, max_size=10))
    blanks = st.text(st.sampled_from(" \t"), max_size=2)
    digits = st.text(st.sampled_from("0123456789"), min_size=1, max_size=3)
    value = st.tuples(st.sampled_from(["", "+", "-"]), digits).map("".join)
    line = draw(blanks) + draw(value) + draw(blanks) + " " + draw(value) + draw(blanks)
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(line)))
        keep = draw(st.sampled_from([at, at + 1]))
        line = line[:at] + draw(st.sampled_from(["", draw(chars)])) + line[keep:]
    return line


HUGE = "9" * (sys.get_int_max_str_digits() + 1)
# extra lines the format skips or refuses, and values it refuses or that
# Terrain refuses
EXTRA_LINES = ["", " ", "\t \t", "#", "# note", " \t# 1 2", "#\x0b", "1 2", "3", "1 2 3", "x"]
ODD_VALUES = ["+7", "-0", "007", "+-1", "1_0", "1073741825", "-1073741825", HUGE, "\u0661", ""]


@st.composite
def mutated_texts(draw):
    """A serialized terrain, its header maybe off by one or negated, with up
    to four more edits, joined with "\n", "\r\n" or "\r" (one for all lines
    or one per line) and with or without a final line end."""

    lines = serialize(draw(terrains(max_steps=6))).split("\n")[:-1]
    n = int(lines[0])
    lines[0] = str(draw(st.sampled_from([n, n, n, n - 1, n + 1, -n])))
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        edit = draw(st.sampled_from(["line", "line", "vertex", "value", "blanks", "foreign", "drop"]))
        if edit == "line":
            lines.insert(i, draw(st.sampled_from(EXTRA_LINES)))
        elif edit == "vertex":
            lines[i:i + 1] = [draw(vertex_lines())]
        elif edit == "value" and i < len(lines):
            values = lines[i].split(" ")
            values[draw(st.integers(0, len(values) - 1))] = draw(st.sampled_from(ODD_VALUES))
            lines[i] = " ".join(values)
        elif edit == "blanks" and i < len(lines):
            blanks = st.sampled_from(["", " ", "\t"])
            between = draw(st.sampled_from(["\t", " \t", "  "]))
            lines[i] = draw(blanks) + lines[i].replace(" ", between) + draw(blanks)
        elif edit == "foreign" and i < len(lines):
            at = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:at] + draw(foreign_characters) + lines[i][at:]
        elif edit == "drop" and i < len(lines):
            del lines[i]
    newlines = st.sampled_from(["\n", "\r\n", "\r"])
    if draw(st.booleans()):
        ends = [draw(newlines)] * len(lines)
    else:
        ends = [draw(newlines) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = ""
    return "".join(line + end for line, end in zip(lines, ends))


def parse_outcome(read, text):
    """A parsed terrain with its classes, or the error as its type,
    message, line and index."""

    try:
        t = read(text)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "index", None)
    return "parsed", t.xs, t.ys, t.classes


def variants(text):
    """text with comments, with blank lines, with CRLF and with CR line
    ends, and with tabs and extra blanks: all read as the same terrain."""

    lines = text.split("\n")[:-1]
    commented = ["# a terrain", lines[0], "  # vertices follow"] + [s + "\n#" for s in lines[1:]]
    blank_lined = ["", lines[0], " "] + [s + "\n\t" for s in lines[1:]]
    tabbed = ["\t" + s.replace(" ", " \t ") + " " for s in lines]
    return [
        text,
        "\n".join(commented) + "\n",
        "\n".join(blank_lined),
        text.replace("\n", "\r\n"),
        text.replace("\n", "\r"),
        "\n".join(tabbed) + "\n",
    ]


class TestBulkParse:
    """parse reads valid text in bulk; the per-line reader kept in
    tests/oracles.py is the reference for every outcome."""

    @settings(max_examples=600, deadline=None)
    @given(mutated_texts())
    @example("")
    @example("\n")
    @example("0\n")
    @example("-1\n")
    @example("2\n0 0\n0 5")
    @example("2\r\n0 0\r0 5\n")
    @example("3\n0 0\n0 5\n")
    @example("1\n0 0\n0 5\n")
    @example(f"{HUGE}\n")
    @example(f"2\n0 0\n0 {HUGE}\n")
    @example("2\n0 0\n0 1073741825\n")
    @example("2\n0 0\n0 0\n")
    @example("# c\n\n 2 \n\t0\t+0\n  # c\n-0 -5 \n\n#")
    def test_outcomes_match_the_per_line_reader(self, text):
        expected = parse_outcome(oracle_parse, text)
        if expected[0] is ParseError:
            assert parse_outcome(parse, text) == expected
            return
        # text in the format never reaches the per-line reader
        refuse = AssertionError("the per-line reader ran on text in the format")
        with mock.patch.object(terrain_io_module, "_parse_by_line", side_effect=refuse):
            assert parse_outcome(parse, text) == expected

    def test_valid_input_never_reaches_a_locator(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a locator ran on valid input")

        monkeypatch.setattr(terrain_io_module, "_parse_by_line", refuse)
        monkeypatch.setattr(geometry_module, "_check_invariants", refuse)
        for t in golden_corpus():
            assert Terrain(t.xs, t.ys) == t
            for text in variants(serialize(t)):
                assert parse(text) == t
        with pytest.raises(AssertionError):
            parse("2\n0 0\n0 x\n")


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

    @pytest.mark.parametrize("at", ["header", "vertex"])
    def test_integers_past_the_int_digit_limit_are_parse_errors(self, at):
        huge = "1" * (sys.get_int_max_str_digits() + 1)
        text = f"{huge}\n" if at == "header" else f"2\n0 0\n0 {huge}\n"
        with pytest.raises(ParseError) as exc:
            parse(text)
        assert exc.value.line == (1 if at == "header" else 3)

    @settings(max_examples=500, deadline=None)
    @given(vertex_lines())
    @example("0 5")
    @example("\t-0\t+5 ")
    @example("0 1_0")
    @example("0\xa05")
    @example("0 \u0661")
    @example("0 5\x0c")
    @example("# 0 5")
    def test_vertex_line_grammar_matches_oracle(self, line):
        expected = oracle_vertex_line(line)
        try:
            t = parse("2\n0 0\n" + line + "\n")
        except ParseError:
            assert expected is None
        except ValidationError:
            assert expected is not None
        else:
            assert expected is not None and (t.xs[1], t.ys[1]) == expected

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
