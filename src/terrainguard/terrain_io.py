"""Terrain text format.

A terrain file is a vertex count on the first line followed by one "x y"
line per vertex in chain order.  The header must match _HEADER in full and
each vertex line _VERTEX_LINE: integers are ASCII decimal digits with an
optional sign, and blanks are ASCII spaces and tabs; a miss is a
ParseError at that line.  Lines end at "\n", "\r\n" or "\r" only.  Empty or
blank lines and lines whose first non-blank character is '#' are comments
and may appear anywhere.  serialize always emits the canonical form: no
comments, single spaces, trailing newline.  parse(serialize(t)) == t for
every valid terrain.

parse reads valid text in bulk: it unifies the line ends, drops blank and
comment lines with one substitution, matches the rest against _TEXT in one
go and converts every value with split and int.  Any miss (the match
fails, a value is past the int digit limit, or the vertex count disagrees
with the header) hands the same unified text to _parse_by_line, the
per-line reader that finds the first bad line and raises its ParseError.
"""

from __future__ import annotations

import re

from .geometry import Terrain

# an ASCII decimal integer; the CLI reads --random SEED:STEPS with it too
INTEGER = "[+-]?[0-9]+"
_HEADER = re.compile(rf"[ \t]*({INTEGER})[ \t]*")
_VERTEX_LINE = re.compile(rf"[ \t]*({INTEGER})[ \t]+({INTEGER})[ \t]*")
# The bulk reader puts a "\n" in front of the text and ends it with one, so
# that every line sits between two.  A comment or blank line is then its
# leading "\n" and its content; _TEXT is a header line, then vertex lines.
# Neither needs backtracking, and the possessive repeats (*+, ++) skip the
# bookkeeping for it, which makes _TEXT's match about four times as fast.
_SKIPPED = re.compile(r"\n[ \t]*+(?:#.*+)?(?=\n)")
_TEXT = re.compile(rf"\n[ \t]*+{INTEGER}[ \t]*+(?:\n[ \t]*+{INTEGER}[ \t]++{INTEGER}[ \t]*+)*+\n")


class ParseError(ValueError):
    """Malformed terrain text; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse(text: str) -> Terrain:
    """Read the terrain format; raises ParseError or a ValidationError."""

    text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    body = "\n" + text
    if not body.endswith("\n"):
        body += "\n"
    # sub hands back its input when there is nothing to drop
    body = _SKIPPED.sub("", body)
    if _TEXT.fullmatch(body) is None:
        return _parse_by_line(text)
    try:
        values = list(map(int, body.split()))
    except ValueError:  # past sys.get_int_max_str_digits()
        return _parse_by_line(text)
    # a negative count fails here too: 2n + 1 < 1 <= len(values)
    if len(values) != 2 * values[0] + 1:
        return _parse_by_line(text)
    return Terrain(values[1::2], values[2::2])


def _parse_by_line(text: str) -> Terrain:
    """Read text with "\\n" line ends line by line; raise at the first bad line."""

    # str.splitlines() would also break at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
    lines = text.removesuffix("\n").split("\n")
    numbered = [(ln, s) for ln, s in enumerate(lines, start=1) if s.lstrip(" \t")[:1] not in ("", "#")]
    if not numbered:
        raise ParseError(1, "missing vertex count header")
    header_line, header = numbered[0]
    m = _HEADER.fullmatch(header)
    if m is None:
        raise ParseError(header_line, f"vertex count expected, got {header!r}")
    # int() refuses more digits than sys.get_int_max_str_digits(), here and below
    try:
        n = int(m[1])
    except ValueError as exc:
        raise ParseError(header_line, str(exc)) from None
    if n < 0:
        raise ParseError(header_line, f"vertex count must be non-negative, got {n}")
    body = numbered[1:]
    xs: list[int] = []
    ys: list[int] = []
    for ln, s in body[:n]:
        m = _VERTEX_LINE.fullmatch(s)
        if m is None:
            raise ParseError(ln, f"expected 'x y', two integers separated by spaces or tabs, got {s!r}")
        try:
            xs.append(int(m[1]))
            ys.append(int(m[2]))
        except ValueError as exc:
            raise ParseError(ln, str(exc)) from None
    if len(xs) < n:
        raise ParseError(len(lines) + 1, f"expected {n} vertices, file ends after {len(xs)}")
    if len(body) > n:
        ln, s = body[n]
        raise ParseError(ln, f"unexpected content after {n} vertices: {s.strip()!r}")
    return Terrain(xs, ys)


def serialize(t: Terrain) -> str:
    """Canonical text form of a terrain."""

    lines = [str(t.n)]
    lines += [f"{x} {y}" for x, y in zip(t.xs, t.ys)]
    return "\n".join(lines) + "\n"
