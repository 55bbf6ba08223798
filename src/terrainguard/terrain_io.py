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
"""

from __future__ import annotations

import re

from .geometry import Terrain

# an ASCII decimal integer; the CLI reads --random SEED:STEPS with it too
INTEGER = "[+-]?[0-9]+"
_HEADER = re.compile(rf"[ \t]*({INTEGER})[ \t]*")
_VERTEX_LINE = re.compile(rf"[ \t]*({INTEGER})[ \t]+({INTEGER})[ \t]*")


class ParseError(ValueError):
    """Malformed terrain text; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _lines(text: str) -> list[str]:
    # str.splitlines() also breaks at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def parse(text: str) -> Terrain:
    """Read the terrain format; raises ParseError or a ValidationError."""

    lines = _lines(text)
    # a line that starts with a value needs no lstrip; that is most lines
    numbered = [
        (ln, s)
        for ln, s in enumerate(lines, start=1)
        if s[:1] not in " \t#" or s.lstrip(" \t")[:1] not in ("", "#")
    ]
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
