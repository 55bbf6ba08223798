"""Terrain text format.

A terrain file is a vertex count on the first line followed by one "x y"
line per vertex in chain order, all ASCII decimal integers.  Lines end at
"\n", "\r\n" or "\r", and only ASCII spaces and tabs are blanks: any other
line break or blank character is an error at its line.  Lines whose first
non-blank character is '#' are comments and may appear anywhere.
serialize always emits the canonical form: no comments, single spaces,
trailing newline.  parse(serialize(t)) == t for every valid terrain.
"""

from __future__ import annotations

from .geometry import Terrain


_ONLY_ASCII_BLANKS = "values must be separated by ASCII spaces or tabs"


class ParseError(ValueError):
    """Malformed terrain text; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _int(token: str) -> int:
    # int() also reads '_' separators and non-ASCII digits; the format does not
    if "_" in token or not token.isascii():
        raise ValueError(token)
    return int(token)


def _blanks_are_ascii(s: str) -> bool:
    # str.split() also splits at control and Unicode blanks; the format does not
    return s.isascii() and (s.isprintable() or s.replace("\t", " ").isprintable())


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
    try:
        n = _int(header.strip())
    except ValueError:
        raise ParseError(header_line, f"vertex count expected, got {header.strip()!r}") from None
    if not _blanks_are_ascii(header):
        raise ParseError(header_line, f"{_ONLY_ASCII_BLANKS}, got {header!r}")
    if n < 0:
        raise ParseError(header_line, f"vertex count must be non-negative, got {n}")
    body = numbered[1:]
    xs: list[int] = []
    ys: list[int] = []
    for ln, s in body[:n]:
        tokens = s.split()
        if len(tokens) != 2:
            raise ParseError(ln, f"expected 'x y', got {s.strip()!r}")
        try:
            xs.append(_int(tokens[0]))
            ys.append(_int(tokens[1]))
        except ValueError:
            raise ParseError(ln, f"coordinates must be integers, got {s.strip()!r}") from None
        if not _blanks_are_ascii(s):
            raise ParseError(ln, f"{_ONLY_ASCII_BLANKS}, got {s!r}")
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
