"""Terrain text format.

A terrain file is a vertex count on the first line followed by one "x y"
line per vertex in chain order, all decimal integers.  Lines whose first
non-blank character is '#' are comments and may appear anywhere.  serialize
always emits the canonical form: no comments, single spaces, trailing
newline.  parse(serialize(t)) == t for every valid terrain.
"""

from __future__ import annotations

from .geometry import Terrain, validate


class ParseError(ValueError):
    """Malformed terrain text; ``line`` is the 1-based offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse(text: str) -> Terrain:
    """Read the terrain format; raises ParseError or a ValidationError."""

    numbered = [
        (ln, s) for ln, s in enumerate(text.splitlines(), start=1)
        if s.strip() and not s.lstrip().startswith("#")
    ]
    total_lines = text.count("\n") + (0 if text.endswith("\n") or not text else 1)
    if not numbered:
        raise ParseError(1, "missing vertex count header")
    header_line, header = numbered[0]
    try:
        n = int(header.strip())
    except ValueError:
        raise ParseError(header_line, f"vertex count expected, got {header.strip()!r}") from None
    if n < 0:
        raise ParseError(header_line, f"vertex count must be non-negative, got {n}")
    body = numbered[1:]
    points: list[tuple[int, int]] = []
    for ln, s in body[:n]:
        tokens = s.split()
        if len(tokens) != 2:
            raise ParseError(ln, f"expected 'x y', got {s.strip()!r}")
        try:
            points.append((int(tokens[0]), int(tokens[1])))
        except ValueError:
            raise ParseError(ln, f"coordinates must be integers, got {s.strip()!r}") from None
    if len(points) < n:
        raise ParseError(total_lines + 1, f"expected {n} vertices, file ends after {len(points)}")
    if len(body) > n:
        ln, s = body[n]
        raise ParseError(ln, f"unexpected content after {n} vertices: {s.strip()!r}")
    return validate(points)


def serialize(t: Terrain) -> str:
    """Canonical text form of a terrain."""

    lines = [str(t.n)]
    lines += [f"{x} {y}" for x, y in zip(t.xs, t.ys)]
    return "\n".join(lines) + "\n"
