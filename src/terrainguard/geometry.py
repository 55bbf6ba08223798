"""Exact integer geometry for orthogonal terrains.

An orthogonal terrain is an x-monotone chain of axis-parallel edges, stored
as its vertex sequence.  Two horizontal rays are implied but not stored: one
extending left from the first vertex and one extending right from the last.
The stored chain therefore starts and ends with a vertical edge, which forces
an even vertex count and pairs every reflex vertex (top of a vertical edge)
with the convex vertex directly below it.

All coordinates are bounded integers and every geometric decision in this
package reduces to exact signed 64-bit-safe arithmetic; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence, Tuple, Union

COORD_LIMIT = 2**30  # keeps every 2x2 determinant inside 62 signed bits


class ValidationError(ValueError):
    """A vertex sequence is not a valid orthogonal terrain.

    ``index`` points at the offending vertex (0-based position in the input
    sequence) when the violation is local; it is None for global violations
    such as an odd vertex count.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class TooFewVertices(ValidationError):
    pass


class OddVertexCount(ValidationError):
    pass


class CoordinateOutOfRange(ValidationError):
    pass


class ZeroLengthEdge(ValidationError):
    pass


class DiagonalEdge(ValidationError):
    pass


class NonAlternatingEdges(ValidationError):
    pass


class NotMonotone(ValidationError):
    pass


@dataclass(frozen=True)
class Point:
    """Integer grid point; usable as a dict key or set member."""

    x: int
    y: int


class VertexClass(Enum):
    """Position of a vertex on its horizontal edge, crossed with convexity.

    A vertex is the left or right endpoint of exactly one horizontal edge
    (the implicit rays stand in for the first and last vertex), and it is
    convex when the angle above the terrain is a quarter turn, reflex when
    it is three quarter turns.  Equivalently: the bottom endpoint of every
    vertical edge is convex and the top endpoint is reflex.
    """

    LEFT_CONVEX = "LC"
    RIGHT_CONVEX = "RC"
    LEFT_REFLEX = "LR"
    RIGHT_REFLEX = "RR"

    @property
    def is_convex(self) -> bool:
        return self in (VertexClass.LEFT_CONVEX, VertexClass.RIGHT_CONVEX)

    @property
    def is_reflex(self) -> bool:
        return not self.is_convex

    @property
    def is_left(self) -> bool:
        return self in (VertexClass.LEFT_CONVEX, VertexClass.LEFT_REFLEX)

    @property
    def is_right(self) -> bool:
        return not self.is_left


PointLike = Union[Point, Tuple[int, int], Sequence[int]]


@dataclass(frozen=True)
class Terrain:
    """Validated orthogonal terrain.

    Construction runs the full invariant check, so holding a Terrain is proof
    of validity.  Instances are immutable and safe to share across workers.
    Besides ``vertices`` the constructor caches flat coordinate tuples and
    the per-vertex classification, which the visibility code leans on.
    """

    vertices: tuple[Point, ...]
    xs: tuple[int, ...] = field(init=False, repr=False, compare=False)
    ys: tuple[int, ...] = field(init=False, repr=False, compare=False)
    classes: tuple[VertexClass, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_invariants(self.vertices)
        object.__setattr__(self, "xs", tuple(p.x for p in self.vertices))
        object.__setattr__(self, "ys", tuple(p.y for p in self.vertices))
        object.__setattr__(
            self, "classes", tuple(_classify(self, i) for i in range(len(self.vertices)))
        )

    @property
    def n(self) -> int:
        return len(self.vertices)

    def __len__(self) -> int:
        return len(self.vertices)


def validate(raw_points: Iterable[PointLike]) -> Terrain:
    """Build a Terrain from raw coordinate pairs, or raise a ValidationError.

    The error names the first violated invariant walking the chain left to
    right, with the vertex index where it occurred.
    """

    pts = tuple(p if isinstance(p, Point) else Point(int(p[0]), int(p[1])) for p in raw_points)
    return Terrain(pts)


def _check_invariants(pts: tuple[Point, ...]) -> None:
    n = len(pts)
    if n < 2:
        raise TooFewVertices(f"terrain needs at least 2 vertices, got {n}")
    if n % 2:
        raise OddVertexCount(f"vertex count must be even, got {n}")
    for i, p in enumerate(pts):
        if abs(p.x) > COORD_LIMIT or abs(p.y) > COORD_LIMIT:
            raise CoordinateOutOfRange(
                f"vertex {i} at ({p.x}, {p.y}) exceeds |coord| <= 2^30", index=i
            )
    for i in range(n - 1):
        a, b = pts[i], pts[i + 1]
        dx, dy = b.x - a.x, b.y - a.y
        if dx == 0 and dy == 0:
            raise ZeroLengthEdge(f"edge {i} -> {i + 1} has zero length", index=i)
        if dx != 0 and dy != 0:
            raise DiagonalEdge(f"edge {i} -> {i + 1} is neither horizontal nor vertical", index=i)
        # vertical edges sit at even edge positions: the chain opens and
        # closes on a vertical edge, horizontals fill the odd slots
        if i % 2 == 0:
            if dx != 0:
                raise NonAlternatingEdges(f"edge {i} -> {i + 1} must be vertical", index=i)
        else:
            if dy != 0:
                raise NonAlternatingEdges(f"edge {i} -> {i + 1} must be horizontal", index=i)
            if dx < 0:
                raise NotMonotone(f"horizontal edge {i} -> {i + 1} must go rightward", index=i)


def vertical_partner(i: int) -> int:
    """Index of the other endpoint of vertex i's unique vertical edge."""

    return i + 1 if i % 2 == 0 else i - 1


def _classify(t: Terrain, i: int) -> VertexClass:
    # Even-index vertices are the right endpoint of their horizontal edge and
    # odd-index ones the left endpoint: horizontal edges occupy odd edge
    # slots, and the left/right rays give v_0 and v_{n-1} the same parity
    # rule.  Convexity falls out of the vertical-edge y comparison.
    j = vertical_partner(i)
    reflex = t.vertices[i].y > t.vertices[j].y
    if i % 2 == 0:
        return VertexClass.RIGHT_REFLEX if reflex else VertexClass.RIGHT_CONVEX
    return VertexClass.LEFT_REFLEX if reflex else VertexClass.LEFT_CONVEX


def classify(t: Terrain, i: int) -> VertexClass:
    """Class of vertex i: left/right endpoint of its horizontal edge
    (rays included), convex or reflex by the angle above the terrain."""

    return t.classes[i]


def convex_indices(t: Terrain) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(t.classes) if c.is_convex)


def reflex_indices(t: Terrain) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(t.classes) if c.is_reflex)
