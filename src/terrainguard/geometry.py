"""Exact integer geometry for orthogonal terrains.

An orthogonal terrain is an x-monotone chain of axis-parallel edges, stored
as two integer tuples: the x and the y coordinates of its vertices in chain
order.  Two horizontal rays are implied but not stored: one extending left
from the first vertex and one extending right from the last.  The stored
chain therefore starts and ends with a vertical edge, which forces an even
vertex count and pairs every reflex vertex (top of a vertical edge) with the
convex vertex directly below it.

All coordinates are bounded integers and every geometric decision in this
package reduces to exact signed 64-bit-safe arithmetic; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Sequence

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


# indexed [i & 1][is reflex]; see Terrain.__post_init__
_CLASS_BY_PARITY = (
    (VertexClass.RIGHT_CONVEX, VertexClass.RIGHT_REFLEX),
    (VertexClass.LEFT_CONVEX, VertexClass.LEFT_REFLEX),
)


@dataclass(frozen=True)
class Terrain:
    """Validated orthogonal terrain; vertex i sits at ``(xs[i], ys[i])``.

    Construction runs the full invariant check, so holding a Terrain is proof
    of validity.  Instances are immutable and safe to share across workers.
    The constructor also derives ``classes``, the per-vertex classification
    the visibility code leans on.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]
    classes: tuple[VertexClass, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        xs, ys = tuple(self.xs), tuple(self.ys)
        _check_invariants(xs, ys)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        # Even-index vertices are the right endpoint of their horizontal edge and
        # odd-index ones the left endpoint: horizontal edges occupy odd edge
        # slots, and the left/right rays give v_0 and v_{n-1} the same parity
        # rule.  Vertex i's vertical edge runs to i ^ 1, and i is reflex when it
        # is the top of that edge.
        classes = tuple(_CLASS_BY_PARITY[i & 1][ys[i] > ys[i ^ 1]] for i in range(len(ys)))
        object.__setattr__(self, "classes", classes)

    @property
    def n(self) -> int:
        return len(self.xs)


def validate(raw_points: Iterable[Sequence[int]]) -> Terrain:
    """Build a Terrain from integer ``(x, y)`` pairs, or raise a ValidationError.

    Nothing is coerced: each point must be exactly two values, both of type
    ``int``.  The checks run in this order and the first failure is raised:
    the shape of each point, the vertex count (at least 2, even), the type
    and range of every vertex, then the edges left to right.  So a vertex
    out of range is reported before a bad edge ahead of it.
    """

    xs: list[int] = []
    ys: list[int] = []
    for i, p in enumerate(raw_points):
        try:
            x, y = p
        except (TypeError, ValueError):
            msg = f"vertex {i} must be an (x, y) pair, got {p!r}"
            raise ValidationError(msg, index=i) from None
        xs.append(x)
        ys.append(y)
    return Terrain(tuple(xs), tuple(ys))


def _check_invariants(xs: tuple[int, ...], ys: tuple[int, ...]) -> None:
    n = len(xs)
    if len(ys) != n:
        msg = f"{n} x coordinates but {len(ys)} y coordinates"
        raise ValidationError(msg, index=min(n, len(ys)))
    if n < 2:
        raise TooFewVertices(f"terrain needs at least 2 vertices, got {n}")
    if n % 2:
        raise OddVertexCount(f"vertex count must be even, got {n}")
    for i, (x, y) in enumerate(zip(xs, ys)):
        if type(x) is not int or type(y) is not int:
            raise ValidationError(f"vertex {i} at ({x!r}, {y!r}) must have int coordinates", index=i)
        if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
            raise CoordinateOutOfRange(f"vertex {i} at ({x}, {y}) exceeds |coord| <= 2^30", index=i)
    for i in range(n - 1):
        dx, dy = xs[i + 1] - xs[i], ys[i + 1] - ys[i]
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


def convex_indices(t: Terrain) -> tuple[int, ...]:
    return tuple(i for i, c in enumerate(t.classes) if c.is_convex)
