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

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import cycle
from operator import eq, getitem, gt, lt
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
        return self is LC or self is RC

    @property
    def is_reflex(self) -> bool:
        return not self.is_convex


# the members by name: a VertexClass.X lookup is slow in per-vertex loops
LC = VertexClass.LEFT_CONVEX
RC = VertexClass.RIGHT_CONVEX
LR = VertexClass.LEFT_REFLEX
RR = VertexClass.RIGHT_REFLEX

# indexed [i & 1][is reflex]; see Terrain.classes
_CLASS_BY_PARITY = ((RC, RR), (LC, LR))


@dataclass(frozen=True)
class Terrain:
    """Validated orthogonal terrain; vertex i sits at ``(xs[i], ys[i])``.

    Construction runs the full invariant check, so holding a Terrain is proof
    of validity.  Instances are immutable and safe to share across workers.
    Valid input is checked by whole-sequence comparisons and maps
    (``_is_terrain``); only input that fails them goes through
    ``_check_invariants``, which names the first error.  The per-vertex
    classification, ``classes``, is derived on first read and then kept;
    ``vertex_class`` classifies one vertex without it.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]

    def __post_init__(self) -> None:
        # The checks slice lists, not tuples: CPython keeps freed tuples of
        # fewer than 20 items on free lists that only a full gc empties, so
        # the slices of many small terrains would pile up there.
        xs, ys = self.xs, self.ys
        if type(xs) is not list:
            xs = list(xs)
        if type(ys) is not list:
            ys = list(ys)
        if not _is_terrain(xs, ys):
            _check_invariants(xs, ys)
        object.__setattr__(self, "xs", tuple(xs))
        object.__setattr__(self, "ys", tuple(ys))

    @property
    def n(self) -> int:
        return len(self.xs)

    @cached_property
    def classes(self) -> tuple[VertexClass, ...]:
        """Every vertex's class, in chain order; computed on first read."""

        # Even-index vertices are the right endpoint of their horizontal edge
        # and odd-index ones the left endpoint: horizontal edges occupy odd
        # edge slots, and the left/right rays give v_0 and v_{n-1} the same
        # parity rule.  Vertex i's vertical edge runs to i ^ 1, and i is
        # reflex when it is the top of that edge.
        ys = self.ys
        other = list(ys)  # other[i] = ys[i ^ 1]
        other[0::2], other[1::2] = ys[1::2], ys[0::2]
        return tuple(map(getitem, cycle(_CLASS_BY_PARITY), map(gt, ys, other)))

    def vertex_class(self, i: int) -> VertexClass:
        """``classes[i]`` by the same rule, without building ``classes``."""

        ys = self.ys
        return _CLASS_BY_PARITY[i & 1][ys[i] > ys[i ^ 1]]


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
    return Terrain(xs, ys)


def _is_terrain(xs: list[int], ys: list[int]) -> bool:
    """True exactly when ``_check_invariants`` passes, in C-level passes only.

    The type test comes before ``min`` and ``max``, which raise on mixed
    types.  Vertical edges are the even edge slots (x kept, y changed, so
    none has zero length); horizontal edges are the odd ones (y kept, x
    strictly rising).  Once those hold, the xs never fall along the chain,
    so its two ends bound the x range.
    """

    n = len(xs)
    return (
        len(ys) == n
        and n >= 2
        and n % 2 == 0
        and {*map(type, xs), *map(type, ys)} == {int}
        and -COORD_LIMIT <= min(ys)
        and max(ys) <= COORD_LIMIT
        and xs[0::2] == xs[1::2]
        and not any(map(eq, ys[0::2], ys[1::2]))
        and ys[1:-1:2] == ys[2::2]
        and all(map(lt, xs[1:-1:2], xs[2::2]))
        and -COORD_LIMIT <= xs[0]
        and xs[-1] <= COORD_LIMIT
    )


def _check_invariants(xs: Sequence[int], ys: Sequence[int]) -> None:
    """Raise the first invariant a vertex sequence breaks, or return.

    Only input that ``_is_terrain`` rejects reaches this loop, so it is the
    one place that decides each error's type, message, ``index`` and the
    order in which the checks run.
    """

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
