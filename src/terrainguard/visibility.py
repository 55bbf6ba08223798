"""Strict-above visibility between terrain vertices.

A reflex vertex guards a convex vertex when the open segment between them
lies strictly above the terrain.  Because the chain is x-monotone and
orthogonal, that holds exactly when every vertex strictly between the two
endpoints in chain order lies strictly below the segment's supporting line,
and the endpoints are not joined by a terrain edge.  Checking chain order
rather than the open x-interval matters: the far endpoint of a vertical
edge at the segment's own x can carry a horizontal ledge that blocks the
sightline even though no vertex has an x strictly inside the interval.

Everything here is exact integer arithmetic (2x2 determinants), and the
directional sweep used for whole-terrain relations is O(n) per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import Terrain, VertexClass

LC = VertexClass.LEFT_CONVEX
RC = VertexClass.RIGHT_CONVEX
LR = VertexClass.LEFT_REFLEX
RR = VertexClass.RIGHT_REFLEX


class NotConvex(ValueError):
    pass


def sees(t: Terrain, a: int, b: int) -> bool:
    """True when vertices a and b see each other (symmetric).

    Vertices at equal x never see each other: the segment would run along
    or through the vertical edge at that x.  Chain neighbours never see each
    other: their shared edge lies on the terrain, not strictly above it.  A
    blocking vertex that merely touches the segment counts as blocking.
    """

    n = len(t.vertices)
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError(f"vertex index out of range: {a}, {b} with n={n}")
    if a == b:
        raise ValueError("visibility is defined for two distinct vertices")
    i, j = (a, b) if a < b else (b, a)
    xs, ys = t.xs, t.ys
    if xs[i] == xs[j]:
        return False
    if j == i + 1:
        return False
    lx, ly = xs[i], ys[i]
    dx, dy = xs[j] - lx, ys[j] - ly
    for w in range(i + 1, j):
        if dx * (ys[w] - ly) - dy * (xs[w] - lx) >= 0:
            return False
    return True


def candidate_guards(t: Terrain, c: int) -> tuple[int, ...]:
    """All reflex vertices that see the convex vertex c, in chain order.

    Only same-side reflex vertices strictly above and on the open side of c
    can possibly see it (a right-convex vertex is seen from the upper left,
    a left-convex one from the upper right), so the scan is restricted to
    those before running the visibility test.  The restriction is lossless:
    the result equals the unpruned scan over every reflex vertex.
    """

    cls = t.classes[c]
    if not cls.is_convex:
        raise NotConvex(f"vertex {c} is {cls.value}, not convex")
    xs, ys, classes = t.xs, t.ys, t.classes
    xc, yc = xs[c], ys[c]
    if cls is RC:
        pruned = (
            r for r in range(len(xs)) if classes[r] is RR and xs[r] < xc and ys[r] > yc
        )
    else:
        pruned = (
            r for r in range(len(xs)) if classes[r] is LR and xs[r] > xc and ys[r] > yc
        )
    return tuple(r for r in pruned if sees(t, r, c))


@dataclass(frozen=True)
class VisibilityRelation:
    """All (guard, target) pairs of the terrain, sorted by target then guard."""

    pairs: tuple[tuple[int, int], ...]


def visibility_relation(t: Terrain) -> VisibilityRelation:
    """Visible (reflex guard, convex target) pairs for the whole terrain.

    Uses one directional sweep per convex vertex instead of per-pair tests,
    so the whole relation costs O(n) per convex vertex.  Agreement with
    candidate_guards is a tested invariant.  Right-convex targets look
    left; their sweep runs over negated x so that it is the same rightward
    sweep seen in a mirror.
    """

    xs, ys, classes = t.xs, t.ys, t.classes
    mirrored_xs = tuple(-x for x in xs)
    top_y = max(ys)
    pairs: list[tuple[int, int]] = []
    for c, cls in enumerate(classes):
        if cls is RC:
            guards = [r for r in _visible_sweep(mirrored_xs, ys, c, -1, top_y) if classes[r] is RR]
            guards.reverse()  # the leftward walk meets guards right to left
        elif cls is LC:
            guards = [r for r in _visible_sweep(xs, ys, c, 1, top_y) if classes[r] is LR]
        else:
            continue
        pairs.extend((g, c) for g in guards)
    return VisibilityRelation(tuple(pairs))


def _visible_sweep(
    xs: tuple[int, ...], ys: tuple[int, ...], c: int, step: int, top_y: int
) -> list[int]:
    """Indices of all vertices visible from vertex c, walking the chain by step.

    ``xs`` must increase in the walking direction: the terrain's own x for
    step 1, negated x for step -1, so the geometry is always a rightward
    sweep.  Keeps the extreme blocking slope seen so far as an integer
    vector (ux, uy) relative to c; a vertex is visible exactly when its
    slope from c strictly beats that extreme, and then it becomes the new
    extreme.  The first neighbour is the other endpoint of a terrain edge at
    c, hence never visible but always a blocker.  Once even a vertex at the
    terrain's maximum height ``top_y`` could no longer beat the extreme,
    nothing further out can be visible and the walk stops.
    """

    xc, yc = xs[c], ys[c]
    top = top_y - yc
    stop = len(xs) if step > 0 else -1
    out: list[int] = []
    if c + step == stop:
        return out
    ux, uy = xs[c + step] - xc, ys[c + step] - yc
    for i in range(c + 2 * step, stop, step):
        wx = xs[i] - xc
        # best remaining slope is top / wx; once it cannot beat uy / ux the
        # walk is done (both denominators positive)
        if top * ux <= uy * wx:
            break
        wy = ys[i] - yc
        if ux * wy - uy * wx > 0:
            out.append(i)
            ux, uy = wx, wy
    return out
