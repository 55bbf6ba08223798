"""Strict-above visibility between terrain vertices.

A reflex vertex guards a convex vertex when the open segment between them
lies strictly above the terrain.  Because the chain is x-monotone and
orthogonal, that holds exactly when every vertex strictly between the two
endpoints in chain order lies strictly below the segment's supporting line,
and the endpoints are not joined by a terrain edge.  Checking chain order
rather than the open x-interval matters: the far endpoint of a vertical
edge at the segment's own x can carry a horizontal ledge that blocks the
sightline even though no vertex has an x strictly inside the interval.

Everything here is exact integer arithmetic (2x2 determinants).  The
whole-terrain relation hops along "next strictly higher vertex" chains and
costs O(n + hops); hops = Theta(n^2) only on adversarial inputs.  It hands
each convex vertex its guards nearest first, in the order its sweep meets
them; the flat (guard, target) pairs are derived from those on demand.
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

    n = t.n
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

    if not 0 <= c < t.n:
        raise IndexError(f"vertex index out of range: {c} with n={t.n}")
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
    """The reflex vertices that see each vertex of the terrain.

    ``guards[c]`` holds the guards of the convex vertex c nearest first, as
    its chain sweep meets them: decreasing chain index for a right-convex
    target, increasing for a left-convex one.  It is empty for reflex
    vertices and for targets no vertex sees.
    """

    guards: tuple[tuple[int, ...], ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All (guard, target) pairs, sorted by target then guard."""

        return tuple((g, c) for c, gs in enumerate(self.guards) for g in sorted(gs))


def visibility_relation(t: Terrain) -> VisibilityRelation:
    """The guards of every convex vertex of the terrain, nearest first.

    Computes "next strictly higher vertex" pointers once in each direction
    (all nearest larger values, two monotone-stack passes), then runs one
    chain sweep per convex vertex, so the relation costs O(n + hops).  Hops
    are a few times the number of pairs on random terrains, 0 on staircases,
    and reach Theta(n^2) only on adversarial inputs (low teeth before a wall
    that a long gentle ascent tops).  Agreement with candidate_guards is a
    tested invariant.  Right-convex targets look left; their sweep runs over
    negated x so that it is the same rightward sweep seen in a mirror.

    Every vertex a chain sweep reports is strictly higher than its chain
    predecessor.  Walking right, that makes it the upper end of a vertical
    edge whose lower end comes before it: a left-reflex vertex.  Walking
    left, it is a right-reflex vertex by the mirrored argument.  So the
    guards need no class filter.
    """

    xs, ys, classes = t.xs, t.ys, t.classes
    mirrored_xs = tuple(-x for x in xs)
    higher_right = _next_higher(ys, range(len(ys)))
    higher_left = _next_higher(ys, range(len(ys) - 1, -1, -1))
    top_y = max(ys)
    guards: list[tuple[int, ...]] = []
    for c, cls in enumerate(classes):
        if cls is RC:
            guards.append(_visible_sweep(mirrored_xs, ys, higher_left, c, -1, top_y))
        elif cls is LC:
            guards.append(_visible_sweep(xs, ys, higher_right, c, 1, top_y))
        else:
            guards.append(())
    return VisibilityRelation(tuple(guards))


def _next_higher(ys: tuple[int, ...], order: range) -> list[int]:
    """For each vertex, the first vertex after it in ``order`` that is
    strictly higher, or -1 when there is none (one monotone-stack pass)."""

    out = [-1] * len(ys)
    stack: list[int] = []  # pending vertices, heights non-increasing
    for i in order:
        y = ys[i]
        while stack and ys[stack[-1]] < y:
            out[stack.pop()] = i
        stack.append(i)
    return out


def _visible_sweep(
    xs: tuple[int, ...],
    ys: tuple[int, ...],
    higher: list[int],
    c: int,
    step: int,
    top_y: int,
) -> tuple[int, ...]:
    """Indices of all vertices visible from the convex vertex c, walking by
    step, nearest first.

    ``xs`` must increase in the walking direction: the terrain's own x for
    step 1, negated x for step -1, so the geometry is always a rightward
    sweep.  ``higher`` holds the next strictly higher vertex in that
    direction (-1 for none).  The first neighbour is c's horizontal
    neighbour, at c's height: never visible, but always a blocker.  Keeps
    the extreme blocking slope seen so far as an integer vector (ux, uy)
    relative to c; a vertex is visible exactly when its slope from c
    strictly beats that extreme, and then it becomes the new extreme.

    The walk hops along ``higher`` from the neighbour, visiting only strict
    prefix maxima of height.  A skipped vertex is no higher than the chain
    vertex before it and no nearer to c, so it cannot beat that vertex's
    slope: it is neither visible nor the extreme.  Once even a vertex at the
    terrain's maximum height ``top_y`` could no longer beat the extreme,
    nothing further out can be visible and the walk stops.  The cost is one
    step per chain vertex visited (a hop).
    """

    xc, yc = xs[c], ys[c]
    top = top_y - yc
    out: list[int] = []
    first = c + step
    if not 0 <= first < len(xs):
        return ()
    ux, uy = xs[first] - xc, ys[first] - yc
    i = higher[first]
    while i >= 0:
        wx = xs[i] - xc
        # best remaining slope is top / wx; once it cannot beat uy / ux the
        # walk is done (both denominators positive)
        if top * ux <= uy * wx:
            break
        wy = ys[i] - yc
        if ux * wy - uy * wx > 0:
            out.append(i)
            ux, uy = wx, wy
        i = higher[i]
    return tuple(out)
