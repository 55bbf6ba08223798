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
whole-terrain relation is one monotone-stack pass per side, O(n + hops)
with hops = Theta(n^2) only on adversarial inputs.  The passes yield the
targets in row order, each with its guards as reflex vertices nearest
first, and covermatrix numbers the guards by column for the matrix views.
solve runs the same passes with its greedy inside them (see solver).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .geometry import LR, RC, RR, Terrain


class NotConvex(ValueError):
    pass


def sees(t: Terrain, a: int, b: int) -> bool:
    """True when vertices a and b see each other (symmetric).

    Chain neighbours never see each other: their shared edge lies on the
    terrain, not strictly above it.  That covers vertices at equal x, which
    are always the two ends of one vertical edge.  A blocking vertex that
    merely touches the segment counts as blocking.
    """

    for name, v in (("a", a), ("b", b)):
        if type(v) is not int:
            raise ValueError(f"vertex index {name} must be an int, got {v!r}")
    n = t.n
    if not (0 <= a < n and 0 <= b < n):
        raise IndexError(f"vertex index out of range: {a}, {b} with n={n}")
    if a == b:
        raise ValueError("visibility is defined for two distinct vertices")
    i, j = (a, b) if a < b else (b, a)
    xs, ys = t.xs, t.ys
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

    if type(c) is not int:
        raise ValueError(f"vertex index c must be an int, got {c!r}")
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


def target_rows(t: Terrain) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Each convex vertex with the reflex vertices that see it, nearest
    first, in row order: one stack pass per side (see _sweep), the even
    vertices left to right, then the odd vertices right to left.

    Each side's slices are made when its pass starts, and its zip is held
    only by that pass, so one side's slices are alive at a time."""

    xs, ys = t.xs, t.ys
    n = len(ys)
    yield from _sweep(zip(range(0, n, 2), xs[0::2], ys[0::2], ys[1::2]), xs, ys)
    yield from _sweep(zip(range(n - 1, 0, -2), xs[-1::-2], ys[-1::-2], ys[-2::-2]), xs, ys)


def _sweep(
    vertices: Iterable[tuple[int, int, int, int]],
    xs: tuple[int, ...],
    ys: tuple[int, ...],
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Yield one side's targets with their guards, in the order the sweep
    meets them.

    ``vertices`` yields ``(v, x, y, y_partner)`` for one parity class in sweep
    order; v is a guard, the top of its vertical edge, when ``y > y_partner``,
    else a target, which looks back along the sweep.

    Once a vertex has popped every entry no higher than itself, the stack is
    its chain: each vertex behind it that is strictly higher than all
    between them, nearest on top.
    - Only vertical-edge tops are pushed: a chain vertex is strictly higher
      than its neighbour towards the target, so they share a vertical edge,
      of which it is the top.  A vertex of the other parity is as high as
      its horizontal neighbour towards the target, which pops for it.
    - Popping at a target is safe: a popped entry is no higher than the
      target, which lies between it and every later target.

    The walk keeps the extreme blocking slope as an integer vector (ux, uy)
    from the target, ux > 0 a horizontal distance.  An entry is visible
    exactly when its slope strictly beats it, and then becomes it.  The first
    extreme, the target's own horizontal edge, makes the top entry visible.
    A vertex off the chain is no higher than the chain vertex before it and
    no nearer: neither visible nor the extreme.  The walk stops once even the
    stack's bottom, the highest vertex behind, cannot beat it.  O(n + hops).
    """

    stack: list[int] = []  # guards; their heights strictly decrease upward
    for v, x, y, y_partner in vertices:
        while stack and ys[stack[-1]] <= y:
            stack.pop()
        if y > y_partner:
            stack.append(v)
            continue
        top = ys[stack[0]] - y if stack else 0
        ux, uy = 1, 0
        row = []
        for g in reversed(stack):
            wx = abs(xs[g] - x)
            wy = ys[g] - y
            if ux * wy > uy * wx:
                row.append(g)
                ux, uy = wx, wy
            # best remaining slope is top / wx; once it cannot beat uy / ux the
            # walk is done (both denominators positive)
            elif top * ux <= uy * wx:
                break
        yield v, tuple(row)
