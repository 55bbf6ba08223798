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
with hops = Theta(n^2) only on adversarial inputs.  The passes meet the
targets in row order and their guards in column order, so the sweep fixes
the cover matrix's order and returns the CoverMatrix itself, which
validates its rows.
"""

from __future__ import annotations

from operator import gt
from typing import Iterable

from .covermatrix import CoverMatrix
from .geometry import LR, RC, RR, Terrain


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


def visibility_relation(t: Terrain) -> CoverMatrix:
    """The guards of every convex vertex, as the permuted cover matrix.

    One stack pass per side (see _sweep): the even vertices left to right
    (right-convex rows, right-reflex columns counting down from R - 1, R the
    number of right-reflex vertices), then the odd vertices right to left
    (left-convex rows, left-reflex columns counting down from n/2 - 1).
    """

    xs, ys = t.xs, t.ys
    n = len(ys)
    rows: list[tuple[int, ...]] = []
    row_labels: list[int] = []
    col_labels = [0] * (n // 2)
    shared = (xs, ys, max(ys), rows, row_labels, col_labels)
    right_cols = sum(map(gt, ys[0::2], ys[1::2]))
    _sweep(zip(range(0, n, 2), xs[0::2], ys[0::2], ys[1::2]), right_cols - 1, *shared)
    _sweep(zip(range(n - 1, 0, -2), xs[-1::-2], ys[-1::-2], ys[-2::-2]), n // 2 - 1, *shared)
    return CoverMatrix(rows, row_labels, col_labels)


def _sweep(
    vertices: Iterable[tuple[int, int, int, int]],
    col: int,
    xs: tuple[int, ...],
    ys: tuple[int, ...],
    top_y: int,
    rows: list[tuple[int, ...]],
    row_labels: list[int],
    col_labels: list[int],
) -> None:
    """Append one side's rows and their targets, and label its columns
    counting down from ``col``, in the order the sweep meets them.

    ``vertices`` yields ``(v, x, y, y_partner)`` for one parity class in sweep
    order; v is a guard, the top of its vertical edge, when ``y > y_partner``,
    else a target, which looks back along the sweep.  The stack holds columns.

    Once a vertex has popped every entry no higher than itself, the stack is
    its chain: each vertex behind it that is strictly higher than all
    between them, nearest on top.
    - Only vertical-edge tops are pushed: a chain vertex is strictly higher
      than its neighbour towards the target, so they share a vertical edge,
      of which it is the top.  A vertex of the other parity is as high as
      its horizontal neighbour towards the target, which pops for it.
    - Popping at a target is safe: a popped entry is no higher than the
      target, which lies between it and every later target.
    - Nearest first is increasing column order: the nearer of two entries
      was pushed later, so its column is smaller.

    The walk keeps the extreme blocking slope as an integer vector (ux, uy)
    from the target, ux > 0 a horizontal distance.  An entry is visible
    exactly when its slope strictly beats it, and then becomes it.  The first
    extreme, the target's own horizontal edge, makes the top entry visible.
    A vertex off the chain is no higher than the chain vertex before it and
    no nearer: neither visible nor the extreme.  The walk stops once even a
    vertex at height ``top_y`` could not beat the extreme.  O(n + hops).
    """

    stack: list[int] = []  # columns; their vertices' heights strictly decrease upward
    for v, x, y, y_partner in vertices:
        while stack and ys[col_labels[stack[-1]]] <= y:
            stack.pop()
        if y > y_partner:
            col_labels[col] = v
            stack.append(col)
            col -= 1
            continue
        row_labels.append(v)
        top = top_y - y
        ux, uy = 1, 0
        row = []
        for j in reversed(stack):
            g = col_labels[j]
            wx = abs(xs[g] - x)
            # best remaining slope is top / wx; once it cannot beat uy / ux the
            # walk is done (both denominators positive)
            if top * ux <= uy * wx:
                break
            wy = ys[g] - y
            if ux * wy - uy * wx > 0:
                row.append(j)
                ux, uy = wx, wy
        rows.append(tuple(row))
