"""Exact minimum guard selection, proven minimum on every instance.

After a fixed row and column permutation the guarding set-cover matrix is
in standard greedy form, so a one-pass greedy covers it minimally (see
covermatrix).  solve runs that greedy inside its own passes of the
visibility sweep, with no matrix: a target no chosen guard covers forces
its farthest guard, its row's highest column.  A guard shared by two
forcing targets would complete the forbidden [[1,1],[1,0]] pattern, so the
forcing targets are a packing as large as the cover, which proves it
minimum by weak LP duality.  solve checks that on the forcing rows alone,
which are pairwise disjoint when it holds, and raises NotGreedyForm, naming
matrix rows and columns, where it fails.  Every other target needs only its
first chosen guard, which solve mostly finds without listing its row.

Terrains where some convex vertex is seen by no reflex vertex at all have
no cover; those come back as an InfeasibilityReport rather than an error,
optionally with a best-possible solution for the guardable subset.  solve
has one exit: it runs the greedy and the packing check on every guardable
target, collects the unguardable targets, and decides at the end.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import indexOf
from types import MappingProxyType
from typing import Iterator, Mapping

from .covermatrix import NotGreedyForm, Violation, _columns
from .geometry import LC, RC, Terrain

# solve asks L before walking a row only while the last row it walked held
# more guards than this: a measured trade on random terrains (see solve)
_LONG_ROW = 2


@dataclass(frozen=True)
class GuardSolution:
    """Minimum guard set with a per-target witness.

    ``guards`` are reflex vertex indices in chain order; ``assignment`` is a
    read-only mapping from every covered convex vertex, in chain order, to
    the guard that first covered it in greedy choice order.  ``size`` is
    minimum: solve checks on each instance that the targets which forced
    the guards form a packing, which no cover can beat.
    """

    guards: tuple[int, ...]
    assignment: Mapping[int, int]

    def __post_init__(self) -> None:
        # a tuple and a read-only view of a private dict keep the frozen result
        # immutable; solve passes (target, guard) pairs, which dict() takes too
        object.__setattr__(self, "guards", tuple(self.guards))
        object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))

    # a mappingproxy can be neither pickled nor hashed: pickle and deepcopy
    # rebuild the result from a dict copy of the assignment, and the hash
    # takes the items as a frozenset, since == ignores their order
    def __reduce__(self):
        return type(self), (self.guards, dict(self.assignment))

    def __hash__(self) -> int:
        return hash((self.guards, frozenset(self.assignment.items())))

    @property
    def size(self) -> int:
        return len(self.guards)


@dataclass(frozen=True)
class InfeasibilityReport:
    """Convex vertices no reflex vertex sees, in chain order.

    ``partial`` carries the optimum over the guardable subset when solve was
    asked for it, else None.
    """

    unguardable: tuple[int, ...]
    partial: GuardSolution | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "unguardable", tuple(self.unguardable))


def solve(t: Terrain, allow_partial: bool = False) -> GuardSolution | InfeasibilityReport:
    """Minimum reflex guard set covering every convex vertex of the terrain.

    Infeasible terrains return an InfeasibilityReport; with ``allow_partial``
    it additionally carries the optimum over the guardable convex vertices.
    The result is a pure function of the terrain, deterministic down to
    iteration order.  A failed packing check raises NotGreedyForm.

    Each side runs the stack pass of visibility._sweep with the greedy
    inside it.  A target's row is the visible part of the stack, and its
    assignment is the lowest-rank (earliest chosen) guard in it.  So solve
    first asks L, the lowest-rank chosen guard on the stack: a target that
    sees L is assigned L, covered, and needs no walk.  It sees L exactly
    when its slope from L strictly beats every stack entry above L, as seen
    from L.  Proof: L is higher than every vertex between them, so one that
    is off the stack is beaten, from L, by one no nearer and at least as
    high: its popper, its vertical edge's top or its horizontal neighbour
    towards the target.  Those steps end at the target or on the stack
    above L, and with no entry there L is the top, which is always seen.
    - The steepest entry from L is a running maximum over the entries
      scanned since L became L, and each ask scans only those pushed since
      the stack last stood lowest.  Every entry scanned lies between L and
      the target, and every entry now above L has been scanned, so the
      maximum is exact without dropping popped entries.
    - Ranks only grow, so L stays L until it is popped, and a new choice
      ranks above every chosen guard on the stack.  The chosen guards that
      rank below every chosen guard beneath them are kept by stack position,
      L last: a pop that takes L finds the next one there, and a new choice
      joins them only when no chosen guard lies beneath it.
    - solve asks only while the last row it walked held more than
      _LONG_ROW guards.  On random terrains about one ask in seven is
      answered, so asking before every row saves about what it costs;
      asking only after the long rows, a third of theirs, makes
      random-sparse solves about 5 % faster.  Every row of a bowl is long,
      and every ask there is answered.  The threshold never changes a
      result.
    A target walks its row only when L is not asked, is absent, or is not
    seen.  So solve costs O(n + hops of the walked rows), and O(n) on a
    bowl, which two guards cover.
    """

    xs, ys = t.xs, t.ys
    n = len(ys)
    long_row = _LONG_ROW
    # per guard: its position in choice order, and the choice whose forcing
    # row holds it; n marks a guard not chosen, or not held
    rank = [n] * n
    owner = [n] * n
    chosen: list[int] = []  # guards in choice order
    forcing: list[int] = []  # the target that forced each
    first_cover = [-1] * n  # per covered target, its first chosen guard
    unguardable: list[int] = []
    for vertices in _sides(xs, ys):
        stack: list[int] = []  # guards; their heights strictly decrease upward
        # stack positions of the chosen guards that rank below every chosen
        # guard beneath them, bottom first: L is the last, and the one before
        # it becomes L when L is popped
        lows: deque[int] = deque()
        ask = False  # the last walked row held more than long_row guards
        lpos = -1  # L's stack position; -1: no chosen guard on the stack
        rx, ry = 0, -1  # the steepest entry from L scanned so far, or straight down
        low = 0  # the lowest stack height since the last scan
        for v, x, y, y_partner in vertices:
            while stack and ys[stack[-1]] <= y:
                stack.pop()
                if len(stack) < low:
                    low = len(stack)
                    if low == lpos:
                        # L was popped: the next is beneath it in lows
                        lows.pop()
                        lpos = lows[-1] if lows else -1
                        rx, ry = 0, -1
                        low = lpos + 1
            if y > y_partner:
                stack.append(v)
                continue
            if not stack:
                unguardable.append(v)
                continue
            if ask and lpos >= 0:
                lx, ly = xs[stack[lpos]], ys[stack[lpos]]
                for g in stack[low:]:
                    wx, wy = abs(xs[g] - lx), ys[g] - ly
                    if wy * rx > ry * wx:
                        rx, ry = wx, wy
                low = len(stack)
                if (y - ly) * rx > ry * abs(x - lx):
                    first_cover[v] = stack[lpos]
                    continue
            # the sweep's walk (see visibility._sweep), keeping the row's lowest rank
            top = ys[stack[0]] - y
            ux, uy = 1, 0
            row = []
            r = n
            for g in reversed(stack):
                wx = abs(xs[g] - x)
                wy = ys[g] - y
                if ux * wy > uy * wx:
                    row.append(g)
                    ux, uy = wx, wy
                    if rank[g] < r:
                        r = rank[g]
                elif top * ux <= uy * wx:
                    break
            ask = len(row) > long_row
            if r == n:
                r = len(chosen)
                for g in row:
                    if owner[g] != n:
                        # the earlier forcing row's choice is missing here
                        o = owner[g]
                        raise _pattern(t, forcing[o], v, g, chosen[o])
                    owner[g] = r
                g = row[-1]
                rank[g] = r
                chosen.append(g)
                forcing.append(v)
                # the walk reached g, so searching from the top costs no more
                p = len(stack) - 1 - indexOf(reversed(stack), g)
                if lpos < 0:
                    lows.append(p)
                    lpos = p
                    rx, ry = 0, -1
                    low = p + 1
                elif p < lows[0]:
                    # no chosen guard lies beneath g, and every other ranks below it
                    lows.appendleft(p)
            first_cover[v] = chosen[r]
    del vertices  # its slices need not outlive the passes
    unguardable.sort()
    if unguardable and not allow_partial:
        return InfeasibilityReport(unguardable)
    solution = GuardSolution(sorted(chosen), ((c, g) for c, g in enumerate(first_cover) if g >= 0))
    return InfeasibilityReport(unguardable, solution) if unguardable else solution


def _sides(xs: tuple[int, ...], ys: tuple[int, ...]) -> Iterator[Iterator[tuple[int, int, int, int]]]:
    """The sweep's input per side, as in visibility.target_rows: the even
    vertices left to right, then the odd vertices right to left.  Made one
    side at a time, so that only one side's slices are alive."""

    n = len(ys)
    yield zip(range(0, n, 2), xs[0::2], ys[0::2], ys[1::2])
    yield zip(range(n - 1, 0, -2), xs[-1::-2], ys[-1::-2], ys[-2::-2])


def _pattern(t: Terrain, c1: int, c2: int, g1: int, g2: int) -> NotGreedyForm:
    """The forbidden pattern of targets c1 before c2 and guards g1, g2, named
    by the cover matrix's rows and columns."""

    rows = [c for c, cls in enumerate(t.classes) if cls is RC]
    rows += reversed([c for c, cls in enumerate(t.classes) if cls is LC])
    cols = _columns(t)
    return NotGreedyForm(Violation(rows.index(c1), rows.index(c2), cols.index(g1), cols.index(g2)))
