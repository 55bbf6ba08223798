"""Exact minimum guard selection, proven minimum on every instance.

After a fixed row and column permutation the guarding set-cover matrix is
in standard greedy form, so a one-pass greedy covers it minimally (see
covermatrix).  solve runs that greedy on the visibility sweep's targets as
they come, with no matrix: a target no chosen guard covers forces its
farthest guard, its row's highest column.  A guard shared by two forcing
targets would complete the forbidden [[1,1],[1,0]] pattern, so the forcing
targets are a packing as large as the cover, which proves it minimum by
weak LP duality; solve checks that in O(pairs) and raises NotGreedyForm,
naming matrix rows and columns, where it fails.

Terrains where some convex vertex is seen by no reflex vertex at all have
no cover; those come back as an InfeasibilityReport rather than an error,
optionally with a best-possible solution for the guardable subset.  solve
has one exit: it runs the greedy and the packing check on every guardable
row, collects the unguardable targets, and decides at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .covermatrix import NotGreedyForm, Violation, _columns
from .geometry import Terrain
from .visibility import target_rows


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
    """

    n = t.n
    # per guard: its position in choice order, and the choice whose forcing
    # row holds it; n marks a guard not chosen, or not held
    rank = [n] * n
    owner = [n] * n
    chosen: list[int] = []  # guards in choice order
    forcing: list[int] = []  # the row that forced each
    first_cover = [-1] * n  # per covered target, its first chosen guard
    unguardable: list[int] = []
    for i, (c, guards) in enumerate(target_rows(t)):
        if not guards:
            unguardable.append(c)
            continue
        r = min(map(rank.__getitem__, guards))
        if r == n:
            r = len(chosen)
            for g in guards:
                if owner[g] != n:
                    # the earlier forcing row's choice is missing here; name both by column
                    o, cols = owner[g], _columns(t)
                    raise NotGreedyForm(Violation(forcing[o], i, cols.index(g), cols.index(chosen[o])))
                owner[g] = r
            rank[guards[-1]] = r
            chosen.append(guards[-1])
            forcing.append(i)
        first_cover[c] = chosen[r]
    unguardable.sort()
    if unguardable and not allow_partial:
        return InfeasibilityReport(unguardable)
    solution = GuardSolution(sorted(chosen), ((c, g) for c, g in enumerate(first_cover) if g >= 0))
    return InfeasibilityReport(unguardable, solution) if unguardable else solution
