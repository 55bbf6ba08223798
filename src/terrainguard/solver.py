"""Exact minimum guard selection.

The pipeline is: classify vertices, compute the visibility relation, build
the permuted cover matrix, then run the standard-greedy-form greedy: scan
rows top to bottom and, whenever a row is still uncovered, pick the highest
index column with a one in it.  On a matrix free of the [[1,1],[1,0]]
pattern that column dominates every alternative for all later rows, so the
scan returns a minimum cover.  A brute-force subset-enumeration oracle is
kept alongside as the independent correctness reference.

Terrains where some convex vertex is seen by no reflex vertex at all have
no cover; those come back as an InfeasibilityReport rather than an error,
optionally with a best-possible solution for the guardable subset.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Mapping

from .covermatrix import CoverMatrix, Violation, build, find_greedy_form_violation
from .geometry import Terrain
from .visibility import visibility_relation

BRUTE_FORCE_COLUMN_LIMIT = 25


class EmptyRow(ValueError):
    """Row ``row`` (labelled ``label``) has no one: no guard covers it."""

    def __init__(self, row: int, label: int):
        super().__init__(f"row {row} (vertex {label}) has no covering column")
        self.row = row
        self.label = label


class NotGreedyForm(ValueError):
    def __init__(self, violation: Violation):
        super().__init__(f"matrix contains forbidden pattern at {violation}")
        self.violation = violation


class TooManyColumns(ValueError):
    pass


@dataclass(frozen=True)
class GuardSolution:
    """Minimum guard set with a per-target witness.

    ``guards`` are reflex vertex indices in chain order; ``assignment`` is a
    read-only mapping from every covered convex vertex, in chain order, to
    the guard that first covered it in greedy choice order.  ``size`` is the
    proven-minimum cardinality.
    """

    guards: tuple[int, ...]
    assignment: Mapping[int, int]

    def __post_init__(self) -> None:
        # a tuple and a read-only view of a private copy keep the frozen result immutable
        object.__setattr__(self, "guards", tuple(self.guards))
        object.__setattr__(self, "assignment", MappingProxyType(dict(self.assignment)))

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


def _check_form(m: CoverMatrix) -> None:
    violation = find_greedy_form_violation(m)
    if violation is not None:
        raise NotGreedyForm(violation)


def _reject_empty_rows(m: CoverMatrix) -> None:
    if not all(m.rows):
        i = m.rows.index(())
        raise EmptyRow(i, m.row_labels[i])


def _greedy_scan(m: CoverMatrix) -> tuple[list[int], list[int | None]]:
    """Chosen columns in choice order plus, per row, its first covering
    chosen column; an empty row is skipped and gets None."""

    chosen: list[int] = []
    # position of each column in choice order; k' marks a column not chosen
    unchosen = m.k_prime
    rank = [unchosen] * m.k_prime
    first_cover: list[int | None] = []
    for row in m.rows:
        if not row:
            first_cover.append(None)
            continue
        r = min(map(rank.__getitem__, row))
        if r == unchosen:
            r = rank[row[-1]] = len(chosen)
            chosen.append(row[-1])
        first_cover.append(chosen[r])
    return chosen, first_cover


def greedy_cover(m: CoverMatrix, check_form: bool = True) -> frozenset[int]:
    """Minimum-cardinality column cover of a standard-greedy-form matrix.

    ``check_form`` runs the defensive pattern check first; turn it off only
    when the matrix is known clean and speed matters.
    """

    if check_form:
        _check_form(m)
    _reject_empty_rows(m)
    chosen, _ = _greedy_scan(m)
    return frozenset(chosen)


def brute_force_optimum(m: CoverMatrix) -> tuple[int, tuple[int, ...]]:
    """Exact minimum cover by exhaustive search, smallest cardinality first.

    Returns (size, witness) with the lexicographically smallest witness at
    the optimal size.  Independent of the greedy path on purpose: this is
    the oracle the greedy is tested against.
    """

    kp = m.k_prime
    if kp > BRUTE_FORCE_COLUMN_LIMIT:
        raise TooManyColumns(f"{kp} columns exceeds brute-force limit {BRUTE_FORCE_COLUMN_LIMIT}")
    _reject_empty_rows(m)
    if not m.rows:
        return 0, ()
    masks = [sum(1 << j for j in row) for row in m.rows]
    for size in range(1, kp + 1):
        for cols in combinations(range(kp), size):
            mask = 0
            for j in cols:
                mask |= 1 << j
            if all(row & mask for row in masks):
                return size, cols
    raise AssertionError("full column set must cover once empty rows are excluded")


def solve(t: Terrain, allow_partial: bool = False) -> GuardSolution | InfeasibilityReport:
    """Minimum reflex guard set covering every convex vertex of the terrain.

    Infeasible terrains return an InfeasibilityReport; with ``allow_partial``
    it additionally carries the optimum over the guardable convex vertices.
    The result is a pure function of the terrain, deterministic down to
    iteration order.
    """

    return solve_matrix(build(t, visibility_relation(t)), allow_partial)


def solve_matrix(m: CoverMatrix, allow_partial: bool) -> GuardSolution | InfeasibilityReport:
    """``solve`` from the terrain's cover matrix, for callers that built it already."""

    unguardable = tuple(sorted(c for c, row in zip(m.row_labels, m.rows) if not row))
    if unguardable and not allow_partial:
        return InfeasibilityReport(unguardable)
    # empty rows hold no ones, so they change neither the check nor the scan
    _check_form(m)
    chosen, first_cover = _greedy_scan(m)
    guards = tuple(sorted(m.col_labels[j] for j in chosen))
    # build's row labels rise, then fall: taking the smaller end first reads them in chain order
    labels, assignment, lo, hi = m.row_labels, {}, 0, m.k - 1
    while lo <= hi:
        i = lo if labels[lo] < labels[hi] else hi
        lo, hi = lo + (i == lo), hi - (i == hi)
        if first_cover[i] is not None:
            assignment[labels[i]] = m.col_labels[first_cover[i]]
    solution = GuardSolution(guards, assignment)
    return InfeasibilityReport(unguardable, solution) if unguardable else solution
