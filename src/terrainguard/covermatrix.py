"""Permuted 0/1 constraint matrix of the guarding set-cover problem.

Rows are convex vertices (the covering constraints), columns are reflex
vertices (the candidate guards).  Rows and columns are permuted so that the
matrix splits into two blocks that are each free of the forbidden staircase
pattern [[1,1],[1,0]]:

  rows:    right-convex vertices left to right, then left-convex right to left
  columns: right-reflex vertices right to left, then left-reflex left to right

A matrix with no such induced pattern is in standard greedy form, and a
simple one-pass greedy finds a provably minimum cover on it (see solver).
Rows are stored sparsely, as the increasing column indices of their ones:
a terrain row holds only a few ones, so the form check and the solver run
in time and memory proportional to the number of visible pairs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import ge
from typing import NamedTuple

from .geometry import LC, LR, RC, RR, Terrain
from .visibility import VisibilityRelation


class Violation(NamedTuple):
    """Witness of the forbidden pattern: rows i1 < i2, columns j1 < j2 with
    ones at (i1,j1), (i1,j2), (i2,j1) and a zero at (i2,j2)."""

    i1: int
    i2: int
    j1: int
    j2: int


@dataclass(frozen=True)
class CoverMatrix:
    """0/1 matrix in the permuted order, rows stored as sparse column tuples.

    ``rows[i]`` is the strictly increasing tuple of columns j whose guard at
    ``col_labels[j]`` sees the convex vertex at ``row_labels[i]``; a row
    nobody covers is the empty (falsy) tuple.  ``entries`` materialises the
    dense 0/1 form on demand; it is meant for small matrices and debugging.
    """

    rows: tuple[tuple[int, ...], ...]
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        width = len(self.col_labels)
        for i, row in enumerate(self.rows):
            if row and (row[0] < 0 or row[-1] >= width or any(map(ge, row, row[1:]))):
                raise ValueError(
                    f"row {i} must hold strictly increasing columns in [0, {width}), got {row}"
                )

    @property
    def k(self) -> int:
        return len(self.rows)

    @property
    def k_prime(self) -> int:
        return len(self.col_labels)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        dense = []
        for row in self.rows:
            line = [0] * self.k_prime
            for j in row:
                line[j] = 1
            dense.append(tuple(line))
        return tuple(dense)


def build(t: Terrain, rel: VisibilityRelation) -> CoverMatrix:
    """Assemble the permuted cover matrix from a terrain's visibility relation.

    This is the one place that fixes the row and column order.  Each row is
    its target's guards, nearest first, mapped straight to their columns;
    CoverMatrix rejects a row whose columns do not increase.
    """

    classes = t.classes
    rc = [i for i, c in enumerate(classes) if c is RC]
    lc = [i for i, c in enumerate(classes) if c is LC]
    rr = [i for i, c in enumerate(classes) if c is RR]
    lr = [i for i, c in enumerate(classes) if c is LR]
    # chain order is x order within a class, so reversing flips left/right
    row_labels = tuple(rc + lc[::-1])
    col_labels = tuple(rr[::-1] + lr)
    pos = [0] * t.n
    for j, g in enumerate(col_labels):
        pos[g] = j
    # nearest first is increasing column order: right-convex targets walk left
    # and meet right-reflex guards right to left, as their columns run, and
    # left-convex ones mirror this; a list, not a generator, sizes rows exactly
    guards = rel.guards
    rows = tuple([tuple([pos[g] for g in guards[c]]) for c in row_labels])
    return CoverMatrix(rows, row_labels, col_labels)


def find_greedy_form_violation(m: CoverMatrix) -> Violation | None:
    """First forbidden-pattern witness found, or None if the matrix is clean.

    Sweeps rows top to bottom remembering, per column, the last row with a
    one there.  The matrix is clean exactly when each row contains, for
    every column j1 it holds, the ones that the last earlier row at j1 has
    to the right of j1: chaining those containments covers every earlier
    row at j1.  A row is compared once with each distinct last row, at the
    leftmost shared j1, which implies the comparisons at the others; a
    missing column completes the pattern.  A row takes part in at most as
    many comparisons as it has ones, as the earlier row and as the later
    one, and a comparison costs the two rows' lengths, so the scan is
    bounded by the sum of squared row lengths.
    """

    last = [-1] * m.k_prime
    for i2, row in enumerate(m.rows):
        compared: set[int] = set()
        for j1 in row:
            i1, last[j1] = last[j1], i2
            if i1 < 0 or i1 in compared:
                continue
            compared.add(i1)
            upper = m.rows[i1]
            right = upper[bisect_right(upper, j1) :]
            if right and not set(row).issuperset(right):
                j2 = next(j for j in right if j not in row)
                return Violation(i1, i2, j1, j2)
    return None


def format_matrix(m: CoverMatrix) -> str:
    """Line-oriented debug dump: column labels, then one 0/1 row per line."""

    lines = ["cols: " + " ".join(str(g) for g in m.col_labels)]
    for label, line in zip(m.row_labels, m.entries):
        lines.append(f"row {label}: " + "".join(map(str, line)))
    return "\n".join(lines) + "\n"
