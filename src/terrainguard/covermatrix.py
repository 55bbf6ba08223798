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
in time and memory proportional to the number of visible pairs.  The
visibility sweep fixes this order and returns the matrix in it
(visibility_relation); CoverMatrix validates every row it is given.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import ge
from typing import NamedTuple

from .geometry import Terrain


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
    ``pairs`` lists the ones as vertex pairs.
    """

    rows: tuple[tuple[int, ...], ...]
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        # tuples keep the frozen matrix immutable
        for name in ("rows", "row_labels", "col_labels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if len(self.row_labels) != len(self.rows):
            raise ValueError(
                f"{len(self.rows)} rows need as many row labels, got {len(self.row_labels)}"
            )
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

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All (guard, target) vertex pairs, sorted by target then guard."""

        cols = self.col_labels
        by_target = sorted((c, cols[j]) for c, row in zip(self.row_labels, self.rows) for j in row)
        return tuple((g, c) for c, g in by_target)


def build(t: Terrain, rel: CoverMatrix) -> CoverMatrix:
    """Identity: ``visibility_relation`` already returns the matrix.  Kept
    only for the benchmark harness; ``t`` is not read."""

    return rel


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
