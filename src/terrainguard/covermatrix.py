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
from itertools import combinations
from operator import ge
from typing import NamedTuple, Sequence

from .geometry import Terrain, VertexClass
from .visibility import VisibilityRelation


class TooLarge(ValueError):
    pass


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

    def entry(self, i: int, j: int) -> int:
        if not 0 <= i < self.k:
            raise IndexError(f"row {i} out of range")
        if not 0 <= j < self.k_prime:
            raise IndexError(f"column {j} out of range")
        return int(j in self.rows[i])

    @classmethod
    def from_entries(
        cls,
        entries: Sequence[Sequence[int]],
        row_labels: Sequence[int] | None = None,
        col_labels: Sequence[int] | None = None,
    ) -> "CoverMatrix":
        """Build from a dense 0/1 list of lists; labels default to positions.

        Intended for direct experiments with explicit matrices; terrains go
        through ``build`` instead.
        """

        width = len(entries[0]) if entries else 0
        if any(len(row) != width for row in entries):
            raise ValueError("ragged matrix")
        if any(v not in (0, 1) for row in entries for v in row):
            raise ValueError("entries must be 0 or 1")
        rows = tuple(tuple(j for j, v in enumerate(row) if v) for row in entries)
        rl = tuple(row_labels) if row_labels is not None else tuple(range(len(entries)))
        cl = tuple(col_labels) if col_labels is not None else tuple(range(width))
        if len(rl) != len(entries) or len(cl) != width:
            raise ValueError("label length mismatch")
        return cls(rows, rl, cl)


def build(t: Terrain, rel: VisibilityRelation) -> CoverMatrix:
    """Assemble the permuted cover matrix from a terrain's visibility relation."""

    classes = t.classes
    rc = [i for i, c in enumerate(classes) if c is VertexClass.RIGHT_CONVEX]
    lc = [i for i, c in enumerate(classes) if c is VertexClass.LEFT_CONVEX]
    rr = [i for i, c in enumerate(classes) if c is VertexClass.RIGHT_REFLEX]
    lr = [i for i, c in enumerate(classes) if c is VertexClass.LEFT_REFLEX]
    # chain order is x order within a class, so reversing flips left/right
    row_labels = tuple(rc + lc[::-1])
    col_labels = tuple(rr[::-1] + lr)
    col_pos = {g: j for j, g in enumerate(col_labels)}
    row_pos = {c: i for i, c in enumerate(row_labels)}
    rows: list[list[int]] = [[] for _ in row_labels]
    for g, c in rel.pairs:
        rows[row_pos[c]].append(col_pos[g])
    return CoverMatrix(tuple(map(tuple, map(sorted, rows))), row_labels, col_labels)


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


def is_standard_greedy_form(m: CoverMatrix) -> bool:
    """No induced [[1,1],[1,0]] over any increasing row and column pair."""

    return find_greedy_form_violation(m) is None


def is_totally_balanced_bruteforce(m: CoverMatrix) -> bool:
    """Exponential check that no square submatrix is a cycle incidence
    pattern: every row and column sum equal to 2 with no repeated columns.
    Desk-scale only; guarded to min(k, k') <= 8.

    The repeated-column exclusion matters: without it the all-ones 2x2
    (two guards seeing the same two targets, which real terrains produce
    all the time) would count as a violation, yet such a matrix is still
    coverable greedily and is totally balanced under the definition the
    greedy-form equivalence theorem actually relies on.
    """

    k, kp = m.k, m.k_prime
    if min(k, kp) > 8:
        raise TooLarge(f"brute-force balance check limited to min(k, k') <= 8, got {min(k, kp)}")
    dense = m.entries
    # size 2 can never qualify: row and column sums of 2 force the all-ones
    # 2x2, whose columns are identical
    for s in range(3, min(k, kp) + 1):
        for rows in combinations(range(k), s):
            profiles = {
                j: tuple(dense[i][j] for i in rows)
                for j in range(kp)
                if sum(dense[i][j] for i in rows) == 2
            }
            if len(profiles) < s:
                continue
            for cols in combinations(sorted(profiles), s):
                if len({profiles[j] for j in cols}) != s:
                    continue
                if all(sum(profiles[j][r] for j in cols) == 2 for r in range(s)):
                    return False
    return True


def format_matrix(m: CoverMatrix) -> str:
    """Line-oriented debug dump: column labels, then one 0/1 row per line."""

    lines = ["cols: " + " ".join(str(g) for g in m.col_labels)]
    for label, line in zip(m.row_labels, m.entries):
        lines.append(f"row {label}: " + "".join(map(str, line)))
    return "\n".join(lines) + "\n"
