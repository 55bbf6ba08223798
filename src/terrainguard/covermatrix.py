"""Permuted 0/1 constraint matrix of the guarding set-cover problem.

Rows are convex vertices (the covering constraints), columns are reflex
vertices (the candidate guards).  Rows and columns are permuted so that the
matrix splits into two blocks that are each free of the forbidden staircase
pattern [[1,1],[1,0]]:

  rows:    right-convex vertices left to right, then left-convex right to left
  columns: right-reflex vertices right to left, then left-reflex left to right

Such a matrix is in standard greedy form, hence totally balanced (Hoffman,
Kolen & Sakarovitch, SIAM J. Alg. Disc. Meth. 6(4), 1985): greedy_cover's one
pass covers it minimally, checked against brute_force_optimum.  Rows hold
the increasing columns of their ones.  Only this module numbers columns,
reading each vertex's class from the Terrain: visibility_relation renames
the sweep's guards and collects the rows into a validated CoverMatrix for
--matrix, --oracle and the form check.  The dense 0/1 form exists only as
format_matrix's text, one row at a time.  solve builds no matrix; it calls
_columns only to name a NotGreedyForm violation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations
from operator import ge
from typing import Iterator, NamedTuple

from .geometry import LR, RR, Terrain
from .visibility import target_rows

BRUTE_FORCE_COLUMN_LIMIT = 25


class Violation(NamedTuple):
    """Witness of the forbidden pattern: rows i1 < i2, columns j1 < j2 with
    ones at (i1,j1), (i1,j2), (i2,j1) and a zero at (i2,j2)."""

    i1: int
    i2: int
    j1: int
    j2: int


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
class CoverMatrix:
    """0/1 matrix in the permuted order, rows stored as sparse column tuples.

    ``rows[i]`` is the strictly increasing tuple of columns j whose guard at
    ``col_labels[j]`` sees the convex vertex at ``row_labels[i]``; a row
    nobody covers is the empty (falsy) tuple.  Labels are distinct ints.
    ``pairs`` lists the ones as vertex pairs.
    """

    rows: tuple[tuple[int, ...], ...]
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]

    def __post_init__(self) -> None:
        # tuples, every row included, keep the frozen matrix immutable
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        for name in ("row_labels", "col_labels"):
            labels = tuple(getattr(self, name))
            if not {*map(type, labels)} <= {int} or len({*labels}) != len(labels):
                raise ValueError(f"{name} must be distinct ints, got {labels}")
            object.__setattr__(self, name, labels)
        if len(self.row_labels) != len(self.rows):
            raise ValueError(
                f"{len(self.rows)} rows need as many row labels, got {len(self.row_labels)}"
            )
        width = len(self.col_labels)
        for i, row in enumerate(self.rows):
            if row and (
                {*map(type, row)} != {int}
                or row[0] < 0
                or row[-1] >= width
                or any(map(ge, row, row[1:]))
            ):
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
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """All (guard, target) vertex pairs, sorted by target then guard."""

        cols = self.col_labels
        by_target = sorted((c, cols[j]) for c, row in zip(self.row_labels, self.rows) for j in row)
        return tuple((g, c) for c, g in by_target)


def visibility_relation(t: Terrain) -> CoverMatrix:
    """The permuted cover matrix: target_rows with guards renamed to columns."""

    cols = _columns(t)
    col_of = {g: j for j, g in enumerate(cols)}
    rows = list(target_rows(t))
    renamed = [tuple(map(col_of.__getitem__, gs)) for _, gs in rows]
    return CoverMatrix(renamed, [c for c, _ in rows], cols)


def _columns(t: Terrain) -> list[int]:
    """The cover matrix's columns, in which every target's guards come
    nearest first: right-reflex vertices right to left, then left-reflex
    vertices left to right."""

    right = [v for v, cls in enumerate(t.classes) if cls is RR]
    return right[::-1] + [v for v, cls in enumerate(t.classes) if cls is LR]


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


def _reject_empty_rows(m: CoverMatrix) -> None:
    if not all(m.rows):
        i = m.rows.index(())
        raise EmptyRow(i, m.row_labels[i])


def greedy_cover(m: CoverMatrix, check_form: bool = True) -> frozenset[int]:
    """Minimum-cardinality column cover of a standard-greedy-form matrix.

    ``check_form`` runs the defensive pattern check first; turn it off only
    when the matrix is known clean and speed matters.
    """

    if check_form and (violation := find_greedy_form_violation(m)) is not None:
        raise NotGreedyForm(violation)
    _reject_empty_rows(m)
    chosen: set[int] = set()
    for row in m.rows:
        if chosen.isdisjoint(row):
            chosen.add(row[-1])
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


def format_matrix(m: CoverMatrix) -> Iterator[str]:
    """Line-oriented debug dump, yielded line by line: column labels, then
    one dense 0/1 row per line, made from that row's columns alone."""

    yield "cols: " + " ".join(map(str, m.col_labels)) + "\n"
    zeros = b"0" * m.k_prime
    for label, row in zip(m.row_labels, m.rows):
        line = bytearray(zeros)
        for j in row:
            line[j] = 49  # ord("1")
        yield f"row {label}: {line.decode()}\n"
