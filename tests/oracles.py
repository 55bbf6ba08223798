"""Independent reference implementations the library is tested against.

Everything here deliberately avoids the formulations used by the package:
visibility is decided by evaluating the terrain's height profile with exact
rationals instead of chain-order orientation tests, classification by probing
which quadrants around a vertex lie above the terrain, covers by exhaustive
subset search over dense matrices, the forbidden-pattern check by the
literal four-index loop, and total balance by enumerating square submatrices.
``matrix_from_entries`` builds a CoverMatrix from such a dense list.
``oracle_rows`` rebuilds the permuted cover matrix's rows from the quadrant
classification, coordinate sorts and the pairwise candidate_guards.
``oracle_vertex_line`` reads one line of the terrain format with str methods
instead of the parser's regular expression.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from terrainguard import CoverMatrix, Terrain, candidate_guards


def terrain_height(t: Terrain, x: Fraction) -> Fraction:
    """Upper height of the terrain (rays included) at abscissa x.

    At a vertical edge this is the top endpoint; between vertical edges it
    is the height of the horizontal edge covering x.
    """

    xs, ys = t.xs, t.ys
    if x < xs[0]:
        return Fraction(ys[0])
    if x > xs[-1]:
        return Fraction(ys[-1])
    best = None
    for i in range(len(xs) - 1):
        x1, x2 = xs[i], xs[i + 1]
        if min(x1, x2) <= x <= max(x1, x2):
            h = max(ys[i], ys[i + 1]) if x1 == x2 else Fraction(ys[i])
            best = h if best is None else max(best, h)
    assert best is not None
    return Fraction(best)


def oracle_sees(t: Terrain, a: int, b: int) -> bool:
    """Strict-above visibility via the rational height profile.

    The open segment must satisfy y > height(x) everywhere.  Both sides are
    piecewise linear with breakpoints at vertex abscissas, so it suffices to
    check strictly interior breakpoints plus, per maximal flat piece, the
    endpoints non-strictly and the midpoint strictly.
    """

    if a == b:
        raise ValueError("distinct vertices required")
    xa, ya = t.xs[a], t.ys[a]
    xb, yb = t.xs[b], t.ys[b]
    if xa == xb:
        return False
    (xl, yl), (xr, yr) = sorted([(xa, ya), (xb, yb)])

    def seg_y(x: Fraction) -> Fraction:
        return Fraction(yl) + Fraction(yr - yl) * (x - xl) / (xr - xl)

    breaks = sorted({x for x in t.xs if xl < x < xr})
    for x in breaks:
        if seg_y(Fraction(x)) <= terrain_height(t, Fraction(x)):
            return False
    stops = [Fraction(xl)] + [Fraction(x) for x in breaks] + [Fraction(xr)]
    for lo, hi in zip(stops, stops[1:]):
        mid = (lo + hi) / 2
        h = terrain_height(t, mid)
        if seg_y(mid) <= h:
            return False
        if seg_y(lo) < h or seg_y(hi) < h:
            return False
    return True


def oracle_candidates(t: Terrain, c: int) -> tuple[int, ...]:
    """Unpruned candidate set: every reflex vertex that oracle-sees c."""

    return tuple(
        r for r, cls in enumerate(t.classes) if cls.is_reflex and oracle_sees(t, r, c)
    )


def oracle_class(t: Terrain, i: int) -> str:
    """Two-letter class code from first principles.

    Side: a vertex is the right endpoint of its horizontal edge (ray
    included) iff the terrain just left of it sits at the vertex's height.
    Convexity: count which of the four half-unit probes around the vertex
    lie strictly above the terrain; one quadrant above means convex, three
    mean reflex.
    """

    x, y = Fraction(t.xs[i]), Fraction(t.ys[i])
    half = Fraction(1, 2)
    side = "R" if terrain_height(t, x - half) == y else "L"
    above = 0
    for dx in (-half, half):
        for dy in (-half, half):
            if y + dy > terrain_height(t, x + dx):
                above += 1
    assert above in (1, 3), f"vertex {i}: {above} probe quadrants above"
    return ("L" if side == "L" else "R") + ("C" if above == 1 else "R")


def oracle_rows(t: Terrain) -> tuple[tuple[int, ...], ...]:
    """Rows of the permuted cover matrix without the visibility sweep.

    Rows are right-convex vertices by increasing x, then left-convex ones by
    decreasing x; columns are right-reflex vertices by decreasing x, then
    left-reflex ones by increasing x.  Each row lists, in increasing column
    order, the columns of the reflex vertices that candidate_guards (the
    pairwise visibility test) reports for its target.
    """

    codes = [oracle_class(t, i) for i in range(t.n)]

    def by_x(code: str, descending: bool) -> list[int]:
        found = [i for i, c in enumerate(codes) if c == code]
        return sorted(found, key=lambda i: -t.xs[i] if descending else t.xs[i])

    targets = by_x("RC", False) + by_x("LC", True)
    column = {g: j for j, g in enumerate(by_x("RR", True) + by_x("LR", False))}
    return tuple(tuple(sorted(column[g] for g in candidate_guards(t, c))) for c in targets)


def oracle_min_cover(entries: list[list[int]]) -> int | None:
    """Minimum cover size of a dense 0/1 matrix, None when infeasible."""

    k = len(entries)
    if k == 0:
        return 0
    kp = len(entries[0])
    if any(not any(row) for row in entries):
        return None
    for size in range(1, kp + 1):
        for cols in combinations(range(kp), size):
            if all(any(row[j] for j in cols) for row in entries):
                return size
    return None


def oracle_greedy_form_violation(entries: list[list[int]]):
    """Literal quadruple loop over the forbidden pattern; None when clean."""

    k = len(entries)
    kp = len(entries[0]) if k else 0
    for i1 in range(k):
        for i2 in range(i1 + 1, k):
            for j1 in range(kp):
                for j2 in range(j1 + 1, kp):
                    if (
                        entries[i1][j1] == 1
                        and entries[i1][j2] == 1
                        and entries[i2][j1] == 1
                        and entries[i2][j2] == 0
                    ):
                        return (i1, i2, j1, j2)
    return None


def oracle_totally_balanced(entries: list[list[int]]) -> bool:
    """Exponential check that no square submatrix is a cycle incidence
    pattern: every row and column sum equal to 2 with no repeated columns.
    Desk-scale only; guarded to min(k, k') <= 8.

    The repeated-column exclusion matters: without it the all-ones 2x2
    (two guards seeing the same two targets, which real terrains produce
    all the time) would count as a violation, yet such a matrix is still
    coverable greedily and is totally balanced under the definition the
    greedy-form equivalence theorem actually relies on.
    """

    k = len(entries)
    kp = len(entries[0]) if k else 0
    if min(k, kp) > 8:
        raise ValueError(f"brute-force balance check limited to min(k, k') <= 8, got {min(k, kp)}")
    # size 2 can never qualify: row and column sums of 2 force the all-ones
    # 2x2, whose columns are identical
    for s in range(3, min(k, kp) + 1):
        for rows in combinations(range(k), s):
            profiles = {
                j: tuple(entries[i][j] for i in rows)
                for j in range(kp)
                if sum(entries[i][j] for i in rows) == 2
            }
            if len(profiles) < s:
                continue
            for cols in combinations(sorted(profiles), s):
                if len({profiles[j] for j in cols}) != s:
                    continue
                if all(sum(profiles[j][r] for j in cols) == 2 for r in range(s)):
                    return False
    return True


def matrix_from_entries(entries: Sequence[Sequence[int]]) -> CoverMatrix:
    """CoverMatrix from a dense 0/1 list of lists; labels are the positions."""

    width = len(entries[0]) if entries else 0
    if any(len(row) != width for row in entries):
        raise ValueError("ragged matrix")
    if any(v not in (0, 1) for row in entries for v in row):
        raise ValueError("entries must be 0 or 1")
    rows = tuple(tuple(j for j, v in enumerate(row) if v) for row in entries)
    return CoverMatrix(rows, tuple(range(len(entries))), tuple(range(width)))


def oracle_vertex_line(s: str) -> tuple[int, int] | None:
    """``(x, y)`` when s is a vertex line of the terrain format, else None.

    The line is two integers, each an optional '+' or '-' and one or more
    ASCII digits, with ASCII spaces or tabs around and between them and
    nothing else.  Only text checked to be such an integer reaches int().
    """

    values = [v for v in s.replace("\t", " ").split(" ") if v]
    if len(values) != 2:
        return None
    for v in values:
        digits = v[1:] if v[0] in "+-" else v
        if not digits or any(ch not in "0123456789" for ch in digits):
            return None
    return int(values[0]), int(values[1])
