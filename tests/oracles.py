"""Independent reference implementations the library is tested against.

Everything here deliberately avoids the formulations used by the package:
visibility is decided by evaluating the terrain's height profile with exact
rationals instead of chain-order orientation tests, classification by probing
which quadrants around a vertex lie above the terrain, covers by exhaustive
subset search over dense matrices, the forbidden-pattern check by the
literal four-index loop, and total balance by enumerating square submatrices.
``matrix_from_entries`` builds a CoverMatrix from such a dense list, and
``dense`` turns a CoverMatrix back into one.
``oracle_solve`` solves from a built matrix: the form check, then a greedy
that looks up each row's earliest chosen column in the list of choices.
``oracle_row_solve`` is solve as it stood when it walked every row of
target_rows, kept verbatim as the reference for solve's own passes.
``oracle_rows`` rebuilds the permuted cover matrix's rows from the quadrant
classification, coordinate sorts and the pairwise candidate_guards.
``oracle_unguardable`` decides feasibility from prefix and suffix maxima of
the heights alone, with no visibility test.  ``oracle_target_rows`` is a
second row algorithm, the eager record sweep: it jumps from guard to guard
through records built when each guard is pushed, where the sweep walks the
stack from each target.  ``oracle_sweep_rows`` is the sweep with its walk as
it stood when the early-stop test ran ahead of the visibility test.
``oracle_random_terrain`` is the per-step generator loop, one next() per
draw, as it stood before random_terrain took its draws in batches.
``oracle_vertex_line`` reads one line of the terrain format with str methods
instead of the parser's regular expression.  ``oracle_parse`` and
``oracle_check_invariants`` are the per-line reader and the per-vertex
invariant loop as they stood before parse and Terrain took their bulk paths,
kept verbatim so that every outcome of the bulk paths can be compared with
theirs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Iterator, Sequence

from terrainguard import (
    COORD_LIMIT,
    CoordinateOutOfRange,
    CoverMatrix,
    DiagonalEdge,
    GenSpec,
    GuardSolution,
    InfeasibilityReport,
    NonAlternatingEdges,
    NotGreedyForm,
    NotMonotone,
    OddVertexCount,
    ParseError,
    SplitMix64,
    Terrain,
    TooFewVertices,
    ValidationError,
    VertexClass,
    ZeroLengthEdge,
    candidate_guards,
    find_greedy_form_violation,
)
from terrainguard.covermatrix import Violation, _columns
from terrainguard.terrain_io import INTEGER
from terrainguard.visibility import target_rows


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


def oracle_solve(m: CoverMatrix, allow_partial: bool) -> GuardSolution | InfeasibilityReport:
    """solve's result from the terrain's built cover matrix.

    Unguardable rows first: without ``allow_partial`` they end the solve.
    Then find_greedy_form_violation, the greedy scan in row order (a row no
    chosen column covers picks its last column, and each row is assigned
    the earliest chosen column it holds) and the assignment sorted into
    chain order.
    """

    unguardable = sorted(c for c, row in zip(m.row_labels, m.rows) if not row)
    if unguardable and not allow_partial:
        return InfeasibilityReport(unguardable)
    violation = find_greedy_form_violation(m)
    if violation is not None:
        raise NotGreedyForm(violation)
    chosen: list[int] = []
    first_cover = {}
    for c, row in zip(m.row_labels, m.rows):
        if row:
            covering = [j for j in chosen if j in row] or [row[-1]]
            if covering[0] not in chosen:
                chosen.append(covering[0])
            first_cover[c] = m.col_labels[covering[0]]
    solution = GuardSolution(sorted(m.col_labels[j] for j in chosen), sorted(first_cover.items()))
    return InfeasibilityReport(unguardable, solution) if unguardable else solution


def oracle_row_solve(t: Terrain, allow_partial: bool = False) -> GuardSolution | InfeasibilityReport:
    """solve as it stood when it ran the greedy and the packing check on
    target_rows' rows as they came, every row walked in full.

    The loop is kept verbatim, so results, the assignment's order and the
    NotGreedyForm it names can be compared with solve's.
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


def matrix_from_entries(entries: Sequence[Sequence[int]]) -> CoverMatrix:
    """CoverMatrix from a dense 0/1 list of lists; labels are the positions."""

    width = len(entries[0]) if entries else 0
    if any(len(row) != width for row in entries):
        raise ValueError("ragged matrix")
    if any(v not in (0, 1) for row in entries for v in row):
        raise ValueError("entries must be 0 or 1")
    rows = tuple(tuple(j for j, v in enumerate(row) if v) for row in entries)
    return CoverMatrix(rows, tuple(range(len(entries))), tuple(range(width)))


def dense(m: CoverMatrix) -> tuple[tuple[int, ...], ...]:
    """The dense 0/1 rows of a CoverMatrix, one int per column."""

    return tuple(tuple(int(j in row) for j in range(m.k_prime)) for row in m.rows)


def oracle_unguardable(t: Terrain) -> list[int]:
    """The convex vertices no reflex vertex sees, in chain order, in O(n).

    A right-convex target looks left and a left-convex one right; it is
    unguardable exactly when no vertex behind it, on that side, is strictly
    higher.  Proof, from the sweep: the stack at a target is the chain of
    strictly higher vertices behind it, and its top entry is always visible,
    so the target's row is empty exactly when the stack is.
    """

    ys, low = t.ys, min(t.ys)  # low is never strictly higher than a target
    # per class, the highest height behind each vertex c: max(ys[:c]) for a
    # target that looks left, max(ys[c + 1:]) for one that looks right
    behind = {
        VertexClass.RIGHT_CONVEX: list(accumulate(ys, max, initial=low)),
        VertexClass.LEFT_CONVEX: list(accumulate(reversed(ys), max, initial=low))[-2::-1],
    }
    return [c for c, cls in enumerate(t.classes) if cls in behind and behind[cls][c] <= ys[c]]


def oracle_target_rows(t: Terrain) -> list[tuple[int, tuple[int, ...]]]:
    """target_rows' output, in its order, by the eager record sweep.

    The stack is the sweep's: per side, the pushed guards strictly higher
    than every vertex after them.  The stack below a guard g is g's own chain
    when g is pushed, and stays so while g is on it, so g's *records*, the
    entries below it that it sees, nearest first, are built once, at the
    push: each entry strictly above the line from g through the previous
    record (the first is higher than g, so g sees it over its own horizontal
    edge).  A target sees the top entry; after a guard g it sees the first of
    g's records strictly above the line from the target through g, and after
    the last such record nothing more.
    """

    xs, ys = t.xs, t.ys
    n = len(ys)

    def above(v: int, g: int, r: int) -> bool:
        # r strictly above the line from v through g; g and r lie behind v
        gx, gy = abs(xs[g] - xs[v]), ys[g] - ys[v]
        rx, ry = abs(xs[r] - xs[v]), ys[r] - ys[v]
        return gx * ry - gy * rx > 0

    out = []
    for order in (range(0, n, 2), range(n - 1, 0, -2)):
        stack: list[int] = []
        records: dict[int, list[int]] = {}
        for v in order:
            while stack and ys[stack[-1]] <= ys[v]:
                del records[stack.pop()]
            if ys[v] > ys[v ^ 1]:  # the top of its vertical edge: a guard
                found: list[int] = []
                for e in reversed(stack):
                    if not found or above(v, found[-1], e):
                        found.append(e)
                records[v] = found
                stack.append(v)
                continue
            row = stack[-1:]
            while row:
                g = row[-1]
                r = next((e for e in records[g] if above(v, g, e)), None)
                if r is None:
                    break
                row.append(r)
            out.append((v, tuple(row)))
    return out


def oracle_sweep_rows(t: Terrain) -> Iterator[tuple[int, tuple[int, ...]]]:
    """target_rows' output, in its order, by the sweep's walk as it stood
    when it ran the early-stop test ahead of the visibility test.

    The walk is kept verbatim, so it stops at the same entry as the sweep's
    and examines as many; a generator, like the sweep, so that a line tracer
    can count the walk's steps per target.
    """

    xs, ys = t.xs, t.ys
    n = len(ys)
    for order in (range(0, n, 2), range(n - 1, 0, -2)):
        stack: list[int] = []
        for v in order:
            x, y = xs[v], ys[v]
            while stack and ys[stack[-1]] <= y:
                stack.pop()
            if y > ys[v ^ 1]:  # the top of its vertical edge: a guard
                stack.append(v)
                continue
            top = ys[stack[0]] - y if stack else 0
            ux, uy = 1, 0
            row = []
            for g in reversed(stack):
                wx = abs(xs[g] - x)
                # best remaining slope is top / wx; once it cannot beat uy / ux the
                # walk is done (both denominators positive)
                if top * ux <= uy * wx:
                    break
                wy = ys[g] - y
                if ux * wy - uy * wx > 0:
                    row.append(g)
                    ux, uy = wx, wy
            yield v, tuple(row)


def oracle_random_terrain(spec: GenSpec) -> Terrain:
    """random_terrain by its draw order, one next() per draw."""

    rng = SplitMix64(spec.seed)
    x = y = 0
    xs, ys = [0], [0]
    for s in range(spec.steps):
        magnitude = 1 + rng.next() % spec.max_rise
        y += -magnitude if rng.next() & 1 else magnitude
        xs.append(x)
        ys.append(y)
        if s < spec.steps - 1:
            x += 1 + rng.next() % spec.max_run
            xs.append(x)
            ys.append(y)
    return Terrain(xs, ys)


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


_HEADER = re.compile(rf"[ \t]*({INTEGER})[ \t]*")
_VERTEX_LINE = re.compile(rf"[ \t]*({INTEGER})[ \t]+({INTEGER})[ \t]*")


def _lines(text: str) -> list[str]:
    # str.splitlines() also breaks at \v, \f, \x1c-\x1e, \x85, \u2028 and \u2029
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def oracle_parse(text: str) -> Terrain:
    """Read the terrain format; raises ParseError or a ValidationError."""

    lines = _lines(text)
    # a line that starts with a value needs no lstrip; that is most lines
    numbered = [
        (ln, s)
        for ln, s in enumerate(lines, start=1)
        if s[:1] not in " \t#" or s.lstrip(" \t")[:1] not in ("", "#")
    ]
    if not numbered:
        raise ParseError(1, "missing vertex count header")
    header_line, header = numbered[0]
    m = _HEADER.fullmatch(header)
    if m is None:
        raise ParseError(header_line, f"vertex count expected, got {header!r}")
    # int() refuses more digits than sys.get_int_max_str_digits(), here and below
    try:
        n = int(m[1])
    except ValueError as exc:
        raise ParseError(header_line, str(exc)) from None
    if n < 0:
        raise ParseError(header_line, f"vertex count must be non-negative, got {n}")
    body = numbered[1:]
    xs: list[int] = []
    ys: list[int] = []
    for ln, s in body[:n]:
        m = _VERTEX_LINE.fullmatch(s)
        if m is None:
            raise ParseError(ln, f"expected 'x y', two integers separated by spaces or tabs, got {s!r}")
        try:
            xs.append(int(m[1]))
            ys.append(int(m[2]))
        except ValueError as exc:
            raise ParseError(ln, str(exc)) from None
    if len(xs) < n:
        raise ParseError(len(lines) + 1, f"expected {n} vertices, file ends after {len(xs)}")
    if len(body) > n:
        ln, s = body[n]
        raise ParseError(ln, f"unexpected content after {n} vertices: {s.strip()!r}")
    return Terrain(xs, ys)


def oracle_check_invariants(xs: tuple[int, ...], ys: tuple[int, ...]) -> None:
    n = len(xs)
    if len(ys) != n:
        msg = f"{n} x coordinates but {len(ys)} y coordinates"
        raise ValidationError(msg, index=min(n, len(ys)))
    if n < 2:
        raise TooFewVertices(f"terrain needs at least 2 vertices, got {n}")
    if n % 2:
        raise OddVertexCount(f"vertex count must be even, got {n}")
    for i, (x, y) in enumerate(zip(xs, ys)):
        if type(x) is not int or type(y) is not int:
            raise ValidationError(f"vertex {i} at ({x!r}, {y!r}) must have int coordinates", index=i)
        if abs(x) > COORD_LIMIT or abs(y) > COORD_LIMIT:
            raise CoordinateOutOfRange(f"vertex {i} at ({x}, {y}) exceeds |coord| <= 2^30", index=i)
    for i in range(n - 1):
        dx, dy = xs[i + 1] - xs[i], ys[i + 1] - ys[i]
        if dx == 0 and dy == 0:
            raise ZeroLengthEdge(f"edge {i} -> {i + 1} has zero length", index=i)
        if dx != 0 and dy != 0:
            raise DiagonalEdge(f"edge {i} -> {i + 1} is neither horizontal nor vertical", index=i)
        # vertical edges sit at even edge positions: the chain opens and
        # closes on a vertical edge, horizontals fill the odd slots
        if i % 2 == 0:
            if dx != 0:
                raise NonAlternatingEdges(f"edge {i} -> {i + 1} must be vertical", index=i)
        else:
            if dy != 0:
                raise NonAlternatingEdges(f"edge {i} -> {i + 1} must be horizontal", index=i)
            if dx < 0:
                raise NotMonotone(f"horizontal edge {i} -> {i + 1} must go rightward", index=i)
