from __future__ import annotations

import copy
import pickle
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import terrainguard.solver as solver_module
from terrainguard import (
    COORD_LIMIT,
    CoverMatrix,
    EmptyRow,
    GenSpec,
    GuardSolution,
    InfeasibilityReport,
    NotGreedyForm,
    Terrain,
    TooManyColumns,
    VertexClass,
    brute_force_optimum,
    build,
    find_greedy_form_violation,
    greedy_cover,
    random_terrain,
    sees,
    solve,
    validate,
    visibility_relation,
)
from terrainguard.visibility import target_rows
from tests.conftest import (
    ascending_staircase,
    comb_under_spike,
    convex_bowl,
    descending_staircase,
    gadgets_under_staircase,
    staircase_over_comb,
    terrains,
    tooth_wall_spike,
    valley_comb,
    walled,
)
from tests.oracles import (
    dense,
    matrix_from_entries,
    oracle_candidates,
    oracle_greedy_form_violation,
    oracle_min_cover,
    oracle_row_solve,
    oracle_solve,
    oracle_target_rows,
    oracle_unguardable,
)
from tests.test_covermatrix import matrices

# single unguardable step followed by a guardable valley
MIXED_FEASIBILITY = [(0, 0), (0, 10), (5, 10), (5, 4), (9, 4), (9, 12)]


class TestGreedyCover:
    def test_identity(self):
        m = matrix_from_entries([[1, 0], [0, 1]])
        assert greedy_cover(m) == {0, 1}

    def test_rightmost_column_wins(self):
        m = matrix_from_entries([[1, 1], [0, 1]])
        assert greedy_cover(m) == {1}

    def test_square_valley_matrix(self, square_valley):
        m = build(square_valley, visibility_relation(square_valley))
        cover = greedy_cover(m)
        assert {m.col_labels[j] for j in cover} == {0, 3}

    def test_empty_row_raises(self):
        with pytest.raises(EmptyRow) as exc:
            greedy_cover(matrix_from_entries([[1, 0], [0, 0]]))
        assert exc.value.row == 1

    def test_forbidden_pattern_raises(self):
        with pytest.raises(NotGreedyForm):
            greedy_cover(matrix_from_entries([[1, 1], [1, 0]]))

    def test_form_check_can_be_skipped(self):
        got = greedy_cover(matrix_from_entries([[1, 1], [1, 0]]), check_form=False)
        assert got == {1, 0}  # suboptimal on purpose: the matrix is not in form

    def test_matches_oracle_on_built_matrices(self, corpus):
        for t in corpus:
            m = build(t, visibility_relation(t))
            if not all(m.rows):
                continue
            cover = greedy_cover(m)
            assert all(cover.intersection(row) for row in m.rows)
            assert len(cover) == oracle_min_cover([list(r) for r in dense(m)])

    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_random_greedy_form_matrices(self, entries):
        if any(not any(row) for row in entries):
            return
        m = matrix_from_entries(entries)
        if find_greedy_form_violation(m) is not None:
            return
        assert len(greedy_cover(m)) == oracle_min_cover(entries)

    def test_chosen_column_dominates_smaller_alternatives(self, corpus):
        # whenever the greedy picks j2 for trigger row i, any j1 < j2 that
        # also covers row i covers a subset of the later rows j2 covers
        for t in corpus:
            m = build(t, visibility_relation(t))
            if not all(m.rows):
                continue
            chosen: set[int] = set()
            for i, row in enumerate(m.rows):
                if chosen.intersection(row):
                    continue
                j2 = row[-1]
                chosen.add(j2)
                for j1 in row[:-1]:
                    for later in m.rows[i + 1 :]:
                        if j1 in later:
                            assert j2 in later


class TestBruteForce:
    def test_identity_three(self):
        assert brute_force_optimum(matrix_from_entries([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == (
            3,
            (0, 1, 2),
        )

    def test_all_ones_needs_one(self):
        m = matrix_from_entries([[1] * 6 for _ in range(4)])
        assert brute_force_optimum(m) == (1, (0,))

    def test_three_cycle_needs_two(self):
        size, witness = brute_force_optimum(
            matrix_from_entries([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        )
        assert size == 2
        assert witness == (0, 1)  # lexicographically smallest of the optima

    def test_empty_row(self):
        with pytest.raises(EmptyRow):
            brute_force_optimum(matrix_from_entries([[0, 1], [0, 0]]))

    def test_column_limit(self):
        m = matrix_from_entries([[1] * 26])
        with pytest.raises(TooManyColumns):
            brute_force_optimum(m)


class TestSolve:
    def test_square_valley(self, square_valley):
        sol = solve(square_valley)
        assert isinstance(sol, GuardSolution)
        assert sol.guards == (0, 3)
        assert sol.size == 2
        assert sol.assignment == {1: 3, 2: 0}

    def test_assignment_is_read_only(self, square_valley):
        sol = solve(square_valley)
        with pytest.raises(TypeError):
            sol.assignment[1] = 0
        assert sol.assignment == {1: 3, 2: 0}

    def test_assignment_is_a_private_copy(self):
        given = {1: 3, 2: 0}
        sol = GuardSolution((0, 3), given)
        given[1] = 0
        del given[2]
        given[5] = 3
        assert sol.assignment == {1: 3, 2: 0}

    def test_guards_are_immutable(self):
        sol = GuardSolution([1, 2], {})
        assert sol.guards == (1, 2)
        with pytest.raises(AttributeError):
            sol.guards.append(9)

    def test_unguardable_is_immutable(self):
        rep = InfeasibilityReport([4])
        assert rep.unguardable == (4,)
        with pytest.raises(AttributeError):
            rep.unguardable.append(5)

    def test_results_pickle_deepcopy_and_hash(self, square_valley):
        # pickling is what lets a process pool hand results back from its workers
        t = validate(MIXED_FEASIBILITY)
        for res in (solve(square_valley), solve(t), solve(t, allow_partial=True)):
            for twin in (pickle.loads(pickle.dumps(res)), copy.deepcopy(res)):
                assert twin == res and hash(twin) == hash(res)
                sol = twin if isinstance(twin, GuardSolution) else twin.partial
                if sol is not None:
                    with pytest.raises(TypeError):
                        sol.assignment[3] = 0
        # == ignores the assignment's order, so the hash must too
        assert hash(GuardSolution((0, 3), {2: 0, 1: 3})) == hash(GuardSolution((0, 3), {1: 3, 2: 0}))

    def test_single_step_infeasible(self, single_step_up):
        rep = solve(single_step_up)
        assert isinstance(rep, InfeasibilityReport)
        assert rep.unguardable == (0,)
        assert rep.partial is None

    def test_blocked_ledge(self, blocked_ledge):
        sol = solve(blocked_ledge)
        assert sol.guards == (2, 5)
        assert sol.assignment == {1: 5, 3: 5, 4: 2}

    def test_partial_mode(self):
        t = validate(MIXED_FEASIBILITY)
        rep = solve(t, allow_partial=True)
        assert isinstance(rep, InfeasibilityReport)
        assert rep.unguardable == (0,)
        assert rep.partial is not None
        assert rep.partial.guards == (2, 5)
        assert rep.partial.assignment == {3: 5, 4: 2}

    def test_assignment_pairs_are_visible(self, corpus):
        for t in corpus:
            result = solve(t, allow_partial=True)
            sol = result if isinstance(result, GuardSolution) else result.partial
            guards = set(sol.guards)
            for target, guard in sol.assignment.items():
                assert guard in guards
                assert t.classes[target].is_convex
                assert t.classes[guard].is_reflex
                assert sees(t, guard, target)

    def test_unguardable_really_have_no_candidates(self, corpus):
        for t in corpus:
            result = solve(t)
            if isinstance(result, InfeasibilityReport):
                for c in result.unguardable:
                    assert oracle_candidates(t, c) == ()

    def test_matches_oracle_on_feasible_corpus(self, corpus):
        for t in corpus:
            m = build(t, visibility_relation(t))
            result = solve(t)
            if isinstance(result, InfeasibilityReport):
                with pytest.raises(EmptyRow):
                    brute_force_optimum(m)
            else:
                assert result.size == brute_force_optimum(m)[0]

    def test_three_valley_comb_matches_oracle(self):
        t = valley_comb(3, width=10, depth=10, gap=5)
        sol = solve(t)
        assert isinstance(sol, GuardSolution)
        m = build(t, visibility_relation(t))
        assert sol.size == brute_force_optimum(m)[0]

    def test_side_blocks_solve_independently(self, corpus):
        # the two class blocks share no visibility, so solving them apart
        # must reach the same total
        for t in corpus:
            result = solve(t)
            if not isinstance(result, GuardSolution):
                continue
            left = sum(1 for g in result.guards if t.classes[g] is VertexClass.LEFT_REFLEX)
            right = sum(1 for g in result.guards if t.classes[g] is VertexClass.RIGHT_REFLEX)
            assert left + right == result.size
            m = build(t, visibility_relation(t))
            rc_rows = [i for i, c in enumerate(m.row_labels) if c % 2 == 0]
            lc_rows = [i for i, c in enumerate(m.row_labels) if c % 2 == 1]
            total = 0
            for rows in (rc_rows, lc_rows):
                if rows:
                    sub = CoverMatrix(
                        tuple(m.rows[i] for i in rows),
                        tuple(m.row_labels[i] for i in rows),
                        m.col_labels,
                    )
                    total += len(greedy_cover(sub))
            assert total == result.size

    def test_deterministic(self, corpus):
        for t in corpus[:30]:
            assert repr(solve(t, allow_partial=True)) == repr(solve(t, allow_partial=True))


def _outcome(result):
    """Everything a result holds, the assignment's order included."""

    if isinstance(result, GuardSolution):
        return "solution", result.guards, list(result.assignment.items())
    return "report", result.unguardable, result.partial and _outcome(result.partial)


ADVERSARIES = [
    convex_bowl(12),
    tooth_wall_spike(6, 12),
    comb_under_spike(12),
    staircase_over_comb(12),
    ascending_staircase(40),
    descending_staircase(40),
]


class TestSolveAgainstMatrixPipeline:
    @pytest.mark.parametrize("allow_partial", [False, True])
    def test_corpus_and_adversaries(self, corpus, allow_partial):
        for t in corpus + ADVERSARIES:
            expected = oracle_solve(visibility_relation(t), allow_partial)
            assert _outcome(solve(t, allow_partial)) == _outcome(expected), (t.xs, t.ys)

    @given(terrains(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_terrains(self, t, allow_partial):
        expected = oracle_solve(visibility_relation(t), allow_partial)
        assert _outcome(solve(t, allow_partial)) == _outcome(expected)

    def test_builds_no_matrix(self, corpus, monkeypatch):
        # no CoverMatrix means neither visibility_relation nor the form check ran
        expected = [solve(t, allow_partial=True) for t in corpus + ADVERSARIES]

        def refuse(m):
            raise AssertionError("solve built a CoverMatrix")

        monkeypatch.setattr(CoverMatrix, "__post_init__", refuse)
        assert [solve(t, allow_partial=True) for t in corpus + ADVERSARIES] == expected


def _row_outcomes(t):
    """oracle_row_solve's outcome without and with allow_partial, from one
    call: without it, an infeasible terrain's report drops the partial cover."""

    full = oracle_row_solve(t, True)
    bare = full if isinstance(full, GuardSolution) else InfeasibilityReport(full.unguardable)
    return _outcome(bare), _outcome(full)


def _assert_fused_greedy_matches(t, expected=None):
    bare, full = expected or _row_outcomes(t)
    assert _outcome(solve(t, False)) == bare, (t.xs, t.ys)
    assert _outcome(solve(t, True)) == full, (t.xs, t.ys)


# -1 asks L after every walked row, 10**9 never: neither may change a result
LONG_ROWS = pytest.mark.parametrize("long_row", [solver_module._LONG_ROW, -1, 10**9])


@pytest.fixture(scope="module")
def row_solved(corpus, seeded_terrains):
    families = ADVERSARIES + [valley_comb(12, width=3, depth=7, gap=1), gadgets_under_staircase(30, 12)]
    return [(t, _row_outcomes(t)) for t in corpus + families + seeded_terrains]


class TestFusedGreedy:
    """solve's own passes against oracle_row_solve, which walks every row of
    target_rows: the same result, the assignment in the same order."""

    @LONG_ROWS
    def test_corpus_families_and_seeded(self, row_solved, monkeypatch, long_row):
        monkeypatch.setattr(solver_module, "_LONG_ROW", long_row)
        for t, expected in row_solved:
            _assert_fused_greedy_matches(t, expected)

    def test_random_and_walled_at_40k(self):
        t = random_terrain(GenSpec(seed=4040, steps=20_000))
        for u in (t, walled(t)):
            _assert_fused_greedy_matches(u)

    @pytest.mark.parametrize(
        "t", [convex_bowl(2000), tooth_wall_spike(2000, 4000)], ids=["convex-bowl", "tooth-wall-spike"]
    )
    def test_where_walking_every_row_is_slow(self, t):
        _assert_fused_greedy_matches(t)


# module level, not in TestFusedGreedy: hypothesis fails its
# differing_executors health check on a @given method that a parametrize runs
# with a new self per parameter, unless its pytest plugin is loaded
@LONG_ROWS
@given(terrains())
@settings(max_examples=300, deadline=None)
def test_fused_greedy_on_random_terrains(long_row, t):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_LONG_ROW", long_row)
        _assert_fused_greedy_matches(t)


def solve_lines(t) -> int:
    """Line events while solve(t, True) runs, in every frame: a
    deterministic measure of its work."""

    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return count_lines

    previous = sys.gettrace()
    sys.settrace(count_lines)
    try:
        solve(t, True)
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize(
    "t",
    [convex_bowl(300), tooth_wall_spike(100, 700), gadgets_under_staircase(400, 50)],
    ids=["convex-bowl", "tooth-wall-spike", "gadgets-under-staircase"],
)
def test_solve_work_is_linear(t):
    # walking every row costs Theta(pairs) on the bowl (k(k + 1) pairs) and
    # Theta(m * ascent) hops on the teeth; asking L first needs neither.  The
    # gadgets pop their chosen guard over a stack of d unchosen ones, which a
    # search for the next L would scan every time (in C, so line events
    # miss it: test_acceptance times it)
    assert solve_lines(t) <= 40 * t.n


def forged_chain(xs, ys) -> Terrain:
    """A Terrain built without validation, its vertices classed by Terrain's
    rule: reflex exactly at the top of a vertical edge.

    Its "horizontal" edges may slope, which breaks the greedy form that the
    sweep's rows of a real terrain always have.
    """

    t = object.__new__(Terrain)
    object.__setattr__(t, "xs", tuple(xs))
    object.__setattr__(t, "ys", tuple(ys))
    by_parity = (
        (VertexClass.RIGHT_CONVEX, VertexClass.RIGHT_REFLEX),
        (VertexClass.LEFT_CONVEX, VertexClass.LEFT_REFLEX),
    )
    object.__setattr__(t, "classes", tuple(by_parity[i % 2][y > ys[i ^ 1]] for i, y in enumerate(ys)))
    return t


# target 3 forces guard 7 with guard 5 in its row; target 1 then sees 5 alone
PATTERN_CHAIN = ((-5, -5, -2, -2, 3, 3, 5, 5), (3, 0, 6, 2, 0, 4, 3, 5))


class TestCertificate:
    """solve checks that its forcing rows pack; chains with sloped edges,
    which no valid terrain has, break the packing."""

    @staticmethod
    def _violation(t, allow_partial=False):
        with pytest.raises(NotGreedyForm) as exc:
            solve(t, allow_partial)
        with pytest.raises(NotGreedyForm) as expected:
            oracle_row_solve(t, allow_partial)
        assert exc.value.violation == expected.value.violation
        return exc.value.violation

    def test_forbidden_pattern_breaks_the_packing(self):
        t = forged_chain(*PATTERN_CHAIN)
        v = self._violation(t)
        assert v.i1 < v.i2 and v.j1 < v.j2
        entries = dense(visibility_relation(t))
        named = [[entries[i][j] for j in (v.j1, v.j2)] for i in (v.i1, v.i2)]
        assert oracle_greedy_form_violation(named) == (0, 1, 0, 1)

    @pytest.mark.parametrize("allow_partial", [False, True])
    def test_unguardable_target_ahead_of_the_pattern(self, allow_partial):
        # a step up in front adds an unguardable first row; the rows after it
        # are still checked, with or without allow_partial
        xs, ys = PATTERN_CHAIN
        t = forged_chain((-7, -7, *xs), (-1, 3, *ys))
        assert list(target_rows(t))[0] == (0, ())
        assert self._violation(t, allow_partial) == (3, 4, 3, 4)

    def test_pattern_free_rows_solve(self):
        t = forged_chain((0, 0, 4, 4, 6, 6, 8, 8), (6, 0, 1, 2, 0, 4, 0, 4))
        assert oracle_greedy_form_violation(dense(visibility_relation(t))) is None
        expected = ("solution", (0, 5), [(1, 5), (2, 0), (4, 0), (6, 0)])
        assert _outcome(solve(t)) == _outcome(oracle_row_solve(t)) == expected


def mirror(t: Terrain) -> Terrain:
    """t reflected in the y axis with its chain reversed: vertex i becomes
    n - 1 - i, and the left and right sides trade places."""

    return Terrain([-x for x in reversed(t.xs)], t.ys[::-1])


def axis_map(t: Terrain, rng: random.Random) -> Terrain:
    """t under x -> ax + b and y -> cy + d, with a, c > 0 and b, d drawn from
    rng so that every coordinate stays inside COORD_LIMIT."""

    half = COORD_LIMIT // 2
    a = rng.randint(1, half // (max(map(abs, t.xs)) + 1))
    c = rng.randint(1, half // (max(map(abs, t.ys)) + 1))
    b, d = rng.randint(-half, half), rng.randint(-half, half)
    return Terrain([a * x + b for x in t.xs], [c * y + d for y in t.ys])


def _answer(result):
    """Guards, assigned pairs and unguardable targets of solve(t, True)."""

    sol = result if isinstance(result, GuardSolution) else result.partial
    unguardable = () if isinstance(result, GuardSolution) else result.unguardable
    return set(sol.guards), set(sol.assignment.items()), set(unguardable)


def _mirrored(answer, n):
    guards, pairs, unguardable = answer
    return (
        {n - 1 - g for g in guards},
        {(n - 1 - c, n - 1 - g) for c, g in pairs},
        {n - 1 - c for c in unguardable},
    )


@pytest.fixture(scope="module")
def solved_200k(random_200k):
    return random_200k, solve(random_200k, True)


class TestMetamorphic:
    """Both maps keep the sign of every visibility determinant, so they leave
    the answer unchanged up to renaming the vertices."""

    def test_mirror(self, corpus, seeded_terrains):
        for t in corpus + ADVERSARIES + seeded_terrains:
            expected = _mirrored(_answer(solve(t, True)), t.n)
            assert _answer(solve(mirror(t), True)) == expected, (t.xs, t.ys)

    def test_axis_maps(self, corpus, seeded_terrains):
        rng = random.Random(5150)
        for t in corpus + ADVERSARIES + seeded_terrains:
            expected = _outcome(solve(t, True))
            assert _outcome(solve(axis_map(t, rng), True)) == expected, (t.xs, t.ys)

    def test_both_at_200k(self, solved_200k):
        t, result = solved_200k
        assert _answer(solve(mirror(t), True)) == _mirrored(_answer(result), t.n)
        assert _outcome(solve(axis_map(t, random.Random(2)), True)) == _outcome(result)


def _unguardable(result):
    return [] if isinstance(result, GuardSolution) else list(result.unguardable)


class TestFeasibilityRule:
    """solve's unguardable targets against oracle_unguardable's O(n) rule."""

    def test_corpus_adversaries_and_seeded(self, corpus, seeded_terrains):
        for t in corpus + ADVERSARIES + seeded_terrains:
            assert _unguardable(solve(t, True)) == oracle_unguardable(t), (t.xs, t.ys)

    @given(terrains())
    @settings(max_examples=300, deadline=None)
    def test_random_terrains(self, t):
        assert _unguardable(solve(t, True)) == oracle_unguardable(t)

    def test_at_200k(self, solved_200k):
        t, result = solved_200k
        assert result.unguardable and list(result.unguardable) == oracle_unguardable(t)


class TestWalledFamily:
    def test_every_member_is_feasible(self, corpus, seeded_terrains):
        for t in corpus + ADVERSARIES + seeded_terrains:
            w = walled(t)
            assert oracle_unguardable(w) == []
            assert isinstance(solve(w), GuardSolution), (t.xs, t.ys)

    @given(terrains(max_steps=10))
    @settings(max_examples=200, deadline=None)
    def test_optimum_matches_brute_force(self, t):
        w = walled(t)
        assert solve(w).size == brute_force_optimum(visibility_relation(w))[0]

    def test_matches_matrix_pipeline(self, corpus):
        for w in map(walled, corpus + ADVERSARIES):
            assert _outcome(solve(w)) == _outcome(oracle_solve(visibility_relation(w), False))

    def test_optimal_path_at_200k(self, random_200k):
        w = walled(random_200k)
        result = solve(w)
        assert isinstance(result, GuardSolution)
        assert set(result.assignment) == {c for c, cls in enumerate(w.classes) if cls.is_convex}
        assert all(w.classes[g].is_reflex for g in result.guards)
        assert set(result.assignment.values()) == set(result.guards)
        for c, g in random.Random(424242).sample(sorted(result.assignment.items()), 200):
            assert sees(w, g, c), (c, g)


class TestEagerRecordSweep:
    """target_rows against a second row algorithm, the eager record sweep
    (oracle_target_rows), at sizes candidate_guards cannot reach."""

    def test_corpus_adversaries_and_seeded(self, corpus, seeded_terrains):
        for t in corpus + ADVERSARIES + seeded_terrains:
            assert list(target_rows(t)) == oracle_target_rows(t), (t.xs, t.ys)

    @pytest.mark.parametrize(
        "t",
        [
            tooth_wall_spike(100, 700),
            comb_under_spike(300),
            staircase_over_comb(300),
            convex_bowl(300),
            valley_comb(50, width=3, depth=7, gap=1),
        ],
        ids=["tooth-wall-spike", "comb-under-spike", "staircase-over-comb", "convex-bowl", "valley-comb"],
    )
    def test_larger_adversaries(self, t):
        assert list(target_rows(t)) == oracle_target_rows(t)

    def test_random_and_walled_at_40k(self):
        t = random_terrain(GenSpec(seed=4040, steps=20_000))
        for u in (t, walled(t)):
            assert list(target_rows(u)) == oracle_target_rows(u)
