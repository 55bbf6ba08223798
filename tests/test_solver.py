from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terrainguard import (
    CoverMatrix,
    EmptyRow,
    GuardSolution,
    InfeasibilityReport,
    NotGreedyForm,
    TooManyColumns,
    VertexClass,
    brute_force_optimum,
    build,
    find_greedy_form_violation,
    greedy_cover,
    sees,
    solve,
    validate,
    visibility_relation,
)
from tests.oracles import matrix_from_entries, oracle_candidates, oracle_min_cover
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
            assert len(cover) == oracle_min_cover([list(r) for r in m.entries])

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
        from terrainguard import valley_comb

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
