from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terrainguard import (
    CoverMatrix,
    VertexClass,
    Violation,
    build,
    candidate_guards,
    convex_indices,
    find_greedy_form_violation,
    format_matrix,
    visibility_relation,
)
from tests.conftest import (
    ascending_staircase,
    comb_under_spike,
    convex_bowl,
    descending_staircase,
    staircase_over_comb,
    terrains,
    tooth_wall_spike,
    valley_comb,
)
from tests.oracles import (
    dense,
    matrix_from_entries,
    oracle_greedy_form_violation,
    oracle_rows,
    oracle_totally_balanced,
)

FORBIDDEN = [[1, 1], [1, 0]]
CLEAN = [[1, 1], [0, 1]]
THREE_CYCLE = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]


def matrices(max_dim: int = 6):
    return st.integers(1, max_dim).flatmap(
        lambda k: st.integers(1, max_dim).flatmap(
            lambda kp: st.lists(
                st.lists(st.integers(0, 1), min_size=kp, max_size=kp),
                min_size=k,
                max_size=k,
            )
        )
    )


class TestBuild:
    def test_matrix_is_immutable(self):
        m = CoverMatrix([(0,)], [0], [1])
        assert (m.rows, m.row_labels, m.col_labels) == (((0,),), (0,), (1,))
        with pytest.raises(AttributeError):
            m.rows.append((0,))
        assert m.k == 1

    def test_every_row_is_a_tuple(self):
        rows = [[0, 1]]
        m = CoverMatrix(rows, [0], [5, 6])
        assert m.rows == ((0, 1),) and type(m.rows[0]) is tuple
        with pytest.raises(AttributeError):
            m.rows[0].append(1)
        rows[0].append(1)
        assert m.rows == ((0, 1),)

    @pytest.mark.parametrize(
        "rows, row_labels",
        [([(0,), (0,)], [7]), ([(0,)], [7, 8, 9])],
        ids=["too-few-labels", "too-many-labels"],
    )
    def test_rejects_row_labels_that_do_not_match_the_rows(self, rows, row_labels):
        with pytest.raises(ValueError, match="row labels"):
            CoverMatrix(rows, row_labels, [5])

    @pytest.mark.parametrize(
        "row_labels, col_labels, name",
        [
            ([True, 2], [5], "row_labels"),
            ([0, "x"], [5], "row_labels"),
            ([0, 0], [5], "row_labels"),
            ([0, 2], [5.5], "col_labels"),
            ([0, 2], [7, 7], "col_labels"),
        ],
        ids=["bool-row", "str-row", "repeated-row", "float-col", "repeated-col"],
    )
    def test_rejects_labels_that_are_not_distinct_ints(self, row_labels, col_labels, name):
        with pytest.raises(ValueError, match=f"{name} must be distinct ints"):
            CoverMatrix([(0,), (0,)], row_labels, col_labels)

    def test_square_valley_matrix(self, square_valley):
        m = build(square_valley, visibility_relation(square_valley))
        assert m.row_labels == (2, 1)
        assert m.col_labels == (0, 3)
        assert dense(m) == ((1, 0), (0, 1))

    def test_all_zero_when_nothing_is_seen(self, single_step_up):
        m = build(single_step_up, visibility_relation(single_step_up))
        assert m.k == 1 and m.k_prime == 1
        assert dense(m) == ((0,),)

    def test_row_and_column_permutation(self, corpus):
        for t in corpus:
            m = build(t, visibility_relation(t))
            k = t.n // 2
            assert sorted(m.row_labels) == sorted(
                i for i, c in enumerate(t.classes) if c.is_convex
            )
            assert sorted(m.col_labels) == sorted(
                i for i, c in enumerate(t.classes) if c.is_reflex
            )
            rc = [i for i in m.row_labels if t.classes[i] is VertexClass.RIGHT_CONVEX]
            lc = [i for i in m.row_labels if t.classes[i] is VertexClass.LEFT_CONVEX]
            assert m.row_labels == tuple(rc + lc)
            assert [t.xs[i] for i in rc] == sorted(t.xs[i] for i in rc)
            assert [t.xs[i] for i in lc] == sorted((t.xs[i] for i in lc), reverse=True)
            rr = [j for j in m.col_labels if t.classes[j] is VertexClass.RIGHT_REFLEX]
            lr = [j for j in m.col_labels if t.classes[j] is VertexClass.LEFT_REFLEX]
            assert m.col_labels == tuple(rr + lr)
            assert [t.xs[j] for j in rr] == sorted((t.xs[j] for j in rr), reverse=True)
            assert [t.xs[j] for j in lr] == sorted(t.xs[j] for j in lr)
            assert m.k == k and m.k_prime == k

    def test_cross_side_blocks_are_zero(self, corpus):
        for t in corpus + [valley_comb(2, width=6, depth=8, gap=3)]:
            m = build(t, visibility_relation(t))
            for i, c in enumerate(m.row_labels):
                for j, g in enumerate(m.col_labels):
                    if c % 2 != g % 2:
                        assert j not in m.rows[i]

    def test_entries_match_relation(self, corpus):
        for t in corpus:
            rel = visibility_relation(t)
            m = build(t, rel)
            pairs = {
                (m.col_labels[j], m.row_labels[i])
                for i in range(m.k)
                for j in range(m.k_prime)
                if j in m.rows[i]
            }
            assert pairs == set(rel.pairs)

    def test_rows_match_oracle_on_corpus(self, corpus):
        for t in corpus:
            assert build(t, visibility_relation(t)).rows == oracle_rows(t), (t.xs, t.ys)

    def test_relation_holds_the_matrix_and_its_views_match_the_oracles(self, corpus):
        for t in corpus:
            rel = visibility_relation(t)
            assert build(t, rel) is rel and rel.rows == oracle_rows(t), (t.xs, t.ys)
            seen_by = {c: candidate_guards(t, c) for c in convex_indices(t)}
            for c, row in zip(rel.row_labels, rel.rows):
                guards = sorted(rel.col_labels[j] for j in row)
                assert guards == list(seen_by[c]), ((t.xs, t.ys), c)
            assert sorted(rel.row_labels) == sorted(seen_by)
            pairs = sorted(((g, c) for c, gs in seen_by.items() for g in gs), key=lambda p: p[::-1])
            assert rel.pairs == tuple(pairs)

    @pytest.mark.parametrize(
        "t",
        [
            ascending_staircase(40),
            tooth_wall_spike(6, 12),
            descending_staircase(40),
            valley_comb(12),
            convex_bowl(12),
            comb_under_spike(12),
            staircase_over_comb(12),
        ],
        ids=[
            "ascending-staircase",
            "tooth-wall-spike",
            "descending-staircase",
            "valley-comb",
            "convex-bowl",
            "comb-under-spike",
            "staircase-over-comb",
        ],
    )
    def test_rows_match_oracle_on_adversaries(self, t):
        m = build(t, visibility_relation(t))
        assert m.rows == oracle_rows(t)
        # the paper's theorem, which solve relies on without checking it
        assert find_greedy_form_violation(m) is None


class TestFromEntries:
    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            matrix_from_entries([[1, 0], [1]])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            matrix_from_entries([[2]])

    def test_default_labels(self):
        m = matrix_from_entries(CLEAN)
        assert m.row_labels == (0, 1)
        assert m.col_labels == (0, 1)
        assert dense(m) == ((1, 1), (0, 1))


class TestRows:
    def test_rejects_unsorted_row(self):
        with pytest.raises(ValueError):
            CoverMatrix(((1, 0),), (0,), (0, 1))

    def test_rejects_out_of_range_row(self):
        with pytest.raises(ValueError):
            CoverMatrix(((0, 2),), (0,), (0, 1))
        with pytest.raises(ValueError):
            CoverMatrix(((-1,),), (0,), (0, 1))

    @pytest.mark.parametrize(
        "rows",
        [((0.5,),), ((True,),), ((0, 1.0),), (("0",),), ((0, 1), (1.0,))],
        ids=["float", "bool", "float-after-int", "str", "float-in-a-later-row"],
    )
    def test_rejects_columns_that_are_not_ints(self, rows):
        # the last row is the bad one, and the error names it
        bad = len(rows) - 1
        with pytest.raises(ValueError, match=f"row {bad} must hold strictly increasing columns"):
            CoverMatrix(rows, tuple(range(len(rows))), (5, 6))

    def test_empty_row_is_falsy(self):
        m = CoverMatrix(((), (1,)), (0, 1), (0, 1))
        assert not m.rows[0]
        assert dense(m) == ((0, 0), (0, 1))


class TestStandardGreedyForm:
    def test_forbidden_pattern_itself(self):
        m = matrix_from_entries(FORBIDDEN)
        assert find_greedy_form_violation(m) == Violation(0, 1, 0, 1)

    def test_clean_two_by_two(self):
        assert find_greedy_form_violation(matrix_from_entries(CLEAN)) is None

    def test_witness_is_a_real_pattern(self):
        entries = [
            [0, 1, 0, 1, 1],
            [1, 1, 0, 0, 1],
            [0, 1, 1, 1, 0],
            [1, 1, 0, 1, 0],
        ]
        m = matrix_from_entries(entries)
        v = find_greedy_form_violation(m)
        assert v is not None
        assert v.i1 < v.i2 and v.j1 < v.j2
        assert entries[v.i1][v.j1] == 1
        assert entries[v.i1][v.j2] == 1
        assert entries[v.i2][v.j1] == 1
        assert entries[v.i2][v.j2] == 0

    @given(matrices())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_quadruple_loop_oracle(self, entries):
        m = matrix_from_entries(entries)
        got = find_greedy_form_violation(m)
        expected = oracle_greedy_form_violation(entries)
        assert (got is None) == (expected is None)
        if got is not None:
            assert entries[got.i1][got.j1] == 1
            assert entries[got.i1][got.j2] == 1
            assert entries[got.i2][got.j1] == 1
            assert entries[got.i2][got.j2] == 0

    def test_built_matrices_are_clean(self, corpus, medium_corpus):
        for t in corpus + medium_corpus:
            m = build(t, visibility_relation(t))
            assert find_greedy_form_violation(m) is None


class TestTotallyBalanced:
    def test_identity(self):
        assert oracle_totally_balanced([[1, 0], [0, 1]])

    def test_three_cycle_is_not_balanced(self):
        assert oracle_totally_balanced(THREE_CYCLE) is False

    def test_size_guard(self):
        with pytest.raises(ValueError):
            oracle_totally_balanced([[0] * 9 for _ in range(9)])

    @given(matrices(5))
    @settings(max_examples=150, deadline=None)
    def test_greedy_form_implies_balanced(self, entries):
        m = matrix_from_entries(entries)
        if find_greedy_form_violation(m) is None:
            assert oracle_totally_balanced(entries) is True

    def test_built_small_matrices_are_balanced(self, corpus):
        for t in corpus:
            if t.n // 2 <= 8:
                m = build(t, visibility_relation(t))
                assert oracle_totally_balanced(dense(m)) is True


class TestFormat:
    def test_square_valley_dump(self, square_valley):
        m = build(square_valley, visibility_relation(square_valley))
        assert list(format_matrix(m)) == ["cols: 0 3\n", "row 2: 10\n", "row 1: 01\n"]

    def test_empty_matrix_dumps_its_column_line(self):
        assert list(format_matrix(CoverMatrix((), (), ()))) == ["cols: \n"]


@settings(max_examples=300, deadline=None)
@given(terrains())
def test_rows_match_oracle_on_random_terrains(t):
    m = build(t, visibility_relation(t))
    assert m.rows == oracle_rows(t)
    assert find_greedy_form_violation(m) is None
