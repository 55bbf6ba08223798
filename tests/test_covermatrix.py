from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from terrainguard import (
    CoverMatrix,
    TooLarge,
    VertexClass,
    Violation,
    build,
    find_greedy_form_violation,
    format_matrix,
    is_standard_greedy_form,
    is_totally_balanced_bruteforce,
    visibility_relation,
)
from tests.oracles import oracle_greedy_form_violation

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
    def test_square_valley_matrix(self, square_valley):
        m = build(square_valley, visibility_relation(square_valley))
        assert m.row_labels == (2, 1)
        assert m.col_labels == (0, 3)
        assert m.entries == ((1, 0), (0, 1))

    def test_all_zero_when_nothing_is_seen(self, single_step_up):
        m = build(single_step_up, visibility_relation(single_step_up))
        assert m.k == 1 and m.k_prime == 1
        assert m.entries == ((0,),)

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
        from terrainguard import valley_comb

        for t in corpus + [valley_comb(2, width=6, depth=8, gap=3)]:
            m = build(t, visibility_relation(t))
            for i, c in enumerate(m.row_labels):
                for j, g in enumerate(m.col_labels):
                    if t.classes[c].is_left != t.classes[g].is_left:
                        assert m.entry(i, j) == 0

    def test_entries_match_relation(self, corpus):
        for t in corpus:
            rel = visibility_relation(t)
            m = build(t, rel)
            pairs = {
                (m.col_labels[j], m.row_labels[i])
                for i in range(m.k)
                for j in range(m.k_prime)
                if m.entry(i, j)
            }
            assert pairs == set(rel.pairs)


class TestFromEntries:
    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            CoverMatrix.from_entries([[1, 0], [1]])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            CoverMatrix.from_entries([[2]])

    def test_default_labels(self):
        m = CoverMatrix.from_entries(CLEAN)
        assert m.row_labels == (0, 1)
        assert m.col_labels == (0, 1)
        assert m.entries == ((1, 1), (0, 1))


class TestRows:
    def test_rejects_unsorted_row(self):
        with pytest.raises(ValueError):
            CoverMatrix(((1, 0),), (0,), (0, 1))

    def test_rejects_out_of_range_row(self):
        with pytest.raises(ValueError):
            CoverMatrix(((0, 2),), (0,), (0, 1))
        with pytest.raises(ValueError):
            CoverMatrix(((-1,),), (0,), (0, 1))

    def test_empty_row_is_falsy(self):
        m = CoverMatrix(((), (1,)), (0, 1), (0, 1))
        assert not m.rows[0]
        assert m.entries == ((0, 0), (0, 1))


class TestStandardGreedyForm:
    def test_forbidden_pattern_itself(self):
        m = CoverMatrix.from_entries(FORBIDDEN)
        assert is_standard_greedy_form(m) is False
        assert find_greedy_form_violation(m) == Violation(0, 1, 0, 1)

    def test_clean_two_by_two(self):
        assert is_standard_greedy_form(CoverMatrix.from_entries(CLEAN)) is True

    def test_witness_is_a_real_pattern(self):
        entries = [
            [0, 1, 0, 1, 1],
            [1, 1, 0, 0, 1],
            [0, 1, 1, 1, 0],
            [1, 1, 0, 1, 0],
        ]
        m = CoverMatrix.from_entries(entries)
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
        m = CoverMatrix.from_entries(entries)
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
            assert is_standard_greedy_form(m) is True


class TestTotallyBalanced:
    def test_identity(self):
        assert is_totally_balanced_bruteforce(CoverMatrix.from_entries([[1, 0], [0, 1]]))

    def test_three_cycle_is_not_balanced(self):
        assert is_totally_balanced_bruteforce(CoverMatrix.from_entries(THREE_CYCLE)) is False

    def test_size_guard(self):
        big = CoverMatrix.from_entries([[0] * 9 for _ in range(9)])
        with pytest.raises(TooLarge):
            is_totally_balanced_bruteforce(big)

    @given(matrices(5))
    @settings(max_examples=150, deadline=None)
    def test_greedy_form_implies_balanced(self, entries):
        m = CoverMatrix.from_entries(entries)
        if is_standard_greedy_form(m):
            assert is_totally_balanced_bruteforce(m) is True

    def test_built_small_matrices_are_balanced(self, corpus):
        for t in corpus:
            if t.n // 2 <= 8:
                m = build(t, visibility_relation(t))
                assert is_totally_balanced_bruteforce(m) is True


class TestFormat:
    def test_square_valley_dump(self, square_valley):
        m = build(square_valley, visibility_relation(square_valley))
        assert format_matrix(m) == "cols: 0 3\nrow 2: 10\nrow 1: 01\n"
