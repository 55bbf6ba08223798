from __future__ import annotations

import pytest

from terrainguard import (
    NotConvex,
    VertexClass,
    VisibilityRelation,
    candidate_guards,
    convex_indices,
    descending_staircase,
    sees,
    validate,
    visibility_relation,
)
from tests.oracles import oracle_candidates, oracle_sees

# reconstruction of a terrain with all four classes where the left-reflex
# vertex 7 sees the left-convex vertex 5 but not the right-convex vertex 2
FOUR_CLASS = [
    (0, 4), (0, 1), (3, 1), (3, 3), (6, 3), (6, 0),
    (9, 0), (9, 5), (12, 5), (12, 2), (14, 2), (14, 6),
]


def by_target(rel: VisibilityRelation) -> dict[int, tuple[int, ...]]:
    out: dict[int, list[int]] = {}
    for g, c in rel.pairs:
        out.setdefault(c, []).append(g)
    return {c: tuple(gs) for c, gs in out.items()}


class TestSees:
    def test_across_square_valley(self, square_valley):
        assert sees(square_valley, 0, 2) is True

    def test_own_vertical_edge_is_not_visible(self, square_valley):
        assert sees(square_valley, 0, 1) is False

    def test_equal_x_never_sees(self, square_valley):
        assert sees(square_valley, 2, 3) is False

    def test_horizontal_edge_neighbours_do_not_see_each_other(self, square_valley):
        assert sees(square_valley, 1, 2) is False

    def test_middle_rim_blocks_far_corner(self, blocked_ledge):
        # sightline from (0,10) to (20,0) passes below the rim vertex (10,6)
        assert sees(blocked_ledge, 0, 4) is False

    def test_touching_vertex_blocks(self):
        # (5,5) lies exactly on the segment (0,10)-(10,0)
        t = validate([(0, 10), (0, 5), (5, 5), (5, 0), (10, 0), (10, 10)])
        assert sees(t, 0, 4) is False
        assert oracle_sees(t, 0, 4) is False

    def test_ledge_at_guard_height_blocks(self):
        # no vertex has x strictly between 10 and 20, yet the horizontal
        # edge at height 8 starting at the guard's own x blocks the segment
        t = validate([(0, 5), (0, 0), (10, 0), (10, 8), (20, 8), (20, 2), (30, 2), (30, 9)])
        assert sees(t, 3, 5) is False
        assert oracle_sees(t, 3, 5) is False

    def test_four_class_reconstruction(self):
        t = validate(FOUR_CLASS)
        assert t.classes[5] is VertexClass.LEFT_CONVEX
        assert t.classes[2] is VertexClass.RIGHT_CONVEX
        assert t.classes[7] is VertexClass.LEFT_REFLEX
        assert t.classes[8] is VertexClass.RIGHT_REFLEX
        assert sees(t, 7, 5) is True
        assert sees(t, 7, 2) is False

    def test_rejects_bad_indices(self, square_valley):
        with pytest.raises(IndexError):
            sees(square_valley, 0, 4)
        with pytest.raises(ValueError):
            sees(square_valley, 2, 2)

    def test_symmetric_on_corpus(self, corpus):
        for t in corpus[:40]:
            for a in range(t.n):
                for b in range(a + 1, t.n):
                    assert sees(t, a, b) == sees(t, b, a)

    def test_agrees_with_rational_oracle_on_corpus(self, corpus):
        for t in corpus:
            for a in range(t.n):
                for b in range(a + 1, t.n):
                    assert sees(t, a, b) == oracle_sees(t, a, b), (t.vertices, a, b)


class TestCandidateGuards:
    def test_square_valley(self, square_valley):
        assert candidate_guards(square_valley, 2) == (0,)
        assert candidate_guards(square_valley, 1) == (3,)

    def test_single_step_has_no_candidates(self, single_step_up):
        assert candidate_guards(single_step_up, 0) == ()

    def test_rejects_reflex_vertex(self, square_valley):
        with pytest.raises(NotConvex):
            candidate_guards(square_valley, 0)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_descending_staircase_bottoms_unguardable(self, k):
        t = descending_staircase(k)
        for c in convex_indices(t):
            assert t.classes[c] is VertexClass.LEFT_CONVEX
            assert candidate_guards(t, c) == ()
            assert oracle_candidates(t, c) == ()

    def test_equals_unpruned_oracle_on_corpus(self, corpus):
        for t in corpus:
            for c in convex_indices(t):
                assert candidate_guards(t, c) == oracle_candidates(t, c), (t.vertices, c)


class TestVisibilityRelation:
    def test_square_valley_pairs(self, square_valley):
        assert visibility_relation(square_valley).pairs == ((3, 1), (0, 2))

    def test_single_step_empty(self, single_step_up):
        assert visibility_relation(single_step_up).pairs == ()

    def test_pair_count_bounded(self, corpus):
        for t in corpus:
            k = t.n // 2
            assert len(visibility_relation(t).pairs) <= k * k

    def test_matches_candidate_guards(self, corpus):
        for t in corpus:
            rel = by_target(visibility_relation(t))
            for c in convex_indices(t):
                assert rel.get(c, ()) == candidate_guards(t, c)

    def test_sorted_by_target_then_guard(self, corpus):
        for t in corpus:
            pairs = visibility_relation(t).pairs
            assert pairs == tuple(sorted(pairs, key=lambda p: (p[1], p[0])))

    def test_only_matching_side_pairs(self, corpus):
        # right-reflex guards see only right-convex targets from the upper
        # left; left-reflex guards only left-convex targets from the upper
        # right; nobody covers both sides
        for t in corpus:
            targets_of: dict[int, set[str]] = {}
            for g, c in visibility_relation(t).pairs:
                gc, cc = t.classes[g], t.classes[c]
                assert (gc, cc) in (
                    (VertexClass.RIGHT_REFLEX, VertexClass.RIGHT_CONVEX),
                    (VertexClass.LEFT_REFLEX, VertexClass.LEFT_CONVEX),
                )
                assert t.ys[g] > t.ys[c]
                if gc is VertexClass.RIGHT_REFLEX:
                    assert t.xs[g] < t.xs[c]
                else:
                    assert t.xs[g] > t.xs[c]
                targets_of.setdefault(g, set()).add(cc.value)
            for sides in targets_of.values():
                assert len(sides) == 1
