from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings

import terrainguard.visibility as visibility_module
from terrainguard import (
    CoverMatrix,
    NotConvex,
    VertexClass,
    build,
    candidate_guards,
    convex_indices,
    descending_staircase,
    sees,
    validate,
    visibility_relation,
)
from tests.conftest import (
    ascending_staircase,
    comb_under_spike,
    staircase_over_comb,
    terrains,
    tooth_wall_spike,
)
from tests.oracles import oracle_candidates, oracle_sees

# reconstruction of a terrain with all four classes where the left-reflex
# vertex 7 sees the left-convex vertex 5 but not the right-convex vertex 2
FOUR_CLASS = [
    (0, 4), (0, 1), (3, 1), (3, 3), (6, 3), (6, 0),
    (9, 0), (9, 5), (12, 5), (12, 2), (14, 2), (14, 6),
]


def sweep_lines(t) -> int:
    """Lines the stack sweep executes on t: a deterministic measure of its work."""

    code = visibility_module._sweep.__code__
    count = 0

    def count_lines(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return count_lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: count_lines if frame.f_code is code else None)
    try:
        visibility_relation(t)
    finally:
        sys.settrace(previous)
    return count


def by_target(rel: CoverMatrix) -> dict[int, tuple[int, ...]]:
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
                    assert sees(t, a, b) == oracle_sees(t, a, b), ((t.xs, t.ys), a, b)


class TestCandidateGuards:
    def test_square_valley(self, square_valley):
        assert candidate_guards(square_valley, 2) == (0,)
        assert candidate_guards(square_valley, 1) == (3,)

    def test_single_step_has_no_candidates(self, single_step_up):
        assert candidate_guards(single_step_up, 0) == ()

    def test_rejects_reflex_vertex(self, square_valley):
        with pytest.raises(NotConvex):
            candidate_guards(square_valley, 0)

    def test_rejects_out_of_range_indices(self):
        t = descending_staircase(3)
        for c in (-1, t.n):
            with pytest.raises(IndexError):
                candidate_guards(t, c)

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
                assert candidate_guards(t, c) == oracle_candidates(t, c), ((t.xs, t.ys), c)


class TestVisibilityRelation:
    def test_is_immutable(self, square_valley):
        rel = CoverMatrix([(0,), (1,)], [2, 1], [0, 3])
        assert rel == visibility_relation(square_valley)
        assert type(rel.rows) is type(rel.row_labels) is type(rel.col_labels) is tuple
        with pytest.raises(AttributeError):
            rel.rows.append(())

    def test_is_the_cover_matrix(self, square_valley):
        rel = visibility_relation(square_valley)
        assert type(rel) is CoverMatrix
        assert build(square_valley, rel) is rel

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

    def test_guards_are_nearest_first_tuples(self, corpus):
        for t in corpus:
            rel = visibility_relation(t)
            row_of = dict(zip(rel.row_labels, rel.rows))
            assert tuple(sorted(row_of)) == convex_indices(t)
            assert all(type(row) is tuple for row in rel.rows)
            for c in range(t.n):
                gs = tuple(rel.col_labels[j] for j in row_of.get(c, ()))
                if t.classes[c].is_reflex:
                    assert gs == ()
                else:
                    chain = candidate_guards(t, c)
                    # a right-convex target's sweep walks left
                    walks_left = t.classes[c] is VertexClass.RIGHT_CONVEX
                    assert gs == (chain[::-1] if walks_left else chain), ((t.xs, t.ys), c)

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


class TestChainSweepAdversaries:
    """Families where a vertex-by-vertex walk never stops early, or where
    the chain sweep still makes many hops per pair."""

    @pytest.mark.parametrize(
        "t",
        [ascending_staircase(40), tooth_wall_spike(6, 12)],
        ids=["ascending-staircase", "tooth-wall-spike"],
    )
    def test_matches_oracle_candidates(self, t):
        rel = by_target(visibility_relation(t))
        for c in convex_indices(t):
            assert rel.get(c, ()) == oracle_candidates(t, c), c

    @pytest.mark.parametrize(
        "t",
        [ascending_staircase(900), tooth_wall_spike(100, 700)],
        ids=["ascending-staircase", "tooth-wall-spike"],
    )
    def test_matches_candidate_guards(self, t):
        rel = by_target(visibility_relation(t))
        for c in convex_indices(t):
            assert rel.get(c, ()) == candidate_guards(t, c), c

    @pytest.mark.parametrize(
        "t",
        [comb_under_spike(300), staircase_over_comb(300)],
        ids=["equal-rims-pop", "early-stop"],
    )
    def test_sweep_work_is_linear(self, t):
        # keeping a rim of equal height on the stack, or walking on past the
        # early stop, makes Theta(m^2) hops here, against n = 4m + 2 or 6m
        assert sweep_lines(t) <= 30 * t.n

    def test_tooth_bottoms_see_next_top_wall_and_spike(self):
        m = 5
        t = tooth_wall_spike(m, 10)
        wall_top, spike = 4 * m - 1, t.n - 1
        rel = by_target(visibility_relation(t))
        bottoms = [c for c in convex_indices(t) if t.classes[c] is VertexClass.LEFT_CONVEX]
        assert len(bottoms) == m
        for c in bottoms:
            # c + 2 is the next tooth's top, or the wall top for the last tooth
            assert rel[c] == tuple(sorted({c + 2, wall_top, spike}))


@settings(max_examples=300, deadline=None)
@given(terrains())
def test_relation_matches_candidate_guards_on_random_terrains(t):
    rel = by_target(visibility_relation(t))
    for c in convex_indices(t):
        assert rel.get(c, ()) == candidate_guards(t, c), ((t.xs, t.ys), c)
