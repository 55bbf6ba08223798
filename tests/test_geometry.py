from __future__ import annotations

import dataclasses
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import terrainguard.geometry as geometry_module
from terrainguard import (
    COORD_LIMIT,
    CoordinateOutOfRange,
    DiagonalEdge,
    GenSpec,
    NonAlternatingEdges,
    NotMonotone,
    OddVertexCount,
    Terrain,
    TooFewVertices,
    ValidationError,
    VertexClass,
    ZeroLengthEdge,
    convex_indices,
    parse,
    random_terrain,
    serialize,
    solve,
    validate,
)
from tests.conftest import terrains
from tests.oracles import oracle_check_invariants, oracle_class

# what a coordinate can be turned into: each is a valid int once coerced
RETYPES = [bool, float, str]
OVER = COORD_LIMIT + 1


@st.composite
def coordinate_lists(draw):
    """The coordinates of a random terrain with up to three edits: an edge
    made zero-length, diagonal or leftward, a vertex dropped from one list or
    from both, a value pushed out of range or retyped (retypes come last)."""

    t = draw(terrains(max_steps=6))
    xs, ys = list(t.xs), list(t.ys)
    kinds = ["zero", "diagonal", "leftward", "unequal", "odd", "range", "retype"]
    edits = draw(st.lists(st.sampled_from(kinds), max_size=3))
    for edit in sorted(edits, key=lambda e: e == "retype"):
        n = min(len(xs), len(ys))
        if n == 0:
            break
        i = draw(st.integers(0, n - 1))
        values = draw(st.sampled_from([xs, ys]))
        if edit == "retype":
            values[i] = draw(st.sampled_from(RETYPES))(values[i])
        elif edit == "range":
            values[i] = draw(st.sampled_from([OVER, -OVER, COORD_LIMIT, -COORD_LIMIT]))
        elif edit == "unequal":
            values.pop(i)
        elif edit == "odd":
            xs.pop(i)
            ys.pop(i)
        elif i + 1 < n:
            j = i + 1
            if edit == "zero":
                xs[j], ys[j] = xs[i], ys[i]
            elif edit == "diagonal":
                xs[j], ys[j] = xs[i] + 1, ys[i] + 1
            else:
                xs[j], ys[j] = xs[i] - draw(st.integers(0, 2)), ys[i]
    return xs, ys


def outcome(make, *args):
    """A built terrain with its classes, or the error as its type,
    message and index."""

    try:
        t = make(*args)
    except ValidationError as exc:
        return type(exc), str(exc), exc.index
    return "built", t.xs, t.ys, [c.value for c in t.classes]


def oracle_terrain(xs, ys) -> SimpleNamespace:
    """The per-vertex check, then each class probed from first principles."""

    t = SimpleNamespace(xs=tuple(xs), ys=tuple(ys))
    oracle_check_invariants(t.xs, t.ys)
    t.classes = [VertexClass(oracle_class(t, i)) for i in range(len(t.xs))]
    return t


class TestValidate:
    def test_square_valley_is_valid(self, square_valley):
        assert square_valley.n == 4
        assert (square_valley.xs[0], square_valley.ys[0]) == (0, 10)

    def test_accepts_tuple_and_list_pairs(self):
        t = validate([[0, 10], (0, 0), [10, 0], (10, 10)])
        assert t.xs == (0, 0, 10, 10)
        assert t.ys == (10, 0, 0, 10)
        assert t == validate([(0, 10), (0, 0), (10, 0), (10, 10)])

    @pytest.mark.parametrize(
        "points, index",
        [
            ([(0, 10), (0, 0), (10.0, 0), (10, 10)], 2),
            ([(0, 10), (0, 0), (10.7, 0), (10, 10)], 2),
            ([(0, 10), (0, 0), ("10", 0), (10, 10)], 2),
            ([(0, 10), (0, True), (10, 1), (10, 10)], 1),
            ([(0, 10), (0, 0), (10, 0, 99), (10, 10)], 2),
        ],
        ids=["float", "fraction", "str", "bool", "three-values"],
    )
    def test_rejects_non_int_and_non_pair_points(self, points, index):
        # each input is a valid terrain once coerced through int(), or once
        # its third value is dropped
        with pytest.raises(ValidationError) as exc:
            validate(points)
        assert exc.value.index == index

    def test_rejects_coordinate_tuples_of_unequal_length(self):
        with pytest.raises(ValidationError) as exc:
            Terrain((0, 0), (0,))
        assert exc.value.index == 1

    def test_diagonal_edge(self):
        with pytest.raises(DiagonalEdge) as exc:
            validate([(0, 0), (5, 5)])
        assert exc.value.index == 0

    def test_not_monotone(self):
        with pytest.raises(NotMonotone) as exc:
            validate([(0, 0), (0, 5), (-3, 5), (-3, 9)])
        assert exc.value.index == 1

    def test_zero_length_edge(self):
        with pytest.raises(ZeroLengthEdge):
            validate([(0, 0), (0, 0)])

    def test_odd_vertex_count(self):
        with pytest.raises(OddVertexCount):
            validate([(0, 0), (0, 5), (4, 5)])

    def test_too_few_vertices(self):
        with pytest.raises(TooFewVertices):
            validate([(0, 0)])
        with pytest.raises(TooFewVertices):
            validate([])

    def test_first_edge_must_be_vertical(self):
        with pytest.raises(NonAlternatingEdges):
            validate([(0, 0), (5, 0)])

    def test_consecutive_vertical_edges_rejected(self):
        with pytest.raises(NonAlternatingEdges):
            validate([(0, 0), (0, 5), (0, 9), (3, 9)])

    def test_coordinate_bound_is_inclusive(self):
        validate([(0, COORD_LIMIT), (0, 0)])
        with pytest.raises(CoordinateOutOfRange):
            validate([(0, COORD_LIMIT + 1), (0, 0)])

    def test_terrain_is_immutable(self, square_valley):
        with pytest.raises(dataclasses.FrozenInstanceError):
            square_valley.xs = ()


class TestClassify:
    def test_square_valley_classes(self, square_valley):
        got = [square_valley.classes[i] for i in range(4)]
        assert got == [
            VertexClass.RIGHT_REFLEX,
            VertexClass.LEFT_CONVEX,
            VertexClass.RIGHT_CONVEX,
            VertexClass.LEFT_REFLEX,
        ]

    def test_single_step_up(self, single_step_up):
        assert single_step_up.classes[0] is VertexClass.RIGHT_CONVEX
        assert single_step_up.classes[1] is VertexClass.LEFT_REFLEX

    def test_single_step_down(self):
        t = validate([(0, 0), (0, -10)])
        assert t.classes[0] is VertexClass.RIGHT_REFLEX
        assert t.classes[1] is VertexClass.LEFT_CONVEX

    def test_matches_probe_oracle_on_corpus(self, corpus):
        for t in corpus:
            for i in range(t.n):
                assert t.classes[i].value == oracle_class(t, i), ((t.xs, t.ys), i)

    def test_vertical_edge_tops_are_reflex_bottoms_convex(self, corpus):
        for t in corpus:
            for e in range(0, t.n - 1, 2):
                top, bottom = (e, e + 1) if t.ys[e] > t.ys[e + 1] else (e + 1, e)
                assert t.classes[top].is_reflex
                assert t.classes[bottom].is_convex

    def test_classes_partition_evenly(self, corpus):
        for t in corpus:
            assert len(convex_indices(t)) == t.n // 2
            assert len([i for i, c in enumerate(t.classes) if c.is_reflex]) == t.n // 2

    def test_within_class_x_strictly_increasing(self, corpus):
        for t in corpus:
            for cls in VertexClass:
                xs = [t.xs[i] for i, c in enumerate(t.classes) if c is cls]
                assert xs == sorted(xs)
                assert len(set(xs)) == len(xs)


class TestClassesOnDemand:
    """Terrain stores its coordinates only; ``classes`` is built on first
    read and kept, and ``vertex_class`` classes one vertex without it."""

    @settings(max_examples=300, deadline=None)
    @given(terrains())
    def test_vertex_class_matches_classes_and_oracle(self, t):
        one_by_one = [t.vertex_class(i) for i in range(t.n)]
        assert "classes" not in vars(t)
        assert one_by_one == list(t.classes)
        assert [c.value for c in one_by_one] == [oracle_class(t, i) for i in range(t.n)]

    def test_vertex_class_matches_classes_on_corpus(self, corpus):
        for t in corpus:
            assert [t.vertex_class(i) for i in range(-t.n, t.n)] == list(t.classes) * 2, (t.xs, t.ys)

    def test_builders_and_solve_leave_classes_unbuilt(self, corpus):
        for t in corpus[:20]:
            built = [
                validate(zip(t.xs, t.ys)),
                parse(serialize(t)),
                Terrain(t.xs, t.ys),
                random_terrain(GenSpec(seed=t.n, steps=t.n // 2)),
            ]
            for u in built:
                solve(u, True)
                assert "classes" not in vars(u)

    def test_fields_are_the_coordinates(self):
        assert [f.name for f in dataclasses.fields(Terrain)] == ["xs", "ys"]

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_classes_cannot_be_set_or_deleted(self, square_valley, read):
        t = Terrain(square_valley.xs, square_valley.ys)
        if read:
            t.classes
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.classes = ()
        with pytest.raises(dataclasses.FrozenInstanceError):
            del t.classes
        assert t.classes == square_valley.classes

    def test_eq_hash_and_pickle_ignore_whether_classes_was_read(self, corpus):
        for t in corpus[:20]:
            unread, read = Terrain(t.xs, t.ys), Terrain(t.xs, t.ys)
            read.classes
            assert unread == read and hash(unread) == hash(read)
            for u in (unread, read):
                back = pickle.loads(pickle.dumps(u))
                assert back == t and hash(back) == hash(t)
                assert back.classes == t.classes

    def test_caller_lists_are_copied(self):
        xs, ys = [0, 0, 10, 10], [10, 0, 0, 10]
        t = Terrain(xs, ys)
        xs[2] = ys[0] = 99
        xs.append(10)
        assert (t.xs, t.ys) == ((0, 0, 10, 10), (10, 0, 0, 10))

    def test_x_range_is_checked_at_the_chain_ends(self):
        t = validate([(-COORD_LIMIT, 5), (-COORD_LIMIT, 0), (COORD_LIMIT, 0), (COORD_LIMIT, 5)])
        assert (t.xs[0], t.xs[-1]) == (-COORD_LIMIT, COORD_LIMIT)
        with pytest.raises(CoordinateOutOfRange) as exc:
            validate([(-OVER, 5), (-OVER, 0), (0, 0), (0, 5)])
        assert (str(exc.value), exc.value.index) == ("vertex 0 at (-1073741825, 5) exceeds |coord| <= 2^30", 0)
        with pytest.raises(CoordinateOutOfRange) as exc:
            validate([(0, 5), (0, 0), (OVER, 0), (OVER, 5)])
        assert (str(exc.value), exc.value.index) == ("vertex 2 at (1073741825, 0) exceeds |coord| <= 2^30", 2)


class TestBulkValidation:
    """Terrain checks and classifies in whole-list passes; the per-vertex
    loop kept in tests/oracles.py is the reference for every outcome."""

    @settings(max_examples=600, deadline=None)
    @given(coordinate_lists())
    @example(([], []))
    @example(([0], [0]))
    @example(([0, 0], [0]))
    @example(([0, 0, 1], [0, 1, 1]))
    @example(([0, 0], [0, 0]))
    @example(([0, 1], [0, 1]))
    @example(([0, 0, -1, -1], [0, 1, 1, 2]))
    @example(([0, 0, 0, 0], [0, 1, 1, 2]))
    @example(([0, 0], [0, True]))
    @example(([0, 0], [0, 1.0]))
    @example(([0, 0], ["0", 1]))
    @example(([0.5, 0], [0, OVER]))
    @example(([0, 0], [0, OVER]))
    @example(([-OVER, -OVER], [0, 1]))
    @example(([COORD_LIMIT, COORD_LIMIT], [-COORD_LIMIT, COORD_LIMIT]))
    def test_outcomes_match_the_per_vertex_loop(self, lists):
        xs, ys = lists
        expected = outcome(oracle_terrain, xs, ys)
        assert outcome(Terrain, xs, ys) == expected
        # only invalid input is left for the loop to name
        assert geometry_module._is_terrain(list(xs), list(ys)) == (expected[0] == "built")
