from __future__ import annotations

import dataclasses

import pytest

from terrainguard import (
    COORD_LIMIT,
    CoordinateOutOfRange,
    DiagonalEdge,
    NonAlternatingEdges,
    NotMonotone,
    OddVertexCount,
    Point,
    TooFewVertices,
    VertexClass,
    ZeroLengthEdge,
    classify,
    convex_indices,
    reflex_indices,
    validate,
)
from tests.oracles import oracle_class


class TestValidate:
    def test_square_valley_is_valid(self, square_valley):
        assert square_valley.n == 4
        assert square_valley.vertices[0] == Point(0, 10)

    def test_accepts_point_objects_and_tuples(self):
        t = validate([Point(0, 10), (0, 0), (10, 0), (10, 10)])
        assert t.vertices == (Point(0, 10), Point(0, 0), Point(10, 0), Point(10, 10))

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
            square_valley.vertices = ()


class TestClassify:
    def test_square_valley_classes(self, square_valley):
        got = [classify(square_valley, i) for i in range(4)]
        assert got == [
            VertexClass.RIGHT_REFLEX,
            VertexClass.LEFT_CONVEX,
            VertexClass.RIGHT_CONVEX,
            VertexClass.LEFT_REFLEX,
        ]

    def test_single_step_up(self, single_step_up):
        assert classify(single_step_up, 0) is VertexClass.RIGHT_CONVEX
        assert classify(single_step_up, 1) is VertexClass.LEFT_REFLEX

    def test_single_step_down(self):
        t = validate([(0, 0), (0, -10)])
        assert classify(t, 0) is VertexClass.RIGHT_REFLEX
        assert classify(t, 1) is VertexClass.LEFT_CONVEX

    def test_matches_probe_oracle_on_corpus(self, corpus):
        for t in corpus:
            for i in range(t.n):
                assert classify(t, i).value == oracle_class(t, i), (t.vertices, i)

    def test_vertical_edge_tops_are_reflex_bottoms_convex(self, corpus):
        for t in corpus:
            for e in range(0, t.n - 1, 2):
                top, bottom = (e, e + 1) if t.ys[e] > t.ys[e + 1] else (e + 1, e)
                assert t.classes[top].is_reflex
                assert t.classes[bottom].is_convex

    def test_classes_partition_evenly(self, corpus):
        for t in corpus:
            assert len(convex_indices(t)) == t.n // 2
            assert len(reflex_indices(t)) == t.n // 2

    def test_within_class_x_strictly_increasing(self, corpus):
        for t in corpus:
            for cls in VertexClass:
                xs = [t.xs[i] for i, c in enumerate(t.classes) if c is cls]
                assert xs == sorted(xs)
                assert len(set(xs)) == len(xs)
