"""Exact minimum guard sets for orthogonal terrains.

Given an x-monotone chain of horizontal and vertical edges, find the fewest
reflex vertices (tops of vertical edges) that together see every convex
vertex (bottoms of vertical edges), where a guard sees a target only if the
open segment between them stays strictly above the terrain.  After a fixed
row and column permutation the constraint matrix of this cover problem is
totally balanced, so a one-pass greedy returns a provably minimum cover in
polynomial time; a brute-force oracle double-checks it at desk scale.
"""

from .covermatrix import CoverMatrix, Violation, build, find_greedy_form_violation, format_matrix
from .generator import BoundsExceeded, GenSpec, SplitMix64, descending_staircase, random_terrain, valley_comb
from .geometry import (
    COORD_LIMIT,
    CoordinateOutOfRange,
    DiagonalEdge,
    NonAlternatingEdges,
    NotMonotone,
    OddVertexCount,
    Terrain,
    TooFewVertices,
    ValidationError,
    VertexClass,
    ZeroLengthEdge,
    convex_indices,
    validate,
)
from .solver import (
    EmptyRow,
    GuardSolution,
    InfeasibilityReport,
    NotGreedyForm,
    TooManyColumns,
    brute_force_optimum,
    greedy_cover,
    solve,
)
from .svg import emit_svg
from .terrain_io import ParseError, parse, serialize
from .visibility import NotConvex, candidate_guards, sees, visibility_relation

__version__ = "0.1.0"

__all__ = [
    "BoundsExceeded",
    "COORD_LIMIT",
    "CoordinateOutOfRange",
    "CoverMatrix",
    "DiagonalEdge",
    "EmptyRow",
    "GenSpec",
    "GuardSolution",
    "InfeasibilityReport",
    "NonAlternatingEdges",
    "NotConvex",
    "NotGreedyForm",
    "NotMonotone",
    "OddVertexCount",
    "ParseError",
    "SplitMix64",
    "Terrain",
    "TooFewVertices",
    "TooManyColumns",
    "ValidationError",
    "VertexClass",
    "Violation",
    "ZeroLengthEdge",
    "brute_force_optimum",
    "build",
    "candidate_guards",
    "convex_indices",
    "descending_staircase",
    "emit_svg",
    "find_greedy_form_violation",
    "format_matrix",
    "greedy_cover",
    "parse",
    "random_terrain",
    "sees",
    "serialize",
    "solve",
    "validate",
    "valley_comb",
    "visibility_relation",
]
