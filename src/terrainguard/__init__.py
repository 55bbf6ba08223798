"""Exact minimum guard sets for orthogonal terrains.

Given an x-monotone chain of horizontal and vertical edges, find the fewest
reflex vertices (tops of vertical edges) that together see every convex
vertex (bottoms of vertical edges), where a guard sees a target only if the
open segment between them stays strictly above the terrain.  After a fixed
row and column permutation the constraint matrix of this cover problem is
totally balanced, so a one-pass greedy returns a provably minimum cover in
polynomial time; a brute-force oracle double-checks it at desk scale.
"""

from .covermatrix import (
    CoverMatrix,
    TooLarge,
    Violation,
    build,
    find_greedy_form_violation,
    format_matrix,
    is_standard_greedy_form,
    is_totally_balanced_bruteforce,
)
from .generator import BoundsExceeded, GenSpec, SplitMix64, descending_staircase, random_terrain, valley_comb
from .geometry import (
    COORD_LIMIT,
    CoordinateOutOfRange,
    DiagonalEdge,
    NonAlternatingEdges,
    NotMonotone,
    OddVertexCount,
    Point,
    Terrain,
    TooFewVertices,
    ValidationError,
    VertexClass,
    ZeroLengthEdge,
    classify,
    convex_indices,
    reflex_indices,
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
from .visibility import NotConvex, VisibilityRelation, candidate_guards, sees, visibility_relation

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
    "Point",
    "SplitMix64",
    "Terrain",
    "TooFewVertices",
    "TooLarge",
    "TooManyColumns",
    "ValidationError",
    "VertexClass",
    "Violation",
    "VisibilityRelation",
    "ZeroLengthEdge",
    "brute_force_optimum",
    "build",
    "candidate_guards",
    "classify",
    "convex_indices",
    "descending_staircase",
    "emit_svg",
    "find_greedy_form_violation",
    "format_matrix",
    "greedy_cover",
    "is_standard_greedy_form",
    "is_totally_balanced_bruteforce",
    "parse",
    "random_terrain",
    "reflex_indices",
    "sees",
    "serialize",
    "solve",
    "validate",
    "valley_comb",
    "visibility_relation",
]
