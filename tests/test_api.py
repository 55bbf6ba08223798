"""The public surface of the package, pinned name by name.

Adding or dropping a public name must show up as a diff to this list.
"""

from __future__ import annotations

import terrainguard

PUBLIC = [
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


def test_public_names_are_pinned():
    names = terrainguard.__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == PUBLIC
    for name in names:
        assert hasattr(terrainguard, name), name
