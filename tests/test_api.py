"""The public surface of the package, pinned name by name, the one module
behind the cover matrix, and no import left unused.

Adding or dropping a public name must show up as a diff to this list.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
    "visibility_relation",
]


def test_public_names_are_pinned():
    names = terrainguard.__all__
    assert len(set(names)) == len(names)
    assert sorted(names) == PUBLIC
    for name in names:
        assert hasattr(terrainguard, name), name


def test_the_cover_matrix_sits_behind_one_module():
    # visibility is the sweep; only covermatrix numbers columns and builds the matrix
    package = Path(terrainguard.__file__).parent
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in package.glob("*.py")}
    imported = [
        name
        for node in ast.walk(trees["visibility.py"])
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for name in [getattr(node, "module", None) or "", *(alias.name for alias in node.names)]
    ]
    assert not any("covermatrix" in name.split(".") for name in imported), imported
    for name in ("_columns", "visibility_relation"):
        defined_in = [
            module
            for module, tree in trees.items()
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == name
        ]
        assert defined_in == ["covermatrix.py"], (name, defined_in)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names only to re-export them
    package = Path(terrainguard.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))
