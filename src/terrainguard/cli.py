"""Command-line solver.

Reads a terrain from a file or generates one from a seed, prints a
line-oriented solution report, and signals the outcome through the exit
code: 0 solved (optimal, or partial when --allow-partial asked for it),
1 input error or an --svg file that cannot be written, 2 infeasible
without --allow-partial, 3 an --oracle check (visibility, feasibility,
assignment, brute-force optimum) disagreed with solve (a bug, never expected).
"""

from __future__ import annotations

import argparse
import re
import sys
from typing import Sequence

from .covermatrix import (
    BRUTE_FORCE_COLUMN_LIMIT,
    CoverMatrix,
    brute_force_optimum,
    format_matrix,
    visibility_relation,
)
from .generator import GenSpec, random_terrain
from .geometry import Terrain, ValidationError
from .solver import GuardSolution, InfeasibilityReport, solve
from .svg import emit_svg
from .terrain_io import INTEGER, ParseError, parse
from .visibility import candidate_guards, sees

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_ORACLE_MISMATCH = 3

MAX_RANDOM_STEPS = 100_000  # n = 200k vertices
_SEED_STEPS = re.compile(f"({INTEGER}):({INTEGER})")


_PARSER = argparse.ArgumentParser(
    prog="terrainguard",
    description="exact minimum reflex-vertex guard sets for orthogonal terrains",
)
_source = _PARSER.add_mutually_exclusive_group(required=True)
_source.add_argument("--input", metavar="FILE", help="terrain file to solve")
_source.add_argument(
    "--random",
    metavar="SEED:STEPS",
    help="solve a generated terrain (SplitMix64 seed, number of vertical edges, "
    f"at most {MAX_RANDOM_STEPS}; both ASCII integers)",
)
_PARSER.add_argument(
    "--allow-partial",
    action="store_true",
    help="on infeasible terrains, also cover the guardable subset",
)
_PARSER.add_argument(
    "--oracle",
    action="store_true",
    help="cross-check visibility pairwise and the answer by brute-force search "
    f"(k' <= {BRUTE_FORCE_COLUMN_LIMIT})",
)
_PARSER.add_argument("--svg", metavar="FILE", help="write an SVG rendering")
_PARSER.add_argument("--matrix", action="store_true", help="dump the permuted cover matrix")
_PARSER.add_argument("--quiet", action="store_true", help="suppress the report on stdout")


def _load_terrain(args: argparse.Namespace) -> Terrain:
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    m = _SEED_STEPS.fullmatch(args.random)
    if m is None:
        raise ValueError(f"--random expects SEED:STEPS, got {args.random!r}")
    steps = int(m[2])
    if steps > MAX_RANDOM_STEPS:
        raise ValueError(f"--random allows at most {MAX_RANDOM_STEPS} steps, got {steps}")
    return random_terrain(GenSpec(seed=int(m[1]), steps=steps))


def format_report(t: Terrain, result: GuardSolution | InfeasibilityReport) -> str:
    """Line-oriented report; every index is a 0-based chain position.

    Each printed vertex is classed alone (``Terrain.vertex_class``), so the
    report never builds ``Terrain.classes``; ``_value_`` is the member's
    value without the slower ``Enum.value`` property.
    """

    lines: list[str] = []
    if isinstance(result, GuardSolution):
        status, sol, unguardable = "optimal", result, ()
    else:
        status = "partial" if result.partial is not None else "infeasible"
        sol, unguardable = result.partial, result.unguardable
    lines.append(f"status: {status}")
    if sol is not None:
        lines.append(f"guards: {sol.size}")
        for g in sol.guards:
            lines.append(f"guard {g} {t.xs[g]} {t.ys[g]} {t.vertex_class(g)._value_}")
        for c, g in sol.assignment.items():
            lines.append(f"assign {c} <- {g}")
    if unguardable:
        lines.append(f"unguardable: {len(unguardable)}")
        for c in unguardable:
            lines.append(f"unguardable {c} {t.xs[c]} {t.ys[c]} {t.vertex_class(c)._value_}")
    return "\n".join(lines) + "\n"


def _run_oracle(
    t: Terrain, m: CoverMatrix, result: GuardSolution | InfeasibilityReport
) -> tuple[int, str]:
    # the pairwise test behind candidate_guards is independent of the sweep
    for c, row in zip(m.row_labels, m.rows):
        if {m.col_labels[j] for j in row} != set(candidate_guards(t, c)):
            return EXIT_ORACLE_MISMATCH, f"oracle: MISMATCH (visibility of vertex {c})"
    keep = [i for i, row in enumerate(m.rows) if row]
    if isinstance(result, GuardSolution) != (len(keep) == m.k):
        if isinstance(result, GuardSolution):
            return EXIT_ORACLE_MISMATCH, "oracle: MISMATCH (oracle infeasible, solver found a cover)"
        return EXIT_ORACLE_MISMATCH, "oracle: MISMATCH (solver infeasible, oracle found a cover)"
    sol = result if isinstance(result, GuardSolution) else result.partial
    if sol is None:
        return EXIT_OK, "oracle: match (infeasible)"
    # a partial cover is optimal over the guardable rows only
    rows, labels = tuple(m.rows[i] for i in keep), tuple(m.row_labels[i] for i in keep)
    targets, guards = set(labels), set(sol.guards)
    for c in sorted(targets | sol.assignment.keys()):
        g = sol.assignment.get(c)
        if c not in targets or g not in guards or g == c or not sees(t, g, c):
            return EXIT_ORACLE_MISMATCH, f"oracle: MISMATCH (assignment of vertex {c})"
    opt, _ = brute_force_optimum(CoverMatrix(rows, labels, m.col_labels))
    if opt == sol.size:
        return EXIT_OK, f"oracle: match ({sol.size} = {opt})"
    return EXIT_ORACLE_MISMATCH, f"oracle: MISMATCH (greedy {sol.size} != optimum {opt})"


def run(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse would read a negative SEED after --random, or after any prefix of it
    # from --r on (argparse takes unambiguous abbreviations), as an option: attach it
    for i in reversed(range(len(argv) - 1)):
        if len(argv[i]) > 2 and "--random".startswith(argv[i]) and _SEED_STEPS.fullmatch(argv[i + 1]):
            argv[i : i + 2] = [f"--random={argv[i + 1]}"]
    args = _PARSER.parse_args(argv)
    try:
        terrain = _load_terrain(args)
    except (OSError, ParseError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.oracle and terrain.n // 2 > BRUTE_FORCE_COLUMN_LIMIT:
        print(
            f"error: --oracle needs at most {BRUTE_FORCE_COLUMN_LIMIT} reflex vertices",
            file=sys.stderr,
        )
        return EXIT_INPUT_ERROR
    result = solve(terrain, args.allow_partial)
    # the oracle checks solve against a matrix of its own
    m = visibility_relation(terrain) if args.oracle or (args.matrix and not args.quiet) else None

    oracle_code = EXIT_OK
    oracle_line = None
    if args.oracle:
        oracle_code, oracle_line = _run_oracle(terrain, m, result)

    if not args.quiet:
        if args.matrix:
            sys.stdout.writelines(format_matrix(m))
        sys.stdout.write(format_report(terrain, result))
        if oracle_line is not None:
            print(oracle_line)
    if oracle_code == EXIT_ORACLE_MISMATCH and oracle_line is not None:
        print(oracle_line, file=sys.stderr)

    if args.svg:
        sol = result if isinstance(result, GuardSolution) else result.partial
        try:
            with open(args.svg, "w", encoding="utf-8") as fh:
                fh.write(emit_svg(terrain, sol))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR

    if oracle_code != EXIT_OK:
        return oracle_code
    if isinstance(result, InfeasibilityReport) and result.partial is None:
        return EXIT_INFEASIBLE
    return EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
