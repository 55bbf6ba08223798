"""Command-line solver.

Reads a terrain from a file or generates one from a seed, prints a
line-oriented solution report, and signals the outcome through the exit
code: 0 solved (optimal, or partial when --allow-partial asked for it),
1 input error, 2 infeasible without --allow-partial, 3 the brute-force
oracle disagreed with the solver (a bug, never expected).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .covermatrix import CoverMatrix, build, format_matrix
from .generator import GenSpec, random_terrain
from .geometry import Terrain, ValidationError
from .solver import (
    EmptyRow,
    GuardSolution,
    InfeasibilityReport,
    TooManyColumns,
    brute_force_optimum,
    solve,
)
from .svg import emit_svg
from .terrain_io import ParseError, parse
from .visibility import visibility_relation

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_ORACLE_MISMATCH = 3


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="terrainguard",
        description="exact minimum reflex-vertex guard sets for orthogonal terrains",
    )
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="FILE", help="terrain file to solve")
    src.add_argument(
        "--random",
        metavar="SEED:STEPS",
        help="solve a generated terrain (SplitMix64 seed, number of vertical edges)",
    )
    p.add_argument(
        "--allow-partial",
        action="store_true",
        help="on infeasible terrains, also cover the guardable subset",
    )
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check the answer against brute-force search (k' <= 25)",
    )
    p.add_argument("--svg", metavar="FILE", help="write an SVG rendering")
    p.add_argument("--matrix", action="store_true", help="dump the permuted cover matrix")
    p.add_argument("--quiet", action="store_true", help="suppress the report on stdout")
    return p


def _load_terrain(args: argparse.Namespace) -> Terrain:
    if args.input is not None:
        with open(args.input, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    try:
        seed_s, steps_s = args.random.split(":", 1)
        spec = GenSpec(seed=int(seed_s), steps=int(steps_s))
    except ValueError as exc:
        raise ValueError(f"--random expects SEED:STEPS, got {args.random!r} ({exc})") from exc
    return random_terrain(spec)


def format_report(t: Terrain, result: GuardSolution | InfeasibilityReport) -> str:
    """Line-oriented report; every index is a 0-based chain position."""

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
            lines.append(f"guard {g} {t.xs[g]} {t.ys[g]} {t.classes[g].value}")
        for c, g in sol.assignment.items():
            lines.append(f"assign {c} <- {g}")
    if unguardable:
        lines.append(f"unguardable: {len(unguardable)}")
        for c in unguardable:
            lines.append(f"unguardable {c} {t.xs[c]} {t.ys[c]} {t.classes[c].value}")
    return "\n".join(lines) + "\n"


def _run_oracle(m: CoverMatrix, result: GuardSolution | InfeasibilityReport) -> tuple[int, str]:
    try:
        opt, _ = brute_force_optimum(m)
    except EmptyRow:
        if isinstance(result, InfeasibilityReport):
            return EXIT_OK, "oracle: match (infeasible)"
        return EXIT_ORACLE_MISMATCH, "oracle: MISMATCH (oracle infeasible, solver found a cover)"
    if isinstance(result, InfeasibilityReport):
        return EXIT_ORACLE_MISMATCH, "oracle: MISMATCH (solver infeasible, oracle found a cover)"
    if opt == result.size:
        return EXIT_OK, f"oracle: match ({result.size} = {opt})"
    return EXIT_ORACLE_MISMATCH, f"oracle: MISMATCH (greedy {result.size} != optimum {opt})"


def run(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        terrain = _load_terrain(args)
    except (OSError, ParseError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR

    result = solve(terrain, allow_partial=args.allow_partial)
    if args.oracle and terrain.n // 2 > 25:
        print("error: --oracle needs at most 25 reflex vertices", file=sys.stderr)
        return EXIT_INPUT_ERROR
    m = build(terrain, visibility_relation(terrain)) if args.oracle or args.matrix else None

    oracle_code = EXIT_OK
    oracle_line = None
    if args.oracle:
        oracle_code, oracle_line = _run_oracle(m, result)

    if not args.quiet:
        if args.matrix:
            sys.stdout.write(format_matrix(m))
        sys.stdout.write(format_report(terrain, result))
        if oracle_line is not None:
            print(oracle_line)
    if oracle_code == EXIT_ORACLE_MISMATCH and oracle_line is not None:
        print(oracle_line, file=sys.stderr)

    if args.svg:
        sol = result if isinstance(result, GuardSolution) else result.partial
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(emit_svg(terrain, sol))

    if oracle_code != EXIT_OK:
        return oracle_code
    if isinstance(result, InfeasibilityReport) and result.partial is None:
        return EXIT_INFEASIBLE
    return EXIT_OK


def main() -> None:
    sys.exit(run())
