"""The benchmark's correctness check must pass right answers and flag wrong ones.

Run with: python3 -m pytest -q bench/test_check.py
"""

import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

from check import problems  # noqa: E402
from terrainguard import GenSpec, GuardSolution, InfeasibilityReport, random_terrain, sees, solve, validate  # noqa: E402
from workloads import bowl_points, staircase_points  # noqa: E402


def _feasible(seed: int, steps: int):
    for s in range(seed, seed + 200):
        t = random_terrain(GenSpec(seed=s, steps=steps))
        result = solve(t)
        if isinstance(result, GuardSolution) and result.size >= 2:
            return t, result
    raise AssertionError("no feasible terrain with two guards in range")


@pytest.mark.parametrize("steps", [3, 10, 16, 60, 400])
def test_solver_output_passes(steps):
    for seed in range(10):
        t = random_terrain(GenSpec(seed=seed, steps=steps))
        assert problems(t, solve(t, allow_partial=True), seed=seed) == []


@pytest.mark.parametrize("seed", range(5))
def test_workload_families_pass(seed):
    for pts in (bowl_points(seed, 30), staircase_points(seed, 30)):
        t = validate(pts)
        assert problems(t, solve(t, allow_partial=True), seed=seed) == []


def test_flags_a_dropped_guard():
    t, result = _feasible(1, 14)
    dropped = replace(result, guards=result.guards[1:])
    assert any("not a guard" in p for p in problems(t, dropped, seed=0))


def test_flags_a_dropped_guard_with_its_targets():
    t, result = _feasible(1, 14)
    gone = result.guards[0]
    dropped = GuardSolution(
        result.guards[1:], {c: g for c, g in result.assignment.items() if g != gone}
    )
    assert any("covered wrongly" in p for p in problems(t, dropped, seed=0))


def test_flags_a_redundant_guard():
    t, result = _feasible(1, 14)
    spare = next(r for r, c in enumerate(t.classes) if c.is_reflex and r not in result.guards)
    padded = replace(result, guards=tuple(sorted(result.guards + (spare,))))
    found = problems(t, padded, seed=0)
    assert any("packing" in p for p in found)
    assert any("brute force" in p for p in found)


def test_flags_a_guard_that_does_not_see_its_target():
    t, result = _feasible(1, 14)
    c, other = next((c, h) for c in result.assignment for h in result.guards if not sees(t, h, c))
    moved = replace(result, assignment={**result.assignment, c: other})
    assert any("does not see" in p for p in problems(t, moved, seed=0))


def test_flags_a_guardable_target_reported_unguardable():
    t, result = _feasible(1, 14)
    c = next(iter(result.assignment))
    rest = replace(result, assignment={k: v for k, v in result.assignment.items() if k != c})
    found = problems(t, InfeasibilityReport((c,), rest), seed=0)
    assert any("has candidate guards" in p for p in found)
