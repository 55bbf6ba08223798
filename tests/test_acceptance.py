"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance (all
equalities are exact; the only tolerances are wall-clock budgets) and prints
a single summary line, visible with ``pytest -s`` or in the captured output.
The corpora are seeded and fixed: same run everywhere, every time.
"""

from __future__ import annotations

import time
import xml.etree.ElementTree as ET
from itertools import product

import pytest

from terrainguard import (
    EmptyRow,
    GenSpec,
    GuardSolution,
    InfeasibilityReport,
    Terrain,
    VertexClass,
    Violation,
    brute_force_optimum,
    build,
    candidate_guards,
    convex_indices,
    emit_svg,
    find_greedy_form_violation,
    parse,
    random_terrain,
    sees,
    serialize,
    solve,
    visibility_relation,
)
from tests.conftest import (
    ascending_staircase,
    convex_bowl,
    descending_staircase,
    gadgets_under_staircase,
    valley_comb,
)
from tests.oracles import dense, matrix_from_entries, oracle_totally_balanced

RC = VertexClass.RIGHT_CONVEX
LC = VertexClass.LEFT_CONVEX
RR = VertexClass.RIGHT_REFLEX
LR = VertexClass.LEFT_REFLEX


def _report(criterion: int, text: str) -> None:
    print(f"criterion {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def main_corpus() -> list[Terrain]:
    """1000 seeded random terrains with 2..12 vertical edges."""

    shapes = [(6, 6), (10, 10), (3, 9), (12, 4)]
    out = []
    for i in range(1000):
        run, rise = shapes[i % 4]
        out.append(
            random_terrain(GenSpec(seed=20_000 + i, steps=2 + i % 11, max_run=run, max_rise=rise))
        )
    return out


@pytest.fixture(scope="module")
def comb_corpus() -> list[Terrain]:
    """Every valley comb with m <= 4 over a fixed parameter grid."""

    return [
        valley_comb(m, width=w, depth=d, gap=g)
        for m, w, d, g in product((1, 2, 3, 4), (1, 2, 5, 10), (1, 3, 10), (1, 2, 7))
    ]


@pytest.fixture(scope="module")
def large_corpus() -> list[Terrain]:
    """100 seeded terrains with up to 200 vertical edges."""

    return [
        random_terrain(GenSpec(seed=50_000 + i, steps=2 + 2 * i, max_run=9, max_rise=9))
        for i in range(100)
    ]


@pytest.fixture(scope="module")
def order_corpus() -> list[Terrain]:
    """200 seeded terrains with n <= 40 for the exhaustive 4-tuple check."""

    return [
        random_terrain(GenSpec(seed=80_000 + i, steps=2 + i % 19, max_run=7, max_rise=7))
        for i in range(200)
    ]


def test_criterion_1_exactness_vs_oracle(main_corpus, comb_corpus):
    started = time.monotonic()
    feasible = infeasible = 0
    for t in main_corpus + comb_corpus:
        m = build(t, visibility_relation(t))
        result = solve(t, allow_partial=True)
        if isinstance(result, InfeasibilityReport):
            with pytest.raises(EmptyRow):
                brute_force_optimum(m)
            keep = [i for i, row in enumerate(m.rows) if row]
            if keep:
                sub_entries = [[int(j in m.rows[i]) for j in range(m.k_prime)] for i in keep]
                sub = matrix_from_entries(sub_entries)
                assert result.partial is not None
                assert result.partial.size == brute_force_optimum(sub)[0]
            infeasible += 1
        else:
            assert result.size == brute_force_optimum(m)[0]
            feasible += 1
    elapsed = time.monotonic() - started
    assert elapsed < 120, f"criterion 1 exceeded its 2 minute budget: {elapsed:.1f}s"
    _report(
        1,
        f"greedy == brute force on {feasible} feasible and {infeasible} infeasible "
        f"terrains in {elapsed:.1f}s",
    )


def test_criterion_2_built_matrices_in_greedy_form(main_corpus, comb_corpus, large_corpus):
    checked = 0
    for t in main_corpus + comb_corpus + large_corpus:
        m = build(t, visibility_relation(t))
        assert find_greedy_form_violation(m) is None, (t.xs, t.ys)
        checked += 1
    _report(2, f"zero forbidden patterns over {checked} built matrices (steps up to 200)")


def test_criterion_3_totally_balanced_cross_check(main_corpus):
    checked = 0
    for t in main_corpus:
        if t.n // 2 <= 8:
            m = build(t, visibility_relation(t))
            assert oracle_totally_balanced(dense(m)) is True, (t.xs, t.ys)
            checked += 1
    three_cycle = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert oracle_totally_balanced(three_cycle) is False
    forbidden = matrix_from_entries([[1, 1], [1, 0]])
    assert find_greedy_form_violation(forbidden) == Violation(0, 1, 0, 1)
    _report(3, f"{checked} small built matrices balanced; 3-cycle and forbidden pattern detected")


def test_criterion_4_crossing_sightlines_imply_outer_visibility(order_corpus):
    started = time.monotonic()
    tuples = 0
    for t in order_corpus:
        n = t.n
        assert n <= 40
        see = [0] * n
        for a in range(n):
            for b in range(a + 1, n):
                if sees(t, a, b):
                    see[a] |= 1 << b
                    see[b] |= 1 << a
        xs = t.xs
        for p in range(n):
            for r in range(p + 1, n):
                if not (see[p] >> r) & 1 or xs[r] <= xs[p]:
                    continue
                between = 0
                for q in range(p + 1, r):
                    if xs[p] < xs[q] < xs[r]:
                        between |= 1 << q
                if not between:
                    continue
                for s in range(r + 1, n):
                    if xs[s] <= xs[r]:
                        continue
                    witnesses = between & see[s]
                    tuples += bin(witnesses).count("1")
                    if witnesses and not (see[p] >> s) & 1:
                        raise AssertionError(
                            f"order violation p={p} r={r} s={s} on {(t.xs, t.ys)}"
                        )
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 4 exceeded its 1 minute budget: {elapsed:.1f}s"
    _report(4, f"zero counterexamples over {tuples} antecedent 4-tuples in {elapsed:.1f}s")


def test_criterion_5_side_and_height_structure(main_corpus):
    pairs = 0
    for t in main_corpus:
        sides_covered: dict[int, set[VertexClass]] = {}
        for g, c in visibility_relation(t).pairs:
            gc, cc = t.classes[g], t.classes[c]
            assert (gc, cc) in ((RR, RC), (LR, LC)), ((t.xs, t.ys), g, c)
            assert t.ys[g] > t.ys[c]
            assert (t.xs[g] < t.xs[c]) if gc is RR else (t.xs[g] > t.xs[c])
            sides_covered.setdefault(g, set()).add(cc)
            pairs += 1
        assert all(len(s) == 1 for s in sides_covered.values())
    _report(5, f"{pairs} visible pairs, all same-side with guard above and on the open side")


def test_criterion_6_infeasibility_handling():
    for k in range(1, 7):
        t = descending_staircase(k)
        result = solve(t)
        assert isinstance(result, InfeasibilityReport)
        assert len(result.unguardable) == k
        for c in result.unguardable:
            unpruned = [r for r, cls in enumerate(t.classes) if cls.is_reflex and sees(t, r, c)]
            assert unpruned == []
    valley = valley_comb(1, width=10, depth=10)
    sol = solve(valley)
    assert isinstance(sol, GuardSolution)
    assert sol.size == 2
    assert sol.guards == (0, 3)
    _report(6, "staircases k=1..6 report exactly k unguardable; square valley solved by {v0, v3}")


def test_criterion_7_pruned_equals_unpruned(main_corpus):
    checked = 0
    for t in main_corpus:
        for c in convex_indices(t):
            unpruned = tuple(
                r for r, cls in enumerate(t.classes) if cls.is_reflex and sees(t, r, c)
            )
            assert candidate_guards(t, c) == unpruned, ((t.xs, t.ys), c)
            checked += 1
    _report(7, f"pruned candidate sets equal unpruned brute force for {checked} convex vertices")


def test_criterion_8_determinism_and_round_trip(main_corpus):
    for t in main_corpus:
        assert parse(serialize(t)) == t
    for t in main_corpus[:50]:
        first = solve(t, allow_partial=True)
        second = solve(t, allow_partial=True)
        assert first == second and repr(first) == repr(second)
        sol = first if isinstance(first, GuardSolution) else first.partial
        assert emit_svg(t, sol) == emit_svg(t, sol)
        ET.fromstring(emit_svg(t, sol))
    for i in (0, 17, 101):
        spec = GenSpec(seed=123 + i, steps=5 + i % 9)
        assert random_terrain(spec) == random_terrain(spec)
    _report(8, "serialize/parse identity on 1000 terrains; solve, svg and generator byte-stable")


def test_criterion_9_scale_smoke():
    t = random_terrain(GenSpec(seed=424242, steps=5000))
    assert t.n == 10_000
    started = time.monotonic()
    result = solve(t, allow_partial=True)
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 9 exceeded its 60s budget: {elapsed:.1f}s"
    covered = (
        result.size
        if isinstance(result, GuardSolution)
        else result.partial.size if result.partial else 0
    )
    _report(9, f"solve on n=10000 finished in {elapsed:.2f}s ({covered} guards chosen)")


def test_criterion_9_bowl_smoke():
    # 64M visible pairs, covered by 2 guards: listing every pair takes seconds
    t = convex_bowl(8000)
    assert t.n == 32_000
    started = time.monotonic()
    result = solve(t, allow_partial=True)
    elapsed = time.monotonic() - started
    assert elapsed < 2, f"criterion 9 exceeded its 2s budget: {elapsed:.2f}s"
    _report(9, f"solve on convex_bowl(8000), n=32000, in {elapsed:.3f}s ({result.size} guards)")


def test_criterion_9_next_guard_smoke():
    # 1000 times a chosen guard is popped over 100 001 step tops that no
    # target chose: searching the stack for the next one takes seconds
    t = gadgets_under_staircase(100_000, 1000)
    assert t.n == 208_002
    started = time.monotonic()
    result = solve(t, allow_partial=True)
    elapsed = time.monotonic() - started
    assert elapsed < 1, f"criterion 9 exceeded its 1s budget: {elapsed:.2f}s"
    guards = result.partial.size
    _report(9, f"solve on gadgets_under_staircase(100000, 1000) in {elapsed:.3f}s ({guards} guards)")


@pytest.mark.parametrize(
    "family, make",
    [("ascending", ascending_staircase), ("descending", descending_staircase)],
)
def test_criterion_9_staircase_visibility_smoke(family, make):
    # a vertex-by-vertex sweep never stops early on either staircase
    t = make(20_000)
    assert t.n == 40_000
    started = time.monotonic()
    pairs = visibility_relation(t).pairs
    elapsed = time.monotonic() - started
    assert elapsed < 10, f"criterion 9 exceeded its 10s budget: {elapsed:.1f}s"
    _report(9, f"visibility on the {family} staircase, n=40000: {elapsed:.2f}s, {len(pairs)} pairs")
