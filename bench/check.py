"""Correctness check of one solve result, run outside every timed region.

``problems`` returns a list of findings, empty when the result is right:

* Coverage: the covered targets are exactly the convex vertices not
  reported unguardable, and each one's assigned guard is a chosen reflex
  vertex that sees it by the pairwise test ``sees`` (not the sweep).
* Unguardable: a seeded sample of the reported unguardable targets has no
  ``candidate_guards``; every target is sampled on small instances.
* Optimality: targets are scanned in the permuted row order (right-convex
  left to right, then left-convex right to left) and each one whose guards
  are disjoint from those of the targets already taken is taken.  Taken
  targets pairwise share no guard, so they force that many guards; the
  packing must be as large as the guard set.  The packing reads guard sets
  from ``visibility_relation``, so a seeded sample of the taken targets is
  held against ``candidate_guards`` too.
* Brute force: with at most ``BRUTE_FORCE_COLUMNS`` reflex vertices the
  guardable sub-matrix also goes through ``brute_force_optimum``.
"""

from __future__ import annotations

import random

from terrainguard import (
    CoverMatrix,
    GuardSolution,
    InfeasibilityReport,
    Terrain,
    VertexClass,
    brute_force_optimum,
    build,
    candidate_guards,
    convex_indices,
    sees,
    visibility_relation,
)

SAMPLE = 24
BRUTE_FORCE_COLUMNS = 16


def row_order(t: Terrain) -> list[int]:
    """Convex vertices in the cover matrix's row order."""

    rc = [i for i, c in enumerate(t.classes) if c is VertexClass.RIGHT_CONVEX]
    lc = [i for i, c in enumerate(t.classes) if c is VertexClass.LEFT_CONVEX]
    return rc + lc[::-1]


def problems(t: Terrain, result: GuardSolution | InfeasibilityReport, seed: int) -> list[str]:
    if isinstance(result, GuardSolution):
        sol, unguardable = result, ()
    else:
        sol, unguardable = result.partial, result.unguardable
        if sol is None:
            return ["infeasible result carries no partial solution"]
        if not unguardable:
            return ["infeasibility report names no unguardable target"]
    rng = random.Random(seed)
    out: list[str] = []

    guards = set(sol.guards)
    if list(sol.guards) != sorted(guards):
        out.append("guards are not distinct and in chain order")
    out += [f"guard {g} is not reflex" for g in guards if not t.classes[g].is_reflex]
    convex = set(convex_indices(t))
    expected = convex - set(unguardable)
    if set(sol.assignment) != expected:
        out.append(f"{len(set(sol.assignment) ^ expected)} targets covered wrongly or not at all")
    for c, g in sol.assignment.items():
        if g not in guards:
            out.append(f"target {c} assigned to {g}, which is not a guard")
        elif not sees(t, g, c):
            out.append(f"guard {g} does not see its target {c}")

    for c in _sample(rng, unguardable):
        if candidate_guards(t, c):
            out.append(f"target {c} reported unguardable but has candidate guards")

    rel = visibility_relation(t)
    seen_by: dict[int, list[int]] = {}
    for g, c in rel.pairs:
        seen_by.setdefault(c, []).append(g)
    if set(unguardable) != convex - set(seen_by):
        out.append("unguardable targets disagree with the visibility relation")
    used: set[int] = set()
    packing: list[int] = []
    for c in row_order(t):
        gs = seen_by.get(c, ())
        if gs and used.isdisjoint(gs):
            packing.append(c)
            used.update(gs)
    if len(packing) != len(guards):
        out.append(f"packing of {len(packing)} targets does not match {len(guards)} guards")
    for c in _sample(rng, packing):
        if candidate_guards(t, c) != tuple(seen_by[c]):
            out.append(f"target {c}: relation disagrees with candidate_guards")

    if t.n // 2 <= BRUTE_FORCE_COLUMNS:
        m = build(t, rel)
        keep = [i for i, row in enumerate(m.rows) if row]
        sub = CoverMatrix(tuple(m.rows[i] for i in keep), tuple(m.row_labels[i] for i in keep), m.col_labels)
        optimum, _ = brute_force_optimum(sub)
        if optimum != len(guards):
            out.append(f"brute force finds {optimum} guards, solver {len(guards)}")
    return out


def _sample(rng: random.Random, items) -> list[int]:
    items = list(items)
    return items if len(items) <= SAMPLE else rng.sample(items, SAMPLE)
