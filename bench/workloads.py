"""Seeded inputs of the four benchmark workloads.

Every workload is a pure function of its seed: ``recipes(name, seed)``
makes the same terrains for the same seed.  The two adversarial families live here
rather than in the package, so the program only ever sees finished terrains.
All draws come from the package's SplitMix64, so the inputs reproduce bit
for bit on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from terrainguard import GenSpec, SplitMix64, Terrain, random_terrain, validate

Points = list[tuple[int, int]]


def staircase_points(seed: int, k: int, max_run: int = 8, max_drop: int = 8) -> Points:
    """k steps straight down with seeded run and drop lengths.

    Every step bottom is a left-convex vertex with nothing higher to its
    right, so all k are unguardable and the relation is empty.  The sweep's
    early stop never fires, because the first vertex is the highest one, so
    visibility is quadratic here.
    """

    rng = SplitMix64(seed)
    x = y = 0
    pts = [(0, 0)]
    for s in range(k):
        y -= 1 + rng.next() % max_drop
        pts.append((x, y))
        if s < k - 1:
            x += 1 + rng.next() % max_run
            pts.append((x, y))
    return pts


def bowl_points(seed: int, k: int, max_step: int = 3) -> Points:
    """A convex bowl: k descending steps, then k ascending steps, run 1.

    Drops shrink strictly towards the floor and rises grow strictly away
    from it, so the step corners lie on a strictly convex curve and every
    left step top sees every right step bottom (and vice versa): the
    relation has Theta(k^2) pairs and two guards cover everything.
    """

    rng = SplitMix64(seed)
    # strictly decreasing drops, built from the floor outwards
    drops = []
    d = 0
    for _ in range(k):
        d += 1 + rng.next() % max_step
        drops.append(d)
    drops.reverse()
    rises = []
    r = 0
    for _ in range(k):
        r += 1 + rng.next() % max_step
        rises.append(r)
    x, y = 0, sum(drops)
    pts = [(x, y)]
    for d in drops:
        y -= d
        pts.append((x, y))
        x += 1
        pts.append((x, y))
    for i, r in enumerate(rises):
        y += r
        pts.append((x, y))
        if i < k - 1:
            x += 1
            pts.append((x, y))
    return pts


RANDOM_TERRAINS = 48
RANDOM_STEPS = 500
STAIRCASE_TERRAINS = 12
STAIRCASE_STEPS = 400
BOWL_TERRAINS = 10
BOWL_STEPS = 150
BATCH_TERRAINS = 2000
BATCH_STEPS = (2, 25)


@dataclass(frozen=True)
class Recipe:
    """How to make one terrain: ``gen(*args)`` yields a Terrain or raw points."""

    gen: Callable
    args: tuple

    def generate(self):
        return self.gen(*self.args)

    def build(self) -> Terrain:
        out = self.generate()
        return out if isinstance(out, Terrain) else validate(out)


def _random(seed: int, steps: int) -> Terrain:
    return random_terrain(GenSpec(seed=seed, steps=steps))


def _derive(seed: int, i: int) -> int:
    """Seed of the i-th terrain of a workload, decorrelated from the others."""

    return SplitMix64(seed * 0x100000001B3 + i).next()


def recipes(workload: str, seed: int) -> list[Recipe]:
    if workload == "random-sparse":
        return [Recipe(_random, (_derive(seed, i), RANDOM_STEPS)) for i in range(RANDOM_TERRAINS)]
    if workload == "staircase-infeasible":
        return [Recipe(staircase_points, (_derive(seed, i), STAIRCASE_STEPS)) for i in range(STAIRCASE_TERRAINS)]
    if workload == "bowl-dense":
        return [Recipe(bowl_points, (_derive(seed, i), BOWL_STEPS)) for i in range(BOWL_TERRAINS)]
    if workload == "small-batch":
        lo, hi = BATCH_STEPS
        rng = SplitMix64(seed)
        return [
            Recipe(_random, (_derive(seed, i), lo + rng.next() % (hi - lo + 1)))
            for i in range(BATCH_TERRAINS)
        ]
    raise ValueError(f"unknown workload {workload!r}")


