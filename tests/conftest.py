from __future__ import annotations

import pytest
from hypothesis import strategies as st

from terrainguard import GenSpec, Terrain, random_terrain, validate

SQUARE_VALLEY = [(0, 10), (0, 0), (10, 0), (10, 10)]
SINGLE_STEP_UP = [(0, 0), (0, 10)]
# one high ledge whose far corner is hidden behind the middle rim
BLOCKED_LEDGE = [(0, 10), (0, 6), (10, 6), (10, 0), (20, 0), (20, 10)]


@pytest.fixture
def square_valley() -> Terrain:
    return validate(SQUARE_VALLEY)


@pytest.fixture
def single_step_up() -> Terrain:
    return validate(SINGLE_STEP_UP)


@pytest.fixture
def blocked_ledge() -> Terrain:
    return validate(BLOCKED_LEDGE)


def ascending_staircase(steps: int) -> Terrain:
    """Unit steps up (run 1, rise 1): every target looks left at lower ground."""

    return validate([p for k in range(steps) for p in ((k, k), (k, k + 1))])


def descending_staircase(k: int, run: int = 3, drop: int = 2) -> Terrain:
    """k steps straight down, left to right.

    Every step bottom is a left-convex vertex with nothing higher to its
    right, so all k of them are unguardable.
    """

    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if run < 1 or drop < 1:
        raise ValueError("run and drop must be >= 1")
    x = y = 0
    xs, ys = [0], [0]
    for s in range(k):
        y -= drop
        xs.append(x)
        ys.append(y)
        if s < k - 1:
            x += run
            xs.append(x)
            ys.append(y)
    return Terrain(xs, ys)


def valley_comb(m: int, width: int = 10, depth: int = 10, gap: int = 5) -> Terrain:
    """m rectangular valleys of the given width and depth cut into a flat rim.

    The rim sits at y = depth and each valley floor at y = 0, with ``gap``
    units of rim between consecutive valleys.  Each floor corner is seen by
    the rim corner diagonally above it, so the instance is always feasible.
    """

    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if width < 1 or depth < 1 or gap < 1:
        raise ValueError("width, depth and gap must be >= 1")
    xs: list[int] = []
    ys: list[int] = []
    x = 0
    for i in range(m):
        if i:
            x += gap
        xs += [x, x, x + width, x + width]
        ys += [depth, 0, 0, depth]
        x += width
    return Terrain(xs, ys)


def tooth_wall_spike(m: int, ascent: int) -> Terrain:
    """Adversary for chain sweeps: m teeth of heights 0/1, a wall of height
    4m + 4, ``ascent`` unit steps rising above the wall, then a spike.

    Every tooth bottom looks right past the wall; the ascent stays below the
    wall's sightline, yet each of its steps is a new highest vertex, so every
    tooth's chain visits all of them before the spike.  Pairs are O(m), hops
    are Theta(m * ascent).
    """

    wall = 4 * m + 4
    heights = [1, 0] * m + [wall] + [wall + 1 + j for j in range(ascent)]
    heights.append(wall * (2 * m + ascent + 4))  # steeper from every tooth than the wall
    return _unit_run_terrain(heights)


def convex_bowl(k: int) -> Terrain:
    """k unit-run steps down with drops k, k - 1, ..., 1, then k up with rises
    1, 2, ..., k.  The step corners lie on a strictly convex curve, so the
    relation is dense: every vertex a sweep hops to is visible, and a step
    bottom sees every step top across the floor that is higher than it."""

    heights = [0]
    for d in range(k, 0, -1):
        heights.append(heights[-1] - d)
    for r in range(1, k + 1):
        heights.append(heights[-1] + r)
    return _unit_run_terrain(heights)


def comb_under_spike(m: int) -> Terrain:
    """m unit valleys of depth 1 between rims of equal height, then a spike
    of height 4m.  A floor's right corner sees only the rim corner to its
    left, and the spike keeps the early stop from ending its walk over the
    rims further left, so a sweep must drop a rim once a rim of equal height
    comes after it."""

    return _unit_run_terrain([1, 0] * m + [1, 4 * m])


def staircase_over_comb(m: int) -> Terrain:
    """m unit steps down from height 3m to 2m, then m unit valleys of depth m.
    A floor's right corner sees only the rim corner to its left, which hides
    all of the staircase, so only the early stop keeps its walk off the m
    staircase tops."""

    return _unit_run_terrain([3 * m - i for i in range(m + 1)] + [0, m] * m)


def gadgets_under_staircase(d: int, m: int) -> Terrain:
    """d unit steps down, a floor long enough that no later sightline
    reaches them, then m gadgets: three steps down into a pit, and a rise
    one unit above the gadget's highest top.

    Each pit sees its gadget's three tops and forces the highest, which the
    next rise pops.  So the sweep's stack keeps the d step tops, which no
    target chooses, beneath a chosen guard that is popped m times: finding
    the lowest-rank chosen guard left by searching the stack costs Theta(d)
    per gadget.
    """

    if d < 1 or m < 1:
        raise ValueError("d and m must be >= 1")
    top = m + 20  # above every gadget
    pts = [p for k in range(d) for p in ((k, top + d - k), (k, top + d - k - 1))]
    pts += [(d, top), (d, 10)]
    x = 2 * d + m + 20
    for a in range(10, 10 + m):
        pts += [(x, a), (x, a - 4), (x + 1, a - 4), (x + 1, a - 7), (x + 2, a - 7), (x + 2, a - 9)]
        pts += [(x + 3, a - 9), (x + 3, a + 1)]
        x += 4
    return validate(pts)


def walled(t: Terrain) -> Terrain:
    """t between two vertical walls one unit higher than its highest vertex.

    The left wall's top is behind every right-convex vertex and the right
    wall's top behind every left-convex one, both strictly higher, so by the
    feasibility rule (``oracle_unguardable``) every walled terrain is
    feasible.  The walls add two vertices at each end, one unit out.
    """

    xs, ys, top = t.xs, t.ys, max(t.ys) + 1
    left, right = xs[0] - 1, xs[-1] + 1
    return Terrain([left, left, *xs, right, right], [top, ys[0], *ys, ys[-1], top])


def _unit_run_terrain(heights: list[int]) -> Terrain:
    """Vertical edge k at x = k, from heights[k] up or down to heights[k + 1]."""

    pts = []
    for k in range(len(heights) - 1):
        pts += [(k, heights[k]), (k, heights[k + 1])]
    return validate(pts)


@st.composite
def terrains(draw, max_steps: int = 30) -> Terrain:
    """Random terrains with short runs and small rises, so equal heights,
    collinear vertices and blocked sightlines are common."""

    rises = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=max_steps))
    runs = draw(st.lists(st.integers(1, 3), min_size=len(rises), max_size=len(rises)))
    x, y = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    pts = []
    for rise, run in zip(rises, runs):
        pts += [(x, y), (x, y + rise)]
        x, y = x + run, y + rise
    return validate(pts)


def small_corpus(count: int = 120, max_steps: int = 8, seed0: int = 1000) -> list[Terrain]:
    """Small seeded terrains for exhaustive pairwise checks."""

    out = []
    for k in range(count):
        steps = 1 + (k % max_steps)
        out.append(random_terrain(GenSpec(seed=seed0 + k, steps=steps, max_run=6, max_rise=6)))
    return out


@pytest.fixture(scope="session")
def corpus() -> list[Terrain]:
    return small_corpus()


@pytest.fixture(scope="session")
def seeded_terrains() -> list[Terrain]:
    """300 seeded random terrains of 1 to 300 steps, each also walled."""

    found = [
        random_terrain(GenSpec(seed=60_000 + k, steps=1 + k, max_run=1 + k % 6, max_rise=1 + k % 8))
        for k in range(300)
    ]
    return found + [walled(t) for t in found]


@pytest.fixture(scope="session")
def random_200k() -> Terrain:
    """n = 200 000, the size the CLI's --random allows at most."""

    return random_terrain(GenSpec(seed=424242, steps=100_000))


@pytest.fixture(scope="session")
def medium_corpus() -> list[Terrain]:
    return [
        random_terrain(GenSpec(seed=7000 + k, steps=2 + (k % 11), max_run=8, max_rise=8))
        for k in range(150)
    ]
