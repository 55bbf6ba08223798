"""Deterministic terrain generation for tests and experiments.

Random terrains are driven by SplitMix64, chosen because its full behaviour
is pinned by three multiplicative constants and therefore reproduces bit for
bit on any platform or language.  Draw order per terrain, starting from the
seed: for each vertical edge, first the rise magnitude (1 + next % max_rise)
then the direction bit (next & 1, set means downward); after every vertical
edge except the last, the horizontal run length (1 + next % max_run).  The
chain starts at (0, 0).

The two parametric families are adversarial fixtures: descending staircases
are maximally infeasible (every step bottom is unguardable), valley combs
are always feasible with a known structure.
"""

from __future__ import annotations

from dataclasses import dataclass

from .geometry import COORD_LIMIT, Terrain

_MASK64 = (1 << 64) - 1


class BoundsExceeded(ValueError):
    pass


class SplitMix64:
    """The standard splitmix64 sequence; next() yields 64-bit integers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


@dataclass(frozen=True)
class GenSpec:
    """Parameters of one random terrain; equal specs give equal terrains."""

    seed: int
    steps: int
    max_run: int = 10
    max_rise: int = 10

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.max_run < 1:
            raise ValueError(f"max_run must be >= 1, got {self.max_run}")
        if self.max_rise < 1:
            raise ValueError(f"max_rise must be >= 1, got {self.max_rise}")
        # worst-case cumulative coordinates must stay inside geometry bounds
        if self.steps * self.max_rise > COORD_LIMIT or (self.steps - 1) * self.max_run > COORD_LIMIT:
            raise BoundsExceeded(
                f"steps={self.steps} with max_run={self.max_run}, max_rise={self.max_rise} "
                f"could overflow |coord| <= 2^30"
            )


def random_terrain(spec: GenSpec) -> Terrain:
    """Seeded random terrain with ``spec.steps`` vertical edges (n = 2*steps)."""

    rng = SplitMix64(spec.seed)
    x = y = 0
    xs, ys = [0], [0]
    for s in range(spec.steps):
        magnitude = 1 + rng.next() % spec.max_rise
        y += -magnitude if rng.next() & 1 else magnitude
        xs.append(x)
        ys.append(y)
        if s < spec.steps - 1:
            x += 1 + rng.next() % spec.max_run
            xs.append(x)
            ys.append(y)
    return Terrain(xs, ys)


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
