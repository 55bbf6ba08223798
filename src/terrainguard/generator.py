"""Deterministic terrain generation for tests and experiments.

Random terrains are driven by SplitMix64, chosen because its full behaviour
is pinned by three multiplicative constants and therefore reproduces bit for
bit on any platform or language.  Draw order per terrain, starting from the
seed: for each vertical edge, first the rise magnitude (1 + next % max_rise)
then the direction bit (next & 1, set means downward); after every vertical
edge except the last, the horizontal run length (1 + next % max_run).  The
chain starts at (0, 0).
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
        # exactly int, as for Terrain's coordinates: no bool, float or str
        for name in ("seed", "steps", "max_run", "max_rise"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
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
