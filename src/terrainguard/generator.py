"""Deterministic terrain generation for tests and experiments.

Random terrains are driven by SplitMix64, chosen because its full behaviour
is pinned by three multiplicative constants and therefore reproduces bit for
bit on any platform or language.  Draw order per terrain, starting from the
seed: for each vertical edge, first the rise magnitude (1 + next % max_rise)
then the direction bit (next & 1, set means downward), then the horizontal
run length (1 + next % max_run) that leads to the next vertical edge.  The
last edge's run is drawn but not used.  The chain starts at (0, 0).

random_terrain takes all its draws from one SplitMix64.draws call: the
generator's state is a counter, so draws() mixes 192 of them at a time in the
lanes of one Python int instead of one next() each.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from itertools import accumulate

from .geometry import COORD_LIMIT, Terrain

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_LANES = 192  # draws mixed at once in SplitMix64.draws: 64 vertical edges


def _lane_constants() -> tuple[int, int, int]:
    """The ones, the gamma ramp and the lane mask of a full draws() chunk.

    Each is an int read from (value, 0) word pairs, one pair per lane, and
    lane i's values are 1, (i + 1) * gamma mod 2^64 and 2^64 - 1.
    """

    words = array("Q", bytes(16 * _LANES))  # (value, 0) per lane
    words[0::2] = array("Q", range(1, _LANES + 1))
    ramp = int.from_bytes(words, sys.byteorder)
    words[0::2] = array("Q", [1]) * _LANES
    ones = int.from_bytes(words, sys.byteorder)
    mask = ones * _MASK64
    return ones, _GAMMA * ramp & mask, mask


_LANE_CONSTANTS = _lane_constants()


class BoundsExceeded(ValueError):
    pass


class SplitMix64:
    """The standard splitmix64 sequence; next() yields 64-bit integers."""

    def __init__(self, seed: int):
        # exactly int, as for GenSpec: no bool, float or str
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, got {seed!r}")
        self._state = seed & _MASK64

    def next(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def draws(self, k: int) -> array:
        """The next k outputs as an ``array('Q')``, exactly as k calls of
        next() would give them; the state advances by k.

        The state after i more draws is ``state + i * gamma mod 2^64``, so
        _LANES draws at a time are mixed at once, SIMD within one int: lane
        i sits at bits 128i to 128i + 63 and starts as ``state + (i + 1) *
        gamma``, the state times the ones plus the gamma ramp, two of the
        lane constants made once at import.  Each lane is masked back to 64
        bits after every shift and multiply; a 64-bit lane times a 64-bit
        constant fits in 128 bits, so no product carries into the next lane.
        Beyond its output, this needs the memory of one chunk.

        Lanes go between int and array through sys.byteorder, as array is
        native-endian.  On a big-endian host the lanes run from the int's
        top down and each lane's value is the high half of its 128 bits, and
        the same holds: the free half is masked before every shift, and
        products carry only into it.
        """

        if type(k) is not int or k < 0:
            raise ValueError(f"k must be a non-negative int, got {k!r}")
        out = array("Q")
        for done in range(0, k, _LANES):
            lanes = min(_LANES, k - done)
            ones, ramp, mask = _LANE_CONSTANTS
            if lanes < _LANES:
                # a last, shorter chunk takes the constants' first lanes in
                # memory order: the int's low ones, its high ones on big-endian
                if sys.byteorder == "big":
                    drop = 128 * (_LANES - lanes)
                    ones, ramp, mask = ones >> drop, ramp >> drop, mask >> drop
                else:
                    low = (1 << 128 * lanes) - 1
                    ones, ramp, mask = ones & low, ramp & low, mask & low
            z = (self._state * ones + ramp) & mask
            z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
            z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
            z = (z ^ (z >> 31)) & mask
            self._state = (self._state + lanes * _GAMMA) & _MASK64
            out += array("Q", z.to_bytes(16 * lanes, sys.byteorder))[0::2]
        return out


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

    steps, max_run, max_rise = spec.steps, spec.max_run, spec.max_rise
    # three draws per vertical edge: magnitude, direction, run
    d = SplitMix64(spec.seed).draws(3 * steps)
    rises = [-1 - m % max_rise if down & 1 else 1 + m % max_rise for m, down in zip(d[0::3], d[1::3])]
    runs = [1 + r % max_run for r in d[2::3]]
    # vertical edge s runs from vertex 2s to 2s + 1; the horizontal edge after
    # it keeps 2s + 1's height and ends at vertex 2s + 2, one run further
    ys = [0] * (2 * steps)
    ys[1::2] = accumulate(rises)
    ys[2::2] = ys[1:-1:2]
    xs = [0] * (2 * steps)
    xs[2::2] = accumulate(runs[:-1])  # the last edge's run is unused
    xs[3::2] = xs[2::2]
    del d, rises, runs  # Terrain's copies of xs and ys can reuse their memory
    return Terrain(xs, ys)
