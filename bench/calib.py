"""Host-speed calibration: a fixed reference loop run between the measured calls.

The benchmark runs on a shared host whose speed swings by up to 1.7x for
tens of seconds at a time (a fixed Python loop took 12.5 ms in one spell and
22 ms in the next on the 2-vCPU Xeon this was written on).  No statistic
inside one run removes a spell that covers the whole run, so every pass runs
slices of ``unit`` between the terrains it times, and its times are scaled by
``UNIT_S`` over the measured seconds per unit: a time is reported in seconds
on a host that runs one unit in ``UNIT_S``.  The loop does not use the
package, so a change to the program moves the scaled times as it moves the
raw ones, while a slow spell slows both the program and the loop.
"""

from __future__ import annotations

from time import perf_counter

UNIT_S = 1.0e-3  # nominal seconds per unit; about what one takes on that host
UNIT_LOOPS = 2000
CAL_SHARE = 0.1  # calibration time per pass, as a share of the measured work
CHUNK_S = 0.05  # least work between two calibration slices

_XS = [(i * 37) % 101 - 50 for i in range(64)]
_YS = [(i * 59) % 97 - 48 for i in range(64)]


def unit() -> int:
    """Fixed work resembling the package's: cross products, list indexing,
    tuple compares, dict stores and big-integer bit operations."""

    xs, ys = _XS, _YS
    acc = mask = 0
    seen = {}
    for i in range(UNIT_LOOPS):
        a = i & 63
        b = (i * 7 + 3) & 63
        c = xs[a] * ys[b] - xs[b] * ys[a]
        if (c, a) > (0, b):
            mask |= 1 << (i & 255)
        acc += c
        seen[a] = c
    return acc + (mask & 0xFFFF) + len(seen)


def unit_seconds(reps: int = 50) -> float:
    t0 = perf_counter()
    for _ in range(reps):
        unit()
    return (perf_counter() - t0) / reps


def plan(work_s: list[float], per_unit_s: float) -> list[tuple[int, int]]:
    """Calibration slices for one pass over items whose work took ``work_s``.

    Returns (end, units) pairs: after item ``end - 1`` run ``units`` units.
    Items are grouped until a group holds ``CHUNK_S`` of work, and each group
    is followed by ``CAL_SHARE`` of its work in units (at least one).
    """

    out = []
    acc = 0.0
    for i, w in enumerate(work_s):
        acc += w
        if acc >= CHUNK_S or i == len(work_s) - 1:
            out.append((i + 1, max(1, round(CAL_SHARE * acc / per_unit_s))))
            acc = 0.0
    return out


class Clock:
    """Calibration slices of one pass and the factor they give."""

    def __init__(self) -> None:
        self.units = 0
        self.seconds = 0.0

    def run(self, units: int) -> None:
        t0 = perf_counter()
        for _ in range(units):
            unit()
        self.seconds += perf_counter() - t0
        self.units += units

    def factor(self) -> float:
        """Nominal over measured seconds per unit: multiply raw times by it."""

        return UNIT_S * self.units / self.seconds
