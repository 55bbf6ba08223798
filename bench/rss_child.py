"""Peak-memory probe, run as a child process of the benchmark.

Usage: python3 bench/rss_child.py WORKLOAD SEED

Notes ``ru_maxrss`` once the harness is imported, makes the workload's
terrains, solves each with ``allow_partial=True`` and prints that starting
value and the growth of ``ru_maxrss`` since, both in KiB: the resident
memory that loading and solving the terrains added to the interpreter.

A child inherits its parent's ``ru_maxrss`` at fork, so the parent must
start this probe before it has grown past the probe's own footprint.
Importing the harness, which loads everything a timed run loads, keeps
that footprint clear of a parent that has not imported it yet.
"""

import resource
import sys

import harness  # noqa: F401  (also puts the package on sys.path)
from terrainguard import solve
from workloads import recipes


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(workload: str, seed: int) -> None:
    base = _maxrss_kib()
    terrains = [r.build() for r in recipes(workload, seed)]
    for t in terrains:
        solve(t, allow_partial=True)
    print(base, _maxrss_kib() - base)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
