"""terrainguard benchmark: seeded workloads, timed from outside the package.

Usage:
    python3 bench/run.py --workload NAME --seed N [--seconds S] [--trace 0|1] [--spans FILE]
    python3 bench/run.py --workload all --seed N      # every workload in turn

Single process, single thread, standard library only.  The seed makes the
workload's terrains (workloads.py); the package only receives them.

--trace 0 measures the end-to-end metrics with tracing off; a time is the
median over passes of the pass's sum over the terrains, scaled by the host
speed that calibration slices run within the same pass gave (harness.measure,
calib.py):
    setup_s         generate and validate the terrains
    solve_s         solve(t, allow_partial=True) over them
    cli_s           in-process cli.run(["--input", FILE, "--allow-partial"])
                    over their files, stdout captured
    throughput_vps  vertices solved per second, total n / solve_s
    peak_rss_mib    ru_maxrss growth of a child process while it makes and
                    solves the terrains (rss_child.py)
--trace 1 is a separate run that calls each layer's public functions under
spans (spans.py) and reports per-layer times and exact counts.

Both modes check every output (check.py, outside the timed regions) and
print fail_ratio, the share of attempted operations whose output failed.
The last stdout line is one JSON object {correct, attempted, failed,
metrics}; the exit code is 1 when any output failed.
"""

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Spelled out here rather than imported from workloads.py, which loads the
# package: this process must stay small until the memory probe has run.
WORKLOADS = ("random-sparse", "staircase-infeasible", "bowl-dense", "small-batch")


def peak_rss_mib(workload: str, seed: int) -> float:
    """ru_maxrss growth of one probe child, in MiB.

    A child starts from its parent's ru_maxrss, so this runs before the
    harness is imported, while this process is still smaller than the
    probe's interpreter; the check below rejects a reading that starts
    from the inherited value.
    """

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    proc = subprocess.run(
        [sys.executable, "-B", str(HERE / "rss_child.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=150, check=True,
    )
    base, grown = map(int, proc.stdout.split())
    if base <= own:
        raise RuntimeError(f"memory probe started at {base} KiB, not above the inherited {own} KiB")
    return grown / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", metavar="FILE", help="with --trace 1, write the spans here as JSON lines")
    args = ap.parse_args(argv)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    rss = {} if args.trace else {name: peak_rss_mib(name, args.seed) for name in names}

    import harness  # only after the probes: it loads the package and grows this process

    print(f"# machine {json.dumps(harness.machine())}")
    attempted = failed = 0
    out = {}
    for name in names:
        metrics, tried, bad, passes, factor, sizes = harness.run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.spans
        )
        if not args.trace:
            metrics["peak_rss_mib"] = rss[name]
        print(
            f"# {name} seed={args.seed} trace={args.trace} passes={passes} host_factor={factor:.4f}"
            f" sizes {json.dumps(sizes)}"
        )
        for key, value in metrics.items():
            print(f"{name:22s} {key:30s} {value:>16.6g} {harness.unit(key)}")
        print(f"{name:22s} {'fail_ratio':30s} {bad / tried:>16.6g} ({bad} of {tried})")
        attempted += tried
        failed += bad
        prefix = "" if len(names) == 1 else f"{name}/"
        out.update({prefix + k: {"value": v, "unit": harness.unit(k)} for k, v in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": out}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
