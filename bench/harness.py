"""Measurement code of the benchmark; run.py is the entry point.

``run_workload`` makes the terrains, writes them to a scratch directory for
the CLI and then either times passes of set-up, ``solve`` and ``cli.run``
with tracing off (``timed``) or calls each layer's public functions under
spans (``traced``).  Outputs are checked after the clock stops.
"""

from __future__ import annotations

import gc
import io
import os
import platform
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from terrainguard import (  # noqa: E402
    CoverMatrix,
    GuardSolution,
    build,
    emit_svg,
    find_greedy_form_violation,
    greedy_cover,
    parse,
    serialize,
    solve,
    validate,
    visibility_relation,
)
from terrainguard import cli  # noqa: E402

import calib  # noqa: E402
from check import problems  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import recipes  # noqa: E402

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
STAGES = ("visibility.relation", "covermatrix.build", "covermatrix.form_check", "solver.scan")
TIMED_SPANS = STAGES + (
    "generator.gen",
    "geometry.validate",
    "terrain_io.serialize",
    "terrain_io.parse",
    "cli.report",
    "svg.emit",
)
COUNTS = (
    "visibility.pairs",
    "visibility.targets",
    "visibility.unguardable",
    "covermatrix.rows",
    "covermatrix.cols",
    "covermatrix.row_bytes",
    "solver.guards",
)
UNITS = {"visibility.pairs_per_target": "pairs/target", "covermatrix.row_bytes": "bytes"}


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def cli_once(path: str) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(["--input", path, "--allow-partial"])
    return code, buf.getvalue()


class Tally:
    """Operations attempted and failed.

    The first pass's results are the references; every later output is
    compared with its reference, and ``finish`` runs the full check on the
    references, failing every operation on an instance whose reference is
    wrong.
    """

    def __init__(self, terrains, refs):
        self.terrains = terrains
        self.refs = refs
        self.reports = [cli.format_report(t, r) for t, r in zip(terrains, refs)]
        self.ops = [0] * len(refs)
        self.wrong = [0] * len(refs)

    def solves(self, results) -> None:
        for i, r in enumerate(results):
            self.count(i, r == self.refs[i])

    def clis(self, outputs) -> None:
        for i, (code, text) in enumerate(outputs):
            self.count(i, code == cli.EXIT_OK and text == self.reports[i])

    def count(self, i: int, ok: bool) -> None:
        self.ops[i] += 1
        self.wrong[i] += not ok

    def finish(self, seed: int) -> tuple[int, int]:
        """(attempted, failed) once the references are checked."""

        failed = 0
        for i, (t, r) in enumerate(zip(self.terrains, self.refs)):
            failed += self.ops[i] if problems(t, r, seed + i) else self.wrong[i]
        return sum(self.ops), failed


def measure(work, n: int, seconds: float, min_passes: int, after_pass):
    """Passes over items 0..n-1 until ``seconds`` are spent; per-name medians.

    ``work(i)`` does item i and returns its raw times by name; ``after_pass``
    runs after each pass, outside the clock.  A first pass warms up, is not
    measured and sizes the calibration slices (calib.py) that every later
    pass runs between its items.  A measured pass sums each name's times over
    the items and scales the sums by the pass's host factor; a metric is the
    median of those over the measured passes.  Each pass starts by freezing
    what the harness holds (inputs, the last pass's outputs) out of the
    collector's reach: a CLI user solves one terrain per process, and a full
    collection over thousands of retained terrains would land in whichever
    call happened to trigger it.  No pass starts that would overrun by its
    predecessor's duration, but at least ``min_passes`` are measured.
    Returns the medians, the measured passes and the median factor.
    """

    warm = []
    for i in range(n):
        t0 = perf_counter()
        work(i)
        warm.append(perf_counter() - t0)
    after_pass()
    slices = calib.plan(warm, calib.unit_seconds())

    samples: dict[str, list[float]] = {}
    factors = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        gc.collect()
        gc.freeze()
        clock = calib.Clock()
        sums: dict[str, float] = {}
        i = 0
        for end, units in slices:
            for i in range(i, end):
                for name, d in work(i).items():
                    sums[name] = sums.get(name, 0.0) + d
            i = end
            clock.run(units)
        factors.append(clock.factor())
        for name, d in sums.items():
            samples.setdefault(name, []).append(d * factors[-1])
        after_pass()
        took = perf_counter() - t0
        if len(factors) >= min_passes and perf_counter() - start + took > seconds:
            break
    gc.unfreeze()
    return {name: median(v) for name, v in samples.items()}, len(factors), median(factors)


def timed(recs, terrains, files, seconds: float):
    """Set-up, solve and CLI per terrain, with tracing off."""

    results = [None] * len(terrains)
    outputs = [None] * len(terrains)
    rebuilt = [None] * len(terrains)
    tally = None

    def work(i):
        t0 = perf_counter()
        rebuilt[i] = recs[i].build()
        t1 = perf_counter()
        results[i] = solve(terrains[i], allow_partial=True)
        t2 = perf_counter()
        outputs[i] = cli_once(files[i])
        t3 = perf_counter()
        return {"setup_s": t1 - t0, "solve_s": t2 - t1, "cli_s": t3 - t2}

    def after_pass():
        nonlocal tally
        tally = tally or Tally(terrains, list(results))
        for i, t in enumerate(rebuilt):
            tally.count(i, t == terrains[i])
        tally.solves(results)
        tally.clis(outputs)

    metrics, passes, factor = measure(work, len(terrains), seconds, MIN_PASSES, after_pass)
    metrics["throughput_vps"] = sum(t.n for t in terrains) / metrics["solve_s"]
    return metrics, tally, passes, factor


def traced_terrain(tr: Tracer, rec, t, f):
    """One terrain with each layer's public calls under spans.

    ``solve`` runs twice, once untraced and once inside the ``solver.solve``
    span; the four stages then run on their own under ``solver.stages``.
    Returns the untraced solve time, the outputs to check and the counts.
    """

    raw = list(zip(t.xs, t.ys))
    with tr.span("generator.gen"):
        rec.generate()
    with tr.span("geometry.validate"):
        validate(raw)
    with tr.span("terrain_io.serialize"):
        text = serialize(t)
    with tr.span("terrain_io.parse"):
        parse(text)
    t0 = perf_counter()
    plain = solve(t, allow_partial=True)
    plain_s = perf_counter() - t0
    with tr.span("solver.solve"):
        res = solve(t, allow_partial=True)
    with tr.span("solver.stages"):
        with tr.span("visibility.relation"):
            rel = visibility_relation(t)
        with tr.span("covermatrix.build"):
            m = build(t, rel)
        keep = [i for i, row in enumerate(m.rows) if row]
        sub = CoverMatrix(tuple(m.rows[i] for i in keep), tuple(m.row_labels[i] for i in keep), m.col_labels)
        with tr.span("covermatrix.form_check"):
            violation = find_greedy_form_violation(sub)
        with tr.span("solver.scan"):
            chosen = greedy_cover(sub, check_form=False)
    with tr.span("cli.report"):
        cli.format_report(t, res)
    with tr.span("svg.emit"):
        emit_svg(t, res if isinstance(res, GuardSolution) else res.partial)
    with tr.span("cli.run"):
        output = cli_once(f)
    counts = {
        "visibility.pairs": len(rel.pairs),
        "visibility.targets": m.k,
        "visibility.unguardable": m.k - len(keep),
        "covermatrix.rows": m.k,
        "covermatrix.cols": m.k_prime,
        "covermatrix.row_bytes": sum(sys.getsizeof(r) for r in m.rows),
        "solver.guards": len(chosen),
    }
    picked = None if violation else tuple(sorted(sub.col_labels[j] for j in chosen))
    return plain_s, (plain, res), output, picked, counts


def traced(recs, terrains, files, seconds: float, spans_path: str | None):
    """Passes of traced_terrain over every terrain; spans kept in memory."""

    tr = Tracer()
    wanted = set(TIMED_SPANS + ("solver.solve", "cli.run"))
    results = [None] * len(terrains)
    outputs = [None] * len(terrains)
    counts = [None] * len(terrains)
    tally = None

    def work(i):
        mark = len(tr.spans)
        plain_s, results[i], outputs[i], picked, c = traced_terrain(tr, recs[i], terrains[i], files[i])
        if tally is not None:
            ref = tally.refs[i]
            tally.count(i, picked == (ref if isinstance(ref, GuardSolution) else ref.partial).guards)
            tally.count(i, c == counts[i])
        counts[i] = c
        times = {name: d for name, d in tr.totals(mark).items() if name in wanted}
        times["solver.plain"] = plain_s
        return times

    def after_pass():
        nonlocal tally
        tally = tally or Tally(terrains, [r for r, _ in results])
        for pair in zip(*results):
            tally.solves(pair)
        tally.clis(outputs)

    span_s, passes, factor = measure(work, len(terrains), seconds, MIN_TRACED_PASSES, after_pass)
    if spans_path:
        tr.write_jsonl(spans_path)

    metrics = {f"{name}_s": span_s[name] for name in TIMED_SPANS}
    traced_solve = span_s["solver.solve"]
    metrics["solver.solve_s"] = span_s["solver.plain"]
    metrics["solver.solve_self_s"] = traced_solve - sum(metrics[f"{s}_s"] for s in STAGES)
    metrics["trace.overhead_s"] = traced_solve - metrics["solver.solve_s"]
    metrics["cli.overhead_s"] = (
        span_s["cli.run"] - metrics["terrain_io.parse_s"] - traced_solve - metrics["cli.report_s"]
    )
    for name in COUNTS:
        metrics[name] = sum(c[name] for c in counts)
    metrics["visibility.pairs_per_target"] = metrics["visibility.pairs"] / metrics["visibility.targets"]
    return metrics, tally, passes, factor


def unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    return {"throughput_vps": "1/s", "peak_rss_mib": "MiB"}.get(name, "count")


def run_workload(name: str, seed: int, seconds: float, trace: bool, spans_path: str | None):
    recs = recipes(name, seed)
    terrains = [r.build() for r in recs]
    sizes = {
        "terrains": len(terrains),
        "vertices": sum(t.n for t in terrains),
        "convex": sum(sum(c.is_convex for c in t.classes) for t in terrains),
    }
    with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=HERE.parent) as work:
        files = []
        for i, t in enumerate(terrains):
            files.append(os.path.join(work, f"{i:05d}.txt"))
            with open(files[-1], "w", encoding="utf-8") as fh:
                fh.write(serialize(t))
        if trace:
            metrics, tally, passes, factor = traced(recs, terrains, files, seconds, spans_path)
        else:
            metrics, tally, passes, factor = timed(recs, terrains, files, seconds)
    attempted, failed = tally.finish(seed)
    return metrics, attempted, failed, passes, factor, sizes
