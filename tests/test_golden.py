"""Byte-for-byte regression check of reports, matrix dumps and terrain text.

The report and matrix digests were recorded from the bitmask-row
implementation of the cover matrix, so any change to the visibility sweep,
the matrix layout or the greedy scan that alters a single assigned guard or
matrix entry fails here.  The serialize digest was recorded from the
``Point``-per-vertex terrain, before serialize was rewritten over the
coordinate tuples.
"""

from __future__ import annotations

import hashlib

from terrainguard import (
    GenSpec,
    build,
    format_matrix,
    random_terrain,
    serialize,
    solve,
    visibility_relation,
)
from terrainguard.cli import format_report
from tests.conftest import descending_staircase, valley_comb

REPORT_DIGEST = "e8a441339d845668fdc6574a77c63fde02bdfb40dc640b578607050d4c386e09"
MATRIX_DIGEST = "5fb64d10370f63b3c39c6b6d77f6d32994b7e79e4891e314407669735040f6b5"
SERIALIZE_DIGEST = "271cf2d415e462e2697ee4b5e93a074e73048fbf8532a407c2b08a9385ffff4a"


def golden_corpus():
    # small max_run/max_rise values force collinear and equal-height vertices
    for k in range(600):
        spec = GenSpec(seed=90_000 + k, steps=1 + k % 40, max_run=1 + k % 7, max_rise=1 + k % 5)
        yield random_terrain(spec)
    for m in range(1, 7):
        yield valley_comb(m)
        yield valley_comb(m, width=3, depth=7, gap=1)
    for k in range(1, 9):
        yield descending_staircase(k)
        yield descending_staircase(k, run=1, drop=5)


def test_reports_and_matrix_dumps_are_unchanged():
    reports = hashlib.sha256()
    matrices = hashlib.sha256()
    for t in golden_corpus():
        reports.update(format_report(t, solve(t, allow_partial=True)).encode())
        if t.n <= 60:
            matrices.update("".join(format_matrix(build(t, visibility_relation(t)))).encode())
    assert reports.hexdigest() == REPORT_DIGEST
    assert matrices.hexdigest() == MATRIX_DIGEST


def test_serialized_terrains_are_unchanged():
    texts = hashlib.sha256()
    for t in golden_corpus():
        texts.update(serialize(t).encode())
    assert texts.hexdigest() == SERIALIZE_DIGEST
