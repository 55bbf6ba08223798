"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent), with times from ``perf_counter`` and
``parent`` the index of the enclosing span (-1 at the root).  Spans stay in
memory while the run measures and are written out once it has finished.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        rec[1] = perf_counter()
        try:
            yield
        finally:
            rec[2] = perf_counter()
            self._open.pop()

    def totals(self, since: int) -> dict[str, float]:
        """Summed duration per span name over spans recorded from ``since`` on."""

        out: dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans[since:]:
            out[name] += end - start
        return dict(out)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end, "parent": parent}) + "\n")
