"""In-memory spans recorded around calls into the program's layers.

Spans are taken from outside the program: the benchmark calls each
layer's public function through :meth:`Tracer.call`, which records one
span (name, start, end, parent span, call id).  Kernel counters are
read once per public-entry call, not per span (see
``local.LocalWorkload.traced_with_kernels``).  Spans stay in memory until
:meth:`Tracer.write` puts them in a JSON-lines file at the end of a run.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

#: the ``repro.kernels`` kernels whose counters the per-layer metrics report
KERNELS = ("apply_layers", "row_mul", "gf2_matmul", "bit_gather", "dense_contract")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._origin = time.perf_counter()
        self.call_id = 0

    def new_call(self) -> int:
        """Start a new top-level public-entry call; later spans carry its id."""
        self.call_id += 1
        return self.call_id

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named ``name``."""
        span = {
            "name": name,
            "call": self.call_id,
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(span)
        self._stack.append(span["id"])
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            span["start"] = start - self._origin
            span["end"] = end - self._origin

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def of_call(self, call_id: int) -> list[dict]:
        return [s for s in self.spans if s["call"] == call_id]

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def duration(span: dict) -> float:
    return span["end"] - span["start"]


def total(spans, name: str) -> float:
    """Summed duration of the spans named ``name``."""
    return sum(duration(s) for s in spans if s["name"] == name)


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)
