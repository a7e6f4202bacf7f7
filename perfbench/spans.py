"""In-memory span recorder for the benchmark's traced runs.

The benchmark times the calls it makes into each layer of the program
and records one span per call: name, layer, start, end, the span that
caused it, and free-form attributes.  All spans of one benchmark run
share a run identifier.  Spans stay in memory until :meth:`Spans.write`.

Work the benchmark cannot wrap call by call — a bus-monitor hook that
fires once per tenure, or the segments a supervisor's worker process
replays and checkpoints — enters as an *aggregate* span: its duration
is the measured total, laid end to end with its siblings from the start
of the parent span, and flagged ``aggregate``.

A layer's self time is the duration of its spans minus the part their
child spans cover.  Children never overlap one another here: the
benchmark is single-threaded at every span boundary, and aggregate
children are laid end to end.

With tracing disabled every call is a cheap no-op, so the untraced run
pays one attribute test per layer boundary.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Spans:
    """Collects the spans of one benchmark run."""

    def __init__(self, run_id: str, enabled: bool) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.records: List[dict] = []
        self._stack: List[int] = []
        self._aggregate_end: Dict[int, float] = {}

    @contextmanager
    def span(self, name: str, layer: str, **attrs) -> Iterator[Optional[dict]]:
        """Time the body as one span under the innermost open span."""
        if not self.enabled:
            yield None
            return
        record = {
            "id": len(self.records),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "layer": layer,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def aggregate(self, parent: Optional[dict], name: str, layer: str,
                  seconds: float, **attrs) -> None:
        """Add a child of ``parent`` whose duration was measured in bulk."""
        if parent is None:
            return
        start = self._aggregate_end.get(parent["id"], parent["start"])
        end = start + max(0.0, seconds)
        self._aggregate_end[parent["id"]] = end
        self.records.append({
            "id": len(self.records),
            "parent": parent["id"],
            "name": name,
            "layer": layer,
            "start": start,
            "end": end,
            "attrs": {**attrs, "aggregate": True},
        })

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)

    def self_times(self) -> Dict[str, float]:
        """Seconds of self time per layer, over every recorded span."""
        covered: Dict[int, float] = {}
        for record in self.records:
            parent = record["parent"]
            if parent is not None:
                covered[parent] = covered.get(parent, 0.0) + (
                    record["end"] - record["start"]
                )
        layers: Dict[str, float] = {}
        for record in self.records:
            own = record["end"] - record["start"] - covered.get(
                record["id"], 0.0
            )
            layers[record["layer"]] = layers.get(record["layer"], 0.0) + own
        return layers

    def write(self, path: Path, extra: dict) -> None:
        """Write the spans, relative to the first span's start, as JSON."""
        origin = self.records[0]["start"] if self.records else 0.0
        spans = [
            {**r, "start": r["start"] - origin, "end": r["end"] - origin}
            for r in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"run": self.run_id, **extra, "spans": spans},
            indent=1, sort_keys=True,
        ) + "\n")
