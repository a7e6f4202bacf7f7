"""Telemetry sinks: where sampled records and span events go.

A sink receives one plain-``dict`` record per event.  Records are designed
to be serialisation-stable: every deterministic field (cycle-domain
timestamps, counter deltas, sequence numbers) lives at the top level, while
host-dependent wall-clock measurements are segregated under the single
reserved ``"wall"`` key, so a byte-level determinism check can strip them
with :func:`strip_wall` and compare the rest exactly.

Three backends cover the use cases of Section 3's 30-hour monitoring runs:

* :data:`NULL_SINK` — discards everything; the board's dispatch path only
  pays a single ``is not None`` test when no sampler is attached at all,
  and a sampler pointed at the null sink performs no serialisation.
* :class:`MemorySink` — keeps records in a list, for the console's live
  ``watch`` dashboard and for tests.
* :class:`JsonlSink` — appends one canonical JSON line per record, the
  on-disk time-series format (``telemetry export`` re-reads it).
"""

from __future__ import annotations

import io
import json
import threading
from pathlib import Path
from typing import Iterable, List, Optional, Protocol, Union

from repro.common.errors import TraceFormatError

#: Reserved record key holding host-dependent wall-clock measurements.
WALL_KEY = "wall"


class TelemetrySink(Protocol):
    """Anything that can absorb telemetry records."""

    def emit(self, record: dict) -> None:
        """Accept one record (a sample or a span event)."""
        ...

    def close(self) -> None:
        """Flush and release any underlying resource."""
        ...


class NullSink:
    """A sink that drops every record.

    The disabled-telemetry fast path: :meth:`emit` is a bare ``pass``, so
    a sampler wired to it never serialises anything, and replay statistics
    are bit-identical to an uninstrumented run (the samplers only *read*
    counters, never mutate them).
    """

    __slots__ = ()

    def emit(self, record: dict) -> None:
        pass

    def close(self) -> None:
        pass


#: Shared null sink instance (the class is stateless).
NULL_SINK = NullSink()


class MemorySink:
    """Keeps every record in memory, newest last.

    Backs the console's ``watch`` dashboard and the in-process analysis
    helpers (:class:`repro.telemetry.series.TelemetrySeries`).
    """

    def __init__(self) -> None:
        self.records: List[dict] = []

    def emit(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self.records)


def strip_wall(record: dict) -> dict:
    """The record without its host-dependent wall-clock fields."""
    if WALL_KEY not in record:
        return record
    return {key: value for key, value in record.items() if key != WALL_KEY}


def encode_record(record: dict, deterministic: bool = False) -> str:
    """Canonical single-line JSON encoding of one record.

    Keys are sorted and separators fixed, so the same record always
    produces the same bytes; ``deterministic=True`` additionally drops the
    ``"wall"`` sub-dict (see module docstring).
    """
    if deterministic:
        record = strip_wall(record)
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class JsonlSink:
    """Writes one canonical JSON line per record.

    Safe for concurrent same-process writers: the line is serialised
    first and written with a single locked ``write()`` call, so several
    sessions teeing telemetry into one shared service log can never
    interleave torn lines.  (Distinct *processes* must still use
    distinct files — the lock is per sink object.)

    Args:
        target: a path (opened for writing) or an existing text handle
            (left open on :meth:`close` — the caller owns it).
        deterministic: strip wall-clock fields from every record, making
            the file byte-identical across same-seed runs.
    """

    def __init__(
        self,
        target: Union[str, Path, io.TextIOBase],
        deterministic: bool = False,
    ) -> None:
        self.deterministic = deterministic
        self._lock = threading.Lock()
        if isinstance(target, (str, Path)):
            self._handle: io.TextIOBase = open(target, "w")
            self._owns_handle = True
        else:
            self._handle = target
            self._owns_handle = False

    def emit(self, record: dict) -> None:
        line = encode_record(record, self.deterministic) + "\n"
        with self._lock:
            self._handle.write(line)

    def close(self) -> None:
        with self._lock:
            self._handle.flush()
            if self._owns_handle:
                self._handle.close()


class TeeSink:
    """Fans every record out to several sinks, in order.

    The supervisor's workers use this to feed one sampler both a
    durable JSONL series and the heartbeat channel back to the watchdog —
    telemetry stays a single attachment point on the board.
    """

    def __init__(self, *sinks: TelemetrySink) -> None:
        self.sinks = list(sinks)

    def emit(self, record: dict) -> None:
        for sink in self.sinks:
            sink.emit(record)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


def load_jsonl(source: Union[str, Path, Iterable[str]]) -> List[dict]:
    """Read a JSONL time series back into a list of records.

    Accepts a path or any iterable of lines; blank lines are skipped.

    Raises:
        TraceFormatError: when a line is not a JSON object.
    """
    handle: Optional[io.TextIOBase] = None
    if isinstance(source, (str, Path)):
        handle = open(source)
        lines: Iterable[str] = handle
    else:
        lines = source
    records: List[dict] = []
    try:
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(
                    f"telemetry line {number} is not valid JSON: {exc}"
                ) from exc
            if not isinstance(record, dict):
                raise TraceFormatError(
                    f"telemetry line {number} is not a JSON object"
                )
            records.append(record)
    finally:
        if handle is not None:
            handle.close()
    return records
