"""Span-tree reconstruction and validation for propagated traces.

Every process that participates in a run — the service, the supervisor,
its workers — emits span records tagged with ``trace_id`` /
``span_id`` / ``parent_id`` (see :mod:`repro.telemetry.spans`).  This
module stitches those flat records back into the tree they describe and
checks the invariants the propagation scheme promises:

* all spans of one session share a single ``trace_id``;
* every non-root ``parent_id`` resolves to an emitted span — spans are
  emitted on *close*, so a killed worker leaves no dangling children;
* the tree is connected: every span reaches a root by parent links.

The functions here are pure: they read record lists, never the clock or
the filesystem, so the same records always produce the same tree.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.common.errors import ValidationError


def collect_spans(records: Iterable[dict]) -> List[dict]:
    """Filter a record stream down to trace-tagged span records."""
    return [
        record
        for record in records
        if record.get("type") == "span" and record.get("trace_id")
    ]


class SpanTree:
    """A reconstructed span tree.

    Attributes:
        nodes: ``span_id -> record`` for every span seen.
        children: ``span_id -> [child span_ids]`` in record order.
        roots: span IDs whose ``parent_id`` is None.
        unresolved: span IDs whose ``parent_id`` names a span that was
            never emitted (empty for a well-formed trace).
        trace_ids: the distinct ``trace_id`` values seen.
    """

    def __init__(self, spans: Iterable[dict]) -> None:
        self.nodes: Dict[str, dict] = {}
        self.children: Dict[str, List[str]] = {}
        self.roots: List[str] = []
        self.unresolved: List[str] = []
        self.trace_ids: List[str] = []
        ordered = list(spans)
        for record in ordered:
            span_id = str(record["span_id"])
            if span_id in self.nodes:
                raise ValidationError(
                    f"duplicate span_id {span_id!r} in trace"
                )
            self.nodes[span_id] = record
            trace_id = str(record["trace_id"])
            if trace_id not in self.trace_ids:
                self.trace_ids.append(trace_id)
        for record in ordered:
            span_id = str(record["span_id"])
            parent = record.get("parent_id")
            if parent is None:
                self.roots.append(span_id)
            elif str(parent) in self.nodes:
                self.children.setdefault(str(parent), []).append(span_id)
            else:
                self.unresolved.append(span_id)

    @property
    def connected(self) -> bool:
        """True when every span reaches a root through parent links."""
        if not self.nodes:
            return True
        reachable = 0
        stack = list(self.roots)
        seen = set()
        while stack:
            span_id = stack.pop()
            if span_id in seen:
                continue
            seen.add(span_id)
            reachable += 1
            stack.extend(self.children.get(span_id, []))
        return not self.unresolved and reachable == len(self.nodes)

    def walk(self, span_id: str, depth: int = 0):
        """Yield ``(depth, record)`` depth-first from one span."""
        yield depth, self.nodes[span_id]
        for child in self.children.get(span_id, []):
            for item in self.walk(child, depth + 1):
                yield item

    def summary(self) -> dict:
        """Validation summary (what the smoke job asserts on)."""
        return {
            "spans": len(self.nodes),
            "roots": list(self.roots),
            "unresolved": list(self.unresolved),
            "trace_ids": list(self.trace_ids),
            "connected": self.connected,
        }


def build_span_tree(records: Iterable[dict]) -> SpanTree:
    """Stitch span records (possibly mixed with other kinds) into a tree."""
    return SpanTree(collect_spans(records))


def validate_session_trace(
    records: Iterable[dict], trace_id: Optional[str] = None
) -> SpanTree:
    """Build the tree and enforce the propagation invariants.

    Args:
        records: the merged record stream of one session (service
            telemetry + supervisor events).
        trace_id: when given, every span must carry exactly this ID.

    Raises:
        ValidationError: more than one trace ID, an unresolved parent,
            a disconnected subtree, or no spans at all.
    """
    tree = build_span_tree(records)
    if not tree.nodes:
        raise ValidationError("no trace-tagged spans found")
    if len(tree.trace_ids) != 1:
        raise ValidationError(
            f"expected one trace_id, found {tree.trace_ids}"
        )
    if trace_id is not None and tree.trace_ids != [str(trace_id)]:
        raise ValidationError(
            f"trace_id mismatch: expected {trace_id}, "
            f"found {tree.trace_ids[0]}"
        )
    if tree.unresolved:
        raise ValidationError(
            f"unresolved parent spans: {sorted(tree.unresolved)}"
        )
    if not tree.connected:
        raise ValidationError("span tree is not connected")
    return tree
