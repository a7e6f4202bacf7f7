"""Seeded fault plans and the injection overlay.

:class:`FaultPlan` is a frozen description of *what* can go wrong and at
what per-tenure rate; :class:`FaultInjector` wraps a
:class:`~repro.memories.board.MemoriesBoard` (as a bus monitor, or as an
offline replay driver) and makes it go wrong.  All randomness comes from
:class:`repro.common.rng.RngStreams` seeded by the plan, one independent
stream per fault site, so the same ``(seed, plan, trace)`` triple always
reproduces the same fault sites and the same final statistics.

A zero-rate plan is bit-identical to running the bare board: every fault
site is gated on its rate *before* any random draw, so the injector makes
no RNG calls and mutates nothing on the default path.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, dataclass
from typing import Dict, List

import numpy as np

from repro.bus.transaction import COMMANDS, RESPONSES, BusCommand, BusTransaction, SnoopResponse
from repro.common.errors import ValidationError
from repro.common.rng import RngStreams
from repro.memories.board import MemoriesBoard
from repro.memories.counters import COUNTER_MASK


@dataclass(frozen=True)
class FaultPlan:
    """Per-tenure fault rates for one campaign, all seeded from ``seed``.

    Attributes:
        seed: root seed for every fault site's RNG stream.
        drop_snoop_rate: probability the board fails to latch a snooped
            tenure (the passive monitor missing a bus cycle).
        directory_flip_rate: probability of one soft-error bit flip in a
            random resident line of a random node's SDRAM directory.
        buffer_burst_rate: probability of a synthetic burst crowding a
            random node's transaction buffer (forcing the retry path).
        buffer_burst_ops: operations per injected burst.
        counter_saturate_rate: probability of silently wrapping one random
            40-bit counter (adding exactly ``2^40`` so the reported value
            is unchanged but the wrap flag trips).
        trace_corrupt_rate: probability knob consumed by
            :func:`corrupt_trace_bytes` when campaigns damage trace files
            on disk; it does not fire per-tenure.
    """

    seed: int = 0
    drop_snoop_rate: float = 0.0
    directory_flip_rate: float = 0.0
    buffer_burst_rate: float = 0.0
    buffer_burst_ops: int = 64
    counter_saturate_rate: float = 0.0
    trace_corrupt_rate: float = 0.0

    _RATES = (
        "drop_snoop_rate",
        "directory_flip_rate",
        "buffer_burst_rate",
        "counter_saturate_rate",
        "trace_corrupt_rate",
    )

    def validate(self) -> None:
        """Raise :class:`ValidationError` on out-of-range parameters."""
        for name in self._RATES:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"{name} {rate} outside [0, 1]")
        if self.buffer_burst_ops < 1:
            raise ValidationError("buffer_burst_ops must be >= 1")

    @property
    def is_zero(self) -> bool:
        """True when no fault site can ever fire."""
        return all(getattr(self, name) == 0.0 for name in self._RATES)

    def to_dict(self) -> dict:
        """JSON-friendly form (campaign reports, CLI round-trips)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f for f in cls.__dataclass_fields__ if not f.startswith("_")}
        extra = set(data) - known
        if extra:
            raise ValidationError(f"unknown fault-plan fields: {sorted(extra)}")
        plan = cls(**data)
        plan.validate()
        return plan

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """Every per-tenure fault site at the same rate (sweep helper)."""
        return cls(
            seed=seed,
            drop_snoop_rate=rate,
            directory_flip_rate=rate,
            buffer_burst_rate=rate,
            counter_saturate_rate=rate,
        )


@dataclass(frozen=True)
class FaultEvent:
    """One fault the injector actually committed (the reproducibility log)."""

    tenure: int
    kind: str
    detail: tuple  # sorted (key, value) pairs, hashable for comparisons

    def as_dict(self) -> dict:
        return {"tenure": self.tenure, "kind": self.kind, **dict(self.detail)}


class FaultInjector:
    """Interpose seeded faults between a tenure stream and a board.

    Use it live — ``host.plug_in(FaultInjector(board, plan))`` instead of
    plugging the board in directly — or offline via :meth:`replay` /
    :meth:`replay_words`, which mirror the board's own replay API.

    Args:
        board: the target board (any firmware; directory/buffer/counter
            sites quietly skip firmware images without nodes).
        plan: the validated fault plan.
    """

    def __init__(self, board: MemoriesBoard, plan: FaultPlan) -> None:
        plan.validate()
        self.board = board
        self.plan = plan
        streams = RngStreams(plan.seed)
        self._drop_rng = streams.get("faults.drop_snoop")
        self._flip_rng = streams.get("faults.directory_flip")
        self._burst_rng = streams.get("faults.buffer_burst")
        self._saturate_rng = streams.get("faults.counter_saturate")
        self.tenures_seen = 0
        self.events: List[FaultEvent] = []

    # ------------------------------------------------------------------ #
    # Monitor protocol / replay drivers
    # ------------------------------------------------------------------ #

    def observe(self, txn: BusTransaction) -> SnoopResponse:
        """Bus-monitor entry point (live operation)."""
        return self.dispatch(
            txn.cpu_id, txn.command, txn.address, txn.snoop_response
        )

    def dispatch(
        self,
        cpu_id: int,
        command: BusCommand,
        address: int,
        snoop_response: SnoopResponse,
    ) -> SnoopResponse:
        """Inject any due faults, then forward the tenure to the board."""
        self.tenures_seen += 1
        plan = self.plan
        if plan.drop_snoop_rate and self._drop_rng.random() < plan.drop_snoop_rate:
            # The board never sees this tenure; recovery marks the line
            # suspect instead (conservative invalidate-and-refill).
            invalidated = self.board.note_snoop_loss(address)
            self._log("drop_snoop", address=address, invalidated=invalidated)
            return SnoopResponse.NULL
        if plan.directory_flip_rate and self._flip_rng.random() < plan.directory_flip_rate:
            self._flip_directory_bit()
        if plan.buffer_burst_rate and self._burst_rng.random() < plan.buffer_burst_rate:
            self._burst_buffer()
        if plan.counter_saturate_rate and self._saturate_rng.random() < plan.counter_saturate_rate:
            self._saturate_counter()
        return self.board._dispatch(cpu_id, command, address, snoop_response)

    def replay(self, trace) -> int:
        """Replay a :class:`~repro.bus.trace.BusTrace` through the faults."""
        return self.replay_words(trace.words)

    def replay_words(self, words: np.ndarray) -> int:
        """Replay packed records through the fault overlay (offline path)."""
        from repro.bus.trace import iter_decoded

        dispatch = self.dispatch
        command_of = COMMANDS
        response_of = RESPONSES
        for cpu_id, command, address, response in iter_decoded(words):
            dispatch(cpu_id, command_of[command], address, response_of[response])
        return int(words.shape[0])

    # ------------------------------------------------------------------ #
    # Fault sites
    # ------------------------------------------------------------------ #

    def _nodes(self):
        return getattr(self.board.firmware, "nodes", None)

    def _flip_directory_bit(self) -> None:
        nodes = self._nodes()
        if not nodes:
            return
        rng = self._flip_rng
        node = nodes[int(rng.integers(len(nodes)))]
        directory = node.directory
        set_index = int(rng.integers(directory.config.num_sets))
        ways = directory.ways_in_set(set_index)
        if ways == 0:
            # The strike hit an empty frame — no architectural effect, but
            # it is logged so the fault-site sequence stays reproducible.
            self._log("directory_flip", node=node.index, set=set_index, way=-1, bit=-1)
            return
        way = int(rng.integers(ways))
        bit = int(rng.integers(directory.stored_bits))
        directory.inject_bit_flip(set_index, way, bit)
        self._log("directory_flip", node=node.index, set=set_index, way=way, bit=bit)

    def _burst_buffer(self) -> None:
        nodes = self._nodes()
        if not nodes:
            return
        rng = self._burst_rng
        node = nodes[int(rng.integers(len(nodes)))]
        injected = node.buffer.inject_occupancy(
            self.board.now_cycle, self.plan.buffer_burst_ops
        )
        self._log("buffer_burst", node=node.index, injected=injected)

    def _saturate_counter(self) -> None:
        nodes = self._nodes()
        if not nodes:
            return
        rng = self._saturate_rng
        node = nodes[int(rng.integers(len(nodes)))]
        names = sorted(node.counters.state_dict())
        if not names:
            self._log("counter_saturate", node=node.index, counter="")
            return
        name = names[int(rng.integers(len(names)))]
        # One full wrap: read() is unchanged, wrapped() trips — the silent
        # modulo corruption the console's 'overflows' command exists for.
        node.counters.increment(name, COUNTER_MASK + 1)
        self._log("counter_saturate", node=node.index, counter=name)

    def _log(self, kind: str, **detail) -> None:
        self.events.append(
            FaultEvent(
                tenure=self.tenures_seen,
                kind=kind,
                detail=tuple(sorted(detail.items())),
            )
        )

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def fault_counts(self) -> Dict[str, int]:
        """Committed faults by kind."""
        return dict(Counter(event.kind for event in self.events))

    # ------------------------------------------------------------------ #
    # Checkpoint support (supervised fault campaigns)
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Mutable injector state, JSON-serialisable.

        Rides in a checkpoint's ``extra`` sidecar so a supervised fault
        campaign resumed mid-run draws the *same* remaining fault sites as
        an uninterrupted one (the RNG cursors are the state; the plan
        itself is immutable and travels in the run spec).
        """
        return {
            "rngs": {
                "drop": self._drop_rng.bit_generator.state,
                "flip": self._flip_rng.bit_generator.state,
                "burst": self._burst_rng.bit_generator.state,
                "saturate": self._saturate_rng.bit_generator.state,
            },
            "tenures_seen": self.tenures_seen,
            "events": [event.as_dict() for event in self.events],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a checkpointed injector state."""
        rngs = state["rngs"]
        self._drop_rng.bit_generator.state = rngs["drop"]
        self._flip_rng.bit_generator.state = rngs["flip"]
        self._burst_rng.bit_generator.state = rngs["burst"]
        self._saturate_rng.bit_generator.state = rngs["saturate"]
        self.tenures_seen = int(state["tenures_seen"])
        self.events = [
            FaultEvent(
                tenure=int(entry["tenure"]),
                kind=str(entry["kind"]),
                detail=tuple(
                    sorted(
                        (key, value)
                        for key, value in entry.items()
                        if key not in ("tenure", "kind")
                    )
                ),
            )
            for entry in state.get("events", [])
        ]


def corrupt_trace_bytes(
    data: bytes, rng: np.random.Generator, mode: str = "flip"
) -> bytes:
    """Return a damaged copy of a trace file's bytes.

    ``mode="flip"`` flips one random bit anywhere in the file (header,
    payload or CRC trailer); ``mode="truncate"`` cuts the file at a random
    offset.  Both damages are what the v3/v4 trace format's CRC trailer
    must turn into a :class:`~repro.common.errors.TraceFormatError` instead
    of silently replaying garbage.
    """
    if not data:
        return data
    if mode == "flip":
        corrupted = bytearray(data)
        position = int(rng.integers(len(corrupted)))
        corrupted[position] ^= 1 << int(rng.integers(8))
        return bytes(corrupted)
    if mode == "truncate":
        return data[: int(rng.integers(len(data)))]
    raise ValidationError(f"unknown corruption mode {mode!r}")
