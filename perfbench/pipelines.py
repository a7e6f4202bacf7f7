"""The benchmark's four workloads, each a closed loop of pipeline runs.

Every workload drives the program only through public entry points:

* ``capture_sweep`` — :mod:`repro.workloads` TPC-C on the scaled S7A
  host (:mod:`repro.host`, :mod:`repro.bus`) until the trace-collector
  board holds the wanted records
  (:func:`repro.experiments.pipeline.capture_records`), then one replay
  of the captured trace on a 4-config L3-sweep board.
* ``replay_shared`` — one seeded hit- and sharing-heavy trace replayed,
  with the engine the registry picks (:mod:`repro.engines`), on a
  4-node coherent split machine and on the NUMA-directory firmware.
* ``supervised_16mb`` — the trace staged with ``RunSupervisor.create``
  and run to completion in small, checkpointed segments
  (:mod:`repro.supervisor`, :mod:`repro.faults.checkpoint`).
* ``service_stream`` — one closed-loop client against an in-process
  :class:`~repro.service.http.ServiceServer`: submit, stream the trace
  over the ingest WebSocket, wait for the terminal event on the
  session's event feed (:mod:`repro.service`).

A pipeline builds its inputs and machines in :meth:`Pipeline.setup`,
runs one unit of work per :meth:`Pipeline.op` and returns what it
produced; the runner times each op, digests the outputs outside the
timed part, and compares them with every oracle of
:meth:`Pipeline.reference` — the scalar engine's replay for boards, and
for supervised and service runs both the bare ``replay_machine`` replay
and the scalar engine's.
"""

from __future__ import annotations

import asyncio
import hashlib
import re
import shutil
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional
from unittest import mock

import numpy as np

import repro.experiments.pipeline as pipeline_module
from repro.bus.trace import BusTrace
from repro.engines import ENGINES, decide_all, select_board_engine
from repro.experiments.params import ExperimentScale
from repro.experiments.pipeline import capture_records, replay_machine
from repro.faults.checkpoint import restore_checkpoint, save_checkpoint
from repro.host.smp import HostSMP
from repro.memories.board import MemoriesBoard, board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.firmware.numa_directory import NumaDirectoryFirmware
from repro.obs import build_timeline
from repro.service import (
    AdmissionError,
    EmulationService,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
)
from repro.supervisor import RunSupervisor, SupervisedRunSpec
from repro.supervisor.spec import statistics_digest
from repro.target.configs import multi_config_machine, split_smp_machine
from repro.telemetry.prom import parse_exposition
from repro.workloads.tpcc import TpccWorkload

from tracegen import shared_trace

#: Peer events: a coherent node's ``remote.*`` counters, and the NUMA
#: directory's interventions and invalidations.
_REMOTE_KEY = re.compile(
    r"^(node\d+\.remote\.|numa\.interventions\.|numa\.invalidations\.)"
)
_TERMINAL_EVENTS = ("completed", "failed", "expired", "suspended")


class Op(NamedTuple):
    """What one pipeline run produced.

    ``outputs`` maps a digest name to a board (digested by its
    statistics), packed trace words (digested byte for byte) or a digest
    string the program reported itself.  ``latency`` overrides the
    runner's own timing where the op knows its end-to-end interval
    better (a service session ends when its terminal event arrives).
    """

    records: int
    outputs: dict
    latency: Optional[float] = None


def digest_of(output) -> str:
    """The pinned digest form of one op output."""
    if isinstance(output, MemoriesBoard):
        return statistics_digest(output.statistics())
    if isinstance(output, np.ndarray):
        return hashlib.sha256(output.astype("<u8").tobytes()).hexdigest()
    return str(output)


def scalar_board(board: MemoriesBoard, words: np.ndarray) -> MemoriesBoard:
    """Replay ``words`` on ``board`` with the scalar reference engine."""
    ENGINES["scalar"].replay(board, words)
    return board


def board_facts(board: MemoriesBoard) -> dict:
    """Per-node miss ratios, peer-event total and filter admissions."""
    stats = board.statistics()
    nodes = getattr(board.firmware, "nodes", None)
    if nodes is not None:
        miss = [node.miss_ratio() for node in nodes]
    else:  # NUMA-directory firmware keeps one L3 hit/miss bank
        hits, misses = stats["numa.l3.hits"], stats["numa.l3.misses"]
        miss = [misses / (hits + misses) if hits + misses else 0.0]
    observed = stats.get("filter.observed", 0)
    return {
        "miss_ratio": miss,
        "remote_events": sum(
            value for key, value in stats.items() if _REMOTE_KEY.match(key)
        ),
        "admitted": stats.get("filter.forwarded", 0),
        "decoded": observed,
    }


def engine_decisions(board: MemoriesBoard) -> dict:
    """The engine the registry selects for ``board`` and every denial."""
    return {
        "selected": select_board_engine(board).name,
        "denied": {
            decision.spec.name: sorted(str(c) for c in decision.missing)
            for decision in decide_all(board=board)
            if not decision.eligible
        },
    }


def node_config(size: int) -> CacheNodeConfig:
    return CacheNodeConfig(size=size, assoc=4, line_size=128)


class Pipeline:
    """One workload: set up, run ops, check them, describe them."""

    name = ""

    def __init__(self, seed: int, spans, work_dir: Path) -> None:
        self.seed = seed
        self.spans = spans
        self.work_dir = work_dir
        #: layer-metric accumulators filled by traced ops
        self.layer: Dict[str, float] = {}

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> Op:
        raise NotImplementedError

    def after_op(self, op: Op) -> None:
        """Untimed bookkeeping after an op's latency was taken."""

    def reference(self) -> Dict[str, Dict[str, MemoriesBoard]]:
        """The oracles for this seed's inputs: each maps the op outputs
        it must match to its board for them.  The first oracle's boards
        give the board facts, and its first board is the checkpoint
        round trip's subject."""
        raise NotImplementedError

    def fresh_board(self) -> MemoriesBoard:
        """A newly programmed board of the first oracle's machine."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started; the runner calls it
        between set-ups, outside their timing."""

    def _add(self, name: str, value: float) -> None:
        self.layer[name] = self.layer.get(name, 0.0) + value

    def _select_engine(self, board: MemoriesBoard) -> None:
        """In a traced op, record the engine the registry picks for
        ``board`` (the same decision its replay is about to make)."""
        with self.spans.span("engines.select", "engines") as record:
            if record is not None:
                record["attrs"]["engine"] = select_board_engine(board).name


# ---------------------------------------------------------------------- #
# capture_sweep
# ---------------------------------------------------------------------- #


class _TimedWorkload:
    """Wraps a workload so each chunk it generates is one span."""

    def __init__(self, inner, spans) -> None:
        self.inner = inner
        self.spans = spans

    def chunks(self, n_refs: int, chunk_size: int = 65536):
        stream = self.inner.chunks(n_refs, chunk_size)
        while True:
            with self.spans.span("workloads.chunks", "workloads") as record:
                try:
                    chunk = next(stream)
                except StopIteration:
                    return
                record["attrs"]["refs"] = len(chunk[0])
            yield chunk


def _timed_capture_classes(spans):
    """HostSMP / MemoriesBoard subclasses that time the capture layers.

    ``run_chunk`` becomes a ``host.run_chunk`` span; the trace-collector
    board's bus-monitor hook is timed per tenure and enters each
    ``run_chunk`` span as one aggregate ``memories.tracer`` child.
    """
    hosts: List[HostSMP] = []

    class TimedBoard(MemoriesBoard):
        tracer_s = 0.0

        def observe(self, txn):
            start = time.perf_counter()
            try:
                return MemoriesBoard.observe(self, txn)
            finally:
                self.tracer_s += time.perf_counter() - start

    class TimedHost(HostSMP):
        def __init__(self, config) -> None:
            super().__init__(config)
            self.tracer_board: Optional[TimedBoard] = None
            hosts.append(self)

        def plug_in(self, board) -> None:
            super().plug_in(board)
            self.tracer_board = board

        def run_chunk(self, cpu_ids, addresses, is_writes) -> None:
            board = self.tracer_board
            before = board.tracer_s
            with spans.span("host.run_chunk", "host") as record:
                super().run_chunk(cpu_ids, addresses, is_writes)
                spans.aggregate(record, "memories.tracer", "memories",
                                board.tracer_s - before)

    return TimedHost, TimedBoard, hosts


class CaptureSweep(Pipeline):
    """Figure 8 geometry: TPC-C capture, then one 4-config sweep board."""

    name = "capture_sweep"
    RECORDS = 10_000
    CHUNK_REFS = 4096
    SWEEP = ("16MB", "64MB", "256MB", "1GB")

    def setup(self) -> None:
        scale = ExperimentScale(scale=2048)
        self.workload = TpccWorkload(
            db_bytes=scale.scaled_bytes("150GB"),
            n_cpus=scale.n_cpus,
            private_bytes=scale.scaled_bytes("64MB"),
            zipf_exponent=1.05,
            seed=self.seed,
        )
        self.host_config = scale.host()
        self.machine = multi_config_machine(
            [scale.cache(size) for size in self.SWEEP], n_cpus=scale.n_cpus
        )
        self.trace: Optional[BusTrace] = None

    def op(self) -> Op:
        spans = self.spans
        with spans.span("workloads.reset", "workloads"):
            self.workload.reset()
        with spans.span("capture", "bus", records=self.RECORDS) as record:
            if record is None:
                trace = capture_records(
                    self.workload, self.RECORDS, self.host_config,
                    chunk_size=self.CHUNK_REFS,
                )
            else:
                trace = self._traced_capture()
        with spans.span("memories.build", "memories"):
            board = board_for_machine(self.machine, seed=self.seed)
        self._select_engine(board)
        with spans.span("replay.sweep", "memories") as record:
            board.replay(trace)
        if record is not None:
            self._add("replay.sweep_s", record["end"] - record["start"])
        self.trace = trace
        return Op(len(trace), {"trace": trace.words, "sweep": board})

    def _traced_capture(self) -> BusTrace:
        host_class, board_class, hosts = _timed_capture_classes(self.spans)
        with mock.patch.object(pipeline_module, "HostSMP", host_class), \
                mock.patch.object(pipeline_module, "MemoriesBoard",
                                  board_class):
            trace = capture_records(
                _TimedWorkload(self.workload, self.spans), self.RECORDS,
                self.host_config, chunk_size=self.CHUNK_REFS,
            )
        host = hosts[-1]
        bus = host.bus.statistics()
        refs = host.total_references()
        self._add("workloads.refs", refs)
        self._add("host.l2_misses", host.total_l2_misses())
        self._add("bus.tenures", bus["bus.tenures"])
        self._add("bus.retries", bus["bus.retries"])
        self._add("capture.records", len(trace))
        return trace

    def reference(self) -> Dict[str, Dict[str, MemoriesBoard]]:
        return {"scalar": {
            "sweep": scalar_board(self.fresh_board(), self.trace.words)
        }}

    def fresh_board(self) -> MemoriesBoard:
        return board_for_machine(self.machine, seed=self.seed)


# ---------------------------------------------------------------------- #
# replay_shared
# ---------------------------------------------------------------------- #


class ReplayShared(Pipeline):
    """One shared trace on a coherent split and a NUMA-directory board."""

    name = "replay_shared"
    RECORDS = 30_000
    CPU_NODES = tuple(cpu // 2 for cpu in range(8))

    def setup(self) -> None:
        self.words = shared_trace(self.RECORDS, self.seed, tag=1)
        self.config = node_config(1 << 20)
        self.coherent = split_smp_machine(
            self.config, n_cpus=8, procs_per_node=2, name="coherent"
        )

    def _numa_board(self) -> MemoriesBoard:
        return MemoriesBoard(
            NumaDirectoryFirmware(self.config, self.CPU_NODES), name="numa"
        )

    def op(self) -> Op:
        spans = self.spans
        with spans.span("memories.build", "memories"):
            coherent = board_for_machine(self.coherent, seed=self.seed)
        self._select_engine(coherent)
        with spans.span("replay.coherent", "memories") as record:
            coherent.replay_words(self.words)
        if record is not None:
            self._add("replay.coherent_s", record["end"] - record["start"])
        with spans.span("memories.build", "memories"):
            numa = self._numa_board()
        self._select_engine(numa)
        with spans.span("replay.numa", "memories") as record:
            numa.replay_words(self.words)
        if record is not None:
            self._add("replay.numa_s", record["end"] - record["start"])
        return Op(self.RECORDS, {"coherent": coherent, "numa": numa})

    def reference(self) -> Dict[str, Dict[str, MemoriesBoard]]:
        return {"scalar": {
            "coherent": scalar_board(self.fresh_board(), self.words),
            "numa": scalar_board(self._numa_board(), self.words),
        }}

    def fresh_board(self) -> MemoriesBoard:
        return board_for_machine(self.coherent, seed=self.seed)


# ---------------------------------------------------------------------- #
# supervised_16mb and service_stream share the bare-replay oracle
# ---------------------------------------------------------------------- #


class _SupervisedBase(Pipeline):
    BOARD = ""
    RECORDS = 0
    SEGMENT = 0
    NODE_BYTES = 0
    TAG = 0

    def setup(self) -> None:
        self.words = shared_trace(self.RECORDS, self.seed, tag=self.TAG)
        self.machine = split_smp_machine(
            node_config(self.NODE_BYTES), n_cpus=8, procs_per_node=2,
            name=self.BOARD,
        )
        self.spec = SupervisedRunSpec(
            machine=self.machine, seed=self.seed,
            segment_records=self.SEGMENT,
        )

    def reference(self) -> Dict[str, Dict[str, MemoriesBoard]]:
        """The bare ``replay_machine`` replay, which uses the engine the
        registry picks (as the workers do), and the scalar engine's, so
        an engine fault the two share cannot pass."""
        return {
            "replay_machine": {self.BOARD: replay_machine(
                BusTrace(words=self.words), self.machine, seed=self.seed
            )},
            "scalar": {
                self.BOARD: scalar_board(self.fresh_board(), self.words)
            },
        }

    def fresh_board(self) -> MemoriesBoard:
        return self.spec.build_board()


class Supervised16(_SupervisedBase):
    """Small checkpointed segments on a 4-node, 16 MB/node machine."""

    name = "supervised_16mb"
    BOARD = "supervised"
    RECORDS = 4_000
    SEGMENT = 2_000
    NODE_BYTES = 16 << 20
    TAG = 2

    def setup(self) -> None:
        super().setup()
        self.ops = 0

    def op(self) -> Op:
        spans = self.spans
        self.run_dir = self.work_dir / f"sup{self.ops:05d}"
        self.ops += 1
        with spans.span("supervisor.create", "supervisor") as record:
            supervisor = RunSupervisor.create(self.spec, self.words,
                                              self.run_dir)
        if record is not None:
            self._add("trace.stage_s", record["end"] - record["start"])
            self._add("trace.staged_bytes", (
                self.run_dir / RunSupervisor.TRACE_NAME
            ).stat().st_size)
        with spans.span("supervisor.run", "supervisor") as record:
            result = supervisor.run()
        self.run_span = record
        self.restarts = result.restarts
        return Op(self.RECORDS, {self.BOARD: result.digest})

    def after_op(self, op: Op) -> None:
        record = self.run_span
        if record is not None:
            summary = build_timeline(self.run_dir)["summary"]
            phases = summary["phases"]
            self.spans.aggregate(record, "worker.replay", "memories",
                                 phases["replaying"]["seconds"])
            self.spans.aggregate(record, "worker.checkpoint", "checkpoint",
                                 phases["checkpointing"]["seconds"])
            self._add("supervise.run_s", record["end"] - record["start"])
            self._add("supervise.checkpoint_share",
                      phases["checkpointing"]["share"] / 100.0)
            self._add("supervise.replay_share",
                      phases["replaying"]["share"] / 100.0)
            self._add("supervise.segments", -(-self.RECORDS // self.SEGMENT))
            self._add("supervise.restarts", self.restarts)
        shutil.rmtree(self.run_dir)


class ServiceStream(_SupervisedBase):
    """One closed-loop client streaming sessions into a 1-worker service."""

    name = "service_stream"
    BOARD = "service"
    RECORDS = 40_000
    SEGMENT = 20_000
    NODE_BYTES = 1 << 20
    TAG = 3
    CHUNK_RECORDS = 8192

    def setup(self) -> None:
        super().setup()
        self.loop = asyncio.new_event_loop()
        self.server = ServiceServer(
            EmulationService(self.root, ServiceConfig(max_workers=1))
        )
        self.loop.run_until_complete(self.server.start())
        self.client = ServiceClient(self.server.host, self.server.port)
        self.request = {
            "run_spec": self.spec.to_dict(),
            "trace": {"kind": "stream"},
        }
        self.chunks = [
            self.words[start:start + self.CHUNK_RECORDS]
            for start in range(0, self.RECORDS, self.CHUNK_RECORDS)
        ]

    @property
    def root(self) -> Path:
        return self.work_dir / "service"

    def close(self) -> None:
        server = getattr(self, "server", None)
        if server is not None:
            self.loop.run_until_complete(server.stop(drain=True))
            self.loop.close()
            self.server = None
            shutil.rmtree(self.root)

    def op(self) -> Op:
        self.run_span = None
        try:
            session, terminal, latency = self.loop.run_until_complete(
                self._session()
            )
        except AdmissionError:
            self._add("service.refusals", 1)
            raise
        self.session_id = session
        if terminal.get("event") != "completed":
            return Op(0, {self.BOARD: f"session {terminal.get('event')}"},
                      latency)
        return Op(self.RECORDS, {self.BOARD: terminal["digest"]}, latency)

    async def _session(self):
        spans, client = self.spans, self.client
        start = time.perf_counter()
        with spans.span("service.session", "service") as root:
            with spans.span("service.submit", "service") as submit:
                session = await client.submit(self.request)
            feed = asyncio.ensure_future(self._terminal(session))
            try:
                with spans.span("service.ingest", "service") as ingest:
                    await client.ingest_ws(session, self.chunks)
                with spans.span("service.run", "service") as run:
                    self.run_span = run
                    terminal, arrived = await feed
            finally:
                if not feed.done():
                    feed.cancel()
                    await asyncio.gather(feed, return_exceptions=True)
        if root is not None:
            self._add("service.submit_s", submit["end"] - submit["start"])
            self._add("service.ingest_s", ingest["end"] - ingest["start"])
            self._add("service.run_s", arrived - run["start"])
            self._add("service.server_s", terminal["wall"]["elapsed"])
        return session, terminal, arrived - start

    async def _terminal(self, session: str):
        """The session's terminal event off its live event feed, and the
        moment it arrived."""
        feed = self.client.tail(session)
        try:
            async for event in feed:
                if event.get("event") in _TERMINAL_EVENTS:
                    return event, time.perf_counter()
        finally:
            await feed.aclose()
        return {"event": "feed-closed"}, time.perf_counter()

    def after_op(self, op: Op) -> None:
        if self.run_span is None or not op.records:
            return
        page = parse_exposition(self.loop.run_until_complete(
            self.client.request("GET", f"/sessions/{self.session_id}/metrics")
        )[1].decode("utf-8"))
        stage = {
            dict(labels).get("stage"): value
            for (metric, labels), value in page.items()
            if metric == "memories_latency_seconds_sum"
        }
        for name in ("segment_replay", "checkpoint_write"):
            self._add(f"service.hist.{name}_s", stage.get(name, 0.0))
        self.spans.aggregate(self.run_span, "worker.replay", "memories",
                             stage.get("segment_replay", 0.0))
        self.spans.aggregate(self.run_span, "worker.checkpoint",
                             "checkpoint", stage.get("checkpoint_write", 0.0))


def checkpoint_round_trip(board: MemoriesBoard, fresh: MemoriesBoard,
                          path: Path) -> dict:
    """Time ``save_checkpoint``, then ``restore_checkpoint`` (load,
    validate, restore) into ``fresh``; ``identical`` is True when the
    restored board's statistics digest equals the saved board's."""
    start = time.perf_counter()
    save_checkpoint(board, path)
    written = time.perf_counter()
    restore_checkpoint(fresh, path)
    restored = time.perf_counter()
    size = path.stat().st_size
    path.unlink()
    return {
        "checkpoint.write_s": written - start,
        "checkpoint.restore_s": restored - written,
        "checkpoint.bytes": float(size),
        "identical": digest_of(fresh) == digest_of(board),
    }


PIPELINES = {
    cls.name: cls
    for cls in (CaptureSweep, ReplayShared, Supervised16, ServiceStream)
}
