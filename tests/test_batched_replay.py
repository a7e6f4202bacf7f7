"""Bit-identity of the batched replay engine against scalar.

The fast engine (:mod:`repro.memories.batch`) is only allowed to be
fast — never different.  These tests replay identical traces through
each path and require the full board checkpoint (directories, buffers, counters,
clock, sampler cursor) to come out equal, across firmware shapes,
replacement policies, telemetry cadences and degraded starting states;
a property-based sweep drives randomized mixes through the same
comparison, and a saturated-buffer sweep pins the rejected-tenure
accounting parity of the fused admission pre-check.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bus.trace import BusTrace, encode_arrays
from repro.bus.transaction import BusCommand
from repro.engines import ENGINES
from repro.memories.batch import replay_words_batched
from repro.memories.board import MemoriesBoard, board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.counters import COUNTER_MASK
from repro.memories.tx_buffer import TransactionBuffer
from repro.target.configs import (
    multi_config_machine,
    single_node_machine,
    split_smp_machine,
)
from repro.telemetry import CounterSampler, MemorySink

N_CPUS = 8

#: Every engine besides the scalar oracle; the parity tests parametrised
#: on it run once per fast engine.
FAST_ENGINES = [name for name in ENGINES if name != "scalar"]


def full_mix_words(
    n: int,
    seed: int = 0,
    n_cpus: int = N_CPUS,
    max_cpu: int = N_CPUS,
    address_space: int = 1 << 24,
) -> np.ndarray:
    """Records covering every command and response, ~1/3 filtered.

    ``max_cpu`` above the machine's CPU count exercises the unmapped-master
    paths (remote probes from uninstantiated nodes, I/O bridge DMA).
    """
    rng = np.random.default_rng(seed)
    cpu_ids = rng.integers(0, max_cpu, n).astype(np.uint64)
    commands = rng.choice(
        np.arange(8, dtype=np.uint64),
        size=n,
        p=[0.40, 0.12, 0.06, 0.10, 0.08, 0.08, 0.08, 0.08],
    )
    responses = rng.choice(
        np.arange(4, dtype=np.uint64), size=n, p=[0.55, 0.20, 0.10, 0.15]
    )
    addresses = (
        rng.integers(0, address_space // 64, n).astype(np.uint64)
    ) * np.uint64(64)
    return encode_arrays(cpu_ids, commands, addresses, responses)


#: Address distance between consecutive tags of one set in the 128 KB,
#: 4-way, 128 B-line node of ``machine_for`` (256 sets).
SET_STRIDE = 256 * 128


def one_set_words(script) -> np.ndarray:
    """Pack ``(cpu, command, tag)`` steps that all address set 0."""
    cpus, commands, tags = (
        np.array(column, dtype=np.uint64) for column in zip(*script)
    )
    return encode_arrays(cpus, commands, tags * np.uint64(SET_STRIDE))


def machine_for(kind: str, replacement: str = "lru"):
    config = CacheNodeConfig(
        size=128 * 1024, assoc=4, line_size=128, replacement=replacement
    )
    if kind == "single":
        return single_node_machine(config, N_CPUS)
    if kind == "split":
        return split_smp_machine(config, N_CPUS, 2)
    other = CacheNodeConfig(
        size=64 * 1024, assoc=2, line_size=64, replacement=replacement
    )
    return multi_config_machine([config, other], N_CPUS)


def assert_paths_identical(make_board, words, chunks=None, engine=None):
    """Replay scalar and a fast engine; require identical checkpoints.

    ``engine`` names a registered engine to drive explicitly; None uses
    the board's own routing (``select_board_engine``), which picks the
    highest-rank eligible engine.
    """
    scalar = make_board()
    other = make_board()
    replay = (
        other.replay_words
        if engine is None
        else (lambda part: ENGINES[engine].replay(other, part))
    )
    parts = np.array_split(words, chunks) if chunks else [words]
    for part in parts:
        ENGINES["scalar"].replay(scalar, part)
        replay(part)
    assert scalar.statistics() == other.statistics()
    assert scalar.now_cycle == other.now_cycle
    assert scalar.retries_posted == other.retries_posted
    assert scalar.checkpoint() == other.checkpoint()
    return scalar, other


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("kind", ["single", "split", "multi"])
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random", "plru"])
    def test_every_machine_and_policy(self, kind, replacement):
        words = full_mix_words(4000, seed=7)
        machine = machine_for(kind, replacement)
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), words,
            engine="batched",
        )

    def test_chunked_replay_matches(self):
        words = full_mix_words(3000, seed=11)
        machine = machine_for("split")
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=1), words, chunks=7,
            engine="batched",
        )

    def test_empty_and_all_filtered_traces(self):
        machine = machine_for("single")
        empty = np.zeros(0, dtype=np.uint64)
        assert_paths_identical(lambda: board_for_machine(machine), empty)
        rng = np.random.default_rng(5)
        n = 500
        filtered = encode_arrays(
            rng.integers(0, N_CPUS, n).astype(np.uint64),
            rng.integers(4, 8, n).astype(np.uint64),  # IO/interrupt/sync only
            rng.integers(0, 1 << 20, n).astype(np.uint64),
        )
        assert_paths_identical(lambda: board_for_machine(machine), filtered)

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru", "random"])
    def test_full_sets_evict_and_refill_after_peer_invalidation(
        self, replacement
    ):
        """Pin the fused runner's set edits on install and invalidation.

        Node 0 (cpus 0-1) fills one set to its four ways, write-hits a
        middle way, and evicts twice.  Node 1 (cpu 2) then claims the
        newest line, so node 0 loses it to a peer invalidation.  The next
        install lands in a partly filled set, more installs evict again,
        and the write hits dirty exactly the lines a scan of the set finds.
        """
        read, rwitm = int(BusCommand.READ), int(BusCommand.RWITM)
        script = [(0, read, tag) for tag in (0, 1, 2, 3)]
        script += [(0, rwitm, 1), (0, read, 4), (0, read, 5), (2, rwitm, 5)]
        script += [(0, read, 6), (0, rwitm, 6), (0, read, 7), (0, read, 0)]
        script += [(0, rwitm, tag) for tag in (1, 6, 7, 0)]
        machine = machine_for("split", replacement)
        scalar, _ = assert_paths_identical(
            lambda: board_for_machine(machine, seed=3), one_set_words(script),
            engine="batched",
        )
        stats = scalar.statistics()
        assert stats["node0.remote.invalidated"] == 1
        assert stats["node0.evict.clean"] >= 4
        assert scalar.firmware.nodes[0].directory.ways_in_set(0) == 4

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "plru"])
    def test_install_after_bit_flip_aliases_two_tags(self, replacement):
        """A flipped tag can duplicate another resident tag; every probe
        must find the first occurrence, as the directory's scan does.

        Ways 0 and 1 of node 0's set end up holding one tag (3 under
        LRU/FIFO, a clean and a dirty copy; 0 under PLRU).  A read hit on
        tag 0 then rotates the LRU set past the pair, the next install
        evicts around it, and the write hits show which copy a probe
        finds.
        """
        read, rwitm = int(BusCommand.READ), int(BusCommand.RWITM)
        machine = machine_for("split", replacement)

        def make_board():
            board = board_for_machine(machine, seed=3)
            ENGINES["scalar"].replay(board, one_set_words(
                [(0, read, 0), (0, read, 1), (0, rwitm, 2), (0, read, 3)]
            ))
            directory = board.firmware.nodes[0].directory
            directory.inject_bit_flip(0, 1, 0)
            tags = directory._tags[0]
            assert tags[0] == tags[1]
            return board

        script = [
            (0, read, 0), (0, read, 4), (0, rwitm, 3), (0, rwitm, 0),
            (0, read, 5),
        ]
        assert_paths_identical(
            make_board, one_set_words(script), engine="batched"
        )

    def test_resumes_from_degraded_state(self):
        """The engine must be exact from any starting state, not just reset."""
        words = full_mix_words(2500, seed=13)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=9)
            ENGINES["scalar"].replay(board, full_mix_words(800, seed=21))
            board.firmware.offline_node(1)
            board.note_snoop_loss(0x1000)
            return board

        assert_paths_identical(make_board, words)


class TestTelemetryChunking:
    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("cadence", [1, 7, 64, 1024])
    def test_transaction_cadence_identical(self, cadence, engine):
        words = full_mix_words(2000, seed=17)
        machine = machine_for("split")

        def make_board(sink):
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(
                CounterSampler(sink, every_transactions=cadence)
            )
            return board

        scalar_sink, fast_sink = MemorySink(), MemorySink()
        scalar = make_board(scalar_sink)
        fast = make_board(fast_sink)
        ENGINES["scalar"].replay(scalar, words)
        ENGINES[engine].replay(fast, words)
        scalar.telemetry.finish(scalar)
        fast.telemetry.finish(fast)
        assert scalar_sink.records == fast_sink.records
        assert len(fast_sink.records) > 0
        assert scalar.statistics() == fast.statistics()
        assert scalar.checkpoint() == fast.checkpoint()

    def test_cycle_cadence_identical(self):
        words = full_mix_words(1500, seed=19)
        machine = machine_for("single")
        sinks = []

        def make_board():
            sink = MemorySink()
            sinks.append(sink)
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(CounterSampler(sink, every_cycles=730.0))
            return board

        assert_paths_identical(make_board, words, chunks=3)
        scalar_sink, batched_sink = sinks
        assert scalar_sink.records == batched_sink.records
        assert len(batched_sink.records) > 0


class TestEngineSelection:
    def test_ecc_scrubber_declines_batching(self):
        from repro.engines import Capability, decide, select_board_engine

        words = full_mix_words(600, seed=29)
        machine = machine_for("single")
        board = board_for_machine(machine, ecc=True, scrub_interval=500.0)
        # The capability prover denies INERT_BACKGROUND_TICK (the patrol
        # scrubber must tick between tenures), so the registry rejects the
        # batched engine and routes the board to the scalar path.
        decision = decide("batched", board=board)
        assert not decision.eligible
        assert Capability.INERT_BACKGROUND_TICK in decision.missing
        assert "scrubber" in decision.reason()
        assert select_board_engine(board).name == "scalar"
        # replay_words still works (scalar selection) and matches a forced
        # scalar run exactly.
        assert_paths_identical(
            lambda: board_for_machine(machine, seed=4, ecc=True,
                                      scrub_interval=500.0),
            words,
        )

    def test_sdram_node_uses_generic_runner(self):
        """SDRAM-priced buffers exclude the fused loop, not batching."""
        from repro.memories.sdram import SdramModel

        words = full_mix_words(1200, seed=31)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=6)
            board.firmware.nodes[0].sdram = SdramModel()
            return board

        assert_paths_identical(make_board, words)

    def test_tracer_firmware_generic_runner(self):
        from repro.memories.firmware.tracer import TraceCollectorFirmware

        words = full_mix_words(800, seed=37)

        def make_board():
            return MemoriesBoard(
                TraceCollectorFirmware(capacity=2000), name="t"
            )

        scalar, batched = assert_paths_identical(make_board, words)
        assert np.array_equal(
            scalar.firmware.to_trace().words, batched.firmware.to_trace().words
        )


class TestZeroCountdownRegression:
    """A sampler countdown at (or below) zero on entry must not produce
    an empty chunk (this used to crash ``_run_chunk`` on ``steps[0]``)."""

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("countdown", [0, -3])
    def test_zero_countdown_entry_matches_scalar(self, engine, countdown):
        words = full_mix_words(300, seed=53)
        machine = machine_for("split")

        def make_board(sink):
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(
                CounterSampler(sink, every_transactions=50)
            )
            # Force the degenerate entry state a detach/reattach landing
            # exactly on a cadence boundary produces.
            board.telemetry._countdown = countdown
            return board

        scalar_sink, fast_sink = MemorySink(), MemorySink()
        scalar = make_board(scalar_sink)
        fast = make_board(fast_sink)
        ENGINES["scalar"].replay(scalar, words)
        ENGINES[engine].replay(fast, words)
        assert scalar_sink.records == fast_sink.records
        assert scalar.statistics() == fast.statistics()
        assert scalar.checkpoint() == fast.checkpoint()

    def test_zero_countdown_no_longer_crashes(self):
        board = board_for_machine(machine_for("single"))
        board.attach_telemetry(
            CounterSampler(MemorySink(), every_transactions=10)
        )
        board.telemetry._countdown = 0
        assert replay_words_batched(board, full_mix_words(25, seed=1)) == 25


class TestRejectedParity:
    """Rejected-tenure accounting parity under saturated buffers.

    The fused admission pre-check drains every group's local queue and
    increments ``rejected`` only on the full ones; scalar
    ``CacheEmulationFirmware.process`` must account identically, proven
    here with deliberately tiny capacities and service times far above
    the tenure spacing so refusals actually occur.
    """

    def saturate(self, board, capacity, service):
        for node in board.firmware.nodes:
            stats = node.buffer.stats
            node.buffer = TransactionBuffer(
                capacity=capacity, service_cycles=service
            )
            node.buffer.stats = stats
        return board

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    @pytest.mark.parametrize("kind", ["split", "multi"])
    def test_saturated_buffers_identical(self, engine, kind):
        words = full_mix_words(2000, seed=59)
        machine = machine_for(kind)

        def make_board():
            return self.saturate(
                board_for_machine(machine, seed=2), capacity=1, service=5e4
            )

        scalar, fast = assert_paths_identical(
            make_board, words, engine=engine
        )
        stats = scalar.statistics()
        rejected = sum(
            value for key, value in stats.items()
            if key.endswith("buffer.rejected")
        )
        assert rejected > 0, "saturation did not produce refusals"
        assert scalar.retries_posted > 0

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        capacity=st.integers(1, 3),
        service=st.sampled_from([100.0, 3e3, 5e4]),
        engine=st.sampled_from(FAST_ENGINES),
    )
    def test_rejected_accounting_property(
        self, seed, capacity, service, engine
    ):
        words = full_mix_words(700, seed=seed)
        machine = machine_for("multi")

        def make_board():
            return self.saturate(
                board_for_machine(machine, seed=seed % 13),
                capacity=capacity,
                service=service,
            )

        assert_paths_identical(make_board, words, engine=engine)


class TestEdgeChunks:
    """Chunk-shape edges: all-filtered chunks, chunk size 1, boundaries
    landing exactly on the countdown, wrap-adjacent 40-bit counters."""

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_all_filtered_chunks_with_telemetry(self, engine):
        # Every record is filtered (IO/interrupt/sync): chunks contain
        # zero admitted tenures but must still advance clock, filter
        # stats and the sampler cursor exactly.
        rng = np.random.default_rng(5)
        n = 200
        words = encode_arrays(
            rng.integers(0, N_CPUS, n).astype(np.uint64),
            rng.integers(4, 8, n).astype(np.uint64),
            rng.integers(0, 1 << 20, n).astype(np.uint64),
        )
        machine = machine_for("single")

        def make_board():
            board = board_for_machine(machine)
            board.attach_telemetry(
                CounterSampler(MemorySink(), every_transactions=3)
            )
            return board

        assert_paths_identical(make_board, words, engine=engine)

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_single_record_chunks(self, engine):
        # Cadence 1 makes every chunk exactly one record long.
        words = full_mix_words(120, seed=67)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(
                CounterSampler(MemorySink(), every_transactions=1)
            )
            return board

        assert_paths_identical(make_board, words, engine=engine)

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_boundary_exactly_on_countdown(self, engine):
        # Trace length an exact multiple of the cadence: the final chunk
        # ends on the countdown and on_countdown fires at the last record.
        cadence = 64
        words = full_mix_words(cadence * 5, seed=71)
        machine = machine_for("split")
        sinks = []

        def make_board():
            sink = MemorySink()
            sinks.append(sink)
            board = board_for_machine(machine, seed=2)
            board.attach_telemetry(
                CounterSampler(sink, every_transactions=cadence)
            )
            return board

        assert_paths_identical(make_board, words, engine=engine)
        scalar_sink, fast_sink = sinks
        assert scalar_sink.records == fast_sink.records
        assert len(fast_sink.records) == 5

    @pytest.mark.parametrize("engine", FAST_ENGINES)
    def test_wrap_adjacent_global_counters(self, engine):
        # Seed the global bank just below the 40-bit mask so
        # record_batch wraps mid-replay; masked readouts and the
        # wrapped-counter report must match scalar exactly.
        words = full_mix_words(1500, seed=73)
        machine = machine_for("split")

        def make_board():
            board = board_for_machine(machine, seed=2)
            bank = board.global_counter.counters
            bank.increment("bus.cycles", COUNTER_MASK - 500)
            bank.increment("bus.tenures", COUNTER_MASK - 3)
            return board

        scalar, fast = assert_paths_identical(make_board, words, engine=engine)
        bank = fast.global_counter.counters
        assert bank.wrapped("bus.cycles") and bank.wrapped("bus.tenures")
        assert bank.read("bus.tenures") == bank.read_raw("bus.tenures") & COUNTER_MASK


class TestBatchedProperty:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(1, 600),
        kind=st.sampled_from(["single", "split", "multi"]),
        replacement=st.sampled_from(["lru", "fifo", "random", "plru"]),
        cadence=st.sampled_from([None, 1, 13, 256]),
        engine=st.sampled_from([None, *FAST_ENGINES]),
    )
    def test_randomized_mix_identical(
        self, seed, n, kind, replacement, cadence, engine
    ):
        words = full_mix_words(n, seed=seed)
        machine = machine_for(kind, replacement)

        def make_board():
            board = board_for_machine(machine, seed=seed % 17)
            if cadence is not None:
                board.attach_telemetry(
                    CounterSampler(MemorySink(), every_transactions=cadence)
                )
            return board

        assert_paths_identical(
            make_board, words, chunks=min(3, n), engine=engine
        )
