"""The batched replay engine: vectorised pre-decode, fused protocol loop.

The real board is a hardware pipeline — address filter FPGA, global events
counter FPGA, node controller FPGAs — that keeps up with a 100 MHz bus.
The scalar software path re-walks that pipeline object by object for every
tenure, which is faithful but slow.  This module is the board's "fast
datapath": :func:`replay_words_batched` replays a packed trace chunk with

* one vectorised pre-pass computing the address-filter admit mask (IO /
  interrupt / sync / retried tenures) over the whole chunk,
* bulk filter statistics, filter-buffer occupancy
  (:meth:`~repro.memories.tx_buffer.TransactionBuffer.offer_batch`) and
  global-counter updates
  (:meth:`~repro.memories.global_counter.GlobalEventsCounter.record_batch`),
* a bit-exact clock carried as one ``cumsum`` (sequential accumulation,
  so every intermediate ``now`` equals the scalar path's repeated
  addition), and
* a Python loop that runs protocol transitions **only for admitted
  tenures** — fused (directory, buffers and counters inlined) for the
  stock cache-emulation firmware, or generic (``firmware.process`` per
  admitted tenure) for any other image.  The fused loop accumulates
  counters under integer ids (:data:`COUNTER_NAMES`), finds the local
  node by indexing a cpu-id list, and edits the directory's own set lists
  through its replacement policy's ``touch``/``insert`` — the code the
  scalar path runs.

Bit-identity with :meth:`MemoriesBoard._replay_words_scalar` is the
contract, enforced by the property suite in ``tests/test_batched_replay``:
counter increments commute within a chunk, buffer and directory mutations
are applied in tenure order, and chunks are split at telemetry countdown
boundaries so every sampler observation sees exactly the state the scalar
path would show it.  Whenever an active feature breaks one of those
arguments (a live ECC patrol scrubber that must tick between tenures),
the engine registry (:mod:`repro.engines`) proves the capability missing
and routes the board to the scalar loop instead — the decision is made
statically, before replay, not inside this module.  (An SDRAM timing
model or an ECC directory merely demotes the *fused* runner to the
generic one; both stay bit-exact.)
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.bus.trace import _CPU_MASK, decode_arrays
from repro.bus.transaction import COMMANDS, RESPONSES, BusCommand, SnoopResponse
from repro.memories.board import _MAX_PROCESSOR_ID
from repro.memories.protocol_table import CacheOp, LineState

_IO_READ = int(BusCommand.IO_READ)
_IO_WRITE = int(BusCommand.IO_WRITE)
_INTERRUPT = int(BusCommand.INTERRUPT)
_SYNC = int(BusCommand.SYNC)
_RETRY = int(SnoopResponse.RETRY)

_READ = int(BusCommand.READ)
_CASTOUT = int(BusCommand.CASTOUT)
_LOCAL_WRITE = int(CacheOp.LOCAL_WRITE)
_LOCAL_CASTOUT = int(CacheOp.LOCAL_CASTOUT)
_REMOTE_READ = int(CacheOp.REMOTE_READ)
_REMOTE_WRITE = int(CacheOp.REMOTE_WRITE)
_SHARED = int(LineState.SHARED)
_OWNED = int(LineState.OWNED)
_N_STATES = max(int(state) for state in LineState) + 1
_N_OPS = max(int(op) for op in CacheOp) + 1

#: Counter ids: every counter name the fused runner can emit, in a fixed
#: order.  A node accumulates into ``acc[id]`` and flushes the non-zero
#: slots by name at chunk end, so the hot loop never hashes a string.
COUNTER_NAMES: List[str] = []


def _cid(name: str) -> int:
    if name not in COUNTER_NAMES:
        COUNTER_NAMES.append(name)
    return COUNTER_NAMES.index(name)


#: Per local command (raw int 0..3): primary counter, secondary counter
#: (-1 = none), CacheOp, hit counter, miss counter, fetches-data flag —
#: the constants NodeController.process_local derives per tenure.
_CMD_TAB = (
    (_cid("local.read"), -1, int(CacheOp.LOCAL_READ),
     _cid("hit.read"), _cid("miss.read"), True),
    (_cid("local.write"), -1, _LOCAL_WRITE,
     _cid("hit.write"), _cid("miss.write"), True),
    (_cid("local.write"), _cid("local.upgrade"), _LOCAL_WRITE,
     _cid("hit.write"), _cid("miss.write"), False),
    (_cid("local.castout"), -1, _LOCAL_CASTOUT,
     _cid("hit.castout"), _cid("miss.castout"), False),
)
_HIT_STATE_CID = tuple(
    _cid(f"hit_state.{LineState(i).name}") for i in range(_N_STATES)
)
_FILL_CID = tuple(_cid(f"fill.{LineState(i).name}") for i in range(_N_STATES))
_CID_INCLUSION = _cid("inclusion.castout_miss")
_CID_INTERVENTION = _cid("intervention.from_peer")
_CID_EVICT_DIRTY = _cid("evict.dirty")
_CID_EVICT_CLEAN = _cid("evict.clean")
#: Figure 12 satisfaction counters by snoop-response int, for hits and
#: misses (RETRY tenures never reach the runner: the filter drops them).
_SAT_HIT_CID = tuple(
    _cid(name) for name in ("satisfied.l3", "satisfied.shr_int", "satisfied.mod_int")
)
_SAT_MISS_CID = tuple(
    _cid(name)
    for name in ("satisfied.memory", "satisfied.shr_int", "satisfied.mod_int")
)
_CID_REMOTE_READ = _cid("remote.read")
_CID_REMOTE_WRITE = _cid("remote.write")
_CID_SUPPLIED_DIRTY = _cid("remote.supplied_dirty")
_CID_INVALIDATED = _cid("remote.invalidated")

_DIRTY_OF = [LineState(i).is_dirty for i in range(_N_STATES)]

#: Routing lists have one slot per cpu id the packed trace can carry.
_CPU_SLOTS = _CPU_MASK + 1


class _FusedNode:
    """Flattened hot-path view of one NodeController.

    Holds direct references to the controller's mutable structures (the
    finish-time deque, the directory's tag/state/meta lists and its
    replacement policy's ``touch``/``insert``) plus local copies of
    scalar buffer statistics and an integer-indexed counter accumulator.  The scalars are loaded at chunk start and stored back at
    chunk end — safe because within a fused chunk *only* this engine
    touches them, and the board only reads them between chunks (telemetry
    boundaries).
    """

    __slots__ = (
        "buffer", "ft", "capacity", "service", "last_finish",
        "accepted", "rejected", "high_water",
        "tags", "states", "meta", "assoc", "touch", "insert",
        "off_bits", "set_mask", "tag_shift",
        "trans", "fill_write", "fill_read_shared", "fill_read_alone",
        "acc", "counters", "peers",
    )

    def __init__(self, node) -> None:
        buffer = node.buffer
        self.buffer = buffer
        self.ft = buffer._finish_times
        self.capacity = buffer.capacity
        self.service = buffer.service_cycles
        directory = node.directory
        self.tags = directory._tags
        self.states = directory._states
        self.meta = directory._meta
        self.assoc = directory.config.assoc
        self.touch = directory.policy.touch
        self.insert = directory.policy.insert
        amap = directory.amap
        self.off_bits = amap.offset_bits
        self.set_mask = amap.num_sets - 1
        self.tag_shift = amap.offset_bits + amap.index_bits
        # Dense (op, state) -> (next_state, invalidates, is_hit) table.
        table: List[List[Optional[tuple]]] = [
            [None] * _N_STATES for _ in range(_N_OPS)
        ]
        for (op, state), transition in node._table.items():
            table[op][state] = (
                int(transition.next_state),
                transition.next_state is LineState.INVALID,
                transition.is_hit,
            )
        self.trans = table
        fill = node._fill
        self.fill_write = int(fill.write)
        self.fill_read_shared = int(fill.read_shared)
        self.fill_read_alone = int(fill.read_alone)
        self.acc = [0] * len(COUNTER_NAMES)
        self.counters = node.counters
        self.peers: tuple = ()

    def load(self) -> None:
        """Snapshot the buffer scalars for the coming chunk."""
        buffer = self.buffer
        self.ft = buffer._finish_times
        self.last_finish = buffer._last_finish
        stats = buffer.stats
        self.accepted = stats.accepted
        self.rejected = stats.rejected
        self.high_water = stats.high_water

    def store(self) -> None:
        """Write buffer scalars back and flush accumulated counters."""
        buffer = self.buffer
        buffer._last_finish = self.last_finish
        stats = buffer.stats
        stats.accepted = self.accepted
        stats.rejected = self.rejected
        stats.high_water = self.high_water
        counters = self.counters
        acc = self.acc
        for cid, value in enumerate(acc):
            if value:
                counters.increment(COUNTER_NAMES[cid], value)
                acc[cid] = 0


def _remote(fused: _FusedNode, op: int, address: int, now: float):
    """Inlined NodeController.process_remote on a fused node view."""
    acc = fused.acc
    if op == _REMOTE_READ:
        acc[_CID_REMOTE_READ] += 1
    else:
        acc[_CID_REMOTE_WRITE] += 1
    ft = fused.ft
    while ft and ft[0] <= now:
        ft.popleft()
    if len(ft) >= fused.capacity:
        fused.rejected += 1
        return False, False
    last = fused.last_finish
    start = now if now > last else last
    finish = start + fused.service
    ft.append(finish)
    fused.last_finish = finish
    fused.accepted += 1
    depth = len(ft)
    if depth > fused.high_water:
        fused.high_water = depth
    set_index = (address >> fused.off_bits) & fused.set_mask
    tag = address >> fused.tag_shift
    tags_in_set = fused.tags[set_index]
    if tag not in tags_in_set:
        return False, False
    way = tags_in_set.index(tag)
    states_in_set = fused.states[set_index]
    state = states_in_set[way]
    next_state, invalidates, is_hit = fused.trans[op][state]
    supplied_dirty = is_hit and _DIRTY_OF[state]
    if supplied_dirty:
        acc[_CID_SUPPLIED_DIRTY] += 1
    if invalidates:
        tags_in_set.pop(way)
        states_in_set.pop(way)
        acc[_CID_INVALIDATED] += 1
    else:
        states_in_set[way] = next_state
    return True, supplied_dirty


def _fused_runner(firmware):
    """Build a fused admitted-tenure runner, or None when ineligible.

    Eligible when every in-service node uses the constant-service
    transaction buffer (no SDRAM timing model) and an unprotected
    directory (no ECC).  The runner replays admitted tenures in order
    with the NodeController hot path inlined: counters accumulate under
    integer ids, the local node is found by indexing a per-group list
    with the cpu id, and hits and misses reorder the directory's sets
    through its replacement policy's own ``touch`` and ``insert``.
    """
    groups = getattr(firmware, "_groups", None)
    if groups is None:
        return None
    fused_of = {}
    for local_by_cpu, _peers_of, controllers in groups:
        for node in controllers:
            if node.sdram is not None or node.ecc:
                return None
            if id(node) not in fused_of:
                fused_of[id(node)] = _FusedNode(node)
    fused_groups = []
    all_fused = list(fused_of.values())
    for local_by_cpu, peers_of, controllers in groups:
        for node in controllers:
            fused_of[id(node)].peers = tuple(
                fused_of[id(peer)] for peer in peers_of[node.index]
            )
        local_of: List[Optional[_FusedNode]] = [None] * _CPU_SLOTS
        for cpu, node in local_by_cpu.items():
            if cpu < _CPU_SLOTS:  # larger ids never appear in a trace
                local_of[cpu] = fused_of[id(node)]
        fused_groups.append(
            (local_of, tuple(fused_of[id(node)] for node in controllers))
        )

    cmd_tab = _CMD_TAB
    hit_state_cid = _HIT_STATE_CID
    fill_cid = _FILL_CID
    dirty_of = _DIRTY_OF
    sat_hit_cid = _SAT_HIT_CID
    sat_miss_cid = _SAT_MISS_CID
    remote = _remote

    def run(cpus, cmds, addrs, resps, nows) -> int:
        for fused in all_fused:
            fused.load()
        retries = 0
        for cpu, cmd, addr, resp, now in zip(
            cpus.tolist(), cmds.tolist(), addrs.tolist(),
            resps.tolist(), nows.tolist(),
        ):
            # Admission pre-check across every group before any state
            # changes (a refused tenure must be side-effect free).
            rejected = False
            for local_of, _controllers in fused_groups:
                local = local_of[cpu]
                if local is not None:
                    ft = local.ft
                    while ft and ft[0] <= now:
                        ft.popleft()
                    if len(ft) >= local.capacity:
                        local.rejected += 1
                        rejected = True
            if rejected:
                retries += 1
                continue

            for local_of, controllers in fused_groups:
                local = local_of[cpu]
                if local is None:
                    # Unmapped master (see CacheEmulationFirmware.process).
                    if cmd == _READ:
                        op = _REMOTE_READ
                    elif cmd == _CASTOUT and cpu <= _MAX_PROCESSOR_ID:
                        continue
                    else:
                        op = _REMOTE_WRITE
                    for fused in controllers:
                        remote(fused, op, addr, now)
                    continue

                # Inlined NodeController.process_local.  The buffer offer
                # cannot fail here: the pre-check drained this queue at the
                # same `now` and found room, and nothing has been enqueued
                # since.
                ft = local.ft
                last = local.last_finish
                start = now if now > last else last
                finish = start + local.service
                ft.append(finish)
                local.last_finish = finish
                local.accepted += 1
                depth = len(ft)
                if depth > local.high_water:
                    local.high_water = depth

                acc = local.acc
                base_cid, extra_cid, op, hit_cid, miss_cid, fetches = (
                    cmd_tab[cmd]
                )
                acc[base_cid] += 1
                if extra_cid >= 0:
                    acc[extra_cid] += 1

                set_index = (addr >> local.off_bits) & local.set_mask
                tag = addr >> local.tag_shift
                tags_in_set = local.tags[set_index]
                states_in_set = local.states[set_index]

                if tag in tags_in_set:
                    way = tags_in_set.index(tag)
                    state = states_in_set[way]
                    next_state, invalidates, _is_hit = local.trans[op][state]
                    acc[hit_cid] += 1
                    acc[hit_state_cid[state]] += 1
                    if invalidates:
                        tags_in_set.pop(way)
                        states_in_set.pop(way)
                    else:
                        states_in_set[way] = next_state
                        meta = local.meta
                        _way, meta[set_index] = local.touch(
                            tags_in_set, states_in_set, way, meta[set_index]
                        )
                    if op == _LOCAL_WRITE and (
                        state == _SHARED or state == _OWNED
                    ):
                        for peer in local.peers:
                            remote(peer, _REMOTE_WRITE, addr, now)
                    if fetches:
                        acc[sat_hit_cid[resp]] += 1
                    continue

                # Miss path.
                acc[miss_cid] += 1
                if op == _LOCAL_CASTOUT:
                    acc[_CID_INCLUSION] += 1
                    fill = local.fill_write
                elif op == _LOCAL_WRITE:
                    for peer in local.peers:
                        remote(peer, _REMOTE_WRITE, addr, now)
                    fill = local.fill_write
                else:  # LOCAL_READ
                    shared_elsewhere = False
                    for peer in local.peers:
                        held, dirty = remote(peer, _REMOTE_READ, addr, now)
                        if held:
                            shared_elsewhere = True
                        if dirty:
                            acc[_CID_INTERVENTION] += 1
                    fill = (
                        local.fill_read_shared
                        if shared_elsewhere
                        else local.fill_read_alone
                    )
                meta = local.meta
                victim, meta[set_index] = local.insert(
                    tags_in_set, states_in_set, tag, fill, local.assoc,
                    meta[set_index],
                )
                acc[fill_cid[fill]] += 1
                if victim is not None:
                    if dirty_of[victim[1]]:
                        acc[_CID_EVICT_DIRTY] += 1
                    else:
                        acc[_CID_EVICT_CLEAN] += 1
                if fetches:
                    acc[sat_miss_cid[resp]] += 1
        for fused in all_fused:
            fused.store()
        return retries

    return run


def _generic_runner(firmware):
    """Admitted-tenure runner calling ``firmware.process`` per tenure.

    Used for firmware images without the fused fast path (tracer, hot-spot
    profiler, NUMA directory, remote-cache, SDRAM-priced or ECC cache
    nodes): the vectorised pre-pass still removes filtered tenures,
    filter/global bookkeeping and the clock from the Python loop.
    """
    process = firmware.process
    commands = COMMANDS
    responses = RESPONSES

    def run(cpus, cmds, addrs, resps, nows) -> int:
        retries = 0
        for cpu, cmd, addr, resp, now in zip(
            cpus.tolist(), cmds.tolist(), addrs.tolist(),
            resps.tolist(), nows.tolist(),
        ):
            if not process(cpu, commands[cmd], addr, responses[resp], now):
                retries += 1
        return retries

    return run


def replay_words_batched(board, words: np.ndarray) -> int:
    """Replay packed records through the batched engine; returns the count.

    Precondition (proven statically, not checked here): the board grants
    ``INERT_BACKGROUND_TICK`` — no time-driven firmware machinery needs
    to interleave between tenures.  The engine registry
    (:func:`repro.engines.select_board_engine`) only routes a
    board here after the capability prover establishes that, so this
    function carries no refusal logic of its own.
    """
    count = int(words.shape[0])
    if count == 0:
        return 0
    runner = _fused_runner(board.firmware)
    if runner is None:
        runner = _generic_runner(board.firmware)

    cpu_ids, commands, addresses, responses = decode_arrays(words)
    is_io = (commands == _IO_READ) | (commands == _IO_WRITE)
    is_interrupt = commands == _INTERRUPT
    is_sync = commands == _SYNC
    command_filtered = is_io | is_interrupt | is_sync
    is_retried = ~command_filtered & (responses == _RETRY)
    admit = ~(command_filtered | is_retried)

    telemetry = board.telemetry
    start = 0
    while start < count:
        # Chunks end exactly where the sampler's countdown would reach
        # zero, so on_countdown observes the same board state at the same
        # transaction index as the scalar per-tenure decrement.
        remaining = count - start
        if telemetry is not None and telemetry._countdown < remaining:
            # A countdown at (or below) zero on entry — a detach/reattach
            # landing exactly on a cadence boundary — still replays one
            # tenure before the boundary check: the scalar loop decrements
            # first and fires after the tenure commits, so the chunk must
            # never be empty.
            countdown = telemetry._countdown
            take = countdown if countdown > 0 else 1
        else:
            take = remaining
        stop = start + take
        _run_chunk(
            board,
            runner,
            cpu_ids[start:stop],
            commands[start:stop],
            addresses[start:stop],
            responses[start:stop],
            is_io[start:stop],
            is_interrupt[start:stop],
            is_sync[start:stop],
            is_retried[start:stop],
            admit[start:stop],
        )
        if telemetry is not None:
            telemetry._countdown -= take
            if telemetry._countdown <= 0:
                telemetry.on_countdown(board)
        start = stop
    return count


def _run_chunk(
    board,
    runner,
    cpu_ids,
    commands,
    addresses,
    responses,
    is_io,
    is_interrupt,
    is_sync,
    is_retried,
    admit,
) -> None:
    chunk = int(cpu_ids.shape[0])
    cycles_per_tenure = board.cycles_per_tenure
    # The scalar clock is `now += cpt` per tenure; np.cumsum accumulates
    # left to right with the same per-step IEEE rounding, so seeding the
    # first step with the current clock reproduces every intermediate
    # `now` bit for bit.
    steps = np.full(chunk, cycles_per_tenure, dtype=np.float64)
    steps[0] = board.now_cycle + cycles_per_tenure
    nows = np.cumsum(steps)

    admitted = np.nonzero(admit)[0]
    n_admitted = int(admitted.shape[0])

    stats = board.address_filter.stats
    stats.observed += chunk
    stats.filtered_io += int(np.count_nonzero(is_io))
    stats.filtered_interrupts += int(np.count_nonzero(is_interrupt))
    stats.filtered_sync += int(np.count_nonzero(is_sync))
    stats.filtered_retried += int(np.count_nonzero(is_retried))
    stats.forwarded += n_admitted

    if n_admitted:
        admitted_nows = nows[admitted]
        board.address_filter.buffer.offer_batch(admitted_nows)
        board.global_counter.record_batch(
            cpu_ids[admitted], commands[admitted], cycles_per_tenure
        )
        board.retries_posted += runner(
            cpu_ids[admitted],
            commands[admitted],
            addresses[admitted],
            responses[admitted],
            admitted_nows,
        )
    board.now_cycle = float(nows[-1])
