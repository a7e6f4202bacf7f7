"""Tests for the bus's snoop filter (line -> holder-bitmask map).

The filter lets the bus skip host L2s that do not hold a line.  Such a
cache would answer NULL and change nothing, so a filtered machine must be
indistinguishable from one that snoops every cache on every tenure: same
cache statistics, same MESI states, same bus statistics, same trace words.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bus.bus import SystemBus
from repro.bus.transaction import BusCommand, BusTransaction, SnoopResponse
from repro.host.cache import MESIState, SnoopingCache
from repro.host.smp import HostConfig, HostSMP
from repro.memories.board import MemoriesBoard
from repro.memories.firmware.tracer import TraceCollectorFirmware
from tests.test_bus import FixedSnooper

LINE = 128
N_LINES = 24


class UnfilteredCache(SnoopingCache):
    """An L2 that does not join the filter, so the bus snoops it always."""

    join_snoop_filter = None


def build_host(config, filtered):
    if filtered:
        host = HostSMP(config)
    else:
        with mock.patch("repro.host.smp.SnoopingCache", UnfilteredCache):
            host = HostSMP(config)
    tracer = TraceCollectorFirmware()
    host.plug_in(MemoriesBoard(tracer, name="tracer"))
    return host, tracer


def drive(host, chunk):
    """Run one chunk: processor references, then I/O-bridge tenures."""
    refs, io_ops = chunk
    if refs:
        cpu_ids, lines, writes = zip(*refs)
        host.run_chunk(
            np.array(cpu_ids, dtype=np.int64),
            np.array(lines, dtype=np.int64) * LINE,
            np.array(writes, dtype=bool),
        )
    bridge = host.io_bridge
    for kind, line in io_ops:
        if kind == "dma_read":
            bridge.dma_read(line * LINE)
        elif kind == "dma_write":
            bridge.dma_write(line * LINE)
        else:
            bridge.register_access(line * LINE, is_write=bool(line & 1))


def expected_holders(host):
    """Union of every L2's resident lines, as the filter's bitmask map."""
    expected = {}
    for bit_index, processor in enumerate(host.processors):
        for line in range(N_LINES):
            if processor.l2.lookup_state(line * LINE) is not MESIState.INVALID:
                expected[line] = expected.get(line, 0) | (1 << bit_index)
    return expected


def machine_state(host, tracer):
    caches = [processor.l2 for processor in host.processors]
    l1s = [processor.l1 for processor in host.processors]
    return {
        "cache_stats": [cache.stats for cache in caches],
        "mesi": [
            [cache.lookup_state(line * LINE) for line in range(N_LINES)]
            for cache in caches
        ],
        "l1": [None if l1 is None else l1.stats for l1 in l1s],
        "bus": host.bus.statistics(),
        "memory": (host.memory.reads_from_memory, host.memory.writes_to_memory),
        "words": tracer.to_trace().words.tolist(),
    }


@st.composite
def machines(draw):
    n_cpus = draw(st.integers(2, 4))
    assoc = draw(st.integers(1, 2))
    sets = draw(st.sampled_from([1, 2, 4]))
    l1 = draw(st.booleans())
    return HostConfig(
        n_cpus=n_cpus,
        l2_size=sets * assoc * LINE,
        l2_assoc=assoc,
        line_size=LINE,
        l1_size=LINE if l1 else 0,
        l1_assoc=1,
    )


def chunks(n_cpus):
    ref = st.tuples(
        st.integers(0, n_cpus - 1), st.integers(0, N_LINES - 1), st.booleans()
    )
    io_op = st.tuples(
        st.sampled_from(["dma_read", "dma_write", "register"]),
        st.integers(0, N_LINES - 1),
    )
    chunk = st.tuples(
        st.lists(ref, max_size=40), st.lists(io_op, max_size=6)
    )
    return st.lists(chunk, min_size=1, max_size=8)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_filter_matches_residency_and_unfiltered_machine(data):
    config = data.draw(machines())
    traffic = data.draw(chunks(config.n_cpus))
    filtered, filtered_tracer = build_host(config, filtered=True)
    plain, plain_tracer = build_host(config, filtered=False)
    assert plain.bus.snoop_filter() == {}
    for chunk in traffic:
        drive(filtered, chunk)
        drive(plain, chunk)
        assert filtered.bus.snoop_filter() == expected_holders(filtered)
    assert machine_state(filtered, filtered_tracer) == machine_state(
        plain, plain_tracer
    )


class CountingCache(SnoopingCache):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snooped = 0

    def snoop(self, txn):
        self.snooped += 1
        return super().snoop(txn)


def attach_caches(bus, line_sizes, cls=CountingCache):
    caches = []
    for cpu, line_size in enumerate(line_sizes):
        cache = cls(cpu, bus, size=8 * line_size, assoc=2, line_size=line_size)
        bus.attach_snooper(cache)
        caches.append(cache)
    return caches


class TestSnoopFilter:
    def test_only_holders_are_snooped(self):
        bus = SystemBus()
        a, b, c = attach_caches(bus, [LINE] * 3)
        a.access(0x1000, is_write=False)
        assert (b.snooped, c.snooped) == (0, 0)
        b.access(0x1000, is_write=False)
        assert a.snooped == 1 and c.snooped == 0
        assert a.lookup_state(0x1000) is MESIState.SHARED
        c.access(0x1000, is_write=True)  # RWITM invalidates both holders
        assert (a.snooped, b.snooped) == (2, 1)
        assert bus.snoop_filter() == {0x1000 // LINE: 0b100}

    def test_line_shift_comes_from_the_caches(self):
        bus = SystemBus()
        a, b = attach_caches(bus, [64, 64])
        a.access(0x1040, is_write=False)
        assert bus.snoop_filter() == {0x1040 >> 6: 0b01}
        b.access(0x1040, is_write=True)
        assert a.lookup_state(0x1040) is MESIState.INVALID
        assert bus.snoop_filter() == {0x1040 >> 6: 0b10}

    def test_other_line_size_is_always_snooped(self):
        bus = SystemBus()
        a, b = attach_caches(bus, [LINE, 64])
        b.access(0x2000, is_write=False)
        assert bus.snoop_filter() == {}
        a.access(0x8000, is_write=False)  # a line b never held
        assert b.snooped == 1
        a.access(0x2000, is_write=True)
        assert b.lookup_state(0x2000) is MESIState.INVALID
        assert b.stats.snoop_invalidations == 1

    def test_non_joining_snooper_sees_every_tenure(self):
        bus = SystemBus()
        (cache,) = attach_caches(bus, [LINE])
        fixed = FixedSnooper(SnoopResponse.NULL)
        bus.attach_snooper(fixed)
        cache.access(0x1000, is_write=False)
        bus.issue(BusTransaction(16, BusCommand.IO_READ, 0x1000))
        bus.issue(BusTransaction(16, BusCommand.READ, 0x3000))
        assert [txn.command for txn in fixed.snooped] == [
            BusCommand.READ, BusCommand.IO_READ, BusCommand.READ,
        ]
        assert cache.snooped == 0  # never asked about a line it lacks

    def test_non_memory_tenures_skip_filtered_caches(self):
        bus = SystemBus()
        (cache,) = attach_caches(bus, [LINE])
        cache.access(0x1000, is_write=True)
        bus.issue(BusTransaction(16, BusCommand.IO_WRITE, 0x1000))
        assert cache.snooped == 0
        assert cache.lookup_state(0x1000) is MESIState.MODIFIED

    def test_eviction_and_castout_clear_the_bit(self):
        bus = SystemBus()
        (cache,) = attach_caches(bus, [LINE])  # 4 sets x 2 ways
        for way in range(3):  # three lines of set 0: the first is evicted
            cache.access(way * 4 * LINE, is_write=True)
        assert bus.snoop_filter() == {4: 1, 8: 1}
        assert cache.stats.castouts == 1

    def test_warm_cache_enters_its_lines_on_join(self):
        bus = SystemBus()
        cache = SnoopingCache(0, bus, size=8 * LINE, assoc=2, line_size=LINE)
        cache.access(0x1000, is_write=False)
        cache.access(0x2080, is_write=True)
        bus.attach_snooper(cache)
        assert bus.snoop_filter() == {0x1000 // LINE: 1, 0x2080 // LINE: 1}
