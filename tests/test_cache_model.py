"""Tests for repro.memories.cache_model: the SDRAM tag/state directory."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memories.cache_model import TagStateDirectory
from repro.memories.config import CacheNodeConfig
from repro.memories.protocol_table import LineState


def make_directory(size=16 * 1024, assoc=4, line_size=128, replacement="lru"):
    config = CacheNodeConfig(
        size=size, assoc=assoc, line_size=line_size, replacement=replacement
    )
    return TagStateDirectory(config)


class TestProbeInstall:
    def test_probe_miss_then_hit(self):
        directory = make_directory()
        set_index, tag, way = directory.probe(0x1000)
        assert way == -1
        directory.install(set_index, tag, int(LineState.SHARED))
        _, _, way = directory.probe(0x1000)
        assert way >= 0

    def test_state_read_write(self):
        directory = make_directory()
        set_index, tag, _ = directory.probe(0x2000)
        directory.install(set_index, tag, int(LineState.EXCLUSIVE))
        _, _, way = directory.probe(0x2000)
        assert directory.state_at(set_index, way) == int(LineState.EXCLUSIVE)
        directory.set_state(set_index, way, int(LineState.MODIFIED))
        assert directory.lookup_state(0x2000) == int(LineState.MODIFIED)

    def test_lookup_state_absent_is_invalid(self):
        assert make_directory().lookup_state(0x9999) == int(LineState.INVALID)

    def test_install_evicts_when_full(self):
        directory = make_directory(size=4 * 128, assoc=4)  # one set
        for i in range(4):
            set_index, tag, _ = directory.probe(i * 128)
            assert directory.install(set_index, tag, 1) is None
        set_index, tag, _ = directory.probe(4 * 128)
        evicted = directory.install(set_index, tag, 1)
        assert evicted is not None
        victim_addr, _state = evicted
        assert victim_addr == 0  # LRU: the first line installed

    def test_eviction_returns_line_address_and_state(self):
        directory = make_directory(size=2 * 128, assoc=2)
        s0, t0, _ = directory.probe(0x0000)
        directory.install(s0, t0, int(LineState.MODIFIED))
        s1, t1, _ = directory.probe(0x8000)
        directory.install(s1, t1, int(LineState.SHARED))
        s2, t2, _ = directory.probe(0x10000)
        evicted = directory.install(s2, t2, int(LineState.SHARED))
        assert evicted == (0x0000, int(LineState.MODIFIED))

    def test_invalidate_removes_line(self):
        directory = make_directory()
        set_index, tag, _ = directory.probe(0x3000)
        directory.install(set_index, tag, 2)
        _, _, way = directory.probe(0x3000)
        former = directory.invalidate(set_index, way)
        assert former == 2
        assert directory.lookup_state(0x3000) == int(LineState.INVALID)

    def test_touch_refreshes_lru(self):
        directory = make_directory(size=2 * 128, assoc=2)
        s, t0, _ = directory.probe(0 * 128 * directory.config.num_sets)
        directory.install(s, t0, 1)
        addr_b = 1 << 20
        sb, tb, _ = directory.probe(addr_b)
        directory.install(sb, tb, 1)
        # Touch the first line so the second becomes LRU.
        _, _, way = directory.probe(0)
        directory.touch(0, way)
        s2, t2, _ = directory.probe(1 << 21)
        evicted = directory.install(s2, t2, 1)
        assert evicted[0] == addr_b


class TestWholeDirectory:
    def test_resident_and_occupancy(self):
        directory = make_directory(size=8 * 128, assoc=2)
        for i in range(4):
            s, t, _ = directory.probe(i * 128)
            directory.install(s, t, 1)
        assert directory.resident_lines() == 4
        assert directory.occupancy() == pytest.approx(0.5)

    def test_iter_lines_rebuilds_addresses(self):
        directory = make_directory()
        addresses = {0x1000, 0x2080, 0x40100}
        for address in addresses:
            s, t, _ = directory.probe(address)
            directory.install(s, t, 1)
        listed = {addr for addr, _state in directory.iter_lines()}
        assert listed == {a & ~127 for a in addresses}

    def test_clear(self):
        directory = make_directory()
        s, t, _ = directory.probe(0x1000)
        directory.install(s, t, 1)
        directory.clear()
        assert directory.resident_lines() == 0

    def test_check_invariants_passes_after_traffic(self):
        directory = make_directory(size=1024, assoc=2)
        for i in range(100):
            s, t, _ = directory.probe((i * 937) % (1 << 16) * 128)
            if directory.probe((i * 937) % (1 << 16) * 128)[2] < 0:
                directory.install(s, t, 1)
        directory.check_invariants()


@st.composite
def directory_ops(draw):
    return draw(
        st.lists(
            st.tuples(
                st.integers(0, 31),   # line index
                st.integers(1, 3),    # state
                st.sampled_from(["access", "invalidate"]),
            ),
            min_size=1,
            max_size=200,
        )
    )


class TestPropertyBased:
    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random", "plru"])
    def test_invariants_under_random_ops_all_policies(self, replacement):
        import numpy as np

        rng = np.random.default_rng(5)
        directory = make_directory(size=8 * 128, assoc=4, replacement=replacement)
        for _ in range(500):
            address = int(rng.integers(0, 64)) * 128
            set_index, tag, way = directory.probe(address)
            if way < 0:
                directory.install(set_index, tag, int(rng.integers(1, 4)))
            else:
                directory.touch(set_index, way)
            directory.check_invariants()

    @given(ops=directory_ops())
    @settings(max_examples=50, deadline=None)
    def test_lru_invariants_property(self, ops):
        directory = make_directory(size=4 * 128, assoc=2)
        for line, state, kind in ops:
            address = line * 128
            set_index, tag, way = directory.probe(address)
            if kind == "access":
                if way < 0:
                    directory.install(set_index, tag, state)
                else:
                    directory.set_state(set_index, way, state)
                    directory.touch(set_index, way)
            elif way >= 0:
                directory.invalidate(set_index, way)
        directory.check_invariants()
        assert directory.resident_lines() <= directory.config.num_lines


class MutableMetaPolicy:
    """Test double: a policy whose per-set metadata is a mutable log.

    The built-in policies use integer metadata, where accidental sharing
    across sets is invisible (rebinding an int never aliases).  This
    policy makes the per-set-instance contract observable.
    """

    name = "log"
    needs_meta = True

    def make_meta(self):
        return []

    def touch(self, tags, states, way, meta):
        meta.append(way)
        return way, meta

    def insert(self, tags, states, tag, state, assoc, meta):
        victim = None
        if len(tags) >= assoc:
            victim = (tags.pop(), states.pop())
        tags.insert(0, tag)
        states.insert(0, state)
        meta.append(-1)
        return victim, meta


class TestPerSetMetadata:
    def make_logging_directory(self):
        config = CacheNodeConfig(size=8 * 128, assoc=2, line_size=128)
        return TagStateDirectory(config, policy=MutableMetaPolicy())

    def test_meta_instances_distinct_per_set(self):
        directory = self.make_logging_directory()
        metas = directory._meta
        assert len({id(meta) for meta in metas}) == len(metas)

    def test_mutating_one_set_does_not_leak(self):
        directory = self.make_logging_directory()
        set_index, tag, _ = directory.probe(0)
        directory.install(set_index, tag, 1)
        _, _, way = directory.probe(0)
        directory.touch(set_index, way)
        assert directory._meta[set_index] == [-1, way]
        for other, meta in enumerate(directory._meta):
            if other != set_index:
                assert meta == []

    def test_clear_rebuilds_distinct_meta(self):
        directory = self.make_logging_directory()
        set_index, tag, _ = directory.probe(0)
        directory.install(set_index, tag, 1)
        directory.clear()
        metas = directory._meta
        assert all(meta == [] for meta in metas)
        assert len({id(meta) for meta in metas}) == len(metas)


class TestProbeMatchesScan:
    """probe() must name the first way holding a tag, whatever edited the set."""

    def assert_probe_matches_scan(self, directory):
        directory.check_invariants()
        line_size = directory.config.line_size
        num_sets = directory.config.num_sets
        for set_index, tags in enumerate(directory._tags):
            for tag in tags:
                address = (tag * num_sets + set_index) * line_size
                assert directory.probe(address)[2] == tags.index(tag)

    @pytest.mark.parametrize("replacement", ["lru", "fifo", "random", "plru"])
    def test_probe_tracks_mixed_traffic(self, replacement):
        import numpy as np

        rng = np.random.default_rng(11)
        directory = make_directory(size=8 * 128, assoc=4, replacement=replacement)
        for step in range(600):
            address = int(rng.integers(0, 96)) * 128
            set_index, tag, way = directory.probe(address)
            roll = rng.random()
            if way < 0:
                directory.install(set_index, tag, int(rng.integers(1, 4)))
            elif roll < 0.7:
                directory.touch(set_index, way)
            else:
                directory.invalidate(set_index, way)
            if step % 50 == 0:
                self.assert_probe_matches_scan(directory)
        self.assert_probe_matches_scan(directory)

    def test_probe_survives_bit_flip(self):
        directory = make_directory(size=4 * 128, assoc=4)
        for i in range(3):
            set_index, tag, _ = directory.probe(i * 128 * directory.config.num_sets)
            directory.install(set_index, tag, 1)
        directory.inject_bit_flip(0, 1, 3)
        self.assert_probe_matches_scan(directory)
        # The flipped tag is findable at its corrupted value.
        corrupted = directory._tags[0][1]
        assert directory.probe(corrupted * 128)[2] == 1

    def test_probe_after_state_roundtrip(self):
        directory = make_directory(size=8 * 128, assoc=2)
        for i in range(10):
            set_index, tag, way = directory.probe(i * 128)
            if way < 0:
                directory.install(set_index, tag, 1)
        fresh = make_directory(size=8 * 128, assoc=2)
        fresh.load_state_dict(directory.state_dict())
        self.assert_probe_matches_scan(fresh)
        for i in range(10):
            assert fresh.probe(i * 128) == directory.probe(i * 128)

    def test_aliased_tag_probes_first_way_after_touch(self):
        """A hit that rotates an LRU set past two copies of one tag must
        leave probe() on the first copy."""
        directory = make_directory(size=4 * 128, assoc=4)  # one set
        for tag in range(4):
            directory.install(0, tag, int(LineState.SHARED))
        assert directory._tags[0] == [3, 2, 1, 0]
        directory.inject_bit_flip(0, 2, 1)
        assert directory._tags[0] == [3, 2, 3, 0]
        directory.touch(0, directory.probe(0)[2])
        assert directory._tags[0] == [0, 3, 2, 3]
        assert directory.probe(3 * 128)[2] == 1


class TestSparseState:
    """state_dict lists only sets that differ from a powered-up directory."""

    def fill(self, directory, lines):
        for line in lines:
            set_index, tag, way = directory.probe(line * 128)
            if way < 0:
                directory.install(set_index, tag, int(LineState.SHARED))
            else:
                directory.touch(set_index, way)

    def test_empty_directory_lists_no_sets(self):
        state = make_directory().state_dict()
        assert state == {
            "num_sets": 32, "sets": [], "tags": [], "states": [], "meta": []
        }

    def test_lists_only_resident_sets(self):
        directory = make_directory()
        self.fill(directory, [3, 3 + 32, 7])
        state = directory.state_dict()
        assert state["sets"] == [3, 7]
        assert [len(tags) for tags in state["tags"]] == [2, 1]

    def test_plru_bits_listed_after_the_lines_are_gone(self):
        directory = make_directory(replacement="plru")
        self.fill(directory, [5])
        set_index, _tag, way = directory.probe(5 * 128)
        directory.invalidate(set_index, way)
        state = directory.state_dict()
        assert state["sets"] == [5]
        assert state["tags"] == [[]]
        assert state["meta"] == [directory._meta[5]] and state["meta"][0] != 0

    def test_load_into_dirty_directory_drops_its_own_lines(self):
        source = make_directory(replacement="plru")
        self.fill(source, [1, 2, 2 + 32])
        target = make_directory(replacement="plru")
        self.fill(target, [2, 9, 9 + 32, 9 + 64, 20])
        target.load_state_dict(source.state_dict())
        assert target.state_dict() == source.state_dict()
        assert target._meta == source._meta
        target.check_invariants()
        assert target.lookup_state(9 * 128) == int(LineState.INVALID)

    def test_nested_form_still_loads(self):
        source = make_directory()
        self.fill(source, [0, 4, 4 + 32])
        nested = {
            "tags": [list(tags) for tags in source._tags],
            "states": [list(states) for states in source._states],
            "meta": list(source._meta),
        }
        target = make_directory()
        self.fill(target, [11])
        target.load_state_dict(nested)
        assert target.state_dict() == source.state_dict()

    def test_mismatched_or_malformed_state_rejected_untouched(self):
        from repro.common.errors import EmulationError

        directory = make_directory()
        self.fill(directory, [6])
        before = directory.state_dict()
        other = make_directory(size=32 * 1024).state_dict()
        with pytest.raises(EmulationError, match="sets"):
            directory.load_state_dict(other)
        bad = dict(before, sets=[99])
        with pytest.raises(EmulationError, match="malformed"):
            directory.load_state_dict(bad)
        assert directory.state_dict() == before
