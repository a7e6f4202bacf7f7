"""Per-CPU write-back snooping L2 cache (MESI).

Each host processor owns one of these.  Processor references that hit stay
inside the cache; misses, upgrades and dirty evictions become 6xx bus tenures
— which is all the MemorIES board ever sees.  The cache also participates in
the snoop phase of tenures issued by other masters, supplying the
``SHARED``/``MODIFIED`` responses the board uses to account for shared and
modified interventions (Figure 12 of the paper).

The implementation keeps each set as a pair of MRU-ordered parallel lists
(tags, states); for associativities up to 8 a linear scan of a small list is
faster in CPython than any fancier structure, and this is the hottest loop in
the whole reproduction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from repro.bus.bus import SystemBus
from repro.bus.transaction import BusCommand, BusTransaction, SnoopResponse
from repro.common.addr import AddressMap, is_power_of_two
from repro.common.errors import ConfigurationError


class MESIState(enum.IntEnum):
    """MESI coherence states of a line in a host L2."""

    INVALID = 0
    SHARED = 1
    EXCLUSIVE = 2
    MODIFIED = 3


@dataclass
class CacheStats:
    """Counters a host L2 keeps, matching the S7A's on-chip L2 counters.

    The paper reads these (Table 6) through the processor's performance
    monitor; we expose them directly.
    """

    accesses: int = 0
    read_accesses: int = 0
    write_accesses: int = 0
    misses: int = 0
    read_misses: int = 0
    write_misses: int = 0
    upgrades: int = 0
    castouts: int = 0
    snoop_invalidations: int = 0
    interventions_supplied: int = 0

    @property
    def hits(self) -> int:
        """Accesses that did not require a bus tenure for data."""
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        """Misses per access (0.0 when no accesses yet)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class SnoopingCache:
    """One CPU's write-back, write-allocate MESI L2 cache.

    Args:
        cpu_id: bus ID used on tenures this cache issues.
        bus: the system bus; must also be registered via
            ``bus.attach_snooper(cache)`` by the machine assembly.
        size: capacity in bytes.
        assoc: set associativity (1 = direct mapped).
        line_size: line size in bytes (the S7A uses 128 B).
    """

    def __init__(
        self,
        cpu_id: int,
        bus: SystemBus,
        size: int,
        assoc: int,
        line_size: int = 128,
    ) -> None:
        if assoc < 1:
            raise ConfigurationError(f"associativity must be >= 1, got {assoc}")
        if not is_power_of_two(line_size):
            raise ConfigurationError(f"line size {line_size} not a power of two")
        if size % (assoc * line_size) != 0:
            raise ConfigurationError(
                f"size {size} not divisible by assoc*line ({assoc}*{line_size})"
            )
        num_sets = size // (assoc * line_size)
        if not is_power_of_two(num_sets):
            raise ConfigurationError(f"set count {num_sets} not a power of two")

        self.cpu_id = cpu_id
        self.bus = bus
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.amap = AddressMap(line_size=line_size, num_sets=num_sets)
        self._offset_bits = self.amap.offset_bits
        self._index_bits = self.amap.index_bits
        self._set_mask = num_sets - 1
        self.stats = CacheStats()
        # MRU-first parallel lists per set.
        self._tags: list[list[int]] = [[] for _ in range(num_sets)]
        self._states: list[list[int]] = [[] for _ in range(num_sets)]
        # Inclusion listeners (an L1) are told whenever a line leaves.
        self._inclusion_listeners: list = []
        # The bus's snoop filter (line number -> holder bitmask) and this
        # cache's bit in it; None until the bus admits the cache.
        self._holders: Optional[dict] = None
        self._holder_bit = 0

    def join_snoop_filter(self, holders: dict, bit: int) -> None:
        """Keep ``bit`` set in ``holders[line]`` exactly while holding ``line``.

        Called by :meth:`SystemBus.attach_snooper`; the bus then snoops
        this cache only on lines whose mask carries ``bit``.  Lines already
        resident are entered at once.
        """
        self._holders = holders
        self._holder_bit = bit
        index_bits = self._index_bits
        for set_index, tags in enumerate(self._tags):
            for tag in tags:
                line = (tag << index_bits) | set_index
                holders[line] = holders.get(line, 0) | bit

    def add_inclusion_listener(self, callback) -> None:
        """Register a callable(line_address) invoked when a line is lost.

        The inclusive L1 uses this to drop its copy when the L2 evicts or
        is snoop-invalidated — the back-invalidation real hardware performs.
        """
        self._inclusion_listeners.append(callback)

    def _notify_loss(self, set_index: int, tag: int) -> None:
        """A line left the cache (eviction, castout or invalidation)."""
        holders = self._holders
        if holders is not None:
            line = (tag << self._index_bits) | set_index
            mask = holders[line] & ~self._holder_bit
            if mask:
                holders[line] = mask
            else:
                del holders[line]
        if self._inclusion_listeners:
            line_address = self.amap.rebuild(tag, set_index)
            for callback in self._inclusion_listeners:
                callback(line_address)

    # ------------------------------------------------------------------ #
    # Processor side
    # ------------------------------------------------------------------ #

    def access(self, address: int, is_write: bool) -> bool:
        """Process one processor reference; returns True on a hit.

        Misses allocate the line (write-allocate), issuing READ or RWITM on
        the bus; stores to Shared lines issue DCLAIM; dirty victims issue
        CASTOUT.
        """
        stats = self.stats
        stats.accesses += 1
        if is_write:
            stats.write_accesses += 1
        else:
            stats.read_accesses += 1

        line = address >> self._offset_bits
        set_index = line & self._set_mask
        tag = line >> self._index_bits
        tags = self._tags[set_index]
        states = self._states[set_index]

        try:
            way = tags.index(tag)
        except ValueError:
            way = -1

        if way >= 0:
            state = states[way]
            if is_write and state == MESIState.SHARED:
                # Upgrade: claim ownership without a data transfer.
                stats.upgrades += 1
                self.bus.issue(
                    BusTransaction(self.cpu_id, BusCommand.DCLAIM, address),
                    issuer=self,
                )
                states[way] = MESIState.MODIFIED
            elif is_write:
                states[way] = MESIState.MODIFIED
            # Move to MRU position.
            if way != 0:
                tags.insert(0, tags.pop(way))
                states.insert(0, states.pop(way))
            return True

        # Miss path.
        stats.misses += 1
        if is_write:
            stats.write_misses += 1
        else:
            stats.read_misses += 1

        if len(tags) >= self.assoc:
            victim_tag = tags.pop()
            victim_state = states.pop()
            self._notify_loss(set_index, victim_tag)
            if victim_state == MESIState.MODIFIED:
                stats.castouts += 1
                victim_addr = (
                    (victim_tag << self._index_bits) | set_index
                ) << self._offset_bits
                self.bus.issue(
                    BusTransaction(self.cpu_id, BusCommand.CASTOUT, victim_addr),
                    issuer=self,
                )

        if is_write:
            self.bus.issue(
                BusTransaction(self.cpu_id, BusCommand.RWITM, address), issuer=self
            )
            new_state = MESIState.MODIFIED
        else:
            completed = self.bus.issue(
                BusTransaction(self.cpu_id, BusCommand.READ, address), issuer=self
            )
            if completed.snoop_response in (SnoopResponse.SHARED, SnoopResponse.MODIFIED):
                new_state = MESIState.SHARED
            else:
                new_state = MESIState.EXCLUSIVE

        tags.insert(0, tag)
        states.insert(0, int(new_state))
        holders = self._holders
        if holders is not None:
            holders[line] = holders.get(line, 0) | self._holder_bit
        return False

    # ------------------------------------------------------------------ #
    # Bus side
    # ------------------------------------------------------------------ #

    def snoop(self, txn: BusTransaction) -> SnoopResponse:
        """Snoop another master's tenure and adjust our copy of the line."""
        command = txn.command
        if not command.is_memory:
            return SnoopResponse.NULL

        line = txn.address >> self._offset_bits
        set_index = line & self._set_mask
        tags = self._tags[set_index]
        try:
            way = tags.index(line >> self._index_bits)
        except ValueError:
            return SnoopResponse.NULL

        states = self._states[set_index]
        state = states[way]

        if command is BusCommand.CASTOUT:
            # A processor castout implies no other cache holds the line, so
            # this only fires for DMA writes — which kill cached copies
            # (the data in memory is newer than any cached version).
            self.stats.snoop_invalidations += 1
            lost_tag = tags.pop(way)
            states.pop(way)
            self._notify_loss(set_index, lost_tag)
            return SnoopResponse.NULL

        if command is BusCommand.READ:
            if state == MESIState.MODIFIED:
                # Supply dirty data (modified intervention); both keep Shared.
                self.stats.interventions_supplied += 1
                states[way] = MESIState.SHARED
                return SnoopResponse.MODIFIED
            if state == MESIState.EXCLUSIVE:
                states[way] = MESIState.SHARED
            return SnoopResponse.SHARED

        # RWITM or DCLAIM: requester takes ownership, we invalidate.
        self.stats.snoop_invalidations += 1
        response = SnoopResponse.SHARED
        if state == MESIState.MODIFIED:
            self.stats.interventions_supplied += 1
            response = SnoopResponse.MODIFIED
        lost_tag = tags.pop(way)
        states.pop(way)
        self._notify_loss(set_index, lost_tag)
        return response

    # ------------------------------------------------------------------ #
    # Introspection (tests and debugging)
    # ------------------------------------------------------------------ #

    def lookup_state(self, address: int) -> MESIState:
        """Current MESI state of the line containing ``address``."""
        set_index = self.amap.set_index(address)
        tags = self._tags[set_index]
        try:
            way = tags.index(self.amap.tag(address))
        except ValueError:
            return MESIState.INVALID
        return MESIState(self._states[set_index][way])

    def resident_lines(self) -> int:
        """Number of valid lines currently held."""
        return sum(len(tags) for tags in self._tags)
