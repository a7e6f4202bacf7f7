"""The 6xx system bus: snoop combining, ordering and utilization accounting.

The bus connects *active* devices (host L2 caches and the memory controller,
which respond to tenures) and *passive* monitors (the MemorIES board), which
observe tenures but, per Section 3.4 of the paper, normally cannot stop or
inject them.  The one exception the paper allows — the address filter posting
a retry when its transaction buffers are completely full — is modeled via the
monitor's ``observe`` return value.

Host caches that join the bus's snoop filter are snooped only on lines they
may hold.  The filter is the paper's sparse directory (see
:mod:`repro.memories.firmware.numa_directory`) turned to the host side: a
map from line number to a bitmask of the caches holding that line.  A cache
that does not hold a line answers NULL and changes nothing, so skipping it
leaves every response, statistic and captured word as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol

from repro.bus.transaction import (
    BusCommand,
    BusTransaction,
    SnoopResponse,
    combine_snoop_responses,
)
from repro.common.addr import is_power_of_two

#: Address-tenure occupancy in bus cycles.  The 6xx bus is split-transaction;
#: an address tenure occupies the address bus for a small fixed number of
#: cycles regardless of the data transfer size.
ADDRESS_TENURE_CYCLES = 2

#: Idle cycles charged between tenures when the bus is otherwise unoccupied.
#: Together with the observed tenure count this produces the 2–20% bus
#: utilization regime reported in Section 3.3.
DEFAULT_IDLE_CYCLES_PER_TENURE = 8

#: How many times a master re-arbitrates for a retried tenure before giving
#: up.  The 6xx protocol itself retries indefinitely; the model bounds it so
#: an injected always-retry fault cannot livelock the emulation.
DEFAULT_MAX_RETRIES = 8

#: Backoff before the first re-issue of a retried tenure, in bus cycles.
#: Doubles per attempt (capped) so a full buffer gets time to drain.
DEFAULT_RETRY_BACKOFF_CYCLES = 4

#: Ceiling on the exponential retry backoff.
_MAX_BACKOFF_CYCLES = 256


class Snooper(Protocol):
    """An active bus device that participates in the snoop phase.

    A snooper may also define ``line_size`` and
    ``join_snoop_filter(holders, bit)``; see :meth:`SystemBus.attach_snooper`.
    """

    def snoop(self, txn: BusTransaction) -> SnoopResponse:
        """React to an address tenure issued by another master."""
        ...


class Monitor(Protocol):
    """A passive device (the MemorIES board) observing completed tenures."""

    def observe(self, txn: BusTransaction) -> SnoopResponse:
        """Observe a tenure; may return RETRY only when buffers are full."""
        ...


@dataclass
class BusStats:
    """Running statistics of bus activity, as a logic analyser would see.

    Attributes:
        tenures: total address tenures issued.
        memory_tenures: tenures carrying coherent-memory commands.
        reads / rwitms / dclaims / castouts: per-command counts.
        io_ops: I/O register tenures.
        retries: logical tenures whose *first* attempt received a combined
            RETRY response (per-command counts and ``tenures`` also count
            each logical tenure once, regardless of re-issues).
        retry_reissues: re-arbitrated attempts for retried tenures; their
            bus occupancy and backoff idle time fold into
            ``busy_cycles`` / ``total_cycles`` and thus into utilization.
        retries_abandoned: tenures still retried after the master's bounded
            re-issue budget (the livelock guard tripping).
        busy_cycles: cycles the address bus was occupied.
        total_cycles: total elapsed bus cycles (busy + idle).
    """

    tenures: int = 0
    memory_tenures: int = 0
    reads: int = 0
    rwitms: int = 0
    dclaims: int = 0
    castouts: int = 0
    io_ops: int = 0
    retries: int = 0
    retry_reissues: int = 0
    retries_abandoned: int = 0
    busy_cycles: int = 0
    total_cycles: int = 0

    @property
    def utilization(self) -> float:
        """Fraction of cycles the address bus was occupied (0.0–1.0)."""
        if self.total_cycles == 0:
            return 0.0
        return self.busy_cycles / self.total_cycles


@dataclass
class SystemBus:
    """A split-transaction snooping bus.

    Active snoopers are registered with :meth:`attach_snooper`; passive
    monitors with :meth:`attach_monitor`.  :meth:`issue` runs one address
    tenure end-to-end: snoop phase, response combining, monitor observation
    and statistics update, and returns the completed transaction (with
    ``seq`` and ``snoop_response`` filled in).  Snoopers that join the
    snoop filter are snooped only on memory tenures for lines they hold.

    Args:
        clock_hz: bus clock frequency; the S7A's 6xx bus runs at 100 MHz.
        idle_cycles_per_tenure: idle gap modeled between tenures, which sets
            the synthetic bus utilization level.
        max_retries: bounded re-issue budget per retried tenure (0 disables
            master re-issue entirely).
        retry_backoff_cycles: initial idle backoff before a re-issue;
            doubles per attempt up to a fixed ceiling.
    """

    clock_hz: int = 100_000_000
    idle_cycles_per_tenure: int = DEFAULT_IDLE_CYCLES_PER_TENURE
    max_retries: int = DEFAULT_MAX_RETRIES
    retry_backoff_cycles: int = DEFAULT_RETRY_BACKOFF_CYCLES
    stats: BusStats = field(default_factory=BusStats)

    def __post_init__(self) -> None:
        # Snoopers outside the filter see every tenure; filtered ones are
        # indexed by their holder bit's position.
        self._unfiltered: List[Snooper] = []
        self._filtered: List[Snooper] = []
        self._filter_bit: Dict[int, int] = {}  # id(snooper) -> holder bit
        #: line number -> bitmask of filtered snoopers holding the line
        self._holders: Dict[int, int] = {}
        self._line_shift: Optional[int] = None
        self._monitors: List[Monitor] = []
        self._seq = 0
        self._telemetry = None

    def attach_snooper(self, snooper: Snooper) -> None:
        """Register an active device (host L2, memory controller).

        A snooper with a power-of-two ``line_size`` and a
        ``join_snoop_filter(holders, bit)`` method joins the snoop filter:
        it is given the shared line → holder-bitmask map and its own bit,
        and must keep its bit set exactly for the lines it holds.  The
        first joiner fixes the filter's line size; a snooper with another
        line size, or without the hook, is snooped on every tenure.
        """
        join = getattr(snooper, "join_snoop_filter", None)
        line_size = getattr(snooper, "line_size", 0)
        if (
            join is None
            or not is_power_of_two(line_size)
            or self._line_shift not in (None, line_size.bit_length() - 1)
        ):
            self._unfiltered.append(snooper)
            return
        self._line_shift = line_size.bit_length() - 1
        bit = 1 << len(self._filtered)
        self._filtered.append(snooper)
        self._filter_bit[id(snooper)] = bit
        join(self._holders, bit)

    def snoop_filter(self) -> Dict[int, int]:
        """A copy of the filter's line number → holder bitmask map.

        Bit ``1 << i`` is the ``i``-th snooper that joined the filter.
        """
        return dict(self._holders)

    def attach_monitor(self, monitor: Monitor) -> None:
        """Register a passive monitor (a MemorIES board)."""
        self._monitors.append(monitor)

    def detach_monitor(self, monitor: Monitor) -> None:
        """Unplug a passive monitor."""
        self._monitors.remove(monitor)

    def attach_telemetry(self, sampler) -> None:
        """Wire a :class:`repro.telemetry.CounterSampler` into the bus.

        The sampler observes every completed logical tenure (after retry
        resolution) and emits windowed bus statistics — the live
        utilization series of Section 3.3's 2–20% regime.  Like the
        board's sampler it is a pure observer.
        """
        self._telemetry = sampler

    def detach_telemetry(self) -> None:
        """Return :meth:`issue` to the uninstrumented fast path."""
        self._telemetry = None

    @property
    def now_cycle(self) -> float:
        """Cycle-domain clock for telemetry (elapsed bus cycles)."""
        return float(self.stats.total_cycles)

    def statistics(self) -> dict:
        """Key-sorted integer counter snapshot of :class:`BusStats`.

        The same shape the board's :meth:`~repro.memories.board.MemoriesBoard.statistics`
        has, so one sampler implementation serves both; window-level
        utilization is derived by the sampler from the cycle deltas.
        """
        stats = self.stats
        return {
            "bus.busy_cycles": stats.busy_cycles,
            "bus.castouts": stats.castouts,
            "bus.dclaims": stats.dclaims,
            "bus.io_ops": stats.io_ops,
            "bus.memory_tenures": stats.memory_tenures,
            "bus.reads": stats.reads,
            "bus.retries": stats.retries,
            "bus.retries_abandoned": stats.retries_abandoned,
            "bus.retry_reissues": stats.retry_reissues,
            "bus.rwitms": stats.rwitms,
            "bus.tenures": stats.tenures,
            "bus.total_cycles": stats.total_cycles,
        }

    def issue(
        self,
        txn: BusTransaction,
        issuer: Optional[Snooper] = None,
    ) -> BusTransaction:
        """Run one address tenure and return the completed transaction.

        Every snooper other than ``issuer`` sees the tenure and contributes
        a snoop response, except filtered snoopers not holding the line,
        whose response would be NULL.  Monitors then observe the *completed* tenure
        (command, address, requester and combined response) exactly as the
        MemorIES board does from the bus pins.

        A tenure whose combined response is RETRY is re-issued by the
        master after an exponential backoff, up to ``max_retries`` times —
        the 6xx master behaviour the paper relies on when the board's
        transaction buffers overflow.  Statistics count the *logical*
        tenure once (``tenures``, per-command counts, ``retries``); each
        re-arbitration adds to ``retry_reissues`` and to the cycle
        accounting, and a tenure still refused at the budget's end bumps
        ``retries_abandoned`` (the livelock guard).  The returned
        transaction is the final attempt, so its response is RETRY only
        when the tenure was ultimately abandoned.
        """
        completed = self._attempt(txn, issuer)
        self._account(completed)
        if completed.snoop_response is SnoopResponse.RETRY:
            stats = self.stats
            backoff = self.retry_backoff_cycles
            for _ in range(self.max_retries):
                # The master backs off (bus idle), then re-arbitrates: one
                # more address tenure's worth of occupancy, folded into
                # utilization.
                stats.total_cycles += backoff
                backoff = min(backoff * 2, _MAX_BACKOFF_CYCLES)
                stats.retry_reissues += 1
                stats.busy_cycles += ADDRESS_TENURE_CYCLES
                stats.total_cycles += ADDRESS_TENURE_CYCLES + self.idle_cycles_per_tenure
                completed = self._attempt(txn, issuer)
                if completed.snoop_response is not SnoopResponse.RETRY:
                    break
            else:
                stats.retries_abandoned += 1
        # One sampling opportunity per *logical* tenure, after retry
        # resolution, so windowed utilization includes re-issue occupancy.
        if self._telemetry is not None:
            self._telemetry.maybe_sample(self)
        return completed

    def _attempt(
        self, txn: BusTransaction, issuer: Optional[Snooper]
    ) -> BusTransaction:
        """One arbitration: snoop phase, response combining, monitors."""
        self._seq += 1
        responses = [
            snooper.snoop(txn) for snooper in self._unfiltered if snooper is not issuer
        ]
        if self._filtered and txn.command.is_memory:
            holders = self._holders.get(txn.address >> self._line_shift, 0)
            holders &= ~self._filter_bit.get(id(issuer), 0)
            filtered = self._filtered
            while holders:
                low = holders & -holders
                responses.append(filtered[low.bit_length() - 1].snoop(txn))
                holders ^= low
        combined = combine_snoop_responses(responses)
        completed = txn.with_response(self._seq, combined)

        for monitor in self._monitors:
            monitor_response = monitor.observe(completed)
            if monitor_response is SnoopResponse.RETRY and combined is not SnoopResponse.RETRY:
                combined = SnoopResponse.RETRY
                completed = txn.with_response(self._seq, combined)
        return completed

    def _account(self, txn: BusTransaction) -> None:
        stats = self.stats
        stats.tenures += 1
        stats.busy_cycles += ADDRESS_TENURE_CYCLES
        stats.total_cycles += ADDRESS_TENURE_CYCLES + self.idle_cycles_per_tenure
        if txn.command.is_memory:
            stats.memory_tenures += 1
        if txn.command is BusCommand.READ:
            stats.reads += 1
        elif txn.command is BusCommand.RWITM:
            stats.rwitms += 1
        elif txn.command is BusCommand.DCLAIM:
            stats.dclaims += 1
        elif txn.command is BusCommand.CASTOUT:
            stats.castouts += 1
        elif txn.command in (BusCommand.IO_READ, BusCommand.IO_WRITE):
            stats.io_ops += 1
        if txn.snoop_response is SnoopResponse.RETRY:
            stats.retries += 1

    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock time represented by the cycles elapsed so far."""
        return self.stats.total_cycles / self.clock_hz
