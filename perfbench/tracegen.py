"""Seeded bus-trace generator owned by the pipeline benchmark.

One function, :func:`shared_trace`, makes the packed 64-bit bus words
that ``replay_shared``, ``supervised_16mb`` and ``service_stream`` feed
to the program.  Its traffic is hit- and sharing-heavy on purpose: a
small hot region that every CPU touches (so emulated nodes hit, and
peer nodes hold the same lines, which drives the peer-probe,
intervention and invalidation paths), a cold span for the misses, and
the bus noise (IO, interrupts, syncs, retried tenures) that the board's
address filter drops.

Whether the traffic really is hit- and sharing-heavy is not taken on
trust: the benchmark prints every board's per-node miss ratio and its
``node*.remote.*`` event total for each run.

The stream is a pure function of ``(records, seed, tag)``:
``tag`` separates the workloads' streams, so two workloads given one
``--seed`` still draw independent traffic.
"""

from __future__ import annotations

import numpy as np

from repro.bus.trace import encode_arrays
from repro.bus.transaction import BusCommand, SnoopResponse

#: Read-mostly command mix with a write-intent tail, castouts, and about
#: 15% of tenures the address filter drops (IO, interrupts, syncs).
COMMAND_MIX = (
    (BusCommand.READ, 0.76),
    (BusCommand.RWITM, 0.04),
    (BusCommand.DCLAIM, 0.02),
    (BusCommand.CASTOUT, 0.03),
    (BusCommand.IO_READ, 0.06),
    (BusCommand.IO_WRITE, 0.04),
    (BusCommand.INTERRUPT, 0.03),
    (BusCommand.SYNC, 0.02),
)

#: Combined snoop responses; RETRY tenures are filtered as retried.
RESPONSE_MIX = (
    (SnoopResponse.NULL, 0.55),
    (SnoopResponse.SHARED, 0.30),
    (SnoopResponse.MODIFIED, 0.11),
    (SnoopResponse.RETRY, 0.04),
)

LINE = 128

#: Shared hot region every CPU draws from: small enough that the emulated
#: nodes hit, and shared, so peer nodes hold the same lines.
HOT_BYTES = 256 << 10
#: Share of tenures that address the hot region.
HOT_FRACTION = 0.95
#: Span the remaining tenures draw from uniformly: the misses.
COLD_BYTES = 64 << 20
#: Bus masters issuing the tenures.
N_CPUS = 8


def shared_trace(records: int, seed: int, tag: int) -> np.ndarray:
    """Packed bus words for ``records`` tenures of hit- and sharing-heavy
    traffic."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
    commands = rng.choice(
        [int(command) for command, _ in COMMAND_MIX],
        size=records,
        p=[share for _, share in COMMAND_MIX],
    ).astype(np.uint64)
    responses = rng.choice(
        [int(response) for response, _ in RESPONSE_MIX],
        size=records,
        p=[share for _, share in RESPONSE_MIX],
    ).astype(np.uint64)
    cpus = rng.integers(0, N_CPUS, records).astype(np.uint64)
    hot = rng.integers(0, HOT_BYTES, records)
    cold = rng.integers(0, COLD_BYTES, records)
    is_hot = rng.random(records) < HOT_FRACTION
    addresses = (np.where(is_hot, hot, cold) & ~np.int64(LINE - 1)).astype(
        np.uint64
    )
    return encode_arrays(cpus, commands, addresses, responses)
