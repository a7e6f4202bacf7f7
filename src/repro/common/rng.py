"""Deterministic named random streams.

Workload generators, the random replacement policy and the fault-injection
overlay all need randomness that is (a) reproducible from a single seed and
(b) independent per consumer, so that adding a new consumer does not perturb
the streams of existing ones.  :class:`RngStreams` hands out one
:class:`numpy.random.Generator` per name, derived from a root seed via
``numpy``'s SeedSequence spawning, keyed by a stable hash of the name.
"""

from __future__ import annotations

import zlib
from typing import Dict

import numpy as np


class RngStreams:
    """A family of independent, reproducible random generators.

    Example:
        >>> streams = RngStreams(seed=42)
        >>> a = streams.get("tpcc.cpu0")
        >>> b = streams.get("tpcc.cpu1")
        >>> a is streams.get("tpcc.cpu0")
        True
    """

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed all streams derive from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The same (seed, name) pair always yields a generator starting from
        the same internal state, independent of creation order.
        """
        stream = self._streams.get(name)
        if stream is None:
            key = zlib.crc32(name.encode("utf-8"))
            stream = np.random.default_rng(np.random.SeedSequence([self._seed, key]))
            self._streams[name] = stream
        return stream

    def snapshot(self) -> Dict[str, dict]:
        """The bit-generator state of every stream created so far.

        Pass the result to :meth:`restore` to rewind the family.
        """
        return {
            name: stream.bit_generator.state for name, stream in self._streams.items()
        }

    def restore(self, snapshot: Dict[str, dict]) -> None:
        """Rewind every stream to ``snapshot`` (from :meth:`snapshot`).

        Streams in the snapshot are rewound in place, so holders of their
        generators (samplers) see the rewound sequence.  Streams created
        after the snapshot are dropped; the next :meth:`get` creates them
        afresh, from the same state a fresh family would give them.
        """
        for name in [name for name in self._streams if name not in snapshot]:
            del self._streams[name]
        for name, state in snapshot.items():
            self.get(name).bit_generator.state = state

    def fork(self, name: str) -> "RngStreams":
        """Create a child family whose root seed depends on (seed, name).

        Used when a workload spawns per-CPU sub-generators that themselves
        need multiple named streams.
        """
        key = zlib.crc32(name.encode("utf-8"))
        return RngStreams(seed=(self._seed * 1_000_003 + key) & 0x7FFF_FFFF)
