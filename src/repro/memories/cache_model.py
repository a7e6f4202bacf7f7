"""The SDRAM-resident tag/state directory of one emulated cache node.

Each node controller FPGA owns four 64 MB SDRAM DIMMs holding, for every
line frame of the emulated cache, its tag, coherence state and replacement
metadata.  :class:`TagStateDirectory` models that structure: a set-associative
array of (tag, state) pairs managed by a pluggable replacement policy.

Each set is a pair of parallel ``tags``/``states`` lists kept in the
policy's order (MRU-first for LRU), the same representation the host L2
(:class:`repro.host.cache.SnoopingCache`) uses.  A probe scans the set's
tag list, so the replacement policy's ``touch``/``insert`` alone decide
where a line sits.

The directory itself is protocol-agnostic — it stores whatever state integers
the node controller's protocol table produces — and exposes fine-grained
operations (probe / touch / install / invalidate) so the controller can apply
table transitions between them.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

from repro.common.addr import AddressMap
from repro.common.errors import EmulationError
from repro.memories.config import CacheNodeConfig
from repro.memories.protocol_table import LineState
from repro.memories.replacement import ReplacementPolicy, make_policy

#: Physical address width bounding the stored tag (the 50-bit trace field).
_TAG_ADDRESS_BITS = 50


class TagStateDirectory:
    """Set-associative tag/state array for one emulated cache.

    Args:
        config: geometry (size / associativity / line size) of the cache.
        policy: replacement policy instance; defaults to the one named in
            ``config.replacement``.
    """

    def __init__(
        self,
        config: CacheNodeConfig,
        policy: Optional[ReplacementPolicy] = None,
    ) -> None:
        config.validate_geometry()
        self.config = config
        self.amap = AddressMap(line_size=config.line_size, num_sets=config.num_sets)
        self.policy = policy if policy is not None else make_policy(
            config.replacement, config.assoc
        )
        num_sets = config.num_sets
        self._tags: list[list[int]] = [[] for _ in range(num_sets)]
        self._states: list[list[int]] = [[] for _ in range(num_sets)]
        # One make_meta() call per set: a policy is free to return mutable
        # metadata, and replicating a single instance across sets would
        # alias every set's replacement state onto one object.
        self._meta: list = [self.policy.make_meta() for _ in range(num_sets)]

    # ------------------------------------------------------------------ #
    # Hot-path operations
    # ------------------------------------------------------------------ #

    def probe(self, address: int) -> Tuple[int, int, int]:
        """Locate ``address``; returns (set_index, tag, way) with way=-1 on miss."""
        amap = self.amap
        set_index = amap.set_index(address)
        tag = amap.tag(address)
        # Sets hold at most MAX_ASSOC lines, so the scan costs no more
        # than a hash lookup.  Testing membership first beats catching
        # ValueError because most peer probes miss.  When a flipped tag
        # aliases another line, the first occurrence wins.
        tags = self._tags[set_index]
        way = tags.index(tag) if tag in tags else -1
        return set_index, tag, way

    def state_at(self, set_index: int, way: int) -> int:
        """State integer stored at (set, way)."""
        return self._states[set_index][way]

    def set_state(self, set_index: int, way: int, state: int) -> None:
        """Overwrite the state at (set, way)."""
        self._states[set_index][way] = state

    def touch(self, set_index: int, way: int) -> int:
        """Record a hit for the replacement policy; returns the new way."""
        new_way, meta = self.policy.touch(
            self._tags[set_index], self._states[set_index], way, self._meta[set_index]
        )
        self._meta[set_index] = meta
        return new_way

    def install(
        self, set_index: int, tag: int, state: int
    ) -> Optional[Tuple[int, int]]:
        """Allocate a line; returns (victim line address, victim state) or None."""
        victim, meta = self.policy.insert(
            self._tags[set_index],
            self._states[set_index],
            tag,
            state,
            self.config.assoc,
            self._meta[set_index],
        )
        self._meta[set_index] = meta
        if victim is None:
            return None
        victim_tag, victim_state = victim
        return self.amap.rebuild(victim_tag, set_index), victim_state

    def invalidate(self, set_index: int, way: int) -> int:
        """Drop the line at (set, way); returns its former state."""
        self._tags[set_index].pop(way)
        return self._states[set_index].pop(way)

    # ------------------------------------------------------------------ #
    # Whole-directory queries (console, tests, peers)
    # ------------------------------------------------------------------ #

    def lookup_state(self, address: int) -> int:
        """State of the line holding ``address`` (INVALID when absent)."""
        set_index, tag, way = self.probe(address)
        if way < 0:
            return int(LineState.INVALID)
        return self._states[set_index][way]

    def resident_lines(self) -> int:
        """Number of valid lines currently in the directory."""
        return sum(len(tags) for tags in self._tags)

    def ways_in_set(self, set_index: int) -> int:
        """Number of resident lines in one set (fault injection, console)."""
        return len(self._tags[set_index])

    @property
    def stored_bits(self) -> int:
        """Flippable bits per line exposed to the fault injector.

        The unprotected directory confines injected flips to the tag field
        (a corrupted tag silently loses or aliases the line — exactly the
        soft-error symptom ECC exists to catch — while a flipped raw state
        would be an invalid protocol-table index and crash the emulation
        rather than skew it).  :class:`repro.memories.ecc.EccTagStateDirectory`
        overrides this to span the whole protected word.
        """
        amap = self.amap
        return max(1, _TAG_ADDRESS_BITS - amap.offset_bits - amap.index_bits)

    def inject_bit_flip(self, set_index: int, way: int, bit: int) -> None:
        """Fault injection: flip one stored tag bit of a resident line."""
        if bit < 0 or bit >= self.stored_bits:
            raise EmulationError(f"bit index {bit} outside the stored tag")
        self._tags[set_index][way] ^= 1 << bit

    def occupancy(self) -> float:
        """Fraction of line frames in use."""
        return self.resident_lines() / self.config.num_lines

    def iter_lines(self) -> Iterator[Tuple[int, int]]:
        """Yield (line address, state) for every resident line."""
        rebuild = self.amap.rebuild
        for set_index, (tags, states) in enumerate(zip(self._tags, self._states)):
            for tag, state in zip(tags, states):
                yield rebuild(tag, set_index), state

    def check_invariants(self) -> None:
        """Assert structural invariants; used by property-based tests.

        Raises:
            EmulationError: if a set exceeds the associativity, holds
                duplicate tags, or parallel arrays lost sync.
        """
        assoc = self.config.assoc
        for set_index, (tags, states) in enumerate(zip(self._tags, self._states)):
            if len(tags) != len(states):
                raise EmulationError(f"set {set_index}: tag/state arrays diverged")
            if len(tags) > assoc:
                raise EmulationError(f"set {set_index}: {len(tags)} lines > {assoc}-way")
            if len(set(tags)) != len(tags):
                raise EmulationError(f"set {set_index}: duplicate tags")

    def clear(self) -> None:
        """Invalidate the whole directory (console power-up initialisation)."""
        for tags in self._tags:
            tags.clear()
        for states in self._states:
            states.clear()
        self._meta = [self.policy.make_meta() for _ in range(self.config.num_sets)]

    # ------------------------------------------------------------------ #
    # Checkpoint support
    # ------------------------------------------------------------------ #

    def state_dict(self) -> dict:
        """Sparse mutable contents: only the sets that differ from power-up.

        A set is listed when it holds lines, or when its replacement
        metadata differs from ``policy.make_meta()`` (PLRU tree bits
        outlive the lines a peer invalidation removed).  The form is
        ``num_sets`` plus parallel ``sets`` / ``tags`` / ``states`` /
        ``meta`` lists, all plain ints, so its size grows with resident
        lines rather than with the cache.  For an ECC-protected subclass
        the stored state integers already carry the packed check bits, so
        this captures them for free.
        """
        all_tags = self._tags
        all_states = self._states
        all_meta = self._meta
        default = self.policy.make_meta()
        listed = [
            index
            for index, (tags, meta) in enumerate(zip(all_tags, all_meta))
            if tags or meta != default
        ]
        return {
            "num_sets": self.config.num_sets,
            "sets": listed,
            "tags": [list(all_tags[index]) for index in listed],
            "states": [list(all_states[index]) for index in listed],
            "meta": [all_meta[index] for index in listed],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore checkpointed contents into a same-geometry directory.

        Accepts the sparse form :meth:`state_dict` writes and the nested
        one-row-per-set form of version 1/2 checkpoint files.  The sparse
        path rewrites only the sets that are non-empty here or listed in
        the checkpoint, so its cost follows residency, not cache size.

        Raises:
            EmulationError: when the checkpoint's set count does not match
                this directory's geometry, or its sparse listing is
                malformed (checked before anything is changed).
        """
        if "sets" not in state:
            self._load_nested(state)
            return
        num_sets = int(state["num_sets"])
        if num_sets != self.config.num_sets:
            raise EmulationError(
                f"checkpoint has {num_sets} sets; directory has "
                f"{self.config.num_sets}"
            )
        listed = state["sets"]
        if not (
            len(listed) == len(state["tags"]) == len(state["states"])
            == len(state["meta"])
        ) or any(not 0 <= index < num_sets for index in listed):
            raise EmulationError("checkpoint directory listing is malformed")
        all_tags = self._tags
        all_states = self._states
        all_meta = self._meta
        make_meta = self.policy.make_meta
        default = make_meta()
        for index, (tags, meta) in enumerate(zip(all_tags, all_meta)):
            if tags:
                tags.clear()
                all_states[index].clear()
            if meta != default:
                all_meta[index] = make_meta()
        for index, tags, states, meta in zip(
            listed, state["tags"], state["states"], state["meta"]
        ):
            all_tags[index] = [int(t) for t in tags]
            all_states[index] = [int(s) for s in states]
            all_meta[index] = int(meta)

    def _load_nested(self, state: dict) -> None:
        """Restore the nested per-set form of version 1/2 checkpoints."""
        tags = state["tags"]
        states = state["states"]
        meta = state["meta"]
        if len(tags) != self.config.num_sets or len(states) != len(tags):
            raise EmulationError(
                f"checkpoint has {len(tags)} sets; directory has "
                f"{self.config.num_sets}"
            )
        self._tags = [[int(t) for t in row] for row in tags]
        self._states = [[int(s) for s in row] for row in states]
        self._meta = [int(m) for m in meta]
