"""SPLASH2 Barnes-Hut kernel (hierarchical n-body) generator.

Each timestep has two memory personalities: a short **tree-build** phase in
which all threads insert bodies into the shared octree (writes to shared
cells), and a long **force-computation** phase in which each thread streams
through its own bodies while reading the shared tree — with strong reuse of
the upper tree levels (modelled as Zipf-distributed cell popularity).

Table 5 runs 16 M bodies (3.1 GB); the original SPLASH2 characterisation
used 16 K.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.workloads.base import LINE, InterleavedWorkload, ZipfSampler
from repro.workloads.splash.common import KernelGeometry, windowed_sequential_lines

#: A body is touched repeatedly while its forces accumulate, with its
#: spatial neighbours in a small trailing window of the sweep.
TOUCHES_PER_LINE = 8
NEIGHBOURHOOD_WINDOW_LINES = 16

#: Table 5: 3.1 GB for 16M bodies -> ~194 bytes per body.
BYTES_PER_BODY = 194
#: Octree cells per body (interior nodes), and bytes per cell.
CELLS_PER_BODY = 0.5
BYTES_PER_CELL = 88


class BarnesWorkload(InterleavedWorkload):
    """Body sweeps plus Zipf-weighted shared-tree traversal.

    Args:
        n_bodies: particle count.
        n_cpus: threads.
        tree_fraction: share of references into the shared tree during
            force computation.
        rebuild_fraction: share of each timestep spent rebuilding the tree
            (all-write traffic into the shared region).
        zipf_exponent: tree-level reuse skew (root levels are hottest).
        seed: reproducibility seed.
    """

    name = "barnes"

    #: How much shared traffic is store traffic outside the rebuild phase.
    _TREE_WRITE_FRACTION = 0.05
    #: Store fraction when sweeping the owned bodies (position updates).
    _BODY_WRITE_FRACTION = 0.30

    def __init__(
        self,
        n_bodies: int,
        n_cpus: int = 8,
        tree_fraction: float = 0.25,
        rebuild_fraction: float = 0.06,
        zipf_exponent: float = 1.1,
        seed: int = 0,
    ) -> None:
        super().__init__(n_cpus=n_cpus, seed=seed)
        self.n_bodies = n_bodies
        body_bytes = n_bodies * BYTES_PER_BODY
        shared_bytes = max(LINE * 8, int(n_bodies * CELLS_PER_BODY) * BYTES_PER_CELL)
        partition = max(LINE * 4, body_bytes // n_cpus // LINE * LINE)
        self.geometry = KernelGeometry(
            n_cpus=n_cpus, partition_bytes=partition, shared_bytes=shared_bytes
        )
        self.tree_fraction = tree_fraction
        self.rebuild_fraction = rebuild_fraction
        self.zipf_exponent = zipf_exponent
        self._tree = ZipfSampler(
            self.geometry.shared_lines, self.zipf_exponent, self.streams.get("tree")
        )
        # One timestep visits every owned body once (heuristically x2 for
        # multiple per-body passes).
        self.timestep_refs = max(1024, 2 * self.geometry.partition_lines)

    @classmethod
    def paper_scale(cls, scale: int = 512, n_cpus: int = 8, seed: int = 0) -> "BarnesWorkload":
        """Table 5 size (16 M bodies) divided by ``scale``."""
        return cls(n_bodies=max(2048, (16 << 20) // scale), n_cpus=n_cpus, seed=seed)

    @classmethod
    def splash2_scale(cls, scale: int = 512, n_cpus: int = 8, seed: int = 0) -> "BarnesWorkload":
        """Original SPLASH2 size (16 K bodies) divided by ``scale``."""
        return cls(n_bodies=max(128, (16 << 10) // scale), n_cpus=n_cpus, seed=seed)

    def cpu_refs(
        self, cpu: int, n: int, rng: np.random.Generator, state: dict
    ) -> Tuple[np.ndarray, np.ndarray]:
        geometry = self.geometry
        # Position within the current timestep decides build vs force phase.
        phase_pos = state.get("phase_pos", 0)
        offsets = (phase_pos + np.arange(n, dtype=np.int64)) % self.timestep_refs
        state["phase_pos"] = int((phase_pos + n) % self.timestep_refs)
        rebuild_mask = offsets < self.rebuild_fraction * self.timestep_refs

        lanes = rng.random(n)
        tree_mask = (~rebuild_mask) & (lanes < self.tree_fraction)
        body_mask = ~(rebuild_mask | tree_mask)

        addresses = np.empty(n, dtype=np.int64)
        is_writes = np.empty(n, dtype=bool)
        shared_base = geometry.shared_base

        n_rebuild = int(rebuild_mask.sum())
        if n_rebuild:
            cells = self._tree.draw(n_rebuild)
            addresses[rebuild_mask] = shared_base + cells * LINE
            is_writes[rebuild_mask] = True

        n_tree = int(tree_mask.sum())
        if n_tree:
            cells = self._tree.draw(n_tree)
            addresses[tree_mask] = shared_base + cells * LINE
            is_writes[tree_mask] = rng.random(n_tree) < self._TREE_WRITE_FRACTION

        n_body = int(body_mask.sum())
        if n_body:
            lines = windowed_sequential_lines(
                state,
                "bodies",
                n_body,
                geometry.partition_lines,
                TOUCHES_PER_LINE,
                NEIGHBOURHOOD_WINDOW_LINES,
                rng,
            )
            addresses[body_mask] = geometry.partition_base(cpu) + lines * LINE
            is_writes[body_mask] = rng.random(n_body) < self._BODY_WRITE_FRACTION

        return addresses, is_writes
