"""SPLASH2 FMM kernel (fast multipole method n-body) generator.

FMM differs from Barnes-Hut in its communication intensity: threads
*accumulate into shared cells* (multipole and local expansions flow up and
down the shared tree), so a large share of the shared traffic is
read-modify-write.  This is exactly why the paper singles FMM out: "FMM has
a significant amount of modified and shared intervention traffic relative to
the other applications, indicating more data sharing" (Figure 12).

Table 5 runs 4 M particles (8.34 GB); the original SPLASH2 characterisation
used 16 K.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.workloads.base import LINE, InterleavedWorkload, ZipfSampler
from repro.workloads.splash.common import KernelGeometry, windowed_sequential_lines

#: Per-particle processing touches its line repeatedly; interaction-list
#: neighbours live in a trailing window of the sweep.
TOUCHES_PER_LINE = 8
NEIGHBOURHOOD_WINDOW_LINES = 16

#: Table 5: 8.34 GB for 4 M particles -> ~2.2 KB per particle (bodies plus
#: per-cell multipole/local expansion storage).
BYTES_PER_PARTICLE = 2240
#: Fraction of the footprint living in the shared cell structure.
SHARED_SHARE = 0.45


class FmmWorkload(InterleavedWorkload):
    """Particle sweeps plus read-modify-write traffic into shared cells.

    Args:
        n_particles: particle count.
        n_cpus: threads.
        shared_fraction: share of references into the shared cell tree.
        shared_write_fraction: stores among shared references (the
            expansion accumulations that cause interventions).
        zipf_exponent: cell reuse skew.
        seed: reproducibility seed.
    """

    name = "fmm"

    _BODY_WRITE_FRACTION = 0.30

    def __init__(
        self,
        n_particles: int,
        n_cpus: int = 8,
        shared_fraction: float = 0.38,
        shared_write_fraction: float = 0.30,
        zipf_exponent: float = 1.05,
        seed: int = 0,
    ) -> None:
        super().__init__(n_cpus=n_cpus, seed=seed)
        self.n_particles = n_particles
        footprint = n_particles * BYTES_PER_PARTICLE
        shared_bytes = max(LINE * 8, int(footprint * SHARED_SHARE) // LINE * LINE)
        partition = max(
            LINE * 4, (footprint - shared_bytes) // n_cpus // LINE * LINE
        )
        self.geometry = KernelGeometry(
            n_cpus=n_cpus, partition_bytes=partition, shared_bytes=shared_bytes
        )
        self.shared_fraction = shared_fraction
        self.shared_write_fraction = shared_write_fraction
        self.zipf_exponent = zipf_exponent
        self._cells = ZipfSampler(
            self.geometry.shared_lines, self.zipf_exponent, self.streams.get("cells")
        )

    @classmethod
    def paper_scale(cls, scale: int = 512, n_cpus: int = 8, seed: int = 0) -> "FmmWorkload":
        """Table 5 size (4 M particles) divided by ``scale``."""
        return cls(n_particles=max(1024, (4 << 20) // scale), n_cpus=n_cpus, seed=seed)

    @classmethod
    def splash2_scale(cls, scale: int = 512, n_cpus: int = 8, seed: int = 0) -> "FmmWorkload":
        """Original SPLASH2 size (16 K particles) divided by ``scale``."""
        return cls(n_particles=max(128, (16 << 10) // scale), n_cpus=n_cpus, seed=seed)

    def cpu_refs(
        self, cpu: int, n: int, rng: np.random.Generator, state: dict
    ) -> Tuple[np.ndarray, np.ndarray]:
        geometry = self.geometry
        shared_mask = rng.random(n) < self.shared_fraction
        addresses = np.empty(n, dtype=np.int64)
        is_writes = np.empty(n, dtype=bool)

        n_shared = int(shared_mask.sum())
        if n_shared:
            cells = self._cells.draw(n_shared)
            addresses[shared_mask] = geometry.shared_base + cells * LINE
            is_writes[shared_mask] = rng.random(n_shared) < self.shared_write_fraction

        n_body = n - n_shared
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
            addresses[~shared_mask] = geometry.partition_base(cpu) + lines * LINE
            is_writes[~shared_mask] = rng.random(n_body) < self._BODY_WRITE_FRACTION

        return addresses, is_writes
