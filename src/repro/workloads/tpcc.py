"""Synthetic TPC-C-like OLTP workload.

TPC-C traffic, as seen by a memory bus, has three structural ingredients
this generator reproduces:

* a **shared hot set** — index roots, frequently updated warehouse/district
  rows — that every CPU hammers (Zipf-distributed page heat, common
  permutation across CPUs);
* **CPU-affine traffic** — each server process works its own transactions,
  so most data-page touches are Zipf-distributed over the database with a
  *per-CPU* heat permutation (hot sets mostly disjoint across CPUs);
* small **private per-process regions** (stack, locals, buffers) with very
  high locality.

The interplay of the first two is what produces the paper's Figure 9
crossover: with short traces, shared cold misses amortise across the CPUs
behind one cache (sharing looks good); at steady state the disjoint affine
hot sets aggregate and overflow the cache (sharing looks bad).

Footprints are parameters, so experiments scale the paper's 150 GB database
down by the common scale factor.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import MB
from repro.workloads.base import LINE, InterleavedWorkload, ZipfSampler

#: Database page size.
PAGE = 4096


class TpccWorkload(InterleavedWorkload):
    """OLTP reference stream with shared-hot, CPU-affine and private traffic.

    Args:
        db_bytes: total database footprint (tables + indexes).
        n_cpus: server CPUs.
        private_bytes: per-CPU private region (stack/heap locals).
        p_private: fraction of references hitting the private region.
        p_common: among shared references, fraction drawn from the common
            (CPU-independent) heat distribution.
        zipf_exponent: page-heat skew for both distributions.
        write_fraction: store fraction (OLTP is update-heavy, ~1 write per
            3 references).
        common_region_bytes: when positive, the common traffic is drawn
            from a *bounded* region of this size (mild Zipf inside) instead
            of Zipf over the whole database.  This models the index upper
            levels and warehouse/district rows every server process keeps
            touching — the bounded common working set whose cold misses
            amortise across processors behind a shared cache (the Figure 9
            short-trace effect).
        common_write_fraction: store fraction for *common* traffic only;
            defaults to ``write_fraction``.  Index upper levels are
            read-mostly, so Figure 9 style studies set this low — otherwise
            coherence invalidations of the replicated common set dominate
            the private-cache configurations.
        affine_region_bytes: when positive, each CPU's affine traffic is
            drawn from its *own* region of this size (Zipf inside) instead
            of a CPU-specific Zipf over the whole database — a server
            process's steady-state working set.  Disjoint affine regions
            are what make sharing costly at steady state (the Figure 9
            long-trace effect).
        seed: reproducibility seed.
    """

    name = "tpcc"

    def __init__(
        self,
        db_bytes: int,
        n_cpus: int = 8,
        private_bytes: int = 256 * 1024,
        p_private: float = 0.20,
        p_common: float = 0.30,
        zipf_exponent: float = 0.85,
        write_fraction: float = 0.25,
        common_region_bytes: int = 0,
        affine_region_bytes: int = 0,
        common_write_fraction: Optional[float] = None,
        seed: int = 0,
    ) -> None:
        super().__init__(n_cpus=n_cpus, seed=seed)
        if db_bytes < PAGE:
            raise ConfigurationError(f"database of {db_bytes} bytes is too small")
        if not 0 <= p_private <= 1 or not 0 <= p_common <= 1:
            raise ConfigurationError("probabilities must lie in [0, 1]")
        self.db_bytes = db_bytes
        self.private_bytes = private_bytes
        self.p_private = p_private
        self.p_common = p_common
        self.write_fraction = write_fraction
        self.common_write_fraction = (
            write_fraction if common_write_fraction is None else common_write_fraction
        )
        self.n_pages = db_bytes // PAGE
        # Page heat is modeled at cache-line granularity: within a hot page
        # the hot rows/index slots are a few lines, not all 32, so drawing
        # lines directly through the Zipf map preserves the working-set
        # geometry a page-then-uniform-line scheme would dilute 32x.
        self.n_lines = db_bytes // LINE
        self.common_region_lines = min(common_region_bytes // LINE, self.n_lines)
        self.affine_region_lines = min(affine_region_bytes // LINE, self.n_lines)
        self.zipf_exponent = zipf_exponent
        layout_rng = self.streams.get("layout")
        if self.common_region_lines > 0:
            # Bounded common working set: a mild Zipf over the region so it
            # has hot and warm lines but finite extent.
            self._common = ZipfSampler(self.common_region_lines, 0.8, layout_rng)
        else:
            self._common = ZipfSampler(self.n_lines, self.zipf_exponent, layout_rng)
        affine_population = (
            self.affine_region_lines if self.affine_region_lines > 0 else self.n_lines
        )
        self._affine = [
            ZipfSampler(
                affine_population,
                self.zipf_exponent,
                self.streams.get(f"affine{cpu}"),
            )
            for cpu in range(self.n_cpus)
        ]
        # Region bases: private regions first, then the database.  The
        # common region occupies the start of the database; bounded affine
        # regions are laid out disjointly after it.
        self._private_base = [cpu * private_bytes for cpu in range(n_cpus)]
        self._db_base = n_cpus * private_bytes
        self._affine_base = [
            self._db_base
            + self.common_region_lines * LINE
            + cpu * self.affine_region_lines * LINE
            for cpu in range(n_cpus)
        ]

    def cpu_refs(
        self, cpu: int, n: int, rng: np.random.Generator, state: dict
    ) -> Tuple[np.ndarray, np.ndarray]:
        lanes = rng.random(n)
        private_mask = lanes < self.p_private
        common_mask = (~private_mask) & (
            lanes < self.p_private + (1 - self.p_private) * self.p_common
        )
        affine_mask = ~(private_mask | common_mask)

        addresses = np.empty(n, dtype=np.int64)

        n_private = int(private_mask.sum())
        if n_private:
            offsets = rng.integers(0, self.private_bytes // LINE, n_private) * LINE
            addresses[private_mask] = self._private_base[cpu] + offsets

        n_common = int(common_mask.sum())
        if n_common:
            lines = self._common.draw(n_common)
            addresses[common_mask] = self._db_base + lines.astype(np.int64) * LINE

        n_affine = int(affine_mask.sum())
        if n_affine:
            lines = self._affine[cpu].draw(n_affine)
            if self.affine_region_lines > 0:
                base = self._affine_base[cpu]
            else:
                base = self._db_base
            addresses[affine_mask] = base + lines.astype(np.int64) * LINE

        is_writes = rng.random(n) < self.write_fraction
        if self.common_write_fraction != self.write_fraction:
            n_common_total = int(common_mask.sum())
            if n_common_total:
                is_writes[common_mask] = (
                    rng.random(n_common_total) < self.common_write_fraction
                )
        return addresses, is_writes


def paper_tpcc(scale: int = 512, n_cpus: int = 8, seed: int = 0) -> TpccWorkload:
    """The paper's 150 GB TPC-C database, scaled down by ``scale``."""
    db_bytes = max(PAGE * 64, (150 * 1024 * MB) // scale)
    return TpccWorkload(db_bytes=db_bytes, n_cpus=n_cpus, seed=seed)
