"""Synthetic TPC-H-like decision-support (DSS) workload.

DSS queries are dominated by **table scans**: each CPU streams sequentially
through its partition of the fact table, re-scanning it query after query,
and sprinkles **hash-join probes** into shared dimension tables.  Writes are
rare (load phases aside, decision support is read-mostly).

What matters for the paper's Figure 8 is the *reuse geometry*: a scan's data
becomes cache-resident only when the per-CPU scan partition fits in the
cache, so the miss-ratio-vs-cache-size curve keeps falling across the whole
sweep; and because a scan touches its entire partition quickly, short traces
exaggerate the cold-miss plateau just as the paper describes.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.units import MB
from repro.workloads.base import LINE, InterleavedWorkload, ZipfSampler

PAGE = 4096


class TpchWorkload(InterleavedWorkload):
    """DSS reference stream: cyclic partition scans plus dimension probes.

    Args:
        fact_bytes: fact-table footprint, partitioned evenly across CPUs.
        dim_bytes: total dimension-table footprint (shared by all CPUs).
        n_cpus: CPUs running query streams.
        p_scan: fraction of references that are sequential scan traffic.
        segment_bytes: extent one query operator scans and re-scans before
            moving on (sort runs, hash-partition passes).  This is the
            scan traffic's reuse distance: caches at least this large start
            absorbing re-scans.  Defaults to 1/16th of a CPU's partition.
        rescans: how many times a query pass re-reads its segment.
        zipf_exponent: dimension-probe heat skew.
        write_fraction: store fraction (small: aggregation temporaries).
        seed: reproducibility seed.
    """

    name = "tpch"

    def __init__(
        self,
        fact_bytes: int,
        dim_bytes: int,
        n_cpus: int = 8,
        p_scan: float = 0.70,
        segment_bytes: int = 0,
        rescans: int = 4,
        zipf_exponent: float = 0.9,
        write_fraction: float = 0.04,
        seed: int = 0,
    ) -> None:
        super().__init__(n_cpus=n_cpus, seed=seed)
        if fact_bytes < n_cpus * LINE:
            raise ConfigurationError("fact table too small to partition")
        if not 0 <= p_scan <= 1:
            raise ConfigurationError("p_scan must lie in [0, 1]")
        if rescans < 1:
            raise ConfigurationError("rescans must be >= 1")
        self.fact_bytes = fact_bytes
        self.dim_bytes = dim_bytes
        self.p_scan = p_scan
        self.write_fraction = write_fraction
        self.rescans = rescans
        self.partition_bytes = (fact_bytes // n_cpus) // LINE * LINE
        self.partition_lines = self.partition_bytes // LINE
        if segment_bytes <= 0:
            segment_bytes = max(LINE * 4, self.partition_bytes // 16)
        self.segment_lines = max(4, min(segment_bytes // LINE, self.partition_lines))
        self._dim_base = fact_bytes
        # Dimension heat at line granularity (see TpccWorkload for why).
        self._dim_lines = max(1, dim_bytes // LINE)
        self.zipf_exponent = zipf_exponent
        self._dims = ZipfSampler(
            self._dim_lines, self.zipf_exponent, self.streams.get("dims")
        )

    def cpu_refs(
        self, cpu: int, n: int, rng: np.random.Generator, state: dict
    ) -> Tuple[np.ndarray, np.ndarray]:
        scan_mask = rng.random(n) < self.p_scan
        addresses = np.empty(n, dtype=np.int64)

        n_scan = int(scan_mask.sum())
        if n_scan:
            # Query-operator model: scan the current segment 'rescans'
            # times, then jump to a fresh random segment of the partition.
            budget = state.get("segment_budget", 0)
            if budget <= 0:
                # Query mixes scan extents of varying size: draw this
                # query's segment log-uniformly in [base/4, base*4] so the
                # cache-size benefit phases in gradually rather than as a
                # cliff when one fixed size suddenly fits.
                factor = 4.0 ** rng.uniform(-1.0, 1.0)
                segment = int(self.segment_lines * factor)
                segment = max(4, min(segment, self.partition_lines))
                max_start = max(1, self.partition_lines - segment)
                state["segment_lines"] = segment
                state["segment_start"] = int(rng.integers(0, max_start))
                state["segment_pos"] = 0
                budget = segment * self.rescans
            segment_lines = state["segment_lines"]
            segment_start = state["segment_start"]
            position = state["segment_pos"]
            lines = segment_start + (
                (position + np.arange(n_scan, dtype=np.int64)) % segment_lines
            )
            state["segment_pos"] = int((position + n_scan) % segment_lines)
            state["segment_budget"] = budget - n_scan
            addresses[scan_mask] = cpu * self.partition_bytes + lines * LINE

        n_probe = n - n_scan
        if n_probe:
            lines = self._dims.draw(n_probe)
            addresses[~scan_mask] = self._dim_base + lines.astype(np.int64) * LINE

        is_writes = rng.random(n) < self.write_fraction
        return addresses, is_writes


def paper_tpch(scale: int = 512, n_cpus: int = 8, seed: int = 0) -> TpchWorkload:
    """The paper's 100 GB TPC-H database, scaled down by ``scale``.

    Roughly 85% of a TPC-H database is fact data (lineitem + orders); the
    rest is dimensions.
    """
    total = (100 * 1024 * MB) // scale
    fact = max(n_cpus * LINE * 1024, int(total * 0.85))
    dims = max(PAGE * 16, total - fact)
    return TpchWorkload(fact_bytes=fact, dim_bytes=dims, n_cpus=n_cpus, seed=seed)
