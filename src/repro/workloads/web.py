"""Synthetic web-server workload.

Section 5.3 closes: "We can also use the MemorIES board for scaling studies
involving transaction processing, decision support, and **web server
workloads**."  This generator provides the third domain: a static-content
server whose memory traffic is

* **file-body streaming** — each request walks one file sequentially; file
  popularity is Zipf (the classic web-trace result) and file sizes are
  log-distributed across a configurable range;
* **metadata lookups** — a shared hot region (file-cache hash, inode-ish
  structures) touched on every request;
* **per-CPU network buffers** — small private rings reused constantly.

The aggregate working set is dominated by the popular tail of the file set,
which is what makes web serving cache-friendly until the fileset outgrows
the cache — the property the scaling-study experiment exercises.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.workloads.base import LINE, InterleavedWorkload, ZipfSampler


class WebWorkload(InterleavedWorkload):
    """Static web serving: Zipf file popularity, streaming bodies.

    Args:
        fileset_bytes: total size of the served content.
        n_files: number of distinct files (mean size = fileset / files).
        n_cpus: server worker CPUs.
        popularity_exponent: Zipf skew of request popularity (~0.8-1.1 in
            published web traces).
        p_metadata: fraction of references into the shared metadata region.
        metadata_bytes: size of that region.
        buffer_bytes: per-CPU network buffer ring.
        p_buffer: fraction of references into the ring.
        seed: reproducibility seed.
    """

    name = "web"

    def __init__(
        self,
        fileset_bytes: int,
        n_files: int = 4096,
        n_cpus: int = 8,
        popularity_exponent: float = 0.9,
        p_metadata: float = 0.15,
        metadata_bytes: int = 1 << 16,
        buffer_bytes: int = 1 << 13,
        p_buffer: float = 0.10,
        seed: int = 0,
    ) -> None:
        super().__init__(n_cpus=n_cpus, seed=seed)
        if n_files < 1:
            raise ConfigurationError("need at least one file")
        if fileset_bytes < n_files * LINE:
            raise ConfigurationError("fileset too small for the file count")
        if p_metadata + p_buffer >= 1.0:
            raise ConfigurationError("metadata + buffer fractions must be < 1")
        self.fileset_bytes = fileset_bytes
        self.n_files = n_files
        self.popularity_exponent = popularity_exponent
        self.p_metadata = p_metadata
        self.metadata_bytes = metadata_bytes
        self.buffer_bytes = buffer_bytes
        self.p_buffer = p_buffer
        # Layout: per-CPU buffers, then metadata, then file bodies.
        self._buffer_base = [cpu * buffer_bytes for cpu in range(n_cpus)]
        self._metadata_base = n_cpus * buffer_bytes
        self._files_base = self._metadata_base + metadata_bytes
        self._popularity = ZipfSampler(
            self.n_files, self.popularity_exponent, self.streams.get("popularity")
        )
        self._metadata = ZipfSampler(
            max(1, self.metadata_bytes // LINE), 0.8, self.streams.get("metadata")
        )
        self._build_file_table()

    def _build_file_table(self) -> None:
        """File sizes: log-uniform between mean/8 and 8x mean, renormalised."""
        rng = self.streams.get("layout")
        mean_lines = max(1, self.fileset_bytes // self.n_files // LINE)
        raw = np.exp(
            rng.uniform(
                np.log(max(1, mean_lines / 8)),
                np.log(mean_lines * 8),
                self.n_files,
            )
        ).astype(np.int64)
        raw = np.maximum(raw, 1)
        # Renormalise to the requested fileset size.
        total_target = self.fileset_bytes // LINE
        raw = np.maximum(1, raw * total_target // max(1, raw.sum()))
        self.file_lines = raw
        self.file_start_line = np.concatenate(
            [[0], np.cumsum(raw)[:-1]]
        ).astype(np.int64)
        self.total_file_lines = int(raw.sum())

    @property
    def total_bytes(self) -> int:
        """Whole-workload footprint."""
        return self._files_base + self.total_file_lines * LINE

    def cpu_refs(
        self, cpu: int, n: int, rng: np.random.Generator, state: dict
    ) -> Tuple[np.ndarray, np.ndarray]:
        lanes = rng.random(n)
        buffer_mask = lanes < self.p_buffer
        metadata_mask = (~buffer_mask) & (lanes < self.p_buffer + self.p_metadata)
        file_mask = ~(buffer_mask | metadata_mask)

        addresses = np.empty(n, dtype=np.int64)
        is_writes = np.zeros(n, dtype=bool)

        n_buffer = int(buffer_mask.sum())
        if n_buffer:
            offsets = rng.integers(0, self.buffer_bytes // LINE, n_buffer)
            addresses[buffer_mask] = self._buffer_base[cpu] + offsets * LINE
            is_writes[buffer_mask] = rng.random(n_buffer) < 0.5  # rx/tx rings

        n_metadata = int(metadata_mask.sum())
        if n_metadata:
            lines = self._metadata.draw(n_metadata)
            addresses[metadata_mask] = self._metadata_base + lines * LINE
            is_writes[metadata_mask] = rng.random(n_metadata) < 0.05

        n_file = int(file_mask.sum())
        if n_file:
            addresses[file_mask] = self._stream_files(n_file, rng, state)
            # Serving is read-only.

        return addresses, is_writes

    def _stream_files(
        self, n: int, rng: np.random.Generator, state: dict
    ) -> np.ndarray:
        """Walk the current request's file; pick a new file when done."""
        out = np.empty(n, dtype=np.int64)
        filled = 0
        current = state.get("file", -1)
        position = state.get("file_pos", 0)
        while filled < n:
            if current < 0 or position >= int(self.file_lines[current]):
                current = int(self._popularity.draw(1)[0])
                position = 0
            take = min(n - filled, int(self.file_lines[current]) - position)
            start_line = int(self.file_start_line[current]) + position
            out[filled : filled + take] = (
                self._files_base
                + (start_line + np.arange(take, dtype=np.int64)) * LINE
            )
            position += take
            filled += take
        state["file"] = current
        state["file_pos"] = position
        return out
