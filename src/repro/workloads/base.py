"""Workload framework: per-CPU reference generators and interleaving.

The paper runs real workloads (TPC-C on a 150 GB database, multi-GB SPLASH2
codes) on real hardware.  We cannot, so every workload here is a *synthetic
address-stream generator* engineered to match the structural properties the
case studies depend on — working-set size relative to cache size, degree of
inter-CPU sharing, temporal locality, phase behaviour — at footprints scaled
down by a common factor (see DESIGN.md, "Hardware gates and substitutions").

A workload produces the stream of data references that *miss the host L1*:
tuples of parallel numpy arrays ``(cpu_ids, addresses, is_writes)``.  The
:class:`InterleavedWorkload` base class handles chunking and CPU
interleaving; concrete workloads implement one method,
:meth:`InterleavedWorkload.cpu_refs`, generating ``n`` references for one
CPU (with per-CPU persistent state so sequential patterns survive chunk
boundaries).
"""

from __future__ import annotations

import abc
import functools
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.common.errors import ConfigurationError
from repro.common.rng import RngStreams

#: Host cache-line granularity all generators align addresses to.
LINE = 128

Chunk = Tuple[np.ndarray, np.ndarray, np.ndarray]


class Workload(abc.ABC):
    """A finite or unbounded stream of host memory references."""

    name: str = "workload"
    n_cpus: int = 8

    @abc.abstractmethod
    def chunks(self, n_refs: int, chunk_size: int = 65536) -> Iterator[Chunk]:
        """Yield ``(cpu_ids, addresses, is_writes)`` arrays totalling ``n_refs``."""

    def reset(self) -> None:
        """Restart the workload from its initial state (default: no-op)."""


class InterleavedWorkload(Workload):
    """Base class interleaving independent per-CPU reference streams.

    Each chunk draws a uniformly random CPU sequence (memory-bus
    interleaving is effectively arbitrary at reference granularity), then
    fills the address/write arrays CPU by CPU from :meth:`cpu_refs`.

    Args:
        n_cpus: processors generating references.
        seed: root seed; two instances with equal parameters and seed
            produce identical streams.
    """

    def __init__(self, n_cpus: int = 8, seed: int = 0) -> None:
        if n_cpus < 1:
            raise ConfigurationError(f"need at least one CPU, got {n_cpus}")
        self.n_cpus = n_cpus
        self.seed = seed
        self.streams = RngStreams(seed)
        self._cpu_state: Dict[int, dict] = {}
        # Stream states right after construction (samplers built); taken
        # lazily, by the first chunks() or reset(), because subclasses
        # build their samplers after this constructor returns.
        self._initial_streams: Optional[Dict[str, dict]] = None

    # ------------------------------------------------------------------ #
    # Subclass interface
    # ------------------------------------------------------------------ #

    @abc.abstractmethod
    def cpu_refs(
        self, cpu: int, n: int, rng: np.random.Generator, state: dict
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Generate ``n`` references for ``cpu``.

        Args:
            cpu: CPU index (0-based).
            n: number of references to produce.
            rng: this CPU's private random stream.
            state: mutable per-CPU dict persisting across chunks (empty on
                first call); keep scan positions, iteration counters etc.
                here.

        Returns:
            (addresses, is_writes) arrays of length ``n``; addresses will be
            line-aligned by the framework.
        """

    # ------------------------------------------------------------------ #
    # Framework
    # ------------------------------------------------------------------ #

    def chunks(self, n_refs: int, chunk_size: int = 65536) -> Iterator[Chunk]:
        if n_refs < 0:
            raise ConfigurationError("n_refs must be non-negative")
        self._snapshot_streams()
        mix_rng = self.streams.get("mixer")
        produced = 0
        while produced < n_refs:
            take = min(chunk_size, n_refs - produced)
            cpu_ids = mix_rng.integers(0, self.n_cpus, take, dtype=np.int64)
            addresses = np.empty(take, dtype=np.int64)
            is_writes = np.empty(take, dtype=bool)
            for cpu in range(self.n_cpus):
                mask = cpu_ids == cpu
                count = int(mask.sum())
                if count == 0:
                    continue
                rng = self.streams.get(f"cpu{cpu}")
                state = self._cpu_state.setdefault(cpu, {})
                addrs, writes = self.cpu_refs(cpu, count, rng, state)
                addresses[mask] = addrs
                is_writes[mask] = writes
            addresses &= ~np.int64(LINE - 1)
            yield cpu_ids, addresses, is_writes
            produced += take

    def reset(self) -> None:
        """Restart all per-CPU streams and state.

        Rewinds every stream to its state at the end of construction, in
        place, so samplers built from the stream family (Zipf rank maps
        and all) continue exactly as a newly built instance's would; the
        streams ``chunks()`` creates (``mixer``, ``cpu*``) are dropped and
        start afresh.  Nothing is rebuilt, so subclasses need no hook.
        """
        self._snapshot_streams()
        self.streams.restore(self._initial_streams)
        self._cpu_state.clear()

    def _snapshot_streams(self) -> None:
        if self._initial_streams is None:
            self._initial_streams = self.streams.snapshot()


def zipf_page_sampler(
    n_pages: int,
    exponent: float,
    rng: np.random.Generator,
) -> "ZipfSampler":
    """Convenience constructor for a bounded Zipf sampler over pages."""
    return ZipfSampler(n_pages, exponent, rng)


@functools.lru_cache(maxsize=16)
def _zipf_cdf(n: int, exponent: float) -> np.ndarray:
    """The truncated Zipf CDF over ``n`` ranks, shared read-only.

    Per-CPU samplers over one population (TPC-C's affine heat maps) differ
    only in their permutation, so they share one CDF array.
    """
    weights = 1.0 / np.power(np.arange(1, n + 1, dtype=np.float64), exponent)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    cdf.setflags(write=False)
    return cdf


class ZipfSampler:
    """Bounded Zipf(-like) sampler over ``0..n-1`` with a permuted rank map.

    ``numpy``'s :func:`~numpy.random.Generator.zipf` is unbounded and
    concentrates mass on rank 0; real page popularity is Zipf over a
    *finite* set with popular pages scattered across the address space.
    This sampler draws ranks from a truncated Zipf CDF (inverse-transform)
    and maps rank -> page through a fixed random permutation.

    Args:
        n: population size.
        exponent: Zipf skew ``s`` (>0; ~0.8–1.2 models database page heat).
        rng: generator used both for the permutation and the draws.
    """

    def __init__(self, n: int, exponent: float, rng: np.random.Generator) -> None:
        if n < 1:
            raise ConfigurationError(f"population must be >= 1, got {n}")
        if exponent <= 0:
            raise ConfigurationError(f"Zipf exponent must be > 0, got {exponent}")
        self.n = n
        self.exponent = exponent
        self._rng = rng
        self._cdf = _zipf_cdf(n, float(exponent))
        self._perm = rng.permutation(n)

    def draw(self, count: int) -> np.ndarray:
        """Sample ``count`` population members (int64 array)."""
        u = self._rng.random(count)
        ranks = np.searchsorted(self._cdf, u, side="left")
        return self._perm[ranks]
