"""Tests for the workload framework and the Zipf sampler."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.workloads.base import InterleavedWorkload, LINE, ZipfSampler
from repro.workloads.osjournal import JournalBugOverlay
from repro.workloads.splash.barnes import BarnesWorkload
from repro.workloads.splash.fmm import FmmWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.tpch import TpchWorkload
from repro.workloads.web import WebWorkload


class UniformWorkload(InterleavedWorkload):
    """Minimal concrete workload: uniform lines in a per-CPU region."""

    def __init__(self, n_cpus=4, region_lines=64, seed=0):
        super().__init__(n_cpus=n_cpus, seed=seed)
        self.region_lines = region_lines

    def cpu_refs(self, cpu, n, rng, state):
        lines = rng.integers(0, self.region_lines, n)
        addresses = (cpu * self.region_lines + lines) * LINE
        return addresses, rng.random(n) < 0.5


class TestChunking:
    def test_total_reference_count(self):
        workload = UniformWorkload()
        total = sum(len(c[0]) for c in workload.chunks(10_000, chunk_size=1024))
        assert total == 10_000

    def test_last_chunk_partial(self):
        workload = UniformWorkload()
        sizes = [len(c[0]) for c in workload.chunks(2500, chunk_size=1000)]
        assert sizes == [1000, 1000, 500]

    def test_addresses_line_aligned(self):
        workload = UniformWorkload()
        for _cpus, addresses, _writes in workload.chunks(5000):
            assert (addresses % LINE == 0).all()

    def test_cpu_ids_in_range(self):
        workload = UniformWorkload(n_cpus=3)
        for cpu_ids, _a, _w in workload.chunks(5000):
            assert cpu_ids.min() >= 0 and cpu_ids.max() < 3

    def test_deterministic_given_seed(self):
        a = list(UniformWorkload(seed=9).chunks(3000))
        b = list(UniformWorkload(seed=9).chunks(3000))
        for (ca, aa, wa), (cb, ab, wb) in zip(a, b):
            assert (ca == cb).all() and (aa == ab).all() and (wa == wb).all()

    def test_different_seeds_differ(self):
        a = next(iter(UniformWorkload(seed=1).chunks(1000)))
        b = next(iter(UniformWorkload(seed=2).chunks(1000)))
        assert not (a[1] == b[1]).all()

    def test_reset_restarts_stream(self):
        workload = UniformWorkload(seed=3)
        first = next(iter(workload.chunks(1000)))
        workload.reset()
        again = next(iter(workload.chunks(1000)))
        assert (first[1] == again[1]).all()

    def test_zero_cpus_rejected(self):
        with pytest.raises(ConfigurationError):
            UniformWorkload(n_cpus=0)

    def test_negative_refs_rejected(self):
        workload = UniformWorkload()
        with pytest.raises(ConfigurationError):
            list(workload.chunks(-1))


class TestZipfSampler:
    def test_draws_within_population(self):
        sampler = ZipfSampler(100, 1.0, np.random.default_rng(0))
        draws = sampler.draw(10_000)
        assert draws.min() >= 0 and draws.max() < 100

    def test_skew_concentrates_mass(self):
        rng = np.random.default_rng(0)
        sampler = ZipfSampler(10_000, 1.2, rng)
        draws = sampler.draw(50_000)
        _, counts = np.unique(draws, return_counts=True)
        top_share = np.sort(counts)[::-1][:100].sum() / draws.size
        assert top_share > 0.4  # heavy head

    def test_higher_exponent_more_skew(self):
        def unique_fraction(exponent):
            sampler = ZipfSampler(50_000, exponent, np.random.default_rng(1))
            return np.unique(sampler.draw(20_000)).size / 20_000

        assert unique_fraction(1.5) < unique_fraction(0.6)

    def test_permutation_scatters_hot_items(self):
        """The hottest item should usually not be index 0 (rank-permuted)."""
        hits = 0
        for seed in range(10):
            sampler = ZipfSampler(1000, 1.5, np.random.default_rng(seed))
            draws = sampler.draw(2000)
            values, counts = np.unique(draws, return_counts=True)
            if values[counts.argmax()] == 0:
                hits += 1
        assert hits <= 2

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(0, 1.0, rng)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, 0.0, rng)

    @given(
        n=st.integers(1, 500),
        exponent=st.floats(0.2, 2.0),
        count=st.integers(1, 200),
    )
    @settings(max_examples=30, deadline=None)
    def test_bounds_property(self, n, exponent, count):
        sampler = ZipfSampler(n, exponent, np.random.default_rng(0))
        draws = sampler.draw(count)
        assert draws.min() >= 0 and draws.max() < n


#: One factory per workload family with stream-backed samplers; each takes
#: a seed and builds a small instance.
RESET_CASES = {
    "tpcc": lambda seed: TpccWorkload(db_bytes=1 << 22, n_cpus=4, seed=seed),
    "tpcc-bounded-common": lambda seed: TpccWorkload(
        db_bytes=1 << 22,
        n_cpus=4,
        common_region_bytes=1 << 17,
        common_write_fraction=0.05,
        seed=seed,
    ),
    "tpcc-bounded-affine": lambda seed: TpccWorkload(
        db_bytes=1 << 22, n_cpus=4, affine_region_bytes=1 << 17, seed=seed
    ),
    "tpch": lambda seed: TpchWorkload(
        fact_bytes=1 << 22, dim_bytes=1 << 18, n_cpus=4, seed=seed
    ),
    "web": lambda seed: WebWorkload(
        fileset_bytes=1 << 22, n_files=256, n_cpus=4, seed=seed
    ),
    "barnes": lambda seed: BarnesWorkload(n_bodies=4096, n_cpus=4, seed=seed),
    "fmm": lambda seed: FmmWorkload(n_particles=4096, n_cpus=4, seed=seed),
    "osjournal": lambda seed: JournalBugOverlay(
        TpccWorkload(db_bytes=1 << 22, n_cpus=4, seed=seed),
        period_refs=1500,
        burst_refs=200,
    ),
}


def _stream(workload, n_refs=6000, chunk_size=1000):
    return [
        tuple(array.copy() for array in chunk)
        for chunk in workload.chunks(n_refs, chunk_size)
    ]


def _assert_same_stream(got, expected):
    assert len(got) == len(expected)
    for got_chunk, expected_chunk in zip(got, expected):
        for got_array, expected_array in zip(got_chunk, expected_chunk):
            np.testing.assert_array_equal(got_array, expected_array)


class TestResetEqualsFresh:
    """``reset()`` rewinds to exactly what a newly built instance yields."""

    @pytest.mark.parametrize("name", sorted(RESET_CASES))
    def test_reset_after_partial_consumption(self, name):
        make = RESET_CASES[name]
        workload = make(31)
        partial = workload.chunks(6000, 1000)
        next(partial)
        next(partial)  # the generator is left suspended mid-stream
        _stream(workload, 2500, 700)  # and a second, completed pass
        workload.reset()
        _assert_same_stream(_stream(workload), _stream(make(31)))

    @pytest.mark.parametrize("name", sorted(RESET_CASES))
    def test_reset_before_any_chunks(self, name):
        make = RESET_CASES[name]
        workload = make(8)
        workload.reset()
        _assert_same_stream(_stream(workload), _stream(make(8)))

    @pytest.mark.parametrize("name", ["tpcc", "web"])
    def test_repeated_resets(self, name):
        make = RESET_CASES[name]
        expected = _stream(make(4))
        workload = make(4)
        for _ in range(3):
            _assert_same_stream(_stream(workload), expected)
            workload.reset()
