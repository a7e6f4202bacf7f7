"""Golden-value regression tests.

Everything in the reproduction is deterministic given a seed, so a handful
of end-to-end counter values can be pinned exactly.  If one of these tests
fails after a change, the change altered emulation *semantics* (not just
performance or presentation) — either fix the regression or consciously
re-baseline the constants below and say why in the commit.
"""

import hashlib

import numpy as np
import pytest

from repro.experiments.pipeline import capture_records
from repro.host.smp import HostConfig, HostSMP
from repro.memories.board import MemoriesBoard
from repro.memories.board import board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.firmware.tracer import TraceCollectorFirmware
from repro.target.configs import single_node_machine, split_smp_machine
from repro.workloads.splash.barnes import BarnesWorkload
from repro.workloads.tpcc import TpccWorkload
from repro.workloads.web import WebWorkload

HOST = HostConfig(n_cpus=4, l2_size=16 * 1024, l2_assoc=2)


@pytest.fixture(scope="module")
def golden_trace():
    workload = TpccWorkload(
        db_bytes=1 << 22,
        n_cpus=4,
        private_bytes=8 * 1024,
        p_private=0.1,
        p_common=0.3,
        zipf_exponent=1.2,
        seed=12345,
    )
    return capture_records(workload, 20_000, HOST)


class TestGoldenValues:
    def test_trace_fingerprint(self, golden_trace):
        words = golden_trace.words
        assert len(golden_trace) == 20_000
        # Fingerprint of the whole capture pipeline (workload + host MESI).
        assert int(words.sum() % 1_000_000_007) == 276068700
        assert int(words[0]) == 144115188079879040
        assert int(words[-1]) == 36028797019553536

    def test_single_node_counters(self, golden_trace):
        board = board_for_machine(
            single_node_machine(
                CacheNodeConfig(size=64 * 1024, assoc=4, line_size=128), n_cpus=4
            ),
            seed=0,
        )
        board.replay(golden_trace)
        node = board.firmware.nodes[0]
        counters = {
            name: node.counters.read(name)
            for name in (
                "local.read",
                "local.write",
                "local.castout",
                "miss.read",
                "miss.write",
                "evict.dirty",
            )
        }
        assert counters == {
            "local.read": 11661,
            "local.write": 4452,
            "local.castout": 3887,
            "miss.read": 8664,
            "miss.write": 2968,
            "evict.dirty": 4807,
        }

    def test_split_machine_counters(self, golden_trace):
        board = board_for_machine(
            split_smp_machine(
                CacheNodeConfig(size=32 * 1024, assoc=4, line_size=128),
                n_cpus=4,
                procs_per_node=2,
            ),
            seed=0,
        )
        board.replay(golden_trace)
        node0, node1 = board.firmware.nodes
        assert node0.references() + node1.references() == 16113
        assert node0.counters.read("remote.read") == node1.counters.read(
            "local.read"
        ) - node1.counters.read("hit.read")


def _expected_placeholder():
    """Regenerate the constants above after an intentional semantic change:

    run this module's fixtures by hand and print the counters, e.g.::

        pytest tests/test_regression_golden.py -q  # shows the diffs
    """

#: Captured-trace digests, pinned before the host's snoop filter and
#: precomputed address slicing existed: (record count, sha256 of words).
TPCC_L1_RECORDS = 23228
TPCC_L1_SHA256 = "bff742a816bc8da9574cd6e5f96f5bbcd3f0c734c31fb458ae5a092af2871808"
WEB_RECORDS = 40118
WEB_SHA256 = "8f92f7cecfc89d4b3d3225d04974044649113b0a5ce183e7732846e2267ece02"
BARNES_RECORDS = 15655
BARNES_SHA256 = "e50c02b66337e11ca2fcae2b0889c60d6c34876a0ab1ce2b7746496ade8e2986"
DIRECT_MAPPED_RECORDS = 49024
DIRECT_MAPPED_SHA256 = "c2eb74cadf7d4f1e3cef783d28147990184804b0f5bb97721ea79f8509182544"
DMA_RECORDS = 28463
DMA_SHA256 = "3f3f765d352a132aec39a0857771d4a2eb4c09880a5da597d1c2b1bd82ee8dee"


def _small_tpcc(seed):
    return TpccWorkload(
        db_bytes=1 << 22,
        n_cpus=4,
        private_bytes=8 * 1024,
        p_private=0.1,
        p_common=0.3,
        zipf_exponent=1.2,
        seed=seed,
    )


def _capture_sha256(workload, host_config, n_refs, dma_per_chunk=0):
    """(record count, sha256 of the little-endian trace words) of a capture.

    With ``dma_per_chunk`` > 0, after each chunk the I/O bridge issues that
    many tenures at addresses the chunk just touched: DMA reads, DMA writes
    and I/O-register accesses, chosen by a fixed-seed generator.
    """
    host = HostSMP(host_config)
    tracer = TraceCollectorFirmware()
    host.plug_in(MemoriesBoard(tracer, name="golden"))
    dma_rng = np.random.default_rng(2024)
    bridge = host.io_bridge
    for cpu_ids, addresses, is_writes in workload.chunks(n_refs, 2048):
        host.run_chunk(cpu_ids, addresses, is_writes)
        if dma_per_chunk:
            targets = dma_rng.choice(addresses, dma_per_chunk)
            kinds = dma_rng.integers(0, 3, dma_per_chunk)
            for address, kind in zip(targets.tolist(), kinds.tolist()):
                if kind == 0:
                    bridge.dma_read(address)
                elif kind == 1:
                    bridge.dma_write(address)
                else:
                    bridge.register_access(address, is_write=bool(address & 128))
    words = tracer.to_trace().words
    return len(words), hashlib.sha256(words.astype("<u8").tobytes()).hexdigest()


class TestGoldenCaptureDigests:
    """Full sha256 of captured trace words for the host paths capture uses.

    Host-side optimisations (address slicing, snoop filtering) must leave
    every captured word byte-identical; the sum fingerprint above can
    mask compensating changes, a digest cannot.
    """

    def test_tpcc_with_l1(self):
        host = HostConfig(
            n_cpus=4, l2_size=32 * 1024, l2_assoc=2, l1_size=4 * 1024, l1_assoc=2
        )
        assert _capture_sha256(_small_tpcc(11), host, 40_000) == (
            TPCC_L1_RECORDS, TPCC_L1_SHA256,
        )

    def test_web(self):
        workload = WebWorkload(
            fileset_bytes=1 << 22, n_files=512, n_cpus=4, seed=5
        )
        assert _capture_sha256(workload, HOST, 40_000) == (
            WEB_RECORDS, WEB_SHA256,
        )

    def test_barnes(self):
        workload = BarnesWorkload(n_bodies=8192, n_cpus=4, seed=3)
        assert _capture_sha256(workload, HOST, 40_000) == (
            BARNES_RECORDS, BARNES_SHA256,
        )

    def test_one_megabyte_direct_mapped_l2(self):
        workload = TpccWorkload(db_bytes=1 << 24, n_cpus=4, seed=21)
        host = HostConfig(n_cpus=4, l2_size=1 << 20, l2_assoc=1)
        assert _capture_sha256(workload, host, 60_000) == (
            DIRECT_MAPPED_RECORDS, DIRECT_MAPPED_SHA256,
        )

    def test_io_bridge_dma(self):
        assert _capture_sha256(_small_tpcc(17), HOST, 40_000, dma_per_chunk=48) == (
            DMA_RECORDS, DMA_SHA256,
        )
