#!/usr/bin/env python
"""CI chaos test of the crash-safe run supervisor (repro.supervisor).

Each contract kills, corrupts or degrades a supervised run with the
deterministic :class:`~repro.supervisor.ChaosPlan` hooks and asserts the
recovery guarantees the subsystem is built around:

1. **Zero-fault identity** — an unperturbed supervised run lands on
   statistics bit-identical to a bare ``board.replay_words``.
2. **Mid-segment kill** — SIGKILL the worker partway through a segment;
   the supervisor restarts it from the last committed checkpoint and the
   final counters are bit-identical to an uninterrupted run.
3. **Commit-boundary kill + cold resume** — SIGKILL exactly after a
   commit with a zero restart budget, then resume via a fresh
   ``RunSupervisor.open()``: still bit-identical, with the journal
   carrying the full restart history.
4. **Degraded completion** — a trace segment with a flipped payload byte
   is quarantined, and a node whose ECC self-check reports uncorrectable
   directory damage is taken offline; both runs *complete*, with the
   degradation journaled and accounted in the statistics.
5. **Large, sparse directory kill** — SIGKILL mid-segment on a 4-node
   16 MB/node split machine, where almost every directory set is empty:
   the resumed run is bit-identical to a bare replay, and every
   committed checkpoint stays under :data:`SPARSE_CHECKPOINT_BYTES`
   (sparse directory state grows with resident lines, not cache size).

Everything is seeded, so a CI failure reproduces locally byte-for-byte.
Exit status is non-zero on any violation.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import numpy as np

from _smoke import SmokeChecks, synthetic_words

from repro.memories.config import CacheNodeConfig
from repro.supervisor import (
    ChaosPlan,
    RunSupervisor,
    SupervisedRunSpec,
    SupervisorError,
)
from repro.target.configs import single_node_machine, split_smp_machine

RECORDS = 4000
SEGMENT_RECORDS = 1000
SEED = 20000
#: Bound on one committed checkpoint of the 4 x 16 MB machine (contract 5).
SPARSE_CHECKPOINT_BYTES = 100 * 1024


def _spec(**overrides) -> SupervisedRunSpec:
    config = CacheNodeConfig(size=64 * 1024, assoc=4, line_size=128)
    defaults = dict(
        machine=single_node_machine(config, n_cpus=4),
        segment_records=SEGMENT_RECORDS,
        backoff_base=0.01,
    )
    defaults.update(overrides)
    return SupervisedRunSpec(**defaults)


def _bare_statistics(spec: SupervisedRunSpec, words: np.ndarray) -> dict:
    board = spec.build_board()
    board.replay_words(words)
    return board.statistics()


def _corrupt_segment(run_dir: Path, segment: int) -> None:
    """Flip one payload byte of one segment of the staged v5 trace."""
    path = run_dir / RunSupervisor.TRACE_NAME
    data = bytearray(path.read_bytes())
    offset = 20 + segment * (SEGMENT_RECORDS * 8 + 4) + 11
    data[offset] ^= 0x40
    path.write_bytes(data)


def main() -> int:
    smoke = SmokeChecks("chaos")
    words = synthetic_words(RECORDS, SEED)

    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        tmp = Path(tmp)

        spec = _spec()
        bare = _bare_statistics(spec, words)

        result = RunSupervisor.create(spec, words, tmp / "clean").run()
        smoke.check(
            "zero-fault supervised run identical to bare replay",
            result.statistics == bare and not result.degraded,
        )

        supervisor = RunSupervisor.create(spec, words, tmp / "midkill")
        result = supervisor.run(chaos=ChaosPlan(kill_after_records=1500))
        smoke.check(
            "mid-segment SIGKILL: restarted run identical to bare replay",
            result.statistics == bare and result.restarts == 1,
            f"restarts={result.restarts}",
        )

        strict = _spec(max_restarts=0)
        supervisor = RunSupervisor.create(strict, words, tmp / "commitkill")
        budget_hit = False
        try:
            supervisor.run(chaos=ChaosPlan(kill_at_commit=1))
        except SupervisorError:
            budget_hit = True
        resumed = RunSupervisor.open(tmp / "commitkill")
        result = resumed.run()
        status = resumed.status()
        smoke.check(
            "commit-boundary SIGKILL + cold resume identical to bare replay",
            budget_hit
            and result.statistics == bare
            and status["complete"]
            and status["restarts"] == 1,
            f"budget_hit={budget_hit} restarts={status['restarts']}",
        )

        supervisor = RunSupervisor.create(spec, words, tmp / "quarantine")
        _corrupt_segment(tmp / "quarantine", 2)
        result = supervisor.run()
        smoke.check(
            "corrupt trace segment quarantined; run completes degraded",
            result.degraded
            and result.segments_quarantined == 1
            and result.records_skipped == SEGMENT_RECORDS
            and supervisor.status()["quarantined_segments"] == [2],
            f"quarantined={result.segments_quarantined} "
            f"skipped={result.records_skipped}",
        )

        ecc_spec = _spec(ecc=True)
        supervisor = RunSupervisor.create(ecc_spec, words, tmp / "badnode")
        result = supervisor.run(chaos=ChaosPlan(fail_node=(1, 0)))
        smoke.check(
            "uncorrectable directory damage offlines the node; run completes",
            result.degraded
            and result.offline_nodes == [0]
            and result.statistics["board.offline_nodes"] == 1,
            f"offline={result.offline_nodes}",
        )

        large = CacheNodeConfig(size=16 * 1024 * 1024, assoc=4, line_size=128)
        large_spec = _spec(
            machine=split_smp_machine(large, n_cpus=8, procs_per_node=2)
        )
        large_words = synthetic_words(RECORDS, SEED + 5, n_cpus=8)
        large_bare = _bare_statistics(large_spec, large_words)
        supervisor = RunSupervisor.create(large_spec, large_words, tmp / "large")
        result = supervisor.run(chaos=ChaosPlan(kill_after_records=1500))
        sizes = [
            path.stat().st_size
            for path in (tmp / "large" / "checkpoints").glob("ckpt-*.json")
        ]
        smoke.check(
            "4 x 16 MB mid-segment SIGKILL: identical resume, small checkpoints",
            result.statistics == large_bare
            and result.restarts == 1
            and sizes
            and max(sizes) < SPARSE_CHECKPOINT_BYTES,
            f"restarts={result.restarts} checkpoint_bytes={sizes}",
        )

    return smoke.finish()


if __name__ == "__main__":
    sys.exit(main())
