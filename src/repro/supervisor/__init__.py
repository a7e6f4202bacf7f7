"""Crash-safe run orchestration for long emulation campaigns.

The paper's headline runs are multi-day live monitoring sessions; this
package is what lets the reproduction survive the failures such runs
actually hit — console crashes, hung workers, a corrupt stretch of trace,
a directory bank gone bad — without losing committed work or silently
producing wrong counters.

* :mod:`repro.supervisor.journal` — the append-only run journal (JSONL
  WAL with per-line CRCs and torn-tail recovery).
* :mod:`repro.supervisor.spec` — the serialisable run recipe
  (:class:`SupervisedRunSpec`) and the deterministic chaos schedule
  (:class:`ChaosPlan`) the chaos harness uses.
* :mod:`repro.supervisor.worker` — the worker process: restores a
  checkpoint, replays segments, checkpoints durably, reports commits.
* :mod:`repro.supervisor.supervisor` — :class:`RunSupervisor`: watchdog,
  bounded restarts with backoff, and the degradation ladder (quarantine
  corrupt segments, offline ECC-failing nodes).

The core guarantee: SIGKILL a supervised run at any moment, ``open()`` +
``run()`` the same directory, and the final counters are bit-identical
to an uninterrupted run; zero-fault supervised runs are bit-identical to
bare ``board.replay_words``.
"""

from repro.supervisor.journal import RunJournal
from repro.supervisor.spec import (
    ChaosPlan,
    SupervisedRunSpec,
    statistics_digest,
)
from repro.supervisor.supervisor import (
    RunSupervisor,
    SupervisedRunResult,
    SupervisorAbort,
    SupervisorError,
    backoff_delay,
    render_status,
)

__all__ = [
    "ChaosPlan",
    "RunJournal",
    "RunSupervisor",
    "SupervisedRunResult",
    "SupervisedRunSpec",
    "SupervisorAbort",
    "SupervisorError",
    "backoff_delay",
    "render_status",
    "statistics_digest",
]
