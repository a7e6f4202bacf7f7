"""Replay engines, the static capability prover and engine selection.

The repo replays one captured trace through two engines — the scalar
reference loop and the vectorised batched engine
(:mod:`repro.memories.batch`) — under one contract: **bit-identical
statistics**.  The batched engine's argument needs one property of the
programmed board, so eligibility is a single auditable decision made
before the first record replays:

* :func:`prove_capabilities` inspects a programmed board (never runs
  it) and returns the capabilities it grants, with a recorded reason
  for every denial.
* each engine in :data:`ENGINES` declares the capabilities it
  *requires*; :func:`decide` compares requirement to grant and reports
  the verdict as a standard :class:`~repro.verify.findings.Report`
  (rule ``EN301`` per required capability), so "why was this engine
  rejected?" is a stored artifact, not a debugging session.
* :func:`select_board_engine` is the single selection point —
  :meth:`MemoriesBoard._replay_words
  <repro.memories.board.MemoriesBoard._replay_words>` routes through
  it, so no replay path carries its own refusal logic.

The capability (the precondition of the batched engine's proof
obligation, discharged in its module docstring and test suite):

``INERT_BACKGROUND_TICK``
    The per-tenure firmware tick is a no-op, so an engine that does not
    interleave ticks between tenures loses nothing.  Denied while any
    in-service node runs an ECC patrol scrubber.

To force the scalar reference path (A/B benchmarking, bisection), call
``ENGINES["scalar"].replay(board, words)`` directly.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.common.errors import ConfigurationError
from repro.verify.findings import Report


class Capability(enum.Enum):
    """Configuration properties engines can require (values are the
    stable names used in CLI output, findings and docs)."""

    INERT_BACKGROUND_TICK = "inert_background_tick"

    def __str__(self) -> str:  # readable in f-strings and reports
        return self.value


@dataclass
class CapabilityProof:
    """The prover's verdict for one board.

    Attributes:
        granted: capabilities the configuration provides.
        denials: capability -> reasons it was denied.
    """

    granted: frozenset = frozenset()
    denials: Dict[Capability, List[str]] = field(default_factory=dict)

    def grants(self, capability: Capability) -> bool:
        return capability in self.granted

    def reasons(self, capability: Capability) -> Tuple[str, ...]:
        return tuple(self.denials.get(capability, ()))


def prove_capabilities(board) -> CapabilityProof:
    """Statically evaluate which capabilities ``board`` grants.

    ``board`` is a programmed :class:`~repro.memories.board.MemoriesBoard`
    (build one from a machine with
    :func:`~repro.memories.board.board_for_machine`); nothing is
    replayed or mutated.
    """
    denials: Dict[Capability, List[str]] = {}
    # INERT_BACKGROUND_TICK — the tick hook must be absent, or present
    # and provably idle.
    if board._firmware_tick is not None:
        tick_active = getattr(board.firmware, "tick_active", None)
        if tick_active is None:
            denials[Capability.INERT_BACKGROUND_TICK] = [
                "firmware has a tick hook but no tick_active() hint, so "
                "the tick cannot be proven idle"
            ]
        elif tick_active():
            denials[Capability.INERT_BACKGROUND_TICK] = [
                "time-driven firmware machinery is active (an in-service "
                "node runs an ECC patrol scrubber); ticks must interleave "
                "between tenures"
            ]
    return CapabilityProof(
        granted=frozenset(
            capability for capability in Capability
            if capability not in denials
        ),
        denials=denials,
    )


@dataclass(frozen=True)
class EngineSpec:
    """One replay engine.

    Attributes:
        name: registry key (``scalar`` or ``batched``).
        requires: capabilities the engine's bit-identity proof needs.
        replay: ``replay(board, words) -> int``.
    """

    name: str
    requires: frozenset
    replay: Callable


def _replay_scalar(board, words) -> int:
    return board._replay_words_scalar(words)


def _replay_batched(board, words) -> int:
    from repro.memories import batch

    return batch.replay_words_batched(board, words)


#: name -> spec.  The scalar reference engine requires nothing, so
#: selection always has a fallback.
ENGINES: Dict[str, EngineSpec] = {
    "scalar": EngineSpec(
        name="scalar",
        requires=frozenset(),
        replay=_replay_scalar,
    ),
    "batched": EngineSpec(
        name="batched",
        requires=frozenset({Capability.INERT_BACKGROUND_TICK}),
        replay=_replay_batched,
    ),
}


@dataclass
class EngineDecision:
    """The audited verdict for one engine against one configuration."""

    spec: EngineSpec
    proof: CapabilityProof
    report: Report

    @property
    def missing(self) -> frozenset:
        return frozenset(self.spec.requires - self.proof.granted)

    @property
    def eligible(self) -> bool:
        return self.report.ok

    def reason(self) -> str:
        """The first error message (for exception surfaces)."""
        errors = self.report.errors
        return errors[0].message if errors else ""


def _decision(spec: EngineSpec, proof: CapabilityProof) -> EngineDecision:
    report = Report(subject=f"engine '{spec.name}'")
    report.ran("missing-capability")
    for capability in sorted(spec.requires, key=lambda c: c.value):
        if proof.grants(capability):
            report.info(
                "missing-capability",
                f"capability {capability} granted",
                rule="EN301",
            )
            continue
        reasons = proof.reasons(capability) or (
            "configuration does not grant it",
        )
        for reason in reasons:
            report.error(
                "missing-capability",
                reason,
                location=f"capability {capability}",
                rule="EN301",
            )
    return EngineDecision(spec=spec, proof=proof, report=report)


def _subject(board, machine, caller: str):
    if board is not None:
        return board
    if machine is None:
        raise ConfigurationError(
            f"{caller}() needs a board or a machine to prove against"
        )
    from repro.memories.board import board_for_machine

    return board_for_machine(machine)


def decide(engine: str, board=None, machine=None) -> EngineDecision:
    """Prove one engine eligible (or not) for a configuration.

    Pass a programmed ``board``, or a ``machine`` from which one is
    built.
    """
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; registered: "
            f"{', '.join(sorted(ENGINES))}"
        )
    proof = prove_capabilities(_subject(board, machine, "decide"))
    return _decision(ENGINES[engine], proof)


def decide_all(board=None, machine=None) -> List[EngineDecision]:
    """Decisions for every engine, scalar first."""
    proof = prove_capabilities(_subject(board, machine, "decide_all"))
    return [_decision(spec, proof) for spec in ENGINES.values()]


def select_board_engine(board) -> EngineSpec:
    """The engine ``board`` replays on: batched when the board grants
    what it requires, otherwise the scalar reference engine."""
    batched = ENGINES["batched"]
    if batched.requires <= prove_capabilities(board).granted:
        return batched
    return ENGINES["scalar"]
