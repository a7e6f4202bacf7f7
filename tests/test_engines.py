"""Tests for the engine registry and the static capability prover.

Engine selection is the registry's job alone: the prover inspects a
programmed board (never runs it), each engine declares the capabilities
its bit-identity proof requires, and every rejection is an auditable
report naming the missing capability and the concrete reason.
"""

import pytest

from repro.common.errors import ConfigurationError
from repro.engines import (
    ENGINES,
    Capability,
    decide,
    decide_all,
    prove_capabilities,
    select_board_engine,
)
from repro.memories.board import board_for_machine
from repro.memories.sdram import SdramModel

from tests.test_batched_replay import machine_for


def default_board(**kwargs):
    return board_for_machine(machine_for("split"), **kwargs)


# ---------------------------------------------------------------------- #
# Capability prover
# ---------------------------------------------------------------------- #

class TestCapabilityProver:
    def test_default_board_grants_everything(self):
        proof = prove_capabilities(default_board())
        assert proof.granted == frozenset(Capability)
        assert not proof.denials

    def test_ecc_scrubber_denies_inert_tick(self):
        proof = prove_capabilities(default_board(ecc=True))
        assert not proof.grants(Capability.INERT_BACKGROUND_TICK)
        assert any(
            "scrubber" in reason
            for reason in proof.reasons(Capability.INERT_BACKGROUND_TICK)
        )

    def test_capability_names_are_stable_strings(self):
        assert str(Capability.INERT_BACKGROUND_TICK) == "inert_background_tick"
        assert {str(c) for c in Capability} == {"inert_background_tick"}


# ---------------------------------------------------------------------- #
# Registry and decisions
# ---------------------------------------------------------------------- #

class TestRegistry:
    def test_builtin_engines_are_scalar_then_batched(self):
        assert list(ENGINES) == ["scalar", "batched"]
        assert ENGINES["scalar"].requires == frozenset()
        assert ENGINES["batched"].requires == {
            Capability.INERT_BACKGROUND_TICK
        }

    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            decide("warp", board=default_board())

    def test_decide_needs_a_subject(self):
        with pytest.raises(ConfigurationError, match="board or a machine"):
            decide("scalar")

    def test_decide_accepts_machine_directly(self):
        decision = decide("batched", machine=machine_for("split"))
        assert decision.eligible


class TestDecisions:
    def test_scalar_is_always_eligible(self):
        board = board_for_machine(machine_for("split", "random"), ecc=True)
        assert decide("scalar", board=board).eligible

    def test_rejection_report_names_capability_and_reason(self):
        decision = decide("batched", board=default_board(ecc=True))
        assert not decision.eligible
        assert decision.missing == {Capability.INERT_BACKGROUND_TICK}
        (finding,) = decision.report.errors
        assert finding.rule == "EN301"
        assert finding.location == "capability inert_background_tick"
        assert "scrubber" in finding.message
        assert decision.reason() == finding.message

    def test_granted_capabilities_documented_as_info(self):
        decision = decide("batched", board=default_board())
        assert decision.eligible
        granted = [
            f.message for f in decision.report.findings
            if f.rule == "EN301" and "granted" in f.message
        ]
        assert granted == ["capability inert_background_tick granted"]

    def test_decide_all_covers_every_engine(self):
        decisions = decide_all(board=default_board())
        assert [d.spec.name for d in decisions] == list(ENGINES)
        assert all(d.eligible for d in decisions)

    def test_decision_reports_audit_the_capability_check(self):
        decision = decide("batched", board=default_board())
        assert decision.report.checks_run == ["missing-capability"]


# ---------------------------------------------------------------------- #
# Board-scope selection
# ---------------------------------------------------------------------- #

class TestSelectBoardEngine:
    def test_prefers_batched_when_eligible(self):
        assert select_board_engine(default_board()).name == "batched"

    def test_random_replacement_selects_batched(self):
        board = board_for_machine(machine_for("split", "random"))
        assert select_board_engine(board).name == "batched"

    def test_sdram_node_selects_batched(self):
        board = default_board()
        board.firmware.nodes[0].sdram = SdramModel()
        assert select_board_engine(board).name == "batched"

    def test_falls_back_to_scalar_on_denial(self):
        assert select_board_engine(default_board(ecc=True)).name == "scalar"

    def test_selected_engine_replays(self):
        from tests.test_batched_replay import full_mix_words

        board = default_board()
        spec = select_board_engine(board)
        words = full_mix_words(500, seed=11)
        assert spec.replay(board, words) == len(words)

