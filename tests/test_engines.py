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
    EngineSpec,
    ShardSpec,
    decide,
    decide_all,
    prove_capabilities,
    register_engine,
    select_board_engine,
)
from repro.experiments.pipeline import validate_sharding
from repro.memories.board import board_for_machine
from repro.memories.config import CacheNodeConfig
from repro.memories.sdram import SdramModel
from repro.target.configs import multi_config_machine, single_node_machine

from tests.test_batched_replay import machine_for


def default_board(**kwargs):
    return board_for_machine(machine_for("split"), **kwargs)


# ---------------------------------------------------------------------- #
# Capability prover
# ---------------------------------------------------------------------- #

class TestCapabilityProver:
    def test_default_board_grants_everything_with_spec(self):
        proof = prove_capabilities(default_board(), ShardSpec(2))
        assert proof.granted == frozenset(Capability)
        assert not proof.denials and not proof.structural

    def test_without_spec_sharding_is_unprovable_not_assumed(self):
        proof = prove_capabilities(default_board())
        assert not proof.grants(Capability.SHARD_DECOMPOSABLE_SETS)
        assert "shard spec" in proof.reasons(
            Capability.SHARD_DECOMPOSABLE_SETS
        )[0]

    def test_ecc_scrubber_denies_inert_tick(self):
        proof = prove_capabilities(default_board(ecc=True))
        assert not proof.grants(Capability.INERT_BACKGROUND_TICK)
        assert any(
            "scrubber" in reason
            for reason in proof.reasons(Capability.INERT_BACKGROUND_TICK)
        )

    def test_random_replacement_denies_per_set_independence(self):
        board = board_for_machine(machine_for("split", "random"))
        proof = prove_capabilities(board, ShardSpec(2))
        reasons = proof.reasons(Capability.PER_SET_INDEPENDENCE)
        assert any("random" in reason for reason in reasons)

    def test_sdram_denies_per_set_independence(self):
        board = default_board()
        board.firmware.nodes[0].sdram = SdramModel()
        proof = prove_capabilities(board, ShardSpec(2))
        reasons = proof.reasons(Capability.PER_SET_INDEPENDENCE)
        assert any("SDRAM" in reason for reason in reasons)

    def test_slow_buffer_denies_order_freedom(self):
        board = default_board(assumed_utilization=0.9)
        proof = prove_capabilities(board, ShardSpec(2))
        reasons = proof.reasons(Capability.NO_GLOBAL_ORDER_COUPLING)
        assert any("service" in reason for reason in reasons)

    def test_overflowing_shard_field_denied_per_node(self):
        tiny = CacheNodeConfig(size=1024, assoc=4, line_size=128)
        board = board_for_machine(single_node_machine(tiny, 4))
        proof = prove_capabilities(board, ShardSpec(16))
        reasons = proof.reasons(Capability.SHARD_DECOMPOSABLE_SETS)
        assert any("set-index" in reason for reason in reasons)

    def test_shard_shift_clears_widest_line_offset(self):
        coarse = CacheNodeConfig(size=128 * 1024, assoc=4, line_size=256)
        fine = CacheNodeConfig(size=64 * 1024, assoc=4, line_size=64)
        board = board_for_machine(multi_config_machine([coarse, fine], 4))
        proof = prove_capabilities(board, ShardSpec(2))
        assert proof.shard_shift == 8

    def test_non_power_of_two_is_structural_not_capability(self):
        proof = prove_capabilities(default_board(), ShardSpec(3))
        assert any("power of two" in msg for msg in proof.structural)

    def test_capability_names_are_stable_strings(self):
        assert str(Capability.INERT_BACKGROUND_TICK) == "inert_background_tick"
        assert {str(c) for c in Capability} == {
            "inert_background_tick",
            "per_set_independence",
            "no_global_order_coupling",
            "shard_decomposable_sets",
        }


# ---------------------------------------------------------------------- #
# Shard spec structure
# ---------------------------------------------------------------------- #

class TestShardSpec:
    @pytest.mark.parametrize("shards,bits", [(1, 0), (2, 1), (4, 2), (8, 3)])
    def test_shard_bits(self, shards, bits):
        assert ShardSpec(shards).shard_bits == bits

    @pytest.mark.parametrize("shards", [0, -1, 3, 6, 12])
    def test_invalid_counts_are_structural_errors(self, shards):
        assert ShardSpec(shards).structural_errors()

    @pytest.mark.parametrize("shards", [1, 2, 4, 32])
    def test_powers_of_two_are_valid(self, shards):
        assert not ShardSpec(shards).structural_errors()


# ---------------------------------------------------------------------- #
# Registry and decisions
# ---------------------------------------------------------------------- #

class TestRegistry:
    def test_builtin_engines_registered_in_rank_order(self):
        assert list(ENGINES) == ["scalar", "batched", "sharded"]
        assert ENGINES["scalar"].rank < ENGINES["batched"].rank
        assert ENGINES["batched"].rank < ENGINES["sharded"].rank
        assert ENGINES["scalar"].requires == frozenset()

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine(
                EngineSpec(
                    name="scalar",
                    description="imposter",
                    requires=frozenset(),
                    rank=0,
                )
            )

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
        decision = decide("sharded", board=default_board(), shards=2)
        assert decision.eligible
        granted = [
            f.message for f in decision.report.findings
            if f.rule == "EN301" and "granted" in f.message
        ]
        assert len(granted) == len(ENGINES["sharded"].requires)

    def test_structural_shard_error_rejects_with_en302(self):
        decision = decide("sharded", board=default_board(), shards=3)
        assert not decision.eligible
        assert any(f.rule == "EN302" for f in decision.report.errors)
        assert "power of two" in decision.reason()

    def test_decide_all_covers_every_engine(self):
        decisions = decide_all(board=default_board(), shards=2)
        assert [d.spec.name for d in decisions] == list(ENGINES)
        assert all(d.eligible for d in decisions)

    def test_decision_reports_audit_both_checks(self):
        decision = decide("batched", board=default_board())
        assert set(decision.report.checks_run) == {
            "missing-capability", "shard-spec",
        }


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

    def test_trace_scope_engines_never_selected(self):
        assert select_board_engine(default_board()).scope == "board"


# ---------------------------------------------------------------------- #
# Pipeline delegation
# ---------------------------------------------------------------------- #

class TestValidateShardingDelegation:
    def test_returns_prover_shard_shift(self):
        machine = machine_for("single")
        decision = decide("sharded", machine=machine, shards=2)
        assert validate_sharding(machine, 2) == decision.shard_shift

    def test_raises_with_decision_reason(self):
        machine = machine_for("split", "random")
        decision = decide("sharded", machine=machine, shards=2)
        with pytest.raises(ConfigurationError) as excinfo:
            validate_sharding(machine, 2)
        assert str(excinfo.value) == decision.reason()
