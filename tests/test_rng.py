"""Tests for repro.common.rng: deterministic named random streams."""

from repro.common.rng import RngStreams


class TestRngStreams:
    def test_same_name_same_object(self):
        streams = RngStreams(seed=1)
        assert streams.get("a") is streams.get("a")

    def test_reproducible_across_instances(self):
        a = RngStreams(seed=42).get("x").random(8)
        b = RngStreams(seed=42).get("x").random(8)
        assert (a == b).all()

    def test_different_names_independent(self):
        streams = RngStreams(seed=42)
        a = streams.get("x").random(8)
        b = streams.get("y").random(8)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).get("x").random(8)
        b = RngStreams(seed=2).get("x").random(8)
        assert not (a == b).all()

    def test_creation_order_does_not_matter(self):
        one = RngStreams(seed=7)
        one.get("first")
        value_one = one.get("second").random(4)
        two = RngStreams(seed=7)
        value_two = two.get("second").random(4)
        assert (value_one == value_two).all()

    def test_fork_is_deterministic(self):
        a = RngStreams(seed=3).fork("child").get("s").random(4)
        b = RngStreams(seed=3).fork("child").get("s").random(4)
        assert (a == b).all()

    def test_fork_differs_from_parent(self):
        parent = RngStreams(seed=3)
        child = parent.fork("child")
        assert child.seed != parent.seed

    def test_seed_property(self):
        assert RngStreams(seed=11).seed == 11

    def test_restore_rewinds_in_place(self):
        streams = RngStreams(seed=5)
        held = streams.get("x")
        held.random(3)
        snapshot = streams.snapshot()
        expected = held.random(6)
        held.random(10)
        streams.restore(snapshot)
        assert streams.get("x") is held
        assert (held.random(6) == expected).all()

    def test_restore_drops_later_streams(self):
        streams = RngStreams(seed=5)
        streams.get("x")
        snapshot = streams.snapshot()
        late = streams.get("late")
        late.random(4)
        streams.restore(snapshot)
        fresh = streams.get("late")
        assert fresh is not late
        assert (fresh.random(4) == RngStreams(seed=5).get("late").random(4)).all()
