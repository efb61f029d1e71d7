"""Tests for repro.util.rng: determinism, independence, replayability."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.rng import (
    RngStreams,
    as_generator,
    replica_streams,
    spawn_generators,
)


class TestAsGenerator:
    def test_int_seed_is_deterministic(self):
        a = as_generator(42).random(8)
        b = as_generator(42).random(8)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = as_generator(1).random(8)
        b = as_generator(2).random(8)
        assert not np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_seed_sequence_accepted(self):
        ss = np.random.SeedSequence(7)
        a = as_generator(ss).random(4)
        b = as_generator(np.random.SeedSequence(7)).random(4)
        assert np.array_equal(a, b)

    def test_none_gives_fresh_entropy(self):
        a = as_generator(None).random(8)
        b = as_generator(None).random(8)
        assert not np.array_equal(a, b)

    def test_tuple_seed_deterministic(self):
        a = as_generator((1, 2, 3)).random(4)
        b = as_generator((1, 2, 3)).random(4)
        assert np.array_equal(a, b)


class TestSpawnGenerators:
    def test_count(self):
        gens = spawn_generators(0, 5)
        assert len(gens) == 5

    def test_children_are_independent_streams(self):
        gens = spawn_generators(0, 3)
        outs = [g.random(16) for g in gens]
        assert not np.array_equal(outs[0], outs[1])
        assert not np.array_equal(outs[1], outs[2])

    def test_deterministic_across_calls(self):
        a = [g.random(4) for g in spawn_generators(9, 3)]
        b = [g.random(4) for g in spawn_generators(9, 3)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_spawn_from_generator_does_not_consume_parent(self):
        parent = as_generator(5)
        before = as_generator(5).random(4)
        spawn_generators(parent, 4)
        after = parent.random(4)
        assert np.array_equal(before, after)

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="negative"):
            spawn_generators(0, -1)

    def test_zero_ok(self):
        assert spawn_generators(0, 0) == []


_ENTROPY = st.one_of(
    st.integers(0, 2**256),
    st.lists(st.integers(0, 2**96), min_size=1, max_size=6),
    st.none(),
)


class TestReplicaStreams:
    """``replica_streams`` must replay ``SeedSequence.spawn`` exactly."""

    @settings(max_examples=60, deadline=None)
    @given(
        entropy=_ENTROPY,
        spawn_key=st.lists(st.integers(0, 2**40), max_size=3),
        start=st.one_of(st.just(0), st.integers(1, 2**20)),
        pool_size=st.sampled_from([4, 8]),
        n=st.sampled_from([0, 1, 2, 1000]),
    )
    def test_states_match_spawn_child_by_child(
        self, entropy, spawn_key, start, pool_size, n
    ):
        parent = np.random.SeedSequence(
            entropy, spawn_key=spawn_key, pool_size=pool_size,
            n_children_spawned=start,
        )
        # The helper leaves the counter alone, so spawn sees the same
        # children afterwards.
        got = [g.bit_generator.state for g in replica_streams(parent, n)]
        assert parent.n_children_spawned == start
        want = [
            np.random.PCG64(child).state for child in parent.spawn(n)
        ]
        assert got == want

    def test_nested_spawn_and_generator_parent(self):
        root = np.random.SeedSequence(2024)
        nested = root.spawn(3)[2].spawn(5)[4]
        for seed in (nested, as_generator(nested), 17, [1, 2, 3]):
            got = [g.random(3).tolist() for g in replica_streams(seed, 6)]
            want = [g.random(3).tolist() for g in spawn_generators(seed, 6)]
            assert got == want

    def test_one_generator_reseeded_per_child(self):
        gens = [id(g) for g in replica_streams(5, 4)]
        assert len(set(gens)) == 1

    def test_negative_raises(self):
        with pytest.raises(ValueError, match="negative"):
            replica_streams(0, -1)


class TestRngStreams:
    def test_stream_replayability(self):
        s1 = RngStreams(7)
        s2 = RngStreams(7)
        assert s1.generator(3).random() == s2.generator(3).random()

    def test_streams_independent_of_access_order(self):
        s1 = RngStreams(7)
        _ = s1.generator(0).random()
        val_late = s1.generator(5).random()
        s2 = RngStreams(7)
        val_direct = s2.generator(5).random()
        assert val_late == val_direct

    def test_distinct_streams_differ(self):
        s = RngStreams(7)
        assert s.generator(0).random() != s.generator(1).random()

    def test_generators_iterator(self):
        s = RngStreams(3)
        gens = list(s.generators(4))
        assert len(gens) == 4
        direct = RngStreams(3).generator(2).random()
        assert gens[2].random() == direct

    def test_negative_index_raises(self):
        with pytest.raises(ValueError, match=">= 0"):
            RngStreams(0).generator(-1)

    def test_root_entropy_exposed(self):
        assert RngStreams(55).root_entropy == 55
