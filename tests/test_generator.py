from __future__ import annotations

import hashlib
import tracemalloc
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from terrainguard import (
    BoundsExceeded,
    GenSpec,
    GuardSolution,
    InfeasibilityReport,
    SplitMix64,
    VertexClass,
    convex_indices,
    random_terrain,
    serialize,
    solve,
    validate,
)
from tests.conftest import descending_staircase, valley_comb
from tests.oracles import oracle_random_terrain

GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment
# seeds whose state passes exactly through 0 (mod 2^64) within the first 192
# draws, one 192-lane chunk of draws() (64 vertical edges of random_terrain),
# and their neighbours
WRAP_SEEDS = [(-j * GAMMA) % 2**64 + d for j in (1, 2, 3, 63, 64, 65, 191, 192) for d in (-1, 0, 1)]
SEEDS = [*range(-20, 20), *(2**64 + i for i in range(4)), 3 * 2**64 + 7, 2**100 - 1, *WRAP_SEEDS]
# around each multiple of 64 vertical edges, where draws() starts a new chunk
STEPS = (1, 2, 63, 64, 65, 127, 128, 129)
RUN_RISE = ((1, 1), (10, 10), (3, 7), (1000, 2), (2, 1000), (2**16, 2**16))


def pinned_specs() -> list[GenSpec]:
    return [
        GenSpec(seed=seed, steps=steps, max_run=run, max_rise=rise)
        for steps in STEPS
        for seed in SEEDS
        for run, rise in RUN_RISE
    ]


# sha256 of serialize() over pinned_specs(), recorded from the per-step
# generator loop (tests/oracles.py::oracle_random_terrain)
PINNED_DIGEST = "b1032492f944242b4460e864af27ab46ab356d626e1f9424f48b6e9949bc4314"


def traced_peak(f) -> int:
    """The tracemalloc peak, in bytes, while f() runs."""

    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def mirrored(t):
    """Left-right mirror of a terrain (negate x, reverse chain order)."""

    return validate(list(zip([-x for x in reversed(t.xs)], reversed(t.ys))))


class TestSplitMix64:
    def test_reference_sequence_from_seed_zero(self):
        # first outputs of splitmix64(0), fixed by the algorithm constants
        rng = SplitMix64(0)
        assert [rng.next() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_wraps_to_64_bits(self):
        assert SplitMix64(1 << 64).next() == SplitMix64(0).next()

    @pytest.mark.parametrize("seed", [True, False, 2.0, "3", None])
    def test_rejects_a_seed_that_is_not_an_int(self, seed):
        # as GenSpec: True would seed 1, and 2.0 or "3" fail deep inside
        with pytest.raises(ValueError, match="^seed must be an int"):
            SplitMix64(seed)

    def test_array_words_are_64_bits(self):
        assert array("Q").itemsize == 8

    @pytest.mark.parametrize("k", [0, 1, 191, 192, 193, 383, 384, 385, 5000])
    @pytest.mark.parametrize("seed", [0, -5, 2**64 + 3, WRAP_SEEDS[-2]])
    def test_draws_equal_k_calls_of_next(self, seed, k):
        batched, single = SplitMix64(seed), SplitMix64(seed)
        drawn = batched.draws(k)
        assert drawn.typecode == "Q"
        assert list(drawn) == [single.next() for _ in range(k)]
        # the state advanced by k as well
        assert batched._state == single._state
        assert batched.next() == single.next()

    def test_draws_in_turn_continue_the_sequence(self):
        batched, single = SplitMix64(99), SplitMix64(99)
        drawn = [v for k in (5, 0, 192, 1, 300) for v in batched.draws(k)]
        assert drawn == [single.next() for _ in range(498)]

    def test_draws_straddling_chunk_ends_continue_the_sequence(self):
        # 191 + 2 crosses the first 192-lane chunk's end, 385 spans three
        counts = (191, 2, 190, 385, 0, 1)
        batched, single = SplitMix64(-7), SplitMix64(-7)
        drawn = [v for k in counts for v in batched.draws(k)]
        assert drawn == [single.next() for _ in range(sum(counts))]
        assert batched._state == single._state

    @settings(max_examples=200, deadline=None)
    @given(st.integers(min_value=-(2**80), max_value=2**80), st.integers(min_value=0, max_value=700))
    @example(seed=-1, k=385)
    @example(seed=2**64, k=192)
    def test_draws_equal_next_for_any_seed(self, seed, k):
        batched, single = SplitMix64(seed), SplitMix64(seed)
        assert list(batched.draws(k)) == [single.next() for _ in range(k)]
        assert batched._state == single._state

    def test_generators_drawn_in_alternation_keep_their_own_sequences(self):
        # the lane constants are shared by every generator and never changed
        a, b = SplitMix64(5), SplitMix64(2**64 + 6)
        drawn_a, drawn_b = array("Q"), array("Q")
        for k in (7, 192, 400, 1):
            drawn_a += a.draws(k)
            drawn_b += b.draws(k + 3)
        ref_a, ref_b = SplitMix64(5), SplitMix64(6)
        assert list(drawn_a) == [ref_a.next() for _ in range(600)]
        assert list(drawn_b) == [ref_b.next() for _ in range(612)]

    def test_draws_needs_little_memory_beyond_its_output(self):
        # one chunk at a time: the peak is the 8-byte words returned, plus
        # the array's spare room and one chunk's ints
        assert traced_peak(lambda: SplitMix64(3).draws(10**6)) <= 1.5 * 8 * 10**6

    @pytest.mark.parametrize("k", [-1, 1.0, True, "2", None])
    def test_draws_rejects_a_bad_count(self, k):
        with pytest.raises(ValueError, match="^k must be a non-negative int"):
            SplitMix64(1).draws(k)


class TestRandomTerrain:
    def test_single_step_shape(self):
        t = random_terrain(GenSpec(seed=1, steps=1))
        assert t.n == 2
        assert t.xs == (0, 0)

    def test_always_valid(self):
        for seed in range(50):
            random_terrain(GenSpec(seed=seed, steps=1 + seed % 12))

    def test_same_spec_same_terrain(self):
        a = random_terrain(GenSpec(seed=42, steps=9, max_run=5, max_rise=7))
        b = random_terrain(GenSpec(seed=42, steps=9, max_run=5, max_rise=7))
        assert a == b

    def test_different_seeds_differ(self):
        a = random_terrain(GenSpec(seed=1, steps=10))
        b = random_terrain(GenSpec(seed=2, steps=10))
        assert a != b

    def test_frozen_vertices_for_seed_7(self):
        # pinned corpus sample: regenerating must never silently change
        t = random_terrain(GenSpec(seed=7, steps=3, max_run=4, max_rise=5))
        assert list(zip(t.xs, t.ys)) == [
            (0, 0), (0, 3), (3, 3), (3, 7), (5, 7), (5, 11),
        ]

    def test_step_bounds_respected(self):
        t = random_terrain(GenSpec(seed=11, steps=40, max_run=3, max_rise=2))
        for i in range(t.n - 1):
            dx = t.xs[i + 1] - t.xs[i]
            dy = t.ys[i + 1] - t.ys[i]
            assert 0 <= dx <= 3
            assert abs(dy) <= 2

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            GenSpec(seed=0, steps=0)
        with pytest.raises(ValueError):
            GenSpec(seed=0, steps=1, max_run=0)
        with pytest.raises(ValueError):
            GenSpec(seed=0, steps=1, max_rise=0)
        # exactly int, as for Terrain's coordinates
        for name, fields in [
            ("seed", {"seed": 1.5, "steps": 3}),
            ("seed", {"seed": "1", "steps": 3}),
            ("seed", {"seed": True, "steps": 3}),
            ("steps", {"seed": 1, "steps": 3.0}),
            ("steps", {"seed": 1, "steps": True}),
            ("max_run", {"seed": 1, "steps": 3, "max_run": 2.5}),
            ("max_rise", {"seed": 1, "steps": 3, "max_rise": False}),
        ]:
            with pytest.raises(ValueError, match=f"^{name} must be an int"):
                GenSpec(**fields)

    def test_bounds_guard(self):
        with pytest.raises(BoundsExceeded):
            GenSpec(seed=0, steps=2**28, max_rise=8)

    def test_matches_the_per_step_loop(self):
        specs = pinned_specs()
        assert len(specs) >= 3000
        for spec in specs:
            assert random_terrain(spec) == oracle_random_terrain(spec), spec

    def test_matches_the_per_step_loop_at_100k_steps(self, random_200k):
        assert random_200k == oracle_random_terrain(GenSpec(seed=424242, steps=100_000))

    def test_peak_memory_at_100k_steps(self):
        peak = traced_peak(lambda: random_terrain(GenSpec(seed=424242, steps=100_000)))
        assert peak <= 20_000 * 1024

    def test_pinned_digest(self):
        digest = hashlib.sha256()
        for spec in pinned_specs():
            digest.update(serialize(random_terrain(spec)).encode())
        assert digest.hexdigest() == PINNED_DIGEST


class TestDescendingStaircase:
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_shape(self, k):
        t = descending_staircase(k, run=3, drop=2)
        assert t.n == 2 * k
        assert t.ys[-1] == -2 * k
        for c in convex_indices(t):
            assert t.classes[c] is VertexClass.LEFT_CONVEX

    def test_single_step_matches_mirrored_step_up(self):
        t = descending_staircase(1, drop=10)
        assert list(zip(t.xs, t.ys)) == [(0, 0), (0, -10)]

    def test_ascending_mirror_is_also_fully_unguardable(self):
        t = mirrored(descending_staircase(4))
        result = solve(t)
        assert isinstance(result, InfeasibilityReport)
        assert len(result.unguardable) == 4
        for c in result.unguardable:
            assert t.classes[c] is VertexClass.RIGHT_CONVEX

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            descending_staircase(0)
        with pytest.raises(ValueError):
            descending_staircase(2, run=0)


class TestValleyComb:
    def test_single_valley_is_the_square_valley(self, square_valley):
        assert valley_comb(1, width=10, depth=10) == square_valley

    def test_vertex_count(self):
        for m in range(1, 6):
            assert valley_comb(m).n == 4 * m

    def test_always_feasible(self):
        for m in range(1, 7):
            for gap in (1, 5, 40):
                t = valley_comb(m, width=7, depth=4, gap=gap)
                assert isinstance(solve(t), GuardSolution)

    def test_single_valley_optimum_two(self):
        sol = solve(valley_comb(1))
        assert isinstance(sol, GuardSolution)
        assert sol.size == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            valley_comb(0)
        with pytest.raises(ValueError):
            valley_comb(1, gap=0)
