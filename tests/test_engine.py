"""Simulation engine: grids, noise substreams, Euler schemes, exact draws."""

import math
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from ckls import (
    CklsParams,
    DegenerateTransform,
    DomainError,
    InputError,
    NoiseMatrix,
    RegimeError,
    SingularSample,
    TimeGrid,
    derive_cir,
    engine,
    euler_auxiliary,
    euler_ckls,
    euler_under_q,
    exact_sqrt_level,
    explicit_rate,
    explicit_rate_on_grid,
    make_transform,
    mean_rate,
    sample_cir_exact,
    simulate_weighted,
)
from ckls.engine import (
    BLOCK_SIZE,
    NOISE_BLOCK,
    NOISE_RULE,
    NOISE_STREAM,
    Snapshots,
    auxiliary_drift,
    block_rows,
    ckls_diffusion,
    ckls_drift,
    euler_blocks,
    euler_values,
    map_noise_blocks,
)
from ckls.numerics import stable_phi
from noise_v1 import NoiseV1

HIGH = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.5, r0=1.0)
LOW = CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=0.75, r0=1.0)
# near the floor, with a coarse grid: Euler steps overshoot below zero
CLAMPING = CklsParams(a=0.5, b=5.0, sigma=0.5, gamma=0.5, r0=0.01)


class TestTimeGrid:
    def test_uniform_from_zero_to_end(self):
        g = TimeGrid(2.0, 8)
        assert g.times[0] == 0.0 and g.times[-1] == 2.0
        np.testing.assert_allclose(np.diff(g.times), g.dt)

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 4)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)
        for t_end in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                TimeGrid(t_end, 4)

    @pytest.mark.parametrize("t_end", [True, np.True_], ids=["bool", "numpy-bool"])
    def test_bool_t_end_rejected(self, t_end):
        """A bool is not a time: True is not coerced to 1.0."""
        with pytest.raises(ValueError, match="t_end"):
            TimeGrid(t_end, 4)


class TestNoiseMatrix:
    def test_seed_past_64_bits_rejected(self):
        g = TimeGrid(1.0, 4)
        NoiseMatrix(2**64 - 1, 2, g)
        with pytest.raises(ValueError, match="64-bit unsigned"):
            NoiseMatrix(2**64, 2, g)

    @pytest.mark.parametrize("lo,hi", [(-1, 2), (3, 2), (0, 6), (6, None)])
    def test_bad_row_range_rejected(self, lo, hi):
        nm = NoiseMatrix(1, 5, TimeGrid(1.0, 4))
        with pytest.raises(ValueError, match="bad row range"):
            nm.increments(lo, hi)

    def test_bit_identical_reruns(self):
        g = TimeGrid(1.0, 16)
        a = NoiseMatrix(42, 20, g).increments()
        b = NoiseMatrix(42, 20, g).increments()
        assert np.array_equal(a, b)

    def test_path_count_extension_is_stable(self):
        """Rows are substreams keyed by (seed, path index): growing the
        path count must not reshuffle earlier paths."""
        g = TimeGrid(1.0, 16)
        small = NoiseMatrix(7, 10, g).increments()
        big = NoiseMatrix(7, 50, g).increments()
        assert np.array_equal(small, big[:10])

    def test_variance_is_dt(self):
        g = TimeGrid(1.0, 64)
        dW = NoiseMatrix(3, 2000, g).increments()
        # SE of a variance estimate is ~ sqrt(2/n) relative, n = 128000
        assert dW.var() == pytest.approx(g.dt, rel=2e-2)

    def test_row_slicing(self):
        g = TimeGrid(1.0, 8)
        nm = NoiseMatrix(9, 12, g)
        assert np.array_equal(nm.increments(5, 6)[0], nm.increments()[5])
        assert np.array_equal(nm.increments(3, 7), nm.increments()[3:7])

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            NoiseMatrix(-1, 4, TimeGrid(1.0, 4))

    @pytest.mark.parametrize("call", [
        lambda nm: nm.increments(True, 3),
        lambda nm: nm.increments(0, True),
        lambda nm: nm.increments(np.True_, 3),
        lambda nm: nm.increments(True, True + 1)[0],
        lambda nm: nm.increments(np.False_, np.False_ + 1)[0],
    ], ids=["lo", "hi", "numpy-lo", "row", "numpy-row"])
    def test_rejects_bool_indices(self, call):
        """operator.index takes a bool as 0 or 1; a row index does not."""
        with pytest.raises(TypeError, match="row index"):
            call(NoiseMatrix(9, 12, TimeGrid(1.0, 8)))

    @given(
        st.sampled_from(["seed", "n_paths"]),
        st.one_of(
            st.booleans(),
            st.just(np.True_),
            st.floats(allow_nan=True).filter(lambda v: not float(v).is_integer()),
            st.integers(1, 2**40).map(float),
        ),
    )
    def test_rejects_coerced_counts(self, field, value):
        """A bool, a float (integral or not) or NaN is rejected, never
        truncated to an integer seed or path count."""
        kwargs = {"seed": 3, "n_paths": 4, field: value}
        with pytest.raises(ValueError):
            NoiseMatrix(grid=TimeGrid(1.0, 4), **kwargs)

    @pytest.mark.parametrize("cast", [int, np.int64, np.uint64, np.uint32])
    def test_accepts_numpy_integers(self, cast):
        g = TimeGrid(1.0, 4)
        nm = NoiseMatrix(cast(7), cast(3), g)
        assert np.array_equal(nm.increments(), NoiseMatrix(7, 3, g).increments())


def numpy_rows(seed, lo, hi, grid):
    """Oracle: row i is the normals of numpy's PCG64 generator seeded by
    SeedSequence([seed, i]), what default_rng([seed, i]) builds, times
    sqrt(dt)."""
    return np.array([
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, i])))
        .standard_normal(grid.n_steps) * math.sqrt(grid.dt)
        for i in range(lo, hi)
    ]).reshape(hi - lo, grid.n_steps)


class TestNoiseOracle:
    """The test-built rule v1 rows (NoiseV1), which the v1 goldens read,
    against numpy's own seeding, bit for bit, over the ranges, seeds and
    thread blocks that the library's blocking asks for."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    @pytest.mark.parametrize("lo,hi", [(0, 1), (0, 37), (5, 1029), (1023, 2050)])
    def test_rows_equal_default_rng(self, seed, lo, hi):
        grid = TimeGrid(0.5, 3)
        nm = NoiseV1(seed, 2100, grid)
        assert np.array_equal(nm.increments(lo, hi), numpy_rows(seed, lo, hi, grid))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(1, 9),
        st.integers(0, 300),
        st.integers(0, 300),
    )
    def test_drawn_seeds_and_ranges(self, seed, n_steps, a, b):
        grid = TimeGrid(1.0, n_steps)
        lo, hi = sorted((a, b))
        nm = NoiseV1(seed, 301, grid)
        assert np.array_equal(nm.increments(lo, hi), numpy_rows(seed, lo, hi, grid))

    def test_single_step_and_row_zero(self):
        grid = TimeGrid(2.0, 1)
        nm = NoiseV1(11, 5, grid)
        assert np.array_equal(nm.increments(0, 1)[0], numpy_rows(11, 0, 1, grid)[0])
        assert nm.increments(3, 3).shape == (0, 1)

    def test_rows_past_32_bit_index(self):
        """Path indices of two 32-bit words."""
        grid = TimeGrid(1.0, 4)
        nm = NoiseV1(2**40 + 9, 2**32 + 3, grid)
        lo, hi = 2**32 - 2, 2**32 + 3
        assert np.array_equal(nm.increments(lo, hi), numpy_rows(2**40 + 9, lo, hi, grid))

    def test_map_noise_blocks_two_workers(self, monkeypatch):
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: 333)
        grid = TimeGrid(1.0, 6)
        nm = NoiseV1(2**63 + 5, 1000, grid)
        blocks = map_noise_blocks(nm, lambda lo, hi, dW: dW, workers=2)
        assert np.array_equal(np.concatenate(blocks), numpy_rows(2**63 + 5, 0, 1000, grid))


def test_auxiliary_drift_rejections():
    with pytest.raises(DegenerateTransform, match="gamma != 1"):
        auxiliary_drift(CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=1.0, r0=1.0))
    with pytest.raises(ValueError, match="unknown auxiliary variant 'printed'"):
        auxiliary_drift(HIGH, "printed")


@pytest.mark.parametrize("bad", [0, -2, 1.5, True, np.float64(2.0)])
@pytest.mark.parametrize("run,name", [
    ("simulate_weighted", "workers"), ("simulate_weighted", "block_size"),
    ("euler_values", "workers"), ("euler_values-rows", "workers"),
    ("euler_blocks-rows", "block_size"),
])
def test_block_counts_are_integers_from_one(run, name, bad):
    """workers is rejected unless an integer >= 1, before any path is
    run, by the Euler kernel whatever its noise: a NoiseMatrix or
    increment rows.  The block size is engine.BLOCK_SIZE, not an
    argument, so a block_size keyword is refused whatever its value."""
    grid = TimeGrid(0.5, 4)
    noise = np.zeros((2, 4)) if run.endswith("-rows") else NoiseMatrix(1, 100, grid)
    error = TypeError if name == "block_size" else ValueError
    with pytest.raises(error, match=name):
        if run.startswith("euler_"):
            kernel = euler_values if run.startswith("euler_values") else euler_blocks
            kernel(ckls_drift(HIGH), ckls_diffusion(HIGH), HIGH.r0, grid, noise, **{name: bad})
        else:
            simulate_weighted(HIGH, grid, noise, **{name: bad})


class NanAtStart(NoiseMatrix):
    """Rule v2 rows, but path 0 takes a NaN increment at step 0."""

    def increments(self, lo=0, hi=None):
        out = super().increments(lo, hi)
        if lo == 0 and len(out):
            out[0, 0] = np.nan
        return out


class TestDrawAhead:
    """With workers >= 2 the kernel runs on the calling thread and a pool
    of the other workers draws the next block's rows; the results do not
    depend on it."""

    @pytest.mark.parametrize("noise_cls", [NoiseMatrix, NoiseV1], ids=["v2", "v1"])
    @pytest.mark.parametrize(
        "block_size,n_paths", [(333, 2500), (BLOCK_SIZE, 2 * BLOCK_SIZE + 700)],
        ids=["333", "default"],
    )
    def test_every_worker_count_is_bit_identical(
        self, noise_cls, block_size, n_paths, monkeypatch
    ):
        """333-row blocks cut stream blocks; NoiseV1 overrides increments
        alone, so its rows reach the kernel only if the pool draws through
        it."""
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: block_size)
        grid = TimeGrid(0.5, 8)

        def run(workers):
            noise = noise_cls(2024, n_paths, grid)
            s = simulate_weighted(HIGH, grid, noise, workers=workers)
            values = euler_blocks(
                ckls_drift(CLAMPING), ckls_diffusion(CLAMPING), CLAMPING.r0, grid, noise,
                [lambda n: Snapshots(range(grid.n_steps + 1), grid.n_steps, n)],
                workers=workers,
            )
            return [s.terminal_rate, s.log_weight, s.q_integral_sq, s.truncations,
                    values["snapshots"], values["trunc"]]

        serial = run(1)
        assert serial[-1].sum() > 0
        for workers in (2, 3, 4):
            for got, want in zip(run(workers), serial, strict=True):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("noise_cls", [NoiseMatrix, NoiseV1], ids=["v2", "v1"])
    def test_euler_values_is_bit_identical(self, noise_cls, monkeypatch):
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: BLOCK_SIZE)
        grid = TimeGrid(0.5, 8)
        noise = noise_cls(7, 2 * BLOCK_SIZE + 700, grid)
        args = (ckls_drift(CLAMPING), ckls_diffusion(CLAMPING), CLAMPING.r0, grid, noise)
        values, exits = euler_values(*args)
        assert exits.sum() > 0
        for workers in (2, 3, 4):
            got_values, got_exits = euler_values(*args, workers=workers)
            np.testing.assert_array_equal(got_values, values)
            np.testing.assert_array_equal(got_exits, exits)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_error_in_first_block_joins_the_pool(self):
        """A NaN rate in block 0 raises DomainError on the calling thread
        while the pool draws block 1; the pool's threads are gone after."""
        grid = TimeGrid(0.5, 64)
        before = threading.active_count()
        with pytest.raises(DomainError, match="before step 1$"):
            simulate_weighted(HIGH, grid, NanAtStart(3, 3 * BLOCK_SIZE, grid), workers=2)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_at_most_two_blocks_resident(self, workers):
        """Peak traced memory of a weighted run over eight thread blocks
        stays under two blocks of noise, a stream block's piece per
        thread, a dozen per-path arrays of a block (the kernel's and the
        weight's buffers, the drift's temporaries) and the run's four
        outputs, kept per block and joined.  With one worker a block is
        allocated only after the last one is released: one block of
        noise.  On 16 and 1 steps the blocks are block_rows' widened
        ones, and on 1 step the per-path arrays outweigh the noise."""
        for n_steps in (128, 16, 1):
            rows = block_rows(n_steps)
            grid = TimeGrid(0.5, n_steps)
            noise = NoiseMatrix(5, 8 * rows, grid)
            tracemalloc.start()
            try:
                simulate_weighted(HIGH, grid, noise, workers=workers)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            blocks = 1 if workers == 1 else 2
            noise_values = (blocks * rows + workers * NOISE_BLOCK) * n_steps
            assert peak < (noise_values + 12 * rows + 8 * noise.n_paths) * 8, n_steps
            if n_steps == 128:  # the bound in blocks of noise, kept as well
                assert peak < (2.0 if workers == 1 else 3.25) * BLOCK_SIZE * n_steps * 8


class TestBlockRows:
    """The thread-block rule: BLOCK_SIZE rows from 64 steps on, and below
    up to 4 BLOCK_SIZE whole stream blocks while a block's noise stays
    within 2^18 normals; map_noise_blocks cuts its blocks by it."""

    STEPS = [*range(1, 130), 255, 256, 512, 4096, 10**6]

    def test_whole_stream_blocks_within_2_18_normals(self):
        for n_steps in self.STEPS:
            rows = block_rows(n_steps)
            assert rows % NOISE_BLOCK == 0 and BLOCK_SIZE <= rows <= 4 * BLOCK_SIZE
            if n_steps < 64:
                assert rows * n_steps <= 2**18

    def test_widths(self):
        assert block_rows(16) == 16_384 and block_rows(32) == 8192
        assert block_rows(1) == 4 * BLOCK_SIZE
        assert all(block_rows(n) == BLOCK_SIZE for n in self.STEPS if n >= 64)

    @pytest.mark.parametrize("n_steps,rows", [(16, 16_384), (1, 16_384), (32, 8192), (64, 4096)])
    def test_map_noise_blocks_cuts_by_the_rule(self, n_steps, rows):
        grid = TimeGrid(0.5, n_steps)
        noise = NoiseMatrix(3, 2 * rows + 5, grid)
        spans = map_noise_blocks(noise, lambda lo, hi, dW: (lo, hi, dW.shape))
        assert spans == [
            (0, rows, (rows, n_steps)),
            (rows, 2 * rows, (rows, n_steps)),
            (2 * rows, 2 * rows + 5, (5, n_steps)),
        ]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_widened_blocks_give_the_same_bits(self, workers, monkeypatch):
        """16-step runs over two 16384-row blocks equal runs over
        BLOCK_SIZE-row blocks, for every worker count."""
        grid = TimeGrid(0.5, 16)
        noise = NoiseMatrix(2024, 2 * block_rows(16) + 700, grid)
        s = simulate_weighted(HIGH, grid, noise, workers=workers)
        values, exits = euler_values(
            ckls_drift(CLAMPING), ckls_diffusion(CLAMPING), CLAMPING.r0, grid, noise,
            workers=workers,
        )
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: BLOCK_SIZE)
        want = simulate_weighted(HIGH, grid, noise)
        for key in ("terminal_rate", "log_weight", "q_integral_sq", "truncations"):
            np.testing.assert_array_equal(getattr(s, key), getattr(want, key))
        want_values, want_exits = euler_values(
            ckls_drift(CLAMPING), ckls_diffusion(CLAMPING), CLAMPING.r0, grid, noise
        )
        assert want_exits.sum() > 0
        np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(exits, want_exits)


class TestDriftContract:
    """The step never writes into what the drift returns, even where that
    is the rates themselves or a view of them: every drift gives what a
    step-by-step loop of the same operations gives."""

    @pytest.mark.parametrize("drift", [
        lambda x: x, lambda x: x[:], lambda x: -1.0, lambda x: 0.0 * x, ckls_drift(HIGH),
    ], ids=["identity", "view", "scalar", "zero-times", "ckls"])
    @pytest.mark.parametrize("diffusion", [lambda x: 0.3, ckls_diffusion(HIGH)], ids=["additive", "ckls"])
    def test_against_a_python_loop(self, drift, diffusion):
        grid = TimeGrid(0.5, 7)
        dW = NoiseMatrix(9, 40, grid).increments()
        values, _ = euler_values(drift, diffusion, 1.0, grid, dW, boundary="none")
        r = np.full(len(dW), 1.0)
        want = [r.copy()]
        for k in range(grid.n_steps):
            r = r + drift(r) * grid.dt + diffusion(r) * dW[:, k]
            want.append(r.copy())
        np.testing.assert_array_equal(values, np.column_stack(want))


class TestColumnBlocks:
    """map_noise_blocks hands fn each block in column order: a new
    Fortran-ordered array with the values of the rows noise.increments
    returns, for every worker count and for blocks that cut stream
    blocks or hold a single row."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize(
        "block_size,n_paths", [(333, 1000), (BLOCK_SIZE, BLOCK_SIZE + 1)], ids=["333", "default"]
    )
    @pytest.mark.parametrize("noise_cls", [NoiseMatrix, NoiseV1], ids=["v2", "v1"])
    def test_blocks_are_rows_in_column_order(
        self, noise_cls, block_size, n_paths, workers, monkeypatch
    ):
        """333-row blocks cut stream blocks, and both sizes end in a
        one-row block, which is C- and F-contiguous at once."""
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: block_size)
        grid = TimeGrid(1.0, 6)
        noise = noise_cls(2**63 + 5, n_paths, grid)
        spans = []

        def keep(lo, hi, dW):
            spans.append((lo, hi))
            return dW

        blocks = map_noise_blocks(noise, keep, workers=workers)
        assert spans[-1][1] - spans[-1][0] == 1
        want = noise.increments() if noise_cls is NoiseV1 else v2_rows(2**63 + 5, 0, n_paths, grid)
        for (lo, hi), dW in zip(spans, blocks, strict=True):
            assert dW.flags.f_contiguous and dW.shape == (hi - lo, grid.n_steps)
            np.testing.assert_array_equal(dW, want[lo:hi])
        assert not any(np.shares_memory(a, b) for a, b in zip(blocks, blocks[1:]))


def v2_rows(seed, lo, hi, grid):
    """Oracle: whole NOISE_BLOCK-row draws of the block generators, sliced
    to rows lo..hi and scaled by sqrt(dt)."""
    first, last = lo // NOISE_BLOCK, -(-hi // NOISE_BLOCK)
    blocks = [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(k,))))
        .standard_normal((NOISE_BLOCK, grid.n_steps))
        for k in range(first, max(last, first + 1))
    ]
    offset = first * NOISE_BLOCK
    return np.concatenate(blocks)[lo - offset : hi - offset] * math.sqrt(grid.dt)


class TestNoiseStreamV2:
    """The default rule: one generator per stream block of NOISE_BLOCK rows."""

    def test_is_default_and_echoed(self):
        nm = NoiseMatrix(3, 10, TimeGrid(1.0, 4))
        assert NOISE_STREAM == 2
        assert nm.rule == NOISE_RULE
        assert nm.rule.startswith("v2") and f"{NOISE_BLOCK}k" in nm.rule

    @pytest.mark.parametrize("stream", [0, 1, 3, True, 2.0, "2"])
    def test_rejects_unknown_stream(self, stream):
        """There is one rule: NoiseMatrix takes no stream argument at all."""
        with pytest.raises(TypeError):
            NoiseMatrix(3, 10, TimeGrid(1.0, 4), stream=stream)

    def test_growing_path_count_keeps_rows(self):
        g = TimeGrid(1.0, 4)
        small = NoiseMatrix(17, 50_000, g).increments()
        big = NoiseMatrix(17, 60_000, g).increments()
        assert np.array_equal(big[:50_000], small)

    @pytest.mark.parametrize(
        "lo,hi",
        [(0, 1), (0, 3000), (1023, 1025), (5, 2050), (1024, 2048), (1000, 3100), (2047, 2048)],
    )
    def test_ranges_across_block_edges(self, lo, hi):
        grid = TimeGrid(0.5, 3)
        nm = NoiseMatrix(2**63 + 1, 3100, grid)
        assert np.array_equal(nm.increments(lo, hi), v2_rows(2**63 + 1, lo, hi, grid))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**64 - 1),
        st.integers(1, 9),
        st.integers(0, 2500),
        st.integers(0, 2500),
    )
    def test_drawn_seeds_and_ranges(self, seed, n_steps, a, b):
        grid = TimeGrid(1.0, n_steps)
        lo, hi = sorted((a, b))
        nm = NoiseMatrix(seed, 2500, grid)
        assert np.array_equal(nm.increments(lo, hi), v2_rows(seed, lo, hi, grid))

    def test_rows_one_at_a_time(self):
        grid = TimeGrid(1.0, 5)
        nm = NoiseMatrix(8, 2100, grid)
        for i in (0, 1, 1023, 1024, 2099):
            assert np.array_equal(nm.increments(i, i + 1)[0], v2_rows(8, i, i + 1, grid)[0])
        assert nm.increments(7, 7).shape == (0, 5)

    @pytest.mark.parametrize("seed,lo", [(2**40 + 9, 2**32 - 2), (5, 2**64 - 3)])
    def test_rows_past_32_bit_index(self, seed, lo):
        grid = TimeGrid(1.0, 4)
        nm = NoiseMatrix(seed, lo + 1030, grid)
        assert np.array_equal(nm.increments(lo, lo + 1030), v2_rows(seed, lo, lo + 1030, grid))

    def test_numpy_integer_range(self):
        """Unsigned numpy counts and bounds take Python-int block arithmetic
        (unsigned negation wraps around)."""
        grid = TimeGrid(1.0, 4)
        nm = NoiseMatrix(np.uint64(7), np.uint64(2000), grid)
        got = nm.increments(np.uint64(1000), np.uint64(1030))
        assert np.array_equal(got, v2_rows(7, 1000, 1030, grid))
        with pytest.raises(TypeError):
            nm.increments(1.0, 3)

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32, 2**64 - 1])
    def test_keys_differ_from_v1(self, seed):
        grid = TimeGrid(1.0, 8)
        v1 = NoiseV1(seed, 1, grid).increments(0, 1)[0]
        v2 = NoiseMatrix(seed, 1, grid).increments(0, 1)[0]
        assert not np.array_equal(v1, v2)

    @pytest.mark.parametrize(
        "lo,hi,blocks", [(0, 1, 1), (0, 1024, 1), (1000, 3100, 4), (1024, 2048, 1), (5, 9000, 9)]
    )
    def test_one_seed_sequence_per_stream_block(self, monkeypatch, lo, hi, blocks):
        """A count, not a timing: seeding per row instead of per stream
        block fails here at once."""
        made = {"SeedSequence": 0, "PCG64": 0}

        def counting(name):
            real = getattr(np.random, name)

            def make(*args, **kwargs):
                made[name] += 1
                return real(*args, **kwargs)

            return make

        def no_default_rng(*args, **kwargs):
            raise AssertionError("v2 rows must not seed through default_rng")

        nm = NoiseMatrix(99, 9000, TimeGrid(1.0, 3))
        for name in made:
            monkeypatch.setattr(np.random, name, counting(name))
        monkeypatch.setattr(np.random, "default_rng", no_default_rng)
        assert nm.increments(lo, hi).shape == (hi - lo, 3)
        assert made == {"SeedSequence": blocks, "PCG64": blocks}


class TestStepColumns:
    """The kernel reads each step's noise column in step order whatever the
    layout of increment rows given as an array: every layout gives
    euler_values bit for bit as a C copy of its rows does, for step counts
    on and off the copy-tile edges, one row and no rows."""

    ARGS = (ckls_drift(CLAMPING), ckls_diffusion(CLAMPING), CLAMPING.r0)

    @pytest.mark.parametrize(
        "shape", [(5, 1), (3, 7), (10, 8), (4, 9), (1, 33), (0, 5), (200, 3), (130, 64)]
    )
    def test_columns_in_order(self, shape):
        grid = TimeGrid(0.5, shape[1])
        a = np.random.default_rng(sum(shape)).standard_normal(shape) * math.sqrt(grid.dt)
        wide = np.hstack([a, a])
        # additive noise from 0 under "none": the values are the running sums
        sums, _ = euler_values(lambda x: 0.0 * x, lambda x: 1.0, 0.0, grid, a, boundary="none")
        np.testing.assert_array_equal(sums[:, 1:], np.cumsum(a, axis=1))
        for dW in (a, np.asfortranarray(a), a[:, ::-1], wide[:, : shape[1]], wide[:, 1::2]):
            values, exits = euler_values(*self.ARGS, grid, dW)
            want_values, want_exits = euler_values(*self.ARGS, grid, np.ascontiguousarray(dW))
            assert values.shape == (shape[0], shape[1] + 1) and exits.shape == (shape[0],)
            np.testing.assert_array_equal(values, want_values)
            np.testing.assert_array_equal(exits, want_exits)

    def test_one_path_as_a_flat_row(self):
        grid = TimeGrid(0.5, 9)
        row = NoiseMatrix(4, 1, grid).increments()[0]
        values, exits = euler_values(*self.ARGS, grid, row)
        want_values, want_exits = euler_values(*self.ARGS, grid, row[None, :])
        assert values.shape == (1, 10)
        np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(exits, want_exits)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_rows_are_blocked_as_their_noise_matrix(self, workers, monkeypatch):
        """Rows given as an array go through map_noise_blocks, three
        BLOCK_SIZE blocks here, and give what their NoiseMatrix gives."""
        blocks = []

        def counting(*args, **kwargs):
            out = map_noise_blocks(*args, **kwargs)
            blocks.append(len(out))
            return out

        monkeypatch.setattr(engine, "map_noise_blocks", counting)
        monkeypatch.setattr(engine, "block_rows", lambda n_steps: BLOCK_SIZE)
        grid = TimeGrid(0.5, 8)
        noise = NoiseMatrix(7, 2 * BLOCK_SIZE + 700, grid)
        want_values, want_exits = euler_values(*self.ARGS, grid, noise, workers=workers)
        values, exits = euler_values(*self.ARGS, grid, noise.increments(), workers=workers)
        assert blocks == [3, 3] and exits.sum() > 0
        np.testing.assert_array_equal(values, want_values)
        np.testing.assert_array_equal(exits, want_exits)


class TestEulerCkls:
    def test_single_deterministic_step(self):
        """Zero noise, b = 0: one step gives exactly r0 + a dt."""
        p = CklsParams(a=1.0, b=0.0, sigma=0.5, gamma=1.5, r0=1.0)
        grid = TimeGrid(0.25, 1)
        values, _ = euler_ckls(p, grid, np.zeros((1, 1)))
        assert values[0, 1] == 1.0 + 1.0 * 0.25

    def test_zero_noise_tends_to_ode_solution(self):
        """Oracle: the mean ODE r' = a - b r has the explicit solution
        a/b + (r0 - a/b) e^(-b t); zero-noise Euler must converge to it."""
        t = 1.0
        exact = HIGH.a / HIGH.b + (HIGH.r0 - HIGH.a / HIGH.b) * math.exp(-HIGH.b * t)
        errors = []
        for n in (64, 256, 1024):
            grid = TimeGrid(t, n)
            values, _ = euler_ckls(HIGH, grid, np.zeros((1, n)))
            errors.append(abs(values[0, -1] - exact))
        assert errors[0] > errors[1] > errors[2]
        assert errors[-1] < 1e-3 * abs(exact)

    def test_terminal_mean_matches_closed_form(self):
        grid = TimeGrid(0.5, 256)
        noise = NoiseMatrix(21, 20_000, grid)
        values, _ = euler_ckls(HIGH, grid, noise)
        terminal = values[:, -1]
        se = terminal.std(ddof=1) / math.sqrt(terminal.size)
        assert abs(terminal.mean() - mean_rate(HIGH, 0.5)) <= 3.0 * se

    def test_truncation_counted_and_floored(self):
        # sigma large enough that additive-noise steps drive the state
        # negative; the scheme must clamp and count
        p = CklsParams(a=0.01, b=0.0, sigma=3.0, gamma=0.5, r0=0.05)
        grid = TimeGrid(1.0, 64)
        values, exits = euler_ckls(p, grid, NoiseMatrix(5, 200, grid))
        total = exits.sum()
        assert total > 0
        assert values.min() >= 1e-12
        assert (exits > 0).any()

    def test_overflow_counted_in_clamp_mode(self):
        """A path that overflows is never below the floor, so the clamp
        misses it; its non-finite terminal value counts one exit."""
        from ckls.engine import euler_values

        drift = lambda x: x * x - x * x  # noqa: E731  (0, or NaN once x * x overflows)
        dW = np.array([[0.0, 0.0, 0.0], [1e200, 1e200, 0.0], [1e100, 0.0, 0.0]])
        with np.errstate(over="ignore", invalid="ignore"):
            values, exits = euler_values(drift, lambda x: x * x, 1.0, TimeGrid(0.3, 3), dW)
        assert np.isnan(values[1, -1]) and values[2, -1] == 1e100
        assert exits.tolist() == [0, 1, 0]

    @pytest.mark.parametrize("kernel", [euler_blocks, euler_values])
    @pytest.mark.parametrize("boundary", ["run_off"])
    def test_unknown_boundary_rule_raises(self, kernel, boundary):
        with pytest.raises(ValueError, match="unknown boundary rule"):
            kernel(ckls_drift(HIGH), ckls_diffusion(HIGH), 1.0, TimeGrid(0.1, 1),
                   np.zeros((1, 1)), boundary=boundary)

    def test_no_floor_rule_lets_the_state_change_sign(self):
        """Under "none" a state below the floor, or below 0, runs on as it
        is and counts no exit."""
        dW = np.array([[0.0, 0.0, 0.0]])
        values, exits = euler_values(lambda x: -1.0, lambda x: 0.0, 1.0, TimeGrid(3.0, 3), dW,
                                     boundary="none")
        assert values.tolist() == [[1.0, 0.0, -1.0, -2.0]]
        assert exits.tolist() == [0]


@pytest.mark.parametrize(
    "indices", [[2.5, 2], [True], [np.float64(2.0)]], ids=["float", "bool", "numpy-float"]
)
def test_snapshot_indices_are_integers(indices):
    """A grid index that is not an integer (a float, or a bool) is
    rejected: a step of 2.5 never comes, so its row would be left
    unwritten."""
    with pytest.raises(ValueError, match="grid index must be an integer"):
        Snapshots(indices, 4, 3)


class TestNoiseFitsGrid:
    """Every entry point that takes a grid and a noise rejects noise drawn
    on another grid, or rows of another width or of more than two
    dimensions, before it runs: the Euler kernel checks it, once."""

    GRID = TimeGrid(1.0, 64)
    ENTRY_POINTS = {
        "euler_ckls": lambda g, noise: euler_ckls(HIGH, g, noise),
        "euler_auxiliary": lambda g, noise: euler_auxiliary(HIGH, g, noise),
        "euler_under_q": lambda g, noise: euler_under_q(HIGH, g, noise),
        "explicit_rate_on_grid": lambda g, noise: explicit_rate_on_grid(HIGH, g, noise),
        "simulate_weighted": lambda g, noise: simulate_weighted(HIGH, g, noise),
        "euler_blocks": lambda g, noise: euler_blocks(
            ckls_drift(HIGH), ckls_diffusion(HIGH), HIGH.r0, g, noise
        ),
        "euler_values": lambda g, noise: euler_values(
            ckls_drift(HIGH), ckls_diffusion(HIGH), HIGH.r0, g, noise
        ),
    }
    NOISES = {
        "more-steps": NoiseMatrix(3, 4, TimeGrid(1.0, 128)),
        "other-t-end": NoiseMatrix(3, 4, TimeGrid(2.0, 64)),
        "wrong-width": np.zeros((4, 65)),
        "three-dims": np.zeros((1, 4, 64)),
    }

    @pytest.mark.parametrize("noise", sorted(NOISES))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_mismatched_noise_raises(self, entry, noise):
        with pytest.raises(InputError, match="does not fit"):
            self.ENTRY_POINTS[entry](self.GRID, self.NOISES[noise])


class TestEulerAuxiliary:
    def test_high_gamma_drift_step(self):
        """a=1, b=1, sigma=1, gamma=1.5 at x=1: derived drift
        b x + gamma sigma^2/2 x^(2 gamma - 1) = 1 + 0.75 = 1.75."""
        p = CklsParams(a=1.0, b=1.0, sigma=1.0, gamma=1.5, r0=1.0)
        grid = TimeGrid(0.5, 1)
        values, _ = euler_auxiliary(p, grid, np.zeros((1, 1)))
        assert values[0, 1] == pytest.approx(1.0 + 1.75 * 0.5, rel=1e-15)

    def test_low_gamma_variant_drifts(self):
        grid = TimeGrid(0.5, 1)
        derived, _ = euler_auxiliary(LOW, grid, np.zeros((1, 1)), variant="derived")
        paper, _ = euler_auxiliary(LOW, grid, np.zeros((1, 1)), variant="paper")
        # derived: 0.2 + 0.75*0.25/2 = 0.29375 ; paper: 0.75*0.5/2 - 0.2 = -0.0125
        assert derived[0, 1] == pytest.approx(1.0 + 0.29375 * 0.5, rel=1e-14)
        assert paper[0, 1] == pytest.approx(1.0 - 0.0125 * 0.5, rel=1e-14)

    def test_variant_ignored_for_high_gamma(self):
        """For gamma > 1 the printed drift 2a - b x - gamma sigma^2/2
        x^(2 gamma - 1) and the derived b x + gamma sigma^2/2 x^(2 gamma - 1)
        differ; on shared noise each variant follows its own formula."""
        grid = TimeGrid(0.5, 8)
        noise = NoiseMatrix(2, 16, grid).increments()
        g, s, a, b = HIGH.gamma, HIGH.sigma, HIGH.a, HIGH.b
        drifts = {
            "paper": lambda x: 2 * a - b * x - g * s**2 / 2 * x ** (2 * g - 1),
            "derived": lambda x: b * x + g * s**2 / 2 * x ** (2 * g - 1),
        }
        terminal = {}
        for variant, drift in drifts.items():
            values, _ = euler_auxiliary(HIGH, grid, noise, variant=variant)
            x = np.full(16, HIGH.r0)
            for k in range(8):
                x = x + drift(x) * grid.dt + s * x**g * noise[:, k]
            terminal[variant] = values[:, -1]
            np.testing.assert_allclose(terminal[variant], x, rtol=1e-12)
        assert not np.allclose(terminal["paper"], terminal["derived"])

    @pytest.mark.parametrize("p", [HIGH, LOW], ids=["high", "low"])
    def test_positivity_diagnostic(self, p):
        """Floor-hit fraction below 1% at dt = 2^-10, t = 1, 1e4 paths,
        and non-increasing as dt shrinks; blowups (gamma > 1 paths that ran
        off to +inf) are counted apart from floor hits and stay below 1%."""
        fracs = []
        for n_steps in (512, 1024):
            grid = TimeGrid(1.0, n_steps)
            values, exits = euler_auxiliary(p, grid, NoiseMatrix(13, 10_000, grid))
            exited = np.count_nonzero(exits) / len(exits)
            floor_fraction, blowup_fraction = (0.0, exited) if p.gamma > 1.0 else (exited, 0.0)
            fracs.append(floor_fraction)
            assert blowup_fraction < 0.01
        assert fracs[-1] < 0.01
        assert fracs[1] <= fracs[0]
        assert values.min(axis=1).shape == (10_000,)


class TestExactSqrtLevel:
    def test_time_zero_is_initial_level(self):
        cir = derive_cir(HIGH, make_transform(HIGH, 1.0))
        for z in (-3.0, 0.0, 2.5):
            assert exact_sqrt_level(cir, HIGH, 0.0, z) == math.sqrt(cir.y0)

    def test_driftless_variance(self):
        """b = 0: Var = sigma^2 C^2 t / 4."""
        p = CklsParams(a=1.0, b=0.0, sigma=0.5, gamma=1.5, r0=1.0)
        cir = derive_cir(p, make_transform(p, 1.0))
        z = np.random.default_rng(17).standard_normal(1_000_000)
        u = exact_sqrt_level(cir, p, 2.0, z)
        assert u.var(ddof=1) == pytest.approx(0.5**2 * 1.0 * 2.0 / 4.0, rel=5e-3)

    def test_ou_variance_frozen_value(self):
        """Oracle: quadrature of the variance integral
        (sigma C / 2)^2 int_0^1 e^(2 b (1-gamma)(1-s)) ds = 0.05664664,
        cross-checked by the sample variance of 1e6 draws."""
        cir = derive_cir(HIGH, make_transform(HIGH, 1.0))
        quad_val, _ = integrate.quad(lambda s: math.exp(-0.2 * (1.0 - s)), 0.0, 1.0)
        oracle = 0.0625 * quad_val
        assert oracle == pytest.approx(0.05664664, abs=5e-9)
        z = np.random.default_rng(29).standard_normal(1_000_000)
        u = exact_sqrt_level(cir, HIGH, 1.0, z)
        assert u.var(ddof=1) == pytest.approx(oracle, rel=5e-3)
        analytic_std = exact_sqrt_level(cir, HIGH, 1.0, 1.0) - exact_sqrt_level(cir, HIGH, 1.0, 0.0)
        assert analytic_std**2 == pytest.approx(oracle, rel=1e-12)

    def test_past_the_float_range(self):
        """LOW at t = 10000: phi(2 rate, t) overflows, yet the draw is
        representable and matches a 40-digit reference; at t = 20000
        e^(rate t) overflows too, and the draw is +-inf with the sign of
        the time-scaled draw."""
        cir = derive_cir(LOW, make_transform(LOW))
        rate, kappa = 0.5 * cir.drift_lin, 0.5 * cir.vol
        z = [1.0, -3.0, -1e3]
        got = exact_sqrt_level(cir, LOW, 10_000.0, z)
        with mpmath.workdps(40):
            r, t = mpmath.mpf(rate), mpmath.mpf(10_000)
            std = kappa * mpmath.sqrt(mpmath.expm1(2 * r * t) / (2 * r))
            want = [float(mpmath.sqrt(cir.y0) * mpmath.exp(r * t) + std * v) for v in z]
        np.testing.assert_allclose(got, want, rtol=1e-12)
        np.testing.assert_array_equal(
            exact_sqrt_level(cir, LOW, 20_000.0, z), [np.inf, -np.inf, -np.inf]
        )
        assert exact_sqrt_level(cir, LOW, 20_000.0, 1.0) == math.inf

    def test_errors(self):
        cir = derive_cir(HIGH, make_transform(HIGH, 1.0))
        with pytest.raises(DomainError):
            exact_sqrt_level(cir, HIGH, -0.5, 0.0)
        bad = CklsParams(a=1.0, b=-0.1, sigma=0.5, gamma=0.75, r0=1.0)
        with pytest.raises(RegimeError):
            exact_sqrt_level(cir, bad, 1.0, 0.0)


class TestExplicitRate:
    def test_time_zero(self):
        for z in (-2.0, 0.0, 3.0):
            assert explicit_rate(HIGH, 0.0, z) == HIGH.r0

    def test_driftless_collapse(self):
        """b = 0, gamma = 3/2: r_t = |r0^(-1/2) + (sigma/2) sqrt(t) z|^(-2)."""
        p = CklsParams(a=1.0, b=0.0, sigma=0.5, gamma=1.5, r0=1.0)
        z = np.array([-1.2, 0.3, 2.0])
        t = 0.8
        expected = np.abs(1.0 + 0.25 * math.sqrt(t) * z) ** (-2.0)
        np.testing.assert_allclose(explicit_rate(p, t, z), expected, rtol=1e-14)

    @pytest.mark.parametrize("p", [HIGH, LOW], ids=["high", "low"])
    def test_equals_inverse_transform_of_level_for_any_c(self, p):
        """Squaring the Gaussian sqrt level and mapping through the inverse
        transform reproduces the explicit rate for the same draw, for any
        C -- the closed form is C-free."""
        z = np.linspace(-3.5, 3.5, 41)
        t = 0.7
        direct = explicit_rate(p, t, z)
        for c in (1.0, 7.0):
            tr = make_transform(p, c)
            cir = derive_cir(p, tr)
            level = exact_sqrt_level(cir, p, t, z) ** 2
            np.testing.assert_allclose(
                tr.inverse(level), direct, rtol=1e-10
            )

    def test_singular_sample_raised(self):
        # b = 0, sigma = 2, gamma = 3/2, t = 1: base = 1 + z, exactly zero
        # at z = -1 (the probability-zero singularity hit numerically)
        p = CklsParams(a=1.0, b=0.0, sigma=2.0, gamma=1.5, r0=1.0)
        with pytest.raises(SingularSample):
            explicit_rate(p, 1.0, np.array([0.3, -1.0, 0.7]))

    def test_invalid_regime_rejected(self):
        bad = CklsParams(a=1.0, b=-0.1, sigma=0.5, gamma=0.75, r0=1.0)
        with pytest.raises(RegimeError):
            explicit_rate(bad, 1.0, 0.0)

    @pytest.mark.parametrize("t", [-1.0, math.nan])
    def test_bad_horizon_rejected_past_the_float_range(self, t):
        """r0^(1-gamma) overflows here, and the horizon is still checked."""
        with pytest.raises(DomainError):
            explicit_rate(CklsParams(a=1.0, b=0.2, sigma=0.5, gamma=3.0, r0=1e-200), t, 0.0)


def mp_rate(p, t, z):
    """explicit_rate at 40 digits, from the float inputs."""
    with mpmath.workdps(40):
        g, b, s = (mpmath.mpf(v) for v in (p.gamma, p.b, p.sigma))
        c, t = b * (1 - g), mpmath.mpf(t)
        phi = t if c == 0 or t == 0 else mpmath.expm1(2 * c * t) / (2 * c)
        base = mpmath.mpf(p.r0) ** (1 - g) * mpmath.exp(c * t) + s * abs(g - 1) * mpmath.sqrt(phi) * z
        return abs(base) ** (1 / (1 - g))


def mp_rate_on_grid(p, grid, dW):
    """explicit_rate_on_grid at 40 digits: the exact OU skeleton of the
    base X on the float increments."""
    with mpmath.workdps(40):
        g, b, s = (mpmath.mpf(v) for v in (p.gamma, p.b, p.sigma))
        c, dt = b * (1 - g), mpmath.mpf(grid.t_end) / grid.n_steps
        vol = s * abs(g - 1) * mpmath.sqrt(mpmath.expm1(2 * c * dt) / (2 * c) / dt)
        out = []
        for row in dW:
            x = mpmath.mpf(p.r0) ** (1 - g)
            path = [x]
            for w in row:
                x = mpmath.exp(c * dt) * x + vol * mpmath.mpf(w)
                path.append(x)
            out.append([abs(v) ** (1 / (1 - g)) for v in path])
        return out


def assert_like_mp(got, want, gamma):
    """Where the 40-digit rate is a normal float, got matches it to 64
    ulps of the base, amplified by |1/(1-gamma)| or, in the log-space
    form, by the log of the base's scale (at most 745); past the float
    range, got is inf or below the normal range."""
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    rtol = 64 * np.finfo(float).eps * max(abs(1.0 / (1.0 - gamma)), 745.0)
    for g_, w in zip(np.ravel(got).tolist(), want, strict=True):
        if w > huge:
            assert g_ == math.inf
        elif w < tiny:
            assert 0.0 <= g_ < tiny
        else:
            assert abs(g_ - w) <= rtol * w, (g_, w)


# gamma near 1 from both sides, with r0 at the ends of the float range
# (rates near overflow and underflow through a base near 1), and gamma = 3
# with r0^(1-gamma) past the float range (tiny r0), below it (huge r0,
# read at t = 0), or r0^(1-gamma) e^(ct) past it (b < 0, a long horizon)
FAR_CASES = [
    (1 + 1e-3, 0.2, 1e-300, 0.5),
    (1 + 1e-3, 0.2, 1e300, 0.5),
    (1 - 1e-3, 0.2, 1e-300, 0.5),
    (1 - 1e-3, 0.2, 1e300, 0.5),
    (1 + 1e-6, 0.2, 1e-300, 50.0),
    (3.0, 0.2, 1e-300, 0.5),
    (3.0, 0.2, 1e-170, 50.0),
    (3.0, 0.2, 1e160, 0.0),
    (3.0, 0.2, 1e300, 0.0),
    (3.0, -0.2, 1e-100, 1000.0),
]


class TestExplicitRateRange:
    """|base|^(1/(1-gamma)) near overflow and underflow, against a 40-digit
    reference; in the normal range the float form is unchanged."""

    # and e^(ct) itself past the float range, which the grid's noise part
    # shares (there the grid keeps the float form)
    @pytest.mark.parametrize("gamma,b,r0,t", [*FAR_CASES, (3.0, -0.2, 1.0, 1800.0)])
    def test_against_mpmath(self, gamma, b, r0, t):
        p = CklsParams(a=1.0, b=b, sigma=0.5, gamma=gamma, r0=r0)
        z = np.array([-8.0, -1.0, 1e-3, 1.0, 8.0])
        with np.errstate(over="ignore"):
            got = explicit_rate(p, t, z)
        assert_like_mp(got, [mp_rate(p, t, v) for v in z], gamma)
        assert_like_mp(explicit_rate(p, t, 1.0), [mp_rate(p, t, 1.0)], gamma)

    @pytest.mark.parametrize("gamma,b,r0,t", FAR_CASES)
    def test_grid_against_mpmath(self, gamma, b, r0, t):
        p = CklsParams(a=1.0, b=b, sigma=0.5, gamma=gamma, r0=r0)
        grid = TimeGrid(max(t, 1e-300), 4)
        dW = np.random.default_rng(3).standard_normal((3, 4)) * math.sqrt(grid.dt)
        with np.errstate(over="ignore"):
            got = explicit_rate_on_grid(p, grid, dW)
        assert_like_mp(got, [v for row in mp_rate_on_grid(p, grid, dW) for v in row], gamma)

    def test_normal_range_is_unchanged(self):
        """The float form |r0^(1-gamma) e^(ct) + kappa sqrt(phi(2c, t)) Z|^(1/(1-gamma)),
        and on a grid the skeleton from r0^(1-gamma), bit for bit."""
        rng = np.random.default_rng(17)
        grid = TimeGrid(0.7, 8)
        dW = rng.standard_normal((50, 8)) * math.sqrt(grid.dt)
        for _ in range(200):
            g = float(rng.choice([rng.uniform(0.51, 0.999), rng.uniform(1.001, 4.0)]))
            p = CklsParams(a=1.0, b=float(rng.uniform(0.01, 2.0)), sigma=0.5, gamma=g,
                           r0=float(10.0 ** rng.uniform(-3, 3)))
            t, z = float(rng.uniform(0.0, 5.0)), rng.standard_normal(50)
            c = p.b * (1.0 - g)
            base = (p.r0 ** (1.0 - g) * math.exp(c * t)
                    + p.sigma * abs(g - 1.0) * math.sqrt(stable_phi(2.0 * c, t)) * z)
            np.testing.assert_array_equal(explicit_rate(p, t, z), np.abs(base) ** (1.0 / (1.0 - g)))
            growth = math.expm1(c * grid.dt) / grid.dt
            vol = p.sigma * abs(g - 1.0) * math.sqrt(stable_phi(2.0 * c, grid.dt) / grid.dt)
            x, _ = euler_values(lambda x: growth * x, lambda x: vol, p.r0 ** (1.0 - g),
                                grid, dW, boundary="none")
            np.testing.assert_array_equal(
                explicit_rate_on_grid(p, grid, dW), np.abs(x) ** (1.0 / (1.0 - g))
            )


class TestSampleCirExact:
    def test_two_sample_ks_against_squared_sqrt_level(self):
        """Self-consistency oracle: exact level draws via the noncentral
        sampler against squared Gaussian draws, 1e5 each."""
        cir = derive_cir(HIGH, make_transform(HIGH, 1.0))
        n = 100_000
        z = np.random.default_rng(31).standard_normal(n)
        a = exact_sqrt_level(cir, HIGH, 0.5, z) ** 2
        b = sample_cir_exact(cir, HIGH, 0.5, np.random.default_rng(37).standard_normal(n))
        res = stats.ks_2samp(a, b)
        # two-sample 1% critical: c(0.01) sqrt(2/n)
        assert res.statistic < 1.6276 * math.sqrt(2.0 / n)

    @pytest.mark.parametrize("p", [HIGH, LOW], ids=["high", "low"])
    def test_is_the_squared_sqrt_level(self, p):
        """On the same normals, exact_sqrt_level squared, up to rounding;
        a float for a float, an array otherwise."""
        cir = derive_cir(p, make_transform(p))
        z = [-4.0, -0.3, 0.0, 1.7]
        np.testing.assert_allclose(
            sample_cir_exact(cir, p, 0.8, z), exact_sqrt_level(cir, p, 0.8, z) ** 2, rtol=1e-12
        )
        assert isinstance(sample_cir_exact(cir, p, 0.8, 0.5), float)

    def test_mean_identity(self):
        from ckls import transition_spec

        cir = derive_cir(HIGH, make_transform(HIGH, 1.0))
        spec = transition_spec(HIGH, cir, 0.5)
        draws = sample_cir_exact(
            cir, HIGH, 0.5, np.random.default_rng(41).standard_normal(100_000)
        )
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - spec.mean()) <= 3.0 * se

    def test_vanishing_initial_level_is_central(self):
        """y0 -> 0 kills the noncentrality: draws match scale * chi2(1)."""
        from ckls import CirParams, transition_spec

        cir = CirParams(drift_lin=-0.2, vol=0.5, y0=1e-12)
        spec = transition_spec(HIGH, cir, 0.5)
        assert spec.nonc < 1e-9
        draws = sample_cir_exact(
            cir, HIGH, 0.5, np.random.default_rng(43).standard_normal(50_000)
        )
        ks = stats.kstest(draws / spec.scale, lambda x: stats.chi2.cdf(x, 1.0))
        assert ks.statistic < 1.6276 / math.sqrt(50_000)


class TestPathwiseConsistency:
    @pytest.mark.parametrize("p", [HIGH, LOW], ids=["high", "low"])
    def test_grid_solution_strong_error_shrinks(self, p):
        """Euler under the transformed dynamics against the pathwise
        closed-form reference: the shared-noise gap halves-ish with dt."""
        t = 1.0
        n_fine = 512
        grid_fine = TimeGrid(t, n_fine)
        dW = NoiseMatrix(47, 200, grid_fine).increments()
        ref = explicit_rate_on_grid(p, grid_fine, dW)
        gaps = []
        for stride in (8, 2):
            n = n_fine // stride
            dW_c = dW.reshape(200, n, stride).sum(axis=2)
            euler, _ = euler_under_q(p, TimeGrid(t, n), dW_c)
            gaps.append(np.abs(euler - ref[:, ::stride]).max(axis=1).mean())
        assert gaps[1] < gaps[0]

    @pytest.mark.parametrize("p", [HIGH, LOW], ids=["high", "low"])
    def test_one_step_grid_is_the_closed_form(self, p):
        """On a one-step grid the skeleton is explicit_rate on the same
        normals: each step has the exact law of the base X."""
        grid = TimeGrid(1.0, 1)
        dW = NoiseMatrix(61, 1000, grid).increments()
        on_grid = explicit_rate_on_grid(p, grid, dW)
        np.testing.assert_allclose(on_grid[:, 1], explicit_rate(p, 1.0, dW[:, 0]), rtol=1e-12)

    def test_grid_solution_matches_single_time_law(self):
        grid = TimeGrid(0.5, 256)
        dW = NoiseMatrix(53, 4000, grid).increments()
        terminal = explicit_rate_on_grid(HIGH, grid, dW)[:, -1]
        z = np.random.default_rng(59).standard_normal(4000)
        direct = explicit_rate(HIGH, 0.5, z)
        assert stats.ks_2samp(terminal, direct).pvalue > 0.01
