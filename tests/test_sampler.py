"""Unadjusted Langevin chains: determinism, recording, divergence guard."""

from __future__ import annotations

import math
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from heavytail_lmc import sampler
from heavytail_lmc import (
    ChainBatch,
    ChainDivergenceError,
    Gaussian,
    GenCauchy,
    InputValidationError,
    RadialCustom,
    Sublinear,
    gaussian_init,
    grad_potential,
    iterations_to_threshold,
    lmc_step,
    run_chains,
    write_trace_csv,
)

GAUSS = Gaussian(d=2)


def test_gaussian_init_moment_and_shape():
    batch = gaussian_init(sigma2=4.0, d=3, n_chains=50_000, h=0.01, seed=0)
    assert batch.positions.shape == (50_000, 3)
    assert batch.h == 0.01
    assert batch.k == 0
    r2 = np.sum(batch.positions ** 2, axis=1)
    se = float(np.std(r2, ddof=1)) / math.sqrt(r2.size)
    assert abs(float(np.mean(r2)) - 12.0) <= 4 * se


def test_gaussian_init_validation():
    with pytest.raises(InputValidationError):
        gaussian_init(sigma2=-1.0, d=1, n_chains=10, h=0.01, seed=0)
    with pytest.raises(InputValidationError):
        gaussian_init(sigma2=1.0, d=1, n_chains=0, h=0.01, seed=0)
    with pytest.raises(InputValidationError):
        gaussian_init(sigma2=1.0, d=1, n_chains=10, h=0.0, seed=0)
    with pytest.raises(InputValidationError, match="seed must be >= 0"):
        gaussian_init(sigma2=1.0, d=1, n_chains=10, h=0.01, seed=-1)
    for kwargs, message in (({"seed": 2.5}, "seed must be an integer"),
                            ({"seed": True}, "seed must be an integer"),
                            ({"n_chains": 2.5}, "n_chains must be an integer"),
                            ({"d": 0}, "d must be >= 1, got 0"),
                            ({"h": True}, "h must be a number")):
        args = {**dict(sigma2=1.0, d=1, n_chains=10, h=0.01, seed=0), **kwargs}
        with pytest.raises(InputValidationError, match=message):
            gaussian_init(**args)


@pytest.mark.parametrize("field, value, message", [
    ("rng_root", -1, "rng_root must be >= 0, got -1"),
    ("rng_root", 2.5, "rng_root must be an integer, got 2.5"),
    ("rng_root", "3", "rng_root must be an integer, got '3'"),
    ("rng_root", True, "rng_root must be an integer, got True"),
    ("k", True, "k must be an integer, got True"),
    ("k", 1.5, "k must be an integer, got 1.5"),
    ("k", -1, "k must be >= 0, got -1"),
    ("h", True, "h must be a number, got True"),
    ("h", "0.1", "h must be a number, got '0.1'"),
])
def test_chain_batch_checks_its_numbers_up_front(field, value, message):
    """A root, counter or step size that is not a number of the right kind
    is refused when the batch is built, not by numpy in the first draw."""
    args = dict(positions=np.zeros((4, 1)), h=0.1, k=0, rng_root=0)
    args[field] = value
    with pytest.raises(InputValidationError) as exc_info:
        ChainBatch(**args)
    assert str(exc_info.value) == message


def test_chain_batch_keeps_integral_numbers_as_ints():
    batch = ChainBatch(np.zeros((4, 1)), h=np.float32(0.5), k=np.int64(3),
                       rng_root=7.0)
    assert (type(batch.h), type(batch.k), type(batch.rng_root)) == (float, int, int)
    assert (batch.h, batch.k, batch.rng_root) == (0.5, 3, 7)


def test_run_chains_deterministic():
    init = gaussian_init(sigma2=9.0, d=2, n_chains=256, h=0.05, seed=1)
    t1 = run_chains(GAUSS, init, n_iters=200, record_every=10)
    init2 = gaussian_init(sigma2=9.0, d=2, n_chains=256, h=0.05, seed=1)
    t2 = run_chains(GAUSS, init2, n_iters=200, record_every=10)
    np.testing.assert_array_equal(t1.m2, t2.m2)
    np.testing.assert_array_equal(t1.final_positions, t2.final_positions)


def test_chain_count_prefix_stability():
    """The first k chains of a larger batch reproduce the k-chain run exactly.

    This pins the counter-based noise layout: chain i consumes the same
    random stream regardless of how many chains run beside it.
    """
    small = gaussian_init(sigma2=4.0, d=1, n_chains=64, h=0.02, seed=9)
    big = gaussian_init(sigma2=4.0, d=1, n_chains=256, h=0.02, seed=9)
    np.testing.assert_array_equal(small.positions, big.positions[:64])
    ts = run_chains(GenCauchy(d=1, nu=2), small, n_iters=50)
    tb = run_chains(GenCauchy(d=1, nu=2), big, n_iters=50)
    np.testing.assert_array_equal(ts.final_positions, tb.final_positions[:64])


def test_lmc_step_update_rule():
    """x' = x - h grad V(x) + sqrt(2h) xi, with xi recoverable by inversion."""
    spec = GenCauchy(d=2, nu=3)
    init = gaussian_init(sigma2=1.0, d=2, n_chains=128, h=0.01, seed=4)
    stepped = lmc_step(init, spec)
    assert stepped.k == init.k + 1
    xi = (stepped.positions - init.positions + init.h * grad_potential(spec, init.positions)) / math.sqrt(2 * init.h)
    # the implied noise must be standard normal: mean ~ 0, var ~ 1
    assert abs(float(np.mean(xi))) < 4.0 / math.sqrt(xi.size)
    assert abs(float(np.var(xi)) - 1.0) < 0.15
    # determinism of the step itself
    again = lmc_step(gaussian_init(sigma2=1.0, d=2, n_chains=128, h=0.01, seed=4), spec)
    np.testing.assert_array_equal(stepped.positions, again.positions)


def test_run_chains_record_grid():
    init = gaussian_init(sigma2=1.0, d=1, n_chains=32, h=0.01, seed=0)
    trace = run_chains(GAUSS if GAUSS.d == 1 else Gaussian(d=1), init, n_iters=25, record_every=10)
    np.testing.assert_array_equal(trace.iters, [0, 10, 20, 25])
    assert trace.n_chains == 32
    assert trace.m2.shape == trace.se.shape == trace.iters.shape


def test_run_chains_increment_identity():
    """With record_every=1, dm2_next[k] == m2[k+1] - m2[k] exactly."""
    init = gaussian_init(sigma2=4.0, d=1, n_chains=512, h=0.05, seed=2)
    trace = run_chains(Gaussian(d=1), init, n_iters=30, record_every=1)
    np.testing.assert_allclose(trace.dm2_next[:-1], np.diff(trace.m2), rtol=0, atol=1e-12)
    assert np.isnan(trace.dm2_next[-1])
    assert np.isnan(trace.dm2_next_se[-1])
    assert np.all(np.isfinite(trace.dm2_next[:-1]))
    assert np.all(trace.dm2_next_se[:-1] >= 0)


def test_run_chains_ou_contraction():
    """For the Gaussian target the chain m2 follows the exact AR(1) recursion."""
    h, s2, n = 0.05, 25.0, 200_000
    init = gaussian_init(sigma2=s2, d=1, n_chains=n, h=h, seed=6)
    trace = run_chains(Gaussian(d=1), init, n_iters=40, record_every=40)
    a = (1 - h) ** 2
    expect = a ** 40 * s2 + 2 * h * (1 - a ** 40) / (1 - a)
    assert trace.m2[-1] == pytest.approx(expect, rel=0.02)


def test_stop_below_threshold():
    init = gaussian_init(sigma2=100.0, d=1, n_chains=512, h=0.1, seed=3)
    trace = run_chains(Gaussian(d=1), init, n_iters=500, record_every=5, stop_below=2.0)
    assert trace.stopped_early
    assert trace.iters[-1] < 500
    # the surrogate rule: stop at the first record with m2 + 2 se < threshold
    assert trace.m2[-1] + 2 * trace.se[-1] < 2.0
    assert all(m + 2 * s >= 2.0 for m, s in zip(trace.m2[:-1], trace.se[:-1]))
    k = iterations_to_threshold(trace, 2.0)
    assert k == trace.iters[-1]
    assert 20 <= k <= 30


def test_no_stop_when_threshold_never_met():
    init = gaussian_init(sigma2=1.0, d=1, n_chains=64, h=0.01, seed=0)
    trace = run_chains(Gaussian(d=1), init, n_iters=20, stop_below=1e-6)
    assert not trace.stopped_early
    assert iterations_to_threshold(trace, 1e-6) is None


def _inverse_in_place(t):
    """f'(t) = 1 / (1 + t) of f = log1p, written into and returned as ``t``."""
    np.divide(1.0, np.add(t, 1.0, out=t), out=t)
    return t


REFERENCE_SPECS = [
    Gaussian(d=2),
    Sublinear(d=1, alpha=0.5),
    GenCauchy(d=3, nu=2),
    RadialCustom(d=2, f=np.log1p, fprime=_inverse_in_place),
]


def _reference_run(spec, init, n_iters, record_every, stop_below):
    """run_chains as a plain loop of lmc_step, every statistic from einsum."""

    def mean_se(v):
        se = float(v.std(ddof=1) / np.sqrt(v.size)) if v.size > 1 else 0.0
        return float(v.mean()), se

    def sq(b):
        return np.einsum("ij,ij->i", b.positions, b.positions)

    out = {"iters": [], "m2": [], "se": [], "dm2_next": [], "dm2_next_se": []}

    def record(step, b):
        m2, se = mean_se(sq(b))
        for key, v in zip(out, (step, m2, se, np.nan, np.nan)):
            out[key].append(v)
        return stop_below is not None and m2 + 2.0 * se < stop_below

    batch, step = init, 0
    stopped = record(0, batch)
    recorded = True
    while not stopped and step < n_iters:
        step += 1
        prev, batch = batch, lmc_step(batch, spec)
        if recorded:
            out["dm2_next"][-1], out["dm2_next_se"][-1] = mean_se(sq(batch) - sq(prev))
        recorded = step % record_every == 0 or step == n_iters
        if recorded:
            stopped = record(step, batch)
    return out, batch.positions, stopped


@pytest.mark.parametrize("record_every", [1, 7, 100])
@pytest.mark.parametrize("spec", REFERENCE_SPECS, ids=lambda s: type(s).__name__)
def test_run_chains_matches_reference_loop(spec, record_every):
    """run_chains reuses |x|^2 across its statistics; the bytes must match a
    loop that recomputes each from the positions, with and without a stop,
    and from a batch already k > 0 iterations in."""
    start = gaussian_init(sigma2=16.0, d=spec.d, n_chains=300, h=0.05, seed=11)
    inits = [start, ChainBatch(start.positions, h=0.05, k=5, rng_root=11)]
    for init in inits:
        full, _, _ = _reference_run(spec, init, 250, record_every, None)
        # halfway between the first and last recorded m2: hit when m2 decays
        for stop in (None, 0.5 * (full["m2"][0] + full["m2"][-1])):
            ref, final, stopped = _reference_run(spec, init, 250, record_every, stop)
            trace = run_chains(spec, init, 250, record_every=record_every,
                               stop_below=stop)
            for key, values in ref.items():
                assert getattr(trace, key).tobytes() == np.asarray(
                    values, dtype=getattr(trace, key).dtype).tobytes(), key
            assert trace.final_positions.tobytes() == final.tobytes()
            assert trace.stopped_early == stopped


def test_divergence_guard_catches_nan_in_known_chain():
    """A NaN, not an overflow, in one chain names that chain and iteration."""

    def repel_then_nan(t):
        # V = -|x|^2 / 2 pushes chains out; the profile is undefined past 100
        return np.where(t > 100.0, np.nan, -0.5)

    spec = RadialCustom(d=1, f=lambda t: -0.5 * t, fprime=repel_then_nan)
    pos = np.zeros((8, 1))
    pos[5, 0] = 8.0
    init = ChainBatch(pos, h=0.1, k=0, rng_root=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow on the way
        with pytest.raises(ChainDivergenceError) as exc_info:
            run_chains(spec, init, n_iters=50)
    err = exc_info.value
    assert err.chain_index == 5
    assert err.iteration > 1
    # every iteration before the bad one was recorded
    assert list(err.partial_trace.iters) == list(range(err.iteration))
    empty = ChainBatch(np.empty((0, 1)), h=0.1, k=0, rng_root=0)
    assert lmc_step(empty, Gaussian(d=1)).positions.shape == (0, 1)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergence_guard():
    # |1 - h|^2 > 1 for the Gaussian target when h > 2: the chain explodes
    init = gaussian_init(sigma2=1.0, d=1, n_chains=16, h=3.0, seed=0)
    with pytest.raises(ChainDivergenceError) as exc_info:
        run_chains(Gaussian(d=1), init, n_iters=2000)
    err = exc_info.value
    assert err.iteration > 0
    assert err.partial_trace is not None
    assert err.partial_trace.m2.size >= 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0000001e150,
                                 -1.0000001e150, 1e300])
def test_divergence_guard_names_the_bad_chain(bad):
    pos = np.zeros((6, 3))
    pos[:, 1] = 1e150  # the limit itself is allowed
    pos[2, 0] = -1e150
    sampler._check_divergence(pos, 7)
    pos[4, 2] = bad
    with pytest.raises(ChainDivergenceError) as exc_info:
        sampler._check_divergence(pos, 7)
    assert (exc_info.value.chain_index, exc_info.value.iteration) == (4, 7)


@pytest.mark.parametrize("n", [1, 2, 3, 10_000])
def test_mean_se_is_numpys_mean_and_std(n):
    """One sum serves the mean and the deviations, and the floats are those
    of v.mean() and v.std(ddof=1) / sqrt(n) (se is 0 for one value), on
    squared norms, increments of both signs and values far from 1."""
    rng = np.random.default_rng(n)
    for scale in (1.0, 1e-150, 1e150):
        for v in (scale * rng.standard_normal(n) ** 2,
                  scale * rng.standard_normal(n),
                  np.full(n, 0.1 * scale)):
            mean, se = sampler._mean_se(v)
            want = float(np.std(v, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
            assert (mean, se) == (float(v.mean()), want)
            assert type(mean) is float and type(se) is float


def _count_stream_states(monkeypatch) -> list:
    """(thread id, streams) for each block of states computed from now on."""
    computed, real = [], sampler._stream_states

    def counted(root, streams):
        computed.append((threading.get_ident(), [int(s) for s in streams]))
        return real(root, streams)

    monkeypatch.setattr(sampler, "_stream_states", counted)
    return computed


@pytest.mark.parametrize("ahead", [True, False], ids=["ahead", "inline"])
def test_a_short_run_computes_no_state_it_does_not_use(monkeypatch, ahead):
    """A thread refilling its block of stream states computes none past
    the run's last stream: a 40-step run drawing inline on a fresh thread
    computes the states of its 40 streams (not 1024), and each thread of a
    run that draws ahead computes at most the 40.  The bytes are those of
    the block numpy's constructors give."""
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    n = sampler.DRAW_AHEAD_MIN_NORMALS if ahead else 64
    spec = GenCauchy(d=1, nu=2.0)
    init = ChainBatch(gaussian_init(sigma2=4.0, d=1, n_chains=n, h=0.05,
                                    seed=23).positions, h=0.05, k=5, rng_root=23)
    reference = lmc_step(init, spec, noise=_numpy_block(23, 6, n, 1))
    computed = _count_stream_states(monkeypatch)
    if ahead:
        trace = run_chains(spec, init, 40, record_every=40)
    else:
        trace = _on_worker_thread(run_chains, spec, init, 40, record_every=40)
    streams = [s for _, block in computed for s in block]
    assert set(streams) <= set(range(6, 46))
    for thread in {ident for ident, _ in computed}:
        assert sum(len(b) for ident, b in computed if ident == thread) <= 40
    if not ahead:
        assert streams == list(range(6, 46))
    one = _on_worker_thread(run_chains, spec, init, 1)
    assert one.final_positions.tobytes() == reference.positions.tobytes()
    assert trace.iters.tolist() == [0, 40]


def test_lmc_step_takes_the_stream_block_it_is_given():
    spec = GenCauchy(d=2, nu=3)
    init = gaussian_init(sigma2=1.0, d=2, n_chains=64, h=0.01, seed=4)
    block = sampler._noise_block(4, 1, 64, 2)
    given = lmc_step(init, spec, noise=block)
    assert given.positions.tobytes() == lmc_step(init, spec).positions.tobytes()
    for shape in ((64, 1), (63, 2), (128,)):
        with pytest.raises(InputValidationError):
            lmc_step(init, spec, noise=np.zeros(shape))


def test_lmc_step_refuses_a_noise_block_that_is_not_float64():
    """A float32 block would round the step's bytes, an int64 one fails
    inside numpy and a list has no dtype: each is refused as a wrong shape
    is."""
    spec = GenCauchy(d=2, nu=3)
    init = gaussian_init(sigma2=1.0, d=2, n_chains=64, h=0.01, seed=4)
    block = sampler._noise_block(4, 1, 64, 2)
    for dtype in (np.float32, np.int64):
        with pytest.raises(InputValidationError, match=np.dtype(dtype).name):
            lmc_step(init, spec, noise=block.astype(dtype))
    with pytest.raises(InputValidationError, match="got list"):
        lmc_step(init, spec, noise=block.tolist())
    drawn = lmc_step(init, spec).positions.tobytes()
    assert lmc_step(init, spec, noise=block.copy()).positions.tobytes() == drawn


def _numpy_block(root: int, stream: int, n: int, d: int) -> np.ndarray:
    """The randomness contract's definition of the (root, stream) block."""
    seq = np.random.SeedSequence((root, stream))
    return np.random.Generator(np.random.SFC64(seq)).standard_normal((n, d))


def test_stream_states_are_numpys():
    """The vectorized seeder gives, bit for bit, the state numpy's
    SeedSequence and SFC64 constructors give: roots of one to five 32-bit
    words, and streams of one and two words, on both sides of each block
    edge, in any order."""
    edge = sampler._STATE_BLOCK
    roots = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**130]
    streams = [0, 1, 2, edge - 1, edge, edge + 1, 2 * edge - 1, 2 * edge,
               2**32 - 1, 2**32, 2**40]
    for root in roots:
        states = sampler._stream_states(root, streams[::-1])
        assert states.dtype == np.uint64 and states.shape == (len(streams), 4)
        for state, stream in zip(states, streams[::-1]):
            want = np.random.SFC64(np.random.SeedSequence((root, stream))).state
            assert state.tolist() == want["state"]["state"].tolist(), (root, stream)
    assert sampler._stream_states(5, []).shape == (0, 4)
    with pytest.raises(ValueError):
        sampler._stream_states(-1, [0])
    with pytest.raises(TypeError):
        sampler._stream_states(2.5, [0])


def test_noise_block_reaches_the_last_64_bit_stream():
    """The block refilled from a stream near 2**64 stops at 2**64 instead of
    wrapping round to stream 0; a stream past it is refused."""
    for stream in (2**64 - 1, 2**64 - 2, 2**64 - 1):
        got = sampler._noise_block(4, stream, 3, 2)
        assert got.tobytes() == _numpy_block(4, stream, 3, 2).tobytes()
    with pytest.raises(ValueError, match="stream must be in"):
        sampler._noise_block(4, 2**64, 3, 2)


def test_threads_drawing_interleaved_streams_get_numpys_bytes():
    """Two threads, each with its own generator and block of states, draw
    streams of two roots in turn (so each block is refilled again and
    again, across its edges) while the interpreter switches between them
    every few microseconds: every block is numpy's."""
    edge = sampler._STATE_BLOCK
    addresses = [(root, stream) for stream in
                 (0, 1, edge - 1, edge, 3, 2 * edge + 5, 2**33, 2)
                 for root in (9, 2**64 + 9)]
    barrier = threading.Barrier(2, timeout=60)

    def draw(order):
        barrier.wait()
        return [sampler._noise_block(root, stream, 33, 3).tobytes()
                for _ in range(5) for root, stream in order]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            orders = (addresses, addresses[::-1])
            got = list(pool.map(draw, orders))
    finally:
        sys.setswitchinterval(switch)
    for order, blocks in zip(orders, got):
        want = [_numpy_block(root, stream, 33, 3).tobytes()
                for _ in range(5) for root, stream in order]
        assert blocks == want


TRACE_ARRAYS = ("iters", "m2", "se", "dm2_next", "dm2_next_se", "final_positions")


class _Draws(list):
    """(stream, thread ident, lmc_step calls finished) for each noise draw."""

    steps = 0

    def clear(self) -> None:
        super().clear()
        self.steps = 0

    def check(self, init: ChainBatch, n_iters: int, steps: int) -> None:
        """Each stream is drawn at most once, none beyond the run or more
        than DRAW_AHEAD_DEPTH past the one being consumed, and every stream
        up to the last step taken is drawn."""
        streams = [s for s, _, _ in self]
        assert len(set(streams)) == len(streams)
        assert set(range(init.k + 1, init.k + 1 + steps)) <= set(streams)
        assert all(init.k < s <= init.k + n_iters for s in streams)
        assert all(s <= init.k + done + 1 + sampler.DRAW_AHEAD_DEPTH
                   for s, _, done in self)

    def threads(self) -> set:
        return {ident for _, ident, _ in self}


@pytest.fixture
def draws(monkeypatch):
    """The helper's core check passes on any machine, each noise draw is
    recorded, and so is each lmc_step call that returns."""
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    seen, draw, step = _Draws(), sampler._noise_block, sampler.lmc_step

    def recorded(root, stream, n, d, **kw):
        seen.append((stream, threading.get_ident(), seen.steps))
        return draw(root, stream, n, d, **kw)

    def stepped(*args, **kwargs):
        out = step(*args, **kwargs)
        seen.steps += 1
        return out

    monkeypatch.setattr(sampler, "_noise_block", recorded)
    monkeypatch.setattr(sampler, "lmc_step", stepped)
    return seen


def _on_worker_thread(fn, *args, **kwargs):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args, **kwargs).result()


def _slow_draws_on(monkeypatch, on_main: bool, seconds: float = 0.005):
    """Make the noise draws of the main thread (or of any other) sleep."""
    draw = sampler._noise_block

    def slowed(root, stream, n, d, **kw):
        if (threading.current_thread() is threading.main_thread()) == on_main:
            time.sleep(seconds)
        return draw(root, stream, n, d, **kw)

    monkeypatch.setattr(sampler, "_noise_block", slowed)


def _assert_same_trace(ahead, inline, label=None):
    for name in TRACE_ARRAYS:
        assert (getattr(ahead, name).tobytes()
                == getattr(inline, name).tobytes()), (label, name)
    assert ahead.stopped_early == inline.stopped_early


def test_a_drawn_ahead_run_builds_no_generator_per_stream(draws, monkeypatch):
    """A 50-step run that draws ahead calls no SeedSequence constructor and
    builds at most one generator on each thread that draws (the parent built
    one of each per stream); its bytes are the inline ones."""
    n = sampler.DRAW_AHEAD_MIN_NORMALS
    init = gaussian_init(sigma2=4.0, d=1, n_chains=n, h=0.05, seed=31)
    inline = _on_worker_thread(run_chains, Gaussian(d=1), init, 50)
    built = []

    def counted(name, make):
        def build(*args, **kwargs):
            built.append((name, threading.get_ident()))
            return make(*args, **kwargs)
        monkeypatch.setattr(np.random, name, build)

    for name in ("SeedSequence", "SFC64", "Generator"):
        counted(name, getattr(np.random, name))
    draws.clear()
    ahead = run_chains(Gaussian(d=1), init, 50)
    assert len(draws) == 50
    assert len(draws.threads() - {threading.get_ident()}) <= 1
    assert [name for name, _ in built if name == "SeedSequence"] == []
    for name in ("SFC64", "Generator"):
        threads = [ident for built_name, ident in built if built_name == name]
        assert len(threads) == len(set(threads)) and set(threads) <= draws.threads()
    _assert_same_trace(ahead, inline)


@pytest.mark.parametrize("above", [True, False], ids=["above", "below"])
@pytest.mark.parametrize("d", [1, 4])
def test_drawn_ahead_and_inline_noise_give_the_same_bytes(draws, d, above):
    """run_chains on the main thread (blocks drawn ahead by the helper and
    the main thread when they hold DRAW_AHEAD_MIN_NORMALS normals, else
    inline on the main thread) gives the bytes of the same call on a worker
    thread (always drawn inline): for 0, 1 and 2 steps, more steps than the
    depth, a batch k > 0 steps in, and an early stop."""
    n = -(-sampler.DRAW_AHEAD_MIN_NORMALS // d) - (0 if above else 1)
    spec = Gaussian(d=d)
    start = gaussian_init(sigma2=16.0, d=d, n_chains=n, h=0.05, seed=13)
    main = threading.get_ident()
    for init in (start, ChainBatch(start.positions, h=0.05, k=3, rng_root=13)):
        full = _on_worker_thread(run_chains, spec, init, 40, record_every=3)
        halfway = 0.5 * (full.m2[0] + full.m2[-1])
        for n_iters, stop in ((0, None), (1, None), (2, None), (9, None),
                              (40, halfway)):
            draws.clear()
            ahead = run_chains(spec, init, n_iters, record_every=3,
                               stop_below=stop)
            draws.check(init, n_iters, ahead.iters[-1])
            if above:
                assert len(draws.threads() - {main}) <= 1
            else:
                assert draws.threads() <= {main}
            inline = _on_worker_thread(run_chains, spec, init, n_iters,
                                       record_every=3, stop_below=stop)
            _assert_same_trace(ahead, inline, n_iters)
            assert ahead.stopped_early == (stop is not None)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_main_thread_draws_while_the_helper_is_slow(draws, monkeypatch, d):
    """With the helper's draws slowed, the main thread draws most blocks
    itself instead of waiting, and the bytes are still the inline ones."""
    n = -(-sampler.DRAW_AHEAD_MIN_NORMALS // d)
    spec = GenCauchy(d=d, nu=3)
    init = gaussian_init(sigma2=4.0, d=d, n_chains=n, h=0.01, seed=21)
    inline = _on_worker_thread(run_chains, spec, init, 30, record_every=4)
    _slow_draws_on(monkeypatch, on_main=False)
    draws.clear()
    ahead = run_chains(spec, init, 30, record_every=4)
    draws.check(init, 30, 30)
    by_main = [s for s, ident, _ in draws if ident == threading.get_ident()]
    assert len(by_main) > 15
    _assert_same_trace(ahead, inline)


def test_shared_draws_under_thread_switching_stress(draws, monkeypatch):
    """With the interpreter switching threads every few microseconds and
    draws on both threads delayed by random amounts, each stream is still
    drawn once, within the depth, and the bytes are the inline ones."""
    d, n = 2, -(-sampler.DRAW_AHEAD_MIN_NORMALS // 2)
    spec = GenCauchy(d=d, nu=1.5)
    init = gaussian_init(sigma2=9.0, d=d, n_chains=n, h=0.02, seed=8)
    inline = _on_worker_thread(run_chains, spec, init, 120, record_every=7)
    draw, jitter = sampler._noise_block, np.random.default_rng(0)

    def jittered(root, stream, n, d, **kw):
        time.sleep(float(jitter.choice([0.0, 1e-4, 2e-3])))
        return draw(root, stream, n, d, **kw)

    monkeypatch.setattr(sampler, "_noise_block", jittered)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(3):
            draws.clear()
            ahead = run_chains(spec, init, 120, record_every=7)
            draws.check(init, 120, 120)
            assert len(draws) == 120 and len(draws.threads()) <= 2
            _assert_same_trace(ahead, inline)
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.parametrize("depth", [1, 2, 4, 6])
def test_ring_slots_are_not_drawn_over_while_in_use(draws, monkeypatch, depth):
    """Blocks drawn ahead go into a ring of depth + 1 reused buffers.  With
    DRAW_AHEAD_DEPTH patched, draws and steps delayed by random amounts and
    the interpreter switching threads every few microseconds, no slot is
    drawn over while a step still reads it: the bytes are the inline ones.
    A draw that fails still raises its own error."""
    monkeypatch.setattr(sampler, "DRAW_AHEAD_DEPTH", depth)
    d, n = 2, -(-sampler.DRAW_AHEAD_MIN_NORMALS // 2)
    spec = GenCauchy(d=d, nu=1.5)
    init = gaussian_init(sigma2=9.0, d=d, n_chains=n, h=0.02, seed=8)
    inline = _on_worker_thread(run_chains, spec, init, 60, record_every=7)
    draw, step = sampler._noise_block, sampler.lmc_step
    jitter = np.random.default_rng(depth)
    boom = RuntimeError("no noise for stream 40")
    failing = False

    def pause() -> None:
        time.sleep(float(jitter.choice([0.0, 1e-4, 2e-3])))

    def jittered(root, stream, n, d, **kw):
        pause()
        if failing and stream == 40:
            raise boom
        return draw(root, stream, n, d, **kw)

    def held(*args, **kwargs):
        pause()  # the step holds its block while the other thread draws
        return step(*args, **kwargs)

    monkeypatch.setattr(sampler, "_noise_block", jittered)
    monkeypatch.setattr(sampler, "lmc_step", held)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(2):
            draws.clear()
            ahead = run_chains(spec, init, 60, record_every=7)
            draws.check(init, 60, 60)
            assert len(draws.threads()) == 2
            _assert_same_trace(ahead, inline, depth)
        failing = True
        before = threading.active_count()
        with pytest.raises(RuntimeError) as exc_info:
            run_chains(spec, init, 60, record_every=7)
        assert exc_info.value is boom
        assert threading.active_count() == before
    finally:
        sys.setswitchinterval(switch)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("end", ["return", "stop", "divergence",
                                 "draw_error", "main_draw_error"])
def test_helper_thread_ends_with_the_call(draws, monkeypatch, end):
    """No thread outlives run_chains, however it ends, and each call starts
    at most one; an error raised by a draw on either thread is the error
    run_chains raises."""
    n = sampler.DRAW_AHEAD_MIN_NORMALS
    h = 3.0 if end == "divergence" else 0.05  # |1 - h| = 2: the chains blow up
    init = gaussian_init(sigma2=16.0, d=1, n_chains=n, h=h, seed=17)
    boom = RuntimeError("no noise for stream 5 or later")
    if end.endswith("draw_error"):
        # draws fail on the helper (or on the main thread) from stream 5 on;
        # the other thread's draws are slowed, so the failing one draws
        on_main = end == "main_draw_error"
        _slow_draws_on(monkeypatch, on_main=not on_main)
        draw = sampler._noise_block

        def failing(root, stream, n, d, **kw):
            is_main = threading.current_thread() is threading.main_thread()
            if stream >= 5 and is_main == on_main:
                raise boom
            return draw(root, stream, n, d, **kw)

        monkeypatch.setattr(sampler, "_noise_block", failing)
    draws.clear()
    before = threading.active_count()
    if end == "divergence":
        with pytest.raises(ChainDivergenceError):
            run_chains(Gaussian(d=1), init, n_iters=2000)
    elif end.endswith("draw_error"):
        with pytest.raises(RuntimeError) as exc_info:
            run_chains(Gaussian(d=1), init, n_iters=50)
        assert exc_info.value is boom
    else:
        stop = 2.0 if end == "stop" else None
        trace = run_chains(Gaussian(d=1), init, n_iters=200, stop_below=stop)
        assert trace.stopped_early == (end == "stop")
        draws.check(init, 200, trace.iters[-1])
    assert threading.active_count() == before
    assert len(draws.threads() - {threading.get_ident()}) <= 1


def test_a_run_without_steps_starts_no_thread(draws, monkeypatch):
    """n_iters=0 and a stop at record 0 start no helper; a run with steps
    starts exactly one."""
    started, start = [], threading.Thread.start

    def counted(self, *args, **kwargs):
        started.append(self.name)
        return start(self, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counted)
    init = gaussian_init(sigma2=16.0, d=2, n_chains=sampler.DRAW_AHEAD_MIN_NORMALS,
                         h=0.05, seed=5)
    assert sampler._draws_ahead(init.n_chains, init.d)
    draws.clear()
    assert list(run_chains(GAUSS, init, n_iters=0).iters) == [0]
    stopped = run_chains(GAUSS, init, n_iters=50, stop_below=1e9)
    assert list(stopped.iters) == [0] and stopped.stopped_early
    assert started == [] and not draws
    run_chains(GAUSS, init, n_iters=3)
    assert len(started) == 1


def test_run_chains_refuses_a_stop_level_that_is_not_a_finite_real(
        draws, monkeypatch):
    """A NaN level would never stop the run and inf would stop it at
    iteration 0: each is refused before any step, draw or helper thread."""
    started, start = [], threading.Thread.start

    def counted(self, *args, **kwargs):
        started.append(self.name)
        return start(self, *args, **kwargs)

    monkeypatch.setattr(threading.Thread, "start", counted)
    init = gaussian_init(sigma2=16.0, d=2, n_chains=sampler.DRAW_AHEAD_MIN_NORMALS,
                         h=0.05, seed=5)
    assert sampler._draws_ahead(init.n_chains, init.d)
    draws.clear()
    for stop in (math.nan, math.inf, -math.inf, np.float64("nan"), "30", True):
        with pytest.raises(InputValidationError, match="stop_below"):
            run_chains(GAUSS, init, n_iters=50, stop_below=stop)
    assert started == [] and not draws and draws.steps == 0
    # a finite numpy level stops where the same Python float does
    at = [run_chains(GAUSS, init, n_iters=50, record_every=5,
                     stop_below=stop).iters.tolist()
          for stop in (np.float64(30.0), 30.0)]
    assert at[0] == at[1] and 0 < at[0][-1] < 50


def test_run_chains_validation():
    init = gaussian_init(sigma2=1.0, d=1, n_chains=8, h=0.01, seed=0)
    # n_iters=0 records the initial state only
    t0 = run_chains(Gaussian(d=1), init, n_iters=0)
    assert list(t0.iters) == [0]
    with pytest.raises(InputValidationError):
        run_chains(Gaussian(d=1), init, n_iters=-1)
    with pytest.raises(InputValidationError):
        run_chains(Gaussian(d=1), init, n_iters=10, record_every=0)
    with pytest.raises(InputValidationError):
        run_chains(Gaussian(d=2), init, n_iters=10)  # dimension mismatch
    for kwargs in ({"n_iters": 10, "record_every": 2.5},
                   {"n_iters": 10, "record_every": True},
                   {"n_iters": 10.5}, {"n_iters": True}):
        name = "record_every" if "record_every" in kwargs else "n_iters"
        with pytest.raises(InputValidationError,
                           match=f"{name} must be an integer"):
            run_chains(Gaussian(d=1), init, **kwargs)


def test_write_trace_csv(tmp_path):
    init = gaussian_init(sigma2=4.0, d=1, n_chains=64, h=0.05, seed=1)
    trace = run_chains(Gaussian(d=1), init, n_iters=20, record_every=10)
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_trace_csv(trace, str(p1))
    write_trace_csv(trace, str(p2))
    text = p1.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "iter,m2,se,n_chains"
    assert len(lines) == 1 + trace.iters.size
    assert text == p2.read_text()  # byte-identical rewrite
    first = lines[1].split(",")
    assert int(first[0]) == 0
    assert float(first[1]) == pytest.approx(trace.m2[0], rel=1e-10)


def test_heavy_tail_chain_runs_stably():
    """GenCauchy gradients are bounded; a moderate step must not diverge."""
    spec = GenCauchy(d=2, nu=2)
    init = gaussian_init(sigma2=16.0, d=2, n_chains=1024, h=0.01, seed=5)
    trace = run_chains(spec, init, n_iters=2000, record_every=100)
    assert np.all(np.isfinite(trace.m2))


def test_sublinear_chain_decays_from_overdispersed_start():
    spec = Sublinear(d=1, alpha=0.5)
    init = gaussian_init(sigma2=400.0, d=1, n_chains=2048, h=0.05, seed=7)
    trace = run_chains(spec, init, n_iters=3000, record_every=100)
    assert trace.m2[-1] < trace.m2[0]
