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


def _assert_each_state_computed_once(monkeypatch, ahead: bool, n_iters: int):
    """A run from k = 3 (drawing ahead on the main thread, or alone on a
    worker thread) computes the state of each of its streams once, in order
    and in chunks of at most _STATE_BLOCK, and gives the bytes of a loop of
    lmc_step drawing each block with numpy's constructors."""
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    n, k, edge = sampler.DRAW_AHEAD_MIN_NORMALS, 3, sampler._STATE_BLOCK
    spec = GenCauchy(d=1, nu=2.0)
    init = ChainBatch(gaussian_init(sigma2=4.0, d=1, n_chains=n, h=0.05,
                                    seed=23).positions, h=0.05, k=k, rng_root=23)
    _, want, _ = _reference_run(spec, init, n_iters, n_iters, None)
    computed = _count_stream_states(monkeypatch)
    if ahead:
        trace = run_chains(spec, init, n_iters, record_every=40)
    else:
        trace = _on_worker_thread(run_chains, spec, init, n_iters, record_every=40)
    streams = [s for _, chunk in computed for s in chunk]
    assert streams == list(range(k + 1, k + n_iters + 1))
    assert ([len(chunk) for _, chunk in computed]
            == [min(edge, n_iters - i) for i in range(0, n_iters, edge)])
    assert trace.final_positions.tobytes() == want.tobytes()


@pytest.mark.parametrize("ahead", [True, False], ids=["ahead", "inline"])
def test_a_short_run_computes_no_state_it_does_not_use(monkeypatch, ahead):
    """A 40-step run computes the states of its 40 streams, not 1024."""
    _assert_each_state_computed_once(monkeypatch, ahead, 40)


@pytest.mark.parametrize("ahead", [True, False], ids=["ahead", "inline"])
def test_a_run_across_a_chunk_edge_computes_each_state_once(monkeypatch, ahead):
    """A 1500-step run computes its states in two chunks, 1024 and 476."""
    _assert_each_state_computed_once(monkeypatch, ahead, 1500)


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
    """The single draw of a stream near 2**64 is numpy's block; a stream
    past it is refused."""
    for stream in (2**64 - 1, 2**64 - 2):
        got = sampler._noise_block(4, stream, 3, 2)
        assert got.tobytes() == _numpy_block(4, stream, 3, 2).tobytes()
    with pytest.raises(ValueError, match="stream must be in"):
        sampler._noise_block(4, 2**64, 3, 2)


def test_single_draws_are_numpys_blocks():
    """gaussian_init (stream 0) and lmc_step without noise= (stream k + 1)
    draw the block the randomness contract defines, at streams 0, 1, 2**32
    and 2**64 - 1."""
    root, n, d = 2**64 + 9, 33, 3
    init = gaussian_init(sigma2=1.0, d=d, n_chains=n, h=0.01, seed=root)
    assert init.positions.tobytes() == _numpy_block(root, 0, n, d).tobytes()
    spec = GenCauchy(d=d, nu=3)
    for stream in (1, 2**32, 2**64 - 1):
        batch = ChainBatch(init.positions, h=0.01, k=stream - 1, rng_root=root)
        want = lmc_step(batch, spec, noise=_numpy_block(root, stream, n, d))
        got = lmc_step(batch, spec)
        assert got.positions.tobytes() == want.positions.tobytes(), stream
        assert got.k == stream


def test_runs_on_two_threads_give_the_bytes_of_each_run_alone():
    """Two runs of different roots on two worker threads, one of them
    crossing a chunk of stream states, while the interpreter switches
    between them every few microseconds: each gives the bytes of the same
    run made alone."""
    spec = GenCauchy(d=3, nu=1.5)
    runs = [(ChainBatch(gaussian_init(sigma2=4.0, d=3, n_chains=33, h=0.01,
                                      seed=root).positions,
                        h=0.01, k=k, rng_root=root), n_iters)
            for root, k, n_iters in ((9, 3, sampler._STATE_BLOCK + 100),
                                     (2**64 + 9, 0, 300))]
    alone = [_on_worker_thread(run_chains, spec, init, n_iters, record_every=9)
             for init, n_iters in runs]
    barrier = threading.Barrier(2, timeout=60)

    def run(args):
        barrier.wait()
        return run_chains(spec, *args, record_every=9)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            together = list(pool.map(run, runs))
    finally:
        sys.setswitchinterval(switch)
    for one, other in zip(alone, together):
        _assert_same_trace(other, one)


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
    seen, draw, step = _Draws(), sampler._draw_stream, sampler.lmc_step

    def recorded(generator, stream, *args):
        seen.append((stream, threading.get_ident(), seen.steps))
        return draw(generator, stream, *args)

    def stepped(*args, **kwargs):
        out = step(*args, **kwargs)
        seen.steps += 1
        return out

    monkeypatch.setattr(sampler, "_draw_stream", recorded)
    monkeypatch.setattr(sampler, "lmc_step", stepped)
    return seen


def _on_worker_thread(fn, *args, **kwargs):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args, **kwargs).result()


def _slow_draws_on(monkeypatch, on_main: bool, seconds: float = 0.005):
    """Make the noise draws of the main thread (or of any other) sleep."""
    draw = sampler._draw_stream

    def slowed(*args):
        if (threading.current_thread() is threading.main_thread()) == on_main:
            time.sleep(seconds)
        return draw(*args)

    monkeypatch.setattr(sampler, "_draw_stream", slowed)


def _assert_same_trace(ahead, inline, label=None):
    for name in TRACE_ARRAYS:
        assert (getattr(ahead, name).tobytes()
                == getattr(inline, name).tobytes()), (label, name)
    assert ahead.stopped_early == inline.stopped_early


def test_a_drawn_ahead_run_builds_no_generator_per_stream(draws, monkeypatch):
    """A 50-step run that draws ahead calls no SeedSequence constructor and
    builds one generator for each of its two drawing threads, both on the
    calling thread (the parent built one of each per stream); its bytes are
    those of the run on a worker thread."""
    n = sampler.DRAW_AHEAD_MIN_NORMALS
    init = gaussian_init(sigma2=4.0, d=1, n_chains=n, h=0.05, seed=31)
    alone = _on_worker_thread(run_chains, Gaussian(d=1), init, 50)
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
    assert sorted(built) == sorted(
        [("SFC64", threading.get_ident()), ("Generator", threading.get_ident())] * 2)
    _assert_same_trace(ahead, alone)


@pytest.mark.parametrize("where", ["worker", "small"])
def test_runs_without_a_helper_draw_into_the_ring(draws, monkeypatch, where):
    """A run on a worker thread, and a main-thread batch below
    DRAW_AHEAD_MIN_NORMALS, draw every block on the calling thread into at
    most DRAW_AHEAD_DEPTH + 1 arrays, as a run with the helper does, and give
    that run's bytes."""
    n = sampler.DRAW_AHEAD_MIN_NORMALS // 2 - 1
    spec = GenCauchy(d=2, nu=2.0)
    init = gaussian_init(sigma2=4.0, d=2, n_chains=n, h=0.02, seed=41)
    out_ids = []
    draw = sampler._draw_stream

    def recorded(*args):
        block = draw(*args)
        out_ids.append(id(block))
        return block

    monkeypatch.setattr(sampler, "_draw_stream", recorded)
    draws.clear()
    if where == "worker":
        alone = _on_worker_thread(run_chains, spec, init, 60, record_every=7)
    else:
        assert not sampler._draws_ahead(init.n_chains, init.d)
        alone = run_chains(spec, init, 60, record_every=7)
    main = threading.get_ident()
    assert len(out_ids) == 60 and len(draws.threads()) == 1
    assert len(set(out_ids)) <= sampler.DRAW_AHEAD_DEPTH + 1
    assert (main in draws.threads()) == (where == "small")
    draws.clear()
    out_ids.clear()
    with monkeypatch.context() as patched:
        # the same batch with a helper, which draws while the main thread's
        # draws are slowed
        patched.setattr(sampler, "DRAW_AHEAD_MIN_NORMALS", 0)
        _slow_draws_on(patched, on_main=True)
        helped = run_chains(spec, init, 60, record_every=7)
    assert len(out_ids) == 60 and len(draws.threads() - {main}) == 1
    assert len(set(out_ids)) <= sampler.DRAW_AHEAD_DEPTH + 1
    _assert_same_trace(helped, alone)


@pytest.mark.parametrize("above", [True, False], ids=["above", "below"])
@pytest.mark.parametrize("d", [1, 4])
def test_drawn_ahead_and_inline_noise_give_the_same_bytes(draws, d, above):
    """run_chains on the main thread (blocks drawn ahead by the helper and
    the main thread when they hold DRAW_AHEAD_MIN_NORMALS normals, else by
    the main thread alone, each just before its step) gives the bytes of the
    same call on a worker thread (which always draws alone): for 0, 1 and 2
    steps, more steps than the depth, a batch k > 0 steps in, and an early
    stop."""
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
    draw, jitter = sampler._draw_stream, np.random.default_rng(0)

    def jittered(*args):
        time.sleep(float(jitter.choice([0.0, 1e-4, 2e-3])))
        return draw(*args)

    monkeypatch.setattr(sampler, "_draw_stream", jittered)
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
    draw, step = sampler._draw_stream, sampler.lmc_step
    jitter = np.random.default_rng(depth)
    boom = RuntimeError("no noise for stream 40")
    failing = False

    def pause() -> None:
        time.sleep(float(jitter.choice([0.0, 1e-4, 2e-3])))

    def jittered(generator, stream, *args):
        pause()
        if failing and stream == 40:
            raise boom
        return draw(generator, stream, *args)

    def held(*args, **kwargs):
        pause()  # the step holds its block while the other thread draws
        return step(*args, **kwargs)

    monkeypatch.setattr(sampler, "_draw_stream", jittered)
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
        draw = sampler._draw_stream

        def failing(generator, stream, *args):
            is_main = threading.current_thread() is threading.main_thread()
            if stream >= 5 and is_main == on_main:
                raise boom
            return draw(generator, stream, *args)

        monkeypatch.setattr(sampler, "_draw_stream", failing)
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


def test_a_run_past_the_last_stream_is_refused_before_its_first_step(draws):
    """Streams are 64-bit: a run whose last stream k + n_iters would pass
    2**64 - 1, and a step from k = 2**64 - 1, are refused before any draw or
    step; the run that ends at the last stream goes through."""
    init = ChainBatch(np.zeros((4, 1)), h=0.1, k=2**64 - 3, rng_root=1)
    draws.clear()
    with pytest.raises(InputValidationError, match="last noise stream"):
        run_chains(Gaussian(d=1), init, 5)
    assert not draws and draws.steps == 0
    trace = run_chains(Gaussian(d=1), init, 2)
    assert trace.iters.tolist() == [0, 1, 2] and draws.steps == 2
    last = ChainBatch(np.zeros((4, 1)), h=0.1, k=2**64 - 1, rng_root=1)
    for noise in (None, np.zeros((4, 1))):
        with pytest.raises(InputValidationError, match="no noise stream"):
            lmc_step(last, Gaussian(d=1), noise=noise)


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
