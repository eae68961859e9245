"""Unadjusted Langevin chains: determinism, recording, divergence guard."""

from __future__ import annotations

import math
import threading
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


def test_lmc_step_takes_the_stream_block_it_is_given():
    spec = GenCauchy(d=2, nu=3)
    init = gaussian_init(sigma2=1.0, d=2, n_chains=64, h=0.01, seed=4)
    block = sampler._noise_block(4, 1, 64, 2)
    given = lmc_step(init, spec, noise=block)
    assert given.positions.tobytes() == lmc_step(init, spec).positions.tobytes()
    for shape in ((64, 1), (63, 2), (128,)):
        with pytest.raises(InputValidationError):
            lmc_step(init, spec, noise=np.zeros(shape))


TRACE_ARRAYS = ("iters", "m2", "se", "dm2_next", "dm2_next_se", "final_positions")


@pytest.fixture
def draws(monkeypatch):
    """The helper's core check passes on any machine, and each noise draw
    records (stream, thread ident)."""
    monkeypatch.setattr(sampler, "_usable_cores", lambda: 2)
    seen, draw = [], sampler._noise_block

    def recorded(root, stream, n, d):
        seen.append((stream, threading.get_ident()))
        return draw(root, stream, n, d)

    monkeypatch.setattr(sampler, "_noise_block", recorded)
    return seen


def _on_worker_thread(fn, *args, **kwargs):
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn, *args, **kwargs).result()


@pytest.mark.parametrize("above", [True, False], ids=["above", "below"])
@pytest.mark.parametrize("d", [1, 4])
def test_drawn_ahead_and_inline_noise_give_the_same_bytes(draws, d, above):
    """run_chains on the main thread (blocks drawn ahead on the helper when
    they hold DRAW_AHEAD_MIN_NORMALS normals) gives the bytes of the same
    call on a worker thread (always drawn inline): for 0, 1 and 2 steps,
    more steps than the depth, a batch k > 0 steps in, and an early stop."""
    n = sampler.DRAW_AHEAD_MIN_NORMALS // d - (0 if above else 1)
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
            steps = ahead.iters[-1]
            # every stream up to the last step taken, each drawn once
            assert sorted(s for s, _ in draws)[:steps] == list(
                range(init.k + 1, init.k + 1 + steps))
            assert all((ident != main) == above for _, ident in draws)
            inline = _on_worker_thread(run_chains, spec, init, n_iters,
                                       record_every=3, stop_below=stop)
            for name in TRACE_ARRAYS:
                assert (getattr(ahead, name).tobytes()
                        == getattr(inline, name).tobytes()), (n_iters, name)
            assert ahead.stopped_early == inline.stopped_early == (stop is not None)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("end", ["return", "stop", "divergence", "draw_error"])
def test_helper_thread_ends_with_the_call(draws, monkeypatch, end):
    """No thread outlives run_chains, however it ends; an error raised by
    a draw on the helper is the error run_chains raises."""
    n = sampler.DRAW_AHEAD_MIN_NORMALS
    h = 3.0 if end == "divergence" else 0.05  # |1 - h| = 2: the chains blow up
    init = gaussian_init(sigma2=16.0, d=1, n_chains=n, h=h, seed=17)
    boom, draw = RuntimeError("no noise for stream 5"), sampler._noise_block

    def failing(root, stream, n, d):
        if stream == 5:
            raise boom
        return draw(root, stream, n, d)

    if end == "draw_error":
        monkeypatch.setattr(sampler, "_noise_block", failing)
    draws.clear()
    before = threading.active_count()
    if end == "divergence":
        with pytest.raises(ChainDivergenceError):
            run_chains(Gaussian(d=1), init, n_iters=2000)
    elif end == "draw_error":
        with pytest.raises(RuntimeError) as exc_info:
            run_chains(Gaussian(d=1), init, n_iters=50)
        assert exc_info.value is boom
    else:
        stop = 2.0 if end == "stop" else None
        trace = run_chains(Gaussian(d=1), init, n_iters=200, stop_below=stop)
        assert trace.stopped_early == (end == "stop")
    assert threading.active_count() == before
    assert draws and all(ident != threading.get_ident() for _, ident in draws)


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
