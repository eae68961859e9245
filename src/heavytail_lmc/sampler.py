"""Unadjusted Langevin chains: batched Euler steps of the Langevin diffusion.

The update rule is

    x_{k+1} = x_k - h * grad V(x_k) + sqrt(2 h) * xi_k,   xi_k ~ N(0, I_d),

run as a batch of independent chains stored in an ``(n_chains, d)`` array.

Randomness contract
-------------------
All noise is addressed by ``(root_seed, stream)``: the block for a stream is
drawn from ``Generator(SFC64(SeedSequence((root_seed, stream))))``, a fresh
generator per address, so any stream can be read without drawing the ones
before it.  Stream 0 is reserved for the initial draw; stream k+1 supplies
the noise for iteration k (the update producing x_{k+1}).  Within a stream,
the block ``standard_normal((n_chains, d))`` is laid out row-major, so chain
i always reads row i: the noise consumed by chain i is a function of
``(root_seed, iteration, i)`` only.  Consequences, all tested:

* runs with the same root seed are bit-identical,
* the first chains of a larger batch reproduce a smaller batch exactly
  (advancing chain i never consumes randomness addressed to chain j), and
* outputs do not depend on how many threads run independent batches.

Because no block depends on the step before it, :func:`run_chains` may
draw blocks ahead of the step that uses them: one helper thread and the
calling thread each claim the lowest stream not yet drawn, up to
``DRAW_AHEAD_DEPTH`` past the one being consumed, and the caller draws a
block itself whenever the one it needs is not ready.  Each stream is drawn
once and the blocks are used in stream order, so every output byte is the
one an inline draw gives.  The helper is used only when the run is on the
main thread (a caller that runs chains on threads of its own already
spreads them over the cores, and a helper per thread would compete for
them), the process may use at least 2 cores, and a block holds at least
``DRAW_AHEAD_MIN_NORMALS`` normals (below that, handing a block over costs
more than drawing it).  It starts with the first step, so a run that takes
no step starts no thread, and it is joined before the call returns or
raises.

Version 1 of this contract drew each block from ``Philox(key=root_seed,
counter=stream << 128)``; the addressing is unchanged, but outputs of v1
are not reproduced byte for byte.

Divergence policy
-----------------
A chain is declared divergent when any coordinate exceeds 1e150 in magnitude
or stops being finite.  :class:`ChainDivergenceError` carries the chain
index, the iteration at which the blow-up was detected, and the moment trace
recorded so far.
"""

from __future__ import annotations

import csv
import itertools
import os
import threading
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .targets import (
    HeavyTailError,
    InputValidationError,
    PotentialSpec,
    _json_int,
    grad_potential,
    sq_norms,
)

__all__ = [
    "ChainDivergenceError",
    "ChainBatch",
    "MomentTrace",
    "gaussian_init",
    "lmc_step",
    "run_chains",
    "write_trace_csv",
]

#: Magnitude at which a coordinate is declared divergent.
DIVERGENCE_LIMIT = 1e150

#: Streams past the one being consumed that :func:`run_chains` may draw.
DRAW_AHEAD_DEPTH = 4

#: Fewest normals per block (n_chains * d) for which :func:`run_chains`
#: draws ahead; below it the handover between the threads costs more than
#: the draw.  On 2 cores, with both threads drawing, the helper loses at
#: 5e3 normals for d = 1, 2 and 4, breaks even at 6e3 to 8e3 and wins from
#: 9e3 on.
DRAW_AHEAD_MIN_NORMALS = 9_000


class ChainDivergenceError(HeavyTailError, RuntimeError):
    """A chain coordinate left the representable region.

    Attributes
    ----------
    chain_index : int
        Index (within the batch) of the first offending chain.
    iteration : int
        Iteration index of the freshly produced state.
    partial_trace : MomentTrace or None
        Whatever had been recorded before the blow-up.
    """

    def __init__(self, chain_index: int, iteration: int, partial_trace=None):
        super().__init__(
            f"chain {chain_index} diverged at iteration {iteration} "
            f"(coordinate beyond {DIVERGENCE_LIMIT:.0e} or non-finite)"
        )
        self.chain_index = int(chain_index)
        self.iteration = int(iteration)
        self.partial_trace = partial_trace


@dataclass(frozen=True)
class ChainBatch:
    """State of a batch of chains after ``k`` iterations.

    ``rng_root`` is the root seed of the ``(root, stream)`` noise addresses
    (see the module's randomness contract); the batch consumes stream
    ``k + 1`` on its next step.
    """

    positions: np.ndarray
    h: float
    k: int
    rng_root: int

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2:
            raise InputValidationError(
                f"positions must have shape (n_chains, d), got {pos.shape}"
            )
        if self.h <= 0 or not np.isfinite(self.h):
            raise InputValidationError(f"step size h must be positive, got {self.h}")
        if self.k < 0:
            raise InputValidationError(f"iteration counter k must be >= 0, got {self.k}")
        object.__setattr__(self, "positions", pos)

    @property
    def n_chains(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]


@dataclass
class MomentTrace:
    """Second-moment summary of a run, aligned on recorded iterations.

    ``dm2_next`` / ``dm2_next_se`` hold the paired one-step increment
    mean(|x_{k+1}|^2 - |x_k|^2) and its standard error at each recorded k
    (NaN where no successor step exists); they exist so per-step drift
    inequalities can be tested at full statistical strength.
    """

    iters: np.ndarray
    m2: np.ndarray
    se: np.ndarray
    n_chains: int
    dm2_next: np.ndarray = field(default=None)  # type: ignore[assignment]
    dm2_next_se: np.ndarray = field(default=None)  # type: ignore[assignment]
    final_positions: Union[np.ndarray, None] = None
    stopped_early: bool = False


def _noise_block(root: int, stream: int, n: int, d: int,
                 out: Union[np.ndarray, None] = None) -> np.ndarray:
    """The (n, d) standard-normal block addressed by (root, stream), written
    into ``out`` (a C-contiguous float (n, d) array) when it is given."""
    seq = np.random.SeedSequence((root, stream))
    return np.random.Generator(np.random.SFC64(seq)).standard_normal((n, d), out=out)


def _usable_cores() -> int:
    """The cores this process may run on (all of them where the platform
    cannot say)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _draws_ahead(n: int, d: int) -> bool:
    """Whether :func:`run_chains` draws (n, d) blocks ahead, on a helper
    thread and its own."""
    return (n * d >= DRAW_AHEAD_MIN_NORMALS
            and threading.current_thread() is threading.main_thread()
            and _usable_cores() >= 2)


def _blocks_ahead(batch: ChainBatch, n_iters: int) -> Iterator[np.ndarray]:
    """The blocks of streams k+1 ... k+n_iters in order, drawn by a helper
    thread and by the caller.

    Both threads claim the lowest stream not yet claimed, up to
    ``DRAW_AHEAD_DEPTH`` past the one the caller is waiting for, and each
    stream is drawn once.  When the block the caller needs is not ready,
    it draws the lowest unclaimed stream itself; it waits only when every
    stream in reach is claimed.  The helper starts on the first ``next`` (a run that takes no
    step starts no thread) and is joined when the generator ends or is
    closed.  A draw that fails, on either thread, raises its error when its
    stream is reached, where an inline draw would have raised it.

    Stream s is drawn into slot s mod (depth + 1) of a ring of buffers
    allocated once, so a run does not allocate a block per step.  A slot
    is drawn again only once the window has passed its stream, that is
    after the caller asked for the next block and so is done with it.
    """
    root, n, d = batch.rng_root, batch.n_chains, batch.d
    last = batch.k + n_iters
    depth = DRAW_AHEAD_DEPTH
    ring = [np.empty((n, d)) for _ in range(depth + 1)]
    cond = threading.Condition()
    drawn: dict = {}       # stream -> its block, or the error its draw raised
    claimed = batch.k      # highest stream either thread has claimed
    window = batch.k       # highest stream that may be claimed
    closed = False

    def claim() -> Union[int, None]:
        nonlocal claimed
        if claimed >= window:
            return None
        claimed += 1
        return claimed

    def draw(stream: int) -> None:
        try:
            block = _noise_block(root, stream, n, d,
                                 out=ring[stream % len(ring)])
        except BaseException as err:
            block = err
        with cond:
            drawn[stream] = block
            cond.notify_all()
        if not isinstance(block, (np.ndarray, Exception)):
            raise block  # KeyboardInterrupt and the like do not wait

    def helper() -> None:
        while True:
            with cond:
                while not closed and (stream := claim()) is None:
                    cond.wait()
                if closed:
                    return
            draw(stream)

    thread = threading.Thread(target=helper, name="heavytail-draw-ahead",
                              daemon=True)
    thread.start()
    try:
        for stream in range(batch.k + 1, last + 1):
            with cond:
                window = min(last, stream + depth)
                cond.notify()
            while True:
                with cond:
                    while stream not in drawn and (mine := claim()) is None:
                        cond.wait()
                    block = drawn.pop(stream, None)
                if block is not None:
                    break
                draw(mine)
            if isinstance(block, BaseException):
                raise block
            yield block
    finally:
        with cond:
            closed = True
            cond.notify_all()
        thread.join()


def gaussian_init(
    sigma2: float, d: int, n_chains: int, h: float, seed: int
) -> ChainBatch:
    """Draw x_0 ~ N(0, sigma2 * I_d) for every chain (stream 0 of ``seed``)."""
    if sigma2 <= 0 or not np.isfinite(sigma2):
        raise InputValidationError(f"sigma2 must be positive, got {sigma2}")
    if n_chains < 1:
        raise InputValidationError(f"n_chains must be >= 1, got {n_chains}")
    if seed < 0:
        raise InputValidationError(f"seed must be >= 0, got {seed}")
    block = _noise_block(seed, 0, n_chains, d)
    return ChainBatch(positions=np.sqrt(sigma2) * block, h=h, k=0, rng_root=seed)


def _check_divergence(pos: np.ndarray, iteration: int, trace=None) -> None:
    # Two reductions and no temporary on the common path; NaN and +-inf
    # fail the comparisons.
    if pos.size == 0 or (pos.max() <= DIVERGENCE_LIMIT
                         and pos.min() >= -DIVERGENCE_LIMIT):
        return
    bad = ~(np.abs(pos) <= DIVERGENCE_LIMIT)
    idx = int(np.nonzero(np.any(bad, axis=1))[0][0])
    raise ChainDivergenceError(idx, iteration, partial_trace=trace)


def _euler_update(x: np.ndarray, g: np.ndarray, h: float,
                  xi: np.ndarray) -> np.ndarray:
    """(x - h g) + sqrt(2 h) xi, written into ``g``; ``xi`` is scaled in place."""
    g *= h
    np.subtract(x, g, out=g)
    xi *= np.sqrt(2.0 * h)
    g += xi
    return g


def lmc_step(batch: ChainBatch, spec: PotentialSpec, *,
             noise: Union[np.ndarray, None] = None) -> ChainBatch:
    """Advance every chain one iteration; returns a new batch at k+1.

    ``noise``, when given, must be the block of stream k+1 (drawn ahead by
    :func:`run_chains`); it is scaled in place.  Otherwise the block is drawn
    here.
    """
    if spec.d != batch.d:
        raise InputValidationError(
            f"spec dimension {spec.d} does not match batch dimension {batch.d}"
        )
    x = batch.positions
    h = batch.h
    if noise is None:
        xi = _noise_block(batch.rng_root, batch.k + 1, batch.n_chains, batch.d)
    elif noise.shape != x.shape:
        raise InputValidationError(
            f"noise block has shape {noise.shape}, positions {x.shape}"
        )
    else:
        xi = noise
    # grad_potential returns a fresh array, so the update may overwrite it
    new = _euler_update(x, grad_potential(spec, x), h, xi)
    _check_divergence(new, batch.k + 1)
    return ChainBatch(positions=new, h=h, k=batch.k + 1, rng_root=batch.rng_root)


def _mean_se(v: np.ndarray) -> tuple[float, float]:
    n = v.shape[0]
    mean = float(v.mean())
    se = float(v.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, se


def _m2_stats(pos: np.ndarray) -> tuple[float, float]:
    return _mean_se(sq_norms(pos))


def run_chains(
    spec: PotentialSpec,
    init: ChainBatch,
    n_iters: int,
    record_every: int = 1,
    stop_below: Union[float, None] = None,
) -> MomentTrace:
    """Run the batch for ``n_iters`` iterations, recording second moments.

    Iteration 0 (the initial state) and every multiple of ``record_every``
    are recorded, as is the final iteration reached.  When ``stop_below`` is
    given, the run ends at the first recorded iteration whose upper
    confidence value m2 + 2 se falls below it (that iteration is recorded and
    ``stopped_early`` is set).

    The noise of stream k+1 reaches :func:`lmc_step` through ``noise=``.
    When :func:`_draws_ahead` allows it, the blocks come from
    :func:`_blocks_ahead`, drawn by one helper thread and by this one;
    otherwise each is drawn inline.  The bytes are the same either way, and
    no thread is left running when the call returns or raises.

    Returns
    -------
    MomentTrace
        With per-recorded-iteration paired one-step increments and the final
        chain positions attached.
    """
    n_iters = _json_int(n_iters, "n_iters")
    record_every = _json_int(record_every, "record_every")
    if n_iters < 0:
        raise InputValidationError(f"n_iters must be >= 0, got {n_iters}")
    if record_every < 1:
        raise InputValidationError(f"record_every must be >= 1, got {record_every}")

    iters: list[int] = []
    m2s: list[float] = []
    ses: list[float] = []
    d_next: list[float] = []
    d_next_se: list[float] = []
    stopped = False

    batch = init
    # |x|^2 of the last recorded state, kept until its successor is paired
    pending: Union[np.ndarray, None] = None

    def record(step: int, sq: np.ndarray) -> bool:
        nonlocal pending
        m2, se = _mean_se(sq)
        iters.append(step)
        m2s.append(m2)
        ses.append(se)
        d_next.append(np.nan)
        d_next_se.append(np.nan)
        pending = sq
        return stop_below is not None and m2 + 2.0 * se < stop_below

    def trace(**final) -> MomentTrace:
        return MomentTrace(
            iters=np.asarray(iters, dtype=int),
            m2=np.asarray(m2s),
            se=np.asarray(ses),
            n_chains=init.n_chains,
            dm2_next=np.asarray(d_next),
            dm2_next_se=np.asarray(d_next_se),
            **final,
        )

    # noise drawn by a helper thread and this one, or None to draw it in
    # lmc_step; the helper starts with the first step
    ahead = _draws_ahead(init.n_chains, init.d)
    blocks = (_blocks_ahead(init, n_iters) if ahead
              else itertools.repeat(None))
    try:
        if record(0, sq_norms(batch.positions)):
            stopped = True
        else:
            for step in range(1, n_iters + 1):
                batch = lmc_step(batch, spec, noise=next(blocks))
                sq = None
                if pending is not None:
                    sq = sq_norms(batch.positions)
                    d_next[-1], d_next_se[-1] = _mean_se(sq - pending)
                    pending = None
                if step % record_every == 0 or step == n_iters:
                    if sq is None:
                        sq = sq_norms(batch.positions)
                    if record(step, sq):
                        stopped = True
                        break
    except ChainDivergenceError as err:
        err.partial_trace = trace()
        raise
    finally:
        if ahead:
            blocks.close()
    return trace(final_positions=batch.positions, stopped_early=stopped)


def write_trace_csv(trace: MomentTrace, path: str) -> None:
    """Write ``iter,m2,se,n_chains`` rows; formatting is deterministic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "m2", "se", "n_chains"])
        for i, m2, se in zip(trace.iters, trace.m2, trace.se):
            writer.writerow([int(i), f"{m2:.12g}", f"{se:.12g}", trace.n_chains])
