"""Unadjusted Langevin chains: batched Euler steps of the Langevin diffusion.

The update rule is

    x_{k+1} = x_k - h * grad V(x_k) + sqrt(2 h) * xi_k,   xi_k ~ N(0, I_d),

run as a batch of independent chains stored in an ``(n_chains, d)`` array.

Randomness contract
-------------------
All noise is addressed by ``(root_seed, stream)``: the block for a stream is
what ``Generator(SFC64(SeedSequence((root_seed, stream))))`` draws, so any
stream can be read without drawing the ones before it.  Stream 0 is reserved
for the initial draw; stream k+1 supplies the noise for iteration k (the
update producing x_{k+1}); a step or run that would need stream 2**64 is
refused before it starts.  Within a stream, the block
``standard_normal((n_chains, d))`` is laid out row-major, so chain i always
reads row i: the noise consumed by chain i is a function of
``(root_seed, iteration, i)`` only.  Consequences, all tested:

* runs with the same root seed are bit-identical,
* the first chains of a larger batch reproduce a smaller batch exactly
  (advancing chain i never consumes randomness addressed to chain j), and
* outputs do not depend on how many threads run independent batches.

A single draw (the initial state, or :func:`lmc_step` without ``noise=``)
builds that generator.  A :func:`run_chains` run builds none per stream:
it computes the SFC64 states of its streams once each, in vectorized
chunks (:func:`_stream_states`), sets them on one generator per drawing
thread, and draws every block into one ring of ``DRAW_AHEAD_DEPTH + 1``
buffers.  Because no block depends on the step before it, a helper thread
may draw besides the caller: each claims the lowest stream not yet drawn,
up to ``DRAW_AHEAD_DEPTH`` past the one being consumed, and the caller
draws a block itself whenever the one it needs is not ready.  Each stream
is drawn once and the blocks are used in stream order, so the bytes are
those of the caller drawing alone.  The helper is used only when the run is
on the main thread (a caller that runs chains on threads of its own already
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
import math
import operator
import os
import threading
from dataclasses import dataclass, field
from typing import Iterator, Union

import numpy as np

from .targets import (
    HeavyTailError,
    InputValidationError,
    PotentialSpec,
    _json_float,
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


def _at_least(value, name: str, least: int) -> int:
    """``value`` as an int (see :func:`~heavytail_lmc.targets._json_int`)
    that is at least ``least``."""
    n = _json_int(value, name)
    if n < least:
        raise InputValidationError(f"{name} must be >= {least}, got {n}")
    return n


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
        h = _json_float(self.h, "h")
        if not (h > 0 and math.isfinite(h)):
            raise InputValidationError(f"step size h must be positive, got {h}")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "k", _at_least(self.k, "k", 0))
        object.__setattr__(self, "rng_root", _at_least(self.rng_root, "rng_root", 0))

    def _advanced(self, positions: np.ndarray) -> "ChainBatch":
        """The batch at k + 1 with these positions (a float64 (n, d) array),
        built without re-checking the fields this batch already checked."""
        new = object.__new__(ChainBatch)
        new.__dict__.update(positions=positions, h=self.h, k=self.k + 1,
                            rng_root=self.rng_root)
        return new

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


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4

#: Most streams whose states a run computes in one chunk (32 KB).
_STATE_BLOCK = 1024


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` (and ``generate_state``'s output step) on
    uint32 arrays, with the hash constant starting at ``const``."""
    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _M32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return result ^ (result >> np.uint32(16))


def _uint32_words(n: int) -> list[int]:
    """SeedSequence's split of a non-negative int: little-endian 32-bit
    words, ``[0]`` for 0."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _sfc64_states(entropy: list[np.ndarray]) -> np.ndarray:
    """The (m, 4) SFC64 states of m seeds whose entropy has the same
    number of 32-bit words (``entropy[j][i]`` is word j of seed i): the
    pool of ``SeedSequence.mix_entropy``, ``generate_state(3, uint64)``
    and ``sfc64_set_seed``."""
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    output = _hasher(_INIT_B, _MULT_B)
    words = [output(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(6)]
    a, b, c = (words[2 * i] | (words[2 * i + 1] << np.uint64(32))
               for i in range(3))
    counter = np.ones_like(a)
    for _ in range(12):  # sfc64_next
        tmp = a + b + counter
        counter += np.uint64(1)
        a = b ^ (b >> np.uint64(11))
        b = c + (c << np.uint64(3))
        c = ((c << np.uint64(24)) | (c >> np.uint64(40))) + tmp
    return np.stack([a, b, c, counter], axis=1)


def _stream_states(root: int, streams) -> np.ndarray:
    """The ``(len(streams), 4)`` uint64 states that
    ``SFC64(SeedSequence((root, s)))`` starts from, one row per stream s
    (0 <= s < 2**64).

    A transcription of numpy's ``SeedSequence`` (the word split of its
    entropy, ``mix_entropy``, ``generate_state(3, np.uint64)``) and of
    ``sfc64_set_seed``, vectorized over the streams with uint32 and uint64
    arithmetic that wraps as the C code's does.  Streams are grouped by
    their number of 32-bit words, which fixes the entropy's layout.
    """
    root = operator.index(root)
    if root < 0:
        raise ValueError(f"root must be non-negative, got {root}")
    streams = np.asarray(streams, dtype=np.uint64).reshape(-1)
    states = np.empty((streams.size, 4), dtype=np.uint64)
    root_words = _uint32_words(root)
    wide = streams > np.uint64(_M32)
    for group, n_words in ((~wide, 1), (wide, 2)):
        idx = np.flatnonzero(group)
        if idx.size == 0:
            continue
        s = streams[idx]
        entropy = [np.full(idx.size, w, dtype=np.uint32) for w in root_words]
        entropy += [(s >> np.uint64(32 * i)).astype(np.uint32)
                    for i in range(n_words)]
        states[idx] = _sfc64_states(entropy)
    return states


def _noise_block(root: int, stream: int, n: int, d: int,
                 out: Union[np.ndarray, None] = None) -> np.ndarray:
    """The (n, d) standard-normal block addressed by (root, stream), as the
    randomness contract defines it, written into ``out`` (a C-contiguous
    float (n, d) array) when it is given."""
    if not 0 <= stream < 2**64:
        raise ValueError(f"stream must be in [0, 2**64), got {stream}")
    seed = np.random.SeedSequence((root, stream))
    return np.random.Generator(np.random.SFC64(seed)).standard_normal(
        (n, d), out=out)


def _draw_stream(generator: np.random.Generator, stream: int,
                 state: np.ndarray, ring: list) -> np.ndarray:
    """The block of a claimed stream, drawn on ``generator`` set to the
    stream's SFC64 ``state`` into its slot, stream mod len(ring), of the
    run's ring of (n, d) buffers."""
    generator.bit_generator.state = {
        "bit_generator": "SFC64", "state": {"state": state},
        "has_uint32": 0, "uinteger": 0,
    }
    out = ring[stream % len(ring)]
    return generator.standard_normal(out.shape, out=out)


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
    """The blocks of streams k+1 ... k+n_iters in order: the noise of a
    :func:`run_chains` run, drawn by the caller and, when
    :func:`_draws_ahead` allows it, by a helper thread.

    Each thread claims the lowest stream not yet claimed, up to
    ``DRAW_AHEAD_DEPTH`` past the one the caller is waiting for, and each
    stream is drawn once.  When the block the caller needs is not ready, it
    draws the lowest unclaimed stream itself; it waits only when every
    stream in reach is claimed.  The helper starts on the first ``next`` and
    is joined when the generator ends or is closed.  A draw that fails, on
    either thread, raises its error when its stream is reached.

    The thread claiming the first stream of a chunk computes the states of
    the chunk's (at most ``_STATE_BLOCK``) streams under the claim's lock.
    Stream s is drawn into slot s mod (depth + 1) of the ring; a slot is
    drawn again only once the window has passed its stream, that is after
    the caller asked for the next block and so is done with it.
    """
    root, n, d = batch.rng_root, batch.n_chains, batch.d
    last = batch.k + n_iters
    depth = DRAW_AHEAD_DEPTH
    ring = [np.empty((n, d)) for _ in range(depth + 1)]
    cond = threading.Condition()
    drawn: dict = {}       # stream -> its block, or the error its draw raised
    claimed = batch.k      # highest stream either thread has claimed
    window = batch.k       # highest stream that may be claimed
    states = np.empty((0, 4), dtype=np.uint64)  # of streams first, first + 1 ...
    first = batch.k + 1
    closed = False

    def claim() -> Union[tuple[int, np.ndarray], None]:
        """The next stream and its state, computing the next chunk of
        states when the stream is past the current one."""
        nonlocal claimed, states, first
        if claimed >= window:
            return None
        stream = claimed + 1
        if stream - first >= len(states):
            stop = min(stream + _STATE_BLOCK, last + 1)
            states = _stream_states(root, np.arange(stream, stop, dtype=np.uint64))
            first = stream
        claimed = stream
        return stream, states[stream - first]

    def draw(generator: np.random.Generator, stream: int,
             state: np.ndarray) -> None:
        try:
            block = _draw_stream(generator, stream, state, ring)
        except BaseException as err:
            block = err
        with cond:
            drawn[stream] = block
            cond.notify_all()
        if not isinstance(block, (np.ndarray, Exception)):
            raise block  # KeyboardInterrupt and the like do not wait

    def helper(generator: np.random.Generator) -> None:
        while True:
            with cond:
                while not closed and (mine := claim()) is None:
                    cond.wait()
                if closed:
                    return
            draw(generator, *mine)

    generator = np.random.Generator(np.random.SFC64(0))  # the caller's
    thread = None
    if _draws_ahead(n, d):
        thread = threading.Thread(
            target=helper, args=(np.random.Generator(np.random.SFC64(0)),),
            name="heavytail-draw-ahead", daemon=True)
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
                draw(generator, *mine)
            if isinstance(block, BaseException):
                raise block
            yield block
    finally:
        if thread is not None:
            with cond:
                closed = True
                cond.notify_all()
            thread.join()


def gaussian_init(
    sigma2: float, d: int, n_chains: int, h: float, seed: int
) -> ChainBatch:
    """Draw x_0 ~ N(0, sigma2 * I_d) for every chain (stream 0 of ``seed``).

    Every argument is checked before the draw.
    """
    sigma2 = _json_float(sigma2, "sigma2")
    if not (sigma2 > 0 and math.isfinite(sigma2)):
        raise InputValidationError(f"sigma2 must be positive, got {sigma2}")
    d = _at_least(d, "d", 1)
    n_chains = _at_least(n_chains, "n_chains", 1)
    seed = _at_least(seed, "seed", 0)
    batch = ChainBatch(np.empty((n_chains, d)), h=h, k=0, rng_root=seed)
    pos = batch.positions
    _noise_block(seed, 0, n_chains, d, out=pos)
    pos *= np.sqrt(sigma2)
    return batch


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

    ``noise``, when given, must be the float64 block of stream k+1 (drawn
    ahead by :func:`run_chains`); it is scaled in place.  Otherwise the block
    is drawn here.  A batch at k = 2**64 - 1, whose next stream would be
    2**64, is refused.
    """
    if spec.d != batch.d:
        raise InputValidationError(
            f"spec dimension {spec.d} does not match batch dimension {batch.d}"
        )
    if batch.k >= 2**64 - 1:
        raise InputValidationError(
            f"batch at k = {batch.k} has no noise stream k + 1 below 2**64")
    x = batch.positions
    h = batch.h
    if noise is None:
        xi = _noise_block(batch.rng_root, batch.k + 1, batch.n_chains, batch.d)
    elif not isinstance(noise, np.ndarray):
        raise InputValidationError(
            f"noise block must be a numpy array, got {type(noise).__name__}")
    elif noise.shape != x.shape or noise.dtype != np.float64:
        raise InputValidationError(
            f"noise block is {noise.dtype} of shape {noise.shape}, positions "
            f"float64 of shape {x.shape}")
    else:
        xi = noise
    # grad_potential returns a fresh array, so the update may overwrite it
    new = _euler_update(x, grad_potential(spec, x), h, xi)
    _check_divergence(new, batch.k + 1)
    return batch._advanced(new)


def _mean_se(v: np.ndarray) -> tuple[float, float]:
    """(v.mean(), v.std(ddof=1) / sqrt(n)) of a 1-D float array, with one
    sum for both (se is 0 for a single value).

    The operations are numpy's ``_mean`` and ``_var`` in their order: sum,
    divide by n, subtract, square in place, sum, divide by n - 1, then the
    square root, divided by sqrt(n); so the floats are the same.
    """
    n = v.shape[0]
    mean = np.add.reduce(v) / n
    if n < 2:
        return float(mean), 0.0
    dev = v - mean
    np.square(dev, out=dev)
    var = np.add.reduce(dev) / (n - 1)
    return float(mean), math.sqrt(var) / math.sqrt(n)


def run_chains(
    spec: PotentialSpec,
    init: ChainBatch,
    n_iters: int,
    record_every: int = 1,
    stop_below: Union[float, None] = None,
) -> MomentTrace:
    """Run the batch for ``n_iters`` iterations, recording second moments.

    Iteration 0 (the initial state) and every multiple of ``record_every``
    are recorded, as is the final iteration reached.  When ``stop_below`` (a
    finite real) is given, the run ends at the first recorded iteration whose
    upper confidence value m2 + 2 se falls below it (that iteration is
    recorded and ``stopped_early`` is set).

    The noise of stream k+1 reaches :func:`lmc_step` through ``noise=``,
    from :func:`_blocks_ahead`: drawn by one helper thread and by this one
    when :func:`_draws_ahead` allows it, else by this one alone.  The bytes
    are the same either way, and no thread is left running when the call
    returns or raises.  A run whose last stream, k + n_iters, would pass
    2**64 - 1 is refused before its first step.

    Returns
    -------
    MomentTrace
        With per-recorded-iteration paired one-step increments and the final
        chain positions attached.
    """
    n_iters = _at_least(n_iters, "n_iters", 0)
    if init.k + n_iters > 2**64 - 1:
        raise InputValidationError(
            f"a run of {n_iters} steps from k = {init.k} passes the last "
            f"noise stream, 2**64 - 1")
    record_every = _at_least(record_every, "record_every", 1)
    if stop_below is not None:
        stop_below = _json_float(stop_below, "stop_below")
        if not math.isfinite(stop_below):
            raise InputValidationError(f"stop_below must be finite, got {stop_below}")

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

    blocks = _blocks_ahead(init, n_iters)  # a helper starts with the first step
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
        blocks.close()
    return trace(final_positions=batch.positions, stopped_early=stopped)


def write_trace_csv(trace: MomentTrace, path: str) -> None:
    """Write ``iter,m2,se,n_chains`` rows; formatting is deterministic."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "m2", "se", "n_chains"])
        for i, m2, se in zip(trace.iters, trace.m2, trace.se):
            writer.writerow([int(i), f"{m2:.12g}", f"{se:.12g}", trace.n_chains])
