"""Exponential populations and reproducible sampling of their sums.

The experiment: k independent exponential populations with hazard rates
sigma_1..sigma_k, a sample of size n from each, sufficient sums
Y_i = sum_j Y_ij (gamma distributed with integer shape n and rate sigma_i).
Selecting the largest sum and estimating the selected hazard sigma_J from
these sums is the estimators module's work.

Sampling is counter based. Every uniform is a hash of
(seed, stream_id, replication, population, observation), so a replication's
draws depend only on those labels and never on which replications were
computed before it. That is what makes Monte Carlo results independent of
the order in which blocks are drawn, and it is a hard contract: the counter
layout below must not change. The memory order in which the counters are
hashed and summed is free, and _sum_blocks lays them out population-major
so that the sum over the sample is a few whole-chunk vector additions.
Those additions follow numpy's pairwise summation order (_pairwise_sum),
so the sums have the bits of a row-wise numpy sum.

Memory is free too, since no uniform depends on which buffer held the one
before it. The counter ramp of a full chunk is built once per (n, k) and
cached read-only (_chunk_ramp), and each thread keeps one _Workspace whose
block-sized buffers the Monte Carlo engine reuses across blocks and calls,
so a steady run allocates no block-sized array but its result.
"""

from __future__ import annotations

import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_2 = _U64(0x94D049BB133111EB)
_STREAM_SALT = _U64(0xD1B54A32D192ED03)

# Draws per sampler chunk: three uint64 buffers of this length (384 KiB in
# all) serve every chunk of a block. Only speed depends on it, not the bits.
_CHUNK_DRAWS = 16384

# A workspace buffer larger than this is handed out but not kept.
_KEEP_BYTES = 1 << 20


class _Workspace(threading.local):
    """One thread's reusable buffers, one per role, each grown on demand.

    take(role, shape) returns a view of the role's buffer, which the next
    take of that role on this thread overwrites; a caller copies out what
    must outlive it. Scratch that never leaves a function (the sampler's
    two hash buffers, the logs of _entropy_losses) always comes from here;
    results do only when the Monte Carlo engine passes them as out=, and
    _assemble copies each block out, so no buffer escapes an engine call.

    Memory: a buffer above _KEEP_BYTES (1 MiB) is not kept, so a thread
    holds at most 1 MiB per role. The roles are the hash work and scratch
    (8 * max(_CHUNK_DRAWS, k * n) bytes each, 128 KiB up to k * n = 16384),
    a block's (k, 4096) sums and its (rows, 4096) estimates and logs, so
    256 KiB + 32 KiB * (k + 2 * rows) in all: 544 KiB at k = 5 with two
    estimators, 640 KiB at k = 2 with five.
    """

    def __init__(self) -> None:
        self.buffers: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        buf = self.buffers.get(role)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = np.empty(size, dtype)
            if buf.nbytes <= _KEEP_BYTES:
                self.buffers[role] = buf
        return buf[:size].reshape(shape)


_WORKSPACE = _Workspace()


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, in place on z with tmp as scratch of z's shape;
    # uint64 wrap-around is the whole point here.
    for shift, mult in ((_U64(30), _MIX_1), (_U64(27), _MIX_2)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= mult
    np.right_shift(z, _U64(31), out=tmp)
    z ^= tmp
    return z


def _stream_key(seed: int, stream_id: int) -> np.uint64:
    # _mix64 on Python ints: two hashes per call cost less than numpy's
    # per-operation overhead on one-element arrays.
    def mix(z: int) -> int:
        z = ((z ^ (z >> 30)) * int(_MIX_1)) % 2**64
        z = ((z ^ (z >> 27)) * int(_MIX_2)) % 2**64
        return z ^ (z >> 31)

    h = mix((seed + int(_GOLDEN)) % 2**64)
    return _U64(mix(h ^ ((stream_id + int(_STREAM_SALT)) % 2**64)))


def _uniforms(
    key: np.uint64, first: int, ramp: np.ndarray, work: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """Uniforms for the counters first + d, one per entry of ramp.

    The hash input of counter c is key + (c + 1) * _GOLDEN mod 2**64, so
    ramp holds (d + 1) * _GOLDEN for each counter's offset d from first,
    in whatever order the caller wants the uniforms, and one addition of
    key + first * _GOLDEN gives every input. work and scratch are
    contiguous uint64 buffers of ramp's shape; the result is scratch
    viewed as float64.
    Top 53 bits m, as (m + 0.5) * 2**-53: values lie in (0, 1], so log(u)
    is always finite. Past m = 2**52 the half rounds to even, and the top
    value m = 2**53 - 1 gives exactly 1.0, a zero exponential draw.
    """
    np.add(ramp, _U64((int(key) + first * int(_GOLDEN)) % 2**64), out=work)
    _mix64(work, scratch)
    work >>= _U64(11)
    u = scratch.view(np.float64)
    # Exact: every value is below 2**53, so the int64 view holds the same
    # value, and numpy converts int64 to float64 faster than uint64.
    np.copyto(u, work.view(np.int64), casting="unsafe")
    u += 0.5
    u *= 2.0**-53
    return u


@dataclass(frozen=True)
class RngSpec:
    """Seed and stream label for the counter-based generator."""

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for label, value in (("seed", self.seed), ("stream_id", self.stream_id)):
            # A bool is an Integral too, but True is no label.
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{label} must be an integer, got {value!r}")
            if not (0 <= int(value) < 2**64):
                raise DomainError(f"{label} must fit in 64 unsigned bits, got {value}")
            object.__setattr__(self, label, int(value))


def _check_n(n: int) -> None:
    try:  # an int past the float range fails here, before any range(n) loop
        valid = float(n).is_integer() and n >= 2
    except OverflowError:
        bits = n.bit_length()
        raise DomainError(f"sample size n must be below 2**1024, got {bits} bits") from None
    if not valid:
        raise DomainError(f"sample size n must be an integer >= 2, got {n}")


@dataclass(frozen=True)
class PopulationSet:
    """k exponential populations with a common per-population sample size n.

    rates are the hazard rates sigma_i (units 1/time); k is implied by
    their number.
    """

    n: int
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rates", tuple(float(r) for r in self.rates))
        if len(self.rates) < 2:
            raise DomainError(f"need at least 2 populations, got {len(self.rates)}")
        _check_n(self.n)
        object.__setattr__(self, "n", int(self.n))
        for r in self.rates:
            if not (0 < r < math.inf):  # NaN fails it too
                raise DomainError(f"every rate must be finite and positive, got {r}")

    @property
    def k(self) -> int:
        return len(self.rates)


def _pairwise_sum(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sum over axis 0 in numpy's pairwise order, into out (default a[0]).

    The order of numpy's pairwise_sum on one row of terms, applied to
    whole rows at once: below 8 terms a sequential sum; up to 128, eight
    accumulators combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) and the
    rest added in order; above that, a split at n//2 rounded down to a
    multiple of 8 and a sum of the two halves' sums. So the result is bit
    for bit np.add.reduce over each column of a, except that numpy starts
    from +0.0 and so turns a sum of only -0.0 terms into +0.0. The rows of
    a serve as accumulators and are overwritten.
    """
    n, acc = len(a), a[0]
    if out is None:
        out = acc
    if n > 128:
        half = n // 2 - (n // 2) % 8
        return np.add(_pairwise_sum(a[:half]), _pairwise_sum(a[half:]), out=out)
    if n < 8:
        tail = range(1, n)
    else:
        for i in range(8, n - n % 8, 8):
            a[:8] += a[i : i + 8]
        a[0:8:2] += a[1:8:2]
        a[0:8:4] += a[2:8:4]
        tail = (4, *range(n - n % 8, n))
    for i in tail:
        acc = np.add(acc, a[i], out=out)
    if acc is not out:
        out[...] = acc
    return out


def _ramp(n: int, k: int, m: int) -> np.ndarray:
    """(d + 1) * _GOLDEN for the counter offsets d of m replications,
    shape (n, k, m): entry (j, i, r) has d = (r * k + i) * n + j, so the
    first m' < m replications' ramp is the view [:, :, :m']."""
    # (d + 1) * _GOLDEN = ((r * k + i) * n + 1) * _GOLDEN + j * _GOLDEN mod
    # 2**64, so only the (k, m) first term is multiplied out.
    first = np.arange(m, dtype=_U64)
    first *= _U64(k * n)
    first = first + np.arange(1, k * n + 1, n, dtype=_U64)[:, None]
    first *= _GOLDEN
    steps = np.arange(n, dtype=_U64)
    steps *= _GOLDEN
    return first + steps[:, None, None]


@functools.lru_cache(maxsize=16)
def _chunk_ramp(n: int, k: int) -> np.ndarray:
    """The read-only ramp of one full chunk, max(1, _CHUNK_DRAWS // (k * n))
    replications, built once per (n, k); a shorter chunk uses its leading
    view. Each entry holds at most 8 * max(_CHUNK_DRAWS, k * n) bytes."""
    ramp = _ramp(n, k, max(1, _CHUNK_DRAWS // (k * n)))
    ramp.flags.writeable = False
    return ramp


def _is_integral(x) -> bool:
    """Whether x is an int, a numpy integer or an integral float; a bool is
    not. An int is never converted to float, so a count beyond the float
    range reaches _check_counter and its DomainError."""
    if isinstance(x, bool):
        return False
    if isinstance(x, numbers.Integral):
        return True
    return isinstance(x, (float, np.floating)) and float(x).is_integer()


def _check_counter(rep_start: int, rep_end: int, k: int, n: int) -> None:
    """Reject replications [rep_start, rep_end) whose last draw counter,
    rep_end * k * n - 1, would not fit in 64 bits: wrapping would silently
    repeat another replication's draws. Pure arithmetic, so a caller can
    check a whole run before it allocates anything for it."""
    if rep_end * k * n > 2**64:
        raise DomainError(
            f"replications [{rep_start}, {rep_end}) overflow the 64-bit "
            f"draw counter at k={k}, n={n}"
        )


def _sum_blocks(
    n: int,
    rates: np.ndarray,
    rng: RngSpec,
    rep_start: int,
    count: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Sums Y_i for replications [rep_start, rep_start + count), shape (count, k).

    Counter layout: (replication * k + population) * n + observation.
    Frozen; see the module docstring. The counters of the block run
    consecutively from rep_start * k * n. A range whose last counter would
    not fit in 64 bits is rejected: wrapping would silently repeat another
    replication's draws.

    Every uniform is a pure function of its counter, so the block is drawn
    in chunks of whole replications, about _CHUNK_DRAWS draws each. A chunk
    of m replications is hashed in (observation, population, replication)
    memory order, so each observation j is one row of k * m draws and the
    sum over the sample is n - 1 additions of whole rows, in numpy's
    pairwise order. The sums go into a (k, count) array, out if given (the
    engine passes a workspace buffer) and else a new one, and the result is
    its transpose: F-ordered, one contiguous row per population. Working
    memory is three uint64 buffers of up to max(_CHUNK_DRAWS, k * n) entries,
    none allocated per call: the counter ramp of a full chunk, cached per
    (n, k) up to k * n = _CHUNK_DRAWS, whose leading view serves short
    chunks and blocks, and the hash work and scratch of this thread's
    _Workspace. So at most 24 * max(_CHUNK_DRAWS, k * n) bytes beyond the
    result, whatever count is.
    """
    k = len(rates)
    _check_counter(rep_start, rep_start + count, k, n)
    key = _stream_key(rng.seed, rng.stream_id)
    ramp = _chunk_ramp(n, k) if k * n <= _CHUNK_DRAWS else _ramp(n, k, 1)
    per_chunk = min(count, ramp.shape[2])
    work = _WORKSPACE.take("work", (per_chunk * k * n,), _U64)
    scratch = _WORKSPACE.take("scratch", (per_chunk * k * n,), _U64)
    # log(u) / -r is -log(u) / r to the bit: IEEE division is symmetric in sign.
    neg_rates = -rates[:, None]
    if out is None:
        out = np.empty((k, count))
    for s in range(0, count, per_chunk):
        m = min(per_chunk, count - s)
        size = m * k * n
        u = _uniforms(
            key,
            (rep_start + s) * k * n,
            ramp[:, :, :m],
            work[:size].reshape(n, k, m),
            scratch[:size].reshape(n, k, m),
        )
        # Exponential draws summed over the sample: the exact gamma(n, rate)
        # construction for integer n, no rejection step.
        np.log(u, out=u)
        u /= neg_rates
        _pairwise_sum(u, out=out[:, s : s + m])
    return out.T


def draw_sums(pop: PopulationSet, rng: RngSpec, replication: int) -> tuple[float, ...]:
    """The k sufficient sums for one labelled replication.

    Pure in (seed, stream_id, replication): identical labels give
    identical sums on every platform.
    """
    if not _is_integral(replication) or replication < 0:
        raise DomainError(f"replication must be a nonnegative integer, got {replication}")
    block = _sum_blocks(pop.n, np.asarray(pop.rates), rng, int(replication), 1)
    return tuple(float(v) for v in block[0])
