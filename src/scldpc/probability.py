"""Product measure, linear-form events and exact activation probabilities.

With every edge's spreading value drawn independently from the scheme's
distribution and every lift shift uniform on [0, Z), a candidate walk is
*active* when its signed coefficient sum hits zero (over the integers for
spreading, mod Z for lifting).

One representation serves every sampler and activity count in the package
(the resampler, baseline, shift harness, CLI audit):

* a ``Sampler`` draws integer values with exact integer weights;
  ``scheme_sampler`` is the spreading distribution and ``uniform(z)`` the
  lift shifts;
* a stage layout (``stage_blocks``) is an ordered tuple of blocks
  ``(sampler, modulus)``, modulus 0 meaning over the integers: partition is
  (P,), lift is (L,), joint is (P, L).  With n edges, block b owns
  variables b*n ... b*n+n-1, one per edge.  ``stage_prob`` is a walk's
  exact activation probability under the same stage's draw;
* ``stage_forms`` compiles walks into their linear forms (``forms``:
  variable indices, coefficients, modulus; one per block, constant-true
  ones dropped); ``vanish`` evaluates them, ``draw`` (re)draws variables.

This module is also the one owner of the random stream: ``rng`` builds the
package's generator, ``seed_sequence`` its seed streams, ``seed_int`` the
integer seeds derived from them and ``recorded_seed`` the seed a run
records.  The stream is numpy's ``default_rng`` reproduced bit for bit in
pure Python, so nothing in the package imports numpy: ``SeedSequence``
hash-mixes the entropy and spawn key into a four-word pool, ``Generator``
is PCG64 (a 128-bit LCG with XSL-RR output, O'Neill 2014) and its
``integers`` bounds the words by Lemire's method exactly as numpy's int64
fill does.

Both probabilities are computed exactly as rationals:

* spreading: convolve the per-edge distributions of coeff * value and read
  off the mass at zero.  The convolution runs on integer weights over the
  common denominator D of the probabilities (mass at zero = count / D**n
  for n edges) and is memoised per (sorted nonzero coefficients, pattern,
  probs), so repeated candidates and schemes that differ only in L or Z
  cost one lookup;
* lifting: the coefficient form c . L mod Z is uniform on the subgroup
  d * Z_Z where d = gcd(coefficients, Z), so the mass at zero is
  gcd(c_1, ..., c_n, Z) / Z.

The closed form for a 4-cycle under the full uniform pattern
(0, 1, ..., m), each edge equally likely,

    P = (2 m^2 + 4 m + 3) / (3 (m + 1)^3),

is reproduced (and unit-tested) against the generic convolution.
"""

from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from typing import Any, Callable, Iterable, Optional, Sequence, Union

from .model import CouplingScheme, Edge, frac_text, record
from .walks import WalkCandidate

# (variable indices, coefficients, modulus); modulus 0 means over the integers.
Form = tuple[tuple[int, ...], tuple[int, ...], int]

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
# numpy's SeedSequence: pool words and hash-mix constants.
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = (0x43B0D7E5, 0x931E8875,
                                      0x8B51F9DD, 0x58F38DED)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
# PCG64's default 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(x: Any) -> list[int]:
    """numpy's coercion of an entropy or spawn key to uint32 words: an
    integer is its little-endian words (0 is [0]), a sequence the
    concatenation of its items' words; anything else (a string, a float)
    is a TypeError."""
    try:
        n = operator.index(x)
    except TypeError:
        if isinstance(x, str) or not hasattr(x, "__iter__"):
            raise TypeError(
                "a seed must be an integer or a sequence of them") from None
        return [w for item in x for w in _words(item)]
    if n < 0:
        raise ValueError(f"a seed must be a non-negative integer, got {n}")
    out = [n & _M32]
    while n := n >> 32:
        out.append(n & _M32)
    return out


def _hashmix(v: int, h: int) -> tuple[int, int]:
    """numpy's hashmix of word v under hash constant h: (word, next h)."""
    v ^= h
    h = h * _MULT_A & _M32
    v = v * h & _M32
    return v ^ v >> 16, h


def _mix(x: int, y: int) -> int:
    r = (_MIX_L * x - _MIX_R * y) & _M32
    return r ^ r >> 16


def _absorb(pool: tuple[int, ...], h: int,
            words: Iterable[int]) -> tuple[tuple[int, ...], int]:
    """Mix words past the first ``_POOL`` into the pool, one at a time:
    (pool, hash constant) after them."""
    pool = list(pool)
    for w in words:
        for dst in range(_POOL):
            v, h = _hashmix(w, h)
            pool[dst] = _mix(pool[dst], v)
    return tuple(pool), h


class SeedSequence:
    """numpy's ``SeedSequence(entropy, spawn_key=spawn_key)`` with the
    default pool size: the same pool, so the same ``generate_state``.

    The key words are mixed in after the entropy, one at a time, so a
    stream keeps its hash constant and the child streams that
    ``seed_sequence`` derives from it mix only their own key words."""

    __slots__ = ("entropy", "spawn_key", "pool", "_h")

    def __init__(self, entropy: Any, spawn_key: Sequence[int] = ()) -> None:
        self.entropy = entropy
        self.spawn_key = tuple(spawn_key)
        # The entropy is padded to the pool before the key: reading a
        # missing word as 0 does the same without a key.
        words, h, pool = _words(entropy), _INIT_A, []
        for i in range(_POOL):
            v, h = _hashmix(words[i] if i < len(words) else 0, h)
            pool.append(v)
        for src in range(_POOL):
            for dst in range(_POOL):
                if src != dst:
                    v, h = _hashmix(pool[src], h)
                    pool[dst] = _mix(pool[dst], v)
        self.pool, self._h = _absorb(
            pool, h, words[_POOL:] + _words(self.spawn_key))

    def _child(self, spawn_key: tuple[int, ...]) -> "SeedSequence":
        """``SeedSequence(entropy, self.spawn_key + spawn_key)``, mixing
        only the new key words into this stream's pool."""
        child = SeedSequence.__new__(SeedSequence)
        child.entropy = self.entropy
        child.spawn_key = self.spawn_key + spawn_key
        child.pool, child._h = _absorb(self.pool, self._h, _words(spawn_key))
        return child

    def generate_state(self, n_words: int) -> list[int]:
        """numpy's ``generate_state(n_words, np.uint64)``: each 64-bit word
        is two 32-bit draws from the cycled pool, low half first."""
        h = _INIT_B
        halves = []
        for i in range(2 * n_words):
            v = self.pool[i % _POOL] ^ h
            h = h * _MULT_B & _M32
            v = v * h & _M32
            halves.append(v ^ v >> 16)
        return [lo | hi << 32 for lo, hi in zip(halves[::2], halves[1::2])]


# An integer seed, or a SeedSequence stream of one (this module's or
# numpy's: anything with ``entropy`` and ``spawn_key``).
SeedLike = Union[int, SeedSequence]


class Generator:
    """numpy's ``Generator(PCG64(seed))`` for what the package draws:
    ``integers`` over int64.  Like numpy, ``_half`` keeps the upper half of
    a 64-bit output that a 32-bit draw left unused, across calls."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: SeedSequence) -> None:
        s_hi, s_lo, i_hi, i_lo = seed.generate_state(4)
        self._inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
        self._state = (((self._inc + (s_hi << 64 | s_lo)) * _PCG_MULT
                         + self._inc) & _M128)
        self._half: Optional[int] = None

    def _next64(self) -> int:
        """Step the LCG and return the XSL-RR output of the new state."""
        s = self._state = (self._state * _PCG_MULT + self._inc) & _M128
        v = (s >> 64 ^ s) & _M64
        r = s >> 122
        return (v >> r | v << (64 - r)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            w, self._half = self._half, None
            return w
        w = self._next64()
        self._half = w >> 32
        return w & _M32

    def integers(self, low: int, high: int, size: int) -> list[int]:
        """``size`` draws uniform on [low, high): numpy's
        ``integers(low, high, size)`` with dtype int64.  numpy's fill draws
        nothing when the range holds one value, 32-bit words when it holds
        at most 2**32 and 64-bit words otherwise.  Its raw-word branches
        for a range of exactly 2**32 or 2**64 values are Lemire's method
        at excl = 2**bits, which keeps every word, so they need no code of
        their own here."""
        if low < -(1 << 63) or high > 1 << 63:
            raise ValueError("bounds out of range for int64")
        if low >= high:
            raise ValueError("high <= 0" if low == 0 else "low >= high")
        excl = high - low
        if excl == 1:
            return [low] * size
        if excl <= 1 << 32:
            return _lemire(self._next32, 32, excl, low, size)
        return _lemire(self._next64, 64, excl, low, size)


def _lemire(word: Callable[[], int], bits: int, excl: int, low: int,
            n: int) -> list[int]:
    """n draws uniform on [low, low + excl) by Lemire's multiply-and-reject
    (Lemire 2019): the high bits of word() * excl, rejecting a product
    whose low bits fall below 2**bits mod excl."""
    mask = (1 << bits) - 1
    threshold = (1 << bits) % excl
    out = []
    for _ in range(n):
        m = word() * excl
        while (m & mask) < threshold:
            m = word() * excl
        out.append(low + (m >> bits))
    return out


def rng(seed: SeedLike) -> Generator:
    """The package's random stream: what ``numpy.random.default_rng(seed)``
    draws."""
    return Generator(seed_sequence(seed))


def seed_sequence(seed: SeedLike, *spawn_key: int) -> SeedSequence:
    """The independent stream ``spawn_key`` of ``seed``: SeedSequence(seed,
    spawn_key=spawn_key) for an integer seed, the key appended to a
    SeedSequence's own.  The argument is never changed."""
    if not hasattr(seed, "spawn_key"):
        return SeedSequence(seed, spawn_key)
    if getattr(seed, "pool_size", _POOL) != _POOL:
        raise ValueError(f"SeedSequence pool size must be {_POOL}")
    if isinstance(seed, SeedSequence):
        return seed._child(spawn_key) if spawn_key else seed
    return SeedSequence(seed.entropy, tuple(seed.spawn_key) + spawn_key)


def recorded_seed(seed: SeedLike) -> Optional[int]:
    """The seed a run records: the integer itself (any integer type), or
    None for a SeedSequence stream."""
    try:
        return operator.index(seed)
    except TypeError:
        return None


def seed_int(seed: SeedLike) -> int:
    """One 64-bit integer seed drawn from the stream's entropy pool."""
    return seed_sequence(seed).generate_state(1)[0]


def _int_weights(probs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, weights): each prob as an integer weight over the common
    denominator D of all of them."""
    denom = math.lcm(*(p.denominator for p in probs))
    return denom, [p.numerator * (denom // p.denominator) for p in probs]


class Sampler:
    """Exact sampler: ``values[k]`` with probability
    (cum[k] - cum[k - 1]) / total, for cumulative integer weights ``cum``."""

    def __init__(self, values: Sequence[int], cum: Sequence[int]) -> None:
        self.values = values
        self.cum = cum
        self.total = cum[-1]
        if self.total >= 1 << 63:
            raise OverflowError("total weight must be below 2**63")

    def __len__(self) -> int:
        return len(self.values)

    def draw(self, rng: Generator, n: int) -> list[int]:
        values, cum = self.values, self.cum
        return [values[bisect_right(cum, u)]
                for u in rng.integers(0, self.total, n)]


# (sampler, modulus): one variable per edge, drawn by the sampler.
Block = tuple[Sampler, int]


def scheme_sampler(scheme: CouplingScheme) -> Sampler:
    return Sampler(scheme.pattern,
                   tuple(accumulate(_int_weights(scheme.probs)[1])))


def uniform(z: int) -> Sampler:
    """Uniform on range(z); draws exactly what rng.integers(0, z, n) draws.
    Both tables are ranges, so its size does not grow with z."""
    return Sampler(range(z), range(1, z + 1))


def stage_blocks(scheme: CouplingScheme, stage: str) -> tuple[Block, ...]:
    """The stage layout: partition (P,), lift (L,), joint (P, L)."""
    z = scheme.lifting_degree
    if stage == "partition":
        return ((scheme_sampler(scheme), 0),)
    if stage == "lift":
        return ((uniform(z), z),)
    if stage == "joint":
        return ((scheme_sampler(scheme), 0), (uniform(z), z))
    raise ValueError(f"unknown stage {stage!r}")


def stage_prob(cand: WalkCandidate, scheme: CouplingScheme,
               stage: str) -> Fraction:
    """Exact probability that the walk is active after the stage's draw."""
    if stage == "partition":
        return spreading_prob_exact(cand, scheme)
    if stage == "lift":
        return lift_prob_exact(cand, scheme.lifting_degree)
    if stage == "joint":
        return joint_prob(cand, scheme).joint
    raise ValueError(f"unknown stage {stage!r}")


def edge_index(edges: Sequence[Edge]) -> dict[Edge, int]:
    return {e: n for n, e in enumerate(edges)}


def forms(cand: WalkCandidate, index: dict[Edge, int],
          blocks: Sequence[Block]) -> tuple[Form, ...]:
    """The walk's linear form in each block, constant-true ones dropped: a
    one-value sampler (the coefficients of a closed walk sum to zero), or
    every coefficient 0 mod the modulus."""
    out = []
    for b, (sampler, modulus) in enumerate(blocks):
        terms = [(b * len(index) + index[e], c % modulus if modulus else c)
                 for e, c in cand.coeffs]
        terms = [t for t in terms if t[1] != 0]
        if len(sampler) > 1 and terms:
            out.append((*zip(*terms), modulus))
    return tuple(out)


def stage_forms(edges: Sequence[Edge], cands: Iterable[WalkCandidate],
                scheme: CouplingScheme, stage: str
                ) -> tuple[tuple[Block, ...], tuple[tuple[Form, ...], ...]]:
    """The stage layout over ``edges`` and each candidate's forms in it."""
    blocks, index = stage_blocks(scheme, stage), edge_index(edges)
    return blocks, tuple(forms(c, index, blocks) for c in cands)


def vanish(fs: Sequence[Form], values: Sequence[int]) -> bool:
    """Does every form vanish (over the integers, or mod its modulus)?"""
    for var_idx, coeffs, modulus in fs:
        total = 0
        for v, c in zip(var_idx, coeffs):
            total += c * values[v]
        if (total % modulus if modulus else total) != 0:
            return False
    return True


def draw(rng: Generator, blocks: Sequence[Block], n: int,
         values: Optional[list[int]] = None,
         scope: Sequence[int] = ()) -> list[int]:
    """Draw all n * len(blocks) variables, or, given ``values``, redraw the
    sorted ``scope`` in place.  Either way each block with variables to
    draw makes one sampler call, in block order."""
    if values is None:
        values = [0] * (n * len(blocks))
        scope = range(len(values))
    for b, (sampler, _) in enumerate(blocks):
        lo, hi = bisect_left(scope, b * n), bisect_left(scope, (b + 1) * n)
        if lo < hi:
            for k, v in zip(scope[lo:hi], sampler.draw(rng, hi - lo)):
                values[k] = v
    return values


@functools.lru_cache(maxsize=1024)
def _zero_mass_of_sum(coeffs: tuple[int, ...], pattern: tuple[int, ...],
                      probs: tuple[Fraction, ...]) -> Fraction:
    """P[sum of coeff*value = 0] for independent pattern-distributed values.

    ``coeffs`` lists the nonzero coefficients, one per independent edge.
    Each prob is an integer weight over the common denominator D, so the
    convolution counts in integers and the mass at zero is count / D**n.
    """
    denom, int_weights = _int_weights(probs)
    weights = list(zip(pattern, int_weights))
    dist: dict[int, int] = {0: 1}
    for coef in coeffs:
        nxt: dict[int, int] = {}
        for s, w in dist.items():
            for a, q in weights:
                key = s + coef * a
                nxt[key] = nxt.get(key, 0) + w * q
        dist = nxt
    return Fraction(dist.get(0, 0), denom ** len(coeffs))


def spreading_prob_exact(cand: WalkCandidate,
                         scheme: CouplingScheme) -> Fraction:
    """Exact probability that the walk survives random edge spreading."""
    if not cand.coeffs:
        raise ValueError("candidate has no edges")
    # Convolution commutes, so the sorted nonzero coefficients are an exact
    # cache key; L and Z do not enter, so schemes differing only there share.
    coeffs = tuple(sorted(c for _, c in cand.coeffs if c != 0))
    return _zero_mass_of_sum(coeffs, scheme.pattern, scheme.probs)


def spreading_prob_c4_uniform(memory: int) -> Fraction:
    """Closed form for a 4-cycle under the uniform full pattern."""
    if memory < 0:
        raise ValueError("memory must be non-negative")
    m = memory
    return Fraction(2 * m * m + 4 * m + 3, 3 * (m + 1) ** 3)


def lift_prob_exact(cand: WalkCandidate, z: int) -> Fraction:
    """Exact probability that the walk survives a uniform random lift."""
    if z < 1:
        raise ValueError("lifting degree must be at least 1")
    if not cand.coeffs:
        raise ValueError("candidate has no edges")
    g = z
    for _, c in cand.coeffs:
        g = math.gcd(g, c)
    return Fraction(g, z)


def lift_prob_bound(cycle_lengths: Sequence[int], z: int) -> Fraction:
    """Upper bound prod len(c_i) / (4 Z)^{n} over the fundamental cycles.

    For a single 2g-walk the bound is 2g / (4 Z); for an avoidable walk it
    dominates the exact gcd value because the gcd of the nonzero
    coefficients never exceeds g/2.  Can exceed 1 for tiny Z; consumers
    report min(1, bound).
    """
    if z < 1:
        raise ValueError("lifting degree must be at least 1")
    if not cycle_lengths:
        raise ValueError("need at least one cycle")
    if any(n < 4 for n in cycle_lengths):
        raise ValueError("cycle lengths must be at least 4")
    num = 1
    for n in cycle_lengths:
        num *= n
    return Fraction(num, (4 * z) ** len(cycle_lengths))


@record(frozen=True)
class ActivationProbability:
    """Exact spread/lift survival probabilities for one candidate."""

    spread: Fraction
    lift: Fraction
    lift_bound: Fraction

    @property
    def joint(self) -> Fraction:
        return self.spread * self.lift


def joint_prob(cand: WalkCandidate,
               scheme: CouplingScheme) -> ActivationProbability:
    """Spread and lift probabilities (independent stages, so they multiply)."""
    return ActivationProbability(
        spread=spreading_prob_exact(cand, scheme),
        lift=lift_prob_exact(cand, scheme.lifting_degree),
        lift_bound=lift_prob_bound([cand.two_g], scheme.lifting_degree),
    )


def probability_report(cands: Sequence[WalkCandidate],
                       scheme: CouplingScheme) -> str:
    """CSV batch report: exact rationals as "num/den" plus float columns."""
    lines = ["key,two_g,spread,spread_float,lift,lift_float,"
             "lift_bound,joint,joint_float"]
    for c in cands:
        p = joint_prob(c, scheme)
        capped = min(Fraction(1), p.lift_bound)
        lines.append(",".join([
            c.key, str(c.two_g),
            frac_text(p.spread), repr(float(p.spread)),
            frac_text(p.lift), repr(float(p.lift)),
            frac_text(capped),
            frac_text(p.joint), repr(float(p.joint)),
        ]))
    return "\n".join(lines) + "\n"
