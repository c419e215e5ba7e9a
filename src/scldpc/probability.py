"""Product measure, linear-form events and exact activation probabilities.

With every edge's spreading value drawn independently from the scheme's
distribution and every lift shift uniform on [0, Z), a candidate walk is
*active* when its signed coefficient sum hits zero (over the integers for
spreading, mod Z for lifting).

One representation serves every sampler and evaluator in the package (the
resampler, the baseline and shift harness, the Monte Carlo estimator):

* a ``Sampler`` draws integer values with exact integer weights;
  ``scheme_sampler`` is the spreading distribution and ``uniform(z)`` the
  lift shifts;
* a stage layout (``stage_blocks``) is an ordered tuple of blocks
  ``(sampler, modulus)``, modulus 0 meaning over the integers: partition is
  (P,), lift is (L,), joint is (P, L).  With n edges, block b owns
  variables b*n ... b*n+n-1, one per edge.  ``stage_prob`` is a walk's
  exact activation probability under the same stage's draw;
* ``forms`` turns a walk into its linear forms (variable indices,
  coefficients, modulus), one per block, dropping the constant-true ones;
  ``vanish`` evaluates them, and ``draw`` draws or redraws variables.

This module is also the one owner of numpy and of the random stream:
``rng`` builds the package's generator, ``seed_sequence`` its seed
streams, ``seed_int`` the integer seeds derived from them and
``recorded_seed`` the seed a run records.  numpy is imported by the first
three and by ``Sampler``, so only code that draws or seeds loads it; the
exact probabilities below never do.

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
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence, Union

from .model import CouplingScheme, Edge, frac_text
from .walks import WalkCandidate

if TYPE_CHECKING:
    import numpy as np

# (variable indices, coefficients, modulus); modulus 0 means over the integers.
Form = tuple[tuple[int, ...], tuple[int, ...], int]

# An integer seed, or a numpy SeedSequence stream of one.
SeedLike = Union[int, "np.random.SeedSequence"]


def rng(seed: SeedLike) -> np.random.Generator:
    """The package's random stream: numpy's default generator."""
    import numpy as np
    return np.random.default_rng(seed)


def seed_sequence(seed: SeedLike, *spawn_key: int) -> np.random.SeedSequence:
    """SeedSequence(seed, spawn_key=spawn_key), the independent stream
    ``spawn_key`` of ``seed``; a SeedSequence without a key is returned as
    it is."""
    import numpy as np
    if isinstance(seed, np.random.SeedSequence) and not spawn_key:
        return seed
    return np.random.SeedSequence(seed, spawn_key=spawn_key)


def recorded_seed(seed: SeedLike) -> Optional[int]:
    """The seed a run records: the integer itself (any integer type), or
    None for a SeedSequence stream."""
    try:
        return operator.index(seed)
    except TypeError:
        return None


def seed_int(seed: np.random.SeedSequence) -> int:
    """One 64-bit integer seed drawn from the stream's entropy pool."""
    import numpy as np
    return int(seed.generate_state(1, np.uint64)[0])


def _int_weights(probs: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(D, weights): each prob as an integer weight over the common
    denominator D of all of them."""
    denom = math.lcm(*(p.denominator for p in probs))
    return denom, [p.numerator * (denom // p.denominator) for p in probs]


class Sampler:
    """Exact sampler: ``values[k]`` with probability weights[k] / sum."""

    def __init__(self, values: Sequence[int], weights: Sequence[int]) -> None:
        import numpy as np
        self.values = np.array(values, dtype=np.int64)
        self.cum = np.cumsum(np.array(weights, dtype=np.int64))
        self.total = int(self.cum[-1])

    def __len__(self) -> int:
        return len(self.values)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.integers(0, self.total, size=n)
        return self.values[self.cum.searchsorted(u, side="right")]


# (sampler, modulus): one variable per edge, drawn by the sampler.
Block = tuple[Sampler, int]


def scheme_sampler(scheme: CouplingScheme) -> Sampler:
    return Sampler(scheme.pattern, _int_weights(scheme.probs)[1])


def uniform(z: int) -> Sampler:
    """Uniform on range(z); draws exactly what rng.integers(0, z) draws."""
    return Sampler(range(z), [1] * z)


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
    n = len(index)
    out = []
    for b, (sampler, modulus) in enumerate(blocks):
        if len(sampler) == 1:
            continue
        terms = [(b * n + index[e], c % modulus if modulus else c)
                 for e, c in cand.coeffs]
        terms = [t for t in terms if t[1] != 0]
        if terms:
            out.append((tuple(t[0] for t in terms),
                        tuple(t[1] for t in terms), modulus))
    return tuple(out)


def vanish(fs: Sequence[Form], values: Sequence[int]) -> bool:
    """Does every form vanish (over the integers, or mod its modulus)?"""
    for var_idx, coeffs, modulus in fs:
        total = 0
        for v, c in zip(var_idx, coeffs):
            total += c * values[v]
        if (total % modulus if modulus else total) != 0:
            return False
    return True


def draw(rng: np.random.Generator, blocks: Sequence[Block], n: int,
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
            drawn = sampler.draw(rng, hi - lo).tolist()
            for k, v in zip(scope[lo:hi], drawn):
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class HarmfulStructure:
    """A union of fundamental cycles treated as one object.

    Exploratory: multi-cycle structures are not resampling targets, but
    their activation probability is still useful for bound studies.
    """

    cycles: tuple[WalkCandidate, ...]
    label: str = ""

    def __post_init__(self) -> None:
        if not self.cycles:
            raise ValueError("structure needs at least one cycle")


def structure_joint_prob(struct: HarmfulStructure,
                         scheme: CouplingScheme
                         ) -> Optional[ActivationProbability]:
    """Exact joint activation when the cycles' supports are edge-disjoint.

    Disjoint supports make the per-cycle events independent, so the
    probabilities multiply.  Returns None when supports overlap; use
    mc_structure_prob (plus lift_prob_bound) there.
    """
    seen: set = set()
    for c in struct.cycles:
        for e in c.support:
            if e in seen:
                return None
            seen.add(e)
    spread = Fraction(1)
    lift = Fraction(1)
    for c in struct.cycles:
        p = joint_prob(c, scheme)
        spread *= p.spread
        lift *= p.lift
    bound = lift_prob_bound([c.two_g for c in struct.cycles],
                            scheme.lifting_degree)
    return ActivationProbability(spread, lift, bound)


def mc_structure_prob(struct: HarmfulStructure, scheme: CouplingScheme,
                      trials: int, seed: int) -> float:
    """Monte Carlo estimate of P[every cycle active] for overlapping supports."""
    if trials < 1:
        raise ValueError("need at least one trial")
    gen = rng(seed)
    index = edge_index(sorted({e for c in struct.cycles for e in c.edges}))
    blocks = stage_blocks(scheme, "joint")
    all_forms = [f for c in struct.cycles for f in forms(c, index, blocks)]
    hits = sum(vanish(all_forms, draw(gen, blocks, len(index)))
               for _ in range(trials))
    return hits / trials


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
