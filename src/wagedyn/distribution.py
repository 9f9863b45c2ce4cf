"""Exact wage-distribution propagation, history enumeration, and Monte Carlo.

Distributions are finite-support, and one merge rule (_clusters, _merge)
builds every one of them: sorted wages at most MERGE_TOL apart are one point,
at their mass-weighted mean. tv_distance() compares clusters of the same rule.
propagate() applies one evaluation round per period: mass (1-p) keeps its
wage, mass p moves to the policy's evaluated wage. enumerate_histories() sums
over all 2^T sampling histories, one period at a time over arrays, and must
agree with propagate() exactly. simulate() draws paths from a counter-based
generator keyed by (seed, path, period) so results do not depend on how the
work is chunked. It draws each period's evaluation flag as a raw Philox word
below an integer limit, packed 8 periods to a byte, and carries each path as
an integer index into the period's table of distinct wages reached, walked
one byte of periods per pass over the distinct (index, byte) combinations.
The paths go one chunk of at most _CHUNK_PATHS at a time, and their words one
block of _DRAW_PATHS paths at a time, so its memory does not grow with the
number of paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Protocol, Sequence

import numpy as np

from .params import ContractParams, Horizon

MERGE_TOL = 1e-9
# paths per Monte Carlo chunk: bounds its packed flags, indices and keys
_CHUNK_PATHS = 1 << 17
# paths per block of raw Philox words: bounds the draws at 8*T*_DRAW_PATHS bytes
_DRAW_PATHS = 1 << 12


class WagePolicy(Protocol):
    """A worker policy type, answered through the one response it stacks:
    stack(policies) returns respond(t, rows, w), the effort, the evaluated
    next wage and the bonus in period t at each pair (policies[rows[i]], w[i]).
    A type whose evaluated wages lie on a fixed grid also names that grid,
    state_grid(policies) (TableEffortPolicy), for the employer's pricing."""

    @staticmethod
    def stack(policies: Sequence["WagePolicy"]) -> Callable: ...


def responder(policy: WagePolicy) -> Callable:
    """respond(t, w) -> (effort, evaluated next wage, bonus) of one policy at
    previous wages w: the one-row case of its type's stack, built once."""
    respond = type(policy).stack([policy])
    return lambda t, w: respond(t, 0, w)


@dataclass(frozen=True)
class WageDistribution:
    support: np.ndarray
    probs: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=float)
        probs = np.asarray(self.probs, dtype=float)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "probs", probs)
        if support.shape != probs.shape or support.ndim != 1:
            raise ValueError("support and probs must be 1-d arrays of equal length")
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-12:  # also rejects NaN and inf masses
            raise ValueError(f"probabilities sum to {total}, not 1")
        if probs.min() < -1e-15:
            raise ValueError("negative probability mass")
        # an increasing support is finite when its ends are; NaN fails every test
        if not ((support[1:] > support[:-1]).all()
                and -math.inf < support[0] and support[-1] < math.inf):
            raise ValueError("support must be finite and strictly increasing")

    @staticmethod
    def point_mass(wage: float) -> "WageDistribution":
        return WageDistribution(np.array([float(wage)]), np.array([1.0]))

    @staticmethod
    def from_pairs(pairs: Sequence[tuple[float, float]]) -> "WageDistribution":
        """Build from (wage, prob) pairs, merged by the merge rule (_merge)."""
        wages, masses = np.array(pairs, dtype=float).reshape(len(pairs), 2).T
        return _merge(wages, masses)

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.support - m) ** 2, self.probs))

    def tv_distance(self, other: "WageDistribution") -> float:
        """Total variation distance: half the summed absolute mass difference
        over the clusters of the union of both supports (_clusters)."""
        _, masses, new = _clusters(np.concatenate([self.support, other.support]),
                                   np.concatenate([self.probs, -other.probs]))
        return 0.5 * float(np.abs(np.add.reduceat(masses, new.nonzero()[0])).sum())


def _clusters(wages: np.ndarray,
              masses: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The merge rule's clusters. Massless pairs are dropped; the rest are
    sorted by wage, then mass, so the pairs' order does not matter, and a gap
    of at most MERGE_TOL between consecutive wages joins a cluster. Returns
    the sorted wages and masses and a flag set where each cluster starts."""
    keep = masses != 0.0
    wages, masses = wages[keep], masses[keep]
    order = np.lexsort((masses, wages))
    wages, masses = wages[order], masses[order]
    if wages.size and not -math.inf < wages[0] <= wages[-1] < math.inf:
        raise ValueError("wages must be finite")
    new = np.empty(wages.size, dtype=bool)
    new[:1] = True
    np.greater(wages[1:] - wages[:-1], MERGE_TOL, out=new[1:])
    return wages, masses, new


def _merge(wages: np.ndarray, masses: np.ndarray) -> WageDistribution:
    """Distribution of (wage, mass) columns: a cluster (_clusters) keeps its
    total mass at wage lo + sum((w - lo) * m) / sum(m), capped at its highest
    wage, where lo is its lowest. Repeated wages stay exact, and each point
    stays inside its cluster even for subnormal masses."""
    wages, masses, new = _clusters(wages, masses)
    start = new.nonzero()[0]
    mass = np.add.reduceat(masses, start)
    total = float(mass.sum())
    if not abs(total - 1.0) <= 1e-9:
        raise ValueError(f"pairs carry total mass {total}, expected 1")
    lo = np.maximum.accumulate(np.where(new, wages, -math.inf))  # lo of each pair's cluster
    offset = np.add.reduceat((wages - lo) * masses, start)
    support = np.minimum(lo[start] + offset / mass, np.maximum.reduceat(wages, start))
    return WageDistribution(support, mass / total)


def propagate(policy: WagePolicy, contract: ContractParams,
              horizon: Horizon) -> list[WageDistribution]:
    """End-of-period distributions P_1..P_T starting from a point mass at w0."""
    respond = responder(policy)
    dists = []
    current = WageDistribution.point_mass(contract.w0)
    for t in range(1, horizon.T + 1):
        current = step(current, respond, contract.p, t)
        dists.append(current)
    return dists


def step(dist: WageDistribution, respond: Callable, p: float, t: int) -> WageDistribution:
    """One evaluation round in period t: mass 1-p keeps its wage, mass p moves
    to the evaluated wage of the policy that respond (responder) answers."""
    nxt = np.asarray(respond(t, dist.support)[1], dtype=float)
    return _merge(np.concatenate([dist.support, nxt]),
                  np.concatenate([dist.probs * (1.0 - p), dist.probs * p]))


MAX_ENUMERATION_T = 20  # the longest horizon whose 2^T histories are enumerated


def require_enumerable(horizon: Horizon) -> None:
    """The one horizon bound of every history enumeration."""
    if horizon.T > MAX_ENUMERATION_T:
        raise ValueError(f"history enumeration refuses T > {MAX_ENUMERATION_T}: "
                         f"2^T histories (got T = {horizon.T})")


def enumerate_histories(policy: WagePolicy, contract: ContractParams,
                        horizon: Horizon) -> WageDistribution:
    """Exact final-period distribution by summing over all sampling histories.

    The 2^T histories are walked level by level: each period appends the
    sampled branch after the unsampled one, so a history's final index is its
    mask (bit t-1 set when evaluated in period t). The policy is called once
    per period on the whole level, and not at all when p = 0; histories whose
    probability is 0 are dropped by the merge.
    """
    require_enumerable(horizon)
    T, p = horizon.T, contract.p
    respond = responder(policy)
    wages = np.array([float(contract.w0)])
    probs = np.array([1.0])
    for t in range(1, T + 1):
        sampled = wages if p == 0.0 else np.asarray(respond(t, wages)[1], dtype=float)
        wages = np.concatenate([wages, sampled])
        probs = np.concatenate([probs * (1.0 - p), probs * p])
    return _merge(wages, probs)


def chunk_flags(seed: int, first_path: int, n_paths: int, periods: int,
                p: float) -> np.ndarray:
    """Evaluation flags u[i, t] < p of paths first_path .. first_path + n_paths - 1,
    packed 8 periods to a byte (np.packbits(..., axis=1, bitorder="little")).

    The draw for (path i, period t) is word i*periods + t of the
    Philox(key=seed) stream. Each Philox counter yields four words, so the
    stream is advanced by whole counters and the remainder is discarded; any
    split of the paths therefore reproduces the same flags. numpy's uniform
    of a word r is (r >> 11) * 2^-53, so u < p exactly when r is below the
    limit ceil(p * 2^53) << 11, and the words are compared as drawn, in
    blocks of _DRAW_PATHS paths.
    """
    n, T = int(n_paths), int(periods)
    nbytes = -(-T // 8)
    flags = np.empty((n, nbytes), dtype=np.uint8)
    limit = math.ceil(float(p) * 2.0**53)
    if limit == 2**53:  # p = 1: the limit 2^64 does not fit in a word
        flags[:] = np.packbits(np.ones(T, dtype=bool), bitorder="little")
        return flags
    limit = np.uint64(limit << 11)
    start = int(first_path) * T  # Philox.advance rejects numpy integers
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start // 4)
    bitgen.random_raw(start % 4)
    # rows padded with zero flags to whole bytes, so one flat packbits packs them
    below = np.zeros((min(n, _DRAW_PATHS), 8 * nbytes), dtype=bool)
    for lo in range(0, n, _DRAW_PATHS):
        k = min(n - lo, _DRAW_PATHS)
        np.less(bitgen.random_raw(k * T).reshape(k, T), limit, out=below[:k, :T])
        flags[lo:lo + k] = np.packbits(below[:k], bitorder="little").reshape(k, nbytes)
    return flags


def _chunk_counts(respond: Callable, w0: float, flags: np.ndarray,
                  periods: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per period, the sorted distinct wages one chunk of paths reached and
    how many paths hold each; flags are chunk_flags' packed evaluation bits,
    and respond is the policy's responder.

    Each path is an index into the period's wage table. In period t a path
    moves from index i to candidate i + m (the evaluated wage of table[i]),
    with m the table size; the candidates some path holds become the next
    table. The policy is called once per period, on the table wages that some
    path carries into an evaluation, and not at all when none does.

    The paths are walked one byte of periods at a time: the distinct
    (index, byte) combinations and their path counts take the per-period rule
    in place of the paths, and each path then moves to its combination's
    index at the end of the byte.
    """
    table = np.array([float(w0)])
    idx = np.zeros(len(flags), dtype=np.intp)
    out = []
    for b in range(flags.shape[1]):
        key = idx  # scaled in place: idx is replaced at the end of the byte
        key *= 256
        key += flags[:, b]
        if len(table) * 256 <= len(key):
            end = np.bincount(key)  # counts now, each slot's end index later
            combo = np.flatnonzero(end)
            weight = end[combo]
        else:  # many distinct wages: sort the keys rather than count every slot
            end = None
            combo, at, weight = np.unique(key, return_inverse=True, return_counts=True)
        state, byte = np.divmod(combo, 256)
        for t in range(8 * b + 1, min(8 * b + 8, periods) + 1):
            m = len(table)
            cand = (byte >> (t - 1 - 8 * b)) & 1
            cand *= m
            cand += state
            count = np.bincount(cand, weights=weight, minlength=2 * m)
            used = np.flatnonzero(count)
            values = table[used[used < m]]
            moved = used[used >= m] - m
            if moved.size:
                nxt = np.asarray(respond(t, table[moved])[1], dtype=float)
                values = np.concatenate([values, nxt])
            table, inverse = np.unique(values, return_inverse=True)
            remap = np.zeros(2 * m, dtype=np.intp)
            remap[used] = inverse
            state = remap.take(cand)
            out.append((table, np.bincount(inverse, weights=count[used])))
        if end is None:
            idx = state.take(at)
        else:
            end[combo] = state
            idx = end.take(key)
    return out


def _add_counts(wages: np.ndarray, counts: np.ndarray, more_wages: np.ndarray,
                more_counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge two (sorted distinct wages, path counts) tables."""
    wages, inverse = np.unique(np.concatenate([wages, more_wages]), return_inverse=True)
    return wages, np.bincount(inverse, weights=np.concatenate([counts, more_counts]))


def simulate(policy: WagePolicy, contract: ContractParams, horizon: Horizon,
             n_paths: int, seed: int, n_chunks: int = 1) -> list[WageDistribution]:
    """Monte Carlo sampling histories; empirical distribution per period.

    The paths are split into n_chunks parts, and each part into chunks of at
    most _CHUNK_PATHS paths. A chunk draws only its own evaluation flags,
    packed 8 periods to a byte (chunk_flags), and carries each path as an
    integer index into the period's sorted table of distinct wages reached,
    walked one byte of periods per pass (_chunk_counts); the chunk's counts
    are then added to the running per-period totals. Memory is therefore one
    block of draws (8 * T * _DRAW_PATHS bytes) plus a chunk's packed flags,
    indices and keys (about (16 + ceil(T/8)) * _CHUNK_PATHS bytes), whatever
    n_paths is. The result is identical for any n_chunks because the
    randomness is indexed by (seed, path, period).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    T = horizon.T
    respond = responder(policy)
    totals = [(np.empty(0), np.empty(0))] * T
    bounds = [int(b) for b in np.linspace(0, n_paths, n_chunks + 1).astype(int)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        for first in range(lo, hi, _CHUNK_PATHS):
            n = min(hi, first + _CHUNK_PATHS) - first
            flags = chunk_flags(seed, first, n, T, contract.p)
            counted = _chunk_counts(respond, contract.w0, flags, T)
            totals = [_add_counts(*total, *chunk) for total, chunk in zip(totals, counted)]
    return [_merge(wages, counts / n_paths) for wages, counts in totals]


@dataclass(frozen=True)
class ProfileSeries:
    """Per-period wage expectancy, variance, and normalized dispersion."""

    mean: np.ndarray
    variance: np.ndarray
    std_over_mean: np.ndarray  # NaN where the mean is 0


def profile(distributions: Sequence[WageDistribution]) -> ProfileSeries:
    means = np.array([d.mean() for d in distributions])
    variances = np.array([d.variance() for d in distributions])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(means > 0.0, np.sqrt(variances) / np.where(means > 0, means, 1.0),
                         math.nan)
    return ProfileSeries(means, variances, ratio)


def bracketize(dist: WageDistribution, bracket_width: float) -> dict[str, float]:
    """Mass per bracket, {label: mass} in bracket order: a wage of exactly 0
    keeps its own degenerate bracket "0", first; the rest fall in half-open
    brackets (low, high], labelled "low-high" with %g."""
    cells: dict[int, float] = {}
    for i, m in zip(_bracket_indices(dist, bracket_width), dist.probs.tolist()):
        cells[i] = cells.get(i, 0.0) + m
    return {_bracket_label(i, bracket_width): cells[i] for i in sorted(cells)}


def _bracket_indices(dist: WageDistribution, width: float) -> list[int]:
    """Each support point's bracket: -1 for "0", else i for (i*width, (i+1)*width],
    where a quotient within 1e-9 of an edge is on it."""
    if width <= 0.0:
        raise ValueError("bracket_width must be positive")
    return [-1 if w <= 0.0 else max(int(math.ceil(round(w / width, 9))) - 1, 0)
            for w in dist.support.tolist()]


def _bracket_label(index: int, width: float) -> str:
    return "0" if index < 0 else f"{index * width:g}-{(index + 1) * width:g}"


def cd_bracket_table(dists: list[WageDistribution], w0: float,
                     width: float) -> tuple[list[str], list[dict[str, float]]]:
    """Published-layout (row labels, columns): column t brackets the
    distribution entering period t (the point mass at w0, then the first T-1
    propagated rounds); the rows are every bracket a column holds, in
    bracketize's order."""
    entering = [WageDistribution.point_mass(w0)] + list(dists[:-1])
    rows = sorted({i for d in entering for i in _bracket_indices(d, width)})
    return ([_bracket_label(i, width) for i in rows],
            [bracketize(d, width) for d in entering])
