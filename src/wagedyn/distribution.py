"""Exact wage-distribution propagation, history enumeration, and Monte Carlo.

Distributions are finite-support. propagate() applies one evaluation round per
period: mass (1-p) keeps its wage, mass p moves to the policy's evaluated
wage. enumerate_histories() sums over all 2^T sampling histories, one period
at a time over arrays, and must agree with propagate() exactly. simulate()
draws paths from a counter-based generator keyed by (seed, path, period) so
results do not depend on how the work is chunked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .params import ContractParams, Horizon

MERGE_TOL = 1e-9
_SMALLEST_NORMAL = float(np.finfo(float).tiny)


class WagePolicy(Protocol):
    """Per-period effort rule with its own wage-state transition."""

    def effort(self, t: int, prev_wage): ...

    def next_wage_if_evaluated(self, t: int, prev_wage): ...

    def bonus_if_evaluated(self, t: int, prev_wage): ...


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
        if np.any(probs < -1e-15):
            raise ValueError("negative probability mass")
        if abs(float(probs.sum()) - 1.0) > 1e-12:
            raise ValueError(f"probabilities sum to {probs.sum()}, not 1")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")

    @staticmethod
    def point_mass(wage: float) -> "WageDistribution":
        return WageDistribution(np.array([float(wage)]), np.array([1.0]))

    @staticmethod
    def from_pairs(pairs: Sequence[tuple[float, float]],
                   merge_tol: float = MERGE_TOL) -> "WageDistribution":
        """Build from (wage, prob) pairs, merging near-identical wages.

        Pairs without mass (a probability that underflowed to 0) are dropped:
        they carry no probability and would divide by zero in a merge. When the
        merged mass is subnormal, the products wage * mass keep too few digits
        to be averaged, so the representative moves toward the new wage by the
        mass share instead; it stays between the wages it merges.
        """
        pairs = sorted(pairs)
        merged: list[list[float]] = []
        for w, m in pairs:
            if m == 0.0:
                continue
            if merged and w - merged[-1][0] <= merge_tol:
                total = merged[-1][1] + m
                # mass-weighted representative keeps merging order-independent
                if total < _SMALLEST_NORMAL:
                    merged[-1][0] += (w - merged[-1][0]) * (m / total)
                else:
                    merged[-1][0] = (merged[-1][0] * merged[-1][1] + w * m) / total
                merged[-1][1] = total
            else:
                merged.append([w, m])
        support = np.array([w for w, _ in merged])
        probs = np.array([m for _, m in merged])
        total = float(probs.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"pairs carry total mass {total}, expected 1")
        return WageDistribution(support, probs / total)

    def mean(self) -> float:
        return float(np.dot(self.support, self.probs))

    def variance(self) -> float:
        m = self.mean()
        return float(np.dot((self.support - m) ** 2, self.probs))

    def tv_distance(self, other: "WageDistribution", tol: float = MERGE_TOL) -> float:
        """Total variation distance, clustering support points within tol."""
        wages = np.unique(np.concatenate([self.support, other.support]))
        centers = []
        for w in wages:
            if not centers or w - centers[-1] > tol:
                centers.append(float(w))
        total = 0.0
        for w in centers:
            a = float(self.probs[np.abs(self.support - w) <= tol].sum())
            b = float(other.probs[np.abs(other.support - w) <= tol].sum())
            total += abs(a - b)
        return 0.5 * total


def propagate(policy: WagePolicy, contract: ContractParams, horizon: Horizon,
              initial: WageDistribution | None = None,
              merge_tol: float = MERGE_TOL) -> list[WageDistribution]:
    """End-of-period distributions P_1..P_T starting from a point mass at w0."""
    if initial is None:
        initial = WageDistribution.point_mass(contract.w0)
    p = contract.p
    dists = []
    current = initial
    for t in range(1, horizon.T + 1):
        nxt = np.asarray(policy.next_wage_if_evaluated(t, current.support), dtype=float)
        pairs: list[tuple[float, float]] = []
        if p < 1.0:
            pairs.extend(zip(current.support.tolist(), (current.probs * (1.0 - p)).tolist()))
        if p > 0.0:
            pairs.extend(zip(np.atleast_1d(nxt).tolist(), (current.probs * p).tolist()))
        current = WageDistribution.from_pairs(pairs, merge_tol)
        dists.append(current)
    return dists


def enumerate_histories(policy: WagePolicy, contract: ContractParams,
                        horizon: Horizon, initial_wage: float | None = None,
                        merge_tol: float = MERGE_TOL) -> WageDistribution:
    """Exact final-period distribution by summing over all sampling histories.

    The 2^T histories are walked level by level: each period appends the
    sampled branch after the unsampled one, so a history's final index is its
    mask (bit t-1 set when evaluated in period t). The policy is called once
    per period on the whole level, and not at all when p = 0; histories whose
    probability is 0 are dropped.
    """
    T = horizon.T
    if T > 20:
        raise ValueError(f"history enumeration refuses T > 20 (got {T})")
    p = contract.p
    w0 = contract.w0 if initial_wage is None else initial_wage
    wages = np.array([float(w0)])
    probs = np.array([1.0])
    for t in range(1, T + 1):
        sampled = wages if p == 0.0 else np.asarray(
            policy.next_wage_if_evaluated(t, wages), dtype=float)
        wages = np.concatenate([wages, sampled])
        probs = np.concatenate([probs * (1.0 - p), probs * p])
    keep = probs > 0.0
    pairs = list(zip(wages[keep].tolist(), probs[keep].tolist()))
    return WageDistribution.from_pairs(pairs, merge_tol)


def path_uniforms(seed: int, n_paths: int, periods: int) -> np.ndarray:
    """Uniforms u[i, t] from a Philox counter generator.

    The draw for (path i, period t) sits at counter position i*periods + t, so
    any chunking of paths reproduces the same numbers.
    """
    bitgen = np.random.Philox(key=seed)
    u = np.random.Generator(bitgen).random((n_paths, periods))
    return u


def simulate(policy: WagePolicy, contract: ContractParams, horizon: Horizon,
             n_paths: int, seed: int, n_chunks: int = 1,
             merge_tol: float = MERGE_TOL) -> list[WageDistribution]:
    """Monte Carlo sampling histories; empirical distribution per period.

    Chunking (n_chunks) only splits the work; the result is identical for any
    chunk count because the randomness is indexed by (seed, path, period).
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    T = horizon.T
    u = path_uniforms(seed, n_paths, T)
    counts: list[dict[float, int]] = [dict() for _ in range(T)]
    bounds = np.linspace(0, n_paths, n_chunks + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi <= lo:
            continue
        w = np.full(hi - lo, contract.w0, dtype=float)
        for t in range(1, T + 1):
            sampled = u[lo:hi, t - 1] < contract.p
            if np.any(sampled):
                w_next = np.asarray(policy.next_wage_if_evaluated(t, w[sampled]), dtype=float)
                w[sampled] = w_next
            vals, cnt = np.unique(w, return_counts=True)
            store = counts[t - 1]
            for v, k in zip(vals.tolist(), cnt.tolist()):
                store[v] = store.get(v, 0) + k
    out = []
    for t in range(T):
        pairs = [(v, k / n_paths) for v, k in counts[t].items()]
        out.append(WageDistribution.from_pairs(pairs, merge_tol))
    return out


@dataclass(frozen=True)
class ProfileSeries:
    """Per-period wage expectancy, variance, and normalized dispersion."""

    mean: np.ndarray
    variance: np.ndarray
    std_over_mean: np.ndarray  # NaN where the mean is 0

    def __len__(self) -> int:
        return len(self.mean)


def profile(distributions: Sequence[WageDistribution]) -> ProfileSeries:
    means = np.array([d.mean() for d in distributions])
    variances = np.array([d.variance() for d in distributions])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(means > 0.0, np.sqrt(variances) / np.where(means > 0, means, 1.0),
                         math.nan)
    return ProfileSeries(means, variances, ratio)


@dataclass(frozen=True)
class Histogram:
    """Half-open brackets (low, high]; a wage of exactly 0 keeps its own
    degenerate [0, 0] bracket."""

    lows: np.ndarray
    highs: np.ndarray
    masses: np.ndarray

    def labels(self) -> list[str]:
        out = []
        for lo, hi in zip(self.lows, self.highs):
            out.append("0" if hi == lo else f"{lo:g}-{hi:g}")
        return out


def bracketize(dist: WageDistribution, bracket_width: float) -> Histogram:
    if bracket_width <= 0.0:
        raise ValueError("bracket_width must be positive")
    cells: dict[int, float] = {}
    zero_mass = 0.0
    for w, m in zip(dist.support, dist.probs):
        if w <= 0.0:
            zero_mass += m
            continue
        idx = int(math.ceil(round(w / bracket_width, 9))) - 1
        cells[idx] = cells.get(idx, 0.0) + m
    lows, highs, masses = [], [], []
    if zero_mass > 0.0:
        lows.append(0.0)
        highs.append(0.0)
        masses.append(zero_mass)
    for idx in sorted(cells):
        lows.append(idx * bracket_width)
        highs.append((idx + 1) * bracket_width)
        masses.append(cells[idx])
    return Histogram(np.array(lows), np.array(highs), np.array(masses))
