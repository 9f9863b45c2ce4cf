import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wagedyn import (AffineEffortPolicy, AffinePolicy, ContractParams, Horizon,
                     WageDistribution, WorkerPrefs, bracketize, enumerate_histories,
                     phi_series_recursive, profile, propagate, simulate,
                     solve_backward_induction, solve_policy, TableEffortPolicy)
from wagedyn import distribution
from wagedyn.distribution import (MERGE_TOL, _CHUNK_PATHS, _DRAW_PATHS, chunk_flags,
                                  responder, step)

CONTRACT = ContractParams(0.2, 0.5, 0.4)
PREFS = WorkerPrefs.additive(delta=0.9)
CD_CONTRACT = ContractParams(0.2, 0.1, 0.4)
CD_PREFS = WorkerPrefs.cobb_douglas(delta=0.95, gamma=0.4, beta=0.6)


def additive_policy(horizon):
    sol = solve_backward_induction(CONTRACT, PREFS, horizon)
    return AffineEffortPolicy(sol)


def cd_policy(horizon):
    return TableEffortPolicy(solve_policy(CD_CONTRACT, CD_PREFS, horizon))


def test_distribution_validation():
    WageDistribution(np.array([0.4]), np.array([1.0]))
    with pytest.raises(ValueError):
        WageDistribution(np.array([0.4, 0.5]), np.array([0.6, 0.3]))
    with pytest.raises(ValueError):
        WageDistribution(np.array([0.5, 0.4]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        WageDistribution(np.array([0.4, 0.5]), np.array([1.1, -0.1]))


def test_from_pairs_merges_close_wages():
    d = WageDistribution.from_pairs([(0.4, 0.5), (0.4 + 1e-12, 0.25), (0.6, 0.25)])
    assert len(d.support) == 2
    assert d.probs[0] == pytest.approx(0.75)


def test_from_pairs_drops_zero_mass_pairs():
    # two massless pairs within the merge tolerance used to divide 0 by 0
    d = WageDistribution.from_pairs([(0.3, 0.0), (0.3 + 1e-12, 0.0), (0.5, 1.0)])
    assert d.support.tolist() == [0.5]
    assert d.probs.tolist() == [1.0]


def test_from_pairs_merged_wage_stays_between_merged_wages():
    # subnormal masses round each weighted mean to 1.0; unclamped, both
    # merged pairs below landed on 1.0 and the support was not increasing
    tiny = 5e-324
    d = WageDistribution.from_pairs([(0.5, 1.0), (0.7, tiny), (0.7 + 1e-12, tiny),
                                     (1.2, tiny), (1.2 + 1e-12, tiny)])
    assert d.support.tolist() == pytest.approx([0.5, 0.7, 1.2], abs=1e-11)
    assert np.all(np.diff(d.support) > 0)


@pytest.mark.parametrize("support, probs", [([0.3], [math.nan]), ([math.nan], [1.0]),
                                            ([0.3, math.inf], [0.5, 0.5]),
                                            ([-math.inf, 0.3], [0.5, 0.5]),
                                            ([0.3], [math.inf])])
def test_distribution_rejects_non_finite_values(support, probs):
    with pytest.raises(ValueError):
        WageDistribution(np.array(support), np.array(probs))


@pytest.mark.parametrize("pairs", [[(math.nan, 1.0)], [(0.3, math.nan)], [(math.inf, 1.0)],
                                   [(0.3, 0.5), (math.inf, 0.25), (math.inf, 0.25)]])
def test_from_pairs_rejects_non_finite_values(pairs):
    with pytest.raises(ValueError):
        WageDistribution.from_pairs(pairs)


@pytest.mark.parametrize("pairs", [[], [(0.3, 0.0)], [(0.3, 0.0), (0.3 + 1e-12, 0.0)]])
def test_from_pairs_without_mass_reports_total(pairs):
    with pytest.raises(ValueError, match=r"^pairs carry total mass 0\.0, expected 1$"):
        WageDistribution.from_pairs(pairs)


def test_tv_counts_each_point_once_in_a_chain():
    # a + 0.6e-9 is within MERGE_TOL of both a and a + 1.2e-9, which are not
    # within it of each other: the chain is one point, so the distance is 0
    a = 0.5
    two = WageDistribution(np.array([a, a + 1.2e-9]), np.array([0.5, 0.5]))
    one = WageDistribution.point_mass(a + 0.6e-9)
    assert two.tv_distance(one) == 0.0
    assert one.tv_distance(two) == 0.0


def merge_reference(pairs):
    """The merge rule, one pair at a time: pairs sorted by (wage, mass) without
    the massless ones, a gap of at most MERGE_TOL joining a cluster, and a
    cluster's wage lo + sum((w - lo) * m) / sum(m), capped at its highest wage.
    Returns the clusters, the support and the normalised probabilities."""
    clusters = []
    for w, m in sorted(pair for pair in pairs if pair[1] != 0.0):
        if clusters and w - clusters[-1][-1][0] <= MERGE_TOL:
            clusters[-1].append((w, m))
        else:
            clusters.append([(w, m)])
    support, masses = [], []
    for cluster in clusters:
        lo, hi = cluster[0][0], cluster[-1][0]
        mass = offset = 0.0
        for w, m in cluster:
            mass += m
            offset += (w - lo) * m
        support.append(min(lo + offset / mass, hi))
        masses.append(mass)
    total = sum(masses)
    return clusters, np.array(support), np.array(masses) / total


def tv_distance_greedy(a, b):
    """The earlier TV rule: greedy centres over the union of the supports, each
    summing the mass of either distribution within MERGE_TOL of it."""
    wages = np.unique(np.concatenate([a.support, b.support]))
    centers = []
    for w in wages:
        if not centers or w - centers[-1] > MERGE_TOL:
            centers.append(float(w))
    total = 0.0
    for w in centers:
        pa = float(a.probs[np.abs(a.support - w) <= MERGE_TOL].sum())
        pb = float(b.probs[np.abs(b.support - w) <= MERGE_TOL].sum())
        total += abs(pa - pb)
    return 0.5 * total


# steps of 0.4e-9 from a few bases: equal wages, chains within MERGE_TOL and gaps above it
near_wages = st.builds(lambda base, k: base + k * 4e-10,
                       st.sampled_from([0.0, 0.3, 0.7, 1.2]), st.integers(0, 6))
weights = st.one_of(st.floats(1e-3, 1.0), st.just(0.0), st.just(5e-324))


@st.composite
def pair_lists(draw, max_size=40):
    wages = draw(st.lists(near_wages, min_size=1, max_size=max_size))
    # the first pair carries a normal mass, so the total can be scaled to 1
    mass = [draw(st.floats(1e-3, 1.0))] + draw(st.lists(weights, min_size=len(wages) - 1,
                                                         max_size=len(wages) - 1))
    total = sum(mass)
    return [(w, m / total) for w, m in zip(wages, mass)]


EPS = float(np.finfo(float).eps)


@settings(max_examples=200, deadline=None)
@given(pairs=pair_lists(), seed=st.integers(0, 2**32 - 1))
def test_from_pairs_follows_merge_rule(pairs, seed):
    d = WageDistribution.from_pairs(pairs)
    clusters, support, probs = merge_reference(pairs)
    assert len(d.support) == len(clusters)
    # numpy's reduceat sums a cluster in another order than the loop above;
    # k positive terms in any two orders differ by at most 2(k-1) eps relative
    tol = 4 * len(pairs) * EPS
    np.testing.assert_allclose(d.probs, probs, rtol=tol, atol=0)
    np.testing.assert_allclose(d.support, support, rtol=tol, atol=0)
    for w, cluster in zip(d.support, clusters):
        wages = [cw for cw, _ in cluster]
        assert wages[0] <= w <= wages[-1]
        if wages[0] == wages[-1]:
            assert w == wages[0]  # repeated wages stay exact
    assert np.all(d.support[1:] > d.support[:-1])
    shuffled = [pairs[i] for i in np.random.default_rng(seed).permutation(len(pairs))]
    e = WageDistribution.from_pairs(shuffled)
    assert np.array_equal(d.support, e.support) and np.array_equal(d.probs, e.probs)


@settings(max_examples=100, deadline=None)
@given(a=pair_lists(), b=pair_lists())
def test_tv_distance_symmetric_and_bounded(a, b):
    da, db = WageDistribution.from_pairs(a), WageDistribution.from_pairs(b)
    assert da.tv_distance(da) == 0.0
    tv = da.tv_distance(db)
    # cluster sums are rounded in an order that depends on the argument order
    assert tv == pytest.approx(db.tv_distance(da), abs=4 * EPS)
    # each distribution's probabilities sum to 1 up to rounding
    assert 0.0 <= tv <= 1.0 + 4 * EPS


@st.composite
def separated_distributions(draw):
    idx = draw(st.lists(st.integers(0, 40), min_size=1, max_size=12, unique=True))
    mass = draw(st.lists(st.floats(1e-3, 1.0), min_size=len(idx), max_size=len(idx)))
    support = np.sort(np.array(idx) * 0.025)
    return WageDistribution(support, np.array(mass) / sum(mass))


@settings(max_examples=100, deadline=None)
@given(a=separated_distributions(), b=separated_distributions())
def test_tv_distance_matches_greedy_rule_when_gaps_exceed_tolerance(a, b):
    union = np.unique(np.concatenate([a.support, b.support]))
    assert np.all(np.diff(union) > MERGE_TOL)
    assert a.tv_distance(b) == pytest.approx(tv_distance_greedy(a, b), abs=1e-15)


def test_two_period_history_probabilities():
    # generic two-period distribution: (1-p)^2, p(1-p), p(1-p), p^2 over the
    # four sampling histories
    policy = additive_policy(Horizon(2))
    final = enumerate_histories(policy, CONTRACT, Horizon(2))
    p = CONTRACT.p
    never = (1 - p) ** 2
    assert float(final.probs[final.support == 0.4].sum()) == pytest.approx(never)
    assert final.probs.sum() == pytest.approx(1.0, abs=1e-12)
    # evaluated-last-at-2 mass merges the NE and EE histories
    w2 = responder(policy)(2, 0.4)[1]
    mass_w2 = float(final.probs[np.isclose(final.support, w2, atol=1e-9)].sum())
    assert mass_w2 == pytest.approx(p, abs=1e-12)


@pytest.mark.parametrize("T", [1, 2, 5, 8, 12])
def test_propagate_equals_enumeration_additive(T):
    policy = additive_policy(Horizon(T))
    dists = propagate(policy, CONTRACT, Horizon(T))
    final = enumerate_histories(policy, CONTRACT, Horizon(T))
    assert dists[-1].tv_distance(final) < 1e-12


@pytest.mark.parametrize("T", [1, 4, 9, 12])
def test_propagate_equals_enumeration_cobb_douglas(T):
    policy = cd_policy(Horizon(T))
    dists = propagate(policy, CD_CONTRACT, Horizon(T))
    final = enumerate_histories(policy, CD_CONTRACT, Horizon(T))
    assert dists[-1].tv_distance(final) < 1e-12


def test_enumeration_refuses_large_horizons():
    with pytest.raises(ValueError, match="T > 20"):
        enumerate_histories(additive_policy(Horizon(2)), CONTRACT, Horizon(21))


def test_both_history_enumerations_refuse_T_21_with_one_message():
    from wagedyn import FirmParams, profit_by_history_enumeration

    firm = FirmParams(k=1.5, lam=0.8, c=0.2, eta=0.9)
    with pytest.raises(ValueError) as wages:
        enumerate_histories(additive_policy(Horizon(2)), CONTRACT, Horizon(21))
    with pytest.raises(ValueError) as profit:
        profit_by_history_enumeration(CONTRACT, firm, PREFS, Horizon(21))
    assert str(wages.value) == str(profit.value) == (
        "history enumeration refuses T > 20: 2^T histories (got T = 21)")


def test_additive_support_growth_and_mass():
    T = 10
    policy = additive_policy(Horizon(T))
    dists = propagate(policy, CONTRACT, Horizon(T))
    for t, d in enumerate(dists, start=1):
        assert len(d.support) == t + 1
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_markov_composition():
    # stepping on from an intermediate distribution reproduces later periods
    T = 8
    policy = additive_policy(Horizon(T))
    dists = propagate(policy, CONTRACT, Horizon(T))
    respond = responder(policy)
    k = 3
    current = dists[k - 1]
    for t in range(k + 1, T + 1):
        current = step(current, respond, CONTRACT.p, t)
        assert current.tv_distance(dists[t - 1]) < 1e-12


def test_never_evaluated_point_mass():
    c = ContractParams(0.0, 0.5, 0.4)
    sol = solve_backward_induction(c, PREFS, Horizon(6))
    dists = propagate(AffineEffortPolicy(sol), c, Horizon(6))
    for d in dists:
        assert len(d.support) == 1
        assert d.support[0] == 0.4


def test_always_evaluated_matches_deterministic_path():
    c = ContractParams(1.0, 0.1, 0.4)
    policy = TableEffortPolicy(solve_policy(c, CD_PREFS, Horizon(6)))
    sims = simulate(policy, c, Horizon(6), n_paths=50, seed=7)
    respond = responder(policy)
    w = c.w0
    for t in range(1, 7):
        w = respond(t, w)[1]
        assert len(sims[t - 1].support) == 1
        assert sims[t - 1].support[0] == pytest.approx(w)


def test_simulation_deterministic_and_chunk_invariant():
    policy = additive_policy(Horizon(5))
    a = simulate(policy, CONTRACT, Horizon(5), 5000, seed=42)
    b = simulate(policy, CONTRACT, Horizon(5), 5000, seed=42)
    c = simulate(policy, CONTRACT, Horizon(5), 5000, seed=42, n_chunks=8)
    d = simulate(policy, CONTRACT, Horizon(5), 5000, seed=43)
    for x, y in zip(a, b):
        assert np.array_equal(x.support, y.support)
        assert np.array_equal(x.probs, y.probs)
    for x, y in zip(a, c):
        assert np.array_equal(x.support, y.support)
        assert np.array_equal(x.probs, y.probs)
    assert any(x.tv_distance(y) > 0 for x, y in zip(a, d))


def test_monte_carlo_convergence():
    T = 6
    policy = additive_policy(Horizon(T))
    exact = propagate(policy, CONTRACT, Horizon(T))

    def mean_tv(n):
        sims = simulate(policy, CONTRACT, Horizon(T), n, seed=42)
        return float(np.mean([e.tv_distance(s) for e, s in zip(exact, sims)]))

    tv_small, tv_big = mean_tv(20000), mean_tv(80000)
    # quadrupling the paths should roughly halve the distance
    assert tv_big < 0.75 * tv_small


def test_profile_and_variance_consistency():
    dists = [WageDistribution(np.array([0.5]), np.array([1.0])),
             WageDistribution(np.array([0.3, 0.6]), np.array([0.5, 0.5]))]
    prof = profile(dists)
    assert prof.mean[0] == 0.5 and prof.variance[0] == 0.0
    assert prof.mean[1] == pytest.approx(0.45)
    assert prof.variance[1] == pytest.approx(0.0225)
    assert prof.std_over_mean[1] == pytest.approx(0.15 / 0.45)
    zero = profile([WageDistribution(np.array([0.0]), np.array([1.0]))])
    assert np.isnan(zero.std_over_mean[0])


def test_profile_T1_variance_matches_formula():
    from wagedyn import single_period_variance
    policy = additive_policy(Horizon(1))
    dists = propagate(policy, CONTRACT, Horizon(1))
    assert dists[0].variance() == pytest.approx(
        single_period_variance(CONTRACT, PREFS.b), abs=1e-12)


def test_bracketize_conventions():
    d = WageDistribution(np.array([0.0, 0.4, 0.45, 0.5]),
                         np.array([0.1, 0.4, 0.2, 0.3]))
    masses = bracketize(d, 0.1)
    # the degenerate zero bracket first, then the brackets in wage order; a
    # wage of exactly 0.4 lands in the (0.3, 0.4] bracket
    assert list(masses) == ["0", "0.3-0.4", "0.4-0.5"]
    assert masses["0"] == pytest.approx(0.1)
    assert masses["0.3-0.4"] == pytest.approx(0.4)
    assert masses["0.4-0.5"] == pytest.approx(0.5)
    assert sum(masses.values()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bracketize(d, 0.0)


def test_bracketize_point_mass():
    masses = bracketize(WageDistribution(np.array([0.25]), np.array([1.0])), 0.1)
    assert masses == {"0.2-0.3": 1.0}


def test_bracketize_puts_a_tiny_wage_in_the_first_bracket():
    # w / width rounds to 0 at 9 digits, but the wage is in (0, 0.1]
    masses = bracketize(WageDistribution.point_mass(1e-12), 0.1)
    assert masses == {"0-0.1": 1.0}


def test_bracket_table_rows_zero_bracket_first_then_by_index():
    # column 1 is the point mass at w0, column 2 the first round
    dists = [WageDistribution(np.array([0.0, 0.25]), np.array([0.4, 0.6])),
             WageDistribution.point_mass(0.9)]
    labels, columns = distribution.cd_bracket_table(dists, 0.1, 0.1)
    assert labels == ["0", "0-0.1", "0.2-0.3"]
    assert columns == [{"0-0.1": 1.0}, {"0": 0.4, "0.2-0.3": 0.6}]


@settings(max_examples=25, deadline=None)
@given(p=st.floats(0.0, 1.0), alpha=st.floats(0.0, 1.0),
       w0=st.floats(0.01, 1.0), T=st.integers(1, 6))
# the smallest subnormal p makes evaluated masses underflow to 0 from period 2
@example(p=5e-324, alpha=1.0, w0=0.5, T=4)
# ...and rounds merged wages out of order (support not increasing)
@example(p=5e-324, alpha=0.5, w0=0.5, T=4)
def test_mass_conserved_for_random_contracts(p, alpha, w0, T):
    contract = ContractParams(p, alpha, w0)
    sol = solve_backward_induction(contract, PREFS, Horizon(T),
                                   wage_grid=np.linspace(0, 2.5, 801))
    dists = propagate(AffineEffortPolicy(sol), contract, Horizon(T))
    for d in dists:
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(d.support >= 0.0)


def enumerate_histories_per_mask(policy, contract, horizon):
    """Reference enumeration: one history at a time, scalar policy calls."""
    T, p = horizon.T, contract.p
    respond = responder(policy)
    pairs = []
    for mask in range(1 << T):
        prob = 1.0
        w = contract.w0
        for t in range(1, T + 1):
            if mask >> (t - 1) & 1:
                prob *= p
                w = float(respond(t, w)[1])
            else:
                prob *= 1.0 - p
        if prob > 0.0:
            pairs.append((w, prob))
    return WageDistribution.from_pairs(pairs)


unit_p = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@settings(max_examples=40, deadline=None)
@given(p=unit_p, alpha=st.floats(0.0, 1.0), w0=st.floats(0.01, 1.0),
       T=st.integers(1, 8))
def test_level_wise_enumeration_matches_per_mask_additive(p, alpha, w0, T):
    contract = ContractParams(p, alpha, w0)
    sol = solve_backward_induction(contract, PREFS, Horizon(T),
                                   wage_grid=np.linspace(0, 2.5, 801))
    policy = AffineEffortPolicy(sol)
    fast = enumerate_histories(policy, contract, Horizon(T))
    ref = enumerate_histories_per_mask(policy, contract, Horizon(T))
    assert np.array_equal(fast.support, ref.support)
    assert np.array_equal(fast.probs, ref.probs)


@settings(max_examples=40, deadline=None)
@given(p=unit_p, alpha=st.floats(0.0, 1.0), w0_step=st.integers(0, 10),
       T=st.integers(1, 8))
def test_level_wise_enumeration_matches_per_mask_cobb_douglas(p, alpha, w0_step, T):
    contract = ContractParams(p, alpha, w0_step / 10)
    policy = TableEffortPolicy(solve_policy(contract, CD_PREFS, Horizon(T)))
    fast = enumerate_histories(policy, contract, Horizon(T))
    ref = enumerate_histories_per_mask(policy, contract, Horizon(T))
    assert np.array_equal(fast.support, ref.support)
    assert np.array_equal(fast.probs, ref.probs)


def test_enumeration_at_largest_horizon_matches_propagation():
    T = 20
    policy = additive_policy(Horizon(T))
    final = enumerate_histories(policy, CONTRACT, Horizon(T))
    assert len(final.support) == T + 1
    assert propagate(policy, CONTRACT, Horizon(T))[-1].tv_distance(final) < 1e-12


def path_uniforms(seed: int, n_paths: int, periods: int) -> np.ndarray:
    """Uniforms u[i, t] from a Philox counter generator.

    The draw for (path i, period t) sits at counter position i*periods + t, so
    any chunking of paths reproduces the same numbers.
    """
    bitgen = np.random.Philox(key=seed)
    u = np.random.Generator(bitgen).random((n_paths, periods))
    return u


def chunk_uniforms(seed: int, first_path: int, n_paths: int, periods: int) -> np.ndarray:
    """Uniforms u[i, t] of paths first_path .. first_path + n_paths - 1, as
    simulate drew them before it compared raw words (chunk_flags).

    The draw for (path i, period t) sits at position i*periods + t of the
    Philox(key=seed) stream. Each Philox counter yields four doubles, so the
    stream is advanced by whole counters and the remainder is discarded; any
    split of the paths therefore reproduces the same numbers.
    """
    start = int(first_path) * int(periods)  # Philox.advance rejects numpy integers
    bitgen = np.random.Philox(key=seed)
    bitgen.advance(start // 4)
    gen = np.random.Generator(bitgen)
    gen.random(start % 4)
    return gen.random((int(n_paths), int(periods)))


def simulate_reference(policy, contract, horizon, n_paths, seed, n_chunks=1):
    """Reference Monte Carlo: the whole uniform array at once, the policy called
    on every sampled path, and a dict count of the distinct wages per period."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    T = horizon.T
    respond = responder(policy)
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
                w_next = np.asarray(respond(t, w[sampled])[1], dtype=float)
                w[sampled] = w_next
            vals, cnt = np.unique(w, return_counts=True)
            store = counts[t - 1]
            for v, k in zip(vals.tolist(), cnt.tolist()):
                store[v] = store.get(v, 0) + k
    out = []
    for t in range(T):
        pairs = [(v, k / n_paths) for v, k in counts[t].items()]
        out.append(WageDistribution.from_pairs(pairs))
    return out


def assert_simulate_matches_reference(policy, contract, horizon, n_paths, seed, n_chunks):
    fast = simulate(policy, contract, horizon, n_paths, seed, n_chunks=n_chunks)
    ref = simulate_reference(policy, contract, horizon, n_paths, seed, n_chunks)
    assert len(fast) == len(ref) == horizon.T
    for x, y in zip(fast, ref):
        assert np.array_equal(x.support, y.support)
        assert np.array_equal(x.probs, y.probs)


def exact_additive_policy(contract, horizon):
    return AffinePolicy(contract, PREFS.b, 1.0, phi_series_recursive(contract, PREFS, horizon))


# three whole internal chunks and a remainder
SEVERAL_CHUNKS = 3 * _CHUNK_PATHS + 123


@settings(max_examples=40, deadline=None)
@given(p=unit_p, alpha=st.floats(0.0, 1.0),
       w0=st.one_of(st.just(0.0), st.floats(0.0, 1.0)), T=st.integers(1, 20),
       n_paths=st.integers(1, 400), n_chunks=st.integers(1, 9),
       seed=st.integers(0, 2**31 - 1))
@example(p=0.3, alpha=0.5, w0=0.4, T=8, n_paths=SEVERAL_CHUNKS, n_chunks=1, seed=3)
@example(p=0.6, alpha=0.2, w0=0.0, T=3, n_paths=5, n_chunks=9, seed=11)
# the walk crosses one and two bytes of periods
@example(p=0.4, alpha=0.3, w0=0.2, T=9, n_paths=300, n_chunks=2, seed=7)
@example(p=0.5, alpha=0.8, w0=0.5, T=17, n_paths=400, n_chunks=1, seed=19)
def test_simulate_matches_reference_additive(p, alpha, w0, T, n_paths, n_chunks, seed):
    contract = ContractParams(p, alpha, w0)
    horizon = Horizon(T)
    assert_simulate_matches_reference(exact_additive_policy(contract, horizon), contract,
                                      horizon, n_paths, seed, n_chunks)


@settings(max_examples=40, deadline=None)
@given(p=unit_p, alpha=st.floats(0.0, 1.0), w0_step=st.integers(0, 10),
       T=st.integers(1, 20), n_paths=st.integers(1, 400), n_chunks=st.integers(1, 9),
       seed=st.integers(0, 2**31 - 1))
@example(p=0.5, alpha=0.1, w0_step=4, T=8, n_paths=SEVERAL_CHUNKS, n_chunks=2, seed=3)
@example(p=0.5, alpha=0.1, w0_step=0, T=4, n_paths=3, n_chunks=9, seed=5)
# the walk crosses one and two bytes of periods
@example(p=0.3, alpha=0.6, w0_step=2, T=9, n_paths=350, n_chunks=3, seed=13)
@example(p=0.7, alpha=0.4, w0_step=7, T=17, n_paths=260, n_chunks=1, seed=23)
def test_simulate_matches_reference_cobb_douglas(p, alpha, w0_step, T, n_paths, n_chunks,
                                                 seed):
    contract = ContractParams(p, alpha, w0_step / 10)
    horizon = Horizon(T)
    policy = TableEffortPolicy(solve_policy(contract, CD_PREFS, horizon))
    assert_simulate_matches_reference(policy, contract, horizon, n_paths, seed, n_chunks)


# chunks of 5 paths drawn in blocks of 3 put chunk and block edges at every
# offset within a Philox counter and count their (index, byte) combinations
# by sorting; chunks of 13335 paths count them with bincount past the first byte
@pytest.mark.parametrize("family, T, chunk_paths, draw_paths, n_paths",
                         [("additive", 17, 5, 3, 203), ("cobb_douglas", 17, 5, 3, 203),
                          ("additive", 9, 5, 3, 203), ("cobb_douglas", 20, 5, 3, 203),
                          ("additive", 17, 20000, 1000, 40007),
                          ("cobb_douglas", 20, 20000, 1000, 40007)])
def test_simulate_matches_reference_in_small_chunks_and_blocks(monkeypatch, family, T,
                                                               chunk_paths, draw_paths,
                                                               n_paths):
    monkeypatch.setattr(distribution, "_CHUNK_PATHS", chunk_paths)
    monkeypatch.setattr(distribution, "_DRAW_PATHS", draw_paths)
    horizon = Horizon(T)
    if family == "additive":
        contract = ContractParams(0.4, 0.5, 0.3)
        policy = exact_additive_policy(contract, horizon)
    else:
        contract = ContractParams(0.5, 0.3, 0.4)
        policy = TableEffortPolicy(solve_policy(contract, CD_PREFS, horizon))
    assert_simulate_matches_reference(policy, contract, horizon, n_paths, seed=9, n_chunks=3)


@st.composite
def flag_blocks(draw):
    """(p, first_path, n_paths, T) with first_path * T % 4 drawn over 0..3
    (as far as T allows) and n_paths not a whole number of draw blocks."""
    T = draw(st.one_of(st.sampled_from([7, 8, 9, 16, 17]), st.integers(1, 20)))
    residue = draw(st.integers(0, 3))
    offset = next((j for j in range(4) if j * T % 4 == residue), residue)
    first = 4 * draw(st.integers(0, 3 * _DRAW_PATHS)) + offset
    n_paths = draw(st.integers(1, 2 * _DRAW_PATHS + 100).filter(lambda n: n % _DRAW_PATHS))
    p = draw(st.one_of(st.sampled_from([0.0, 5e-324, 2.0**-53, 0.5, 1 - 2.0**-53, 1.0]),
                       st.floats(0.0, 1.0)))
    return p, first, n_paths, T


@settings(max_examples=60, deadline=None)
@given(case=flag_blocks(), seed=st.integers(0, 2**31 - 1))
@example(case=(0.3, 3, 2 * _DRAW_PATHS + 5, 17), seed=1)
@example(case=(1 - 2.0**-53, 1, 3, 9), seed=2)
def test_chunk_flags_pack_the_uniforms_below_p(case, seed):
    p, first, n_paths, T = case
    expected = np.packbits(chunk_uniforms(seed, first, n_paths, T) < p, axis=1,
                           bitorder="little")
    flags = chunk_flags(seed, first, n_paths, T, p)
    assert flags.dtype == np.uint8 and flags.shape == (n_paths, -(-T // 8))
    assert np.array_equal(flags, expected)


# T = 3 puts path k's first draw at counter start 3k, so paths 0..3 start at
# 0, 3, 2 and 1 mod 4
@pytest.mark.parametrize("first", [0, 1, 2, 3, np.int64(5), np.int64(6), np.int64(7),
                                   np.int64(8)])
def test_chunk_uniforms_equal_full_array_slice(first):
    full = path_uniforms(42, 40, 3)
    n = 40 - int(first)
    assert np.array_equal(chunk_uniforms(42, first, n, 3), full[int(first):])
    assert np.array_equal(chunk_uniforms(42, first, np.int64(2), np.int64(3)),
                          full[int(first):int(first) + 2])


@pytest.mark.parametrize("n_chunks", [0, -1])
def test_simulate_rejects_fewer_than_one_chunk(n_chunks):
    policy = additive_policy(Horizon(3))
    with pytest.raises(ValueError, match="n_chunks must be >= 1"):
        simulate(policy, CONTRACT, Horizon(3), 100, seed=1, n_chunks=n_chunks)


def test_simulate_memory_stays_below_half_the_draw_array():
    n_paths, T = 200_000, 20
    bound = 8 * n_paths * T // 2  # 16 MB: half of the full float64 draw array
    horizon = Horizon(T)
    policy = exact_additive_policy(CONTRACT, horizon)
    tracemalloc.start()
    try:
        simulate(policy, CONTRACT, horizon, n_paths, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_simulate_memory_does_not_grow_with_paths():
    T = 20
    horizon = Horizon(T)
    policy = exact_additive_policy(CONTRACT, horizon)
    peaks = []
    for n_paths in (200_000, 800_000):
        tracemalloc.start()
        try:
            simulate(policy, CONTRACT, horizon, n_paths, seed=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.1 * peaks[0]
