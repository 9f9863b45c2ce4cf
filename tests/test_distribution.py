import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wagedyn import (AffineEffortPolicy, ContractParams, Horizon, WageDistribution,
                     WorkerPrefs, bracketize, enumerate_histories, profile,
                     propagate, simulate, solve_backward_induction, solve_policy,
                     TableEffortPolicy)

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
    w2 = policy.next_wage_if_evaluated(2, 0.4)
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


def test_additive_support_growth_and_mass():
    T = 10
    policy = additive_policy(Horizon(T))
    dists = propagate(policy, CONTRACT, Horizon(T))
    for t, d in enumerate(dists, start=1):
        assert len(d.support) == t + 1
        assert float(d.probs.sum()) == pytest.approx(1.0, abs=1e-12)


def test_markov_composition():
    # propagating from an intermediate distribution reproduces later periods
    T = 8
    policy = additive_policy(Horizon(T))
    dists = propagate(policy, CONTRACT, Horizon(T))

    class Shifted:
        def __init__(self, base, offset):
            self.base, self.offset = base, offset

        def effort(self, t, w):
            return self.base.effort(t + self.offset, w)

        def next_wage_if_evaluated(self, t, w):
            return self.base.next_wage_if_evaluated(t + self.offset, w)

        def bonus_if_evaluated(self, t, w):
            return self.base.bonus_if_evaluated(t + self.offset, w)

    k = 3
    rest = propagate(Shifted(policy, k), CONTRACT, Horizon(T - k), initial=dists[k - 1])
    for t in range(T - k):
        assert rest[t].tv_distance(dists[k + t]) < 1e-12


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
    w = c.w0
    for t in range(1, 7):
        w = policy.next_wage_if_evaluated(t, w)
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
    hist = bracketize(d, 0.1)
    labels = hist.labels()
    assert labels[0] == "0"  # degenerate zero bracket
    assert hist.masses[0] == pytest.approx(0.1)
    # a wage of exactly 0.4 lands in the (0.3, 0.4] bracket
    idx = labels.index("0.3-0.4")
    assert hist.masses[idx] == pytest.approx(0.4)
    idx = labels.index("0.4-0.5")
    assert hist.masses[idx] == pytest.approx(0.5)
    assert hist.masses.sum() == pytest.approx(1.0)
    with pytest.raises(ValueError):
        bracketize(d, 0.0)


def test_bracketize_point_mass():
    hist = bracketize(WageDistribution(np.array([0.25]), np.array([1.0])), 0.1)
    assert len(hist.masses) == 1
    assert hist.masses[0] == 1.0
    assert hist.labels() == ["0.2-0.3"]


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
    pairs = []
    for mask in range(1 << T):
        prob = 1.0
        w = contract.w0
        for t in range(1, T + 1):
            if mask >> (t - 1) & 1:
                prob *= p
                w = float(policy.next_wage_if_evaluated(t, w))
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
