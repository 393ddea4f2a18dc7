from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket.mechanism import design_Z
from privmarket import strategy
from privmarket.model import linear_capped_cost, quadratic_cost, table_cost
from privmarket.strategy import (
    CUT_TOL,
    bar_A,
    band_ends,
    build_mv_strategy,
    equal_priors_tau,
    solve_xi,
    table_to_text,
    upsilon,
)

from conftest import make_params
from oracles import brute_force_best_response, grid_scan_xi, privacy_level
from test_acceptance import PARAM_GRID


class TestPrivacyLevel:
    def test_identical_rows_leak_nothing(self):
        assert privacy_level(0.3, 0.3) == 0.0
        assert privacy_level(0.0, 0.0) == privacy_level(1.0, 1.0) == 0.0  # 0/0 is ratio 1

    def test_symmetric_randomization_level(self):
        xi = 0.5
        hi = math.exp(xi) / (1 + math.exp(xi))
        assert privacy_level(hi, 1 - hi) == pytest.approx(0.5, abs=1e-12)

    def test_deterministic_disclosure_is_infinite(self):
        assert privacy_level(1.0, 0.0) == math.inf
        assert privacy_level(0.5, 0.0) == math.inf  # a one-sided zero


class TestPrivacyLevelProperties:
    @given(p=st.floats(0.01, 0.99), q=st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_nonnegative(self, p, q):
        level = privacy_level(p, q)
        assert level >= 0.0
        assert level == pytest.approx(privacy_level(q, p), abs=1e-12)
        # the larger of the two events' |log ratio|
        assert level == max(abs(math.log(p / q)), abs(math.log((1 - p) / (1 - q))))


class TestBandEnds:
    @pytest.mark.parametrize("cut_low, cut_high, ends", [
        (2.0, 2.0, (2, 2)),                                  # both cuts on an integer
        (1.0 + 0.5 * CUT_TOL, 3.0 - 0.5 * CUT_TOL, (1, 3)),  # within CUT_TOL inside
        (1.0 - 0.5 * CUT_TOL, 3.0 + 0.5 * CUT_TOL, (1, 3)),  # within CUT_TOL outside
        (1.0 + 2.0 * CUT_TOL, 3.0 - 2.0 * CUT_TOL, (2, 2)),  # just past the tolerance
        (1.0 - 2.0 * CUT_TOL, 3.0 + 2.0 * CUT_TOL, (1, 3)),
        (-0.25, 4.75, (0, 4)),
        (1.5, 1.5, (2, 1)),                                  # no integer in the band
    ])
    def test_agrees_with_cut_comparisons(self, cut_low, cut_high, ends):
        # the reference: an integer f is below the band when
        # f < cut_low - CUT_TOL and above it when f > cut_high + CUT_TOL
        lo, hi = band_ends(cut_low, cut_high)
        assert (int(lo), int(hi)) == ends
        for f in range(-2, 7):
            assert (f < lo) == (f < cut_low - CUT_TOL), (f, lo)
            assert (f > hi) == (f > cut_high + CUT_TOL), (f, hi)

    @pytest.mark.parametrize("offset, ends", [(5e-10, (3, 5)), (1e-7, (4, 4))])
    def test_tolerance_is_below_a_ten_millionth(self, offset, ends):
        # literal offsets, not multiples of CUT_TOL, so that a wider
        # tolerance fails here: a sum 5e-10 inside a cut lies on it, one
        # 1e-7 inside does not
        lo, hi = band_ends(3.0 + offset, 5.0 - offset)
        assert (int(lo), int(hi)) == ends

    def test_arrays_give_int64_ends(self):
        lo, hi = band_ends(np.array([0.5, 1.0]), np.array([0.5, 3.0]))
        assert lo.dtype == hi.dtype == np.int64
        assert lo.tolist() == [1, 1] and hi.tolist() == [0, 3]


class TestBarA:
    def test_zero_noise_gives_half(self):
        assert bar_A(0.7, 0.7) == pytest.approx(0.5, abs=1e-12)

    def test_hand_evaluated(self):
        assert bar_A(0.7, 0.6) == pytest.approx(1.0448468233685515, abs=1e-12)
        assert bar_A(0.9, 0.66) == pytest.approx(1.6562970998865054, abs=1e-12)


class TestSolveXi:
    def test_equal_priors_collapses_to_epsilon(self):
        # the bisection finds the closed-form root that solve_xi returns
        params = make_params(epsilon=0.3)
        for d in (0, 1, 4, 7):
            for f in range(d + 1):
                assert strategy._bisect_xi(f, d, params) == pytest.approx(0.3, abs=1e-9)

    def test_closed_form_matches_bisection(self):
        for base in PARAM_GRID:
            for cost in (quadratic_cost(), linear_capped_cost()):
                params = make_params(
                    theta0=base.theta0, alpha=base.alpha, epsilon=base.epsilon, cost=cost
                )
                for d in range(8):
                    for f in range(d + 1):
                        xi = solve_xi(f, d, params)
                        assert xi == params.epsilon
                        assert xi == pytest.approx(strategy._bisect_xi(f, d, params), abs=1e-9)

    @pytest.mark.parametrize("cost, epsilon", [
        (quadratic_cost(), 0.0),
        (linear_capped_cost(), 0.0),
        (table_cost([0.0, 1.0, 2.0], [0.0, 0.0, 1.0]), 0.5),  # g'(0.5) = 0
    ])
    def test_exactly_zero_without_marginal_cost_gain(self, cost, epsilon):
        params = make_params(cost=cost, epsilon=epsilon)
        for d in range(8):
            for f in range(d + 1):
                assert solve_xi(f, d, params) == 0.0

    def test_equal_priors_never_evaluates_j_prime(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("J' evaluated under equal priors")

        monkeypatch.setattr(strategy, "_j_prime", forbidden)
        for d in range(8):
            build_mv_strategy(d, make_params(epsilon=0.5))

    def test_unequal_priors_matches_grid_scan(self):
        params = make_params(prior_w1=0.7, epsilon=0.5)
        z = design_Z(params.epsilon, params.theta0, params.cost)
        xi = solve_xi(1, 4, params)
        oracle = grid_scan_xi(1, 4, params, z, step=1e-4)
        assert abs(xi - oracle) < 1e-3

    def test_extreme_degree_stays_finite(self):
        # the group-signal likelihood ratio is astronomically large at
        # d = 400, f = 0; the log-domain evaluation must not overflow
        params = make_params(prior_w1=0.55, epsilon=0.4)
        xi = solve_xi(0, 400, params)
        assert 0.0 <= xi < 10.0
        assert math.isfinite(upsilon(0, xi, params))

    def test_linear_cost_can_pin_zero(self):
        # unit marginal cost, unfavorable prior, strongly one-sided group
        # signal: the randomization utility is decreasing from eta = 0
        params = make_params(
            prior_w1=0.3, cost=linear_capped_cost(), theta0=0.7, epsilon=0.1
        )
        assert solve_xi(0, 6, params) == 0.0


class TestUpsilon:
    def test_clamped_to_zero_and_abar(self):
        params = make_params(epsilon=0.5)
        a_bar = bar_A(params.theta0, params.theta1)
        # huge eta: the cost term dominates and the raw cut collapses to 0
        assert upsilon(0, 6.0, params) == 0.0
        # a (deliberately invalid) negative cost drives the raw cut past the
        # ceiling; the clamp returns bar_A
        from privmarket.model import CostFunction

        bad = make_params(
            epsilon=0.5,
            cost=CostFunction(value=lambda z: -z, derivative=lambda z: 1.0, name="bad"),
        )
        assert upsilon(1, 3.0, bad) == pytest.approx(a_bar, abs=1e-12)
        assert 0.0 <= upsilon(1, 0.5, params) <= a_bar
        # with audited costs the raw cut stays strictly below the ceiling
        assert upsilon(1, 8.0, make_params(epsilon=8.0)) < a_bar

    def test_equal_priors_both_sides_match_closed_form(self):
        params = make_params(epsilon=0.5)
        u0 = upsilon(0, 0.5, params)
        u1 = upsilon(1, 0.5, params)
        assert u0 == pytest.approx(0.1257, abs=1e-3)
        assert u0 == pytest.approx(0.12580841337743276, abs=1e-12)
        assert u1 == pytest.approx(u0, abs=1e-12)


class TestEqualPriorsTau:
    def test_vanishes_with_epsilon(self):
        assert equal_priors_tau(make_params(epsilon=1e-8)) == pytest.approx(0.0, abs=1e-7)

    def test_hand_evaluated(self):
        assert equal_priors_tau(make_params(epsilon=0.5)) == pytest.approx(0.1257, abs=1e-3)

    def test_nondecreasing_in_alpha(self):
        taus = [
            equal_priors_tau(make_params(alpha=a, epsilon=0.5))
            for a in np.arange(0.0, 0.46, 0.05)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(taus, taus[1:]))

    def test_requires_equal_priors(self):
        with pytest.raises(ValueError):
            equal_priors_tau(make_params(prior_w1=0.6))


class TestBuildMvStrategy:
    def test_noiseless_even_degree(self):
        params = make_params(alpha=0.0, epsilon=0.3)
        strat = build_mv_strategy(4, params)
        assert strat.sr.tolist() == [False, False, True, False, False]
        assert strat.p1[0, 0] == 0.0
        assert strat.p1[4, 1] == 1.0
        hi = math.exp(0.3) / (1 + math.exp(0.3))
        assert strat.p1[2, 1] == pytest.approx(hi, abs=1e-9)

    def test_noiseless_odd_degree_never_randomizes(self):
        params = make_params(alpha=0.0, epsilon=0.3)
        strat = build_mv_strategy(3, params)
        assert not strat.sr.any()
        assert strat.p1[:, 0].tolist() == [0.0, 0.0, 1.0, 1.0]

    def test_friendless_user_randomizes(self):
        strat = build_mv_strategy(0, make_params(epsilon=0.3))
        assert strat.sr[0]
        assert strat.xi[0] == pytest.approx(0.3, abs=1e-9)

    def test_epsilon_zero_exports_the_baseline(self):
        # At epsilon = 0 the band is the tie alone and randomizing there is
        # a fair coin, so every exported action row is the baseline's: the
        # group majority whatever the own signal, a fair coin at a tie (an
        # sr cell at level 0).
        params = make_params(epsilon=0.0)
        for d in range(9):
            rows = [r.split("\t") for r in table_to_text([build_mv_strategy(d, params)]).splitlines()[1:]]
            assert len(rows) == 2 * (d + 1)
            for degree, f, s, p1, p0, regime, xi in rows:
                f = int(f)
                majority = 1.0 if 2 * f > d else 0.0 if 2 * f < d else 0.5
                assert (int(degree), float(p1), float(p0)) == (d, majority, 1.0 - majority), (d, f, s)
                assert regime == ("sr" if 2 * f == d else "nd") and float(xi) == 0.0

    def test_default_case_band(self):
        params = make_params(epsilon=0.5)
        strat = build_mv_strategy(4, params)
        assert strat.sr.tolist() == [False, False, True, False, False]  # tau ~ 0.126 < 1

    def test_matches_brute_force_on_grid(self):
        # regime and xi against direct expected-utility maximization
        for theta0 in (0.6, 0.8):
            for alpha in (0.1, 0.35):
                for eps in (0.1, 0.5):
                    for prior in (0.5, 0.7):
                        params = make_params(
                            prior_w1=prior, theta0=theta0, alpha=alpha, epsilon=eps
                        )
                        z = design_Z(eps, theta0, params.cost)
                        for d in range(0, 6):
                            strat = build_mv_strategy(d, params)
                            for f in range(d + 1):
                                regime, eta = brute_force_best_response(f, d, params, z)
                                if d == 0:
                                    assert strat.sr[f]
                                    continue
                                if regime == "sr":
                                    assert strat.sr[f], (params, d, f)
                                    assert abs(strat.xi[f] - eta) < 1e-3
                                else:
                                    assert not strat.sr[f], (params, d, f)
                                    expected_p1 = 1.0 if regime == "nd1" else 0.0
                                    assert strat.p1[f, 0] == expected_p1

    def test_regime_bands_are_contiguous(self):
        # scanning f upward crosses report-0, randomize, report-1 blocks
        # with no interleaving
        for prior in (0.5, 0.65):
            for eps in (0.1, 0.5, 1.0):
                params = make_params(prior_w1=prior, epsilon=eps, alpha=0.35)
                for d in range(1, 9):
                    strat = build_mv_strategy(d, params)
                    labels = []
                    for f in range(d + 1):
                        if strat.sr[f]:
                            labels.append("S")
                        else:
                            labels.append("0" if strat.p1[f, 0] == 0.0 else "1")
                    joined = "".join(labels)
                    stripped = joined.lstrip("0")
                    stripped = stripped.rstrip("1")
                    assert set(stripped) <= {"S"}, (prior, eps, d, joined)

    def test_equal_priors_cuts_coincide(self):
        params = make_params(epsilon=0.5)
        for d in (1, 4, 7):
            strat = build_mv_strategy(d, params)
            np.testing.assert_allclose(strat.cut_low + strat.cut_high, d, rtol=0, atol=1e-9)

    def test_sr_rows_have_level_xi_and_nd_rows_zero(self):
        params = make_params(epsilon=0.5)
        for d in (0, 2, 5):
            strat = build_mv_strategy(d, params)
            for f in range(d + 1):
                level = privacy_level(strat.p1[f, 1], strat.p1[f, 0])
                if strat.sr[f]:
                    assert level == pytest.approx(strat.xi[f], abs=1e-9)
                else:
                    assert level == 0.0

    def test_cuts_respect_abar(self):
        params = make_params(epsilon=0.8, alpha=0.4)
        a_bar = bar_A(params.theta0, params.theta1)
        for d in (1, 4, 9):
            strat = build_mv_strategy(d, params)
            assert np.all(d / 2 - strat.cut_low <= a_bar + 1e-12)
            assert np.all(strat.cut_high - d / 2 <= a_bar + 1e-12)


class TestNdBaseline:
    """The baseline's table is the solver's export at epsilon = 0."""

    @staticmethod
    def _table(d: int):
        return build_mv_strategy(d, make_params(epsilon=0.0))

    def test_tie_is_fair_coin(self):
        strat = self._table(2)
        assert strat.p1[1, 0] == 0.5
        assert strat.p1[1, 1] == 0.5

    def test_strict_majority(self):
        strat = self._table(3)
        assert strat.p1[2, 0] == 1.0

    def test_all_rows_zero_privacy(self):
        for d in range(0, 6):
            strat = self._table(d)
            for f in range(d + 1):
                assert privacy_level(strat.p1[f, 1], strat.p1[f, 0]) == 0.0


class TestExport:
    def test_flat_table_format(self):
        params = make_params(epsilon=0.5)
        text = table_to_text([build_mv_strategy(d, params) for d in range(3)])
        lines = text.strip().split("\n")
        assert lines[0] == "degree\tf\ts\tp1\tp0\tregime\txi"
        assert len(lines) == 1 + 2 * (1 + 2 + 3)  # two rows per (d, f)
        first = lines[1].split("\t")
        assert first[0] == "0" and first[5] == "sr"
