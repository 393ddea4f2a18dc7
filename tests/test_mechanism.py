from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privmarket.mechanism import MechanismConfig, MechanismError, design_Z, design_Z0_Z1
from privmarket.model import linear_capped_cost, quadratic_cost

from oracles import NON_PARTICIPATION as BOT
from oracles import genie_payment, majority_excluding, peer_payment


class TestGeniePayment:
    def test_match_pays_inverse_prior(self):
        assert genie_payment(1, 1, 3.0, 0.5) == pytest.approx(6.0)
        assert genie_payment(0, 0, 3.0, 0.75) == pytest.approx(12.0)  # Z / Pr(W=0)

    def test_mismatch_and_optout_pay_zero(self):
        assert genie_payment(1, 0, 3.0, 0.5) == 0.0
        assert genie_payment(BOT, 1, 3.0, 0.5) == 0.0


class TestMajorityExcluding:
    def test_enumerated_cases(self):
        assert majority_excluding([1, 1, 0, BOT], 0) == 0  # others sum 1 < 2
        assert majority_excluding([1, 1, 1], 2) == 1  # others sum 2 >= 2
        assert majority_excluding([1, BOT, BOT], 0) is None

    def test_optout_user_gets_marker(self):
        assert majority_excluding([BOT, 1, 1], 0) is None

    def test_even_split_resolves_to_zero(self):
        assert majority_excluding([1, 1, 0, 0, 1], 4) == 0  # others 2-2

    @given(
        reports=st.lists(st.sampled_from([0, 1, BOT]), min_size=2, max_size=9),
        i=st.integers(0, 8),
        seed=st.randoms(),
    )
    @settings(max_examples=200, deadline=None)
    def test_permutation_of_others_invariant(self, reports, i, seed):
        if i >= len(reports):
            i = 0
        before = majority_excluding(reports, i)
        others = [x for j, x in enumerate(reports) if j != i]
        seed.shuffle(others)
        shuffled = others[:i] + [reports[i]] + others[i:]
        assert majority_excluding(shuffled, i) == before


class TestPeerPayment:
    CFG = MechanismConfig(z0=2.0, z1=3.0)

    def test_matching_majority_pays(self):
        assert peer_payment(1, 1, self.CFG) == 3.0
        assert peer_payment(0, 0, self.CFG) == 2.0

    def test_disagreeing_or_optout_pays_zero(self):
        assert peer_payment(0, 1, self.CFG) == 0.0
        assert peer_payment(1, 0, self.CFG) == 0.0
        assert peer_payment(BOT, 1, self.CFG) == 0.0
        assert peer_payment(1, None, self.CFG) == 0.0

    def test_nonnegative_for_all_profiles(self):
        for x in (0, 1, BOT):
            for m in (0, 1, None):
                assert peer_payment(x, m, self.CFG) >= 0.0


class TestDesignZ:
    def test_quadratic_hand_value(self):
        z = design_Z(0.1, 0.7, quadratic_cost())
        ee = math.exp(0.1)
        assert z == pytest.approx(0.2 * (ee + 1) ** 2 / (2 * ee * 0.4), abs=1e-12)
        assert z == pytest.approx(1.0025, abs=1e-3)

    def test_linear_hand_value(self):
        z = design_Z(0.1, 0.7, linear_capped_cost())
        assert z == pytest.approx(5.012, abs=1e-3)

    def test_zero_marginal_cost_reported(self):
        with pytest.raises(MechanismError):
            design_Z(0.0, 0.7, quadratic_cost())  # g'(0) = 0

    def test_quadratic_vanishes_toward_zero_epsilon(self):
        assert design_Z(1e-10, 0.7, quadratic_cost()) == pytest.approx(0.0, abs=1e-8)


class TestDesignZ0Z1:
    def test_perfect_majority_reduces_to_genie(self):
        z0, z1 = design_Z0_Z1(2.0, 1.0, 1.0, 0.75)
        assert z0 == pytest.approx(2.0 / 0.25)
        assert z1 == pytest.approx(2.0 / 0.75)

    def test_equal_priors_symmetric(self):
        z0, z1 = design_Z0_Z1(2.0, 0.9, 0.9, 0.5)
        assert z0 == pytest.approx(z1)
        assert z0 == pytest.approx(2 * 2.0 / (2 * 0.9 - 1))

    def test_composed_with_design_Z_matches_display(self):
        eps, th0, beta = 0.3, 0.7, 0.95
        z = design_Z(eps, th0, quadratic_cost())
        z0, z1 = design_Z0_Z1(z, beta, beta, 0.5)
        gp = 2 * eps
        ee = math.exp(eps)
        display = gp * (ee + 1) ** 2 / (ee * (2 * th0 - 1) * (2 * beta - 1))
        assert z0 == pytest.approx(display, abs=1e-12)
        assert z1 == pytest.approx(display, abs=1e-12)

    def test_degenerate_denominator(self):
        with pytest.raises(MechanismError):
            design_Z0_Z1(1.0, 0.5, 0.5, 0.5)

    def test_genie_limit_of_peer_payments(self):
        # as beta -> 1 the matching-report payments converge to genie payments
        prior = 0.6
        z = 1.7
        for beta in (0.99, 0.999, 0.9999):
            z0, z1 = design_Z0_Z1(z, beta, beta, prior)
            cfg = MechanismConfig(z0=z0, z1=z1)
            assert peer_payment(1, 1, cfg) == pytest.approx(
                genie_payment(1, 1, z, prior), rel=20 * (1 - beta)
            )
            assert peer_payment(0, 0, cfg) == pytest.approx(
                genie_payment(0, 0, z, prior), rel=20 * (1 - beta)
            )
