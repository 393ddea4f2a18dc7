from __future__ import annotations

import math

import numpy as np
import pytest

from privmarket.analytics import (
    AnalyticsError,
    band_bounds,
    beta_from_moments,
    ReportMoments,
    bhattacharyya,
    expected_total_payment,
    graph_report_moments,
    lambda_sr,
    mv_moments_equal_priors,
    mv_report_law,
    nd_moments,
    nd_report_law,
    payment_bound,
    predict,
    std_normal_cdf,
    weighted_fsum,
)
from privmarket import analytics, sim
from privmarket import graph as graph_module
from privmarket.config import analytic_distribution, apply_overrides, default_config, model_params
from privmarket.graph import (
    DegreeDistribution, Graph, binomial_pmf, generate_erdos_renyi, ingest_edge_list,
)
from privmarket.mechanism import MechanismError
from privmarket.model import linear_capped_cost, quadratic_cost
from privmarket.sim import run_experiment
from privmarket.strategy import build_mv_strategy

from conftest import make_params
from datasets import write_grqc_like
from oracles import (
    ensemble_pair_probs_double_sum,
    enumerate_mu1,
    enumerate_pair_adjacent,
    enumerate_pair_common_friend,
    gaussian_bhattacharyya_quadrature,
    graph_report_moments_fsum,
    graph_report_moments_loop,
    normal_cdf_quadrature,
    point_mass,
    side_probs_comb,
    side_probs_enumerated,
)


class TestBinomials:
    def test_matches_naive_product(self):
        pmf = binomial_pmf(10, 0.6)
        for k in range(11):
            naive = math.comb(10, k) * 0.6**k * 0.4 ** (10 - k)
            assert pmf[k] == pytest.approx(naive, abs=1e-12)

    def test_large_m_stable(self):
        pmf = binomial_pmf(10_000, 0.37)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert pmf[3700] > 0.0


def _band_and_tail(d: int, tau: float, theta1: float) -> tuple[float, float]:
    """(band mass, upper-tail mass) of Binomial(d, theta1) for the band d/2 +- tau."""
    lo, hi = (int(b) for b in band_bounds(d, tau))
    pmf = binomial_pmf(d, theta1)
    return pmf[max(lo, 0):max(hi + 1, 0)].sum(), pmf[max(hi + 1, 0):].sum()


class TestNuValues:
    def test_tie_only_band(self):
        assert [int(b) for b in band_bounds(4, 0.0)] == [2, 2]
        band, _ = _band_and_tail(4, 0.0, 0.6)
        assert band == pytest.approx(6 * 0.6**2 * 0.4**2, abs=1e-15)

    def test_degree_two_tail(self):
        _, tail = _band_and_tail(2, 0.0, 0.6)
        assert tail == pytest.approx(0.36, abs=1e-12)

    def test_disjoint_masses(self):
        for d in range(0, 9):
            for tau in (0.0, 0.1, 0.6, 1.3):
                band, tail = _band_and_tail(d, tau, 0.6)
                assert band + tail <= 1.0 + 1e-12


class TestSideTable:
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.25, 0.45])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    def test_matches_flip_enumeration(self, alpha, epsilon):
        # every degree d <= 10 and count a of friends holding 1, against all
        # 2^d flip patterns; the widest band (alpha 0.45, epsilon 1) covers
        # 0..d for d <= 2, and odd degrees at small tau have an empty band
        params = make_params(alpha=alpha, epsilon=epsilon)
        for law in (mv_report_law(params), nd_report_law(params)):
            offset, below, at_most = law.side_table(np.arange(11))
            assert len(below) == len(at_most) == sum(d + 1 for d in range(11))
            for d in range(11):
                lo, hi = (int(b) for b in band_bounds(d, law.tau))
                for a in range(d + 1):
                    got = (below[offset[d] + a], at_most[offset[d] + a])
                    assert got == pytest.approx(
                        side_probs_enumerated(d, a, lo, hi, alpha), abs=1e-12, rel=0
                    ), (d, a)
                    if alpha == 0.0:  # nothing flips: f = a
                        assert got == (float(a < lo), float(a <= hi))

    def test_rows_in_steps_match_one_step(self, monkeypatch):
        law = mv_report_law(make_params(alpha=0.25, epsilon=0.5))
        whole = law.side_table(np.arange(41))
        monkeypatch.setattr(analytics, "_SIDE_CHUNK", 100)  # two values of a per step
        stepped = law.side_table(np.arange(41))
        assert all(x.tobytes() == y.tobytes() for x, y in zip(whole, stepped))

    def test_only_given_degrees_and_large_degree(self):
        law = mv_report_law(make_params(alpha=0.25, epsilon=0.5))
        offset, below, at_most = law.side_table(np.array([40, 0, 3, 40, 3]))
        assert len(below) == 1 + 4 + 41
        full = law.side_table(np.arange(41))
        for d in (0, 3, 40):
            rows = slice(offset[d], offset[d] + d + 1)
            full_rows = slice(full[0][d], full[0][d] + d + 1)
            assert below[rows].tolist() == full[1][full_rows].tolist()
            assert at_most[rows].tolist() == full[2][full_rows].tolist()
        lo, hi = (int(b) for b in band_bounds(40, law.tau))
        for a in range(41):
            got = (below[offset[40] + a], at_most[offset[40] + a])
            assert got == pytest.approx(side_probs_comb(40, a, lo, hi, 0.25), abs=1e-12, rel=0)


class TestCutTable:
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.25, 0.45])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 1.0])
    def test_cells_split_the_side_law_by_report(self, alpha, epsilon):
        # every degree d <= 10, count a and own signal s: the four cells of
        # the unit interval hold Pr(f < lo), the band mass times
        # Pr(randomized report = 0 | s) and = 1 | s, and Pr(f > hi)
        params = make_params(alpha=alpha, epsilon=epsilon)
        for law in (mv_report_law(params), nd_report_law(params)):
            ee = math.exp(law.epsilon)  # the nd profile's coin is fair at every epsilon
            coin = (1.0 / (ee + 1.0), ee / (ee + 1.0))
            offset, below, at_most = law.side_table(np.arange(11))
            cut = law.cut_table(below, at_most)
            assert cut.shape == (len(below), 2)
            for d in range(11):
                lo, hi = (int(b) for b in band_bounds(d, law.tau))
                for a in range(d + 1):
                    e = offset[d] + a
                    lower, upper = below[e], at_most[e]
                    band = upper - lower
                    p_below, p_at_most = side_probs_enumerated(d, a, lo, hi, alpha)
                    for s in (0, 1):
                        c = cut[e, s]
                        assert lower <= c <= upper, (d, a, s)
                        assert c - lower == pytest.approx(band * (1.0 - coin[s]), abs=1e-15, rel=0)
                        assert upper - c == pytest.approx(band * coin[s], abs=1e-15, rel=0)
                        cells = (lower, c - lower, upper - c, 1.0 - upper)
                        exact = (
                            p_below,
                            (p_at_most - p_below) * (1.0 - coin[s]),
                            (p_at_most - p_below) * coin[s],
                            1.0 - p_at_most,
                        )
                        assert cells == pytest.approx(exact, abs=1e-12, rel=0), (d, a, s)


class TestMvMoments:
    def test_no_learning_reduces_to_single_responder(self):
        params = make_params(epsilon=0.1)
        dist = point_mass(0)
        s = mv_moments_equal_priors(params, dist)
        lam = lambda_sr(0.1, 0.7)
        assert s.mu1 == pytest.approx(lam, abs=1e-15)
        assert s.kappa1 == pytest.approx(lam - lam * lam, abs=1e-15)

    def test_point_mass_two_matches_enumeration(self):
        params = make_params(alpha=0.0, epsilon=0.1)
        dist = point_mass(2)
        s = mv_moments_equal_priors(params, dist)
        oracle = enumerate_mu1(build_mv_strategy(2, params), params)
        assert s.mu1 == pytest.approx(oracle, abs=1e-12)

    def test_mu_exceeds_half(self):
        params = make_params(epsilon=0.5)
        dist = DegreeDistribution.poisson_truncated(4.0, 16)
        s = mv_moments_equal_priors(params, dist)
        assert s.mu1 > 0.5

    def test_mu_matches_enumeration_all_degrees(self, default_params):
        for d in range(0, 7):
            dist = point_mass(d)
            s = mv_moments_equal_priors(default_params, dist)
            oracle = enumerate_mu1(build_mv_strategy(d, default_params), default_params)
            assert abs(s.mu1 - oracle) < 1e-10, d

    def test_pair_probs_match_enumeration(self, default_params):
        terms = mv_report_law(default_params).terms(4)
        for di, dj in ((1, 1), (2, 2), (2, 3), (4, 2)):
            si = build_mv_strategy(di, default_params)
            sj = build_mv_strategy(dj, default_params)
            assert terms.pair_adjacent(di, dj) == pytest.approx(
                enumerate_pair_adjacent(si, sj, default_params), abs=1e-10
            )
            assert terms.pair_common_friend(di, dj) == pytest.approx(
                enumerate_pair_common_friend(si, sj, default_params), abs=1e-10
            )


def _baseline_table(d: int):
    """The baseline's strategy table: the solver's export at epsilon = 0."""
    return build_mv_strategy(d, make_params(epsilon=0.0))


class TestNdMoments:
    def test_all_degree_two(self):
        params = make_params()  # theta1 = 0.6
        s = nd_moments(params, point_mass(2))
        assert s.mu1 == pytest.approx(0.36 + 0.5 * 0.48, abs=1e-12)

    def test_matches_enumeration(self, default_params):
        for d in range(0, 7):
            s = nd_moments(default_params, point_mass(d))
            oracle = enumerate_mu1(_baseline_table(d), default_params)
            assert abs(s.mu1 - oracle) < 1e-10, d

    def test_pair_probs_match_enumeration(self, default_params):
        terms = nd_report_law(default_params).terms(3)
        for di, dj in ((2, 2), (3, 2)):
            si, sj = _baseline_table(di), _baseline_table(dj)
            assert terms.pair_adjacent(di, dj) == pytest.approx(
                enumerate_pair_adjacent(si, sj, default_params), abs=1e-10
            )
            assert terms.pair_common_friend(di, dj) == pytest.approx(
                enumerate_pair_common_friend(si, sj, default_params), abs=1e-10
            )

    def test_isolated_users_match_realized_graph(self):
        # 25 isolated users and a 75-cycle realize the law exactly: isolated
        # users add only their variance, and a friend always has degree 2
        params = make_params()
        dist = DegreeDistribution([0.25, 0.0, 0.75])
        s = nd_moments(params, dist)
        graph = Graph(100, [(25 + i, 25 + (i + 1) % 75) for i in range(75)])
        realized = graph_report_moments(graph, nd_report_law(params))
        # both sources return the same (mu1, kappa1) tuple
        assert type(s) is type(realized) is ReportMoments
        mu, kappa = realized
        assert s.mu1 == pytest.approx(mu, rel=1e-12, abs=0.0)
        assert s.kappa1 == pytest.approx(kappa, rel=1e-12, abs=0.0)
        # coin flip for isolated users
        assert nd_report_law(params).lam == 0.5


class TestStdNormalCdf:
    def test_center_and_symmetry(self):
        assert std_normal_cdf(0.0) == 0.5
        for x in np.linspace(-4, 4, 17):
            assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-14)

    def test_quantile_value(self):
        assert std_normal_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-4)

    def test_matches_quadrature(self):
        for x in (-3.0, -1.0, 0.3, 2.5):
            assert std_normal_cdf(x) == pytest.approx(normal_cdf_quadrature(x), abs=1e-12)


class TestBetaAccuracy:
    def test_uninformative_mean_gives_half(self):
        for n in (2, 100, 10_000):
            assert beta_from_moments(n, 0.5, 0.3) == 0.5

    def test_increasing_in_population(self):
        params = make_params()
        dist = DegreeDistribution.poisson_truncated(4.0, 16)
        s = mv_moments_equal_priors(params, dist)
        # beta rounds to exactly 1 from about n = 1000 on this law
        values = [beta_from_moments(n, s.mu1, s.kappa1) for n in (10, 30, 100, 300)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert 0.999 < values[-1] < 1.0

    def test_zero_variance_rejected(self):
        with pytest.raises(AnalyticsError):
            beta_from_moments(100, 0.6, 0.0)


class TestExpectedPayment:
    def test_perfect_majority(self):
        assert expected_total_payment(2.0, 1.0, 0.7, 50) == pytest.approx(2.0 * 0.7 * 50)

    def test_hand_value(self):
        assert expected_total_payment(2.0, 0.9, 0.8, 100) == pytest.approx(220.0)

    def test_degenerate_beta(self):
        with pytest.raises(AnalyticsError):
            expected_total_payment(2.0, 0.5, 0.8, 100)


class TestBhattacharyya:
    def test_indistinguishable_is_zero(self):
        assert bhattacharyya(100, 0.5, 0.2) == 0.0

    def test_linear_in_population(self):
        b1 = bhattacharyya(100, 0.6, 0.3)
        b2 = bhattacharyya(200, 0.6, 0.3)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)

    def test_matches_gaussian_quadrature(self):
        # the W = 0 sum law mirrors W = 1: mean n (1 - mu1), the same variance
        n, mu1, kap = 250, 0.65, 0.4
        ours = bhattacharyya(n, mu1, kap)
        oracle = gaussian_bhattacharyya_quadrature(n * mu1, n * kap, n * (1.0 - mu1), n * kap)
        assert ours == pytest.approx(oracle, rel=1e-6)

    def test_zero_variance_rejected(self):
        with pytest.raises(AnalyticsError):
            bhattacharyya(10, 0.6, 0.0)

    def test_equilibrium_at_least_baseline(self):
        dist = DegreeDistribution.poisson_truncated(4.0, 16)
        for eps in (0.1, 0.3, 0.5):
            params = make_params(epsilon=eps)
            b_mv = bhattacharyya(250, *mv_moments_equal_priors(params, dist))
            b_nd = bhattacharyya(250, *nd_moments(params, dist))
            assert b_mv >= b_nd - 1e-12


class TestPrediction:
    DIST = DegreeDistribution.poisson_truncated(4.0, 16)

    def test_matches_hand_composed_design(self, default_params):
        from privmarket.mechanism import design_Z, design_Z0_Z1

        mv = mv_moments_equal_priors(default_params, self.DIST)
        pred = predict(default_params, mv.mu1, mv.kappa1)
        beta = beta_from_moments(250, mv.mu1, mv.kappa1)
        z = design_Z(0.1, 0.7, default_params.cost)
        z0, z1 = design_Z0_Z1(z, beta, beta, 0.5)
        total = expected_total_payment(z0, beta, mv.mu1, 250)
        assert (pred.beta, pred.z, pred.z0, pred.z1) == (beta, z, z0, z1)
        assert (pred.total_payment, pred.payment_per_user) == (total, total / 250)
        assert pred.bhattacharyya == bhattacharyya(250, mv.mu1, mv.kappa1)

    def test_scale_multiplies_constants_and_payout(self, default_params):
        base = predict(default_params, 0.6, 0.3)
        scaled = predict(default_params, 0.6, 0.3, scale=0.37)
        assert scaled.beta == base.beta and scaled.bhattacharyya == base.bhattacharyya
        for key in ("z", "z0", "z1", "total_payment", "payment_per_user"):
            assert getattr(scaled, key) == pytest.approx(0.37 * getattr(base, key), rel=1e-15)

    def test_uninformative_profile_rejected(self, default_params):
        # beta = 1/2 leaves Z0 and Z1 undefined
        with pytest.raises(MechanismError):
            predict(default_params, 0.5, 0.25)


class TestPaymentBound:
    DIST = DegreeDistribution.poisson_truncated(4.0, 16)

    def _bound(self, p_e, params):
        mv, nd = mv_moments_equal_priors(params, self.DIST), nd_moments(params, self.DIST)
        return payment_bound(p_e, predict(params, mv.mu1, mv.kappa1), bhattacharyya(250, *nd))

    def test_loose_target_is_slack(self, default_params):
        rep = self._bound(0.5, default_params)
        assert rep.regime == "slack"
        assert rep.bound_per_user is None

    def test_boundary_included_in_slack(self, default_params):
        b_nd = bhattacharyya(250, *nd_moments(default_params, self.DIST))
        rep = self._bound(math.exp(-b_nd), default_params)
        assert rep.regime == "slack"

    def test_tight_target_bounds_by_equilibrium_payment(self, default_params):
        from privmarket.mechanism import design_Z, design_Z0_Z1

        b_nd = bhattacharyya(250, *nd_moments(default_params, self.DIST))
        rep = self._bound(math.exp(-b_nd) / 10.0, default_params)
        assert rep.regime == "tight"
        mv = mv_moments_equal_priors(default_params, self.DIST)
        beta = beta_from_moments(250, mv.mu1, mv.kappa1)
        z = design_Z(0.1, 0.7, default_params.cost)
        z0, _ = design_Z0_Z1(z, beta, beta, 0.5)
        assert rep.bound_per_user == pytest.approx(
            expected_total_payment(z0, beta, mv.mu1, 250) / 250, rel=1e-12
        )


class TestGraphMoments:
    def test_cycle_variance_from_pairwise_terms(self, default_params):
        # 6-cycle: all degree 2; adjacent pairs have no common friend and
        # second neighbors share exactly one; no other dependent pairs.
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        law = mv_report_law(default_params)
        mu, kappa = graph_report_moments(g, law)
        terms = law.terms(2)
        m = terms.mean[2]
        vs = terms.pair_adjacent(2, 2)
        vst = terms.pair_common_friend(2, 2)
        expected = m * (1 - m) + 2 * (vs - m * m) + 2 * (vst - m * m)
        assert mu == pytest.approx(m, abs=1e-15)
        assert kappa == pytest.approx(expected, abs=1e-12)

    def test_triangle_skips_wedge_terms(self, default_params):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        law = mv_report_law(default_params)
        terms = law.terms(2)
        m = terms.mean[2]
        vs = terms.pair_adjacent(2, 2)
        _, kappa = graph_report_moments(g, law)
        assert kappa == pytest.approx(m * (1 - m) + 2 * (vs - m * m), abs=1e-12)


def _cycle(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def _petersen() -> Graph:
    """3-regular with girth 5: outer 5-cycle, spokes, inner pentagram."""
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


_GIRTH_FIVE = {"C5": lambda: _cycle(5), "C8": lambda: _cycle(8), "C13": lambda: _cycle(13),
               "petersen": _petersen}


class TestDegreeLawIsGraphExpectation:
    """On a regular graph of girth >= 5 every neighbour pair is an edge and
    every pair at distance two shares exactly one friend, so the realized
    graph holds exactly the configuration model's expected pair counts and
    the degree law's moments equal `graph_report_moments`."""

    @pytest.mark.parametrize("graph_name", sorted(_GIRTH_FIVE))
    @pytest.mark.parametrize("law_name", ["mv", "nd"])
    def test_regular_girth_five(self, graph_name, law_name):
        graph = _GIRTH_FIVE[graph_name]()
        dist = DegreeDistribution.from_graph(graph)
        moments, report_law = ((mv_moments_equal_priors, mv_report_law) if law_name == "mv"
                               else (nd_moments, nd_report_law))
        for theta0 in (0.55, 0.7, 0.9):
            for alpha in (0.05, 0.25, 0.4):
                for eps in (0.1, 0.5, 1.5):
                    params = make_params(theta0=theta0, alpha=alpha, epsilon=eps)
                    s = moments(params, dist)
                    mu, kappa = graph_report_moments(graph, report_law(params))
                    point = (theta0, alpha, eps)
                    assert s.mu1 == pytest.approx(mu, rel=1e-12, abs=0.0), point
                    assert s.kappa1 == pytest.approx(kappa, rel=1e-12, abs=0.0), point


class TestDegreeLawMatchesSimulation:
    def test_poisson_config_model(self):
        # The README model on a configuration-model graph of 4000 users
        # with Poisson(3) degrees: the degree law's kappa is the expectation
        # over such graphs, so it must sit within 3 se of the variance of
        # the simulated report sum.  12 000 trials, about 1.5 s.
        cfg = apply_overrides(default_config(), [
            "graph.kind=config-model", "graph.poisson_mean=3", "model.population=4000",
            "model.epsilon=0.5", "sim.seed=20240101", "sim.trials=12000", "sim.workers=1",
        ])
        s = mv_moments_equal_priors(model_params(cfg), analytic_distribution(cfg))
        (result,) = run_experiment([cfg])
        got = result.empirical_kappa1
        assert abs(s.kappa1 - got.value) < 3.0 * got.se, (s.kappa1, got)


# The array code sums in another order than the loop references (products
# of single-degree averages, math.fsum over graph terms), so agreement is
# to a relative tolerance fixed beforehand, far above double rounding.
REL = 1e-12


def _ring_lattice(n: int, reach: int) -> Graph:
    """Each node linked to the `reach` nearest nodes on either side."""
    return Graph(n, [(i, (i + k) % n) for i in range(n) for k in range(1, reach + 1)])


def _disjoint_cliques(count: int, size: int) -> Graph:
    return Graph(count * size, [
        (c * size + a, c * size + b)
        for c in range(count) for a in range(size) for b in range(a + 1, size)
    ])


class TestArrayFormsMatchLoops:
    @pytest.mark.parametrize("graph_name", ["er250", "ring", "k5_cliques", "star_plus_ring"])
    @pytest.mark.parametrize("law_name", ["mv", "nd"])
    def test_graph_moments(self, graph_name, law_name):
        graphs = {
            "er250": lambda: generate_erdos_renyi(np.random.default_rng(5), 250, 4.0),
            # triangles and non-adjacent pairs with two shared friends
            "ring": lambda: _ring_lattice(200, 2),
            "k5_cliques": lambda: _disjoint_cliques(20, 5),
            "star_plus_ring": lambda: Graph(
                60, [(0, i) for i in range(1, 60)] + [(i, i + 1) for i in range(1, 59)]
            ),
        }
        graph = graphs[graph_name]()
        params = make_params(epsilon=0.5)
        law = mv_report_law(params) if law_name == "mv" else nd_report_law(params)
        mu, kappa = graph_report_moments(graph, law)
        mu_ref, kappa_ref = graph_report_moments_loop(graph, law)
        assert mu == mu_ref
        assert kappa == pytest.approx(kappa_ref, rel=REL, abs=0.0)

    def test_graph_moments_edge_list_fixture(self, tmp_path):
        # about 80k wedges: several wedge chunks
        graph = ingest_edge_list(write_grqc_like(tmp_path / "grqc.txt")).graph
        law = mv_report_law(make_params())
        mu, kappa = graph_report_moments(graph, law)
        mu_ref, kappa_ref = graph_report_moments_loop(graph, law)
        assert mu == mu_ref
        assert kappa == pytest.approx(kappa_ref, rel=REL, abs=0.0)

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_graph_moments_chunk_boundaries(self, monkeypatch, chunk):
        graph = Graph(30, [(0, i) for i in range(1, 12)] + [(i, i + 1) for i in range(1, 29)]
                      + [(3, 20), (5, 25)])
        law = mv_report_law(make_params(epsilon=0.3))
        kappa_ref = graph_report_moments_loop(graph, law)[1]
        # the hub at 0 has 55 wedges, more than any chunk: its run is cut
        monkeypatch.setattr(graph_module, "_WEDGE_CHUNK", chunk)
        moments = graph_report_moments(graph, law)
        assert moments[1] == pytest.approx(kappa_ref, rel=REL, abs=0.0)
        assert moments == graph_report_moments_fsum(graph, law)

    def test_graph_moments_edgeless(self):
        law = mv_report_law(make_params())
        mu, kappa = graph_report_moments(Graph(4, []), law)
        assert mu == law.lam
        assert kappa == pytest.approx(law.lam * (1.0 - law.lam), rel=1e-15)

    @pytest.mark.parametrize("dist_name", ["readme_binomial", "poisson4"])
    @pytest.mark.parametrize("cost", ["quadratic", "linear-capped"])
    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0])  # 2.0: degree 1's band covers 0..1
    def test_mv_ensemble(self, dist_name, cost, eps):
        cost_fn = quadratic_cost() if cost == "quadratic" else linear_capped_cost()
        self._check_ensemble(mv_moments_equal_priors, mv_report_law,
                             make_params(epsilon=eps, cost=cost_fn), dist_name)

    @pytest.mark.parametrize("dist_name", ["readme_binomial", "poisson4"])
    def test_nd_ensemble(self, dist_name):
        # The baseline's law has tau = 0 and epsilon = 0 whatever the cost.
        self._check_ensemble(nd_moments, nd_report_law, make_params(), dist_name)

    @staticmethod
    def _check_ensemble(moments, report_law, params, dist_name):
        dist = (DegreeDistribution.binomial(249, 4 / 249) if dist_name == "readme_binomial"
                else DegreeDistribution.poisson_truncated(4.0, 16))
        vs, vst = report_law(params).terms(dist.d_max).ensemble_pair_probs(dist)
        vs_ref, vst_ref = ensemble_pair_probs_double_sum(report_law(params), dist)
        assert vs == pytest.approx(vs_ref, rel=REL, abs=0.0)
        assert vst == pytest.approx(vst_ref, rel=REL, abs=0.0)
        mean = report_law(params).terms(dist.d_max).mean
        law = [(d, m) for d, m in enumerate(dist.mass) if m > 0]
        mean_d = sum(d * m for d, m in law)
        m_bar = sum(d * m * mean[d] for d, m in law) / mean_d
        kappa_ref = (sum(m * mean[d] * (1.0 - mean[d]) for d, m in law)
                     + mean_d * (vs_ref - m_bar**2)
                     + sum(d * (d - 1) * m for d, m in law) * (vst_ref - m_bar**2))
        assert moments(params, dist).kappa1 == pytest.approx(kappa_ref, rel=REL, abs=0.0)

    def test_terms_lead_larger_builds(self, default_params):
        law = mv_report_law(default_params)
        small, big = law.terms(3), law.terms(40)
        for name in ("mean", "M", "G"):
            lead = getattr(big, name)[..., :4]
            assert np.array_equal(getattr(small, name), lead, equal_nan=True), name
        assert small.pair_adjacent(2, 3) == big.pair_adjacent(3, 2)
        assert big.pair_common_friend(40, 7) == big.pair_common_friend(7, 40)
        degrees = np.array([7, 1, 40, 2])
        pairs = big.pair_adjacent(degrees, degrees[::-1])
        assert pairs.tolist() == [big.pair_adjacent(int(a), int(b))
                                  for a, b in zip(degrees, degrees[::-1])]
        # a degree-0 endpoint has no friend, scalar or in an array
        for pair in (small.pair_adjacent, small.pair_common_friend):
            with pytest.raises(AnalyticsError):
                pair(0, 3)
            with pytest.raises(AnalyticsError):
                pair(np.array([2, 3]), np.array([1, 0]))
            empty = np.array([], dtype=np.int64)  # an edgeless graph
            assert pair(empty, empty).shape == (0,)

    def test_law_holds_only_constants(self, default_params):
        law = mv_report_law(default_params)
        before = dict(vars(law))
        graph = generate_erdos_renyi(np.random.default_rng(5), 250, 4.0)
        graph_report_moments(graph, law)
        law.terms(60)
        law.side_table(graph.degrees)
        assert vars(law).keys() == before.keys()
        assert all(vars(law)[k] is v for k, v in before.items())
        with pytest.raises(ValueError):
            law.terms(4).mean[1] = 0.0


def _fsum_outcome(fn, *args):
    """fn(*args) as a comparable value: the float's repr, or the exception's type and text."""
    try:
        return repr(fn(*args))
    except (ValueError, OverflowError) as exc:
        return type(exc).__name__, str(exc)


class TestWeightedFsum:
    """`weighted_fsum(values, counts)` is `math.fsum` of the expanded list, bit for bit."""

    @staticmethod
    def _expanded(values, counts):
        return math.fsum(np.repeat(np.asarray(values, dtype=float), counts).tolist())

    @staticmethod
    def _random_values(rng, size):
        """Mixed signs, magnitudes 1e-300..1e300, subnormals, zeros and cancelling pairs."""
        values = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300, 300, size)
        pick = rng.random(size)
        subnormal = np.copysign(5e-324 * rng.integers(1, 2**52, size), values)
        values[pick < 0.1] = subnormal[pick < 0.1]
        values[(0.1 <= pick) & (pick < 0.15)] = 0.0
        mirror = (0.15 <= pick) & (pick < 0.35)
        values[mirror] = -rng.permutation(values)[mirror]  # cancels another value's copies
        return values

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_fsum_of_expanded_list(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(250):
            size = int(rng.integers(1, 40))
            values = self._random_values(rng, size)
            counts = rng.integers(0, 12, size)  # zero counts drop a value
            assert weighted_fsum(values, counts).hex() == self._expanded(values, counts).hex()

    @pytest.mark.parametrize("seed", range(4))
    def test_heavy_cancellation(self, seed):
        # huge terms cancel exactly and leave a tiny or subnormal remainder
        rng = np.random.default_rng(100 + seed)
        for _ in range(200):
            big = 10.0 ** rng.uniform(0, 300, 4) * rng.choice([-1.0, 1.0], 4)
            small = rng.choice([5e-324, 1e-310, 1e-300, 1.0]) * rng.integers(1, 1000, 3)
            values = np.concatenate([big, -big, small, -small[:1]])
            big_counts = rng.integers(1, 9, 4)
            counts = np.concatenate([big_counts, big_counts, rng.integers(0, 9, 4)])
            assert weighted_fsum(values, counts).hex() == self._expanded(values, counts).hex()

    def test_counts_up_to_two_to_the_forty(self):
        # the expanded list cannot be built here; math.fsum is the correctly
        # rounded exact sum, which Fraction gives (checked against the
        # expanded list first, on counts it can hold)
        from fractions import Fraction

        def exact(values, counts):
            return float(sum(Fraction(float(v)) * int(c) for v, c in zip(values, counts)))

        rng = np.random.default_rng(40)
        for _ in range(100):
            values = self._random_values(rng, 20)
            counts = rng.integers(0, 30, 20)
            assert exact(values, counts).hex() == self._expanded(values, counts).hex()
        for _ in range(300):
            size = int(rng.integers(1, 30))
            values = self._random_values(rng, size) * 1e-12  # no product reaches 2**1024
            counts = rng.integers(0, 2**40 + 1, size, dtype=np.int64)
            counts[rng.random(size) < 0.2] = 2**40
            assert weighted_fsum(values, counts).hex() == exact(values, counts).hex()

    @pytest.mark.parametrize("values, counts", [
        ([math.inf, 1.0], [3, 2]),
        ([-math.inf, 1e300], [1, 7]),
        ([math.inf, -math.inf], [2, 1]),
        ([math.inf, -math.inf], [2, 0]),  # a zero count drops the infinity
        ([math.nan, 1.0], [1, 5]),
        ([math.nan, math.inf], [4, 4]),
        ([math.nan, math.inf, -math.inf], [1, 1, 1]),
        ([math.nan, 2.0], [0, 3]),
        ([1e308, 1.0], [2, 1]),  # overflow
        ([1e308, -1e308, 1e308], [1, 1, 1]),
        ([-0.0], [3]),
        ([], []),
    ])
    def test_non_finite_values_and_overflow_as_fsum(self, values, counts):
        expanded = np.repeat(np.asarray(values, dtype=float), counts).tolist()
        assert _fsum_outcome(weighted_fsum, values, counts) == _fsum_outcome(math.fsum, expanded)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError, match="non-negative"):
            weighted_fsum([1.0, 2.0], [3, -1])


_EXACT_GRAPHS = {
    "ring": lambda tmp_path: _ring_lattice(200, 2),
    "k5_cliques": lambda tmp_path: _disjoint_cliques(20, 5),
    "star_plus_path": lambda tmp_path: Graph(
        60, [(0, i) for i in range(1, 60)] + [(i, i + 1) for i in range(1, 59)]),
    "grqc_like": lambda tmp_path: ingest_edge_list(write_grqc_like(tmp_path / "grqc.txt")).graph,
    "er250": lambda tmp_path: generate_erdos_renyi(np.random.default_rng(5), 250, 4.0),
    "edgeless": lambda tmp_path: Graph(4, []),
}


class TestGraphMomentsByDegreePairs:
    """`graph_report_moments` from degree-pair counts equals one `math.fsum`
    over a term per node, edge and open wedge (the referee), exactly."""

    @pytest.mark.parametrize("graph_name", list(_EXACT_GRAPHS))
    @pytest.mark.parametrize("law_name", ["mv", "nd"])
    @pytest.mark.parametrize("eps", [0.0, 0.5])
    def test_equals_per_wedge_fsum(self, tmp_path, graph_name, law_name, eps):
        graph = _EXACT_GRAPHS[graph_name](tmp_path)
        params = make_params(epsilon=eps)
        law = mv_report_law(params) if law_name == "mv" else nd_report_law(params)
        assert graph_report_moments(graph, law) == graph_report_moments_fsum(graph, law)

    def test_pair_counts(self):
        # a triangle 0-1-2 with a tail 2-3 (degrees 2, 2, 3, 1): the wedges
        # closed by the triangle's edges drop out
        edges, wedges = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)]).degree_pairs()
        assert (edges.lo.tolist(), edges.hi.tolist(), edges.count.tolist()) == (
            [1, 2, 2], [3, 2, 3], [1, 1, 2])
        assert (wedges.lo.tolist(), wedges.hi.tolist(), wedges.count.tolist()) == (
            [1], [2], [2])

    def test_epsilon_sweep_enumerates_wedges_once(self, monkeypatch):
        calls = []
        wedges = graph_module._open_wedges
        monkeypatch.setattr(graph_module, "_open_wedges",
                            lambda graph: calls.append(graph) or wedges(graph))
        moments = []
        moments_fn = sim.graph_report_moments
        monkeypatch.setattr(sim, "graph_report_moments",
                            lambda graph, law: moments.append(law) or moments_fn(graph, law))
        cfg = apply_overrides(default_config(), ["model.population=120", "sim.trials=4",
                                                 "sweep.axis=epsilon", "sweep.values=0.1,0.3,0.5"])
        sim.sweep(cfg)
        assert len(moments) == 3 and len(calls) == 1
