"""Closed-form statistics of the reported-data sum.

Two strategy profiles are covered, both symmetric and analyzed under equal
priors: the equilibrium majority-voting profile (band half-width tau solved
from the model, randomized-response level epsilon inside the band) and the
all-non-disclosive baseline (tau = 0, epsilon = 0, i.e. a fair coin at
ties).  `ReportLaw` captures one such profile: `band_bounds` gives a
degree's band, `ReportLaw.side_table` is the law of a user's group-signal
sum's side of the band given her degree and her friends' signals, and
`ReportLaw.cut_table` splits each of those laws by what she reports, so
that the Monte Carlo engine draws a user's whole move (report and band
side) from one uniform, on a 2**-31 grid.  `ReportLaw.terms` tabulates
the per-degree conditional report probabilities that everything else is
assembled from (`DegreeTerms`); they are sums over the same band.

There is one variance coefficient, kappa1, the report sum's variance over
n, with two sources of pair counts and one pair function per pair type
(`_adjacent_from_rows`, `_common_friend_from_rows`), applied to the two
ends' `DegreeTerms` rows; they match brute-force enumeration.  On a
realized graph, `graph_report_moments` assembles the report sum's
variance as the pair sum of the dependency-graph CLT (Baldi & Rinott
1989): per-user variances plus one covariance per edge and per open
wedge, each from the rows of the pair's two degrees.  On a degree law,
`mv_moments_equal_priors` and `nd_moments` give the same sum's
configuration-model expectation: every count is replaced by its expected
value, and a friend's degree follows the size-biased law d rho(d) / E[D]
(Newman, Strogatz & Watts 2001), so the pair functions read the
size-biased average rows.  On a regular graph without 3- or 4-cycles the
two agree exactly.  All three return `ReportMoments(mu1, kappa1)`.
`analytics` prints the degree law's; `simulate` and the normality probe
read the realized graph's.

`predict` is the one place that designs the payment constants: from a
profile's (mu1, kappa1) at its parameters' population n it gives beta,
Z, Z0, Z1, the expected payout and the Bhattacharyya distance.

A degree law is one per-degree mass vector (`graph.DegreeDistribution`),
and its expectations are finite sums over the degrees it gives mass;
nothing in this module samples.  Each closed form builds one
`DegreeTerms` up to the largest degree it reads, so a degree-law average
costs O(|support|).  On a realized graph every term depends only on the
degrees of its users: `Graph.degree_pairs` counts the edges and open
wedges by their two degrees, O(edges + wedges) integer work once per
graph, and each law then costs O(types) float work, one term per degree
or degree pair present, added by `weighted_fsum`, an exactly-rounded
count-weighted sum.  Binomial masses come from the numpy recurrence in
`graph.binomial_pmf`; the module imports no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .graph import DegreeDistribution, Graph, binomial_pmf
from .mechanism import design_Z, design_Z0_Z1
from .model import ModelParams
from .strategy import band_ends, equal_priors_tau

__all__ = [
    "AnalyticsError",
    "DegreeTerms",
    "PaymentBoundReport",
    "Prediction",
    "ReportLaw",
    "ReportMoments",
    "band_bounds",
    "lambda_sr",
    "mv_report_law",
    "nd_report_law",
    "mv_moments_equal_priors",
    "nd_moments",
    "graph_report_moments",
    "weighted_fsum",
    "std_normal_cdf",
    "beta_from_moments",
    "expected_total_payment",
    "check_payments_finite",
    "bhattacharyya",
    "predict",
    "payment_bound",
]


class AnalyticsError(ValueError):
    """Degenerate inputs to a closed-form computation."""


def band_bounds(d, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the integer group-signal sums of the band d/2 +- tau, both included.

    The cuts d/2 -+ tau become band ends by `strategy.band_ends`, the rule
    the strategy tables classify their cells with.

    `d` is a degree or an array of degrees.  Sums below lo report 0, sums
    above hi report 1; a band wider than the whole range covers 0..d.
    """
    d = np.asarray(d)
    return band_ends(d / 2 - tau, d / 2 + tau)


def _band_tail(pmf: np.ndarray, lo: int, hi: int) -> tuple[float, float]:
    """(band mass, upper-tail mass) of a count with mass `pmf` and band lo..hi."""
    return float(pmf[max(lo, 0):max(hi + 1, 0)].sum()), float(pmf[max(hi + 1, 0):].sum())


def lambda_sr(epsilon: float, theta0: float) -> float:
    """Report-1 probability of a randomized responder given W = 1."""
    ee = math.exp(epsilon)
    return (theta0 * ee + 1.0 - theta0) / (ee + 1.0)


_SIDE_CHUNK = 1 << 16  # (a, flipped) cells per step of `ReportLaw.side_table`


def _adjacent_from_rows(pr, m_i, m_j):
    """Pr(X_i = X_j = 1 | W = 1) for friends i, j with no common friend.

    m_i, m_j: the ends' `DegreeTerms.M` rows [own signal, friend's signal, ...].
    """
    return sum(pr[si] * pr[sj] * m_i[si, sj] * m_j[sj, si] for si in (0, 1) for sj in (0, 1))


def _common_friend_from_rows(pr, g_i, g_j):
    """Pr(X_i = X_j = 1 | W = 1) for non-friends sharing exactly one friend.

    g_i, g_j: the ends' `DegreeTerms.G` rows [the shared friend's signal, ...].
    """
    return pr[0] * g_i[0] * g_j[0] + pr[1] * g_i[1] * g_j[1]


@dataclass(frozen=True, eq=False)
class DegreeTerms:
    """Per-degree report probabilities of one `ReportLaw`, degrees 0..d_max, read-only.

    * `mean[d]`    = Pr(X = 1 | degree d);
    * `M[s, t, d]` = Pr(X = 1 | own signal s, one friend's signal t, degree d);
    * `G[t, d]`    = the same with the own signal averaged out;
    * `pr`         = (Pr(signal = 0), Pr(signal = 1)).

    A degree's row is `M[..., d]`; the rows of an array of degrees stack
    along trailing axes.  A friendless user receives no friend's signal,
    so degree 0's entries of M and G are NaN.  Every pair probability is a
    row function above applied to the two ends' rows: the rows of two
    degrees or arrays of degrees, in either order (`pair_adjacent`,
    `pair_common_friend`), or rows averaged over a degree law
    (`ensemble_pair_probs`).
    """

    mean: np.ndarray
    M: np.ndarray
    G: np.ndarray
    pr: tuple[float, float]

    def pair_adjacent(self, di, dj):
        """Pr(X_i = X_j = 1 | W = 1) for friends i, j with no common friend."""
        return _adjacent_from_rows(self.pr, *_linked_rows(self.M, di, dj))

    def pair_common_friend(self, di, dj):
        """Pr(X_i = X_j = 1 | W = 1) for non-friends sharing exactly one friend."""
        return _common_friend_from_rows(self.pr, *_linked_rows(self.G, di, dj))

    def ensemble_pair_probs(self, dist: DegreeDistribution) -> tuple[float, float]:
        """(adjacent, common-friend) pair probabilities averaged over the configuration model.

        In a configuration-model graph the two ends of an edge, and the two
        ends of a wedge, each have a degree drawn from the size-biased law
        d rho(d) / E[D], independently.  A pair probability is a sum of
        products of one row entry per end, so its average is the row
        function of the size-biased average rows, each entry a
        `math.fsum`: O(|support|).  The law must have E[D] > 0.
        """
        degrees = np.flatnonzero(dist.mass)
        degrees = degrees[degrees > 0]
        weight = degrees * dist.mass[degrees] / dist.mean()
        m, g = (np.apply_along_axis(math.fsum, -1, weight * np.take(table, degrees, axis=-1))
                for table in (self.M, self.G))
        return (float(_adjacent_from_rows(self.pr, m, m)),
                float(_common_friend_from_rows(self.pr, g, g)))


def _linked_rows(table: np.ndarray, di, dj) -> tuple[np.ndarray, np.ndarray]:
    """The rows of `table` at two endpoint degrees, the lower degree first, elementwise.

    Both degrees must be >= 1.  `np.take` gathers along the last (degree)
    axis several times faster than `table[..., d]` does.
    """
    lo, hi = np.minimum(di, dj), np.maximum(di, dj)
    if np.any(lo < 1):
        raise AnalyticsError("a user with a friend has degree >= 1")
    return np.take(table, lo, axis=-1), np.take(table, hi, axis=-1)


class ReportLaw:
    """Conditional report law of one symmetric profile, given W = 1.

    Under equal priors the W = 0 law is the mirror image, so a single
    conditional covers both hypotheses.  A law holds only its constants;
    `terms(d_max)` tabulates the per-degree report probabilities that the
    closed forms read, and `side_table`/`cut_table` the engine's
    thresholds.
    """

    def __init__(self, params: ModelParams, tau: float, epsilon: float):
        self.params = params
        self.tau = float(tau)
        self.epsilon = float(epsilon)
        self.lam = lambda_sr(epsilon, params.theta0)
        ee = math.exp(self.epsilon)
        # Pr(randomized report = 1 | own signal 0, 1), and what randomizing costs
        self._coin = np.array([1.0 / (ee + 1.0), ee / (ee + 1.0)])
        self.band_cost = params.cost.value(self.epsilon)

    def terms(self, d_max: int) -> DegreeTerms:
        """The law's `DegreeTerms` for degrees 0..d_max."""
        th0, th1, alpha = self.params.theta0, self.params.theta1, self.params.alpha
        c = self._coin
        lo, hi = (b.tolist() for b in band_bounds(np.arange(d_max + 1), self.tau))
        mean = np.empty(d_max + 1)
        j = np.full((2, 2, d_max + 1), np.nan)  # [k, l, d]: own signal k, one received bit l
        prev = None  # Binomial(d - 1, theta1) mass: the d - 1 other received bits
        for d in range(d_max + 1):
            pmf = binomial_pmf(d, th1)
            nu_sr, nu_nd = _band_tail(pmf, lo[d], hi[d])
            mean[d] = nu_nd + self.lam * nu_sr
            if prev is not None:
                for l in (0, 1):  # l received bits are fixed, so the band shifts by l
                    band, tail = _band_tail(prev, lo[d] - l, hi[d] - l)
                    j[:, l, d] = tail + c * band
            prev = pmf
        # The friend's bit arrives flipped with probability alpha.
        m = (1.0 - alpha) * j + alpha * j[:, ::-1]
        g = th0 * m[1] + (1.0 - th0) * m[0]
        for table in (mean, m, g):
            table.flags.writeable = False
        return DegreeTerms(mean=mean, M=m, G=g, pr=(1.0 - th0, th0))

    def side_table(self, degrees) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(offset, below, at_most): the law of a group-signal sum's side of the band.

        A user of degree d, a of whose friends hold private signal 1,
        receives each friend's signal flipped with probability alpha, so
        her sum is f ~ Binomial(a, 1 - alpha) + Binomial(d - a, alpha).  For
        every degree d in `degrees` and a = 0..d, entry offset[d] + a of
        `below` is Pr(f < lo) and of `at_most` is Pr(f <= hi), with lo, hi
        from `band_bounds`.  The flat arrays hold d + 1 entries per distinct
        degree; `offset` is indexed by degree and meaningful only at the
        degrees given.  Building them holds two (d_max + 1)^2 float tables.
        """
        present = np.flatnonzero(np.bincount(degrees)).tolist()
        d_max = present[-1]
        # pmf[j, i] = Pr(Binomial(j, alpha) = i); cdf[j, i + 1] = Pr(Binomial(j, alpha) <= i)
        # for i = -1..d_max, exactly 0 below the range and exactly 1 from j up.
        pmf = np.zeros((d_max + 1, d_max + 1))
        cdf = np.ones((d_max + 1, d_max + 2))
        cdf[:, 0] = 0.0
        for j in range(d_max + 1):
            pmf[j, :j + 1] = binomial_pmf(j, self.params.alpha)
            cdf[j, 1:j + 1] = np.cumsum(pmf[j, :j])
        offset = np.zeros(d_max + 1, dtype=np.int64)
        offset[present] = np.cumsum([0] + [d + 1 for d in present[:-1]])
        lo, hi = (b.tolist() for b in band_bounds(present, self.tau))
        step = max(1, _SIDE_CHUNK // (d_max + 1))  # rows of a per step: bounded temporaries
        blocks = []
        for d, lo_d, hi_d in zip(present, lo, hi):
            c = np.array([lo_d - 1, hi_d])[:, None, None]
            span = np.arange(d + 1)
            flipped = span  # of the a ones, this many arrive as 0
            block = np.empty((2, d + 1))
            for start in range(0, d + 1, step):
                rows = slice(start, min(start + step, d + 1))
                a = span[rows, None]
                # f <= c  <=>  flips among the d - a zeros <= c - a + flipped
                idx = np.clip(c - a + flipped + 1, 0, d_max + 1)
                block[:, rows] = (pmf[rows, :d + 1] * cdf[d - a, idx]).sum(axis=2)
            if hi_d >= d:
                block[1] = 1.0  # the band reaches the top: exactly 1, not a sum of masses
            blocks.append(block)
        below, at_most = np.concatenate(blocks, axis=1)
        return offset, below, at_most

    def cut_table(self, below: np.ndarray, at_most: np.ndarray) -> np.ndarray:
        """cut[e, s]: where a user of `side_table` entry e and own signal s starts reporting 1.

        One uniform u per user draws her whole move.  Her unit interval is
        split into four cells: [0, below) lies below the band and reports
        0, [below, cut) lies in the band and reports 0, [cut, at_most) lies
        in the band and reports 1, and [at_most, 1) lies above the band
        and reports 1.  So she reports u >= cut and sits in her band when
        below <= u < at_most.  Inside the band she randomizes her signal at
        level epsilon (a fair coin when epsilon = 0) and pays `band_cost` =
        g(epsilon); outside it she reports the group majority at no cost.
        The cut is at_most - (at_most - below) * Pr(randomized report = 1 | s),
        clipped to [below, at_most] so that rounding never lets two cells
        overlap.  The engine plays the interval on the 2**-31 grid: u is
        m * 2**-31 for a uniform 31-bit integer m, and each cell end p is
        rounded to round(p * 2**31) (`model.fixed_point`), which keeps the
        cells ordered, 0 and 1 exact, and every other end within 2**-32.
        The table is in floats; its one reader, `sim._Point`, rounds it
        with `below` and `at_most`.
        """
        lo, hi = below[:, None], at_most[:, None]
        return np.clip(hi - (hi - lo) * self._coin, lo, hi)


def mv_report_law(params: ModelParams) -> ReportLaw:
    """Report law of the equilibrium majority-voting profile (equal priors)."""
    return ReportLaw(params, tau=equal_priors_tau(params), epsilon=params.epsilon)


def nd_report_law(params: ModelParams) -> ReportLaw:
    """Report law of the all-non-disclosive baseline (majority, coin at ties)."""
    return ReportLaw(params, tau=0.0, epsilon=0.0)


class ReportMoments(NamedTuple):
    """Report moments of a symmetric profile given W = 1; W = 0 mirrors them.

    `mu1` is the mean report probability, and `kappa1` the variance of the
    report sum over n.
    """

    mu1: float
    kappa1: float


def _summary_from_law(law: ReportLaw, dist: DegreeDistribution) -> ReportMoments:
    """Moments of `law` on a configuration-model graph of degree law `dist`.

    Per user, the graph holds E[D] / 2 edges and E[D(D - 1)] / 2 open
    wedges in expectation, and each end of an edge or wedge has a
    size-biased degree; pairs sharing two or more friends have vanishing
    density.  So kappa1 = sum_d rho(d) m_d (1 - m_d)
    + E[D] (P_adj - mbar^2) + E[D(D - 1)] (P_cf - mbar^2), with m_d the
    report mean at degree d and mbar its size-biased average: the
    configuration-model expectation of `graph_report_moments`' pair sum.
    """
    if not law.params.equal_priors:
        raise AnalyticsError("closed-form moments require equal priors")
    terms = law.terms(dist.d_max)
    mean = terms.mean
    mu1 = dist.expect(mean)
    kappa1 = dist.expect(mean * (1.0 - mean))
    mean_d = dist.mean()
    if mean_d > 0.0:
        m_bar = dist.expect(np.arange(len(mean)) * mean) / mean_d
        p_adj, p_cf = terms.ensemble_pair_probs(dist)
        kappa1 += (mean_d * (p_adj - m_bar * m_bar)
                   + (dist.second_moment() - mean_d) * (p_cf - m_bar * m_bar))
    return ReportMoments(mu1, kappa1)


def mv_moments_equal_priors(params: ModelParams, dist: DegreeDistribution) -> ReportMoments:
    """Moments of the equilibrium profile on a configuration-model graph of degree law `dist`."""
    return _summary_from_law(mv_report_law(params), dist)


def nd_moments(params: ModelParams, dist: DegreeDistribution) -> ReportMoments:
    """The same for the all-non-disclosive baseline (tau = 0, coin at ties)."""
    return _summary_from_law(nd_report_law(params), dist)


def weighted_fsum(values, counts) -> float:
    """`math.fsum` of the list holding counts[i] copies of values[i], without building it.

    Each count is split into its binary digits, and values[i] * 2**k is
    exact in binary floating point unless it overflows.  So the terms
    values[i] * 2**k over the set bits k of counts[i] add up to exactly the
    expanded list's sum, and `math.fsum`, which rounds an exact sum once,
    returns the same float for both lists.  Non-finite values give what
    `math.fsum` gives (nan, the infinity, or ValueError for infinities of
    both signs), and a term beyond the float range raises its
    OverflowError.  `values` and `counts` are arrays of one shape, the
    counts non-negative integers below 2**63; the work is one term per set
    bit, at most 63 per value.
    """
    values = np.asarray(values, dtype=float).ravel()
    counts = np.asarray(counts, dtype=np.int64).ravel()
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    terms = []
    for k in range(int(counts.max(initial=0)).bit_length()):
        chosen = values[((counts >> k) & 1).astype(bool)]
        with np.errstate(over="ignore"):
            term = np.ldexp(chosen, k)
        if np.any(np.isinf(term) & np.isfinite(chosen)):
            raise OverflowError("intermediate overflow in fsum")
        terms += term.tolist()
    return math.fsum(terms)


def graph_report_moments(graph: Graph, law: ReportLaw) -> ReportMoments:
    """(mean report probability, variance coefficient) on a realized graph.

    The variance of the report sum is assembled exactly from the graph:
    per-node variances, one covariance per edge, and one covariance per
    wedge (neighbor pair of a common friend) that is not itself an edge.
    Pairs sharing several friends contribute one term per shared friend,
    and triangle pairs keep only their edge term; both patterns are rare
    in sparse graphs.

    Each term depends only on the degrees of its users, so the terms are
    evaluated once per degree or degree pair (`Graph.degree_pairs`, whose
    O(edges + wedges) integer counting runs once per graph) from the law's
    `DegreeTerms`, and added with `weighted_fsum`: a law costs O(types)
    float work, and the sum equals `math.fsum` over one term per node,
    edge and wedge.  mu1 is numpy's mean of the users' report means.
    """
    deg = graph.degrees
    terms = law.terms(graph.max_degree())
    mean = terms.mean
    edges, wedges = graph.degree_pairs()
    var_sum = weighted_fsum(
        np.concatenate([
            mean * (1.0 - mean),
            2.0 * (terms.pair_adjacent(edges.lo, edges.hi) - mean[edges.lo] * mean[edges.hi]),
            2.0 * (terms.pair_common_friend(wedges.lo, wedges.hi)
                   - mean[wedges.lo] * mean[wedges.hi]),
        ]),
        np.concatenate([np.bincount(deg), edges.count, wedges.count]),
    )
    return ReportMoments(float(mean[deg].mean()), var_sum / graph.n)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF (erfc-based, accurate to double precision)."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def beta_from_moments(n: int, mu1: float, kappa1: float) -> float:
    """Probability that the others' majority matches the true state."""
    if n < 2:
        raise AnalyticsError("need n >= 2")
    if kappa1 <= 0.0:
        raise AnalyticsError(f"variance coefficient must be positive, got {kappa1}")
    return std_normal_cdf(math.sqrt((n - 1) / kappa1) * (mu1 - 0.5))


def expected_total_payment(z: float, beta: float, mu1: float, n: int) -> float:
    """Total expected payout of the peer mechanism at the equilibrium profile."""
    if beta <= 0.5:
        raise AnalyticsError(f"beta must exceed 1/2, got {beta}")
    return z * (1.0 - beta + mu1 / (2.0 * beta - 1.0)) * n


def bhattacharyya(n: int, mu1: float, kappa1: float) -> float:
    """Gaussian-approximation Bhattacharyya distance of the two sum hypotheses.

    `mu1` and `kappa1` are the W = 1 moments; the W = 0 law mirrors them.
    """
    if kappa1 <= 0.0:
        raise AnalyticsError("zero variance: Bhattacharyya distance undefined")
    return n / 4.0 * (mu1 - (1.0 - mu1)) ** 2 / (kappa1 + kappa1)


@dataclass(frozen=True)
class Prediction:
    """A profile's payment design and predictions from its W = 1 report moments.

    z, z0 and z1 include the payment scale; `total_payment` is the expected payout.
    """

    n: int
    mu1: float
    kappa1: float
    beta: float
    z: float
    z0: float
    z1: float
    total_payment: float
    bhattacharyya: float

    @property
    def payment_per_user(self) -> float:
        return self.total_payment / self.n


def check_payments_finite(scale: float, **payments: float) -> None:
    """Raise AnalyticsError, naming the stage and the scale key, if a payment is not finite."""
    bad = ", ".join(f"{name} = {value:g}" for name, value in payments.items()
                    if not math.isfinite(value))
    if bad:
        raise AnalyticsError(
            f"payment design: {bad} at mechanism.payment_scale = {scale:g}; designed payments "
            "must be finite numbers"
        )


def predict(params: ModelParams, mu1: float, kappa1: float, scale: float = 1.0) -> Prediction:
    """Z, Z0, Z1 from beta (beta0 = beta1 under equal priors) times `scale`, and the payout.

    A payment that overflows raises AnalyticsError (`check_payments_finite`).
    """
    n = params.population
    beta = beta_from_moments(n, mu1, kappa1)
    z = design_Z(params.epsilon, params.theta0, params.cost)
    z0, z1 = design_Z0_Z1(z, beta, beta, params.prior_w1)
    z, z0, z1 = z * scale, z0 * scale, z1 * scale
    total = expected_total_payment(z0, beta, mu1, n)
    check_payments_finite(scale, Z=z, Z0=z0, Z1=z1, expected_total_payment=total)
    return Prediction(
        n=n, mu1=mu1, kappa1=kappa1, beta=beta, z=z, z0=z0, z1=z1,
        total_payment=total, bhattacharyya=bhattacharyya(n, mu1, kappa1),
    )


SLACK = "slack"
TIGHT = "tight"


@dataclass(frozen=True)
class PaymentBoundReport:
    regime: str  # SLACK or TIGHT
    bound_per_user: float | None  # populated in the tight regime


def payment_bound(p_e: float, mv: Prediction, nd_bhattacharyya: float) -> PaymentBoundReport:
    """Classify the payment regime for an error-probability target.

    A target at or above exp(-B(baseline)) is achievable at arbitrarily small
    total payment by the zero-privacy-cost baseline; a tighter target is
    coverable at the equilibrium profile's per-user expected payment.
    """
    if not 0.0 < p_e < 1.0:
        raise AnalyticsError("p_e must lie in (0, 1)")
    if p_e >= math.exp(-nd_bhattacharyya):
        return PaymentBoundReport(regime=SLACK, bound_per_user=None)
    return PaymentBoundReport(regime=TIGHT, bound_per_user=mv.payment_per_user)
