"""Independent oracles: exhaustive enumeration, grid search and quadrature.

Nothing here calls the closed-form code paths it is used to check.  Report
probabilities come straight from strategy-table rows; expectations are
exact sums over all signal outcomes.  The loop references check how the
array code assembles sums: they build a law's `DegreeTerms` once, take
each per-degree pair probability from it one degree pair at a time (the
enumeration oracles check those values), and sum them pair by pair.  The
per-item referees keep the earlier array paths that aggregate one float
per trial, node, edge or wedge with `math.fsum`; the count-weighted sums
must equal them bit for bit.
"""

from __future__ import annotations

import math
from itertools import chain, product
from types import SimpleNamespace

import numpy as np
from scipy import integrate

from privmarket.analytics import ReportLaw, ReportMoments, band_bounds, std_normal_cdf
from privmarket.graph import DegreeDistribution, Graph
from privmarket.mechanism import MechanismConfig
from privmarket.model import (
    TAG_TRIAL, ModelParams, ParameterError, sample_signals_and_moves, sample_world, substream,
)
from privmarket.sim import Estimate, SimResult, map_estimate
from privmarket.strategy import DegreeStrategy


def _sig_prob(bit: int, p_one: float) -> float:
    return p_one if bit == 1 else 1.0 - p_one


def enumerate_mu1(strat: DegreeStrategy, params: ModelParams) -> float:
    """Pr(X = 1 | W = 1) by summing over all (s, group-signal vector) outcomes."""
    d = strat.d
    th0, th1 = params.theta0, params.theta1
    total = 0.0
    for s in (0, 1):
        ps = _sig_prob(s, th0)
        for c in product((0, 1), repeat=d):
            pc = 1.0
            for bit in c:
                pc *= _sig_prob(bit, th1)
            total += ps * pc * strat.p1[sum(c), s]
    return total


def enumerate_pair_adjacent(
    strat_i: DegreeStrategy, strat_j: DegreeStrategy, params: ModelParams
) -> float:
    """Pr(X_i = X_j = 1 | W = 1) for friends without a common friend.

    Enumerates both private signals, the two directed copies exchanged on
    the shared edge, and the remaining group-signal sums.
    """
    th0, th1, alpha = params.theta0, params.theta1, params.alpha
    di, dj = strat_i.d, strat_j.d
    total = 0.0
    for si in (0, 1):
        for sj in (0, 1):
            p_sig = _sig_prob(si, th0) * _sig_prob(sj, th0)
            for cij in (0, 1):  # copy of s_j received by i
                p_cij = (1.0 - alpha) if cij == sj else alpha
                for cji in (0, 1):
                    p_cji = (1.0 - alpha) if cji == si else alpha
                    for rest_i in range(di):
                        p_ri = math.comb(di - 1, rest_i) * th1**rest_i * (1 - th1) ** (di - 1 - rest_i)
                        for rest_j in range(dj):
                            p_rj = (
                                math.comb(dj - 1, rest_j)
                                * th1**rest_j
                                * (1 - th1) ** (dj - 1 - rest_j)
                            )
                            total += (
                                p_sig * p_cij * p_cji * p_ri * p_rj
                                * strat_i.p1[rest_i + cij, si]
                                * strat_j.p1[rest_j + cji, sj]
                            )
    return total


def enumerate_pair_common_friend(
    strat_i: DegreeStrategy, strat_j: DegreeStrategy, params: ModelParams
) -> float:
    """Pr(X_i = X_j = 1 | W = 1) for non-friends sharing exactly one friend."""
    th0, th1, alpha = params.theta0, params.theta1, params.alpha
    di, dj = strat_i.d, strat_j.d
    total = 0.0
    for sl in (0, 1):  # the shared friend's signal
        p_l = _sig_prob(sl, th0)
        for si in (0, 1):
            for sj in (0, 1):
                p_sig = _sig_prob(si, th0) * _sig_prob(sj, th0)
                for cil in (0, 1):
                    p_cil = (1.0 - alpha) if cil == sl else alpha
                    for cjl in (0, 1):
                        p_cjl = (1.0 - alpha) if cjl == sl else alpha
                        for rest_i in range(di):
                            p_ri = (
                                math.comb(di - 1, rest_i)
                                * th1**rest_i
                                * (1 - th1) ** (di - 1 - rest_i)
                            )
                            for rest_j in range(dj):
                                p_rj = (
                                    math.comb(dj - 1, rest_j)
                                    * th1**rest_j
                                    * (1 - th1) ** (dj - 1 - rest_j)
                                )
                                total += (
                                    p_l * p_sig * p_cil * p_cjl * p_ri * p_rj
                                    * strat_i.p1[rest_i + cil, si]
                                    * strat_j.p1[rest_j + cjl, sj]
                                )
    return total


# ---------------------------------------------------------------------------
# loop references for the array-based closed forms
# ---------------------------------------------------------------------------

def ensemble_pair_probs_double_sum(law: ReportLaw, dist: DegreeDistribution) -> tuple[float, float]:
    """DegreeTerms.ensemble_pair_probs as an O(|support|^2) sum over degree pairs.

    Each endpoint's degree is drawn from the size-biased law d rho(d) / E[D].
    The pair probabilities of every (a, b) degree pair are taken at once, as
    arrays, and each weighted double sum is a `math.fsum`.
    """
    mean_d = sum(d * m for d, m in enumerate(dist.mass))
    degrees = np.array([d for d, m in enumerate(dist.mass) if d > 0 and m > 0])
    weight = degrees * dist.mass[degrees] / mean_d
    terms = law.terms(int(degrees.max()))
    pair_weight = weight[:, None] * weight[None, :]
    a, b = degrees[:, None], degrees[None, :]
    vs = math.fsum((pair_weight * terms.pair_adjacent(a, b)).ravel().tolist())
    vst = math.fsum((pair_weight * terms.pair_common_friend(a, b)).ravel().tolist())
    return vs, vst


def graph_report_moments_loop(graph: Graph, law: ReportLaw) -> tuple[float, float]:
    """graph_report_moments as a Python loop over nodes, edges and wedges."""
    deg = graph.degrees
    terms = law.terms(graph.max_degree())
    means = np.array([terms.mean[int(d)] for d in deg])
    var_sum = float(np.sum(means * (1.0 - means)))
    for u, v in graph.edges():
        cov = terms.pair_adjacent(int(deg[u]), int(deg[v])) - means[u] * means[v]
        var_sum += 2.0 * cov
    for center in range(graph.n):
        nbrs = graph.neighbors(center)
        for x in range(len(nbrs)):
            for y in range(x + 1, len(nbrs)):
                a, b = int(nbrs[x]), int(nbrs[y])
                if graph.has_edge(a, b):
                    continue
                cov = terms.pair_common_friend(int(deg[a]), int(deg[b])) - means[a] * means[b]
                var_sum += 2.0 * cov
    return float(means.mean()), var_sum / graph.n


_WEDGE_CHUNK = 1 << 16  # wedge terms of `_wedge_terms_fsum` per step


def _wedge_terms_fsum(graph: Graph, terms, means: np.ndarray):
    """Per chunk: the list of 2 cov(X_a, X_b) over wedges a - c - b that are not edges."""
    n, deg, nbr = graph.n, graph.degrees, graph.directed_send
    edges = graph.edges()
    edge_keys = edges[:, 0] * n + edges[:, 1]
    centre_end = np.repeat(graph.recv_starts[1:], deg)
    later = centre_end - np.arange(len(nbr)) - 1
    ends = np.cumsum(later)
    total = int(ends[-1]) if len(ends) else 0
    bounds = np.searchsorted(ends, np.arange(_WEDGE_CHUNK, total, _WEDGE_CHUNK), side="right")
    for lo, hi in zip(np.concatenate([[0], bounds]), np.concatenate([bounds, [len(nbr)]])):
        counts = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), counts)
        if len(first) == 0:
            continue
        run_start = np.cumsum(counts) - counts
        second = first + np.arange(len(first)) - np.repeat(run_start, counts) + 1
        a, b = nbr[first], nbr[second]
        keys = a * n + b
        pos = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
        open_ = edge_keys[pos] != keys
        a, b = a[open_], b[open_]
        pair = terms.pair_common_friend(deg[a], deg[b])
        yield (2.0 * (pair - means[a] * means[b])).tolist()


def graph_report_moments_fsum(graph: Graph, law: ReportLaw) -> ReportMoments:
    """graph_report_moments as one `math.fsum` over a term per node, edge and open wedge."""
    deg = graph.degrees
    terms = law.terms(graph.max_degree())
    means = terms.mean[deg]
    u, v = graph.edges().T
    edge_pair = terms.pair_adjacent(deg[u], deg[v])
    var_sum = math.fsum(chain(
        (means * (1.0 - means)).tolist(),
        (2.0 * (edge_pair - means[u] * means[v])).tolist(),
        chain.from_iterable(_wedge_terms_fsum(graph, terms, means)),
    ))
    return ReportMoments(float(means.mean()), var_sum / graph.n)


def graph_arrays_loop(n: int, edges) -> dict:
    """The `Graph` arrays built with a pair set and per-node neighbor lists.

    Raises the ValueError that `Graph` raises for the first self-loop or
    out-of-range edge.
    """
    pairs = set()
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
        pairs.add((min(u, v), max(u, v)))
    edge_array = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edge_array:
        adj[u].append(v)
        adj[v].append(u)
    neighbors = [np.array(sorted(a), dtype=np.int64) for a in adj]
    degrees = np.array([len(a) for a in neighbors], dtype=np.int64)
    return {
        "edges": edge_array,
        "neighbors": neighbors,
        "degrees": degrees,
        "directed_send": np.concatenate(neighbors).astype(np.int64),
        "recv_starts": np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64),
    }


def ingest_counts_loop(text: str) -> dict:
    """Edge-list ingest with id, pair and seen sets: dense edges, id map, counters.

    Returns None when the text holds no edge line, and {"error": message}
    for the first edge line that does not hold two 64-bit integers.
    """
    ext_ids: set[int] = set()
    ext_pairs: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    self_loops = duplicates = lines_read = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        lines_read += 1
        parts = stripped.split()
        if len(parts) != 2:
            return {"error": f"line {lineno}: expected two node ids, got {line!r}"}
        try:
            u_ext, v_ext = int(parts[0]), int(parts[1])
        except ValueError:
            return {"error": f"line {lineno}: non-integer node id in {line!r}"}
        if not (-(2**63) <= min(u_ext, v_ext) and max(u_ext, v_ext) < 2**63):
            return {"error": f"line {lineno}: node id outside the 64-bit range in {line!r}"}
        ext_ids.update((u_ext, v_ext))
        if u_ext == v_ext:
            self_loops += 1
            continue
        key = (min(u_ext, v_ext), max(u_ext, v_ext))
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        ext_pairs.append((u_ext, v_ext))
    if not ext_ids:
        return None
    id_map = {ext: dense for dense, ext in enumerate(sorted(ext_ids))}
    return {
        "n": len(id_map),
        "edges": [(id_map[u], id_map[v]) for u, v in ext_pairs],
        "id_map": id_map,
        "self_loops_dropped": self_loops,
        "duplicates_dropped": duplicates,
        "lines_read": lines_read,
    }


# ---------------------------------------------------------------------------
# brute-force best response
# ---------------------------------------------------------------------------

def kbar_payoffs(s: int, f: int, d: int, params: ModelParams, z: float) -> float:
    """Action-payoff coefficient for reporting 1 with private signal s."""
    th0, th1 = params.theta0, params.theta1
    r = (th1 / (1.0 - th1)) ** (d - 2 * f)
    p1w, p0w = params.prior_w1, 1.0 - params.prior_w1
    den = p1w + p0w * r
    num = th0 - (1.0 - th0) * r if s == 1 else (1.0 - th0) - th0 * r
    return z * num / den


def brute_force_best_response(
    f: int, d: int, params: ModelParams, z: float, eta_step: float = 1e-4,
    eta_extra: float = 1.0,
) -> tuple[str, float | None]:
    """Best of {report-0, report-1, randomize(eta)} by direct utility comparison.

    Returns ("nd0"|"nd1"|"sr", eta or None).  Constant payoff terms common
    to all actions are dropped.
    """
    k1 = kbar_payoffs(1, f, d, params, z)
    k0 = kbar_payoffs(0, f, d, params, z)
    etas = np.arange(0.0, params.epsilon + eta_extra + eta_step, eta_step)
    weights = np.exp(etas) / (1.0 + np.exp(etas))
    util_sr = k1 * weights + k0 * (1.0 - weights) - np.array(
        [params.cost.value(e) for e in etas]
    )
    best_idx = int(np.argmax(util_sr))
    u_sr, eta_star = float(util_sr[best_idx]), float(etas[best_idx])
    u_nd0, u_nd1 = 0.0, k1 + k0
    if u_sr >= u_nd0 and u_sr >= u_nd1:
        return "sr", eta_star
    return ("nd1", None) if u_nd1 > u_nd0 else ("nd0", None)


def grid_scan_xi(f: int, d: int, params: ModelParams, z: float, step: float = 1e-4) -> float:
    """Maximizer of the randomized-response utility on a dense eta grid."""
    regime, eta = brute_force_best_response(f, d, params, z, eta_step=step)
    if regime != "sr":
        # The utility maximizer over eta alone is still well defined.
        k1 = kbar_payoffs(1, f, d, params, z)
        k0 = kbar_payoffs(0, f, d, params, z)
        etas = np.arange(0.0, params.epsilon + 1.0 + step, step)
        weights = np.exp(etas) / (1.0 + np.exp(etas))
        util = k1 * weights + k0 * (1.0 - weights) - np.array(
            [params.cost.value(e) for e in etas]
        )
        return float(etas[int(np.argmax(util))])
    return float(eta)


# ---------------------------------------------------------------------------
# quadrature oracles
# ---------------------------------------------------------------------------

def normal_cdf_quadrature(x: float) -> float:
    val, _ = integrate.quad(
        lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi), -40.0, x, limit=200
    )
    return val


def gaussian_bhattacharyya_quadrature(m1: float, v1: float, m0: float, v0: float) -> float:
    """-ln integral of sqrt(f1 f0) for two normal densities."""
    lo = min(m0, m1) - 12.0 * math.sqrt(max(v0, v1))
    hi = max(m0, m1) + 12.0 * math.sqrt(max(v0, v1))

    def integrand(x: float) -> float:
        f1 = math.exp(-((x - m1) ** 2) / (2 * v1)) / math.sqrt(2 * math.pi * v1)
        f0 = math.exp(-((x - m0) ** 2) / (2 * v0)) / math.sqrt(2 * math.pi * v0)
        return math.sqrt(f1 * f0)

    val, _ = integrate.quad(integrand, lo, hi, limit=400)
    return -math.log(val)


def truncated_poisson_mean(mean: float, d_max: int) -> float:
    weights = [math.exp(-mean) * mean**d / math.factorial(d) for d in range(d_max + 1)]
    total = sum(weights)
    return sum(d * w for d, w in enumerate(weights)) / total


# ---------------------------------------------------------------------------
# scalar payment references (the engine applies these rules to report vectors)
# ---------------------------------------------------------------------------

NON_PARTICIPATION = -1  # report coding: 1, 0, or this opt-out symbol


def genie_payment(x: int, w: int, z_g: float, prior_w1: float) -> float:
    """Hypothetical payment when the true world bit is observable.

    Pays z_g / Pr(W = w) for a report matching w, nothing otherwise
    (including non-participation).
    """
    if x == NON_PARTICIPATION or x != w:
        return 0.0
    pr_w = prior_w1 if w == 1 else 1.0 - prior_w1
    return z_g / pr_w


def majority_excluding(reports, i: int):
    """Majority bit among the other participants' reports.

    Returns 1 or 0, or None when user i opted out or is the only
    participant (payment is zero downstream either way).  With n total
    participants, the majority threshold on the others' sum is
    floor((n - 1) / 2) + 1, so even splits resolve to 0.
    """
    if not 0 <= i < len(reports):
        raise IndexError(f"index {i} out of range")
    participants = [x for x in reports if x != NON_PARTICIPATION]
    n = len(participants)
    if reports[i] == NON_PARTICIPATION or n <= 1:
        return None
    others_sum = sum(x for j, x in enumerate(reports) if j != i and x != NON_PARTICIPATION)
    return 1 if others_sum >= (n - 1) // 2 + 1 else 0


def peer_payment(x_i: int, m, cfg: MechanismConfig) -> float:
    """Pay z1 on a 1-report matching the others' majority, z0 on a matching 0-report."""
    if m is None or x_i == NON_PARTICIPATION:
        return 0.0
    if x_i == 1:
        return cfg.z1 * m
    return cfg.z0 * (1 - m)


# ---------------------------------------------------------------------------
# the per-trial engine the block engine replaced: its per-edge draw and its
# report rule given the band side (the block engine draws both from one uniform)
# ---------------------------------------------------------------------------

def receivers(graph) -> np.ndarray:
    """The receiver of each entry of `graph.directed_send`."""
    return np.repeat(np.arange(graph.n), graph.degrees)


def signals_and_moves(rng: np.random.Generator, w, params: ModelParams):
    """`model.sample_signals_and_moves` into fresh arrays of shape w.shape + (N,)."""
    shape = np.shape(w) + (params.population,)
    return sample_signals_and_moves(rng, w, params, (np.empty(shape, np.int8),
                                                     np.empty(shape, np.uint32)))


def sample_group_signals(rng: np.random.Generator, graph, s: np.ndarray, alpha: float) -> np.ndarray:
    """One group-signal bit per directed edge, aligned with `graph.directed_send`.

    Bit k is the signal of sender `directed_send[k]` as received by the
    user whose run of `recv_starts` holds k, flipped with probability alpha.  The two directions
    of an edge flip independently.  Leading axes of `s` (one row per trial)
    carry over to the result.
    """
    if s.shape[-1] != graph.n:
        raise ParameterError("signal vector length does not match the graph")
    sent = s[..., graph.directed_send].astype(np.int8, copy=False)
    flips = rng.random(sent.shape) < alpha
    return sent ^ flips


def friends_ones_bincount(graph, s: np.ndarray) -> np.ndarray:
    """Per row of `s` and per user, how many of her friends hold signal 1: one bincount per row."""
    return np.array([
        np.bincount(receivers(graph), weights=row[graph.directed_send], minlength=graph.n)
        for row in s
    ]).astype(np.int64)


def band_side(f, lo, hi):
    """-1, 0 or 1 where the group-signal sums f fall below, inside or above lo..hi."""
    f = np.asarray(f)
    return (f > hi).astype(np.int8) - (f < lo)


def randomized_one(epsilon: float, s):
    """Pr(randomized report = 1) of users with own signals `s` at level epsilon."""
    ee = math.exp(epsilon)
    return np.where(np.asarray(s) == 1, ee / (ee + 1.0), 1.0 / (ee + 1.0))


def play_side(law, side, s) -> tuple[np.ndarray, np.ndarray]:
    """(Pr(report 1), in band) of users whose group-signal sums fall on `side` of their band.

    `side` is -1 below the band, 0 inside it and 1 above it, and `s` holds
    the users' own signals.  Inside the band a user randomizes her signal
    at level epsilon (a fair coin when epsilon = 0); outside it she reports
    the group majority.
    """
    in_band = np.asarray(side) == 0
    return np.where(in_band, randomized_one(law.epsilon, s), np.asarray(side) > 0), in_band


def side_probs_enumerated(d: int, a: int, lo: int, hi: int, alpha: float) -> tuple[float, float]:
    """(Pr(f < lo), Pr(f <= hi)) over all 2^d flip patterns of a degree-d user.

    Her first a friends hold signal 1 and the others 0; each received bit
    is its sender's signal flipped with probability alpha.
    """
    flips = (np.arange(2**d)[:, None] >> np.arange(d)) & 1
    k = flips.sum(axis=1)
    prob = [alpha**int(x) * (1.0 - alpha) ** (d - int(x)) for x in k]
    f = a - flips[:, :a].sum(axis=1) + flips[:, a:].sum(axis=1)
    return (
        math.fsum(p for p, x in zip(prob, f) if x < lo),
        math.fsum(p for p, x in zip(prob, f) if x <= hi),
    )


def side_probs_comb(d: int, a: int, lo: int, hi: int, alpha: float) -> tuple[float, float]:
    """(Pr(f < lo), Pr(f <= hi)) for f ~ Binomial(a, 1 - alpha) + Binomial(d - a, alpha)."""

    def mass(k: int, m: int, p: float) -> float:
        return math.comb(m, k) * p**k * (1.0 - p) ** (m - k)

    def at_most(c: int) -> float:
        return math.fsum(
            mass(x, a, 1.0 - alpha) * mass(y, d - a, alpha)
            for x in range(a + 1) for y in range(d - a + 1) if x + y <= c
        )

    return at_most(lo - 1), at_most(hi)


def mirrored_moments(mu1: float, kappa: float) -> SimpleNamespace:
    """Moments of both sum hypotheses when the W = 0 law mirrors the W = 1 law."""
    return SimpleNamespace(mu1=mu1, mu0=1.0 - mu1, kappa1=kappa, kappa0=kappa)


def map_estimate_scalar(sum_reports: float, n: int, summary, prior_w1: float) -> int:
    """Collector's Gaussian MAP estimate for one report sum; exact ties decide 0."""
    m = sum_reports / n
    lhs = (summary.mu0 - m) ** 2 / summary.kappa0 - (summary.mu1 - m) ** 2 / summary.kappa1
    rhs = (2.0 / n) * math.log(
        math.sqrt(summary.kappa1 / summary.kappa0) * (1.0 - prior_w1) / prior_w1
    )
    return 1 if lhs > rhs else 0


def trial_stats_loop(engine, point, master_seed: int, index: int, moments) -> tuple:
    """One trial of an `_Engine` point's experiment, drawn edge by edge and scored on its own.

    Trial `index` owns the stream (master seed, trial tag, index) and draws
    one world bit, then vectors of n signals, 2m group-signal bits and n
    reports.  This is the point's law, not the engine's stream.
    """
    graph, law, params = engine.graph, point.law, engine.params
    rng = substream(master_seed, TAG_TRIAL, index)
    w = sample_world(rng, params)
    s, _ = signals_and_moves(rng, w, params)
    bits = sample_group_signals(rng, graph, s, params.alpha)
    f = np.bincount(receivers(graph), weights=bits, minlength=graph.n)
    p1, in_band = play_side(law, band_side(f, *band_bounds(graph.degrees, law.tau)), s)
    return _score(engine, point, w, (rng.random(graph.n) < p1).astype(np.int64), in_band,
                  moments)


def trial_stats_user_loop(engine, point, master_seed: int, index: int, moments) -> tuple:
    """One trial of an `_Engine` point's experiment in the engine's own stream, user by user.

    Trial `index` owns the stream (master seed, trial tag, index) and draws
    one world bit, then one raw 64-bit word per user, as a one-row block
    does.  A user's signal is the world bit when the word's high 31 bits
    fall below round(theta0 * 2**31), and its flip otherwise; her move m is
    the word's low 31 bits.  Her side law comes from `side_probs_comb` at
    her degree and her count of friends with signal 1, found by a loop
    over her neighbours, and each of its cell ends p is rounded to the
    integer round(p * 2**31): she sits in her band when
    Pr(f < lo) <= m < Pr(f <= hi) on that grid, and reports 1 when m lies
    in the top `randomized_one` share of the band or above it.
    """
    graph, law, params = engine.graph, point.law, engine.params
    n = graph.n
    one = 2**31

    def grid(p: float) -> int:
        return min(max(round(p * one), 0), one)

    rng = substream(master_seed, TAG_TRIAL, index)
    w = sample_world(rng, params)
    words = [int(rng.bit_generator.random_raw()) for _ in range(n)]
    s = [int((word >> 33) < grid(params.theta0)) ^ (w == 0) for word in words]
    reports = np.empty(n, dtype=np.int64)
    in_band = np.empty(n, dtype=bool)
    for i in range(n):
        m = words[i] & (one - 1)
        d = int(graph.degrees[i])
        a = sum(s[j] for j in graph.neighbors(i))
        lo, hi = (int(b) for b in band_bounds(d, law.tau))
        below, at_most = side_probs_comb(d, a, lo, hi, params.alpha)
        cut = at_most - (at_most - below) * float(randomized_one(law.epsilon, s[i]))
        reports[i] = m >= grid(min(max(cut, below), at_most))
        in_band[i] = grid(below) <= m < grid(at_most)
    return _score(engine, point, w, reports, in_band, moments)


def ks_statistic_per_trial(sample: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance of `sample` from the standard normal.

    One CDF call per sample point, in sorted order: the per-trial form that
    `sim._ks_statistic` reads from a histogram.
    """
    cdf = np.array([std_normal_cdf(x) for x in np.sort(sample).tolist()])
    n = len(cdf)
    i = np.arange(1.0, n + 1.0)
    return float(max((i / n - cdf).max(), (cdf - (i - 1.0) / n).max()))


def _score(engine, point, w: int, reports: np.ndarray, in_band: np.ndarray, moments) -> tuple:
    """(w, correct, payment, privacy cost, report sum, majority match) of one trial.

    Per-user payments and privacy costs are summed with `fsum` and divided
    by n.  The collector's estimate is the quadratic MAP rule on `moments`.
    """
    law, mech, n = point.law, point.mech, engine.graph.n
    total = int(reports.sum())
    majority_others = (total - reports) >= (n - 1) // 2 + 1
    payments = np.where(
        reports == 1, mech.z1 * majority_others, mech.z0 * (1 - majority_others)
    ).astype(float)
    w_hat = map_estimate_scalar(total, n, moments, engine.params.prior_w1)
    return (
        w,
        int(w_hat == w),
        math.fsum(payments) / n,
        math.fsum(in_band * law.band_cost) / n,
        total,
        float(np.mean(majority_others == w)),
    )


def trial_counts(engine, master_seed: int, trials: int):
    """(w, counts) of trials 0..trials-1: (trials,) world bits and (points, 2, trials).

    counts[i] holds each trial's 1-report count and in-band count under
    the engine's law i.  Every block is drawn in full with `engine.draw`,
    in a workspace of its own, from the stream (master seed, trial tag, b)
    and played with each point's `play`, and the rows past `trials` are
    cut off the end.
    """
    ws, counts = [], []
    for b in range(-(-trials // engine.block)):
        work = engine.workspace(engine.block)
        w, key, move = engine.draw(substream(master_seed, TAG_TRIAL, b), work)
        ws.append(w)
        counts.append([[reports.sum(axis=1), in_band.sum(axis=1)] for reports, in_band
                       in (point.play(key, move, work) for point in engine.points)])
    return np.concatenate(ws)[:trials], np.concatenate(counts, axis=2)[..., :trials]


def count_histograms(w, counts, n: int) -> np.ndarray:
    """(points, 3, n + 1) bincounts of `trial_counts` rows: k1 where w = 0, k1 where w = 1, band."""
    return np.array([
        [np.bincount(k1[w == 0], minlength=n + 1), np.bincount(k1[w == 1], minlength=n + 1),
         np.bincount(band, minlength=n + 1)]
        for k1, band in counts
    ])


def point_stats(point, w, k1, band) -> np.ndarray:
    """Rows w, correct, payment, privacy cost, report sum, majority match; a column per trial.

    `k1` and `band` count a trial's 1-reports and in-band users under the
    `_Engine` point `point`; payment and privacy cost are per user.
    """
    n = point.n
    k0 = n - k1
    threshold = (n - 1) // 2 + 1
    majority1 = k1 - 1 >= threshold  # the others' majority seen by a 1-reporter
    majority0 = k1 >= threshold  # ... and by a 0-reporter
    rows = np.empty((6, len(k1)))
    rows[0] = w
    rows[1] = map_estimate(k1, n) == w
    rows[2] = (point.mech.z1 * (k1 * majority1) + point.mech.z0 * (k0 * ~majority0)) / n
    rows[3] = point.law.band_cost * band / n
    rows[4] = k1
    rows[5] = (k1 * (majority1 == w) + k0 * (majority0 == w)) / n
    return rows


def _mean_var_fsum(values: np.ndarray) -> tuple[float, float]:
    """Mean and unbiased variance of at least two values, by `math.fsum` over the values."""
    n = len(values)
    mean = math.fsum(values) / n
    return mean, math.fsum(np.square(values - mean)) / (n - 1)


def _mean_se_fsum(values: np.ndarray) -> Estimate:
    mean, var = _mean_var_fsum(values)
    return Estimate(mean, math.sqrt(var / len(values)))


def sim_result_from_rows(config, axis_value: float, stats: np.ndarray, analytic,
                         graph: Graph) -> SimResult:
    """A SimResult from one law's `point_stats` rows over a whole run."""
    w, correct, paid, cost, sums, matched = stats
    n = graph.n
    sums_w1 = sums[w == 1]
    if len(sums_w1) >= 2:
        mu1_est = _mean_se_fsum(sums_w1 / n)
        var_sum = _mean_var_fsum(sums_w1)[1]
        kappa1_est = Estimate(var_sum / n, var_sum / n * math.sqrt(2.0 / (len(sums_w1) - 1)))
    else:
        mu1_est = Estimate(float("nan"), float("nan"))
        kappa1_est = Estimate(float("nan"), float("nan"))
    return SimResult(
        trials=stats.shape[1],
        profile=config.sim.profile,
        axis_value=axis_value,
        accuracy=_mean_se_fsum(correct),
        avg_payment_per_user=_mean_se_fsum(paid),
        avg_privacy_cost=_mean_se_fsum(cost),
        empirical_mu1=mu1_est,
        empirical_kappa1=kappa1_est,
        empirical_majority_match=_mean_se_fsum(matched),
        analytic=analytic,
        nodes=graph.n,
        edges=graph.num_edges,
    )
