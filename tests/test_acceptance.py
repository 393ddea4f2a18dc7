"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criteria marked with a
runtime budget assert it.  Tolerances are fixed here, not tuned elsewhere.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from privmarket.analytics import (
    beta_from_moments,
    bhattacharyya,
    mv_moments_equal_priors,
    nd_moments,
    nd_report_law,
)
from privmarket.config import apply_overrides, default_config
from privmarket.graph import DegreeDistribution, ingest_edge_list
from privmarket.mechanism import design_Z
from privmarket.model import substream
from privmarket.sim import (
    normality_probe,
    run_experiment,
    simresult_csv,
    sweep,
    sweep_csv,
)
from privmarket.strategy import build_mv_strategy

from conftest import make_params
from datasets import write_gnutella_like, write_grqc_like
from oracles import enumerate_mu1, point_mass

PARAM_GRID = [
    make_params(theta0=theta0, alpha=alpha, epsilon=eps)
    for theta0 in (0.6, 0.75, 0.9)
    for alpha in (0.05, 0.25, 0.45)
    for eps in (0.1, 0.5)
]


def _report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d}: {status} - {detail}", flush=True)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_enumeration_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for params in PARAM_GRID:
        dist_cache = {}
        for d in range(0, 7):
            summary = mv_moments_equal_priors(
                params, dist_cache.setdefault(d, point_mass(d))
            )
            oracle = enumerate_mu1(build_mv_strategy(d, params), params)
            worst = max(worst, abs(summary.mu1 - oracle))
    elapsed = time.monotonic() - start
    _report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"max |mu1 - enumeration| = {worst:.2e} over {len(PARAM_GRID)}x7 cases "
        f"in {elapsed:.1f}s (budget 10s)",
    )


def test_criterion_2_strategy_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    worst_xi = 0.0
    checked = 0
    for params in PARAM_GRID:
        z = design_Z(params.epsilon, params.theta0, params.cost)
        etas = np.arange(0.0, params.epsilon + 1.0 + 1e-4, 1e-4)
        weights = np.exp(etas) / (1.0 + np.exp(etas))
        costs = etas**2
        for d in range(0, 7):
            strat = build_mv_strategy(d, params)
            for f in range(d + 1):
                checked += 1
                th1 = params.theta1
                r = (th1 / (1 - th1)) ** (d - 2 * f)
                den = 0.5 + 0.5 * r
                k1 = z * (params.theta0 - (1 - params.theta0) * r) / den
                k0 = z * ((1 - params.theta0) - params.theta0 * r) / den
                util_sr = k1 * weights + k0 * (1.0 - weights) - costs
                idx = int(np.argmax(util_sr))
                u_sr, eta_star = float(util_sr[idx]), float(etas[idx])
                u_nd0, u_nd1 = 0.0, k1 + k0
                if d == 0 or (u_sr >= u_nd0 and u_sr >= u_nd1):
                    if not strat.sr[f]:
                        mismatches += 1
                        continue
                    worst_xi = max(worst_xi, abs(strat.xi[f] - eta_star))
                else:
                    if strat.sr[f]:
                        mismatches += 1
                        continue
                    expected_p1 = 1.0 if u_nd1 > u_nd0 else 0.0
                    if strat.p1[f, 0] != expected_p1:
                        mismatches += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        mismatches == 0 and worst_xi < 1e-3 and elapsed < 60.0,
        f"{checked} cells: {mismatches} regime mismatches, max |xi - grid| = "
        f"{worst_xi:.2e} in {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_3_noiseless_exactness():
    bad = []
    for theta0 in (0.55, 0.6, 0.7, 0.8, 0.9, 0.95):
        for eps in (0.05, 0.1, 0.5, 1.0):
            params = make_params(theta0=theta0, alpha=0.0, epsilon=eps)
            for d in range(0, 9):
                strat = build_mv_strategy(d, params)
                for f in range(d + 1):
                    is_tie = (d % 2 == 0) and (f * 2 == d)
                    if is_tie:
                        if not strat.sr[f]:
                            bad.append((theta0, eps, d, f, "expected SR"))
                    else:
                        expected = 1.0 if f * 2 > d else 0.0
                        if strat.sr[f] or strat.p1[f, 0] != expected:
                            bad.append((theta0, eps, d, f, "expected pure majority"))
    _report(3, not bad, f"noiseless tables exact on 6x4 configs, d <= 8 ({len(bad)} violations)")


def test_criterion_4_monte_carlo_default_config():
    start = time.monotonic()
    cfg = apply_overrides(default_config(), ["sim.trials=10000", "sim.workers=2"])
    (result,) = run_experiment([cfg])
    n = cfg.model.population
    mu_gap = abs(result.empirical_mu1.value - result.analytic.mu1)
    mu_ok = mu_gap < 3 * result.empirical_mu1.se
    total_emp = result.avg_payment_per_user.value * n
    total_pred = result.analytic.payment_per_user * n
    pay_tol = max(3 * result.avg_payment_per_user.se * n, 0.10 * total_pred)
    pay_ok = abs(total_emp - total_pred) < pay_tol
    elapsed = time.monotonic() - start
    _report(
        4,
        mu_ok and pay_ok and elapsed < 300.0,
        f"mu gap {mu_gap:.2e} vs 3se {3 * result.empirical_mu1.se:.2e}; "
        f"payment {total_emp:.2f} vs {total_pred:.2f} (tol {pay_tol:.2f}); "
        f"{elapsed:.0f}s (budget 300s)",
    )


def test_criterion_5_clt_normality():
    start = time.monotonic()
    # 10 000 draws per state: at 1000 the 0.05 threshold sits near the
    # 98.5th percentile of the KS statistic's sampling noise alone
    cfg = apply_overrides(default_config(), ["model.population=2000", "sim.trials=20000"])
    report = normality_probe(cfg)
    elapsed = time.monotonic() - start
    ks0, ks1 = report.ks_statistic[0], report.ks_statistic[1]
    _report(
        5,
        report.asymptotic and ks0 < 0.05 and ks1 < 0.05 and elapsed < 600.0,
        f"KS(w=0) = {ks0:.3f}, KS(w=1) = {ks1:.3f} (< 0.05) in {elapsed:.0f}s (budget 600s)",
    )


def test_criterion_6_beta_limit():
    params = make_params()
    dist = DegreeDistribution.binomial(249, 4.0 / 249.0)
    summary = mv_moments_equal_priors(params, dist)
    ns = [2, 10, 100, 1000, 10_000, 100_000]
    betas = [beta_from_moments(n, summary.mu1, summary.kappa1) for n in ns]
    monotone = all(b >= a for a, b in zip(betas, betas[1:]))
    _report(
        6,
        monotone and betas[-1] >= 0.999,
        f"beta monotone over N grid, beta(1e5) = {betas[-1]:.6f} >= 0.999",
    )


@pytest.fixture(scope="module")
def degree_sweep():
    return sweep(apply_overrides(default_config(), [
        "sim.trials=1500", "sim.workers=2", "sweep.axis=avg_degree", "sweep.values=1,2,4,8,16"]))


def test_criterion_7_error_bound(degree_sweep):
    failures = []
    details = []
    for r in degree_sweep:
        err = 1.0 - r.accuracy.value
        bound = math.exp(-r.analytic.bhattacharyya) + 3 * r.accuracy.se
        details.append(f"deg {r.axis_value:g}: err {err:.4f} <= {bound:.4f}")
        if err > bound:
            failures.append(r.axis_value)
    _report(7, not failures, "; ".join(details))


def test_criterion_8_trend_reproduction(degree_sweep):
    acc = [(r.accuracy.value, r.accuracy.ci_half) for r in degree_sweep]
    cost = [(r.avg_privacy_cost.value, r.avg_privacy_cost.ci_half) for r in degree_sweep]
    acc_ok = all(b + cb >= a - ca for (a, ca), (b, cb) in zip(acc, acc[1:]))
    cost_ok = all(b - cb <= a + ca for (a, ca), (b, cb) in zip(cost, cost[1:]))
    _report(
        8,
        acc_ok and cost_ok,
        f"accuracy {[f'{a:.3f}' for a, _ in acc]} nondecreasing; "
        f"privacy cost {[f'{c:.5f}' for c, _ in cost]} nonincreasing (CI overlap allowed)",
    )


def test_criterion_9_baseline_regime():
    params = make_params()
    dist = DegreeDistribution.binomial(249, 4.0 / 249.0)
    nd, mv = nd_moments(params, dist), mv_moments_equal_priors(params, dist)
    b_nd = bhattacharyya(250, *nd)
    from privmarket.analytics import payment_bound, predict

    pred = predict(params, mv.mu1, mv.kappa1)
    slack_ok = all(
        payment_bound(p_e, pred, b_nd).regime == "slack"
        for p_e in (0.5, math.exp(-b_nd), min(0.9, 2 * math.exp(-b_nd)))
    )

    # simulated baseline: zero privacy cost, total payment delta * N
    delta = 1e-6
    probe_cfg = apply_overrides(
        default_config(), ["sim.profile=nd", "sim.trials=200", "model.population=250"]
    )
    (ref,) = run_experiment([probe_cfg])
    scale = delta / ref.analytic.payment_per_user
    cfg = apply_overrides(
        default_config(),
        ["sim.profile=nd", "sim.trials=2000", "model.population=250",
         f"mechanism.payment_scale={scale!r}"],
    )
    (result,) = run_experiment([cfg])
    total = result.avg_payment_per_user.value * 250
    target = delta * 250
    pay_ok = abs(total - target) < max(3 * result.avg_payment_per_user.se * 250, 0.1 * target)
    cost_ok = result.avg_privacy_cost.value == 0.0
    # per-user check that every single cost is exactly zero
    from privmarket.config import build_graph
    from privmarket.mechanism import MechanismConfig
    from privmarket.sim import _Engine

    graph, _ = build_graph(cfg)
    p = make_params(population=graph.n)
    law = nd_report_law(p)
    engine = _Engine(graph, [law], [MechanismConfig(z0=1.0, z1=1.0)])
    work = engine.workspace(engine.block)
    _, key, move = engine.draw([substream(1, 5, 0)], work)
    _, in_band = engine.points[0].play(key, move, work)
    all_zero = bool(np.all(in_band * law.band_cost == 0.0))
    _report(
        9,
        slack_ok and pay_ok and cost_ok and all_zero,
        f"slack regime for p_e >= e^-B(nd); baseline total payment {total:.3e} "
        f"vs {target:.3e}; privacy costs all exactly zero",
    )


def test_criterion_10_ingestion_counts(tmp_path):
    grqc = ingest_edge_list(write_grqc_like(tmp_path / "grqc.txt"))
    gnut = ingest_edge_list(write_gnutella_like(tmp_path / "gnutella.txt"))
    ok = (
        grqc.graph.n == 5242
        and grqc.graph.num_edges == 14496
        and gnut.graph.n == 6301
        and gnut.graph.num_edges <= 20777
    )
    _report(
        10,
        ok,
        f"collaboration file: {grqc.graph.n} nodes / {grqc.graph.num_edges} edges; "
        f"p2p file: {gnut.graph.n} nodes / {gnut.graph.num_edges} edges (<= 20777)",
    )


def test_criterion_11_determinism(trial_forks):
    # 600 trials are three blocks of one pass each, which 4 and 16 workers
    # split between three processes: the parent and two forked children
    cfg = apply_overrides(
        default_config(), ["sim.trials=600", "model.population=120", "sim.seed=777"]
    )
    at = {w: apply_overrides(cfg, [f"sim.workers={w}"]) for w in (1, 4, 16)}
    outputs = {w: simresult_csv(run_experiment([c])[0]) for w, c in at.items()}
    rerun = simresult_csv(run_experiment([at[4]])[0])
    unswept_forks = len(trial_forks)
    sweeps = {(axis, w): sweep_csv(sweep(apply_overrides(at[w], [
        f"sweep.axis={axis}", f"sweep.values={values}"])))
        for axis, values in (("epsilon", "0.1,0.3"), ("avg_degree", "1,4,16")) for w in (1, 4)}
    ok = (
        unswept_forks == 3 * 2  # at 4 and 16 workers, and the rerun at 4
        and outputs[1] == outputs[4] == outputs[16]
        and rerun == outputs[4]
        and all(sweeps[axis, 1] == sweeps[axis, 4] for axis in ("epsilon", "avg_degree"))
    )
    _report(11, ok, "byte-identical CSV across reruns and worker counts {1, 4, 16}")
