from __future__ import annotations

import math
import multiprocessing
from types import SimpleNamespace

import numpy as np
import pytest

from privmarket.analytics import band_bounds, graph_report_moments, mv_report_law, nd_report_law
from privmarket import analytics, config, sim
from privmarket.config import ConfigError, default_config, apply_overrides, override_axis
from privmarket.graph import Graph, generate_erdos_renyi
from privmarket.mechanism import MechanismConfig
from privmarket.model import ParameterError, linear_capped_cost, quadratic_cost, substream
from privmarket.sim import (
    SweepRow,
    ZeroVarianceError,
    map_estimate,
    normality_probe,
    run_experiment,
    run_trial,
    simresult_csv,
    sweep,
    sweep_csv,
)
from privmarket.strategy import SR, build_mv_strategy

from conftest import make_params
from oracles import (
    friends_ones_bincount, majority_excluding, map_estimate_scalar, mirrored_moments,
    peer_payment, trial_stats_loop, trial_stats_user_loop,
)
from test_acceptance import PARAM_GRID


class TestMapEstimate:
    def test_equal_priors_thresholds_at_half(self):
        assert map_estimate(0.6 * 250, 250) == 1
        assert map_estimate(0.4 * 250, 250) == 0

    def test_tie_decides_zero(self):
        assert map_estimate(125, 250) == 0

    def test_depends_on_sum_alone(self):
        # permuting reports cannot change the estimate: only the sum enters
        reports = [1, 0, 1, 1, 0, 1]
        assert map_estimate(sum(reports), 6) == map_estimate(sum(reversed(reports)), 6)

    def test_array_matches_scalar_reference(self):
        # every sum 0..n, including the exact tie at n/2: the majority is
        # the quadratic Gaussian MAP rule under equal priors, whose W = 0
        # moments mirror the W = 1 moments
        for n in (249, 250, 251):
            sums = np.arange(n + 1)
            for mu1 in (0.5 + 1e-9, 0.55, 0.65, 0.9):
                for kappa in (1e-6, 0.4, 10.0):
                    s = mirrored_moments(mu1, kappa)
                    expected = [map_estimate_scalar(k, n, s, 0.5) for k in range(n + 1)]
                    assert map_estimate(sums, n).tolist() == expected, (n, mu1, kappa)


def _simple_mech():
    return MechanismConfig(z0=1.0, z1=1.0)


class TestRunTrial:
    def test_noiseless_agreeing_group_signals_follow_majority(self):
        # 4-cycle: every user has degree 2; alpha = 0 and theta0 near 1 make
        # all signals equal w, so f = 2 for everyone: report w w.p. 1
        params = make_params(alpha=0.0, theta0=1.0 - 1e-12, population=4)
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        result = run_trial(
            substream(3, 5, 0), graph, mv_report_law(params), _simple_mech(), params
        )
        assert np.all(result.reports == result.w)

    def test_nd_baseline_has_zero_privacy_costs(self):
        params = make_params(population=6)
        graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        result = run_trial(
            substream(3, 5, 1), graph, nd_report_law(params), _simple_mech(), params
        )
        assert np.all(result.privacy_costs == 0.0)

    def test_fixed_seed_reproduces_bytes(self):
        params = make_params(population=6)
        graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        law = mv_report_law(params)
        a = run_trial(substream(3, 5, 2), graph, law, _simple_mech(), params)
        b = run_trial(substream(3, 5, 2), graph, law, _simple_mech(), params)
        assert a.w == b.w and a.sum_reports == b.sum_reports
        assert a.reports.tobytes() == b.reports.tobytes()
        assert a.payments.tobytes() == b.payments.tobytes()
        assert a.privacy_costs.tobytes() == b.privacy_costs.tobytes()

    def test_payments_nonnegative(self):
        params = make_params(population=6)
        graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        for k in range(10):
            result = run_trial(
                substream(3, 5, 10 + k), graph, mv_report_law(params), _simple_mech(), params
            )
            assert np.all(result.payments >= 0.0)


class TestEngineMatchesMechanismOps:
    def test_vectorized_payments_agree_with_scalar_mechanism(self):
        params = make_params(population=7)
        graph = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 3)])
        law = mv_report_law(params)
        mech = MechanismConfig(z0=1.7, z1=2.1)
        for k in range(25):
            trial = run_trial(substream(8, 5, k), graph, law, mech, params)
            reports = [int(x) for x in trial.reports]
            for i in range(7):
                m = majority_excluding(reports, i)
                assert trial.payments[i] == pytest.approx(
                    peer_payment(reports[i], m, mech), abs=1e-15
                )


def _engine(graph):
    params = make_params(population=graph.n)
    mech = MechanismConfig(z0=1.7, z1=2.1)
    return sim._Engine(graph, mv_report_law(params), mech, params)


def _er_engine(n, avg_degree):
    return _engine(generate_erdos_renyi(substream(5, 4, 0), n, avg_degree))


class TestBlockEngine:
    def test_agrees_with_per_trial_loop(self):
        cfg = apply_overrides(default_config(), ["model.population=60"])
        _, _, engine, analytic = sim._build_experiment(cfg)
        moments = mirrored_moments(analytic.mu1, analytic.kappa1)
        trials = 2000
        w, _, paid, cost, sums, matched = sim._run_trials(engine, 11, trials, 1)
        loop = np.array([trial_stats_loop(engine, 12, i, moments) for i in range(trials)])
        n = engine.graph.n

        def gap_in_se(a, b):
            se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
            return abs(a.mean() - b.mean()) / se

        assert gap_in_se(sums[w == 1] / n, loop[loop[:, 0] == 1, 4] / n) < 4
        assert gap_in_se(paid, loop[:, 2]) < 4
        # one uniform draws both a user's band side and her report
        assert gap_in_se(cost, loop[:, 3]) < 4
        assert gap_in_se(matched, loop[:, 5]) < 4

    def test_run_trial_is_a_one_row_block_of_the_loop_stream(self):
        engine = _er_engine(40, 3.0)
        moments = mirrored_moments(*graph_report_moments(engine.graph, engine.law))
        for k in range(10):
            trial = run_trial(
                substream(8, 5, k), engine.graph, engine.law, engine.mech, engine.params
            )
            w, correct, paid, cost, total, _ = trial_stats_user_loop(engine, 8, k, moments)
            assert (trial.w, int(trial.w_hat == trial.w), trial.sum_reports) == (w, correct, total)
            assert math.fsum(trial.payments) / 40 == paid
            assert math.fsum(trial.privacy_costs) / 40 == cost

    @pytest.mark.parametrize("n, avg_degree", [(7, 2.0), (100, 4.0)])
    def test_count_statistics_match_per_user_sums(self, n, avg_degree):
        engine = _er_engine(n, avg_degree)
        assert engine.block > 1
        w, reports, in_band = engine.play(substream(21, 5, 0), engine.block)
        _, _, paid, cost, sums, matched = engine.stats(w, reports, in_band)
        mech, law = engine.mech, engine.law
        for row in range(engine.block):
            x = [int(v) for v in reports[row]]
            majorities = [majority_excluding(x, i) for i in range(n)]
            per_user = math.fsum(peer_payment(x[i], majorities[i], mech) for i in range(n)) / n
            assert paid[row] == pytest.approx(per_user, rel=1e-15, abs=0)
            assert cost[row] == math.fsum(in_band[row] * law.band_cost) / n
            assert sums[row] == sum(x)
            assert matched[row] == sum(m == w[row] for m in majorities) / n

    def test_leading_trials_do_not_depend_on_trial_count(self):
        engine = _er_engine(100, 4.0)
        b = engine.block
        longest = sim._run_trials(engine, 3, 3 * b + 2, 1)
        for trials in (2, b - 1, b, b + 1, 3 * b + 2):
            stats = sim._run_trials(engine, 3, trials, 1)
            assert stats.shape == (6, trials)
            for short, full in zip(stats, longest):
                assert short.tobytes() == full[:trials].tobytes()

    @pytest.mark.parametrize("n, degree", [(7, 2), (250, 4), (2000, 4), (9000, 6), (40000, 6)])
    def test_block_stays_within_cell_budget(self, n, degree):
        # ring lattices: every node joined to its `degree` nearest neighbours
        edges = [(i, (i + k) % n) for i in range(n) for k in range(1, degree // 2 + 1)]
        engine = _engine(Graph(n, edges))
        cells = n + 2 * engine.graph.num_edges
        assert 1 <= engine.block <= sim._MAX_BLOCK
        if engine.block > 1:
            assert engine.block * cells <= sim._BLOCK_CELLS
        else:
            assert 2 * cells > sim._BLOCK_CELLS

    def test_never_more_processes_than_blocks(self, monkeypatch):
        requested = []

        class RecordingPool:
            """Runs the tasks in this process and records the requested size."""

            def __init__(self, processes, initializer, initargs):
                requested.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap_unordered(self, func, iterable, chunksize=1):
                return map(func, iterable)

        monkeypatch.setattr(multiprocessing.get_context("fork"), "Pool", RecordingPool)
        monkeypatch.setattr(sim, "_POOL_ENGINE", None)
        cfg = apply_overrides(default_config(), ["model.population=100"])
        trials = 2 * sim._build_experiment(cfg)[2].block
        wide = simresult_csv(run_experiment(cfg, trials=trials, workers=64))
        assert requested == [2]
        assert wide == simresult_csv(run_experiment(cfg, trials=trials, workers=1))

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError, match="sim.workers"):
            apply_overrides(default_config(), ["sim.workers=0"])
        cfg = apply_overrides(default_config(), ["model.population=60"])
        with pytest.raises(ValueError, match="workers"):
            run_experiment(cfg, trials=10, workers=0)


class TestEngineSetup:
    def test_population_must_match_graph(self):
        params = make_params(population=7)
        graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(ParameterError, match="6 nodes but params.population is 7"):
            sim._Engine(graph, mv_report_law(params), _simple_mech(), params)
        with pytest.raises(ParameterError):
            run_trial(substream(3, 5, 0), graph, mv_report_law(params), _simple_mech(), params)

    def test_friends_ones_counts_each_neighbour(self):
        # a hub of degree 200 (counts past int8), isolated nodes, a path
        n = 210
        edges = [(0, j) for j in range(1, 201)] + [(201, 202), (202, 203)]
        engine = _engine(Graph(n, edges))
        s = (np.random.default_rng(4).random((3, n)) < 0.8).astype(np.int8)
        s[0, 1:201] = 1
        ones = engine.friends_ones(s)
        assert ones.shape == (3, n) and ones.dtype == np.int32
        for row in range(3):
            for i in range(n):
                assert ones[row, i] == sum(int(s[row, j]) for j in engine.graph.neighbors(i))
        assert ones[0, 0] == 200

    @pytest.mark.parametrize("hub, lane", [(255, np.uint8), (256, np.uint16), (65536, np.uint32)])
    @pytest.mark.parametrize("rows", [1, 3, 9, 17])
    def test_friends_ones_lanes_stay_exact(self, hub, lane, rows):
        # a star whose hub count fills its lane, a path and an isolated
        # user; rows of all ones beside rows of all zeros put a full lane
        # next to an empty one, where a carry across lanes would show, and
        # these row counts leave the last word part empty
        n = hub + 5
        edges = [(0, j) for j in range(1, hub + 1)] + [(hub + 1, hub + 2), (hub + 2, hub + 3)]
        graph = Graph(n, edges)
        params = make_params(population=n)
        # the count never reads the law; a real side table of a 65 536-friend
        # hub would hold two 65 537^2 float tables
        law = SimpleNamespace(
            side_table=lambda degrees: (np.zeros(hub + 1, dtype=np.int64), np.zeros(1), np.ones(1)),
            cut_table=lambda below, at_most: np.ones((1, 2)),
        )
        engine = sim._Engine(graph, law, _simple_mech(), params)
        assert engine._lane == lane
        alternating = np.zeros((rows, n), dtype=np.int8)
        alternating[::2] = 1
        random = (np.random.default_rng(rows).random((rows, n)) < 0.5).astype(np.int8)
        for s in (alternating, random):
            ones = engine.friends_ones(s)
            assert ones.shape == (rows, n) and ones.dtype == np.int32
            np.testing.assert_array_equal(ones, friends_ones_bincount(graph, s))
        assert engine.friends_ones(alternating)[:, 0].tolist() == [hub, 0] * (rows // 2) + [hub]

    def test_edgeless_graph_plays_the_coin(self):
        # every degree-0 user sits in her band (f = 0 = d/2) and randomizes
        engine = _engine(Graph(5, []))
        w, reports, in_band = engine.play(substream(1, 5, 0), 4)
        assert in_band.all()


class TestConditionalIndependence:
    def test_distant_users_uncorrelated(self):
        # path 0-1-2-3-4-5: users 0 and 5 are non-adjacent with no common friend
        params = make_params(population=6)
        graph = Graph(6, [(i, i + 1) for i in range(5)])
        law = mv_report_law(params)
        mech = _simple_mech()
        trials = 4000
        x0, x5 = [], []
        for k in range(trials):
            r = run_trial(substream(17, 5, k), graph, law, mech, params)
            if r.w == 1:
                x0.append(r.reports[0])
                x5.append(r.reports[5])
        corr = np.corrcoef(x0, x5)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(len(x0))


class TestRunExperiment:
    def test_empirical_mean_matches_analytics(self):
        cfg = apply_overrides(default_config(), ["sim.trials=600", "model.population=200"])
        r = run_experiment(cfg)
        assert abs(r.empirical_mu1.value - r.analytic.mu1) < 3 * r.empirical_mu1.se
        assert abs(r.empirical_majority_match.value - r.analytic.beta) < max(
            3 * r.empirical_majority_match.se, 5e-4
        )

    def test_workers_do_not_change_results(self):
        cfg = apply_overrides(default_config(), ["sim.trials=120", "model.population=100"])
        csv1 = simresult_csv(run_experiment(cfg, workers=1))
        csv4 = simresult_csv(run_experiment(cfg, workers=4))
        assert csv1 == csv4

    def test_repeat_runs_identical(self):
        cfg = apply_overrides(default_config(), ["sim.trials=80", "model.population=80"])
        assert simresult_csv(run_experiment(cfg)) == simresult_csv(run_experiment(cfg))

    def test_nd_profile_zero_privacy_cost(self):
        cfg = apply_overrides(
            default_config(), ["sim.trials=60", "model.population=80", "sim.profile=nd"]
        )
        r = run_experiment(cfg)
        assert r.avg_privacy_cost.value == 0.0

    def test_config_model_graph_end_to_end(self):
        cfg = apply_overrides(
            default_config(),
            ["graph.kind=config-model", "graph.pmf=1:0.4;2:0.4;3:0.2",
             "model.population=100", "sim.trials=200"],
        )
        r = run_experiment(cfg)
        assert abs(r.empirical_mu1.value - r.analytic.mu1) < 4 * r.empirical_mu1.se
        assert r.analytic.mu1 > 0.5

    def test_epsilon_zero_plays_fair_coin_at_ties(self):
        # At epsilon = 0 a tie randomizes with a fair coin, as the closed
        # forms assume; reporting 0 there biases mu1 low by many se.
        cfg = apply_overrides(
            default_config(),
            ["model.cost=linear-capped", "model.epsilon=0", "model.population=200",
             "sim.trials=600"],
        )
        r = run_experiment(cfg)
        assert abs(r.empirical_mu1.value - r.analytic.mu1) < 3 * r.empirical_mu1.se

    def test_unequal_priors_rejected(self):
        cfg = apply_overrides(default_config(), ["model.prior_w1=0.6", "sim.trials=10"])
        with pytest.raises(NotImplementedError):
            run_experiment(cfg)

    @pytest.mark.parametrize("run, points", [
        (lambda cfg: run_experiment(cfg, trials=4), 1),
        (lambda cfg: sweep(cfg, "epsilon", [0.1, 0.5], trials=4), 2),
        (lambda cfg: normality_probe(cfg, trials=20), 1),
    ], ids=["single", "sweep", "normality_probe"])
    def test_reads_only_realized_graph_moments(self, monkeypatch, run, points):
        # one realized-graph moment pair per grid point, no degree-law summary
        calls = {}
        for module, name in ((sim, "graph_report_moments"), (analytics, "_summary_from_law")):
            def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
        run(apply_overrides(default_config(), ["model.population=60"]))
        assert calls == {"graph_report_moments": points}


class TestNormalityProbe:
    def test_small_population_skips_threshold(self):
        cfg = apply_overrides(
            default_config(), ["model.population=50", "sim.trials=60", "graph.avg_degree=3"]
        )
        rep = normality_probe(cfg, trials=60)
        assert not rep.asymptotic
        assert rep.passed is None
        assert set(rep.ks_statistic) == {0, 1}

    def test_degenerate_strategy_rejected(self):
        # Near-perfect signals, noiseless links, 2-regular graph: every user
        # sees f = 2w and reports w, so the report sum never varies.
        cfg = apply_overrides(
            default_config(),
            ["model.theta0=0.999999999999", "model.alpha=0", "graph.kind=config-model",
             "graph.pmf=2:1", "model.population=60", "sim.trials=40"],
        )
        with pytest.raises(ZeroVarianceError):
            normality_probe(cfg, trials=40)


class TestKsStatistic:
    @pytest.mark.parametrize("n", [10, 100, 1000, 5000])
    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_scipy(self, n, tied):
        from scipy.stats import kstest

        x = np.random.default_rng(n).normal(0.1, 1.2, size=n)
        if tied:
            x = np.round(x, 1)
        assert abs(sim._ks_statistic(x) - kstest(x, "norm").statistic) <= 1e-12


class TestSweep:
    def test_grid_structure_and_determinism(self):
        cfg = apply_overrides(default_config(), ["sim.trials=60", "model.population=80"])
        rows = sweep(cfg, "avg_degree", [1, 2, 4], trials=60)
        assert [r.value for r in rows] == [1.0, 2.0, 4.0]
        text = sweep_csv(rows)
        assert text == sweep_csv(sweep(cfg, "avg_degree", [1, 2, 4], trials=60))
        assert text.count("\n") == 4  # header + 3 rows

    def test_epsilon_axis_changes_accuracy_inputs(self):
        cfg = apply_overrides(default_config(), ["sim.trials=400", "model.population=100"])
        rows = sweep(cfg, "epsilon", [0.1, 0.5], trials=400)
        mus = [r.result.analytic.mu1 for r in rows]
        assert mus[1] > mus[0]
        # paying for more revealing reports cannot hurt the estimator
        lo, hi = rows[0].result.accuracy, rows[1].result.accuracy
        assert hi.value >= lo.value - (lo.ci_half + hi.ci_half)

    @staticmethod
    def _standalone_csv(cfg, axis, values):
        """The sweep's CSV from one run per grid point, each building its own graph."""
        return sweep_csv([
            SweepRow(axis, v, run_experiment(
                override_axis(cfg, axis, v), axis_value=v, graph_stream_index=i))
            for i, v in enumerate(values)
        ])

    def test_generated_graph_drawn_per_grid_point(self):
        cfg = apply_overrides(default_config(), ["sim.trials=60", "model.population=80"])
        values = [2.0, 4.0]
        assert sweep_csv(sweep(cfg, "avg_degree", values)) == self._standalone_csv(
            cfg, "avg_degree", values)

    def test_edge_list_ingested_once(self, tmp_path, monkeypatch):
        path = tmp_path / "edges.txt"
        path.write_text(generate_erdos_renyi(np.random.default_rng(5), 120, 4.0).to_edge_list_text())
        cfg = apply_overrides(
            default_config(), ["graph.kind=edge-list", f"graph.path={path}", "sim.trials=60"]
        )
        values = [0.1, 0.5, 1.0]
        alone = self._standalone_csv(cfg, "epsilon", values)
        calls = []
        ingest = config.ingest_edge_list
        monkeypatch.setattr(
            config, "ingest_edge_list", lambda source: calls.append(source) or ingest(source)
        )
        rows = sweep(cfg, "epsilon", values)
        assert len(calls) == 1
        assert sweep_csv(rows) == alone


class TestLawMatchesStrategyTables:
    def test_report_probabilities_and_costs_match_bisection(self):
        # Under equal priors the tables hold the closed-form xi(f) = epsilon
        # in every cell (test_strategy checks it against the bisection) and
        # cut at d/2 +- tau, so the law plays the table's rows.  A user whose
        # sum is f for sure has below, at_most in {0, 1}: she reports 1 with
        # probability 1 - cut and sits in her band with at_most - below.
        worst = 0.0
        for base in PARAM_GRID:
            for cost in (quadratic_cost(), linear_capped_cost()):
                params = make_params(
                    theta0=base.theta0, alpha=base.alpha, epsilon=base.epsilon, cost=cost
                )
                law = mv_report_law(params)
                for d in range(41):
                    strat = build_mv_strategy(d, params)
                    f = np.arange(d + 1)
                    lo, hi = band_bounds(d, law.tau)
                    below, at_most = (f < lo).astype(float), (f <= hi).astype(float)
                    cut = law.cut_table(below, at_most)
                    paid = (at_most - below) * law.band_cost
                    for s in (0, 1):
                        p1 = 1.0 - cut[:, s]
                        for entry in strat.entries:
                            level = entry.xi if entry.regime == SR else 0.0
                            worst = max(
                                worst,
                                abs(p1[entry.f] - entry.row(s).p1),
                                abs(paid[entry.f] - cost.value(level)),
                            )
        assert worst < 1e-9
