from __future__ import annotations

import functools
import math
import os
import tracemalloc
from dataclasses import astuple, replace
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
    ZeroVarianceError,
    map_estimate,
    normality_probe,
    run_experiment,
    simresult_csv,
    sweep,
    sweep_csv,
)
from privmarket.strategy import build_mv_strategy

from conftest import make_params
from datasets import write_grqc_like, write_hub
from oracles import (
    count_histograms, edge_list_text, friends_ones_bincount, ks_statistic_per_trial, majority_excluding,
    map_estimate_scalar, mirrored_moments, peer_payment, point_stats, sim_result_from_rows,
    trial_counts, trial_stats_loop, trial_stats_user_loop,
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


@pytest.fixture
def in_process_children(monkeypatch):
    """Stand in for the children `_run_trials` forks: each tallies in this process.

    The children run when the parent first waits for one, after its own
    task, last child first, each writing its reply through
    `sim._child_tally`.  Returns the record of each multi-process run
    (`runs`): the blocks the parent tallied (`parent`) and each child's
    (`children`).
    """
    record = SimpleNamespace(runs=[])
    pending = []

    class Pipe(bytearray):
        """The write end of a child's pipe: keeps what the child writes."""

        write = bytearray.extend

        def close(self):
            pass

    class Child:
        def __init__(self, engine, master_seed, trials, blocks):
            if not pending:
                record.runs.append(SimpleNamespace(parent=None, children=[]))
            pending.append(self)
            record.runs[-1].children.append(blocks)
            self.task, self.sent = (engine, master_seed, trials, blocks), Pipe()

        def wait(self):
            while pending:
                child = pending.pop()
                sim._child_tally(child.sent, *child.task)
            return bytes(self.sent), 0

        def close(self):
            if self in pending:
                pending.remove(self)

    tally = sim._Engine.tally

    def recorded(engine, master_seed, trials, blocks):
        if pending and record.runs[-1].parent is None:  # the parent tallies before any child
            record.runs[-1].parent = blocks
        return tally(engine, master_seed, trials, blocks)

    monkeypatch.setattr(sim, "_TrialChild", Child)
    monkeypatch.setattr(sim._Engine, "tally", recorded)
    return record


def _simple_mech():
    return MechanismConfig(z0=1.0, z1=1.0)


def _one_trial(graph, law, rng):
    """(w, reports, in band) of one trial: a one-row block played under `law`."""
    engine = sim._Engine(graph, [law], [_simple_mech()])
    work = engine.workspace(1)
    (w,), key, move = engine.draw([rng], work)
    (reports,), (in_band,) = engine.points[0].play(key, move, work)
    return int(w), reports, in_band


class TestRunTrial:
    def test_noiseless_agreeing_group_signals_follow_majority(self):
        # 4-cycle: every user has degree 2; alpha = 0 and theta0 near 1 make
        # all signals equal w, so f = 2 for everyone: report w w.p. 1
        params = make_params(alpha=0.0, theta0=1.0 - 1e-12, population=4)
        graph = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        w, reports, _ = _one_trial(graph, mv_report_law(params), substream(3, 5, 0))
        assert np.all(reports == w)

    def test_nd_baseline_has_zero_privacy_costs(self):
        params = make_params(population=6)
        graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        law = nd_report_law(params)
        _, _, in_band = _one_trial(graph, law, substream(3, 5, 1))
        assert np.all(in_band * law.band_cost == 0.0)

    def test_fixed_seed_reproduces_bytes(self):
        params = make_params(population=6)
        graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        law = mv_report_law(params)
        a = _one_trial(graph, law, substream(3, 5, 2))
        b = _one_trial(graph, law, substream(3, 5, 2))
        assert a[0] == b[0]
        assert a[1].tobytes() == b[1].tobytes() and a[2].tobytes() == b[2].tobytes()

    def test_payments_nonnegative(self):
        params = make_params(population=6)
        graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        engine = sim._Engine(graph, [mv_report_law(params)], [_simple_mech()])
        work = engine.workspace(10)
        w, key, move = engine.draw([substream(3, 5, 10)], work)
        reports, _ = engine.points[0].play(key, move, work)
        _, paid, _ = engine.points[0].report_stats(w, reports.sum(axis=1))
        assert np.all(paid >= 0.0)


def _engine(graph):
    params = make_params(population=graph.n)
    mech = MechanismConfig(z0=1.7, z1=2.1)
    return sim._Engine(graph, [mv_report_law(params)], [mech])


def _er_engine(n, avg_degree):
    return _engine(generate_erdos_renyi(substream(5, 4, 0), n, avg_degree))


def _ring(n, degree, hub=0):
    """Users joined to their `degree` nearest neighbours on a ring, and user 0 to users 1..hub."""
    edges = {(i, (i + k) % n) for i in range(n) for k in range(1, degree // 2 + 1)}
    edges |= {(0, j) for j in range(degree // 2 + 1, hub + 1)}
    return Graph(n, sorted(edges))


class TestBlockEngine:
    def test_agrees_with_per_trial_loop(self):
        cfg = apply_overrides(default_config(), ["model.population=60"])
        _, engine, (analytic,) = sim._build_experiment([cfg])
        (point,) = engine.points
        moments = mirrored_moments(analytic.mu1, analytic.kappa1)
        trials = 2000
        w, counts = trial_counts(engine, 11, trials)
        n = engine.graph.n
        # the run's histograms tally exactly these trials
        np.testing.assert_array_equal(
            sim._run_trials(engine, 11, trials, 1), count_histograms(w, counts, n))
        ((sums, band),) = counts
        _, paid, matched = point.report_stats(w, sums)
        cost = point.privacy_cost(band)
        loop = np.array([trial_stats_loop(engine, point, 12, i, moments) for i in range(trials)])

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
        (point,) = engine.points
        moments = mirrored_moments(*graph_report_moments(engine.graph, point.law))
        work = engine.workspace(1)
        for k in range(10):
            w, key, move = engine.draw([substream(8, 5, k)], work)
            reports, in_band = point.play(key, move, work)
            k1, band = reports.sum(axis=1), in_band.sum(axis=1)
            (correct,), (paid,), _ = point.report_stats(w, k1)
            loop = trial_stats_user_loop(engine, point, 8, k, moments)
            assert [w[0], correct, k1[0]] == [loop[0], loop[1], loop[4]]  # w, correct, sum
            assert [paid, point.privacy_cost(band)[0]] == pytest.approx(  # payment, cost
                loop[2:4], rel=1e-15, abs=0)

    @pytest.mark.parametrize("n, avg_degree", [(7, 2.0), (100, 4.0)])
    def test_count_statistics_match_per_user_sums(self, n, avg_degree):
        engine = _er_engine(n, avg_degree)
        assert engine.block > 1
        (point,) = engine.points
        work = engine.workspace(engine.block)
        w, key, move = engine.draw([substream(21, 5, 0)], work)
        reports, in_band = point.play(key, move, work)
        k1, band = reports.sum(axis=1), in_band.sum(axis=1)
        # a block's tally is the histogram of these counts
        np.testing.assert_array_equal(
            engine.tally(21, engine.block, [0]), count_histograms(w, [(k1, band)], n))
        _, paid, matched = point.report_stats(w, k1)
        cost, sums = point.privacy_cost(band), k1
        mech, law = point.mech, point.law
        for row in range(engine.block):
            x = [int(v) for v in reports[row]]
            majorities = [majority_excluding(x, i) for i in range(n)]
            per_user = math.fsum(peer_payment(x[i], majorities[i], mech) for i in range(n)) / n
            assert paid[row] == pytest.approx(per_user, rel=1e-15, abs=0)
            assert cost[row] == math.fsum(in_band[row] * law.band_cost) / n
            assert sums[row] == sum(x)
            assert matched[row] == sum(m == w[row] for m in majorities) / n

    def test_leading_trials_do_not_depend_on_trial_count(self):
        # the histograms of t trials bincount the first t trials of a longer run
        engine = _er_engine(100, 4.0)
        b = engine.block
        w, counts = trial_counts(engine, 3, 3 * b + 2)
        for trials in (2, b - 1, b, b + 1, 3 * b + 2):
            record = sim._run_trials(engine, 3, trials, 1)
            assert record.shape == (1,) and record.dtype == engine.record
            assert record["reports"].shape == (1, 2, 101) and record["band"].shape == (1, 101)
            assert {record.dtype[name].base for name in record.dtype.names} == {np.dtype(np.int64)}
            np.testing.assert_array_equal(
                record, count_histograms(w[:trials], counts[..., :trials], 100))

    @pytest.mark.parametrize("graph, lane", [("readme", np.uint8), ("hub", np.uint16)])
    def test_partial_block_after_a_full_one_tallies_no_stale_row(self, tmp_path, graph, lane):
        # the last block is played on the leading rows of the workspace that
        # the full block before it filled; the referee draws each block anew
        if graph == "readme":
            cfg = default_config()
        else:
            cfg = TestHistogramAggregation._hub_config(tmp_path)
        _, engine, _ = sim._build_experiment([cfg, apply_overrides(cfg, ["sim.profile=nd"])])
        assert engine._lane == lane
        trials = engine.block + 7
        w, counts = trial_counts(engine, cfg.sim.seed, trials)
        np.testing.assert_array_equal(sim._run_trials(engine, cfg.sim.seed, trials, 1),
                                      count_histograms(w, counts, engine.graph.n))

    def test_consecutive_tallies_on_one_engine_equal_fresh_engines(self):
        # an engine keeps no state from one tally to the next; the first
        # task here ends on a partial block, the second plays full ones
        cfg = default_config()
        _, engine, _ = sim._build_experiment([cfg])
        trials = 3 * engine.block + 5
        tasks = [range(2, 4), range(0, 2)]
        got = [engine.tally(9, trials, blocks) for blocks in tasks]
        fresh = [sim._build_experiment([cfg])[1].tally(9, trials, blocks) for blocks in tasks]
        np.testing.assert_array_equal(got, fresh)
        assert got[0]["band"].sum() == engine.block + 5 and got[1]["band"].sum() == 2 * engine.block

    @pytest.mark.parametrize("n, degree", [(7, 2), (250, 4), (2000, 4), (9000, 6), (40000, 6)])
    def test_block_stays_within_cell_budget(self, n, degree):
        engine = _engine(_ring(n, degree))
        cells = n + 2 * engine.graph.num_edges
        assert 1 <= engine.block <= sim._MAX_BLOCK
        if engine.block > 1:
            assert engine.block * cells <= sim._BLOCK_CELLS
        else:
            assert 2 * cells > sim._BLOCK_CELLS
        # a pass: the fewest blocks whose lanes fill _PASS_WORDS words of a
        # gathered row, within _PASS_CELLS cells
        passes, lanes, fill = engine.pass_blocks, engine.block * engine._lane.itemsize, 8 * sim._PASS_WORDS
        assert passes == 1 or (passes - 1) * lanes < fill
        assert passes == 1 or passes * engine.block * cells <= sim._PASS_CELLS
        assert passes * lanes >= fill or (passes + 1) * engine.block * cells > sim._PASS_CELLS

    def test_never_more_processes_than_blocks(self, in_process_children):
        cfg = apply_overrides(default_config(), ["model.population=100"])
        trials = 2 * sim._build_experiment([cfg])[1].block
        wide, one = (apply_overrides(cfg, [f"sim.trials={trials}", f"sim.workers={w}"])
                     for w in (64, 1))
        csv = simresult_csv(run_experiment([wide])[0])
        (run,) = in_process_children.runs
        assert run.parent == range(0, 1) and run.children == [range(1, 2)]
        assert csv == simresult_csv(run_experiment([one])[0])

    @pytest.mark.parametrize("in_process", [False, True], ids=["fork", "in_process"])
    def test_histograms_do_not_depend_on_workers(self, request, in_process):
        # 53 blocks of one pass each, the last one partial: each process
        # tallies one contiguous run of passes, 2 workers runs of 27 and 26
        # blocks and 3 workers runs of 18, 18 and 17, so the last task is
        # partial too; the parent tallies the first run, a child each other
        record = request.getfixturevalue("in_process_children") if in_process else None
        engine = _er_engine(100, 4.0)
        assert engine.pass_blocks == 1
        trials = 52 * engine.block + 7
        one = sim._run_trials(engine, 9, trials, 1)
        assert one["reports"].sum() == one["band"].sum() == trials
        for workers in (2, 3):
            np.testing.assert_array_equal(sim._run_trials(engine, 9, trials, workers), one)
        if record:
            assert [(len(run.parent), [len(task) for task in run.children]) for run in record.runs] \
                == [(27, [26]), (18, [18, 17])]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("fault", ["raises", "exits", "exits-after-sending"])
    def test_a_failing_child_fails_the_run(self, monkeypatch, workers, fault):
        # the child of the last task fails, patched before the fork: its
        # tally raises, or it exits with code 3 and sends nothing, or it
        # sends its record and then exits with code 3.  The parent names
        # that child and returns no record, and no child is left unreaped
        engine = _er_engine(100, 4.0)
        trials = 52 * engine.block + 7
        tally, child_tally = sim._Engine.tally, sim._child_tally

        def failing_tally(self, master_seed, trials, blocks):
            if blocks.stop == 53:
                if fault == "exits":
                    os._exit(3)
                raise ValueError("no table for this block")
            return tally(self, master_seed, trials, blocks)

        def failing_exit(send, engine, master_seed, trials, blocks):
            child_tally(send, engine, master_seed, trials, blocks)
            if blocks.stop == 53:
                os._exit(3)

        if fault == "exits-after-sending":
            monkeypatch.setattr(sim, "_child_tally", failing_exit)
        else:
            monkeypatch.setattr(sim._Engine, "tally", failing_tally)
        why = "failed: ValueError: no table for this block" if fault == "raises" else "exited with code 3"
        with pytest.raises(RuntimeError, match=f"^trial process {workers - 1} of {workers} .*{why}"):
            sim._run_trials(engine, 9, trials, workers)
        with pytest.raises(ChildProcessError):  # this process has no child, running or exited
            os.waitpid(-1, os.WNOHANG)

    def test_a_failing_parent_kills_and_reaps_its_children(self, monkeypatch):
        # the parent's own task raises before it waits for any child: the
        # run raises that error, and neither child is left running or unreaped
        engine = _er_engine(100, 4.0)
        trials = 52 * engine.block + 7
        tally, parent = sim._Engine.tally, os.getpid()

        def failing_tally(self, master_seed, trials, blocks):
            if os.getpid() == parent:
                raise ValueError("the parent's task failed")
            return tally(self, master_seed, trials, blocks)

        monkeypatch.setattr(sim._Engine, "tally", failing_tally)
        with pytest.raises(ValueError, match="^the parent's task failed$"):
            sim._run_trials(engine, 9, trials, 3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_workers_below_one_rejected(self):
        with pytest.raises(ConfigError, match="sim.workers"):
            apply_overrides(default_config(), ["sim.workers=0"])
        cfg = apply_overrides(default_config(), ["model.population=60"])
        with pytest.raises(ValueError, match="workers"):  # a RunConfig built unvalidated
            run_experiment([replace(cfg, sim=replace(cfg.sim, trials=10, workers=0))])


class TestPasses:
    """A pass draws several blocks into one workspace; it must not change a bit."""

    @staticmethod
    @functools.cache
    def _engine(lane):
        # 12 trials of byte lanes, or 7 of 16-bit lanes (a hub of 300
        # friends): either way two blocks a pass
        graph = _ring(3000, 6) if lane == np.uint8 else _ring(5000, 6, hub=300)
        params = make_params(population=graph.n)
        mech = MechanismConfig(z0=1.7, z1=2.1)
        engine = sim._Engine(graph, [mv_report_law(params), nd_report_law(params)], [mech] * 2)
        assert engine._lane == lane and engine.pass_blocks == 2
        return engine

    @pytest.mark.parametrize("in_process", [False, True], ids=["fork", "in_process"])
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("lane", [np.uint8, np.uint16], ids=["uint8", "uint16"])
    def test_passes_equal_the_one_block_referee(self, request, lane, workers, in_process):
        # 6 full passes, then a short pass of one partial block; at every
        # worker count the last task plays that short pass on the rows the
        # full pass before it filled, whose lanes past it hold stale signals
        children = request.getfixturevalue("in_process_children") if in_process else None
        engine = self._engine(lane)
        step = engine.pass_blocks
        trials = (6 * step + 1) * engine.block - 3
        w, counts = trial_counts(engine, 9, trials)  # each block drawn alone, in a fresh workspace
        np.testing.assert_array_equal(sim._run_trials(engine, 9, trials, workers),
                                      count_histograms(w, counts, engine.graph.n))
        if children and workers > 1:
            (run,) = children.runs
            tasks = [run.parent, *run.children]
            assert len(tasks) == workers and [len(t) % step for t in tasks] == [0] * (workers - 1) + [1]
            assert len(tasks[-1]) > step

    def test_records_do_not_depend_on_the_pass_size(self, monkeypatch):
        engine = self._engine(np.uint8)
        trials = 10 * engine.block + 5  # 11 blocks: no pass size divides them
        want = sim._run_trials(engine, 4, trials, 1)
        for step in (1, 2, 3):
            monkeypatch.setattr(engine, "pass_blocks", step)
            for workers in (1, 2):
                np.testing.assert_array_equal(sim._run_trials(engine, 4, trials, workers), want)


class TestEngineSetup:
    def test_population_must_match_graph(self):
        params = make_params(population=7)
        graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        with pytest.raises(ParameterError, match="6 nodes but params.population is 7"):
            sim._Engine(graph, [mv_report_law(params)], [_simple_mech()])

    @pytest.mark.parametrize("field, value", [
        ("population", 7), ("prior_w1", 0.6), ("theta0", 0.8),
    ])
    def test_laws_must_share_the_draw_inputs(self, field, value):
        # a draw reads population, prior_w1 and theta0: a law that differs
        # in any of them cannot be played on it
        params = make_params(population=6)
        graph = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        other = nd_report_law(make_params(**{"population": 6, field: value}))
        with pytest.raises(ParameterError, match=f"law 1 has {field} = {value} "):
            sim._Engine(graph, [mv_report_law(params), other], [_simple_mech()] * 2)
        alpha_eps = mv_report_law(make_params(population=6, alpha=0.1, epsilon=1.0))
        engine = sim._Engine(graph, [mv_report_law(params), alpha_eps], [_simple_mech()] * 2)
        assert engine.points[1].law is alpha_eps

    def test_friends_ones_counts_each_neighbour(self):
        # a hub of degree 200 (keys past a byte lane), isolated nodes, a
        # path: each key is 2 * (offset[d] + a) + s for a user of degree d,
        # a of whose friends hold signal 1, with own signal s
        n = 210
        edges = [(0, j) for j in range(1, 201)] + [(201, 202), (202, 203)]
        engine = _engine(Graph(n, edges))
        offset = engine.points[0].law.side_table(engine.graph.degrees)[0]
        s = (np.random.default_rng(4).random((3, n)) < 0.8).astype(np.int8)
        s[0, 1:201] = 1
        key = engine.table_keys(s, engine.workspace(3))
        assert key.shape == (3, n) and key.dtype == np.intp and key.flags.c_contiguous
        for row in range(3):
            for i in range(n):
                friends = engine.graph.neighbors(i)
                ones = sum(int(s[row, j]) for j in friends)
                assert key[row, i] == 2 * (offset[len(friends)] + ones) + s[row, i]
        assert key[0, 0] == 2 * (offset[200] + 200) + s[0, 0]

    @pytest.mark.parametrize("hub, lane", [
        (127, np.uint8), (128, np.uint16), (256, np.uint16), (32767, np.uint16),
        (32768, np.uint32), (65536, np.uint32),
    ])
    @pytest.mark.parametrize("rows", [1, 3, 9, 17])
    def test_friends_ones_lanes_stay_exact(self, hub, lane, rows):
        # a lane holds 2a + s, so it is the smallest type that holds
        # 2 * d_max + 1: a hub of 127 or 32 767 friends fills its lane, one
        # more friend needs the next type.  A star, a path and an isolated
        # user; rows of all ones beside rows of all zeros put a full lane
        # next to an empty one, where a carry across lanes would show, and
        # these row counts leave the last word part empty
        n = hub + 5
        edges = [(0, j) for j in range(1, hub + 1)] + [(hub + 1, hub + 2), (hub + 2, hub + 3)]
        graph = Graph(n, edges)
        params = make_params(population=n)
        # the keys read the side table's offsets alone; a real side table of
        # a 65 536-friend hub would hold two 65 537^2 float tables
        offset = 3 * np.arange(hub + 1, dtype=np.int64)
        law = SimpleNamespace(
            params=params,
            side_table=lambda degrees: (offset, np.zeros(1), np.ones(1)),
            cut_table=lambda below, at_most: np.ones((1, 2)),
        )
        engine = sim._Engine(graph, [law], [_simple_mech()])
        assert engine._lane == lane
        alternating = np.zeros((rows, n), dtype=np.int8)
        alternating[::2] = 1
        random = (np.random.default_rng(rows).random((rows, n)) < 0.5).astype(np.int8)
        work = engine.workspace(rows)
        for s in (alternating, random):
            key = engine.table_keys(s, work)
            assert key.shape == (rows, n) and key.dtype == np.intp and key.flags.c_contiguous
            np.testing.assert_array_equal(
                key, 2 * (offset[graph.degrees] + friends_ones_bincount(graph, s)) + s)
        key = engine.table_keys(alternating, work)
        full = 2 * (offset[hub] + hub) + 1
        assert key[:, 0].tolist() == [full, 2 * offset[hub]] * (rows // 2) + [full]

    @pytest.mark.parametrize("graph", ["readme", "hub", "clustered"])
    def test_every_key_lies_in_the_tables(self, tmp_path, graph):
        # the lookups wrap instead of clamping, which is exact only if no
        # key leaves the tables: the largest key a user can get,
        # 2 * (offset[d] + d) + 1, is the last entry, and every drawn key
        # lies below it
        if graph == "readme":
            cfg = default_config()
        elif graph == "hub":
            cfg = TestHistogramAggregation._hub_config(tmp_path)
        else:  # a ring lattice: each user's nearest friends are each other's friends
            path = tmp_path / "clustered.txt"
            path.write_text(edge_list_text(_ring(2000, 6, hub=60)))
            cfg = apply_overrides(default_config(), ["graph.kind=edge-list", f"graph.path={path}"])
        _, engine, _ = sim._build_experiment([cfg, apply_overrides(cfg, ["sim.profile=nd"])])
        assert engine._lane == (np.uint16 if graph == "hub" else np.uint8)
        sizes = {len(table) for point in engine.points
                 for table in (point._below, point._cut, point._at_most)}
        assert sizes == {int((engine._row + 2 * engine.graph.degrees + 1).max()) + 1}
        (size,) = sizes
        work = engine.workspace(engine.block, engine.pass_blocks)
        for start in range(0, 4 * engine.pass_blocks, engine.pass_blocks):
            blocks = range(start, start + engine.pass_blocks)
            _, key, _ = engine.draw([substream(cfg.sim.seed, 5, b) for b in blocks], work)
            assert 0 <= key.min() and key.max() < size

    def test_draw_keys_take_the_fast_gather(self):
        # the README graph's block holds more than 50k keys; numpy's take
        # copies an index array that is not C-ordered intp to a temporary
        # one, whose fresh pages cost several times the gather at that size
        _, engine, _ = sim._build_experiment([default_config()])
        _, key, move = engine.draw([substream(1, 5, 0)], engine.workspace(engine.block))
        assert key.size > 50_000
        assert key.dtype == np.intp and key.flags.c_contiguous
        assert move.dtype == np.uint32 and move.flags.c_contiguous
        for index in (engine.graph.directed_send, engine.graph.recv_starts):
            assert index.dtype == np.intp

    def test_edgeless_graph_plays_the_coin(self):
        # every degree-0 user sits in her band (f = 0 = d/2) and randomizes
        engine = _engine(Graph(5, []))
        work = engine.workspace(4)
        w, key, move = engine.draw([substream(1, 5, 0)], work)
        _, in_band = engine.points[0].play(key, move, work)
        assert in_band.all()


class TestFixedPointTables:
    """`_Point` plays every law on uint32 tables round(p * 2**31)."""

    @staticmethod
    def _float_tables(engine, point):
        _, below, at_most = point.law.side_table(engine.graph.degrees)
        cut = point.law.cut_table(below, at_most).ravel()
        return np.repeat(below, 2), cut, np.repeat(at_most, 2)

    @pytest.mark.parametrize("graph", ["readme", "hub"])
    def test_tables_are_ordered_exact_at_the_ends_and_near_the_floats(self, tmp_path, graph):
        if graph == "readme":
            cfg = default_config()
        else:
            cfg = TestHistogramAggregation._hub_config(tmp_path)
        configs = [override_axis(cfg, "alpha", a) for a in (0.1, 0.25, 0.4)]
        configs += [apply_overrides(c, ["sim.profile=nd"]) for c in configs]
        _, engine, _ = sim._build_experiment(configs)
        for point in engine.points:
            fixed = (point._below, point._cut, point._at_most)
            floats = self._float_tables(engine, point)
            below, cut, at_most = fixed
            assert np.all(below <= cut) and np.all(cut <= at_most)
            for table, p in zip(fixed, floats):
                assert table.dtype == np.uint32 and np.all(table <= 2**31)
                # 0 and 1 stay exact; a p within 2**-32 of them may round onto them
                assert np.all(table[p == 0.0] == 0) and np.all(table[p == 1.0] == 2**31)
                assert np.abs(table / 2**31 - p).max() <= 2.0**-32
            empty = floats[0] == floats[2]  # a band of width 0 stays empty on the grid
            np.testing.assert_array_equal(below[empty], at_most[empty])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_nd_law_never_puts_an_empty_band_cell_in_band(self, workers):
        # a 3-regular graph: every degree is odd, so the nd law (tau = 0) has
        # no tie and every cell's band is empty (below == at_most)
        n = 100
        ring = [(i, (i + 1) % n) for i in range(n)]
        graph = Graph(n, ring + [(i, i + n // 2) for i in range(n // 2)])
        params = make_params(population=n)
        engine = sim._Engine(graph, [nd_report_law(params)], [_simple_mech()])
        (point,) = engine.points
        assert np.array_equal(point._below, point._at_most)
        trials = 3 * engine.block
        (record,) = sim._run_trials(engine, 5, trials, workers)
        assert record["band"][0] == trials  # no trial has a user in her band
        work = engine.workspace(engine.block)
        _, key, move = engine.draw([substream(5, 5, 0)], work)
        assert not point.play(key, move, work)[1].any()

    def test_moves_at_every_table_end(self):
        # each key's cells, played with moves at each end and one below it:
        # [0, below) reports 0 out of band, [below, cut) 0 in band,
        # [cut, at_most) 1 in band, [at_most, 2**31) 1 out of band; a band
        # of width 0 (below == at_most, on both laws here) holds no one
        graph = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 2), (3, 4), (5, 6)])  # degrees 1, 2 and 3
        params = make_params(population=7)
        engine = sim._Engine(graph, [mv_report_law(params), nd_report_law(params)], [_simple_mech()] * 2)
        for point in engine.points:
            below, cut, at_most = (t.astype(np.int64) for t in (point._below, point._cut, point._at_most))
            assert (below == at_most).any() and (below < cut).any() and (cut < at_most).any()
            ends = np.stack([below - 1, below, cut - 1, cut, at_most - 1, at_most])
            key = np.broadcast_to(np.arange(len(cut)), ends.shape)
            valid = (0 <= ends) & (ends < 2**31)  # moves are 31-bit
            key, move = key[valid][None], ends[valid].astype(np.uint32)[None]
            work = SimpleNamespace(lookup=np.empty(key.shape, np.uint32), **{
                name: np.empty(key.shape, bool) for name in ("reports", "in_band", "not_above")})
            reports, in_band = point.play(key, move, work)
            m, k = move.astype(np.int64), key
            np.testing.assert_array_equal(reports, m >= cut[k])
            np.testing.assert_array_equal(in_band, (below[k] <= m) & (m < at_most[k]))
            assert not in_band[m == at_most[k]].any()
            assert not in_band[below[k] == at_most[k]].any()


class TestConditionalIndependence:
    def test_distant_users_uncorrelated(self):
        # path 0-1-2-3-4-5: users 0 and 5 are non-adjacent with no common friend
        engine = _engine(Graph(6, [(i, i + 1) for i in range(5)]))
        blocks = -(-4000 // engine.block)
        x0, x5 = [], []
        work = engine.workspace(engine.block)
        for b in range(blocks):
            w, key, move = engine.draw([substream(17, 5, b)], work)
            reports, _ = engine.points[0].play(key, move, work)
            x0.append(reports[w == 1, 0])
            x5.append(reports[w == 1, 5])
        x0, x5 = np.concatenate(x0), np.concatenate(x5)
        corr = np.corrcoef(x0, x5)[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(len(x0))


class TestHistogramAggregation:
    """Every SimResult field, computed from count histograms, equals the
    referee that keeps one float row per trial and sums each with
    `math.fsum`, bit for bit (`repr` tells every float apart, NaN too)."""

    @staticmethod
    def _check(configs, trials, workers=1):
        configs = [apply_overrides(c, [f"sim.trials={trials}", f"sim.workers={workers}"])
                   for c in configs]
        got = run_experiment(configs)
        graph, engine, predictions = sim._build_experiment(configs)
        w, counts = trial_counts(engine, configs[0].sim.seed, trials)
        want = [
            sim_result_from_rows(cfg, config.axis_value(cfg), point_stats(point, w, k1, band),
                                 analytic, graph)
            for cfg, point, (k1, band), analytic
            in zip(configs, engine.points, counts, predictions, strict=True)
        ]
        assert repr(got) == repr(want)
        return got

    @staticmethod
    def _hub_config(tmp_path):
        """The edge list of `write_hub`: a hub of 400 friends among 401 users."""
        return apply_overrides(default_config(), [
            "graph.kind=edge-list", f"graph.path={write_hub(tmp_path / 'hub.txt')}", "sim.seed=11"])

    @pytest.mark.parametrize("overrides", [
        [],
        ["model.population=251"],  # odd n: no tie in the report sum
        ["model.cost=linear-capped", "model.epsilon=0"],  # the tie coin
        ["sim.profile=nd"],
    ], ids=["readme", "readme_odd_n", "epsilon0_tie_coin", "readme_nd"])
    def test_readme_graph(self, overrides):
        self._check([apply_overrides(default_config(), overrides)], 3000)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hub_graph_alpha_points_on_one_draw(self, tmp_path, workers):
        cfg = self._hub_config(tmp_path)
        assert sim._build_experiment([cfg])[0].n == 401
        configs = [override_axis(cfg, "alpha", a) for a in (0.1, 0.25, 0.4)]
        self._check(configs, 1000, workers)

    def test_grqc_like_graph(self, tmp_path):
        path = write_grqc_like(tmp_path / "grqc.txt")
        cfg = apply_overrides(default_config(), [
            "graph.kind=edge-list", f"graph.path={path}", "sim.seed=7"])
        configs = [override_axis(cfg, "epsilon", e) for e in (0.1, 1.0)]
        self._check(configs, 300)

    def test_fewer_than_two_w1_trials_take_the_nan_path(self):
        base = apply_overrides(default_config(), ["model.population=60"])
        for seed in range(100):
            cfg = apply_overrides(base, [f"sim.seed={seed}"])
            _, engine, _ = sim._build_experiment([cfg])
            if (trial_counts(engine, seed, 2)[0] == 1).sum() < 2:
                break
        (r,) = self._check([cfg], 2)
        assert all(math.isnan(x) for x in (*astuple(r.empirical_mu1), *astuple(r.empirical_kappa1)))
        assert not math.isnan(r.accuracy.value)


class TestRunExperiment:
    def test_empirical_mean_matches_analytics(self):
        cfg = apply_overrides(default_config(), ["sim.trials=600", "model.population=200"])
        (r,) = run_experiment([cfg])
        assert abs(r.empirical_mu1.value - r.analytic.mu1) < 3 * r.empirical_mu1.se
        assert abs(r.empirical_majority_match.value - r.analytic.beta) < max(
            3 * r.empirical_majority_match.se, 5e-4
        )

    def test_workers_do_not_change_results(self, trial_forks):
        # three blocks of 256 trials, one pass each: 4 workers fork two children
        cfg = apply_overrides(default_config(), ["sim.trials=600", "model.population=100"])
        csv1, csv4 = (
            simresult_csv(run_experiment([apply_overrides(cfg, [f"sim.workers={w}"])])[0])
            for w in (1, 4))
        assert csv1 == csv4
        assert len(trial_forks) == 2

    def test_memory_does_not_grow_with_trials(self):
        # a run keeps its count histograms, not a row per trial: 1000 blocks
        # of the README run peak within 0.5 MB of 2 blocks (about 2 MB more
        # when every trial's counts were kept)
        cfg = default_config()
        block = sim._build_experiment([cfg])[1].block
        runs = {blocks: apply_overrides(cfg, [f"sim.trials={blocks * block}", "sim.workers=1"])
                for blocks in (2, 1000)}
        run_experiment([runs[2]])  # first-call allocations
        peaks = []
        for blocks in (2, 1000):
            tracemalloc.start()
            try:
                run_experiment([runs[blocks]])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5e6, peaks

    def test_repeat_runs_identical(self):
        cfg = apply_overrides(default_config(), ["sim.trials=80", "model.population=80"])
        assert simresult_csv(run_experiment([cfg])[0]) == simresult_csv(run_experiment([cfg])[0])

    def test_nd_profile_zero_privacy_cost(self):
        # the CSV's cost and its CI are exactly 0, at 1 worker and at 2
        # (1000 README trials are five blocks)
        cfg = apply_overrides(default_config(), ["sim.trials=1000", "sim.profile=nd"])
        csvs = []
        for workers in (1, 2):
            (r,) = run_experiment([apply_overrides(cfg, [f"sim.workers={workers}"])])
            assert r.avg_privacy_cost.value == 0.0
            csvs.append(simresult_csv(r))
            header, row = csvs[-1].splitlines()
            cells = dict(zip(header.split(","), row.split(",")))
            assert (cells["avg_privacy_cost"], cells["cost_ci"]) == ("0", "0")
        assert csvs[0] == csvs[1]

    def test_config_model_graph_end_to_end(self):
        cfg = apply_overrides(
            default_config(),
            ["graph.kind=config-model", "graph.pmf=1:0.4;2:0.4;3:0.2",
             "model.population=100", "sim.trials=200"],
        )
        (r,) = run_experiment([cfg])
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
        (r,) = run_experiment([cfg])
        assert abs(r.empirical_mu1.value - r.analytic.mu1) < 3 * r.empirical_mu1.se

    def test_unequal_priors_rejected(self):
        cfg = apply_overrides(default_config(), ["model.prior_w1=0.6", "sim.trials=10"])
        with pytest.raises(NotImplementedError, match=r"^simulate: model.prior_w1 = 0.6, "):
            run_experiment([cfg])

    @pytest.mark.parametrize("run, points", [
        (lambda cfg: run_experiment([apply_overrides(cfg, ["sim.trials=4"])]), 1),
        (lambda cfg: sweep(apply_overrides(
            cfg, ["sim.trials=4", "sweep.axis=epsilon", "sweep.values=0.1,0.5"])), 2),
        (lambda cfg: normality_probe(apply_overrides(cfg, ["sim.trials=60"])), 1),
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
        rep = normality_probe(cfg)
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
            normality_probe(cfg)

    def test_reads_the_trials_simulate_runs(self, monkeypatch):
        # each state's sample holds the report sums of the run's trials in
        # that state, normalized, in ascending order
        cfg = apply_overrides(default_config(), ["model.population=80", "sim.workers=2"])
        _, engine, _ = sim._build_experiment([cfg])
        w, counts = trial_counts(engine, cfg.sim.seed, 300)
        samples = []
        ks = sim._ks_statistic
        monkeypatch.setattr(sim, "_ks_statistic", lambda x, c: samples.append(np.repeat(x, c))
                            or ks(x, c))
        report = normality_probe(apply_overrides(cfg, ["sim.trials=300"]))
        assert report.trials_per_state == {0: int((w == 0).sum()), 1: int((w == 1).sum())}
        scale = math.sqrt(80 * report.kappa_used)
        for state, mean in ((0, (1.0 - report.mu_used) * 80), (1, report.mu_used * 80)):
            assert np.rint(samples[state] * scale + mean).tolist() == (
                sorted(counts[0, 0, w == state].tolist()))

    def test_swept_config_refused(self):
        # the probe reads one point: a grid is refused before any trial, by key
        cfg = _swept(apply_overrides(default_config(), ["model.population=60"]), "epsilon", [0.1, 0.5])
        with pytest.raises(ConfigError, match=r"^sweep.axis = 'epsilon': normality_probe reads one "):
            normality_probe(cfg)

    def test_each_state_needs_ten_trials(self):
        cfg = apply_overrides(default_config(), ["model.population=60"])
        with pytest.raises(ValueError, match="at least 10 trials in each world state"):
            normality_probe(apply_overrides(cfg, ["sim.trials=18"]))


class TestKsStatistic:
    @pytest.mark.parametrize("n", [10, 100, 1000, 5000])
    @pytest.mark.parametrize("tied", [False, True])
    def test_matches_scipy(self, n, tied):
        from scipy.stats import kstest

        x = np.random.default_rng(n).normal(0.1, 1.2, size=n)
        if tied:
            x = np.round(x, 1)
        values, counts = np.unique(x, return_counts=True)
        # empty bins, as a histogram of report sums has, change nothing
        mid = len(values) // 2
        values = np.insert(values, [0, mid, len(values)], [-9.0, values[mid], 9.0])
        counts = np.insert(counts, [0, mid, len(counts)], 0)
        referee = ks_statistic_per_trial(x)
        assert abs(referee - kstest(x, "norm").statistic) <= 1e-12
        assert sim._ks_statistic(values, counts) == referee

    @pytest.mark.parametrize("population", [250, 600], ids=["readme", "n600"])
    def test_probe_equals_the_per_trial_referee(self, monkeypatch, population):
        cfg = apply_overrides(default_config(), [f"model.population={population}"])
        ks = sim._ks_statistic
        samples = []
        monkeypatch.setattr(sim, "_ks_statistic", lambda x, c: samples.append(np.repeat(x, c))
                            or ks(x, c))
        report = normality_probe(apply_overrides(cfg, ["sim.trials=2000"]))
        assert [report.ks_statistic[state] for state in (0, 1)] == [
            ks_statistic_per_trial(sample) for sample in samples]


def _swept(cfg, axis, values):
    """`cfg` swept along `axis` over `values`."""
    grid = ",".join(map(str, values))
    return apply_overrides(cfg, [f"sweep.axis={axis}", f"sweep.values={grid}"])


class TestSweep:
    def test_grid_structure_and_determinism(self):
        cfg = apply_overrides(default_config(), ["sim.trials=60", "model.population=80"])
        rows = sweep(_swept(cfg, "avg_degree", [1, 2, 4]))
        assert [r.axis_value for r in rows] == [1.0, 2.0, 4.0]
        text = sweep_csv(rows)
        assert text == sweep_csv(sweep(_swept(cfg, "avg_degree", [1, 2, 4])))
        assert text.count("\n") == 4  # header + 3 rows

    def test_epsilon_axis_changes_accuracy_inputs(self):
        cfg = apply_overrides(default_config(), ["sim.trials=400", "model.population=100"])
        rows = sweep(_swept(cfg, "epsilon", [0.1, 0.5]))
        mus = [r.analytic.mu1 for r in rows]
        assert mus[1] > mus[0]
        # paying for more revealing reports cannot hurt the estimator
        lo, hi = rows[0].accuracy, rows[1].accuracy
        assert hi.value >= lo.value - (lo.ci_half + hi.ci_half)

    @staticmethod
    def _standalone_csv(cfg):
        """The CSV of a swept config from one run per grid point, each building its own graph."""
        return sweep_csv([
            run_experiment([override_axis(cfg, cfg.sweep.axis, v)])[0]
            for v in config.sweep_values(cfg)
        ])

    def test_generated_graph_drawn_per_grid_point(self):
        # a repeated degree builds the same graph again, so its rows agree
        cfg = apply_overrides(default_config(), ["sim.trials=60", "model.population=80"])
        cfg = _swept(cfg, "avg_degree", [2.0, 4.0, 2.0])
        text = sweep_csv(sweep(cfg))
        assert text == self._standalone_csv(cfg)
        rows = text.splitlines()
        assert rows[1] == rows[3] != rows[2]

    @pytest.mark.parametrize("kind", ["er", "config-model"])
    @pytest.mark.parametrize("axis, values", [
        ("epsilon", [0.1, 0.5, 1.0]), ("alpha", [0.1, 0.25, 0.4]),
    ], ids=["epsilon", "alpha"])
    def test_generated_graph_sweep_matches_standalone_runs(self, tmp_path, kind, axis, values):
        # an epsilon or alpha sweep plays one generated graph and one draw
        cfg = _swept(self._graph_config(tmp_path, kind, "sim.workers=2"), axis, values)
        assert sweep_csv(sweep(cfg)) == self._standalone_csv(cfg)

    @staticmethod
    def _edge_list_config(tmp_path, *overrides, hub=False):
        """An edge-list config on a 120-node ER graph, with a hub of 300 friends added if `hub`."""
        graph = generate_erdos_renyi(np.random.default_rng(5), 120, 4.0)
        if hub:
            graph = Graph(301, graph.edges().tolist() + [(0, j) for j in range(1, 301)])
        path = tmp_path / "edges.txt"
        path.write_text(edge_list_text(graph))
        return apply_overrides(
            default_config(),
            ["graph.kind=edge-list", f"graph.path={path}", "sim.trials=60", *overrides],
        )

    @classmethod
    def _graph_config(cls, tmp_path, kind, *overrides):
        """A 60-trial config on a graph of `kind`: 80-node ER or config model, or the edge list."""
        if kind == "edge-list":
            return cls._edge_list_config(tmp_path, *overrides)
        graph = {"er": ["graph.avg_degree=3"],
                 "config-model": ["graph.kind=config-model", "graph.pmf=1:0.3;2:0.4;5:0.3"]}[kind]
        return apply_overrides(
            default_config(), [*graph, "model.population=80", "sim.trials=60", *overrides])

    def test_edge_list_ingested_once(self, tmp_path, monkeypatch):
        cfg = _swept(self._edge_list_config(tmp_path), "epsilon", [0.1, 0.5, 1.0])
        alone = self._standalone_csv(cfg)
        calls = []
        ingest = config.ingest_edge_list
        monkeypatch.setattr(
            config, "ingest_edge_list", lambda source: calls.append(source) or ingest(source)
        )
        rows = sweep(cfg)
        assert len(calls) == 1
        assert sweep_csv(rows) == alone

    @pytest.mark.parametrize("hub", [False, True], ids=["er120", "hub300"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("profile", ["mv", "nd"])
    @pytest.mark.parametrize("axis, values", [
        ("epsilon", [0.1, 0.5, 1.0]), ("alpha", [0.1, 0.25, 0.4]),
    ], ids=["epsilon", "alpha"])
    def test_fused_sweep_matches_standalone_runs(self, tmp_path, axis, values, profile,
                                                 workers, hub):
        # every grid point of an edge-list sweep is played on one shared
        # draw per block, and each gets the CSV row it gets on its own; the
        # hub puts the friends' counts in 16-bit lanes
        cfg = self._edge_list_config(
            tmp_path, f"sim.profile={profile}", f"sim.workers={workers}", hub=hub)
        assert sim._build_experiment([cfg])[1]._lane == (np.uint16 if hub else np.uint8)
        cfg = _swept(cfg, axis, values)
        assert sweep_csv(sweep(cfg)) == self._standalone_csv(cfg)

    @pytest.mark.parametrize("kind", ["er", "config-model", "edge-list"])
    def test_one_draw_serves_every_grid_point(self, tmp_path, monkeypatch, kind):
        cfg = self._graph_config(tmp_path, kind)
        draws, groups = [], []
        monkeypatch.setattr(sim._Engine, "draw", lambda self, *a, _draw=sim._Engine.draw, **k: (
            draws.append(len(self.points)) or _draw(self, *a, **k)))
        run = sim.run_experiment
        monkeypatch.setattr(sim, "run_experiment",
                            lambda configs: groups.append(len(configs)) or run(configs))
        sweep(_swept(cfg, "alpha", [0.1, 0.25, 0.4]))
        assert groups == [3]
        assert draws == [3] * -(-60 // sim._build_experiment([cfg])[1].block)

    def test_configs_on_one_draw_share_graph_and_seed(self):
        cfg = apply_overrides(default_config(), ["model.population=60", "sim.trials=4"])
        for other in (["graph.avg_degree=3"], ["sim.seed=5"], ["sim.trials=5"], ["sim.workers=2"]):
            with pytest.raises(ValueError, match="one graph section and sim sections that differ "
                                                 "only in sim.profile"):
                run_experiment([cfg, apply_overrides(cfg, other)])
        # the profile is a law's, not the draw's: mv and nd share one draw
        configs = [cfg, apply_overrides(cfg, ["sim.profile=nd"])]
        assert len(sim._build_experiment(configs)[1].points) == 2
        both = run_experiment(configs)
        assert [r.profile for r in both] == ["mv", "nd"]
        assert [simresult_csv(r) for r in both] == [
            simresult_csv(run_experiment([c])[0]) for c in configs]


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
                    level = np.where(strat.sr, strat.xi, 0.0)
                    worst = max(
                        worst,
                        float(np.abs(1.0 - cut - strat.p1).max()),
                        max(abs(paid[k] - cost.value(level[k])) for k in range(d + 1)),
                    )
        assert worst < 1e-9
