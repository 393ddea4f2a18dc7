from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import privmarket
from privmarket.analytics import mv_report_law
from privmarket.cli import main
from privmarket.config import (
    ConfigError,
    analytic_distribution,
    apply_overrides,
    default_config,
    model_params,
    parse_config,
    serialize_config,
)
from privmarket.graph import ingest_edge_list
from privmarket.model import EPSILON_MAX

from datasets import (
    GNUTELLA_EDGES,
    GNUTELLA_NODES,
    GRQC_EDGES,
    GRQC_NODES,
    write_gnutella_like,
    write_grqc_like,
    write_hub,
)


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = default_config()
        text = serialize_config(cfg)
        again = parse_config(text)
        assert again == cfg
        assert serialize_config(again) == text

    def test_roundtrip_after_overrides(self):
        cfg = apply_overrides(
            default_config(),
            ["model.theta0=0.8", "graph.kind=config-model", "graph.pmf=0:0.2;2:0.8"],
        )
        assert parse_config(serialize_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("model.bogus = 3\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("output.formats = csv,json\n")
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("graph.symmetrize = false\n")

    def test_bad_enum_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("graph.kind = smallworld\n")

    def test_missing_edge_list_rejected(self):
        with pytest.raises(ConfigError, match="does not exist"):
            parse_config("graph.kind = edge-list\ngraph.path = nope.txt\n")

    def test_poisson_d_max_zero_is_point_mass(self):
        cfg = apply_overrides(
            default_config(),
            ["graph.kind=config-model", "graph.poisson_mean=3", "graph.d_max=0"],
        )
        dist = analytic_distribution(cfg)
        assert dist.d_max == 0 and dist.mass[0] == 1.0

    def test_poisson_default_truncation_stops_at_population(self, tmp_path):
        # no user of 20 can have 20 friends, whatever max(20, 4 * mean) says
        law = "graph.kind = config-model\ngraph.poisson_mean = 15\n"
        cfg = _write_config(tmp_path, law + "model.population = 20\n")
        assert analytic_distribution(parse_config(cfg)).d_max == 19
        assert main(["analytics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        wide = parse_config(_write_config(tmp_path, law + "model.population = 250\n"))
        assert analytic_distribution(wide).d_max == 60
        for mean in ("4.6e307", "1e308"):  # 4 * mean overflows from 4.5e307
            cfg = _write_config(tmp_path, "graph.kind = config-model\nmodel.population = 20\n"
                                          f"graph.poisson_mean = {mean}\n")
            assert analytic_distribution(parse_config(cfg)).d_max == 19
            out = tmp_path / mean
            assert main(["analytics", "--config", str(cfg), "--out", str(out)]) == 0
            assert all(math.isfinite(x) for x in _numbers(out / "analytics.txt"))

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# comment\n\nmodel.theta0 = 0.8\n")
        assert cfg.model.theta0 == 0.8

    def test_flag_style_overrides_win(self):
        cfg = apply_overrides(default_config(), ["sim.trials=5", "sim.trials=7"])
        assert cfg.sim.trials == 7


README_CONFIG = """model.prior_w1 = 0.5
model.theta0 = 0.7
model.alpha = 0.25
model.epsilon = 0.1
model.cost = quadratic
model.population = 250
graph.kind = er
graph.avg_degree = 4.0
sim.trials = 10000
sim.workers = 2
sim.seed = 20240101
"""


def _src_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(privmarket.__file__).parents[1]), env.get("PYTHONPATH")]))
    return env


def _write_config(tmp_path: Path, extra: str = "") -> Path:
    path = tmp_path / "run.cfg"
    path.write_text(
        "model.population = 80\nsim.trials = 40\nsim.seed = 99\n" + extra, encoding="utf-8"
    )
    return path


class TestCli:
    def test_missing_config_file_names_it(self, tmp_path, capsys):
        missing = tmp_path / "typo.cfg"
        assert main(["simulate", "--config", str(missing), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and str(missing) in err
        assert "section.key" not in err
        with pytest.raises(FileNotFoundError):
            parse_config(missing)

    def test_strategy_writes_table(self, tmp_path):
        cfg = _write_config(tmp_path, "graph.d_max = 4\n")
        out = tmp_path / "out"
        assert main(["strategy", "--config", str(cfg), "--out", str(out)]) == 0
        table = (out / "strategy.tsv").read_text()
        assert table.startswith("degree\tf\ts\t")
        assert f"\n4\t2\t1\t" in table

    def test_noiseless_strategy_randomizes_only_at_even_ties(self, tmp_path):
        cfg = _write_config(tmp_path, "model.alpha = 0\ngraph.d_max = 6\n")
        out = tmp_path / "out"
        assert main(["strategy", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "strategy.tsv").read_text().strip().split("\n")[1:]
        for row in rows:
            d, f, s, p1, p0, regime, xi = row.split("\t")
            if regime == "sr":
                assert int(d) % 2 == 0 and int(f) * 2 == int(d)

    def test_strategy_golden_file_default_config(self, tmp_path):
        # frozen output of the verified build for the default market constants
        cfg = _write_config(tmp_path, "graph.d_max = 12\nmodel.population = 250\n")
        out = tmp_path / "out"
        assert main(["strategy", "--config", str(cfg), "--out", str(out)]) == 0
        golden = Path(__file__).parent / "golden" / "strategy_default.tsv"
        assert (out / "strategy.tsv").read_bytes() == golden.read_bytes()

    def test_strategy_golden_file_unequal_priors(self, tmp_path):
        # prior 0.7 bisects xi(f) in every cell: 32 of the 132 rows randomize
        # at a level other than epsilon
        cfg = _write_config(tmp_path, "model.prior_w1 = 0.7\nmodel.alpha = 0.4\n"
                                      "model.epsilon = 1\ngraph.d_max = 10\n")
        out = tmp_path / "out"
        assert main(["strategy", "--config", str(cfg), "--out", str(out)]) == 0
        golden = Path(__file__).parent / "golden" / "strategy_prior07.tsv"
        assert (out / "strategy.tsv").read_bytes() == golden.read_bytes()

    def test_degree_zero_table_is_single_sr_cell(self, tmp_path):
        cfg = _write_config(tmp_path, "graph.d_max = 0\n")
        out = tmp_path / "out"
        assert main(["strategy", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "strategy.tsv").read_text().strip().split("\n")[1:]
        assert len(rows) == 2  # one cell, two signal rows
        assert all(r.split("\t")[5] == "sr" for r in rows)

    def test_edge_list_strategy_spans_the_largest_degree(self, tmp_path):
        # an edge list's law is its realized degrees: the export stops at its hub
        edges = tmp_path / "star.txt"
        edges.write_text("".join(f"0 {v}\n" for v in range(1, 6)) + "1 2\n")
        cfg = _write_config(tmp_path, f"graph.kind = edge-list\ngraph.path = {edges}\n")
        out = tmp_path / "out"
        assert main(["strategy", "--config", str(cfg), "--out", str(out)]) == 0
        rows = (out / "strategy.tsv").read_text().splitlines()[1:]
        assert max(int(row.split("\t")[0]) for row in rows) == 5

    def test_analytics_emits_all_fields(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["analytics", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "analytics.txt").read_text()
        for key in ("mu1", "kappa1", "tau", "beta", "Z0", "Z1",
                    "expected_total_payment", "bhattacharyya_mv", "bhattacharyya_nd",
                    "payment_bound_regime"):
            assert f"{key} = " in text

    @pytest.mark.parametrize("prior", ["0.5", "0.7"])
    def test_analytics_applies_the_payment_scale(self, tmp_path, prior):
        # the scale multiplies every payment constant and so the payout;
        # nothing else moves
        def lines(scale):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(README_CONFIG + f"model.prior_w1 = {prior}\n"
                           f"mechanism.payment_scale = {scale}\n", encoding="utf-8")
            out = tmp_path / f"out{scale}"
            assert main(["analytics", "--config", str(cfg), "--out", str(out)]) == 0
            return dict(line.split(" = ", 1) for line in (out / "analytics.txt").read_text().splitlines())

        base, doubled = lines(1), lines(2)
        assert base.keys() == doubled.keys()
        scaled = {"Z", "Z0", "Z1", "expected_total_payment", "expected_payment_per_user"} & base.keys()
        assert scaled == ({"Z"} if prior == "0.7" else
                          {"Z", "Z0", "Z1", "expected_total_payment", "expected_payment_per_user"})
        for key in base:
            if key in scaled:
                assert float(doubled[key]) == 2.0 * float(base[key]), key
            else:
                assert doubled[key] == base[key], key

    def test_analytics_evaluates_each_moment_summary_once(self, tmp_path, monkeypatch):
        from privmarket import analytics

        calls = []
        for name in ("mv_moments_equal_priors", "nd_moments"):
            fn = getattr(analytics, name)

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(analytics, name, wrapper)
        cfg = _write_config(tmp_path)
        assert main(["analytics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert sorted(calls) == ["mv_moments_equal_priors", "nd_moments"]

    def test_analytics_no_learning_reduces_to_lambda(self, tmp_path):
        cfg = _write_config(
            tmp_path, "graph.kind = config-model\ngraph.pmf = 0:1.0\n"
        )
        out = tmp_path / "out"
        assert main(["analytics", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "analytics.txt").read_text()
        values = dict(
            line.split(" = ") for line in text.strip().split("\n") if " = " in line
        )
        import math

        lam = (0.7 * math.exp(0.1) + 0.3) / (math.exp(0.1) + 1)
        assert float(values["mu1"]) == pytest.approx(lam, abs=1e-12)
        assert float(values["lambda"]) == pytest.approx(lam, abs=1e-12)

    @pytest.mark.parametrize("avg_degree, point", [(0.0, 0), (79.0, 79)])
    def test_er_degree_extremes(self, tmp_path, avg_degree, point):
        # p = 0 and p = 1 binomial degree laws are point masses
        cfg_path = _write_config(tmp_path, f"graph.avg_degree = {avg_degree}\n")
        cfg = parse_config(cfg_path)
        dist = analytic_distribution(cfg)
        assert dist.mass[point] == 1.0 and dist.d_max == point
        out = tmp_path / "out"
        assert main(["analytics", "--config", str(cfg_path), "--out", str(out)]) == 0
        values = dict(
            line.split(" = ") for line in (out / "analytics.txt").read_text().splitlines()
        )
        law = mv_report_law(model_params(cfg))
        assert float(values["mu1"]) == pytest.approx(law.terms(point).mean[point], rel=1e-15)

    @pytest.mark.parametrize("command", [["analytics"], ["simulate", "--trials", "2"]])
    def test_cli_never_imports_scipy(self, tmp_path, command):
        # scipy is a test dependency only; a stray import on the command
        # path costs every run about 0.8 s.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(README_CONFIG, encoding="utf-8")
        script = (
            "import sys\n"
            "from privmarket.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "print('numpy.ma' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *command, "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        # nor numpy.ma, which numpy's plain np.unique imports and no command needs
        assert done.stdout.strip().splitlines()[-2:] == ["[]", "False"]

    @pytest.mark.parametrize("command", [["analytics"], ["strategy"], ["ingest-check"],
                                         ["simulate", "--trials", "1000", "--workers", "2"]],
                             ids=["analytics", "strategy", "ingest-check", "simulate-forked"])
    def test_commands_load_only_what_they_run(self, tmp_path, command):
        # only simulate loads the Monte Carlo engine, and no command loads
        # multiprocessing, not even a simulate that forks its trial
        # processes (README graph: blocks of 204 trials, one a pass)
        edges = tmp_path / "edges.txt"
        edges.write_text("10 20\n20 30\n30 10\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(README_CONFIG + (f"graph.kind = edge-list\ngraph.path = {edges}\n"
                                        if command == ["ingest-check"] else ""), encoding="utf-8")
        script = (
            "import os, sys\n"
            "forks, fork = [], os.fork\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "from privmarket.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(len(forks), 'multiprocessing' in sys.modules, 'privmarket.sim' in sys.modules)\n"
            "sys.exit(code)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, *command, "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        simulate = command[0] == "simulate"
        assert done.stdout.split("\n")[-2] == f"{int(simulate)} False {simulate}"

    def test_runs_with_scipy_blocked(self, tmp_path):
        # numpy is the only runtime dependency: with every scipy import
        # failing, the commands and the normality probe still run.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(README_CONFIG, encoding="utf-8")
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from privmarket.cli import main\n"
            "from privmarket.config import apply_overrides, parse_config\n"
            "from privmarket.sim import normality_probe\n"
            "cfg, out = sys.argv[1:]\n"
            "for command in (['strategy'], ['analytics'], ['simulate', '--trials', '2']):\n"
            "    if main([*command, '--config', cfg, '--out', out]) != 0:\n"
            "        sys.exit(f'{command} failed')\n"
            "probe = normality_probe(apply_overrides(parse_config(cfg), ['sim.trials=60']))\n"
            "print(sorted(probe.ks_statistic))\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script, str(cfg), str(tmp_path / "out")],
            env=_src_env(), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip().splitlines()[-1] == "[0, 1]"

    def test_peak_rss_does_not_grow_with_trials(self, tmp_path):
        # a run keeps count histograms, not a row per trial: the README run's
        # peak RSS at 400 000 trials stays within 2 MB of 4 000.  Each run is
        # measured from a fresh launcher, because wait4's ru_maxrss keeps the
        # high-water mark a child had before exec: a child forked from
        # pytest would report pytest's.
        launcher = (
            "import os, sys\n"
            "pid = os.fork()\n"
            "if pid == 0:\n"
            "    os.execv(sys.executable, [sys.executable, *sys.argv[1:]])\n"
            "_, status, usage = os.wait4(pid, 0)\n"
            "if os.waitstatus_to_exitcode(status) != 0:\n"
            "    sys.exit(f'{sys.argv[1:]} failed')\n"
            "print(usage.ru_maxrss / 1024)\n"
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(README_CONFIG, encoding="utf-8")
        peaks = []
        for trials in (4000, 400_000):
            done = subprocess.run(
                [sys.executable, "-c", launcher, "-m", "privmarket.cli", "simulate",
                 "--config", str(cfg), "--out", str(tmp_path / str(trials)),
                 "--trials", str(trials), "--workers", "1"],
                env=_src_env(), capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            peaks.append(float(done.stdout))  # MB: Linux counts ru_maxrss in KiB
        assert peaks[1] - peaks[0] < 2.0, peaks

    @pytest.mark.parametrize("graph", ["gapped-pmf", "hub"])
    def test_commands_run_on_a_gapped_law_and_a_hub(self, tmp_path, graph):
        # a degree law with no mass on degree 3, and an edge list with a hub
        # of 400 friends: the closed forms print every line, and simulate runs
        extra = {
            "gapped-pmf": "graph.kind = config-model\ngraph.pmf = 1:0.3;2:0.4;4:0.3\n",
            "hub": f"graph.kind = edge-list\ngraph.path = {write_hub(tmp_path / 'hub.txt')}\n",
        }[graph]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(README_CONFIG + extra, encoding="utf-8")
        for command, name in (("analytics", "analytics.txt"), ("simulate", "results.csv")):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out), "--trials", "2"]) == 0
            numbers = _numbers(out / name)
            assert numbers and all(math.isfinite(x) for x in numbers), (command, numbers)
        text = (tmp_path / "analytics" / "analytics.txt").read_text()
        assert "\nkappa1 = " in text and "\npayment_bound_regime = " in text

    def test_layer_tracer_finds_its_spans(self, tmp_path):
        # perfbench/trace_cli.py wraps functions by module attribute; a
        # rename of one of them, or a call path that goes round it, must
        # fail here, not first in the benchmark.  simulate, swept or not,
        # reads only the realized graph; analytics reads the degree law.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(README_CONFIG + "model.population = 60\n", encoding="utf-8")
        spans_path = tmp_path / "spans.json"
        tracer = Path(__file__).parents[1] / "perfbench" / "trace_cli.py"
        simulate = ("graph.build", "analytics.graph_moments", "sim.trial_phase", "sim.output")
        for command, spans in (
            (["simulate", "--trials", "2", "--workers", "1"], simulate),
            (["simulate", "--trials", "2", "--workers", "1", "--set", "sweep.axis=epsilon",
              "--set", "sweep.values=0.1,0.5"], simulate),
            (["analytics"], ("analytics.degree_law",)),
        ):
            done = subprocess.run(
                [sys.executable, str(tracer), str(spans_path), command[0], "--config", str(cfg),
                 "--out", str(tmp_path / "out"), *command[1:]],
                env=_src_env(), capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            payload = json.loads(spans_path.read_text())
            assert payload["exit_code"] == 0
            spent = {}
            for name, start, end, _ in payload["spans"]:
                spent[name] = spent.get(name, 0.0) + end - start
            for name in spans:
                assert spent.get(name, 0.0) > 0.0, (command, name)

    def test_analytics_on_edge_list_uses_its_node_count(self, tmp_path):
        path = write_grqc_like(tmp_path / "grqc.txt")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"graph.kind = edge-list\ngraph.path = {path}\n", encoding="utf-8")
        texts = []
        for name, extra in (("default", []), ("pinned", ["--set", f"model.population={GRQC_NODES}"])):
            out = tmp_path / name
            assert main(["analytics", "--config", str(cfg), "--out", str(out), *extra]) == 0
            texts.append((out / "analytics.txt").read_bytes())
        assert texts[0] == texts[1]

    def test_analytics_unequal_priors_notes_omission(self, tmp_path):
        cfg = _write_config(tmp_path, "model.prior_w1 = 0.6\n")
        out = tmp_path / "out"
        assert main(["analytics", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "analytics.txt").read_text()
        assert "omitted" in text
        assert "beta =" not in text

    def test_simulate_deterministic_bytes(self, tmp_path):
        cfg = _write_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_simulate_worker_count_invariant(self, tmp_path, trial_forks):
        # 600 trials are three blocks of 256, one pass each: 4 workers run
        # them as three processes, the parent and two forked children
        cfg = _write_config(tmp_path, "sim.trials = 600\n")
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1), "--workers", "1"]) == 0
        assert not trial_forks
        assert main(["simulate", "--config", str(cfg), "--out", str(out4), "--workers", "4"]) == 0
        assert len(trial_forks) == 2
        assert (out1 / "results.csv").read_bytes() == (out4 / "results.csv").read_bytes()

    def test_a_failing_trial_process_exits_one_without_a_traceback(self, tmp_path, monkeypatch,
                                                                   capfd):
        # the forked child's tally raises; its stderr is the test's fd 2,
        # so a traceback it printed would show here
        from privmarket import sim

        tally = sim._Engine.tally

        def failing(engine, master_seed, trials, blocks):
            if blocks.start > 0:
                raise ValueError("no table for this block")
            return tally(engine, master_seed, trials, blocks)

        monkeypatch.setattr(sim._Engine, "tally", failing)
        cfg = _write_config(tmp_path, "sim.trials = 600\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--workers", "2"]) == 1
        captured = capfd.readouterr()
        assert captured.err.startswith("error: trial process 1 of 2 "), captured.err
        assert "ValueError: no table for this block" in captured.err
        assert "Traceback" not in captured.err + captured.out
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("cost", ["quadratic", "table:0:0,1:1,2:4"])
    def test_simulate_audits_its_cost_once(self, tmp_path, monkeypatch, cost):
        # validation, each grid point and the engine build all read one
        # model.cost; its audit (2000 Python calls) runs once
        from privmarket import config, model

        audits = []
        audit = model.audit_cost_function

        def counted(fn):
            audits.append(fn)
            audit(fn)

        monkeypatch.setattr(model, "audit_cost_function", counted)
        monkeypatch.setattr(config, "audit_cost_function", counted)
        config.cost_from_spec.cache_clear()
        cfg = _write_config(
            tmp_path, f"model.cost = {cost}\nsweep.axis = epsilon\nsweep.values = 0.1,1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(audits) == 1

    def test_simulate_sweep_rows(self, tmp_path):
        cfg = _write_config(
            tmp_path, "sweep.axis = avg_degree\nsweep.values = 1,2,4,8,16\nsim.trials = 20\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().strip().split("\n")
        assert len(lines) == 6  # header + 5 grid points
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 99
        assert manifest["sweep_values"] == [1.0, 2.0, 4.0, 8.0, 16.0]

    def test_set_overrides_apply(self, tmp_path):
        cfg = _write_config(tmp_path)
        out = tmp_path / "out"
        assert main([
            "simulate", "--config", str(cfg), "--out", str(out),
            "--set", "sim.trials=10", "--seed", "123",
        ]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["trials"] == 10
        assert manifest["seed"] == 123

    @pytest.mark.parametrize("kind", ["er", "edge-list"])
    @pytest.mark.parametrize("swept", [False, True], ids=["unswept", "swept"])
    def test_simulate_manifest_keys(self, tmp_path, kind, swept):
        # a sweep records its grid, an unswept run its node count, and an
        # edge list the ingested graph's nodes and edges
        extra = "model.population = 60\n"
        if kind == "edge-list":
            path = tmp_path / "ring.txt"
            path.write_text("".join(f"{i} {(i + 1) % 60}\n" for i in range(60)))
            extra += f"graph.kind = edge-list\ngraph.path = {path}\n"
        if swept:
            extra += "sweep.axis = epsilon\nsweep.values = 0.1,0.5\n"
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(_write_config(tmp_path, extra)),
                     "--out", str(out), "--trials", "2"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        grid = {"sweep_axis", "sweep_values"} if swept else set()
        graph = {"nodes", "edges"} if kind == "edge-list" else set() if swept else {"nodes"}
        assert set(manifest) == {"config", "seed", "trials", "workers", "version"} | grid | graph
        assert (manifest["trials"], manifest.get("nodes", 60), manifest.get("edges", 60)) == (
            2, 60, 60)
        if swept:
            assert (manifest["sweep_axis"], manifest["sweep_values"]) == ("epsilon", [0.1, 0.5])

    def test_failure_leaves_no_partial_outputs(self, tmp_path):
        cfg = _write_config(tmp_path, "model.prior_w1 = 0.6\n")  # unsupported in sim
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert not list(out.glob("*.csv")) and not list(out.glob("*.tmp"))

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("model.theta0 = 0.4\n")
        assert main(["analytics", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2


class TestSweepSettings:
    """Sweep settings that no run can use are config errors, found before any trial."""

    @pytest.mark.parametrize("case", [
        "avg_degree-config-model", "avg_degree-edge-list", "bad-value", "bad-grid-point",
        "one-trial",
    ])
    def test_rejected_before_any_trial(self, tmp_path, monkeypatch, capsys, case):
        from privmarket import sim

        edge_list = tmp_path / "edges.txt"
        edge_list.write_text("0 1\n1 2\n")
        extra = {
            "avg_degree-config-model":
                "graph.kind = config-model\ngraph.pmf = 1:0.5;2:0.5\n"
                "sweep.axis = avg_degree\nsweep.values = 1,8\n",
            "avg_degree-edge-list":
                f"graph.kind = edge-list\ngraph.path = {edge_list}\n"
                "sweep.axis = avg_degree\nsweep.values = 1,8\n",
            "bad-value": "sweep.axis = epsilon\nsweep.values = 0.1,x\n",
            "bad-grid-point": "sweep.axis = alpha\nsweep.values = 0.1,0.7\n",
            "one-trial": "sim.trials = 1\n",
        }[case]
        calls = []
        monkeypatch.setattr(sim, "run_experiment", lambda *a, **k: calls.append(a))
        cfg = _write_config(tmp_path, extra)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert calls == []

    def test_grid_point_named(self):
        with pytest.raises(ConfigError, match="alpha must lie .* got 0.7"):
            parse_config("sweep.axis = alpha\nsweep.values = 0.1,0.7\n")
        with pytest.raises(ConfigError, match="avg_degree must lie .* got 300"):
            parse_config("sweep.axis = avg_degree\nsweep.values = 4,300\n")

    def test_axis_without_values_waits_for_an_override(self, tmp_path):
        cfg = _write_config(tmp_path, "sweep.axis = epsilon\nsim.trials = 4\n")
        with pytest.raises(ConfigError, match="sweep.values must list at least one grid point"):
            parse_config(cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--set", "sweep.values=0.1,0.5"]) == 0
        assert len((out / "results.csv").read_text().splitlines()) == 3

    def test_values_without_axis_wait_for_an_override(self, tmp_path):
        cfg = _write_config(tmp_path, "sweep.values = 0.1,0.5\nsim.trials = 4\n")
        assert parse_config(cfg).sweep.axis == ""
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--set", "sweep.axis=epsilon"]) == 0
        assert len((out / "results.csv").read_text().splitlines()) == 3


class TestLoadTimeChecks:
    """Values no command can use fail when the config loads, not mid-run."""

    @pytest.mark.parametrize("command, extra, message", [
        ("simulate", "mechanism.payment_scale = 0\n", "mechanism.payment_scale must be > 0"),
        ("analytics", "analytics.p_e = 1.5\n", r"analytics.p_e must lie in \(0, 1\)"),
        ("simulate", "graph.kind = config-model\ngraph.pmf = 1:x\n", "bad graph.pmf entry '1:x'"),
        ("simulate", "graph.kind = config-model\ngraph.pmf = 1:0.5;2:0.4\n",
         "config-model degree law: mass sums to"),
        ("analytics", "graph.kind = config-model\ngraph.pmf = 1:0.5;30:0.5\nmodel.population = 20\n",
         "graph.pmf puts mass on degree 30, but no user of model.population = 20"),
        ("simulate", "graph.kind = config-model\ngraph.pmf = 2:0.5;2:0.5\n",
         "config-model degree law: duplicate degrees in support"),
        ("analytics", "graph.kind = config-model\ngraph.pmf = 1:0.5;2:nan;3:0.5\n",
         "config-model degree law: mass sums to"),
        ("analytics", "graph.kind = config-model\ngraph.pmf = 1:0.5;1000000000:0.5\n",
         "graph.pmf puts mass on degree 1000000000, but no user of model.population = 80"),
        ("analytics", "graph.kind = config-model\ngraph.poisson_mean = 15\nmodel.population = 20\n"
         "graph.d_max = 25\n", "graph.d_max = 25 truncates the Poisson law above degree 19"),
        ("simulate", "sweep.axis = epsilon\nsweep.values =\n",
         "sweep.values must list at least one grid point"),
        ("analytics", "sim.seed = -1\n", "sim.seed must be >= 0, got -1"),
        ("strategy", "graph.d_max = -7\n", "graph.d_max must be >= -1"),
        ("analytics", "model.cost = table:0:0,1:nan\n", "cost table entries must be finite"),
        ("analytics", "model.cost = table:0:0,1:1,1:2\n", "cost table repeats zeta = 1"),
        ("analytics", "model.cost = table:0:0,inf:1\n", "cost table entries must be finite"),
        ("simulate", "model.cost = table:0:0,1:x\n", r"^model\.cost: bad cost table entry '1:x'$"),
        ("analytics", "graph.kind = config-model\ngraph.poisson_mean = inf\n",
         "graph.poisson_mean must be > 0 and finite, got inf"),
        ("simulate", "graph.kind = config-model\ngraph.poisson_mean = nan\n",
         "graph.poisson_mean must be > 0 and finite, got nan"),
        ("analytics", "graph.kind = config-model\ngraph.poisson_mean = -inf\n",
         "graph.poisson_mean must be > 0 and finite, got -inf"),
        ("simulate", "mechanism.payment_scale = inf\n",
         "mechanism.payment_scale must be > 0 and finite, got inf"),
        ("analytics", "model.cost = table:0:1,1:2\n", r"^model.cost: g\(0\) = 1, expected 0$"),
        ("simulate", "model.cost = table:0:0,1:2,2:3\n",
         r"^model.cost: cost derivative is not nondecreasing"),
        ("analytics", "graph.kind = config-model\ngraph.pmf = 2:0.5;3:0.4\n",
         r"^graph\.pmf: config-model degree law: mass sums to 0\.9, not 1$"),
        ("analytics", "graph.kind = config-model\ngraph.pmf = -1:0.5;2:0.5\n",
         r"^graph\.pmf: config-model degree law: degrees must be nonnegative$"),
        ("analytics", "graph.kind = config-model\ngraph.pmf = 2:0.5;2:0.5\n",
         r"^graph\.pmf: config-model degree law: duplicate degrees in support$"),
        ("analytics", "graph.kind = config-model\ngraph.pmf = 2:-0.5;3:1.5\n",
         r"^graph\.pmf: config-model degree law: mass values must be nonnegative$"),
        ("analytics", "model.theta0 = 0.4\n",
         r"^model\.theta0: theta0 must lie in \(0\.5, 1\), got 0\.4$"),
        ("analytics", "model.population = 1\n",
         r"^model\.population: population must be >= 2, got 1$"),
    ], ids=["payment-scale", "p_e", "pmf-entry", "pmf-mass", "pmf-degree", "pmf-repeated",
            "pmf-nan", "pmf-huge-degree", "poisson-d_max", "empty-sweep", "negative-seed", "d_max",
            "cost-nan", "cost-repeated-zeta", "cost-inf-zeta", "cost-entry-key", "poisson-inf",
            "poisson-nan", "poisson-minus-inf", "payment-scale-inf", "cost-g0", "cost-concave",
            "pmf-mass-key", "pmf-negative-degree", "pmf-repeated-key", "pmf-negative-mass",
            "theta0-key", "population-key"])
    def test_rejected_at_load(self, tmp_path, monkeypatch, capsys, command, extra, message):
        from privmarket import sim

        calls = []
        monkeypatch.setattr(sim, "run_experiment", lambda *a, **k: calls.append(a))
        cfg = _write_config(tmp_path, extra)
        with pytest.raises(ConfigError, match=message):
            parse_config(cfg)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "np.float64" not in err
        assert calls == []

    def test_zero_mass_degree_above_population_accepted(self, tmp_path):
        # a degree listed with zero mass carries nothing, however large
        cfg = _write_config(tmp_path, "graph.kind = config-model\ngraph.pmf = 1:1;30:0\n"
                                      "model.population = 20\n")
        assert analytic_distribution(parse_config(cfg)).mass.tolist() == [0.0, 1.0]
        assert main(["analytics", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def _numbers(path: Path) -> list[float]:
    """Every numeric field of a key = value, TSV or CSV output file."""
    fields = re.split(r"[\s,=]+", path.read_text())
    numbers = []
    for field in fields:
        try:
            numbers.append(float(field))
        except ValueError:
            pass
    return numbers


class TestOverflowRefusals:
    """Values at which a closed form or a designed payment overflows are refused, naming the key."""

    @pytest.mark.parametrize("command", ["analytics", "strategy", "simulate"])
    @pytest.mark.parametrize("extra", [
        "model.epsilon = 800\n", f"model.epsilon = {EPSILON_MAX * (1 + 1e-12)!r}\n",
        "model.epsilon = nan\n", "sweep.axis = epsilon\nsweep.values = 0.1,800\n",
    ], ids=["800", "just-past-bound", "nan", "sweep-point"])
    def test_epsilon_past_the_bound_is_a_config_error(self, tmp_path, capsys, command, extra):
        cfg = _write_config(tmp_path, extra)
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "model.epsilon must lie in [0, 300]" in err

    @pytest.mark.parametrize("extra", [
        "", "model.cost = linear-capped\n", "sim.profile = nd\n",
        "graph.kind = config-model\ngraph.poisson_mean = 3\n",
    ], ids=["quadratic", "linear-capped", "nd", "config-model"])
    def test_largest_accepted_epsilon_runs_to_finite_outputs(self, tmp_path, extra):
        cfg = _write_config(tmp_path, f"model.epsilon = {EPSILON_MAX!r}\n" + extra)
        for command, name in (("analytics", "analytics.txt"), ("strategy", "strategy.tsv"),
                              ("simulate", "results.csv")):
            out = tmp_path / command
            assert main([command, "--config", str(cfg), "--out", str(out), "--trials", "2"]) == 0
            numbers = _numbers(out / name)
            assert numbers and all(math.isfinite(x) for x in numbers), (command, name)

    @pytest.mark.parametrize("command, extra", [
        ("simulate", ""), ("analytics", ""),
        ("analytics", "model.prior_w1 = 0.7\nmodel.epsilon = 1\n"),  # prints Z alone
    ], ids=["simulate", "analytics", "analytics-unequal-priors"])
    def test_non_finite_designed_payment_is_refused(self, tmp_path, capsys, command, extra):
        cfg = _write_config(tmp_path, "mechanism.payment_scale = 1e308\n" + extra)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: payment design: ") and "= inf" in err
        assert "mechanism.payment_scale = 1e+308" in err and "Traceback" not in err
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", ["analytics", "simulate"])
    @pytest.mark.parametrize("extra, epsilon", [
        ("model.epsilon = 0\n", "0"), ("model.cost = table:0:0,1:0,2:1\n", "0.1"),
    ], ids=["quadratic-at-0", "flat-table"])
    def test_zero_marginal_cost_is_refused_naming_its_keys(self, tmp_path, capsys, command, extra,
                                                           epsilon):
        cfg = _write_config(tmp_path, extra)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: payment design: ") and "Traceback" not in err
        assert "model.cost" in err and f"model.epsilon = {epsilon};" in err
        assert not any(out.iterdir())
        # the export designs no payment: at epsilon 0 a tie is a fair coin
        assert main(["strategy", "--config", str(cfg), "--out", str(out)]) == 0

    def test_payments_near_the_float_range_run_to_finite_cells(self, tmp_path):
        # payments near 1e200 are designed finite, but their squared
        # deviations from the mean are not: the se scales them first
        cells = {}
        for scale in ("1", "1e200"):
            cfg = _write_config(tmp_path, f"mechanism.payment_scale = {scale}\n")
            out = tmp_path / scale
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["simulate", "--config", str(cfg), "--out", str(out),
                             "--trials", "400"]) == 0
            header, row = (out / "results.csv").read_text().splitlines()
            cells[scale] = dict(zip(header.split(","), map(float, row.split(","))))
            assert all(math.isfinite(x) for x in cells[scale].values()), cells[scale]
        assert cells["1e200"]["payment_ci"] == pytest.approx(
            1e200 * cells["1"]["payment_ci"], rel=1e-12)


# One key of a 60-user README run per example: values in range, at its ends and
# just outside them, then the values every numeric key is probed with.
_PROBED = {
    "model.prior_w1": ["0.5", "0.7", "0.9999999999", "1"],
    "model.theta0": ["0.7", "0.5", "0.5000000001", "0.9999999999", "1"],
    "model.alpha": ["0.25", "0.4999999999", "0.5"],
    "model.epsilon": ["1", "300", "300.0000001", "5e-324"],
    "model.cost": ["linear-capped", "table:0:0,1:1,2:3", "table:0:0,1:0,2:1", "table:0:1,1:2",
                   "cubic", "table:0:0,1:x", "table:0:0,1"],
    "model.population": ["2", "5", "61", "1.5"],
    "graph.avg_degree": ["59", "59.000001", "0.5"],
    "graph.poisson_mean": ["3", "59", "60", "4.6e307", "1e308"],  # on a config-model graph
    "mechanism.payment_scale": ["1e200", "1e308", "5e-324"],
    "analytics.p_e": ["0.5", "0.9999999999", "1"],
    "sim.trials": ["2", "1"],
}
_EVERY_KEY = ["0", "-1", "inf", "-inf", "nan", "1e300", "1e-300", "-1e300"]
_PROBES = st.sampled_from(sorted(_PROBED)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(_PROBED[key] + _EVERY_KEY)))
# every `section.key` a config holds: a refusal names one of them
_DOTTED_KEYS = [line.split(" = ")[0] for line in serialize_config(default_config()).splitlines()]
# Files `ingest-check`'s graph.path is pointed at: the base edge list, then
# edge lists with no edge, a malformed line, non-ASCII text, 19-digit ids,
# bytes that are not UTF-8 and a self-loop alone.
_EDGE_LISTS = {
    "edges.txt": b"# header\n10 20\n20\t30\n30 10\n10 10\n20 10\n",
    "empty.txt": b"",
    "comments.txt": b"# no edge\n\n",
    "inline-comment.txt": b"10 20\n20 30 # inline\n",
    "three-ids.txt": b"10 20 30\n",
    "non-ascii-digits.txt": "10 20\n20 \uff13\uff10\n".encode(),  # fullwidth 30
    "underscore-id.txt": b"1_0 2\n2 3\n",
    "non-ascii-word.txt": "10 20\n20 drei\u00dfig\n".encode(),
    "latin-1.txt": b"10 20\n20 3\xe9\n",
    "ids-19-digits.txt": b"1000000000000000000 -1000000000000000000\n",
    "id-past-64-bits.txt": b"9223372036854775808 2\n",
    "self-loop.txt": b"5 5\n",
}
_INGEST_PROBED = {
    **_PROBED,
    "graph.path": [*_EDGE_LISTS, "a-directory", "missing.txt"],
    "graph.kind": ["edge-list", "er", "config-model", "bogus"],
}
_INGEST_PROBES = st.sampled_from(sorted(_INGEST_PROBED)).flatmap(
    lambda key: st.tuples(st.just(key), st.sampled_from(_INGEST_PROBED[key] + _EVERY_KEY)))


class TestRightOrRefuse:
    """Every command prints only finite numbers, or refuses with its exit code's message.

    A refusal's message names a dotted key.
    """

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(probe=_PROBES)
    # values that once gave a traceback, passed load, named no stage, or wrote inf
    @example(probe=("graph.poisson_mean", "inf"))
    @example(probe=("mechanism.payment_scale", "inf"))
    @example(probe=("model.epsilon", "0"))
    @example(probe=("model.cost", "table:0:0,1:0,2:1"))
    @example(probe=("mechanism.payment_scale", "1e308"))
    @example(probe=("model.epsilon", "800"))
    @example(probe=("model.prior_w1", "0.7"))
    @example(probe=("model.cost", "table:0:1,1:2"))
    @example(probe=("graph.poisson_mean", "59"))
    @example(probe=("model.cost", "table:0:0,1:x"))
    @example(probe=("model.cost", "table:0:0,1"))
    def test_one_key_changed(self, probe):
        key, value = probe
        # every probed sim.trials value is at most 2 or refused at load
        trials = [] if key == "sim.trials" else ["--trials", "2"]
        with tempfile.TemporaryDirectory() as tmp:
            cfg = _probe_config(Path(tmp), key, value)
            for command, name in (("analytics", "analytics.txt"), ("strategy", "strategy.tsv"),
                                  ("simulate", "results.csv")):
                out, err = Path(tmp) / command, io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(cfg), "--out", str(out), *trials])
                err = err.getvalue()
                assert "Traceback" not in err, (command, err)
                if code == 0:
                    numbers = _numbers(out / name)
                    assert numbers and all(math.isfinite(x) for x in numbers), (command, numbers)
                else:
                    assert (code, err.split(":")[0]) in ((1, "error"), (2, "config error")), \
                        (command, code, err)
                    assert any(dotted in err for dotted in _DOTTED_KEYS), (command, err)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(probe=_INGEST_PROBES)
    # an empty file, a malformed line, non-ASCII text, ids that only `int`
    # reads and 19-digit ids; a directory and a file that is not UTF-8
    # once named no key
    @example(probe=("graph.path", "empty.txt"))
    @example(probe=("graph.path", "inline-comment.txt"))
    @example(probe=("graph.path", "non-ascii-digits.txt"))
    @example(probe=("graph.path", "underscore-id.txt"))
    @example(probe=("graph.path", "non-ascii-word.txt"))
    @example(probe=("graph.path", "ids-19-digits.txt"))
    @example(probe=("graph.path", "id-past-64-bits.txt"))
    @example(probe=("graph.path", "a-directory"))
    @example(probe=("graph.path", "latin-1.txt"))
    @example(probe=("graph.kind", "er"))
    def test_ingest_check_one_key_changed(self, probe):
        key, value = probe
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            for name, content in _EDGE_LISTS.items():
                (directory / name).write_bytes(content)
            (directory / "a-directory").mkdir()
            if key == "graph.path":
                value = str(directory / value)
            cfg = directory / "probe.cfg"
            cfg.write_text(README_CONFIG.replace("model.population = 250", "model.population = 60")
                           + f"graph.kind = edge-list\ngraph.path = {directory / 'edges.txt'}\n"
                           + f"{key} = {value}\n", encoding="utf-8")
            out, stdout, err = directory / "out", io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(err):
                code = main(["ingest-check", "--config", str(cfg), "--out", str(out)])
        err = err.getvalue()
        assert "Traceback" not in err, err
        if code == 0:
            numbers = [float(line.split(" = ")[1]) for line in stdout.getvalue().splitlines()]
            assert numbers and all(math.isfinite(x) for x in numbers), numbers
        else:
            assert (code, err.split(":")[0]) in ((1, "error"), (2, "config error")), (code, err)
            assert any(dotted in err for dotted in _DOTTED_KEYS), err
            assert not stdout.getvalue()

    @pytest.mark.parametrize("key, value, command, start, named", [
        ("model.prior_w1", "0.7", "simulate", "error: simulate: ", ["model.prior_w1 = 0.7"]),
        ("model.cost", "table:0:1,1:2", "analytics", "config error: model.cost: ",
         ["g(0) = 1, expected 0"]),
        ("graph.poisson_mean", "59", "simulate", "error: graph build: ",
         ["graph.poisson_mean = 59", "model.population = 60"]),
        *(("graph.path", "edges.txt", command, "error: edge-list ingest: ",
           ["graph.path = {tmp}/edges.txt: line 3: expected two node ids, got '20 30 # inline'"])
          for command in ("ingest-check", "analytics", "strategy", "simulate")),
        *(("output.directory", layout, command, "error: output: ",
           [f"output.directory = {{tmp}}/{layout}: "])
          for layout in ("afile/sub", "taken") for command in ("analytics", "simulate")),
    ], ids=["unequal-priors", "cost-g0", "config-model-draw", "edge-list-ingest-check",
            "edge-list-analytics", "edge-list-strategy", "edge-list-simulate",
            "output-under-a-file-analytics", "output-under-a-file-simulate",
            "output-unwritable-analytics", "output-unwritable-simulate"])
    def test_refusal_names_its_stage_and_key(self, tmp_path, monkeypatch, capsys, key, value,
                                             command, start, named):
        from privmarket import config

        builds = []
        build_graph = config.build_graph
        monkeypatch.setattr(config, "build_graph", lambda cfg: builds.append(cfg) or build_graph(cfg))
        cfg = _probe_config(tmp_path, key, value)
        out = tmp_path / (value if key == "output.directory" else "out")
        code = main([command, "--config", str(cfg), "--out", str(out), "--trials", "2"])
        err = capsys.readouterr().err
        assert code == (2 if start.startswith("config error") else 1)
        assert err.startswith(start) and "Traceback" not in err and "np.float64" not in err, err
        assert all(text.format(tmp=tmp_path) in err for text in named), err
        # nothing published: the directory holds at most what blocked the writes
        blockers = set(_UNWRITABLE) if key == "output.directory" else set()
        assert not out.exists() or {p.name for p in out.iterdir()} <= blockers
        # of the generated graphs, only the config-model draw gets as far as
        # the graph build
        if key not in ("graph.path", "output.directory"):
            assert len(builds) == (key == "graph.poisson_mean")

    def test_refused_publish_replaces_no_output(self, tmp_path, capsys):
        # a target that is a directory refuses the run before any output
        # is replaced, so the results.csv of an earlier run keeps its bytes
        cfg = _probe_config(tmp_path, "sim.seed", "5")
        out = tmp_path / "out"
        (out / "manifest.json").mkdir(parents=True)
        earlier = b"axis_value,accuracy\n4,0.5\n"
        (out / "results.csv").write_bytes(earlier)
        assert main(["simulate", "--config", str(cfg), "--out", str(out), "--trials", "2"]) == 1
        err = capsys.readouterr().err
        assert err == f"error: output: output.directory = {out}: {out / 'manifest.json'} is a directory\n"
        assert (out / "results.csv").read_bytes() == earlier
        assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "results.csv"]


# Output files whose temporary names are taken by directories in the
# `taken` layout of `_probe_config`, so that writing them fails.
_UNWRITABLE = ("analytics.txt.tmp", "manifest.json.tmp")


def _probe_config(directory: Path, key: str, value: str) -> Path:
    """The 60-user README config with `key = value`; a config-model graph for graph.poisson_mean.

    For graph.path, `value` names an edge list written in `directory` whose
    line 3 holds an inline comment.  For output.directory, `value` names a
    directory under `directory`: `afile/sub` lies under a regular file, and
    `taken` holds a directory at each `_UNWRITABLE` name.
    """
    text = README_CONFIG.replace("model.population = 250", "model.population = 60")
    if key == "graph.poisson_mean":
        text += "graph.kind = config-model\n"
    if key == "graph.path":
        (directory / value).write_text("# header\n10 20\n20 30 # inline\n")
        text += "graph.kind = edge-list\n"
        value = str(directory / value)
    if key == "output.directory":
        (directory / "afile").write_text("")
        for name in _UNWRITABLE:
            (directory / "taken" / name).mkdir(parents=True)
        value = str(directory / value)
    path = directory / "probe.cfg"
    path.write_text(text + f"{key} = {value}\n", encoding="utf-8")
    return path


class TestPathOrText:
    def test_missing_path_names_the_file(self, tmp_path):
        for read in (parse_config, ingest_edge_list):
            for name in ("typo.cfg", str(tmp_path / "typo.txt"), tmp_path / "typo.txt"):
                with pytest.raises(FileNotFoundError, match="typo"):
                    read(name)

    def test_text_and_file_agree(self, tmp_path):
        text = "model.theta0 = 0.8\n"
        path = tmp_path / "run.cfg"
        path.write_text(text)
        assert parse_config(text) == parse_config(path) == parse_config(str(path))


class TestRealWorldLayouts:
    def test_collaboration_fixture_counts(self, tmp_path):
        path = write_grqc_like(tmp_path / "grqc.txt")
        res = ingest_edge_list(path)
        assert res.graph.n == GRQC_NODES == 5242
        assert res.graph.num_edges == GRQC_EDGES == 14496
        assert res.duplicates_dropped == GRQC_EDGES  # reverse direction collapses

    def test_p2p_fixture_counts(self, tmp_path):
        path = write_gnutella_like(tmp_path / "gnutella.txt")
        res = ingest_edge_list(path)
        assert res.graph.n == GNUTELLA_NODES == 6301
        assert res.graph.num_edges <= GNUTELLA_EDGES
        assert res.lines_read == GNUTELLA_EDGES

    def test_ingest_check_command(self, tmp_path, capsys):
        path = write_grqc_like(tmp_path / "grqc.txt")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"graph.kind = edge-list\ngraph.path = {path}\n")
        out = tmp_path / "out"
        assert main(["ingest-check", "--config", str(cfg), "--out", str(out)]) == 0
        text = (out / "ingest.txt").read_text()
        assert capsys.readouterr().out == text
        assert "nodes = 5242" in text
        assert "edges = 14496" in text
        assert [line.split(" = ")[0] for line in text.splitlines()] == [
            "nodes", "edges", "self_loops_dropped", "duplicates_dropped", "lines_read", "d_max",
            "n_quarter_root", "ratio", "moment_2_5"]

    def test_ingest_check_counts_and_refuses_a_malformed_line(self, tmp_path, capsys):
        # comments, tabs and runs of spaces, a self-loop, a duplicate and a
        # reversed edge are counted; an inline comment is an error naming its line
        edges = tmp_path / "edges.txt"
        edges.write_text("# FromNodeId\tToNodeId\n10\t20\n20  30\n30 10\n5 5\n"
                         "10\t20\n20 10\n40   50\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"graph.kind = edge-list\ngraph.path = {edges}\n")
        out = tmp_path / "out"
        assert main(["ingest-check", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "ingest.txt").read_text().splitlines()[:5] == [
            "nodes = 6", "edges = 4", "self_loops_dropped = 1", "duplicates_dropped = 2",
            "lines_read = 7"]
        capsys.readouterr()
        edges.write_text("# header\n10 20\n20 30 # inline\n")
        out = tmp_path / "inline"
        assert main(["ingest-check", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "line 3: expected two node ids, got '20 30 # inline'" in err
        assert not out.exists() or not any(out.iterdir())

    def test_edge_list_simulation_manifest_counts(self, tmp_path):
        path = write_grqc_like(tmp_path / "grqc.txt")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"graph.kind = edge-list\ngraph.path = {path}\n"
            "sim.trials = 4\nsim.seed = 7\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["nodes"] == 5242
        assert manifest["edges"] == 14496

    def test_simulate_builds_each_graph_once(self, tmp_path, monkeypatch):
        from privmarket import analytics, config, sim

        calls = {"build_graph": 0, "graph_report_moments": 0, "_summary_from_law": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(config, "build_graph")
        counted(sim, "graph_report_moments")
        counted(analytics, "_summary_from_law")  # both degree-law summaries
        path = write_grqc_like(tmp_path / "grqc.txt")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"graph.kind = edge-list\ngraph.path = {path}\nsim.trials = 4\nsim.seed = 7\n"
            "sim.profile = nd\nsweep.axis = epsilon\nsweep.values = 0.1,1\n"
        )
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        # the edge list is built once for the sweep; realized-graph moments
        # once per grid point, and no degree-law summary
        assert calls == {"build_graph": 1, "graph_report_moments": 2, "_summary_from_law": 0}
        manifest = json.loads((out / "manifest.json").read_text())
        assert (manifest["nodes"], manifest["edges"]) == (5242, 14496)


class TestSimulateGolden:
    """`simulate` output pinned byte for byte.

    The files hold the output of the random stream as it stands; work that
    keeps the stream must leave them equal.  A change that alters the
    stream on purpose regenerates them and records the old and new cells.
    """

    def _simulate(self, tmp_path: Path, config: str, *flags: str) -> bytes:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out), *flags]) == 0
        return (out / "results.csv").read_bytes()

    def test_readme_run(self, tmp_path):
        got = self._simulate(tmp_path, README_CONFIG, "--trials", "2000")
        assert got == (Path(__file__).parent / "golden" / "simulate_readme.csv").read_bytes()

    def test_collaboration_epsilon_sweep(self, tmp_path):
        path = write_grqc_like(tmp_path / "grqc.txt")
        got = self._simulate(
            tmp_path,
            f"graph.kind = edge-list\ngraph.path = {path}\nsim.trials = 300\nsim.seed = 7\n"
            "sweep.axis = epsilon\nsweep.values = 0.1,1\n",
        )
        golden = Path(__file__).parent / "golden" / "simulate_grqc_epsilon.csv"
        assert got == golden.read_bytes()

    def test_collaboration_alpha_sweep(self, tmp_path):
        path = write_grqc_like(tmp_path / "grqc.txt")
        got = self._simulate(
            tmp_path,
            f"graph.kind = edge-list\ngraph.path = {path}\nsim.trials = 300\nsim.seed = 7\n"
            "sweep.axis = alpha\nsweep.values = 0.1,0.25,0.4\n",
        )
        golden = Path(__file__).parent / "golden" / "simulate_grqc_alpha.csv"
        assert got == golden.read_bytes()


class TestAnalyticsGolden:
    """`analytics` output pinned byte for byte.

    The closed forms are deterministic, so any change to the printed
    numbers fails here; a change that moves them on purpose regenerates
    the files and records the old and new lines.
    """

    def _analytics(self, tmp_path: Path, config: str) -> bytes:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["analytics", "--config", str(cfg), "--out", str(out)]) == 0
        return (out / "analytics.txt").read_bytes()

    def test_readme_law(self, tmp_path):
        got = self._analytics(tmp_path, README_CONFIG)
        assert got == (Path(__file__).parent / "golden" / "analytics_readme.txt").read_bytes()

    def test_collaboration_graph(self, tmp_path):
        path = write_grqc_like(tmp_path / "grqc.txt")
        got = self._analytics(tmp_path, f"graph.kind = edge-list\ngraph.path = {path}\n")
        assert got == (Path(__file__).parent / "golden" / "analytics_grqc.txt").read_bytes()

    def test_poisson_config_model(self, tmp_path):
        got = self._analytics(
            tmp_path, README_CONFIG + "graph.kind = config-model\ngraph.poisson_mean = 3\n"
        )
        assert got == (Path(__file__).parent / "golden" / "analytics_poisson3.txt").read_bytes()
