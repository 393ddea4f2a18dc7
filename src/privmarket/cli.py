"""Command-line front end.

Subcommands: strategy, analytics, simulate, ingest-check.  Every command is
pure with respect to (config, seed): outputs are written atomically and
partial files are removed on failure.  Set PRIVMARKET_LOG to control
verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import analytics as an
from . import sim as simmod
from .config import (
    CONFIG_MODEL,
    EDGE_LIST,
    ConfigError,
    RunConfig,
    analytic_distribution,
    apply_overrides,
    build_graph,
    model_params,
    params_for_graph,
    parse_config,
    sweep_values,
)
from .graph import check_sparsity, ingest_edge_list
from .mechanism import design_Z
from .strategy import build_mv_strategy, table_to_text

log = logging.getLogger("privmarket")


def _setup_logging() -> None:
    level = os.environ.get("PRIVMARKET_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _load_config(args) -> RunConfig:
    cfg = parse_config(Path(args.config), validate=False)  # checked with the overrides
    overrides = list(args.set or [])
    if args.seed is not None:
        overrides.append(f"sim.seed={args.seed}")
    if args.trials is not None:
        overrides.append(f"sim.trials={args.trials}")
    if args.workers is not None:
        overrides.append(f"sim.workers={args.workers}")
    if args.out is not None:
        overrides.append(f"output.directory={args.out}")
    return apply_overrides(cfg, overrides)


class _AtomicOutputs:
    """Write files to temp names, publish on success, clean up on failure."""

    def __init__(self, directory: str):
        self.dir = Path(directory)
        self.dir.mkdir(parents=True, exist_ok=True)
        self._pending: list[tuple[Path, Path]] = []

    def write(self, name: str, content: str) -> Path:
        final = self.dir / name
        tmp = self.dir / (name + ".tmp")
        tmp.write_text(content, encoding="utf-8")
        self._pending.append((tmp, final))
        return final

    def publish(self) -> list[Path]:
        done = []
        for tmp, final in self._pending:
            os.replace(tmp, final)
            done.append(final)
        self._pending.clear()
        return done

    def discard(self) -> None:
        for tmp, _ in self._pending:
            tmp.unlink(missing_ok=True)
        self._pending.clear()


def _strategy_d_max(cfg: RunConfig) -> int:
    if cfg.graph.d_max >= 0:
        return cfg.graph.d_max
    if cfg.graph.kind == CONFIG_MODEL:
        return analytic_distribution(cfg).d_max
    if cfg.graph.kind == EDGE_LIST:
        graph, _ = build_graph(cfg)
        return graph.max_degree()
    return 20  # er default export range


def cmd_strategy(cfg: RunConfig, out: _AtomicOutputs) -> None:
    params = model_params(cfg)
    d_max = _strategy_d_max(cfg)
    table = [build_mv_strategy(d, params) for d in range(d_max + 1)]
    path = out.write("strategy.tsv", table_to_text(table))
    log.info("strategy table for degrees 0..%d -> %s", d_max, path)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_analytics(cfg: RunConfig, out: _AtomicOutputs) -> None:
    if cfg.graph.kind == EDGE_LIST:
        graph, dist = build_graph(cfg)
        params = params_for_graph(cfg, graph)
    else:
        params, dist = model_params(cfg), analytic_distribution(cfg)
    n = params.population
    if params.equal_priors:
        law = an.mv_report_law(params)
        mv = an.mv_moments_equal_priors(params, dist)
        nd = an.nd_moments(params, dist)
        pred = an.predict(params, n, mv.mu1, mv.kappa1, cfg.mechanism.payment_scale)
        b_nd = an.bhattacharyya(n, nd.mu1, nd.kappa1)
        bound = an.payment_bound(cfg.analytics.p_e, pred, b_nd)
        pairs = [
            ("mu1", mv.mu1), ("mu0", 1.0 - mv.mu1),
            ("kappa1", mv.kappa1), ("kappa0", mv.kappa1),
            ("tau", law.tau), ("lambda", law.lam),
            ("beta", pred.beta),
            ("Z", pred.z), ("Z0", pred.z0), ("Z1", pred.z1),
            ("expected_total_payment", pred.total_payment),
            ("expected_payment_per_user", pred.payment_per_user),
            ("bhattacharyya_mv", pred.bhattacharyya),
            ("bhattacharyya_nd", b_nd),
            ("nd_mu1", nd.mu1), ("nd_kappa1", nd.kappa1),
            ("payment_bound_p_e", cfg.analytics.p_e),
            ("payment_bound_regime", bound.regime),
        ]
        if bound.bound_per_user is not None:
            pairs.append(("payment_bound_per_user", bound.bound_per_user))
    else:
        # No closed form for the majority accuracy under unequal priors:
        # emit only the quantities that remain defined.
        z = design_Z(params.epsilon, params.theta0, params.cost) * cfg.mechanism.payment_scale
        an.check_payments_finite(cfg.mechanism.payment_scale, Z=z)
        pairs = [
            ("Z", z),
            ("note", "unequal priors: beta, moments and payment omitted (no closed form)"),
        ]
    rendered = "\n".join(
        f"{k} = {_fmt(v) if isinstance(v, float) else v}" for k, v in pairs
    )
    path = out.write("analytics.txt", rendered + "\n")
    log.info("analytic report -> %s", path)


def cmd_simulate(cfg: RunConfig, out: _AtomicOutputs) -> None:
    trials, workers = cfg.sim.trials, cfg.sim.workers
    if cfg.sweep.axis:
        values = sweep_values(cfg)
        results = simmod.sweep(cfg, cfg.sweep.axis, values, trials=trials, workers=workers)
        csv_text = simmod.sweep_csv(results)
        extra = {"sweep_axis": cfg.sweep.axis, "sweep_values": values}
        first = results[0]
    else:
        (first,) = simmod.run_experiment([cfg], trials=trials, workers=workers,
                                         axis_values=[cfg.graph.avg_degree])
        csv_text = simmod.simresult_csv(first)
        extra = {"nodes": first.nodes}
    if cfg.graph.kind == EDGE_LIST:
        extra["nodes"] = first.nodes
        extra["edges"] = first.edges
    out.write("results.csv", csv_text)
    out.write("manifest.json", simmod.run_manifest(cfg, trials, workers, extra=extra))
    log.info("simulation outputs -> %s", out.dir)


def cmd_ingest_check(cfg: RunConfig, out: _AtomicOutputs) -> None:
    if cfg.graph.kind != EDGE_LIST:
        raise ConfigError("ingest-check needs graph.kind = edge-list")
    result = ingest_edge_list(cfg.graph.path)
    report = check_sparsity(result.graph)
    lines = [
        f"nodes = {result.graph.n}",
        f"edges = {result.graph.num_edges}",
        f"self_loops_dropped = {result.self_loops_dropped}",
        f"duplicates_dropped = {result.duplicates_dropped}",
        f"lines_read = {result.lines_read}",
        f"d_max = {report.d_max}",
        f"n_quarter_root = {_fmt(report.n_quarter_root)}",
        f"ratio = {_fmt(report.ratio)}",
        f"moment_2_5 = {_fmt(report.moment_2_5)}",
        f"flagged = {'true' if report.flagged else 'false'}",
    ]
    path = out.write("ingest.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    log.info("ingest report -> %s", path)


_COMMANDS = {
    "strategy": cmd_strategy,
    "analytics": cmd_analytics,
    "simulate": cmd_simulate,
    "ingest-check": cmd_ingest_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privmarket",
        description="Privacy-preserving data-collection market: strategies, analytics, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to the run configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable; flags win)")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = _AtomicOutputs(cfg.output.directory)
    try:
        _COMMANDS[args.command](cfg, out)
        out.publish()
    except Exception as exc:  # publish nothing on failure
        out.discard()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
