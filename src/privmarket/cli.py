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
from .config import (
    EDGE_LIST,
    ER,
    ConfigError,
    RunConfig,
    analytic_distribution,
    apply_overrides,
    build_graph,
    ingest_graph,
    model_params,
    params_for_graph,
    parse_config,
)
from .graph import check_sparsity
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
    """Write files to temp names, publish on success, clean up on failure.

    A directory that cannot be made or written is refused naming
    `output.directory`.
    """

    def __init__(self, directory: str):
        self.dir = Path(directory)
        self._pending: list[tuple[Path, Path]] = []

    def _io(self, call, *args, **kwargs):
        try:
            return call(*args, **kwargs)
        except OSError as exc:
            raise OSError(f"output: output.directory = {self.dir}: {exc}") from exc

    def make(self) -> None:
        """Create the directory, before the command runs."""
        self._io(self.dir.mkdir, parents=True, exist_ok=True)

    def write(self, name: str, content: str) -> Path:
        final = self.dir / name
        tmp = self.dir / (name + ".tmp")
        self._io(tmp.write_text, content, encoding="utf-8")
        self._pending.append((tmp, final))
        return final

    def publish(self) -> list[Path]:
        """Replace every target by its temp file; a target that is a directory refuses them all.

        Every target is checked before the first replace, so a refused
        publish leaves each existing output as it was.
        """
        for _, final in self._pending:
            if final.is_dir():
                raise OSError(f"output: output.directory = {self.dir}: {final} is a directory")
        done = []
        for tmp, final in self._pending:
            self._io(os.replace, tmp, final)
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
    if cfg.graph.kind == ER:
        return 20  # er default export range
    return analytic_distribution(cfg).d_max  # an edge list's law is its realized degrees


def cmd_strategy(cfg: RunConfig, out: _AtomicOutputs) -> None:
    params = model_params(cfg)
    d_max = _strategy_d_max(cfg)
    table = [build_mv_strategy(d, params) for d in range(d_max + 1)]
    path = out.write("strategy.tsv", table_to_text(table))
    log.info("strategy table for degrees 0..%d -> %s", d_max, path)


def _key_values(pairs) -> str:
    """`key = value` lines, floats at 17 significant digits as in every CSV cell."""
    return "".join(f"{k} = {format(v, '.17g') if isinstance(v, float) else v}\n" for k, v in pairs)


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
        pred = an.predict(params, mv.mu1, mv.kappa1, cfg.mechanism.payment_scale)
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
    path = out.write("analytics.txt", _key_values(pairs))
    log.info("analytic report -> %s", path)


def cmd_simulate(cfg: RunConfig, out: _AtomicOutputs) -> None:
    """The run `sim.sweep(cfg)` makes, as one CSV row per grid point and its manifest."""
    from . import sim  # only simulate loads the Monte Carlo engine

    results = sim.sweep(cfg)
    out.write("results.csv", sim.sweep_csv(results))
    out.write("manifest.json", sim.run_manifest(cfg, results))
    log.info("simulation outputs -> %s", out.dir)


def cmd_ingest_check(cfg: RunConfig, out: _AtomicOutputs) -> None:
    if cfg.graph.kind != EDGE_LIST:
        raise ConfigError("ingest-check needs graph.kind = edge-list")
    result = ingest_graph(cfg)
    report = check_sparsity(result.graph)
    text = _key_values([
        ("nodes", result.graph.n), ("edges", result.graph.num_edges),
        ("self_loops_dropped", result.self_loops_dropped),
        ("duplicates_dropped", result.duplicates_dropped), ("lines_read", result.lines_read),
        ("d_max", report.d_max), ("n_quarter_root", report.n_quarter_root),
        ("ratio", report.ratio), ("moment_2_5", report.moment_2_5),
    ])
    path = out.write("ingest.txt", text)
    print(text, end="")
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
        out.make()
        _COMMANDS[args.command](cfg, out)
        out.publish()
    except Exception as exc:  # publish nothing on failure
        out.discard()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
