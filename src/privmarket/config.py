"""Run configuration: a flat `section.key = value` text format.

One file drives every subcommand.  Parsing is strict (unknown keys and
missing referenced files are errors), serialization is canonical, and
parse -> serialize -> parse is the identity on configs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .graph import (DegreeDistribution, Graph, GraphFormatError, IngestResult, PairingError,
                    generate_configuration_model, generate_erdos_renyi, ingest_edge_list,
                    read_source)
from .model import (
    EPSILON_MAX,
    TAG_GRAPH,
    CostFunction,
    CostFunctionError,
    ModelParams,
    audit_cost_function,
    linear_capped_cost,
    quadratic_cost,
    substream,
    table_cost,
)

__all__ = [
    "ConfigError",
    "ModelSection",
    "GraphSection",
    "MechanismSection",
    "SimSection",
    "OutputSection",
    "RunConfig",
    "default_config",
    "parse_config",
    "serialize_config",
    "apply_overrides",
    "override_axis",
    "axis_value",
    "sweep_values",
    "model_params",
    "params_for_graph",
    "cost_from_spec",
    "build_graph",
    "ingest_graph",
    "analytic_distribution",
]

ER = "er"
CONFIG_MODEL = "config-model"
EDGE_LIST = "edge-list"
SWEEP_AXES = ("avg_degree", "epsilon", "alpha")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class ModelSection:
    prior_w1: float = 0.5
    theta0: float = 0.7
    alpha: float = 0.25
    epsilon: float = 0.1
    cost: str = "quadratic"
    population: int = 250


@dataclass(frozen=True)
class GraphSection:
    kind: str = ER
    avg_degree: float = 4.0  # er
    pmf: str = ""  # config-model: "d:mass;d:mass"
    poisson_mean: float = 0.0  # config-model alternative
    d_max: int = -1  # strategy-export range / poisson truncation; -1 means unset
    path: str = ""  # edge-list


@dataclass(frozen=True)
class MechanismSection:
    payment_scale: float = 1.0  # multiplies every payment constant


@dataclass(frozen=True)
class SimSection:
    trials: int = 10000
    workers: int = 1
    seed: int = 20240101
    profile: str = "mv"  # mv | nd


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"


@dataclass(frozen=True)
class SweepSection:
    axis: str = ""  # one of SWEEP_AXES (avg_degree on er graphs only); empty means single run
    values: str = ""  # comma-separated grid


@dataclass(frozen=True)
class AnalyticsSection:
    p_e: float = 0.05  # error target for the payment-bound regime


@dataclass(frozen=True)
class RunConfig:
    model: ModelSection = field(default_factory=ModelSection)
    graph: GraphSection = field(default_factory=GraphSection)
    mechanism: MechanismSection = field(default_factory=MechanismSection)
    sim: SimSection = field(default_factory=SimSection)
    output: OutputSection = field(default_factory=OutputSection)
    sweep: SweepSection = field(default_factory=SweepSection)
    analytics: AnalyticsSection = field(default_factory=AnalyticsSection)


def default_config() -> RunConfig:
    return RunConfig()


_SECTIONS = tuple(f.name for f in fields(RunConfig))


def _coerce(section: str, key: str, raw: str, current):
    target = type(current)
    try:
        if target is int:
            return int(raw)
        if target is float:
            return float(raw)
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(f"{section}.{key}: cannot parse {raw!r} as {target.__name__}") from exc


def _set_key(cfg: RunConfig, dotted: str, raw: str) -> RunConfig:
    if "." not in dotted:
        raise ConfigError(f"key {dotted!r} must look like section.name")
    section_name, key = dotted.split(".", 1)
    if section_name not in _SECTIONS:
        raise ConfigError(f"unknown section {section_name!r} in key {dotted!r}")
    section = getattr(cfg, section_name)
    if not hasattr(section, key):
        raise ConfigError(f"unknown key {dotted!r}")
    value = _coerce(section_name, key, raw, getattr(section, key))
    return replace(cfg, **{section_name: replace(section, **{key: value})})


def parse_config(source, validate: bool = True) -> RunConfig:
    """Parse text, a path, or an open file into a validated RunConfig.

    `source` follows `graph.read_source`: a `str` holding a newline is the
    config text, any other `str` or a `Path` names a file.  With
    `validate=False` the settings are returned unchecked, for a caller that
    applies overrides first (`apply_overrides` validates), so that a file
    and its overrides are checked as one run.
    """
    cfg = default_config()
    for lineno, line in enumerate(read_source(source).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line!r}")
        dotted, raw = stripped.split("=", 1)
        cfg = _set_key(cfg, dotted.strip(), raw.strip())
    if validate:
        validate_config(cfg)
    return cfg


def validate_config(cfg: RunConfig) -> None:
    if cfg.graph.kind not in (ER, CONFIG_MODEL, EDGE_LIST):
        raise ConfigError(f"graph.kind must be one of er, config-model, edge-list; got {cfg.graph.kind!r}")
    if cfg.graph.kind == EDGE_LIST:
        if not cfg.graph.path:
            raise ConfigError("edge-list graphs need graph.path")
        if not Path(cfg.graph.path).exists():
            raise ConfigError(f"graph.path does not exist: {cfg.graph.path}")
    if cfg.sim.seed < 0:
        raise ConfigError(f"sim.seed must be >= 0, got {cfg.sim.seed}")
    if cfg.graph.d_max < -1:
        raise ConfigError(f"graph.d_max must be >= -1 (-1: unset), got {cfg.graph.d_max}")
    if cfg.sim.trials < 2:
        raise ConfigError(f"sim.trials must be >= 2, got {cfg.sim.trials}")
    if cfg.sim.workers < 1:
        raise ConfigError(f"sim.workers must be >= 1, got {cfg.sim.workers}")
    if cfg.sim.profile not in ("mv", "nd"):
        raise ConfigError(f"sim.profile must be mv or nd, got {cfg.sim.profile!r}")
    if not 0.0 <= cfg.model.epsilon <= EPSILON_MAX:
        raise ConfigError(f"model.epsilon must lie in [0, {EPSILON_MAX:g}], the range on which the "
                          f"closed forms stay finite; got {cfg.model.epsilon:g}")
    if not 0.0 < cfg.mechanism.payment_scale < math.inf:
        raise ConfigError(f"mechanism.payment_scale must be > 0 and finite, got "
                          f"{cfg.mechanism.payment_scale:g}")
    if not 0.0 < cfg.analytics.p_e < 1.0:
        raise ConfigError(f"analytics.p_e must lie in (0, 1), got {cfg.analytics.p_e:g}")
    if cfg.sweep.axis and cfg.sweep.axis not in SWEEP_AXES:
        raise ConfigError(f"sweep.axis must be one of {', '.join(SWEEP_AXES)}, got {cfg.sweep.axis!r}")
    if cfg.sweep.axis == "avg_degree" and cfg.graph.kind != ER:
        raise ConfigError(f"sweep.axis = avg_degree needs graph.kind = er, got {cfg.graph.kind!r}")
    try:
        model_params(cfg)  # validates the cost spec and the parameter ranges
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        # a ParameterError's message starts with the field it refuses
        name = "cost" if isinstance(exc, CostFunctionError) else str(exc).split()[0]
        raise ConfigError(f"model.{name}: {exc}") from exc
    if cfg.graph.kind == ER and not 0.0 <= cfg.graph.avg_degree <= cfg.model.population - 1:
        raise ConfigError(f"graph.avg_degree must lie in [0, population - 1], got {cfg.graph.avg_degree:g}")
    if cfg.graph.kind == CONFIG_MODEL:
        population = cfg.model.population
        try:
            _pmf_distribution(cfg.graph, population)
        except ValueError as exc:
            if isinstance(exc, ConfigError):
                raise
            key = "graph.pmf" if cfg.graph.pmf else "graph.poisson_mean"
            raise ConfigError(f"{key}: config-model degree law: {exc}") from exc
        if not cfg.graph.pmf and cfg.graph.d_max >= population:
            raise ConfigError(f"graph.d_max = {cfg.graph.d_max} truncates the Poisson law above degree "
                              f"{population - 1}, the most friends a user of "
                              f"model.population = {population} can have")
    grid = sweep_values(cfg)  # parsed even without an axis, which an override may add
    if cfg.sweep.axis:  # every grid point must pass as a run of its own
        if not grid:
            raise ConfigError("sweep.values must list at least one grid point")
        for value in grid:
            validate_config(replace(override_axis(cfg, cfg.sweep.axis, value), sweep=SweepSection()))


def sweep_values(cfg: RunConfig) -> list[float]:
    """The sweep grid: `sweep.values` as comma-separated numbers."""
    try:
        return [float(v) for v in cfg.sweep.values.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"sweep.values: cannot parse {cfg.sweep.values!r} as numbers") from exc


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; stable field order, 17 significant digits."""
    lines = []
    for section_name in _SECTIONS:
        section = getattr(cfg, section_name)
        for key, value in vars(section).items():
            rendered = f"{value:.17g}" if isinstance(value, float) else str(value)
            lines.append(f"{section_name}.{key} = {rendered}")
    return "\n".join(lines) + "\n"


def apply_overrides(cfg: RunConfig, assignments) -> RunConfig:
    """Apply 'section.key=value' strings; later assignments win."""
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        dotted, raw = item.split("=", 1)
        cfg = _set_key(cfg, dotted.strip(), raw.strip())
    validate_config(cfg)
    return cfg


def override_axis(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown axis {axis!r}")
    section = "graph" if axis == "avg_degree" else "model"
    return replace(cfg, **{section: replace(getattr(cfg, section), **{axis: float(value)})})


def axis_value(cfg: RunConfig) -> float:
    """The config's value on its sweep axis: `graph.avg_degree` when unswept."""
    axis = cfg.sweep.axis or "avg_degree"
    return float(getattr(cfg.graph if axis == "avg_degree" else cfg.model, axis))


@functools.lru_cache(maxsize=16)
def cost_from_spec(spec: str) -> CostFunction:
    """Materialize a cost function from its config string, audited (`audit_cost_function`).

    Cached by spec: a command derives several configs and parameter sets
    from one `model.cost`, and the audit makes 2000 Python calls, so each
    distinct spec is audited once.  A refused spec is not cached.
    """
    spec = spec.strip()
    if spec == "quadratic":
        cost = quadratic_cost()
    elif spec == "linear-capped":
        cost = linear_capped_cost()
    elif spec.startswith("table:"):
        pairs = []
        for chunk in spec[len("table:"):].split(","):
            z, _, v = chunk.partition(":")
            try:
                pairs.append((float(z), float(v)))
            except ValueError as exc:
                raise ConfigError(f"model.cost: bad cost table entry {chunk!r}") from exc
        return table_cost([p[0] for p in pairs], [p[1] for p in pairs])  # audits its own table
    else:
        raise ConfigError(f"model.cost must be quadratic, linear-capped or table:..., got {spec!r}")
    audit_cost_function(cost)
    return cost


def model_params(cfg: RunConfig) -> ModelParams:
    return ModelParams(
        prior_w1=cfg.model.prior_w1,
        theta0=cfg.model.theta0,
        alpha=cfg.model.alpha,
        cost=cost_from_spec(cfg.model.cost),
        epsilon=cfg.model.epsilon,
        population=cfg.model.population,
    )


def params_for_graph(cfg: RunConfig, graph: Graph) -> ModelParams:
    """Model parameters at the population of the graph a run uses.

    An edge list fixes the population at its node count, whatever
    model.population says; generated graphs already have that size.
    """
    return replace(model_params(cfg), population=graph.n)


def _pmf_distribution(cfg: GraphSection, population: int) -> DegreeDistribution:
    """The config-model degree law: graph.pmf, or the Poisson law truncated at graph.d_max.

    A graph.pmf law may list a degree with zero mass at any size, but
    positive mass at a degree of population or more is an error, found
    before the mass vector is allocated.  By default the Poisson law stops
    at max(20, 4 * mean), but never above population - 1, the most friends
    a user can have.
    """
    if cfg.pmf:
        degrees, masses = [], []
        for chunk in cfg.pmf.split(";"):
            d, _, m = chunk.partition(":")
            try:
                degrees.append(int(d))
                masses.append(float(m))
            except ValueError as exc:
                raise ConfigError(f"bad graph.pmf entry {chunk!r}") from exc
        if any(d < 0 for d in degrees):
            raise ValueError("degrees must be nonnegative")
        if len(set(degrees)) != len(degrees):
            raise ValueError("duplicate degrees in support")
        if any(m < 0 for m in masses):
            raise ValueError("mass values must be nonnegative")
        carried = {d: m for d, m in zip(degrees, masses) if m != 0}
        top = max(carried, default=0)
        if top >= population:
            raise ConfigError(f"graph.pmf puts mass on degree {top}, but no user of "
                              f"model.population = {population} can have that many friends")
        mass = np.zeros(top + 1)
        mass[list(carried)] = list(carried.values())
        return DegreeDistribution(mass)
    if cfg.poisson_mean == 0.0:
        raise ConfigError("config-model graphs need graph.pmf or graph.poisson_mean")
    if not 0.0 < cfg.poisson_mean < math.inf:
        raise ConfigError(f"graph.poisson_mean must be > 0 and finite, got {cfg.poisson_mean:g}")
    d_max = cfg.d_max
    if d_max < 0:  # a mean of population or more stops at population - 1 either way
        d_max = min(max(20, int(4 * min(cfg.poisson_mean, population))), population - 1)
    return DegreeDistribution.poisson_truncated(cfg.poisson_mean, d_max)


def analytic_distribution(cfg: RunConfig) -> DegreeDistribution:
    """Degree law used by the closed forms for this configuration."""
    if cfg.graph.kind == ER:
        n = cfg.model.population
        return DegreeDistribution.binomial(n - 1, cfg.graph.avg_degree / (n - 1))
    if cfg.graph.kind == CONFIG_MODEL:
        return _pmf_distribution(cfg.graph, cfg.model.population)
    return build_graph(cfg)[1]


def build_graph(cfg: RunConfig) -> tuple[Graph, DegreeDistribution]:
    """Realize the configured graph plus the matching analytic degree law.

    A generated graph is drawn from the stream (sim.seed, graph tag, 0), so
    one config always builds one graph.
    """
    if cfg.graph.kind == EDGE_LIST:
        graph = ingest_graph(cfg).graph
        return graph, DegreeDistribution.from_graph(graph)
    rng = substream(cfg.sim.seed, TAG_GRAPH, 0)
    if cfg.graph.kind == ER:
        graph = generate_erdos_renyi(rng, cfg.model.population, cfg.graph.avg_degree)
        return graph, analytic_distribution(cfg)
    dist = analytic_distribution(cfg)
    try:
        return generate_configuration_model(rng, dist, cfg.model.population), dist
    except PairingError as exc:
        law = (f"graph.pmf = {cfg.graph.pmf}" if cfg.graph.pmf
               else f"graph.poisson_mean = {cfg.graph.poisson_mean:g}")
        raise PairingError(f"graph build: {exc} ({law}, model.population = "
                           f"{cfg.model.population})") from exc


def ingest_graph(cfg: RunConfig) -> IngestResult:
    """The edge list at `graph.path`, ingested; a malformed file is refused naming the key and the file."""
    try:
        return ingest_edge_list(cfg.graph.path)
    except GraphFormatError as exc:
        raise GraphFormatError(f"edge-list ingest: graph.path = {cfg.graph.path}: {exc}") from exc
