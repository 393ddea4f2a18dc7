"""Benchmark workloads: their inputs, generated from the workload seed.

Each workload is one `privmarket simulate` configuration.  Its input
files (the collaboration edge list) are drawn from the workload seed once
per run; each measurement cycle of a run then writes a config whose
`sim.seed` is `sim_seed(seed, cycle)`, so that one run samples several
graph draws.  The program under test sees only the files written here.
Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The README's run.cfg model section; every workload shares it.
README_MODEL = {
    "model.prior_w1": "0.5",
    "model.theta0": "0.7",
    "model.alpha": "0.25",
    "model.epsilon": "0.1",
    "model.cost": "quadratic",
}


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int
    trials: int  # per grid point
    rows: int  # CSV rows the simulate command must write
    smoke_trials: int

    def graph_keys(self, seed: int, inputs: Path, smoke: bool) -> dict:
        """Write the workload's input files under `inputs`; return its graph keys."""
        return _GRAPH_KEYS[self.name](seed, inputs, smoke)

    def config_text(self, graph_keys: dict, sim_seed: int, smoke: bool) -> str:
        keys = dict(README_MODEL)
        keys.update(graph_keys)
        keys["sim.trials"] = str(self.smoke_trials if smoke else self.trials)
        keys["sim.workers"] = str(self.workers)
        keys["sim.seed"] = str(sim_seed)
        return "".join(f"{k} = {v}\n" for k, v in keys.items())


def sim_seed(seed: int, cycle: int) -> int:
    """`sim.seed` of measurement cycle `cycle` of a run with workload seed `seed`."""
    return seed * CYCLES_PER_SEED + cycle


CYCLES_PER_SEED = 1000  # more than any run can fit


def _readme_graph(seed: int, inputs: Path, smoke: bool) -> dict:
    return {"model.population": "250", "graph.kind": "er", "graph.avg_degree": "4.0"}


COLLAB_EPSILONS = "0.1,1"
COLLAB_POOL = 4300  # authors; with 14 500 edges this gives about 3700 nodes


def _collab_graph(seed: int, inputs: Path, smoke: bool) -> dict:
    path = inputs / "collab.txt"
    path.write_text(collab_edge_list(seed, target_edges=1500 if smoke else 14500))
    return {
        "graph.kind": "edge-list",
        "graph.path": str(path.resolve()),
        "sweep.axis": "epsilon",
        "sweep.values": COLLAB_EPSILONS,
    }


_GRAPH_KEYS = {
    "readme-er250": _readme_graph,
    "collab-eps-sweep": _collab_graph,
}

WORKLOADS = {
    w.name: w
    for w in (
        Workload("readme-er250", workers=2, trials=40000, rows=1, smoke_trials=40),
        Workload("collab-eps-sweep", workers=2, trials=4000,
                 rows=len(COLLAB_EPSILONS.split(",")), smoke_trials=20),
    )
}


def collab_edge_list(seed: int, target_edges: int) -> str:
    """A co-authorship edge list in the public layout, drawn from `seed`.

    Each "paper" joins 2 + Poisson(1.2) authors (at most 8) into a clique.
    Authors come from a pool of COLLAB_POOL with activity weights at the
    quantiles of 1 + Pareto(2), capped at 10, in a seeded order; a few
    hubs collect many co-authors.  Fixed quantiles keep the hub sizes, and
    so the wedge and strategy-table work, close from one seed to the next.
    Papers are added until the undirected graph has `target_edges` edges.
    Node ids are sparse, and every edge is written in both directions.
    """
    rng = np.random.default_rng([seed, 0xC011AB])
    quantiles = (np.arange(COLLAB_POOL) + 0.5) / COLLAB_POOL
    weights = np.minimum((1.0 - quantiles) ** -0.5, 10.0)
    rng.shuffle(weights)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    edges: set[tuple[int, int]] = set()
    while len(edges) < target_edges:
        size = min(2 + int(rng.poisson(1.2)), 8)
        team: set[int] = set()
        while len(team) < size:
            team.add(int(np.searchsorted(cdf, rng.random(), side="right")))
        members = sorted(team)
        for i, u in enumerate(members):
            for v in members[i + 1:]:
                edges.add((u, v))
    external = np.sort(rng.choice(6 * COLLAB_POOL, size=COLLAB_POOL, replace=False)) + 1
    directed = sorted(
        (int(external[a]), int(external[b])) for u, v in edges for a, b in ((u, v), (v, u))
    )
    nodes = len({u for u, _ in directed})
    lines = [
        "# Undirected graph (each unordered pair of nodes is saved twice): collab.txt",
        f"# Synthetic collaboration network drawn from seed {seed}",
        f"# Nodes: {nodes} Edges: {len(directed)}",
        "# FromNodeId\tToNodeId",
    ]
    lines.extend(f"{u}\t{v}" for u, v in directed)
    return "\n".join(lines) + "\n"
