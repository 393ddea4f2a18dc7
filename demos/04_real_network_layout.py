"""Ingesting a real-world edge list and simulating the market on it.

Edge lists use the common public layout: '#' comment lines, then one
"u v" pair per line.  Edges are undirected: a line and its reverse are one
edge, and there is no `symmetrize` option.  Self-loops are dropped and
duplicates collapse; external ids are compacted to 0..N-1.  The demo
writes a small synthetic file in that layout, checks the sparsity condition
the closed forms rely on, and runs a short simulation on the ingested graph.
"""

import tempfile
from pathlib import Path

import numpy as np

from privmarket.config import apply_overrides, default_config
from privmarket.graph import check_sparsity, ingest_edge_list
from privmarket.sim import run_experiment

# a 400-node ring plus random chords, written in the public edge-list layout
rng = np.random.default_rng(12)
n = 400
edges = {(i, (i + 1) % n) for i in range(n)}
while len(edges) < 900:
    u, v = (int(x) for x in rng.integers(0, n, size=2))
    if u != v:
        edges.add((min(u, v), max(u, v)))
lines = ["# synthetic network", "# FromNodeId ToNodeId"]
lines += [f"{u} {v}" for u, v in sorted(edges)]
lines += [f"{v} {u}" for u, v in sorted(edges)][:300]  # some reverse duplicates

with tempfile.TemporaryDirectory(prefix="privmarket_demo_") as workdir:
    path = Path(workdir) / "network.txt"
    path.write_text("\n".join(lines) + "\n")

    result = ingest_edge_list(path)
    print(f"ingested {result.graph.n} nodes, {result.graph.num_edges} edges "
          f"({result.duplicates_dropped} duplicate lines collapsed)")

    rep = check_sparsity(result.graph)
    print(f"sparsity: D_max = {rep.d_max}, N^(1/4) = {rep.n_quarter_root:.2f}, "
          f"ratio = {rep.ratio:.2f}, flagged = {rep.flagged}")

    cfg = apply_overrides(
        default_config(),
        ["graph.kind=edge-list", f"graph.path={path}", "sim.trials=400"],
    )
    (res,) = run_experiment([cfg])
print(f"\nsimulated {res.trials} rounds on the ingested graph:")
print(f"  accuracy         {res.accuracy.value:.4f} +/- {res.accuracy.ci_half:.4f}")
print(f"  payment per user {res.avg_payment_per_user.value:.4f}")
print(f"  privacy cost     {res.avg_privacy_cost.value:.6f}")
print(f"  report mean      {res.empirical_mu1.value:.4f} "
      f"(closed form {res.analytic.mu1:.4f})")
