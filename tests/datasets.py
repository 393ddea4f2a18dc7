"""Deterministic SNAP-layout edge-list fixtures.

The two reference collaboration/file-sharing networks are not bundled, so
tests synthesize stand-ins with the same published counts: 5242 nodes with
14496 undirected edges (listed in both directions, as the collaboration
file does) and 6301 nodes with 20777 directed edges including reciprocal
pairs.  A ring backbone guarantees every node appears.  A third file puts
a hub of 400 friends among random pairs, so its counts need 16-bit lanes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

GRQC_NODES = 5242
GRQC_EDGES = 14496
GNUTELLA_NODES = 6301
GNUTELLA_EDGES = 20777


def _ring_plus_random_pairs(n: int, total_edges: int, rng: np.random.Generator) -> set[tuple[int, int]]:
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges = {(min(u, v), max(u, v)) for u, v in edges}
    while len(edges) < total_edges:
        u, v = rng.integers(0, n, size=2)
        if u == v:
            continue
        edges.add((min(int(u), int(v)), max(int(u), int(v))))
    return edges


def write_grqc_like(path: Path, seed: int = 20110205) -> Path:
    """Undirected collaboration-style file: every edge on two directed lines."""
    rng = np.random.default_rng(seed)
    edges = _ring_plus_random_pairs(GRQC_NODES, GRQC_EDGES, rng)
    assert len(edges) == GRQC_EDGES
    lines = ["# Synthetic collaboration network", "# FromNodeId\tToNodeId"]
    directed = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    directed.sort()
    lines.extend(f"{u + 1} {v + 1}" for u, v in directed)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_gnutella_like(path: Path, seed: int = 20020804) -> Path:
    """Directed peer-to-peer-style file with some reciprocal links."""
    rng = np.random.default_rng(seed)
    n = GNUTELLA_NODES
    directed: set[tuple[int, int]] = {(i, (i + 1) % n) for i in range(n)}
    # sprinkle reciprocal pairs so symmetrization actually collapses lines
    while len(directed) < n + 1400:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v and (u, v) not in directed and (v, u) not in directed:
            directed.add((u, v))
            directed.add((v, u))
    while len(directed) < GNUTELLA_EDGES:
        u, v = (int(x) for x in rng.integers(0, n, size=2))
        if u != v:
            directed.add((u, v))
    directed_list = sorted(directed)
    assert len(directed_list) == GNUTELLA_EDGES
    covered = {u for u, _ in directed_list} | {v for _, v in directed_list}
    assert covered == set(range(n))
    lines = ["# Synthetic peer-to-peer network", "# FromNodeId\tToNodeId"]
    lines.extend(f"{u} {v}" for u, v in directed_list)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_hub(path: Path) -> Path:
    """A hub of 400 friends plus 1200 random pairs among them: 401 users."""
    rng = np.random.default_rng(11)
    edges = [(0, v) for v in range(1, 401)] + rng.integers(1, 401, size=(1200, 2)).tolist()
    path.write_text("".join(f"{u} {v}\n" for u, v in edges if u != v))
    return path
