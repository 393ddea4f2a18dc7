"""Social learning graph: generation, ingestion and degree statistics.

Graphs are simple and undirected.  A graph is its sorted (m, 2) edge array
(u < v) plus one CSR view of the adjacency: each undirected edge appears
once per direction, grouped by receiver with senders ascending, and
`recv_starts` delimits each receiver's run.  Neighbor lookups slice that
view, and the samplers consume it directly.  All of it is built with numpy
from the edge array.  Instances are immutable by convention and safe to
share across workers.  `Graph.degree_pairs` counts the edges and the open
wedges by their two ends' degrees, once per graph: every pair sum over a
realized graph reads only those counts.

A degree law (`DegreeDistribution`) is one mass vector indexed by degree,
mass[d] = Pr(D = d); the configuration model draws degrees as indices
into it.
"""

from __future__ import annotations

import io
import re
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "Graph",
    "DegreePairs",
    "DegreeDistribution",
    "SparsityReport",
    "IngestResult",
    "GraphFormatError",
    "PairingError",
    "binomial_pmf",
    "generate_configuration_model",
    "generate_erdos_renyi",
    "ingest_edge_list",
    "check_sparsity",
]


class GraphFormatError(ValueError):
    """Malformed or empty edge-list input."""


class PairingError(RuntimeError):
    """Configuration-model stub pairing failed within the attempt budget."""


def _pmf_from_mode(up: np.ndarray, down: np.ndarray, mode: int) -> np.ndarray:
    """Normalized unimodal mass on 0..len(up) from its successive ratios.

    up[k] = p(k + 1) / p(k) and down[k] = p(k) / p(k + 1).  The mass is
    built outward from `mode` by running products, so the terms that carry
    the mass are the most accurate ones and nothing overflows; far tails
    underflow to exact zeros.
    """
    out = np.empty(len(up) + 1)
    out[mode] = 1.0
    out[mode + 1:] = np.cumprod(up[mode:])
    out[:mode] = np.cumprod(down[:mode][::-1])[::-1]
    return out / out.sum()


def _point_mass(size: int, at: int) -> np.ndarray:
    out = np.zeros(size)
    out[at] = 1.0
    return out


def binomial_pmf(n: int, p: float) -> np.ndarray:
    """Binomial(n, p) mass at 0..n, by the ratio recurrence from the mode."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return _point_mass(n + 1, 0 if p == 0.0 else n)
    k = np.arange(n, dtype=float)
    q = 1.0 - p
    up = (n - k) / (k + 1.0) * (p / q)
    down = (k + 1.0) / (n - k) * (q / p)
    return _pmf_from_mode(up, down, min(int((n + 1) * p), n))


class Graph:
    """Simple undirected graph on nodes 0..n-1.

    `edges` is an (m, 2) integer array or a sequence of pairs; an edge may
    be listed in either direction and more than once.
    """

    def __init__(self, n: int, edges: np.ndarray | Sequence[tuple[int, int]]):
        if n < 1:
            raise ValueError("graph needs at least one node")
        self.n = n = int(n)
        u, v = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
        bad = (u == v) | (u < 0) | (u >= n) | (v < 0) | (v >= n)
        if bad.any():
            k = int(bad.argmax())
            if u[k] == v[k]:
                raise ValueError(f"self-loop at node {u[k]}")
            raise ValueError(f"edge ({u[k]}, {v[k]}) out of range for n={n}")
        keys = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
        lo, hi = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)  # each key once
        self._edges = np.column_stack([lo, hi])
        # Directed view, grouped by receiver with senders ascending.
        recv, send = np.concatenate([lo, hi]), np.concatenate([hi, lo])
        order = np.lexsort((send, recv))
        self.directed_send = send[order]
        self.degrees = np.bincount(recv, minlength=n)
        self.recv_starts = np.concatenate([[0], np.cumsum(self.degrees)])
        self._degree_pairs = None

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> np.ndarray:
        """Array of undirected edges (u < v), sorted."""
        return self._edges

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbors of i (a read-only-by-convention view)."""
        return self.directed_send[self.recv_starts[i]:self.recv_starts[i + 1]]

    def max_degree(self) -> int:
        return int(self.degrees.max()) if self.n else 0

    def degree_pairs(self) -> tuple["DegreePairs", "DegreePairs"]:
        """(edges, open wedges), each counted by its two ends' degrees; built on first call.

        An open wedge is a pair of users who are not friends, counted once
        per common friend.  The pairs are enumerated in chunks of about
        _WEDGE_CHUNK and counted with `np.bincount` on the ranks of the
        degrees present, so the work is O(edges + wedges) integer array work
        once per graph, and the memory does not grow with the wedge count.
        """
        if self._degree_pairs is None:
            present = np.flatnonzero(np.bincount(self.degrees))
            rank = np.searchsorted(present, self.degrees)
            edges = (self._edges[i:i + _WEDGE_CHUNK].T
                     for i in range(0, self.num_edges, _WEDGE_CHUNK))
            self._degree_pairs = (_count_pairs(edges, rank, present),
                                  _count_pairs(_open_wedges(self), rank, present))
        return self._degree_pairs

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._edges.shape == other._edges.shape
            and bool(np.all(self._edges == other._edges))
        )


class DegreePairs(NamedTuple):
    """Pairs of users by degree: `count[i]` pairs join a user of degree lo[i] and one of hi[i] >= lo[i]."""

    lo: np.ndarray
    hi: np.ndarray
    count: np.ndarray


_WEDGE_CHUNK = 1 << 16  # pairs counted per step (plus at most d_max - 1 wedges)


def _open_wedges(graph: Graph):
    """Per chunk: the ends (a, b), a < b, of the wedges a - c - b that are not edges.

    Wedges are enumerated from the neighbor lists of each centre c as
    (first, second) positions in the receiver-grouped directed view, in
    chunks of first positions whose wedge count stays near _WEDGE_CHUNK.
    Neighbor lists are ascending, so a < b, and a wedge closed by an edge
    is found by binary search on the sorted edge keys a * n + b.
    """
    n, nbr = graph.n, graph.directed_send
    edges = graph.edges()
    edge_keys = edges[:, 0] * n + edges[:, 1]
    # The entry at position e of centre c's list pairs with every later one.
    later = np.repeat(graph.recv_starts[1:], graph.degrees)
    later -= np.arange(1, len(nbr) + 1)
    ends = np.cumsum(later)
    total = int(ends[-1]) if len(ends) else 0
    bounds = np.searchsorted(ends, np.arange(_WEDGE_CHUNK, total, _WEDGE_CHUNK), side="right")
    del ends  # the chunks need only their bounds: free 8 bytes per directed edge
    for lo, hi in zip(np.concatenate([[0], bounds]), np.concatenate([bounds, [len(nbr)]])):
        counts = later[lo:hi]
        first = np.repeat(np.arange(lo, hi), counts)
        if len(first) == 0:
            continue
        run_start = np.cumsum(counts) - counts
        second = first + np.arange(len(first)) - np.repeat(run_start, counts) + 1
        a, b = nbr[first], nbr[second]
        keys = a * n + b
        pos = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
        open_ = edge_keys[pos] != keys
        yield a[open_], b[open_]


def _count_pairs(chunks, rank: np.ndarray, present: np.ndarray) -> DegreePairs:
    """The pairs of user arrays (a, b) in `chunks`, counted by their (lower, higher) degree.

    `present` lists the degrees that occur, ascending, and `rank` gives each
    user her degree's index in it, so a pair's key ranges over
    len(present)^2 <= 4 * edges values.
    """
    size = len(present)
    total = np.zeros(size * size, dtype=np.int64)
    for a, b in chunks:
        ra, rb = rank[a], rank[b]
        found = np.bincount(np.minimum(ra, rb) * size + np.maximum(ra, rb))
        total[:len(found)] += found
    keys = np.flatnonzero(total)
    pairs = DegreePairs(present[keys // size], present[keys % size], total[keys])
    for array in pairs:
        array.flags.writeable = False  # every caller shares the graph's counts
    return pairs


class DegreeDistribution:
    """Degree law on 0..len(mass) - 1: mass[d] = Pr(D = d), with exact moment accessors."""

    def __init__(self, mass: Sequence[float]):
        mass = np.asarray(mass, dtype=float)
        if mass.ndim != 1 or len(mass) == 0:
            raise ValueError("mass must be a nonempty 1-d sequence")
        if np.any(mass < 0):
            raise ValueError("mass values must be nonnegative")
        if not abs(mass.sum() - 1.0) <= 1e-12:  # a NaN mass fails here too
            raise ValueError(f"mass sums to {float(mass.sum())!r}, not 1")
        self.mass = mass

    @property
    def d_max(self) -> int:
        """The largest degree with positive mass."""
        return int(np.flatnonzero(self.mass)[-1])

    def mean(self) -> float:
        return float(np.dot(np.arange(len(self.mass)), self.mass))

    def second_moment(self) -> float:
        return float(np.dot(np.arange(len(self.mass), dtype=float) ** 2, self.mass))

    def expect(self, values: np.ndarray) -> float:
        """Sum of mass[d] * values[d] over the degrees with positive mass.

        `values` is an array indexed by degree, up to at least `d_max`.  The
        terms are added left to right in degree order, as numpy scalars:
        Python's `sum` compensates only plain floats.
        """
        carried = np.flatnonzero(self.mass)
        return float(sum(self.mass[carried] * values[carried]))

    @classmethod
    def poisson_truncated(cls, mean: float, d_max: int) -> "DegreeDistribution":
        """Poisson(mean) on 0..d_max, renormalized."""
        if d_max < 0:
            raise ValueError(f"d_max must be >= 0, got {d_max}")
        if mean < 0.0:
            raise ValueError(f"mean must be >= 0, got {mean}")
        if mean == 0.0:
            return cls(_point_mass(d_max + 1, 0))
        k = np.arange(d_max, dtype=float)
        mass = _pmf_from_mode(mean / (k + 1.0), (k + 1.0) / mean, min(int(mean), d_max))
        return cls(mass)

    @classmethod
    def binomial(cls, n_trials: int, p: float) -> "DegreeDistribution":
        return cls(binomial_pmf(n_trials, p))

    @classmethod
    def from_graph(cls, graph: Graph) -> "DegreeDistribution":
        return cls(np.bincount(graph.degrees) / graph.n)


_MAX_PAIRINGS = 1000  # stub pairings tried before PairingError


def generate_configuration_model(rng: np.random.Generator, dist: DegreeDistribution, n: int) -> Graph:
    """Configuration-model draw with i.i.d. degrees from `dist`.

    Stubs are paired uniformly at random; a pairing containing a self-loop
    or multi-edge is rejected wholesale and re-paired.  An odd degree sum is
    repaired by redrawing one uniformly chosen degree.  Every node's realized
    degree equals its drawn degree.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    degrees = rng.choice(len(dist.mass), size=n, p=dist.mass)
    parity_guard = 0
    while degrees.sum() % 2 == 1:
        degrees[rng.integers(n)] = rng.choice(len(dist.mass), p=dist.mass)
        parity_guard += 1
        if parity_guard > 10000:
            raise PairingError("could not reach an even degree sum (is the support all-odd?)")
    if degrees.max() > n - 1:
        raise PairingError("drawn degree exceeds n - 1; no simple graph exists")

    stubs = np.repeat(np.arange(n), degrees)
    for _ in range(_MAX_PAIRINGS):
        perm = rng.permutation(len(stubs))
        a = stubs[perm[0::2]]
        b = stubs[perm[1::2]]
        if np.any(a == b):
            continue
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        if np.any(np.diff(np.sort(lo * n + hi)) == 0):
            continue
        return Graph(n, np.column_stack([lo, hi]))
    raise PairingError(
        f"stub pairing failed {_MAX_PAIRINGS} times for degree sum {int(degrees.sum())}"
    )


def generate_erdos_renyi(rng: np.random.Generator, n: int, avg_degree: float) -> Graph:
    """G(n, p) with p = avg_degree / (n - 1)."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 <= avg_degree <= n - 1:
        raise ValueError(f"avg_degree must lie in [0, n-1], got {avg_degree}")
    p = avg_degree / (n - 1)
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(len(iu)) < p
    return Graph(n, np.column_stack([iu[mask], ju[mask]]))


@dataclass(frozen=True)
class IngestResult:
    graph: Graph
    id_map: dict[int, int]  # external id -> dense 0..n-1
    self_loops_dropped: int
    duplicates_dropped: int
    lines_read: int


_INT64 = np.iinfo(np.int64)

# Text the C parse takes: tabs, newlines and printable ASCII, with "\r\n"
# read as a newline.  On it `str.splitlines`, `str.strip` and `str.split`
# cut where numpy's reader cuts, and an id of at most 18 digits always fits
# in 64 bits, so `int` and numpy read the same pairs.
_PLAIN_BYTES = b"\t\n" + bytes(range(0x20, 0x7F))
_SKIPPED_LINE = re.compile(rb"^[ \t]*(?:#[^\n]*\n|\n)", re.MULTILINE)
_DIGITS_AS_ZERO = bytes.maketrans(b"123456789", b"0" * 9)
_ID = re.compile(r"[+-]?[0-9]+")  # a node id: ASCII decimal digits after an optional sign


def read_source(source) -> str:
    """The text behind a path or text argument.

    A `str` holding a newline is the text itself; any other `str`, or a
    path, names a file that must exist.
    """
    if isinstance(source, str) and "\n" in source:
        return source
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()


def _parse_plain_pairs(text: str) -> np.ndarray | None:
    """The (rows, 2) int64 ids of the edge lines, parsed in C; None if the C parse declines.

    It declines text that is not plain (see `_PLAIN_BYTES`), text with no
    edge line, an edge line holding anything but ids of at most 18 digits,
    signs and blanks, and an edge line that does not hold exactly two ids.
    """
    if not text.isascii():
        return None
    data = text.replace("\r\n", "\n").encode("ascii")
    if data.translate(None, _PLAIN_BYTES):
        return None
    body = _SKIPPED_LINE.sub(b"", data + b"\n")
    ids = body.translate(_DIGITS_AS_ZERO)
    if not body or ids.translate(None, b"0+- \t\n") or b"0" * 19 in ids:
        return None
    try:
        pairs = np.loadtxt(io.StringIO(body.decode("ascii")), dtype=np.int64, comments=None,
                           ndmin=2)
    except ValueError:  # a malformed id, or lines of unequal width
        return None
    return pairs if pairs.shape[1] == 2 else None


def _read_pairs(text: str) -> np.ndarray:
    """The (rows, 2) int64 ids of the edge lines, read line by line.

    This reader defines the format: it takes any text, and raises
    GraphFormatError naming the first edge line that does not hold
    exactly two 64-bit integer ids (`_ID`, as the C parse reads them:
    `int` alone would take underscores and other scripts' digits).
    """
    rows: list[tuple[int, int]] = []
    id_min, id_max = _INT64.min, _INT64.max
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two node ids, got {line!r}")
        if not (_ID.fullmatch(parts[0]) and _ID.fullmatch(parts[1])):
            raise GraphFormatError(f"line {lineno}: non-integer node id in {line!r}")
        u_ext, v_ext = int(parts[0]), int(parts[1])
        if not (id_min <= u_ext <= id_max and id_min <= v_ext <= id_max):
            raise GraphFormatError(f"line {lineno}: node id outside the 64-bit range in {line!r}")
        rows.append((u_ext, v_ext))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def ingest_edge_list(source) -> IngestResult:
    """Parse '#'-commented 'u v' integer pairs into a simple graph.

    Blank lines and lines whose first non-blank character is '#' are
    skipped; every other line holds exactly two whitespace-separated
    64-bit integer ids, or GraphFormatError names it.  Plain text is
    parsed in C, and any other text, or text the C parse rejects, is read
    line by line (`_read_pairs`), so the result and the error are those of
    the line reader either way.  Edges are undirected: a line and its
    reverse are one edge.  External node ids are remapped to dense 0..n-1
    in ascending order; the map is retained in the result.  Self-loops are
    dropped and counted, and duplicate edges collapse.  `source` is the
    text or a path to it, as `read_source` tells them apart.
    """
    text = read_source(source)
    pairs = _parse_plain_pairs(text)
    if pairs is None:
        pairs = _read_pairs(text)
    if not len(pairs):
        raise GraphFormatError("empty input: no edges found")

    # Canonical compaction: sorted external ids -> 0..n-1, so re-emitting and
    # re-ingesting reproduces the identical labeled graph.
    ext_ids, dense = np.unique(pairs, return_inverse=True)
    dense = dense.reshape(-1, 2)
    loops = dense[:, 0] == dense[:, 1]
    graph = Graph(len(ext_ids), dense[~loops])
    self_loops = int(loops.sum())
    return IngestResult(
        graph=graph,
        id_map=dict(zip(ext_ids.tolist(), range(len(ext_ids)))),
        self_loops_dropped=self_loops,
        duplicates_dropped=len(pairs) - self_loops - graph.num_edges,
        lines_read=len(pairs),
    )


@dataclass(frozen=True)
class SparsityReport:
    d_max: int
    n_quarter_root: float
    ratio: float
    moment_2_5: float  # empirical E[D^2.5]


def check_sparsity(graph: Graph) -> SparsityReport:
    """Compare D_max against N^(1/4) and report E[D^2.5]."""
    d_max = graph.max_degree()
    root = graph.n ** 0.25
    ratio = d_max / root
    moment = float(np.mean(graph.degrees.astype(float) ** 2.5))
    return SparsityReport(
        d_max=d_max,
        n_quarter_root=root,
        ratio=ratio,
        moment_2_5=moment,
    )
