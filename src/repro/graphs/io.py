"""Plain-text persistence for weighted graphs.

A tiny, dependency-free interchange format so workloads can be saved,
versioned and shared:

    # comment lines start with '#'
    v <vertex>              # optional: declare an isolated vertex
    e <u> <v> <weight>      # an undirected weighted edge

Vertex tokens are stored as strings; integer-looking tokens round-trip
back to ints (the common case for generated workloads).
"""

from __future__ import annotations

import hashlib
import io
from pathlib import Path

from .weighted_graph import Vertex, WeightedGraph

__all__ = ["dump_graph", "dumps_graph", "graph_fingerprint", "load_graph",
           "loads_graph"]


def _token(v: Vertex) -> str:
    s = str(v)
    if any(c.isspace() for c in s):
        raise ValueError(f"vertex {v!r} renders with whitespace; not storable")
    return s


def _parse_vertex(token: str) -> Vertex:
    try:
        return int(token)
    except ValueError:
        return token


def dumps_graph(graph: WeightedGraph) -> str:
    """Serialize to the text format (deterministic ordering)."""
    out = io.StringIO()
    out.write(f"# weighted graph: n={graph.num_vertices} m={graph.num_edges}\n")
    adjacent = set()
    for u, v, _w in graph.edges():
        adjacent.add(u)
        adjacent.add(v)
    for v in sorted(graph.vertices, key=repr):
        if v not in adjacent:
            out.write(f"v {_token(v)}\n")
    for u, v, w in sorted(graph.edges(), key=lambda e: (repr(e[0]), repr(e[1]))):
        out.write(f"e {_token(u)} {_token(v)} {w:g}\n")
    return out.getvalue()


def dump_graph(graph: WeightedGraph, path: str | Path) -> None:
    """Write the graph to ``path``."""
    Path(path).write_text(dumps_graph(graph))


def loads_graph(text: str) -> WeightedGraph:
    """Parse the text format back into a graph.

    Raises ``ValueError`` naming the line of any record it cannot parse,
    including an edge whose weight is not a number or that
    :meth:`WeightedGraph.add_edge` refuses (a self-loop, or a weight
    that is not positive and finite).
    """
    g = WeightedGraph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "v" and len(parts) == 2:
            g.add_vertex(_parse_vertex(parts[1]))
        elif parts[0] == "e" and len(parts) == 4:
            try:
                g.add_edge(
                    _parse_vertex(parts[1]), _parse_vertex(parts[2]),
                    float(parts[3]),
                )
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from exc
        else:
            raise ValueError(f"line {lineno}: cannot parse {raw!r}")
    return g


def load_graph(path: str | Path) -> WeightedGraph:
    """Read a graph from ``path``."""
    return loads_graph(Path(path).read_text())


def graph_fingerprint(graph: WeightedGraph) -> str:
    """A short stable content hash of a graph (16 hex chars).

    SHA-256 over the canonical text serialization, so it is independent of
    insertion order, process, platform, and ``PYTHONHASHSEED``.  Replay
    headers embed it to detect generator drift: a trace recorded against
    one graph refuses to replay against a structurally different rebuild.
    """
    return hashlib.sha256(dumps_graph(graph).encode()).hexdigest()[:16]
