"""Undirected weighted graphs: the substrate of every protocol in the paper.

The paper's model (Section 1.2) is a static communication graph
``G = (V, E, w)`` where ``w(e)`` is simultaneously the *cost* of sending a
message over ``e`` and an upper bound on the *delay* a message may suffer
on ``e``.  This module provides the plain data structure; algorithms live
in sibling modules (:mod:`repro.graphs.mst`, :mod:`repro.graphs.paths`) and
in the protocol packages.

Vertices are arbitrary hashable objects (the test-suite and benchmarks use
integers).  Edges are undirected; both orientations report the same weight.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator

Vertex = Hashable
Edge = tuple[Vertex, Vertex]

__all__ = ["Vertex", "Edge", "WeightedGraph", "edge_key"]

_INF = float("inf")


def edge_key(u: Vertex, v: Vertex) -> Edge:
    """Return a canonical (order-independent) key for the undirected edge (u, v).

    Vertices of mixed non-comparable types are ordered by ``repr`` as a
    tiebreaker so that canonical keys stay deterministic.
    """
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)


class WeightedGraph:
    """An undirected graph with positive edge weights.

    Supports the operations every algorithm in the paper needs: adjacency
    queries, weight lookups, subgraph extraction, connectivity, and the
    aggregate weight ``w(G)`` (the paper's script-E when applied to the whole
    graph).

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v, weight)`` triples.
    vertices:
        Optional iterable of isolated vertices to add up front.
    """

    # Lazily attached by :func:`repro.graphs.cache.param_cache`; declared
    # here (untyped to avoid the import cycle) so the attachment
    # type-checks.
    _param_cache: object

    def __init__(
        self,
        edges: Iterable[tuple[Vertex, Vertex, float]] | None = None,
        vertices: Iterable[Vertex] | None = None,
    ) -> None:
        self._adj: dict[Vertex, dict[Vertex, float]] = {}
        # Mutation counter consumed by repro.graphs.cache.GraphParamCache;
        # bumped by every operation that can change a derived parameter.
        self._version = 0
        if vertices is not None:
            for v in vertices:
                self.add_vertex(v)
        if edges is not None:
            for u, v, w in edges:
                self.add_edge(u, v, w)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    def add_vertex(self, v: Vertex) -> None:
        """Add an isolated vertex (no-op if already present)."""
        if v not in self._adj:
            self._adj[v] = {}
            self._version += 1

    def add_edge(self, u: Vertex, v: Vertex, weight: float) -> None:
        """Add (or overwrite) the undirected edge (u, v) with the given weight.

        Weights must be strictly positive and finite: a zero-cost edge would
        break both the cost model and the delay model (``w(e)`` bounds the
        delay), and an infinite one has no cost to charge.
        """
        if u == v:
            raise ValueError(f"self-loop at {u!r} is not allowed")
        if not 0 < weight < _INF:  # also rejects NaN, which fails every comparison
            raise ValueError(
                f"edge weight must be positive and finite, got {weight!r}"
            )
        self._adj.setdefault(u, {})[v] = weight
        self._adj.setdefault(v, {})[u] = weight
        self._version += 1

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the undirected edge (u, v); raise KeyError if absent."""
        del self._adj[u][v]
        del self._adj[v][u]
        self._version += 1

    @property
    def version(self) -> int:
        """Monotone mutation counter (see :mod:`repro.graphs.cache`).

        Any change made through the public API (``add_vertex`` of a new
        vertex, ``add_edge`` — including weight overwrites — and
        ``remove_edge``) increments it; derived-parameter caches compare it
        to detect staleness.
        """
        return self._version

    def copy(self) -> WeightedGraph:
        """Return an independent deep copy of this graph."""
        g = WeightedGraph()
        for v, nbrs in self._adj.items():
            # Bulk-init of a fresh instance: nothing can hold a cache
            # entry for `g` before it is returned, so version 0 is sound.
            g._adj[v] = dict(nbrs)  # repro: allow RS004 -- fresh instance bulk-init
        return g

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def vertices(self) -> list[Vertex]:
        """All vertices, in insertion order."""
        return list(self._adj)

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def __contains__(self, v: Vertex) -> bool:
        return v in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Vertex, v: Vertex) -> float:
        """Weight of edge (u, v); raise KeyError if the edge is absent."""
        return self._adj[u][v]

    def neighbors(self, v: Vertex) -> list[Vertex]:
        """Neighbors of v, in insertion order."""
        return list(self._adj[v])

    def neighbor_weights(self, v: Vertex) -> dict[Vertex, float]:
        """Mapping ``neighbor -> w(v, neighbor)`` (a copy; safe to mutate)."""
        return dict(self._adj[v])

    def degree(self, v: Vertex) -> int:
        return len(self._adj[v])

    def edges(self) -> Iterator[tuple[Vertex, Vertex, float]]:
        """Iterate over each undirected edge exactly once as (u, v, w)."""
        seen: set[Edge] = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                key = edge_key(u, v)
                if key not in seen:
                    seen.add(key)
                    yield u, v, w

    def edge_list(self) -> list[tuple[Vertex, Vertex, float]]:
        """All undirected edges as a list of (u, v, w) triples."""
        return list(self.edges())

    def total_weight(self) -> float:
        """``w(G)`` — the sum of all edge weights (the paper's script-E)."""
        return sum(w for _, _, w in self.edges())

    def max_weight(self) -> float:
        """``W = max_e w(e)``; 0.0 on an edgeless graph."""
        return max((w for _, _, w in self.edges()), default=0.0)

    # ------------------------------------------------------------------ #
    # Structure
    # ------------------------------------------------------------------ #

    def induced_subgraph(self, vertices: Iterable[Vertex]) -> WeightedGraph:
        """``G(S)`` — the subgraph induced by the given vertex set."""
        keep = set(vertices)
        g = WeightedGraph(vertices=keep)
        for u, v, w in self.edges():
            if u in keep and v in keep:
                g.add_edge(u, v, w)
        return g

    def edge_subgraph(
        self, edges: Iterable[Edge], *, vertices: Iterable[Vertex] | None = None
    ) -> WeightedGraph:
        """Subgraph containing the given edges (weights copied from self).

        All endpoints are included; extra isolated vertices may be supplied
        via ``vertices`` (e.g. to keep the full vertex set of ``self``).
        """
        g = WeightedGraph(vertices=vertices)
        for u, v in edges:
            g.add_edge(u, v, self.weight(u, v))
        return g

    def connected_components(self) -> list[set[Vertex]]:
        """All connected components, as a list of vertex sets.

        Components are discovered from roots in vertex *insertion* order
        (never hash order), so the returned list order is deterministic
        for any vertex type regardless of ``PYTHONHASHSEED``.
        """
        remaining = set(self._adj)
        components: list[set[Vertex]] = []
        for root in self._adj:  # insertion order, not set hash order
            if root not in remaining:
                continue
            seen = {root}
            stack = [root]
            while stack:
                u = stack.pop()
                for v in self._adj[u]:
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
            components.append(seen)
            remaining -= seen
        return components

    def is_connected(self) -> bool:
        if not self._adj:
            return True
        return len(self.connected_components()) == 1

    def is_tree(self) -> bool:
        """True iff the graph is connected and acyclic (and non-empty)."""
        n = self.num_vertices
        return n > 0 and self.num_edges == n - 1 and self.is_connected()

    def __repr__(self) -> str:
        return (
            f"WeightedGraph(n={self.num_vertices}, m={self.num_edges}, "
            f"w={self.total_weight():g})"
        )
