"""Generalized truncation of regular graphs and its inverse cycle quotient.

Truncation replaces every vertex of a k-regular graph by a copy of a
k-vertex graph Y; the copies are wired across the original edges by a
vertex-neighborhood labeling, given as ``orders``: ``orders[u]`` lists
u's neighbors, and the i-th of them gets label i.  ``graph.adj`` is the
labeling by ascending neighbor, a catalog entry's ``rotation`` the one
by its embedding, and ``seeded_orders`` a reproducible random one.
Contracting the cycles of a disjoint-cycles edge orbit undoes the
construction when the orbit matches the Y-copies.
"""

from __future__ import annotations

import random
from typing import Optional, Sequence, Tuple

from .graph import Graph, build_graph, edge_components

Orders = Sequence[Sequence[int]]


def seeded_orders(graph: Graph, seed: int) -> Tuple[Tuple[int, ...], ...]:
    """A reproducible pseudo-random neighbor order at every vertex."""
    rng = random.Random(seed)
    orders = []
    for row in graph.adj:
        # one shuffle of deg(u) slots per vertex, in vertex order: these
        # draws fix every seeded output, so they must not change
        slots = list(range(len(row)))
        rng.shuffle(slots)
        order = [0] * len(row)
        for w, slot in zip(row, slots):
            order[slot] = w
        orders.append(tuple(order))
    return tuple(orders)


def require_regular(host: Graph, k: int) -> None:
    """Raise ValueError unless the host can be truncated by a k-vertex Y."""
    if k == 0 or not host.is_regular(k):
        raise ValueError(f"host must be {k}-regular to truncate by a {k}-vertex graph")


def generalized_truncation(host: Graph, orders: Orders, y: Graph) -> Graph:
    """Truncation of a k-regular host by a k-vertex graph Y.

    Vertex u * k + i of the result stands for Y-vertex i in u's copy and
    ends the arc (u, orders[u][i]).  Edges are the Y-copies plus one
    cross edge per host edge, joining the ends of its two arcs.
    """
    k = y.n
    require_regular(host, k)
    if len(orders) != host.n or any(
        tuple(sorted(row)) != adj for row, adj in zip(orders, host.adj)
    ):
        raise ValueError("orders must list the neighbors of every host vertex")
    end = {(u, w): u * k + i for u, row in enumerate(orders) for i, w in enumerate(row)}
    edges = []
    for u in range(host.n):
        base = u * k
        for a, b in y.edges():
            edges.append((base + a, base + b))
    for u, w in host.edges():
        edges.append((end[(u, w)], end[(w, u)]))
    return build_graph(host.n * k, edges)


def classic_truncation(graph: Graph, orders: Optional[Orders] = None) -> Graph:
    """Truncation of a cubic graph by a triangle, by default along ``graph.adj``.

    Y complete makes the neighbor orders immaterial, so the result is
    labeling-independent up to isomorphism.
    """
    if not graph.is_cubic():
        raise ValueError("classic truncation needs a cubic graph")
    triangle = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    return generalized_truncation(graph, graph.adj if orders is None else orders, triangle)


class QuotientError(ValueError):
    """The contraction would leave a loop or a multi-edge."""


def cycle_quotient(graph: Graph, cycle_orbit) -> Graph:
    """Contract each cycle of a disjoint-cycles edge orbit to a vertex.

    ``cycle_orbit`` is an edge set whose spanning subgraph is a disjoint
    union of cycles covering every vertex.  Edges outside the orbit
    project to the quotient; a projected loop or repeated edge is an
    error, since the toolkit works with simple graphs only.
    """
    n = graph.n
    orbit = {tuple(sorted(e)) for e in cycle_orbit}
    deg = [0] * n
    for u, w in orbit:
        deg[u] += 1
        deg[w] += 1
    if any(d != 2 for d in deg):
        raise QuotientError("edge orbit does not induce disjoint cycles covering V")
    comp = edge_components(n, orbit)  # quotient vertex ids, smallest-vertex order
    new_edges = set()
    for u, w in graph.edges():
        if (u, w) in orbit:
            continue
        cu, cw = comp[u], comp[w]
        if cu == cw:
            raise QuotientError(f"edge ({u}, {w}) contracts to a loop")
        key = (min(cu, cw), max(cu, cw))
        if key in new_edges:
            raise QuotientError(f"contraction repeats quotient edge {key}")
        new_edges.add(key)
    return build_graph(max(comp, default=-1) + 1, sorted(new_edges))
