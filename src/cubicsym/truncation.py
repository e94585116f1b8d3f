"""Generalized truncation of regular graphs and its inverse cycle quotient.

Truncation replaces every vertex of a k-regular graph by a copy of a
k-vertex graph Y; the copies are wired across the original edges by a
vertex-neighborhood labeling (a bijection from each vertex's outgoing
arcs onto {1..k}).  Contracting the cycles of a disjoint-cycles edge
orbit undoes the construction when the orbit matches the Y-copies.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .graph import Graph, build_graph, edge_components
from .catalog import RotationSystem


@dataclass(frozen=True)
class ArcLabeling:
    """Labels in {1..deg(u)} for each arc (u, w), bijective per vertex."""

    host: Graph
    labels: Dict[Tuple[int, int], int]

    def validate(self) -> None:
        for u in range(self.host.n):
            got = sorted(self.labels[(u, w)] for w in self.host.adj[u])
            if got != list(range(1, self.host.degree(u) + 1)):
                raise ValueError(f"labels at vertex {u} are not a bijection")


@dataclass(frozen=True)
class LabelingStrategy:
    kind: str  # "adjacency" | "rotation" | "seeded"
    rotation: Optional[RotationSystem] = None
    seed: Optional[int] = None

    ADJACENCY: "LabelingStrategy" = None  # type: ignore[assignment]

    @staticmethod
    def from_rotation(rotation: RotationSystem) -> "LabelingStrategy":
        return LabelingStrategy("rotation", rotation=rotation)

    @staticmethod
    def seeded(seed: int) -> "LabelingStrategy":
        return LabelingStrategy("seeded", seed=seed)


LabelingStrategy.ADJACENCY = LabelingStrategy("adjacency")


def neighborhood_labeling(graph: Graph, strategy: LabelingStrategy) -> ArcLabeling:
    """Build a vertex-neighborhood labeling under the chosen strategy.

    * adjacency: arcs labeled 1..k by ascending neighbor index.
    * rotation: labeled by position in the stored cyclic order.
    * seeded: reproducible pseudo-random bijection per vertex.
    """
    labels: Dict[Tuple[int, int], int] = {}
    if strategy.kind == "adjacency":
        for u in range(graph.n):
            for i, w in enumerate(graph.adj[u], start=1):
                labels[(u, w)] = i
    elif strategy.kind == "rotation":
        rot = strategy.rotation
        if rot is None:
            raise ValueError("rotation strategy needs a rotation system")
        rot.validate(graph)
        for u in range(graph.n):
            for i, w in enumerate(rot.orders[u], start=1):
                labels[(u, w)] = i
    elif strategy.kind == "seeded":
        rng = random.Random(strategy.seed)
        for u in range(graph.n):
            perm = list(range(1, graph.degree(u) + 1))
            rng.shuffle(perm)
            for i, w in enumerate(graph.adj[u]):
                labels[(u, w)] = perm[i]
    else:
        raise ValueError(f"unknown labeling strategy {strategy.kind!r}")
    out = ArcLabeling(graph, labels)
    out.validate()
    return out


def generalized_truncation(host: Graph, labeling: ArcLabeling, y: Graph) -> Graph:
    """Truncation of a k-regular host by a k-vertex graph Y.

    Vertex (u, i) of the result is u * k + i for i in 0..k-1, standing for
    the Y-vertex with label i+1 in u's copy.  Edges are the Y-copies plus
    one cross edge per host edge, matched up by the arc labels.
    """
    if labeling.host != host:
        raise ValueError("labeling was built for a different host graph")
    k = y.n
    if k == 0 or not host.is_regular(k):
        raise ValueError(f"host must be {k}-regular to truncate by a {k}-vertex graph")
    edges = []
    for u in range(host.n):
        base = u * k
        for a, b in y.edges():
            edges.append((base + a, base + b))
    for u, w in host.edges():
        iu = labeling.labels[(u, w)] - 1
        iw = labeling.labels[(w, u)] - 1
        edges.append((u * k + iu, w * k + iw))
    return build_graph(host.n * k, edges)


def classic_truncation(graph: Graph, labeling: Optional[ArcLabeling] = None) -> Graph:
    """Truncation of a cubic graph by a triangle.

    Y complete makes the per-vertex bijection immaterial, so the result
    is labeling-independent up to isomorphism.
    """
    if not graph.is_cubic():
        raise ValueError("classic truncation needs a cubic graph")
    if labeling is None:
        labeling = neighborhood_labeling(graph, LabelingStrategy.ADJACENCY)
    triangle = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    return generalized_truncation(graph, labeling, triangle)


class QuotientError(ValueError):
    """The contraction would leave a loop or a multi-edge."""


def cycle_quotient(graph: Graph, cycle_orbit) -> Graph:
    """Contract each cycle of a disjoint-cycles edge orbit to a vertex.

    ``cycle_orbit`` is an edge set whose spanning subgraph is a disjoint
    union of cycles covering every vertex, or an edge-orbit summary from
    which the covering disjoint-cycles orbit is taken.  Edges outside the
    orbit project to the quotient; a projected loop or repeated edge is
    an error, since the toolkit works with simple graphs only.
    """
    n = graph.n
    if hasattr(cycle_orbit, "orbits") and hasattr(cycle_orbit, "tags"):
        chosen = None
        for orb, tag in zip(cycle_orbit.orbits, cycle_orbit.tags):
            if tag.kind != "disjoint-cycles":
                continue
            touched = {v for e in orb for v in e}
            if len(touched) == n:
                chosen = orb
                break
        if chosen is None:
            raise QuotientError(
                "summary has no disjoint-cycles orbit covering every vertex"
            )
        cycle_orbit = chosen
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
