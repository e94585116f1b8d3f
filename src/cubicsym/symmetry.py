"""One symmetry profile per graph, local action, consistent cycles and
local fixity.

Everything is computed from the full materialized automorphism group and
the pointwise stabilizers of its vertex tuples.  ``transitivity_profile``
reads the edge orbits with their structure tags, and the rest off one
chain of pointwise stabilizers G >= G_0 >= G_(0,v1) >= ..., each link
filtered from the survivors of the last.  G is vertex-transitive iff
|G| = n |G_0|, by orbit-stabilizer.  s-arc-transitivity is decided
locally (Tutte): G is s-arc-transitive iff it is (s-1)-arc-transitive
and the stabilizer of one (s-1)-arc A, the current link, is transitive
on A's extensions (the neighbours of its last vertex but the one before
it), since every s-arc extends an image of A.  A grows from the 0-arc
(0) while that holds; with no extension there is no s-arc at all.  On a
connected graph with n >= 2, arc-transitivity implies vertex-
transitivity, so the loop may require it first.  At the largest s, G is
s-regular iff the last link is trivial: |G| is then the number of
s-arcs.  The s iteration is capped at 7: the graphs at desk scale
satisfy s <= 5, and cycles (transitive on s-arcs for every s) should
not loop forever.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .autgrp import automorphism_group
from .graph import Graph, edge_components
from .perm import Action, Images, orbits, stabilizer

MAX_S = 7

Edge = Tuple[int, int]
Cycle = Tuple[int, ...]  # least of its rotations and reflections


def _require_connected(graph: Graph) -> None:
    if not graph.is_connected():
        raise ValueError("operation requires a connected graph")


@dataclass(frozen=True)
class EdgeOrbitTag:
    kind: str  # "perfect-matching" | "disjoint-cycles" | "other"
    profile: Tuple[int, ...] = ()  # cycle lengths, or degree profile for "other"


@dataclass(frozen=True)
class TransitivityProfile:
    """The automorphism group's action on vertices, edges and s-arcs: the
    vertex and s-arc fields read off one stabilizer chain (see above)."""

    vertex_transitive: bool
    max_s: int  # largest s with s-arc-transitivity (0 if none), capped at MAX_S
    s_regular_at_max: bool
    vertex_stabilizer_order: int  # |G_0|, the stabilizer of vertex 0
    edge_orbits: Tuple[Tuple[Edge, ...], ...]  # sorted by least edge
    edge_orbit_tags: Tuple[EdgeOrbitTag, ...]  # one per orbit
    findings: Tuple[str, ...]  # structural expectations that failed, if any

    @property
    def edge_orbit_count(self) -> int:
        return len(self.edge_orbits)

    @property
    def edge_transitive(self) -> bool:
        return len(self.edge_orbits) <= 1

    @property
    def arc_transitive(self) -> bool:
        return self.max_s >= 1

    @property
    def stabilizer_class(self) -> str:
        """Tag by the stabilizer order alone: 1 grr, 2 rigid, 3 arc-regular,
        >= 4 flexible.  In a connected cubic vertex-transitive graph order
        3 means 1-arc-regular (|G_v| = 3 * 2^(s-1) with s = 1), as in F26A;
        pair the tag with ``edge_orbit_count`` when the usual edge-orbit
        trichotomy is meant."""
        if not self.vertex_transitive:
            return "not-vertex-transitive"
        order = self.vertex_stabilizer_order
        return {1: "grr", 2: "rigid", 3: "arc-regular"}.get(order, "flexible")

    def orbit_with_tag(self, kind: str) -> Optional[Tuple[Edge, ...]]:
        for orb, tag in zip(self.edge_orbits, self.edge_orbit_tags):
            if tag.kind == kind:
                return orb
        return None


def _tag_orbit(graph: Graph, orbit: Sequence[Edge]) -> EdgeOrbitTag:
    deg = [0] * graph.n
    for u, w in orbit:
        deg[u] += 1
        deg[w] += 1
    nonzero = [d for d in deg if d]
    if nonzero and all(d == 1 for d in nonzero) and len(nonzero) == graph.n:
        return EdgeOrbitTag("perfect-matching")
    if nonzero and all(d == 2 for d in nonzero):
        # each component is a cycle: its length is its vertex count
        comp = edge_components(graph.n, orbit)
        lengths = Counter(c for c in comp if c >= 0).values()
        return EdgeOrbitTag("disjoint-cycles", tuple(sorted(lengths)))
    return EdgeOrbitTag("other", tuple(sorted(nonzero)))


def transitivity_profile(graph: Graph) -> TransitivityProfile:
    """The symmetry profile of a connected graph.

    For a cubic vertex-transitive graph with exactly two edge orbits,
    one orbit must be a perfect matching and the other disjoint cycles;
    a violation is reported in ``findings``, not raised.
    """
    _require_connected(graph)
    group = automorphism_group(graph)
    n = graph.n
    link = stabilizer(group, range(min(n, 1)))  # G_0; G if n = 0, trivial
    stab_order = link.order
    vt = n == 0 or group.order == n * stab_order
    edge_orbs = orbits(group.generators, Action.EDGES, graph)
    tags = tuple(_tag_orbit(graph, orb) for orb in edge_orbs)
    findings = ()
    kinds = sorted(t.kind for t in tags)
    if (vt and graph.is_cubic() and len(edge_orbs) == 2
            and kinds != ["disjoint-cycles", "perfect-matching"]):
        findings = ("cubic vertex-transitive graph with two edge orbits did "
                    f"not split into matching + cycles (tags: {kinds})",)
    max_s = 0
    back, last = -1, 0  # the fixed max_s-arc's last two vertices; -1: none
    while vt and n and max_s < MAX_S:
        ext = [w for w in graph.adj[last] if w != back]
        if not ext or {p[ext[0]] for p in link.elements} != set(ext):
            break
        back, last = last, ext[0]
        link = stabilizer(link, [last])
        max_s += 1
    return TransitivityProfile(
        vertex_transitive=vt,
        max_s=max_s,
        s_regular_at_max=max_s >= 1 and link.order == 1,
        vertex_stabilizer_order=stab_order,
        edge_orbits=edge_orbs,
        edge_orbit_tags=tags,
        findings=findings,
    )


def local_action_order(graph: Graph, v: int) -> int:
    """Order of the group induced by the vertex stabilizer on N(v)."""
    _require_connected(graph)
    stab = stabilizer(automorphism_group(graph), [v])
    return stab.order // stabilizer(stab, graph.adj[v]).order


def consistent_cycles(
    graph: Graph, length: int
) -> Tuple[Tuple[Cycle, Images], ...]:
    """All length-L cycles admitting a one-step rotation, with witnesses.

    Each returned witness is the least automorphism g (by image tuple)
    with g[v_i] = v_{i+1 mod L} on the canonical vertex sequence.  Such a
    g has the cycle as an orbit of L points, each adjacent to its image,
    and every such orbit of L >= 3 points is a cycle that g rotates.  So
    one pass over the sorted elements follows g from each x ~ g[x] while
    the points grow, and keeps the orbits that close at x, their least
    point, after L steps and that g turns forward (cyc[1] < cyc[-1]; its
    inverse turns them the other way).  The first element kept for a
    cycle is its witness.
    """
    _require_connected(graph)
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    adj_bits = graph.adj_bits
    found: dict[Cycle, Images] = {}
    for g in automorphism_group(graph).elements:
        for x, y in enumerate(g):
            if y < x or not adj_bits[x] >> y & 1:
                continue
            cyc = [x]
            while y > x and len(cyc) <= length:
                cyc.append(y)
                y = g[y]
            if y == x and len(cyc) == length and cyc[1] < cyc[-1]:
                found.setdefault(tuple(cyc), g)
    return tuple(sorted(found.items()))


def local_fixity_check(graph: Graph, edge: Edge) -> bool:
    """True iff only the identity fixes u, v, and all their neighbors."""
    _require_connected(graph)
    u, w = edge
    if not graph.has_edge(u, w):
        raise ValueError(f"({u}, {w}) is not an edge")
    fixed = {u, w} | set(graph.adj[u]) | set(graph.adj[w])
    return stabilizer(automorphism_group(graph), sorted(fixed)).order == 1
