"""Transitivity profiles, edge-orbit structure, stabilizers, and
consistent cycles.

Everything is computed from the full materialized automorphism group and
the pointwise stabilizers of its vertex tuples; s-arc-transitivity is
decided by the size of the orbit of a single s-arc, |G| over the order of
its stabilizer, and s-regularity at the maximal s by |G| equal to the
number of s-arcs.  The s iteration is capped at 7: the graphs at
desk scale satisfy s <= 5, and cycles (transitive on s-arcs for every s)
should not loop forever.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .autgrp import automorphism_group, extend_partial_map
from .graph import (CycleSeq, Graph, cycles_of_length, edge_components, girth,
                    s_arc_count, s_arcs)
from .perm import Action, Images, PermutationGroup, orbits, stabilizer

MAX_S = 7


def _require_connected(graph: Graph) -> None:
    if not graph.is_connected():
        raise ValueError("operation requires a connected graph")


@dataclass(frozen=True)
class TransitivityProfile:
    vertex_transitive: bool
    edge_transitive: bool
    arc_transitive: bool
    max_s: int  # largest s with s-arc-transitivity (0 if none), capped at MAX_S
    s_regular_at_max: bool
    edge_orbit_count: int


def _s_arc_transitive(group: PermutationGroup, graph: Graph, s: int) -> bool:
    total = s_arc_count(graph, s)
    if total == 0:
        return False
    first = next(iter(s_arcs(graph, s)))
    # |orbit| = |G| / |G_first|, whatever generators G carries
    return group.order == total * stabilizer(group, first).order


def transitivity_profile(graph: Graph) -> TransitivityProfile:
    """Transitivity flags of the full automorphism group action."""
    _require_connected(graph)
    group = automorphism_group(graph)
    vt = len(orbits(group, Action.VERTICES, graph)) <= 1
    edge_orbs = orbits(group, Action.EDGES, graph)
    et = len(edge_orbs) <= 1
    max_s = 0
    if graph.m > 0:
        s = 1
        while s <= MAX_S and _s_arc_transitive(group, graph, s):
            max_s = s
            s += 1
    # transitive on max_s-arcs: an arc's stabilizer is trivial exactly
    # when |G| equals the number of arcs
    return TransitivityProfile(
        vertex_transitive=vt,
        edge_transitive=et,
        arc_transitive=max_s >= 1,
        max_s=max_s,
        s_regular_at_max=max_s >= 1 and group.order == s_arc_count(graph, max_s),
        edge_orbit_count=len(edge_orbs),
    )


@dataclass(frozen=True)
class EdgeOrbitTag:
    kind: str  # "perfect-matching" | "disjoint-cycles" | "other"
    profile: Tuple[int, ...] = ()  # cycle lengths, or degree profile for "other"


@dataclass(frozen=True)
class EdgeOrbitSummary:
    orbits: Tuple[Tuple[Tuple[int, int], ...], ...]
    tags: Tuple[EdgeOrbitTag, ...]
    findings: Tuple[str, ...]  # structural expectations that failed, if any

    def orbit_with_tag(self, kind: str) -> Optional[Tuple[Tuple[int, int], ...]]:
        for orb, tag in zip(self.orbits, self.tags):
            if tag.kind == kind:
                return orb
        return None


def _tag_orbit(graph: Graph, orbit: Sequence[Tuple[int, int]]) -> EdgeOrbitTag:
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


def edge_orbit_summary(graph: Graph) -> EdgeOrbitSummary:
    """Edge orbits with structure tags.

    For a cubic vertex-transitive graph with exactly two orbits, exactly
    one orbit must be a perfect matching and the other disjoint cycles;
    a violation is reported as a finding, not raised.
    """
    _require_connected(graph)
    group = automorphism_group(graph)
    orbs = orbits(group, Action.EDGES, graph)
    tags = tuple(_tag_orbit(graph, orb) for orb in orbs)
    findings: List[str] = []
    if graph.is_cubic() and len(orbs) == 2:
        vt = len(orbits(group, Action.VERTICES, graph)) <= 1
        if vt:
            kinds = sorted(t.kind for t in tags)
            if kinds != ["disjoint-cycles", "perfect-matching"]:
                findings.append(
                    "cubic vertex-transitive graph with two edge orbits did not "
                    f"split into matching + cycles (tags: {kinds})"
                )
    return EdgeOrbitSummary(orbs, tags, tuple(findings))


@dataclass(frozen=True)
class StabilizerClass:
    vertex_stabilizer_order: int
    kind: str  # "not-vertex-transitive" | "grr" | "rigid" | "arc-regular" | "flexible"


def stabilizer_class(graph: Graph) -> StabilizerClass:
    """Vertex-stabilizer order with the order-based class tag.

    The tag follows the stabilizer order alone (1 -> grr, 2 -> rigid,
    3 -> arc-regular, >= 4 -> flexible); the edge-orbit count that
    usually accompanies the trichotomy is reported separately by
    :func:`transitivity_profile`.  In a connected cubic vertex-transitive
    graph order 3 means the graph is 1-arc-regular (|G_v| = 3 * 2^(s-1)
    with s = 1); F26A is the smallest such graph.
    For a graph that is not vertex-transitive the order recorded is that
    of vertex 0.
    """
    _require_connected(graph)
    group = automorphism_group(graph)
    order0 = stabilizer(group, [0]).order
    vt = len(orbits(group, Action.VERTICES, graph)) <= 1
    if not vt:
        return StabilizerClass(order0, "not-vertex-transitive")
    if order0 == 1:
        return StabilizerClass(order0, "grr")
    if order0 == 2:
        return StabilizerClass(order0, "rigid")
    if order0 == 3:
        return StabilizerClass(order0, "arc-regular")
    return StabilizerClass(order0, "flexible")


def local_action_order(graph: Graph, v: int) -> int:
    """Order of the group induced by the vertex stabilizer on N(v)."""
    _require_connected(graph)
    stab = stabilizer(automorphism_group(graph), [v])
    return stab.order // stabilizer(stab, graph.adj[v]).order


def consistent_cycles(
    graph: Graph, length: int
) -> Tuple[Tuple[CycleSeq, Images], ...]:
    """All length-L cycles admitting a one-step rotation, with witnesses.

    Each returned witness is an automorphism's image tuple g with
    g[v_i] = v_{i+1 mod L} on the stored canonical sequence.  Only one
    orientation needs testing: a rotation of the reversed traversal is
    the inverse of a forward rotation, so a cycle is consistent one way
    iff it is the other.
    """
    _require_connected(graph)
    out = []
    for cyc in cycles_of_length(graph, length):
        vs = cyc.vertices
        partial = {vs[i]: vs[(i + 1) % len(vs)] for i in range(len(vs))}
        witness = extend_partial_map(graph, partial)
        if witness is not None:
            out.append((cyc, witness))
    return tuple(out)


def consistent_girth_cycles(
    graph: Graph,
) -> Tuple[Tuple[CycleSeq, Images], ...]:
    length = girth(graph)
    return () if length is None else consistent_cycles(graph, length)


def local_fixity_check(graph: Graph, edge: Tuple[int, int]) -> bool:
    """True iff only the identity fixes u, v, and all their neighbors."""
    _require_connected(graph)
    u, w = edge
    if not graph.has_edge(u, w):
        raise ValueError(f"({u}, {w}) is not an edge")
    fixed = {u, w} | set(graph.adj[u]) | set(graph.adj[w])
    return stabilizer(automorphism_group(graph), sorted(fixed)).order == 1
