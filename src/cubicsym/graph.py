"""Immutable simple-graph data model with girth, cycle, and s-arc machinery.

Graphs are stored as sorted adjacency tuples plus per-vertex neighbor
bitmasks; the bitmasks make popcount-style set intersections cheap in the
refinement and search loops that sit on top of this module.  Everything
here is pure and deterministic, and graphs are safe to share between
workers once built.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple


class GraphConstructionError(ValueError):
    """Raised when an edge list violates the simple-graph invariants."""


class Graph:
    """Finite simple undirected graph on vertices 0..n-1.

    ``adj[v]`` is the strictly ascending tuple of neighbors of ``v`` and
    ``adj_bits[v]`` the same set as an integer bitmask.  Instances are
    immutable after construction.
    """

    __slots__ = ("n", "adj", "adj_bits", "_edges")

    def __init__(self, n: int, adj: Sequence[Sequence[int]]):
        self.n = n
        self.adj = tuple(tuple(row) for row in adj)
        self.adj_bits = tuple(sum(1 << w for w in row) for row in self.adj)
        self._edges: Optional[Tuple[Tuple[int, int], ...]] = None

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        if self._edges is None:
            self._edges = tuple(
                (u, w) for u in range(self.n) for w in self.adj[u] if u < w
            )
        return self._edges

    def has_edge(self, u: int, w: int) -> bool:
        return (self.adj_bits[u] >> w) & 1 == 1

    def is_regular(self, k: int) -> bool:
        return all(len(row) == k for row in self.adj)

    def is_cubic(self) -> bool:
        return self.is_regular(3)

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = 1
        stack = [0]
        count = 1
        while stack:
            v = stack.pop()
            for w in self.adj[v]:
                if not (seen >> w) & 1:
                    seen |= 1 << w
                    count += 1
                    stack.append(w)
        return count == self.n

    def relabel(self, images: Sequence[int]) -> "Graph":
        """Graph with vertex v renamed to images[v]."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u in range(self.n):
            iu = images[u]
            adj[iu] = sorted(images[w] for w in self.adj[u])
        return Graph(self.n, adj)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[Tuple[int, int]]) -> Graph:
    """Build a Graph from an unordered pair list, rejecting bad input.

    Loops, out-of-range endpoints, and duplicate pairs each raise
    :class:`GraphConstructionError` naming the offending pair.
    """
    if n < 0:
        raise GraphConstructionError(f"vertex count must be non-negative, got {n}")
    adj: list[set[int]] = [set() for _ in range(n)]
    for pair in edges:
        u, w = pair
        if u == w:
            raise GraphConstructionError(f"loop edge ({u}, {w})")
        if not (0 <= u < n and 0 <= w < n):
            raise GraphConstructionError(f"endpoint out of range in ({u}, {w})")
        if w in adj[u]:
            raise GraphConstructionError(f"duplicate edge ({u}, {w})")
        adj[u].add(w)
        adj[w].add(u)
    return Graph(n, [sorted(s) for s in adj])


def _canonical_cycle(vertices: Sequence[int]) -> Tuple[int, ...]:
    """Lexicographically least sequence among all rotations and reflections."""
    vs = tuple(vertices)
    g = len(vs)
    best: Optional[Tuple[int, ...]] = None
    for seq in (vs, vs[::-1]):
        for r in range(g):
            cand = seq[r:] + seq[:r]
            if best is None or cand < best:
                best = cand
    assert best is not None
    return best


@dataclass(frozen=True)
class CycleSeq:
    """A cycle v0..v_{g-1}, stored as its canonical representative.

    The representative is the lexicographically smallest of the 2g
    rotations/reflections, so equal cycles compare equal regardless of
    the traversal they were discovered with.
    """

    vertices: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.vertices)

    @staticmethod
    def from_vertices(graph: Graph, vertices: Sequence[int]) -> "CycleSeq":
        vs = tuple(vertices)
        g = len(vs)
        if g < 3:
            raise ValueError("a cycle needs length >= 3")
        if len(set(vs)) != g:
            raise ValueError("cycle vertices must be distinct")
        for i in range(g):
            if not graph.has_edge(vs[i], vs[(i + 1) % g]):
                raise ValueError(f"non-adjacent step {vs[i]}-{vs[(i+1)%g]}")
        return CycleSeq(_canonical_cycle(vs))

    def edges(self) -> Tuple[Tuple[int, int], ...]:
        g = len(self.vertices)
        out = []
        for i in range(g):
            u, w = self.vertices[i], self.vertices[(i + 1) % g]
            out.append((u, w) if u < w else (w, u))
        return tuple(out)


@dataclass(frozen=True)
class GirthResult:
    """Shortest cycle length with a witness, or the acyclic sentinel.

    ``length is None`` exactly when the graph is a forest; no magic
    numbers stand in for "no cycle".
    """

    length: Optional[int]
    witness: Optional[CycleSeq]

    @property
    def acyclic(self) -> bool:
        return self.length is None


def _bfs_distances(graph: Graph, root: int) -> list[int]:
    dist = [-1] * graph.n
    dist[root] = 0
    q = deque([root])
    while q:
        v = q.popleft()
        dv = dist[v]
        for w in graph.adj[v]:
            if dist[w] < 0:
                dist[w] = dv + 1
                q.append(w)
    return dist


def girth(graph: Graph) -> GirthResult:
    """Girth via one BFS per root, with a reconstructed witness cycle.

    From each root the first non-tree edge (u, w) gives the candidate
    length dist(u) + dist(w) + 1; the global minimum over roots is the
    girth, and at the minimum the two tree paths are internally disjoint,
    so the witness is a genuine simple cycle.
    """
    n = graph.n
    best = -1
    best_data: Optional[Tuple[int, int, int, list[int]]] = None  # root, u, w, parent
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        q = deque([root])
        while q:
            v = q.popleft()
            dv = dist[v]
            if best > 0 and 2 * dv + 1 > best:
                break
            for w in graph.adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    parent[w] = v
                    q.append(w)
                elif w != parent[v]:
                    cand = dv + dist[w] + 1
                    if best < 0 or cand < best:
                        best = cand
                        best_data = (root, v, w, list(parent))
    if best_data is None:
        return GirthResult(None, None)
    root, u, w, parent = best_data
    path_u = [u]
    while path_u[-1] != root:
        path_u.append(parent[path_u[-1]])
    path_w = [w]
    while path_w[-1] != root:
        path_w.append(parent[path_w[-1]])
    # root..u followed by w..back toward root, omitting the repeated root
    cycle = path_u[::-1] + path_w[:-1]
    assert len(cycle) == best and len(set(cycle)) == best
    return GirthResult(best, CycleSeq.from_vertices(graph, cycle))


def cycles_of_length(graph: Graph, length: int) -> Tuple[CycleSeq, ...]:
    """All distinct cycles of exactly the given length, canonical form.

    Rooted DFS from each vertex, restricted to larger-indexed vertices so
    each cycle is found from its minimum vertex only; a direction check
    removes the reflected duplicate, and BFS distances to the root prune
    branches that cannot close in time.
    """
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    n = graph.n
    found: list[CycleSeq] = []
    adj = graph.adj
    for root in range(n):
        dist = _bfs_distances(graph, root)
        path = [root]
        on_path = 1 << root

        def extend() -> None:
            nonlocal on_path
            v = path[-1]
            remaining = length - len(path)
            if remaining == 0:
                if graph.has_edge(v, root) and path[1] < path[-1]:
                    found.append(CycleSeq.from_vertices(graph, path))
                return
            for w in adj[v]:
                if w <= root or (on_path >> w) & 1:
                    continue
                if dist[w] < 0 or dist[w] > remaining:
                    continue
                path.append(w)
                on_path |= 1 << w
                extend()
                path.pop()
                on_path &= ~(1 << w)

        extend()
    return tuple(sorted(found, key=lambda c: c.vertices))


def s_arcs(graph: Graph, s: int) -> Iterator[Tuple[int, ...]]:
    """Iterate all s-arcs as vertex tuples, in lexicographic order."""
    if s < 1:
        raise ValueError("s must be >= 1")
    adj = graph.adj

    def extend(prefix: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if len(prefix) == s + 1:
            yield prefix
            return
        v = prefix[-1]
        back = prefix[-2] if len(prefix) >= 2 else -1
        for w in adj[v]:
            if w != back:
                yield from extend(prefix + (w,))

    for u in range(graph.n):
        for w in adj[u]:
            yield from extend((u, w))


def s_arc_count(graph: Graph, s: int) -> int:
    """Number of s-arcs; equals n * 3 * 2^(s-1) for connected cubic graphs."""
    if s < 1:
        raise ValueError("s must be >= 1")
    # dynamic count over directed edges avoids materializing the arcs
    adj = graph.adj
    counts = {}
    for u in range(graph.n):
        for w in adj[u]:
            counts[(u, w)] = 1
    for _ in range(s - 1):
        nxt = {}
        for (u, w), c in counts.items():
            for x in adj[w]:
                if x != u:
                    nxt[(w, x)] = nxt.get((w, x), 0) + c
        counts = nxt
    return sum(counts.values())


def edge_components(n: int, edges: Iterable[Tuple[int, int]]) -> list[int]:
    """Component index of each vertex in the subgraph spanned by ``edges``,
    numbered in order of least vertex; -1 where no edge touches the vertex."""
    incident: list[list[int]] = [[] for _ in range(n)]
    for u, w in edges:
        incident[u].append(w)
        incident[w].append(u)
    comp = [-1] * n
    count = 0
    for v in range(n):
        if comp[v] >= 0 or not incident[v]:
            continue
        comp[v] = count
        stack = [v]
        while stack:
            for y in incident[stack.pop()]:
                if comp[y] < 0:
                    comp[y] = count
                    stack.append(y)
        count += 1
    return comp


def every_edge_in_cycle(graph: Graph, length: int) -> bool:
    """True iff every edge lies on at least one cycle of the given length."""
    if graph.m == 0:
        return True
    covered = set()
    for cyc in cycles_of_length(graph, length):
        covered.update(cyc.edges())
    return len(covered) == graph.m


def every_3_arc_in_cycle(graph: Graph, length: int) -> bool:
    """True iff every 3-arc lies on at least one cycle of the given length."""
    covered = set()
    for cyc in cycles_of_length(graph, length):
        vs = cyc.vertices
        g = len(vs)
        doubled = vs + vs
        for i in range(g):
            run = doubled[i : i + 4]
            covered.add(run)
            covered.add(run[::-1])
    for arc in s_arcs(graph, 3):
        if arc not in covered:
            return False
    return True


def bridges(graph: Graph) -> set[Tuple[int, int]]:
    """All bridge edges, as sorted pairs (iterative lowpoint DFS)."""
    n = graph.n
    disc = [-1] * n
    low = [0] * n
    out: set[Tuple[int, int]] = set()
    timer = 0
    for start in range(n):
        if disc[start] >= 0:
            continue
        stack: list[Tuple[int, int, int]] = [(start, -1, 0)]
        while stack:
            v, parent, idx = stack.pop()
            if idx == 0:
                disc[v] = low[v] = timer
                timer += 1
            if idx < len(graph.adj[v]):
                stack.append((v, parent, idx + 1))
                w = graph.adj[v][idx]
                if w == parent:
                    continue  # simple graph: the tree edge occurs exactly once
                if disc[w] >= 0:
                    low[v] = min(low[v], disc[w])
                else:
                    stack.append((w, v, 0))
            else:
                if parent >= 0:
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        out.add((min(v, parent), max(v, parent)))
    return out
