"""Immutable simple-graph data model with girth, cycle, and s-arc machinery.

Graphs are stored as sorted adjacency tuples plus per-vertex neighbor
bitmasks; the bitmasks make popcount-style set intersections cheap in the
refinement and search loops above this module, in ``balls``, the one
distance kernel, and in ``reach``, the one reachability kernel.
Everything here is pure and deterministic, and graphs are safe to share
between workers once built.
"""

from __future__ import annotations

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

    @classmethod
    def _from_rows(cls, adj: Tuple[Tuple[int, ...], ...],
                   adj_bits: Tuple[int, ...]) -> "Graph":
        """Graph with the ascending neighbour tuples ``adj`` and the same
        sets as the bitmasks ``adj_bits``, both kept as given and unchecked,
        for builders that have the two already."""
        graph = cls.__new__(cls)
        graph.n = len(adj_bits)
        graph.adj = adj
        graph.adj_bits = adj_bits
        graph._edges = None
        return graph

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
        return self.n == 0 or reach(self.adj_bits, 0).bit_count() == self.n

    def relabel(self, images: Sequence[int]) -> "Graph":
        """Graph with vertex v renamed to images[v]."""
        rows: list[list[int]] = [[]] * self.n
        for u, row in enumerate(self.adj):
            rows[images[u]] = sorted([images[w] for w in row])
        return Graph(self.n, rows)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def _set_bits(mask: int) -> Tuple[int, ...]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


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


def reach(bits: Sequence[int], root: int) -> int:
    """The vertices reachable from ``root`` as a bitmask, over the neighbour
    bitmasks ``bits``: grown one layer at a time, each new layer the union
    of its predecessor's neighbourhoods less what was reached before."""
    seen = layer = 1 << root
    while layer:
        grown = 0
        while layer:
            low = layer & -layer
            grown |= bits[low.bit_length() - 1]
            layer ^= low
        layer = grown & ~seen
        seen |= layer
    return seen


def is_bridge(bits: Sequence[int], u: int, v: int) -> bool:
    """Whether the edge uv of the graph with neighbour bitmasks ``bits`` is
    a bridge: v is out of u's reach once uv is cut."""
    cut = list(bits)
    cut[u] ^= 1 << v
    cut[v] ^= 1 << u
    return not reach(cut, u) >> v & 1


def balls(graph: Graph) -> Iterator[list[int]]:
    """Every vertex's radius-r ball as a bitmask, for r = 0, 1, 2, ...

    ``B_r[v] = B_{r-1}[v] | OR of B_{r-1}[u] over u in adj[v]``: 2m
    big-int ORs move all roots one step at once, and B_1 is read off the
    neighbour bitmasks.  The last list yielded is the first radius at
    which no ball grew, so each ball is then its vertex's component;
    every graph yields at least two lists.
    """
    adj = graph.adj
    ball = [1 << v for v in range(graph.n)]
    grown = [bits | 1 << v for v, bits in enumerate(graph.adj_bits)]
    yield ball
    while True:
        yield grown
        if grown == ball:
            return
        ball = grown
        grown = []
        for b, row in zip(ball, adj):
            for u in row:
                b |= ball[u]
            grown.append(b)


def girth(graph: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for a forest, read off ball growth.

    Let L_j(v) be the vertices at distance exactly j from v, and let its
    stubs be the sum of deg(u) - 1 over u in L_j(v) (deg(v) for j = 0).
    Always |L_{j+1}(v)| <= stubs, with equality exactly when every u in
    L_j(v) has one neighbour in L_{j-1}(v), no edge lies inside L_j(v),
    and every vertex of L_{j+1}(v) has one neighbour in L_j(v).  Each of
    those failures closes a cycle of length at most 2j + 2, so a
    shortfall at layer j + 1 forces girth <= 2j + 2.  Conversely, a
    shortest cycle of length 2j + 1 or 2j + 2 is isometric, so from any of
    its vertices the two cycle arcs meet in L_j (an edge inside it) or at
    one vertex of L_{j+1} (two neighbours in L_j): a shortfall at layer
    j + 1.  The first j with a shortfall at some vertex therefore gives
    girth 2j + 1 or 2j + 2.  It is 2j + 1 iff some vertex w has an edge
    inside L_j(w): that edge and the two paths from w close a walk of
    length 2j + 1, which holds an odd cycle, and a shortest odd cycle has
    such an edge at each of its vertices.  Such a w has a shortfall
    itself, so only those vertices are searched.

    Summed over layers 0..j, no layer up to j + 1 falls short at v iff
    |B_{j+1}(v)| = 2 + the sum of deg(u) - 1 over the ball B_j(v), which
    is one popcount per ball and degree class.  A vertex of degree below
    the maximum ``top`` is counted through the mask of its deficit
    top - deg, so irregular and disconnected graphs work too.
    """
    return girth_and_histograms(graph)[0]


def girth_and_histograms(graph: Graph) -> Tuple[Optional[int], bool]:
    """``girth(graph)``, and whether every vertex has the same BFS distance
    histogram, unreached vertices included: equal ball sizes at every
    radius.  One pass over ``balls`` reads both, each ball's size counted
    once, and stops at the radius where both are known: the girth's, or
    the first where two sizes differ, whichever is later."""
    degrees = list(map(len, graph.adj))
    top = max(degrees, default=0)
    deficits: dict[int, int] = {}
    for v, d in enumerate(degrees):
        if d != top:
            deficits[top - d] = deficits.get(top - d, 0) | 1 << v
    grown = balls(graph)
    inner = next(grown)  # B_{j-1}; every B_0 has size 1
    ball = next(grown)  # B_j; no shortfall is possible at j = 0
    sizes = list(map(int.bit_count, ball))
    agree = len(set(sizes)) <= 1
    length: Optional[int] = None
    for j, outer in enumerate(grown, start=1):  # B_{j+1}
        outer_sizes = list(map(int.bit_count, outer))
        if length is None:
            tree = [(top - 1) * size + 2 for size in sizes]
            for deficit, mask in deficits.items():
                tree = [t - deficit * (b & mask).bit_count()
                        for t, b in zip(tree, ball)]
            short = [b & ~b_in for b_in, b, size, t
                     in zip(inner, ball, outer_sizes, tree) if size < t]
            if short:  # L_j(w) of each w that falls short
                odd = any(_has_inner_edge(graph.adj_bits, layer)
                          for layer in short)
                length = 2 * j + 2 - odd
        agree = agree and len(set(outer_sizes)) <= 1
        if length is not None and not agree:
            break
        inner, ball, sizes = ball, outer, outer_sizes
    return length, agree


def _has_inner_edge(adj_bits: Sequence[int], layer: int) -> bool:
    """Whether an edge joins two vertices of the bitmask ``layer``."""
    rest = layer
    while rest:
        low = rest & -rest
        if adj_bits[low.bit_length() - 1] & layer:
            return True
        rest ^= low
    return False


def cycles_of_length(
    graph: Graph, length: int
) -> Tuple[Tuple[int, ...], ...]:
    """All distinct cycles of exactly the given length, sorted, each as its
    canonical vertex sequence: the least of its rotations and reflections.

    Rooted DFS from each vertex, restricted to larger-indexed vertices so
    each cycle is found from its minimum vertex only, which leads the
    canonical sequence; keeping the direction with path[1] < path[-1]
    picks the lesser reflection.  A step to w with r edges left needs w
    in the root's radius-r ball (past the last radius, its component).
    """
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    found: list[Tuple[int, ...]] = []
    adj = graph.adj
    layers = list(balls(graph))
    last = len(layers) - 1
    for root in range(graph.n):
        within = [layers[min(r, last)][root] & -2 << root for r in range(length)]
        path = [root]
        on_path = 1 << root

        def extend() -> None:
            nonlocal on_path
            v = path[-1]
            remaining = length - len(path)
            if remaining == 0:
                if graph.has_edge(v, root) and path[1] < path[-1]:
                    found.append(tuple(path))
                return
            allowed = within[remaining] & ~on_path
            for w in adj[v]:
                if (allowed >> w) & 1:
                    path.append(w)
                    on_path |= 1 << w
                    extend()
                    path.pop()
                    on_path &= ~(1 << w)

        extend()
    return tuple(sorted(found))


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


def edge_components(n: int, edges: Iterable[Tuple[int, int]]) -> list[int]:
    """Component index of each vertex in the subgraph spanned by ``edges``,
    numbered in order of least vertex; -1 where no edge touches the vertex."""
    bits = [0] * n
    for u, w in edges:
        bits[u] |= 1 << w
        bits[w] |= 1 << u
    comp = [-1] * n
    count = 0
    for v in range(n):
        if comp[v] < 0 and bits[v]:
            for y in _set_bits(reach(bits, v)):
                comp[y] = count
            count += 1
    return comp


def every_edge_in_cycle(graph: Graph, length: int) -> bool:
    """True iff every edge lies on at least one cycle of the given length."""
    if graph.m == 0:
        return True
    covered = set()
    for cyc in cycles_of_length(graph, length):
        for u, w in zip(cyc, cyc[1:] + cyc[:1]):
            covered.add((u, w) if u < w else (w, u))
    return len(covered) == graph.m


def every_3_arc_in_cycle(graph: Graph, length: int) -> bool:
    """True iff every 3-arc lies on at least one cycle of the given length."""
    covered = set()
    for cyc in cycles_of_length(graph, length):
        doubled = cyc + cyc
        for i in range(len(cyc)):
            run = doubled[i : i + 4]
            covered.add(run)
            covered.add(run[::-1])
    for arc in s_arcs(graph, 3):
        if arc not in covered:
            return False
    return True
