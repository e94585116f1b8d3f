"""Shared helpers: independent oracles and seeded random graph sources."""

from __future__ import annotations

import itertools
import random
from collections import deque
from math import comb
from operator import eq
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Set, Tuple)

import pytest

from cubicsym import (EnumerationRangeError, Graph, automorphism_group,
                      build_graph, canonical_form, encode_graph6, orbits,
                      stabilizer, transitivity_profile)
from cubicsym.autgrp import _refine_cells, _SearchResult
from cubicsym.distinguishing import distinguishing_cost
from cubicsym.enumeration import _insert_bits, _insert_rows, _locally_reducible
from cubicsym.graph import edge_components, is_bridge
from cubicsym.perm import Group, Images, extend_closure
from cubicsym.symmetry import MAX_S
from cubicsym.graph6 import _NON_PRINTABLE, _SEXTETS, Graph6Error

# every catalog graph that takes no parameters
FIXED_CATALOG = (
    "k4", "k33", "cube", "petersen", "dodecahedron", "desargues", "heawood",
    "pappus", "tutte_coxeter", "icosahedron", "base_graph", "omega18",
    "fig5_lambda", "truncated_k4", "truncated_icosahedron",
)


def naive_aut_order(g: Graph) -> int:
    """All-bijections automorphism count; usable up to n ~ 8."""
    edges = set(g.edges())
    count = 0
    for perm in itertools.permutations(range(g.n)):
        ok = True
        for u, w in edges:
            a, b = perm[u], perm[w]
            if (a, b) not in edges and (b, a) not in edges:
                ok = False
                break
        if ok:
            count += 1
    return count


def backtracking_automorphisms(g: Graph) -> List[Tuple[int, ...]]:
    """Independent oracle: every automorphism as an image tuple, found by
    plain backtracking over partial vertex maps with degree and adjacency
    consistency.  No refinement, no canonical forms; usable to n ~ 14 on
    symmetric graphs."""
    n = g.n
    images = [-1] * n
    used = [False] * n
    found: List[Tuple[int, ...]] = []

    def place(v: int) -> None:
        if v == n:
            found.append(tuple(images))
            return
        for w in range(n):
            if used[w] or g.degree(w) != g.degree(v):
                continue
            ok = True
            for x in g.adj[v]:
                if x < v and not g.has_edge(images[x], w):
                    ok = False
                    break
            if ok:
                # mapped earlier non-neighbors must stay non-neighbors
                for x in range(v):
                    if not g.has_edge(x, v) and g.has_edge(images[x], w):
                        ok = False
                        break
            if ok:
                images[v] = w
                used[w] = True
                place(v + 1)
                used[w] = False
                images[v] = -1

    place(0)
    return found


def setwise_trivial(autos: List[Tuple[int, ...]], members: Iterable[int]) -> bool:
    """Whether only the identity among the image tuples preserves the set."""
    s = frozenset(members)
    return sum(frozenset(im[v] for v in s) == s for im in autos) == 1


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [
        (u, w)
        for u in range(n)
        for w in range(u + 1, n)
        if rng.random() < p
    ]
    return build_graph(n, edges)


def random_cubic(n: int, rng: random.Random, connected: bool = False) -> Graph:
    """Rejection-sampled pairing model; uniform-ish over simple cubic graphs."""
    assert n % 2 == 0 and n >= 4
    while True:
        points = list(range(3 * n))
        rng.shuffle(points)
        edges = set()
        ok = True
        for i in range(0, 3 * n, 2):
            u, w = points[i] // 3, points[i + 1] // 3
            if u == w or (min(u, w), max(u, w)) in edges:
                ok = False
                break
            edges.add((min(u, w), max(u, w)))
        if not ok:
            continue
        g = build_graph(n, sorted(edges))
        if connected and not g.is_connected():
            continue
        return g


def random_relabel(g: Graph, rng: random.Random) -> Graph:
    images = list(range(g.n))
    rng.shuffle(images)
    return g.relabel(images)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240811)


@pytest.fixture
def empty_memos(monkeypatch):
    """Empty claims memos for one test, so what it counts does not depend
    on what earlier tests left in them; the census memo is returned."""
    from cubicsym import claims

    monkeypatch.setattr(claims, "_FACTS", {})
    claims._catalog_record.cache_clear()
    return claims._FACTS


# ---------------------------------------------------------------------------
# independent brute-force census oracle

def enumerate_cubic_bruteforce(n: int) -> Tuple[str, ...]:
    """Exhaustive degree-pruned edge-subset generation plus canonical
    dedup; independent of the construction-path generator.

    Two completeness-preserving symmetry cuts keep the labeled search
    small: N(0) = {1, 2, 3} (every cubic graph admits such a labeling),
    and isolated vertices are consumed in ascending index order (names of
    still-isolated vertices are interchangeable, so any labeling can be
    rewritten step by step to respect this).  Feasible for n <= 12."""
    if n % 2 or n < 4:
        raise EnumerationRangeError(f"no cubic graphs on order {n}")
    if n > 12:
        raise EnumerationRangeError("brute-force oracle capped at n = 12")
    if n == 4:
        k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
        return (canonical_form(k4).decode("ascii"),)
    adj: List[Set[int]] = [set() for _ in range(n)]
    deg = [0] * n
    for w in (1, 2, 3):
        adj[0].add(w)
        adj[w].add(0)
        deg[0] += 1
        deg[w] += 1
    out: Set[str] = set()

    def smallest_deficient(after: int) -> int:
        for v in range(after, n):
            if deg[v] < 3:
                return v
        return n

    def rec(v: int, floor: int, fresh: int) -> None:
        if v == n:
            g = Graph(n, [sorted(s) for s in adj])
            if g.is_connected():
                out.add(canonical_form(g).decode("ascii"))
            return
        top = min(n, fresh + 1)
        for w in range(max(v + 1, floor), top):
            if deg[w] >= 3 or w in adj[v]:
                continue
            adj[v].add(w)
            adj[w].add(v)
            deg[v] += 1
            deg[w] += 1
            new_fresh = fresh + 1 if w == fresh else fresh
            if deg[v] == 3:
                rec(smallest_deficient(v + 1), 0, new_fresh)
            else:
                rec(v, w + 1, new_fresh)
            adj[v].discard(w)
            adj[w].discard(v)
            deg[v] -= 1
            deg[w] -= 1

    rec(1, 0, 4)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# reference BRBB unique-path check: a depth-first count of the
# black-red-black-black paths, kept to compare the library's matching-based
# count against


def brbb_unique_path_property(graph: Graph) -> bool:
    """The unique-path mechanics behind the cost-2 witness.

    Edges split into the matching orbit (red) and the cycles orbit
    (black).  For every red edge v1-u1 with black 5-cycles C1 (through
    v1) and C2 (through u1): v1-u1 must be the only edge between C1 and
    C2, and for each choice of black neighbor v2 of v1 and black 2-step
    walk u1-u2-u3, the path v2-v1-u1-u2-u3 must be the unique
    black-red-black-black path of length 4 between v2 and u3.
    """
    profile = transitivity_profile(graph)
    red = profile.orbit_with_tag("perfect-matching")
    black_orbit = profile.orbit_with_tag("disjoint-cycles")
    if red is None or black_orbit is None:
        return False
    red_set = set(red)
    black = set(black_orbit)
    cycle_of = edge_components(graph.n, black)  # each vertex's black cycle
    if -1 in cycle_of:  # the black cycles must cover every vertex
        return False
    incident: Dict[int, List[int]] = {}
    for u, w in black:
        incident.setdefault(u, []).append(w)
        incident.setdefault(w, []).append(u)

    def edge_color_is_red(a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in red_set

    for v1, u1 in red:
        c1, c2 = cycle_of[v1], cycle_of[u1]
        between = [
            (a, b)
            for a, b in graph.edges()
            if (cycle_of[a], cycle_of[b]) in ((c1, c2), (c2, c1))
        ]
        if len(between) != 1:
            return False
        for v2 in incident[v1]:
            for u2 in incident[u1]:
                for u3 in incident[u2]:
                    if u3 == u1:
                        continue
                    # v2-v1-u1-u2-u3 is one such path (v1, v2 on one black
                    # cycle, u1, u2, u3 on another), so it must be the only one
                    count = _count_brbb_paths(
                        graph, v2, u3, edge_color_is_red
                    )
                    if count != 1:
                        return False
    return True


def _count_brbb_paths(graph: Graph, start: int, end: int, is_red) -> int:
    pattern = (False, True, False, False)
    count = 0
    stack = [(start, (start,))]
    while stack:
        v, path = stack.pop()
        i = len(path) - 1
        if i == 4:
            if v == end:
                count += 1
            continue
        for w in graph.adj[v]:
            if w in path:
                continue
            if is_red(v, w) == pattern[i]:
                stack.append((w, path + (w,)))
    return count


# ---------------------------------------------------------------------------
# reference per-graph kernels of a census scan: a BFS per root for the
# distances, the girth and the cycle search's pruning, full distance
# histograms for the vertex-transitivity prefilter and the census edge
# score, every girth cycle listed for the girth-cycle edge test (kept
# verbatim from `graph`), and a column-at-a-time graph6 decoder, kept to
# compare the bitmask kernels against


def distance_profiles(
    graph: Graph,
) -> Tuple[list[list[int]], list[Tuple[Tuple[int, int], ...]]]:
    """BFS distances from every root (-1 where unreachable) and, per root,
    the sorted (distance, count) histogram of its row."""
    n = graph.n
    dists: list[list[int]] = []
    profiles: list[Tuple[Tuple[int, int], ...]] = []
    for root in range(n):
        dist = [-1] * n
        dist[root] = 0
        frontier = [root]
        hist = [(0, 1)]
        reached = 1
        while frontier:
            nxt = []
            for x in frontier:
                dx = dist[x] + 1
                for y in graph.adj[x]:
                    if dist[y] < 0:
                        dist[y] = dx
                        nxt.append(y)
            if nxt:
                hist.append((len(hist), len(nxt)))
                reached += len(nxt)
            frontier = nxt
        if reached < n:
            hist.insert(0, (-1, n - reached))
        dists.append(dist)
        profiles.append(tuple(hist))
    return dists, profiles


def edge_scores(
    graph: Graph, edges: Sequence[Tuple[int, int]]
) -> Dict[Tuple[int, int], tuple]:
    """Stage 2: BFS distance sums and vertex profiles of the endpoints.

    It only ranks edges tied at stage 1, which share their number of
    common neighbours (triangles), so that count is not repeated here.
    """
    dists, profiles = distance_profiles(graph)
    n = graph.n
    scores = {}
    for u, v in edges:
        du, dv = dists[u], dists[v]
        joint = sorted(du[w] + dv[w] for w in range(n))
        pair = sorted((profiles[u], profiles[v]))
        scores[(u, v)] = (tuple(joint), pair[0], pair[1])
    return scores


def cycles_of_length(
    graph: Graph, length: int
) -> Tuple[Tuple[int, ...], ...]:
    """All distinct cycles of exactly the given length, sorted, each as its
    canonical vertex sequence: the least of its rotations and reflections.

    Rooted DFS from each vertex, restricted to larger-indexed vertices so
    each cycle is found from its minimum vertex only, which leads the
    canonical sequence; keeping the direction with path[1] < path[-1]
    picks the lesser reflection.  BFS distances to the root prune
    branches that cannot close in time.
    """
    if length < 3:
        raise ValueError("cycle length must be >= 3")
    n = graph.n
    found: list[Tuple[int, ...]] = []
    adj = graph.adj
    dists = distance_profiles(graph)[0]
    for root in range(n):
        dist = dists[root]
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
    return tuple(sorted(found))


def every_edge_in_cycle(graph: Graph, length: int) -> bool:
    """True iff every edge lies on at least one cycle of the given length."""
    if graph.m == 0:
        return True
    covered = set()
    for cyc in cycles_of_length(graph, length):
        for u, w in zip(cyc, cyc[1:] + cyc[:1]):
            covered.add((u, w) if u < w else (w, u))
    return len(covered) == graph.m


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


def extend_partial_map(graph: Graph, partial: Mapping[int, int]) -> Optional[Images]:
    """The least automorphism (by image sequence) agreeing with the partial
    vertex map, or None.

    Filters the memoized group's sorted element list one pair at a time,
    so it materializes the group and raises GroupTooLargeError above the
    cap, as `automorphism_group` does.
    """
    n = graph.n
    sources = sorted(partial)
    targets = [partial[s] for s in sources]
    if len(set(targets)) != len(targets):
        raise ValueError("partial map must be injective")
    for x in sources + targets:
        if not 0 <= x < n:
            raise ValueError("partial map endpoint outside vertex range")
    keep = automorphism_group(graph)
    for s, t in zip(sources, targets):
        keep = [p for p in keep if p[s] == t]
    return keep[0] if keep else None


def consistent_cycles(
    graph: Graph, length: int
) -> Tuple[Tuple[Tuple[int, ...], Images], ...]:
    """Every listed cycle of the given length whose one-step rotation
    extends to an automorphism, with the least such automorphism."""
    out = []
    for cyc in cycles_of_length(graph, length):
        partial = {cyc[i]: cyc[(i + 1) % len(cyc)] for i in range(len(cyc))}
        witness = extend_partial_map(graph, partial)
        if witness is not None:
            out.append((cyc, witness))
    return tuple(out)


def girth(graph: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for a forest.

    One BFS per root: an edge from v to an already-reached w with
    dist(w) >= dist(v) closes a cycle of length at most dist(v) + dist(w)
    + 1, and the minimum over all roots is the girth.  An edge to a w with
    dist(w) < dist(v) is either v's tree edge or closes a cycle already
    counted from w.  A root stops once no shorter cycle can close.
    """
    n = graph.n
    best: Optional[int] = None
    for root in range(n):
        dist = [-1] * n
        dist[root] = 0
        q = deque([root])
        while q:
            v = q.popleft()
            dv = dist[v]
            if best is not None and 2 * dv + 1 > best:
                break
            for w in graph.adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    q.append(w)
                elif dist[w] >= dv:
                    cand = dv + dist[w] + 1
                    if best is None or cand < best:
                        best = cand
    return best


def histograms_agree(graph: Graph) -> bool:
    """Every vertex has the same BFS distance histogram."""
    return len(set(distance_profiles(graph)[1])) <= 1


def decode_graph6(text: str) -> Graph:
    """Decode one graph6 string, in time linear in its length.

    The adjacency bytes are joined into one string of '0'/'1' characters,
    and column j of the upper triangle is the next j of them, read into
    vertex j's bitmask in one step; bit j is then set in the row of every
    i it names.  Any character outside 63..126 is rejected at its offset.
    """
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    bad = _NON_PRINTABLE.search(s)
    if bad is not None:
        raise Graph6Error(
            f"non-printable graph6 byte {ord(bad.group())}", bad.start()
        )
    data = s.encode("ascii")
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise Graph6Error("8-byte order form is not supported", 0)
        if len(data) < 4:
            raise Graph6Error("truncated extended order", len(data))
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        if n < 63:
            raise Graph6Error("extended order used for n < 63", 0)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) - pos != nbytes:
        raise Graph6Error(
            f"expected {nbytes} adjacency bytes for n={n}, got {len(data) - pos}",
            pos,
        )
    seq = "".join([_SEXTETS[b - 63] for b in data[pos:]])
    pad = seq.find("1", nbits)
    if pad >= 0:
        raise Graph6Error("nonzero padding bits", pos + pad // 6)
    bits = [0] * n
    start = 0
    for j in range(1, n):
        end = start + j
        bj = 1 << j
        i = seq.find("1", start, end)
        while i >= 0:
            bits[i - start] |= bj
            i = seq.find("1", i + 1, end)
        bits[j] = int(seq[start:end][::-1], 2)
        start = end
    return Graph(n, [[w for w in range(n) if b >> w & 1] for b in bits])


# ---------------------------------------------------------------------------
# reference transitivity fields: every s-arc counted by a dynamic program,
# s-arc-transitivity as |G| = (number of s-arcs) |G_A| for the first s-arc
# A, and the vertex orbits, kept to compare the one stabilizer chain of
# `transitivity_profile` against


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


def _s_arc_transitive(group: Group, graph: Graph, s: int) -> bool:
    total = s_arc_count(graph, s)
    if total == 0:
        return False
    first = next(iter(s_arcs(graph, s)))
    # |orbit| = |G| / |G_first|
    return len(group) == total * len(stabilizer(group, first))


def transitivity_fields(graph: Graph) -> Tuple[bool, int, bool, int]:
    """(vertex_transitive, max_s, s_regular_at_max, vertex_stabilizer_order)
    of a connected graph, by counting."""
    group = automorphism_group(graph)
    vt = len(orbits(group, range(graph.n))) <= 1  # every element, no search
    max_s = 0
    while max_s < MAX_S and _s_arc_transitive(group, graph, max_s + 1):
        max_s += 1
    return (
        vt,
        max_s,
        # transitive on max_s-arcs: an arc's stabilizer is trivial exactly
        # when |G| equals the number of arcs
        max_s >= 1 and len(group) == s_arc_count(graph, max_s),
        # the order-0 graph has no vertex 0: G_0 is then the whole, trivial group
        len(stabilizer(group, range(min(graph.n, 1)))),
    )


# ---------------------------------------------------------------------------
# labelled cubic graphs, counted without generating any: the census must
# satisfy the mass formula sum of n!/|Aut| = the labelled connected count


def labelled_cubic(n: int) -> int:
    """Labelled cubic graphs on n vertices, connected or not.

    The vertex with the largest residual degree d is joined to d distinct
    partners among the vertices not yet joined, whose residual degrees
    drop by one; the number of completions depends only on how many
    unjoined vertices have residual degree 1, 2 and 3.
    """
    memo: Dict[Tuple[int, int, int], int] = {(0, 0, 0): 1}

    def completions(c1: int, c2: int, c3: int) -> int:
        key = (c1, c2, c3)
        if key in memo:
            return memo[key]
        # join one vertex of the largest residual degree d; a1, a2 and a3
        # of its partners have residual degree 1, 2 and 3
        d = 3 if c3 else 2 if c2 else 1
        c1, c2, c3 = c1 - (d == 1), c2 - (d == 2), c3 - (d == 3)
        total = 0
        for a3 in range(min(d, c3) + 1):
            for a2 in range(min(d - a3, c2) + 1):
                a1 = d - a3 - a2
                if a1 <= c1:
                    total += (comb(c1, a1) * comb(c2, a2) * comb(c3, a3)
                              * completions(c1 - a1 + a2, c2 - a2 + a3, c3 - a3))
        memo[key] = total
        return total

    return completions(0, 0, n)


def labelled_connected_cubic(n: int) -> int:
    """The connected part of labelled_cubic: split off the component of
    one fixed vertex, a(m) = sum over k of C(m-1, k-1) c(k) a(m-k)."""
    a = [labelled_cubic(m) for m in range(n + 1)]
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        c[m] = a[m] - sum(comb(m - 1, k - 1) * c[k] * a[m - k]
                          for k in range(1, m))
    return c[n]


# ---------------------------------------------------------------------------
# the canonical search before its root was split by ball sizes (canonical
# form v1), kept verbatim as the reference for the cross-walk to v2.  It
# shares `_refine_cells`; `_refine_child`, the closed-form first pass of
# a search child that the engine no longer has, is kept here as it was.
#
# Its one cut is proved, not found (the "module docstring" that
# `_loses_at_root` cites).  The root of a d-regular graph is one cell,
# and below its child v every leaf has v's neighbors at positions 1..d,
# the item at j being 2 ** (j - 1) plus a bit per earlier neighbor: the
# least run 1, 2, ..., 2 ** (d - 1) if the neighborhood spans no edge, a
# larger one if it does.  Once the best code has the least run, a root
# child whose neighborhood spans an edge is skipped, as every leaf below
# it would stop at a position <= d; it joins `done` as explored ones do.


def _refine_child(adj: Sequence[Sequence[int]], cells: List[Tuple[int, ...]],
                  weight: List[int], ci: int, v: int, *,
                  shift: Optional[int] = None) -> List[Tuple[int, ...]]:
    """The refined child of equitable `cells` that cuts `v` out of cell
    `ci`, in front of the rest; `weight`, a copy of their weights, ends
    holding the child's.  The first pass has a closed form: the rest
    weighs 1/B of what it did, which lowers a signature by a fixed amount
    per neighbor in `v`'s old cell other than `v`, so within an equitable
    cell the neighbors of `v` lose least: they split off, first."""
    if shift is None:
        shift = max(map(len, adj)).bit_length()
    rest = tuple(x for x in cells[ci] if x != v)
    for x in rest:
        weight[x] = weight[v] >> shift
    near = set(adj[v])
    out: List[Tuple[int, ...]] = []
    check: Set[int] = set()
    for cell in cells[:ci] + [(v,), rest] + cells[ci + 1 :]:
        first = () if near.isdisjoint(cell) else tuple(x for x in cell if x in near)
        if not 0 < len(first) < len(cell):
            out.append(cell)
            continue
        far = tuple(x for x in cell if x not in near)
        out += (first, far)
        w = weight[cell[0]] >> shift * len(first)
        for x in far:
            weight[x] = w
            check.update(adj[x])
    if not check or len(out) == len(adj):
        return out
    return _refine_cells(adj, out, weight, check, shift=shift)


def _loses_at_root(graph: Graph, v: int, best_code: Optional[List[int]]) -> bool:
    """Whether root child `v` of a regular graph loses (module docstring)."""
    row, bits = graph.adj[v], graph.adj_bits
    return (best_code is not None and any(bits[v] & bits[x] for x in row)
            and best_code[1 : len(row) + 1] == [1 << j for j in range(len(row))])


def _ir_search(graph: Graph) -> _SearchResult:
    """Explore the refinement tree with orbit pruning; return the minimum
    leaf code, the first leaf reaching it, and generators of the group."""
    n = graph.n
    if n == 0:
        return _SearchResult((), [], [])
    adj = graph.adj
    shift = max(map(len, adj)).bit_length()
    # vertex -> position in the discrete prefix of the current path; an
    # entry left by another path is told apart by `cells[i][0] != w`
    pos = [0] * n

    best_code: Optional[List[int]] = None
    best_posv: Optional[List[int]] = None
    best_path: Tuple[int, ...] = ()
    gens: List[Tuple[int, ...]] = []

    def rec(cells: List[Tuple[int, ...]], weight: List[int], items: List[int],
            path: Tuple[int, ...]) -> Optional[int]:
        """Explore below an equitable node; a depth to unwind to, or None."""
        nonlocal best_code, best_posv, best_path
        # the parent's discrete prefix is a prefix of this one
        k = len(items)
        t = k
        while t < len(cells) and len(cells[t]) == 1:
            t += 1
        # the parent's items never exceed the best code's prefix: they are
        # either equal to it (a tie, compared on below) or less
        tie = best_code is not None and items == best_code[:k]
        if t > k:
            items = list(items)
            for j in range(k, t):
                vj = cells[j][0]
                pos[vj] = j
                item = 0
                for w in adj[vj]:
                    i = pos[w]
                    if i < j and cells[i][0] == w:
                        item |= 1 << (j - 1 - i)
                if tie:
                    ref = best_code[j]
                    if item > ref:
                        return None
                    tie = item == ref
                items.append(item)
        if t == len(cells):  # discrete partition: a leaf
            posv = [c[0] for c in cells]
            if not tie:
                best_code = items
                best_posv = posv
                best_path = path
            else:
                assert best_posv is not None
                images = [0] * n
                for p in range(n):
                    images[posv[p]] = best_posv[p]
                gens.append(tuple(images))
                # its inverse fixes the paths' common prefix and maps the
                # best path's next child onto this one's: unwind to there
                d = 0
                while path[d] == best_path[d]:
                    d += 1
                return d
            return None
        sizes = [len(c) for c in cells]
        target_size = min(s for s in sizes if s > 1)
        ci = sizes.index(target_size)
        cell = cells[ci]
        # children in one orbit of the found automorphisms fixing the path
        # root isomorphic subtrees with equal leaf codes: explore one each.
        # `done` stays closed under `fixing`, so it is closed again from
        # all of it only when a fixing generator is new, else from v alone
        done: Set[int] = set()
        fixing: List[Tuple[int, ...]] = []
        seen = 0  # generators already sorted into `fixing` or not
        for v in cell:
            if v in done:
                continue
            if path or len(cells) > 1 or not _loses_at_root(graph, v, best_code):
                child_weight = weight[:]
                child = _refine_child(adj, cells, child_weight, ci, v,
                                      shift=shift)
                back = rec(child, child_weight, items, path + (v,))
                if back is not None and back < len(path):
                    return back
            done.add(v)
            new = [g for g in gens[seen:] if all(g[x] == x for x in path)]
            seen = len(gens)
            fixing += new
            stack = list(done) if new else [v]
            while stack:
                x = stack.pop()
                for g in fixing:
                    if g[x] not in done:
                        done.add(g[x])
                        stack.append(g[x])
        return None

    weight = [1 << shift * n] * n
    rec(_refine_cells(adj, [tuple(range(n))], weight, shift=shift), weight, [], ())
    assert best_code is not None and best_posv is not None
    return _SearchResult(tuple(best_code), best_posv, gens)


def v1_canonical_form(graph: Graph) -> str:
    """The graph6 string of the v1 canonical labeling."""
    label = [0] * graph.n
    for p, v in enumerate(_ir_search(graph).position_vertex):
        label[v] = p
    return encode_graph6(graph.relabel(label))


# ---------------------------------------------------------------------------
# the preservation tests of the cost search and the distinguishing-set test
# as generator loops over the members, before they compared image tuples;
# kept verbatim as the reference for the C-level test


def reference_preserved(moves: Dict[int, List[Tuple[int, ...]]], cand: Sequence[int]) -> bool:
    """Whether an element of ``moves`` (by image of cand[0]) preserves cand."""
    s = frozenset(cand)
    for w in cand:
        for im in moves.get(w, ()):
            if all(im[v] in s for v in cand):
                return True
    return False


def reference_is_distinguishing_set(graph: Graph, members: Sequence[int]) -> bool:
    """True iff only the identity preserves the set.

    Filters the memoized group's element list, so it materializes the
    group and raises GroupTooLargeError above the cap, as
    `automorphism_group` does.
    """
    s = frozenset(members)
    if any(not 0 <= v < graph.n for v in s):
        raise ValueError("set member outside vertex range")
    for p in automorphism_group(graph)[1:]:
        if all(p[v] in s for v in s):
            return False
    return True


# ---------------------------------------------------------------------------
# the coloring search `distinguishing_number` ran past D = 2 before a
# theorem gave D, kept verbatim (from d = 3, before it started at the
# largest twin class) as the brute-force reference for the formula

COLOR_CAP = 8  # most colors `distinguishing_number` tries


class ColorCapExceeded(RuntimeError):
    """No coloring with at most COLOR_CAP colors is distinguishing."""

    def __init__(self, cap: int):
        super().__init__(f"distinguishing number exceeds the color cap {cap}")
        self.cap = cap


def reference_distinguishing_number(graph: Graph, cost=None) -> int:
    """Smallest number of colors in a coloring preserved only by the
    identity; colorings with 3 <= d <= COLOR_CAP colors are searched as
    set partitions (restricted-growth strings)."""
    group = automorphism_group(graph)
    if len(group) == 1:
        return 1
    if (cost or distinguishing_cost(graph)).is_cost:
        return 2
    n = graph.n
    moving = group[1:]
    for d in range(3, COLOR_CAP + 1):
        if _distinguishing_coloring_exists(n, moving, d):
            return d
    raise ColorCapExceeded(COLOR_CAP)


def _distinguishing_coloring_exists(
    n: int, moving: Sequence, d: int
) -> bool:
    colors = [0] * n

    def rec(v: int, used: int) -> bool:
        if v == n:
            return not _coloring_preserved(moving, colors)
        top = min(used + 1, d)
        for c in range(top):
            colors[v] = c
            if rec(v + 1, max(used, c + 1)):
                return True
        colors[v] = 0
        return False

    return rec(0, 0)


def _coloring_preserved(moving: Sequence[Sequence[int]], colors: List[int]) -> bool:
    """Whether an element of ``moving`` maps the coloring onto itself: the
    colors read through it equal the coloring, compared in C up to the
    first vertex where they differ."""
    color = colors.__getitem__
    for p in moving:
        if all(map(eq, map(color, p), colors)):
            return True
    return False


def reference_preserved_by_some(n: int, moving: Sequence, colors: List[int]) -> bool:
    """Whether an element of ``moving`` maps the coloring onto itself."""
    for p in moving:
        if all(colors[v] == colors[p[v]] for v in range(n)):
            return True
    return False


# ---------------------------------------------------------------------------
# the three reachability traversals before `graph.reach` replaced them: the
# stack DFS of `Graph.is_connected`, the incident-list DFS of
# `edge_components` and the iterative lowpoint DFS of `bridges`, kept
# verbatim (`self` read as `graph`) as the reference for the one walk


def reference_is_connected(graph: Graph) -> bool:
    if graph.n == 0:
        return True
    seen = 1
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in graph.adj[v]:
            if not (seen >> w) & 1:
                seen |= 1 << w
                count += 1
                stack.append(w)
    return count == graph.n


def reference_edge_components(n: int, edges: Iterable[Tuple[int, int]]) -> list[int]:
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


def reference_bridges(graph: Graph) -> set[Tuple[int, int]]:
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


# ---------------------------------------------------------------------------
# the edge reduction the census runs only in reverse, and the whole list of
# reducible edges, kept verbatim from `enumeration` as references; a child
# is built as the census builds it, from the patched rows and bitmasks


def reducible_edges(graph: Graph) -> List[Tuple[int, int]]:
    """Edges whose contraction yields a connected simple cubic graph."""
    bits = graph.adj_bits
    return [e for e in graph.edges()
            if _locally_reducible(bits, *e) and not is_bridge(bits, *e)]


def reduce_edge(graph: Graph, edge: Tuple[int, int]) -> Graph:
    """Contract a reducible edge: drop its endpoints, rejoin the stubs.

    Remaining vertices are renumbered ascending.
    """
    u, v = edge
    a, b = (x for x in graph.adj[u] if x != v)
    c, d = (x for x in graph.adj[v] if x != u)
    keep = [x for x in range(graph.n) if x not in (u, v)]
    index = {x: i for i, x in enumerate(keep)}
    edges = [
        (index[x], index[y])
        for x, y in graph.edges()
        if u not in (x, y) and v not in (x, y)
    ]
    edges.append((index[a], index[b]))
    edges.append((index[c], index[d]))
    return build_graph(graph.n - 2, edges)


def insert_on_edges(graph: Graph, e1: Tuple[int, int], e2: Tuple[int, int]) -> Graph:
    """Subdivide two distinct edges and join the two new vertices."""
    return Graph._from_rows(tuple(_insert_rows(graph, e1, e2)),
                            tuple(_insert_bits(graph, e1, e2)))


# ---------------------------------------------------------------------------
# the greedy generating set by closure: after every pick the group of the
# picks is grown by coset enumeration and each later element is looked up
# in it, kept verbatim from `autgrp` as the reference of the level walk
# `reduced_generators` reads off the sorted tuple's stabilizer chain


def reduced_generators(group: Group) -> Tuple[Images, ...]:
    """The greedy generating set of the sorted element tuple: each element
    not yet generated by the earlier picks is picked; the identity alone
    for a trivial group.  ``analyze`` prints it; orbits read the search's
    generators (``search_generators``)."""
    gens: List[Images] = []
    closed = {group[0]}
    for p in group:
        if p in closed:
            continue
        gens.append(p)
        extend_closure(closed, [g.__getitem__ for g in gens], len(group))
        if len(closed) == len(group):
            break
    return tuple(gens) if gens else group[:1]
