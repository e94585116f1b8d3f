"""Independent oracles for the benchmark's correctness checks.

Nothing here imports cubicsym: graphs are plain adjacency lists (a list
of neighbour tuples indexed by vertex), graph6 is decoded and encoded
here, and automorphisms and isomorphisms come from a plain backtracking
extension along a breadth-first order instead of refinement and
canonical labelling.  The expected values rest on published data:

* OEIS A002851, connected cubic graphs up to isomorphism;
* OEIS A004109, labelled connected cubic graphs, recomputed below from a
  count over residual-degree vectors, so the census identity
  sum over classes of n!/|Aut(G)| = labelled connected count
  catches missing classes, duplicates and wrong group orders at once;
* Conder and Dobcsanyi, "Trivalent symmetric graphs on up to 768
  vertices" (2002): the arc-transitive cubic graphs on at most 16
  vertices are K4, K3,3, the cube, the Petersen graph, the Heawood graph
  and the Moebius-Kantor graph, and none has 12 vertices;
* classical group orders and arc-transitivity levels of named graphs,
  and Frucht, Graver and Watkins, "The groups of the generalized
  Petersen graphs" (1971): |Aut GP(n,k)| = 4n when k^2 = +-1 (mod n)
  and 2n otherwise, outside seven exceptional pairs, and GP(n,k) is
  arc-transitive only for those exceptions.
"""

from __future__ import annotations

import re
from math import comb, factorial
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

Adjacency = List[Tuple[int, ...]]

# OEIS A002851: connected cubic graphs on n vertices, up to isomorphism
CUBIC_CLASSES = {4: 1, 6: 2, 8: 5, 10: 19, 12: 85, 14: 509, 16: 4060,
                 18: 41301, 20: 510489}

# largest s the transitivity profile tests; mirrors the documented cap of
# the program's s iteration so that a cycle would not loop forever
MAX_S = 7


# ---------------------------------------------------------------------------
# graphs as adjacency lists

def from_edges(n: int, edges) -> Adjacency:
    adj: List[set] = [set() for _ in range(n)]
    for u, w in edges:
        if u == w or w in adj[u]:
            raise ValueError(f"not a simple graph: edge ({u}, {w})")
        adj[u].add(w)
        adj[w].add(u)
    return [tuple(sorted(s)) for s in adj]


def relabel(adj: Adjacency, images: Sequence[int]) -> Adjacency:
    """The graph with vertex v renamed images[v]."""
    out: List[Tuple[int, ...]] = [()] * len(adj)
    for v, row in enumerate(adj):
        out[images[v]] = tuple(sorted(images[w] for w in row))
    return out


def decode_graph6(text: str) -> Adjacency:
    """Graphs on fewer than 63 vertices, which is all this benchmark uses."""
    data = [ord(ch) - 63 for ch in text.strip()]
    if not data or not 0 <= data[0] < 63 or any(not 0 <= x < 64 for x in data):
        raise ValueError(f"not a short-form graph6 string: {text!r}")
    n = data[0]
    bits = []
    for x in data[1:]:
        bits.extend((x >> (5 - i)) & 1 for i in range(6))
    need = n * (n - 1) // 2
    if len(data) - 1 != (need + 5) // 6:
        raise ValueError(f"graph6 length does not match order {n}: {text!r}")
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return from_edges(n, edges)


def encode_graph6(adj: Adjacency) -> str:
    n = len(adj)
    if n >= 63:
        raise ValueError("short-form graph6 only")
    bits = [1 if j in adj[i] else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        x = 0
        for b in bits[k:k + 6]:
            x = (x << 1) | b
        out.append(chr(x + 63))
    return "".join(out)


def lcf(n: int, pattern: Sequence[int], repeats: int) -> Adjacency:
    edges = {(i, (i + 1) % n) for i in range(n)}
    for i in range(n):
        j = (i + pattern[i % len(pattern)]) % n
        edges.add((min(i, j), max(i, j)))
    return from_edges(n, sorted((min(e), max(e)) for e in edges))


def generalized_petersen(n: int, k: int) -> Adjacency:
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return from_edges(2 * n, edges)


def complete_bipartite_33() -> Adjacency:
    return from_edges(6, [(i, 3 + j) for i in range(3) for j in range(3)])


def complete_4() -> Adjacency:
    return from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])


def heawood() -> Adjacency:
    return lcf(14, [5, -5], 7)


def f26a() -> Adjacency:
    """The smallest 1-arc-regular cubic graph, |Aut| = 78."""
    return lcf(26, [-7, 7], 13)


# ---------------------------------------------------------------------------
# automorphisms and isomorphisms by backtracking

def _distances(adj: Adjacency) -> List[List[int]]:
    n = len(adj)
    rows = []
    for root in range(n):
        dist = [-1] * n
        dist[root] = 0
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if dist[y] < 0:
                        dist[y] = dist[x] + 1
                        nxt.append(y)
            frontier = nxt
        rows.append(dist)
    return rows


def isomorphisms(a: Adjacency, b: Adjacency) -> Iterator[Tuple[int, ...]]:
    """Every isomorphism from connected graph a onto b, as images[v].

    Vertices of a are mapped in breadth-first order; each goes to an
    unused neighbour of its parent's image whose distances to the images
    of all earlier vertices equal its own distances to those vertices.
    A bijection that keeps every distance keeps adjacency, so each
    complete map is an isomorphism, and the distance test cuts a wrong
    branch as soon as it is taken.
    """
    n = len(a)
    if len(b) != n:
        return
    if n == 0:
        yield ()
        return
    dist_a = _distances(a)
    if any(d < 0 for d in dist_a[0]):
        raise ValueError("graph is not connected")
    dist_b = _distances(b)
    order = sorted(range(n), key=lambda v: dist_a[0][v])
    parent = [0] + [
        next(p for p in range(i) if dist_a[order[p]][order[i]] == 1)
        for i in range(1, n)
    ]
    want = [[dist_a[order[i]][order[j]] for j in range(i)] for i in range(n)]
    img: List[int] = []
    used = [False] * n

    def rec(i: int) -> Iterator[Tuple[int, ...]]:
        if i == n:
            images = [0] * n
            for p, v in enumerate(order):
                images[v] = img[p]
            yield tuple(images)
            return
        cands = range(n) if i == 0 else b[img[parent[i]]]
        for c in cands:
            if used[c] or len(b[c]) != len(a[order[i]]):
                continue
            row = dist_b[c]
            if [row[x] for x in img] != want[i]:
                continue
            img.append(c)
            used[c] = True
            yield from rec(i + 1)
            used[c] = False
            img.pop()

    yield from rec(0)


def automorphisms(adj: Adjacency) -> List[Tuple[int, ...]]:
    return list(isomorphisms(adj, adj))


def count_automorphisms(adj: Adjacency) -> int:
    return sum(1 for _ in isomorphisms(adj, adj))


def is_isomorphic(a: Adjacency, b: Adjacency) -> bool:
    return next(isomorphisms(a, b), None) is not None


def vertex_transitive(adj: Adjacency, autos: Sequence[Tuple[int, ...]]) -> bool:
    return len({p[0] for p in autos}) == len(adj)


def _s_arcs(adj: Adjacency, s: int) -> Iterator[Tuple[int, ...]]:
    def walk(path: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
        if len(path) == s + 1:
            yield path
            return
        for w in adj[path[-1]]:
            if len(path) >= 2 and w == path[-2]:
                continue
            yield from walk(path + (w,))

    for v in range(len(adj)):
        yield from walk((v,))


def max_s(adj: Adjacency, autos: Sequence[Tuple[int, ...]]) -> int:
    """Largest s <= MAX_S such that the group is transitive on s-arcs for
    every s' <= s (0 when it is not even arc-transitive)."""
    best = 0
    for s in range(1, MAX_S + 1):
        arcs = list(_s_arcs(adj, s))
        if not arcs:
            break
        first = arcs[0]
        orbit = {tuple(p[x] for x in first) for p in autos}
        if len(orbit) != len(arcs):
            break
        best = s
    return best


def setwise_stabilizer_trivial(
    autos: Sequence[Tuple[int, ...]], members: Sequence[int]
) -> bool:
    s = frozenset(members)
    for p in autos:
        if any(p[v] != v for v in range(len(p))) and frozenset(p[v] for v in s) == s:
            return False
    return True


# ---------------------------------------------------------------------------
# census oracle

def labelled_cubic(n: int) -> int:
    """Labelled cubic graphs on n vertices, connected or not.

    Vertices are joined one at a time: the vertex with the largest residual
    degree d picks d distinct partners among the vertices not yet joined,
    whose residual degrees drop by one.  The number of completions depends
    only on how many unjoined vertices have residual degree 1, 2 and 3.
    """
    memo: Dict[Tuple[int, int, int], int] = {}

    def completions(c1: int, c2: int, c3: int) -> int:
        key = (c1, c2, c3)
        if key in memo:
            return memo[key]
        if c1 == c2 == c3 == 0:
            return 1
        if c3:
            d, c3 = 3, c3 - 1
        elif c2:
            d, c2 = 2, c2 - 1
        else:
            d, c1 = 1, c1 - 1
        total = 0
        for a3 in range(min(d, c3) + 1):
            for a2 in range(min(d - a3, c2) + 1):
                a1 = d - a3 - a2
                if a1 > c1:
                    continue
                ways = comb(c1, a1) * comb(c2, a2) * comb(c3, a3)
                total += ways * completions(c1 - a1 + a2, c2 - a2 + a3, c3 - a3)
        memo[key] = total
        return total

    return completions(0, 0, n)


def labelled_connected_cubic(n: int) -> int:
    """Connected part of labelled_cubic, by splitting off the component
    that holds one fixed vertex: a(m) = sum_k C(m-1, k-1) c(k) a(m-k)."""
    a = [labelled_cubic(m) for m in range(n + 1)]
    c = [0] * (n + 1)
    for m in range(1, n + 1):
        c[m] = a[m] - sum(comb(m - 1, k - 1) * c[k] * a[m - k] for k in range(1, m))
    return c[n]


def census_level_problems(n: int, g6s: Sequence[str]) -> List[str]:
    """Why one level of the census is wrong, or [] when it is right."""
    problems = []
    if len(g6s) != CUBIC_CLASSES[n]:
        problems.append(f"n={n}: {len(g6s)} classes, expected {CUBIC_CLASSES[n]}")
    if list(g6s) != sorted(set(g6s)):
        problems.append(f"n={n}: graph6 strings not sorted and distinct")
    labelled = 0
    for s in g6s:
        adj = decode_graph6(s)
        if len(adj) != n or any(len(row) != 3 for row in adj):
            problems.append(f"n={n}: {s} is not cubic on {n} vertices")
            continue
        try:
            aut = count_automorphisms(adj)
        except ValueError:
            problems.append(f"n={n}: {s} is not connected")
            continue
        labelled += factorial(n) // aut
    expected = labelled_connected_cubic(n)
    if labelled != expected:
        problems.append(
            f"n={n}: sum of n!/|Aut| is {labelled}, expected {expected}"
        )
    return problems


# ---------------------------------------------------------------------------
# claims oracle

# arc-transitive cubic graphs on at most 16 vertices (Conder-Dobcsanyi),
# with the largest s of s-arc-transitivity
ARC_TRANSITIVE_UP_TO_16 = {
    "k4": (complete_4, 2),
    "k33": (complete_bipartite_33, 3),
    "cube": (lambda: generalized_petersen(4, 1), 2),
    "petersen": (lambda: generalized_petersen(5, 2), 3),
    "heawood": (heawood, 4),
    "moebius_kantor": (lambda: generalized_petersen(8, 3), 2),
}

# Each census claim's hypothesis forces arc-transitivity (a consistent
# girth cycle with every edge or 3-arc on a girth cycle, or s-arc-
# transitivity), so its hits are the graphs of the list above that meet
# the hypothesis:
#   thm41-g4  girth 4, every edge on a 4-cycle: K3,3 and the cube
#   thm41-g5  girth 5: the Petersen graph
#   thm44-g6  girth 6, every 3-arc on a 6-cycle: Heawood (Moebius-Kantor
#             has 16 vertices, beyond n = 14)
#   lem45     s-arc-transitive with girth s + 2, s >= 3: Petersen (s = 3,
#             girth 5) and Heawood (s = 4, girth 6)
#   lem46     3-arc-transitive of girth 6: Heawood
#   cor49     arc-transitive of girth 6: Heawood
#   cor410    arc-transitive and none of K4, K3,3, cube, Petersen,
#             Heawood: none up to 14 vertices
CENSUS_CLAIM_HITS = {
    "thm41-g4": ("k33", "cube"),
    "thm41-g5": ("petersen",),
    "thm44-g6": ("heawood",),
    "lem45": ("petersen", "heawood"),
    "lem46": ("heawood",),
    "cor49": ("heawood",),
    "cor410": (),
}


def census_claim_problems(claim: str, report: dict, n_max: int) -> List[str]:
    """Check one census claim's JSON report against the list above."""
    problems = []
    if report.get("verdict") != "Pass":
        problems.append(f"{claim}: verdict {report.get('verdict')!r}")
    scanned = sum(CUBIC_CLASSES[n] for n in range(4, n_max + 1, 2))
    if report.get("graphs_scanned") != scanned:
        problems.append(
            f"{claim}: scanned {report.get('graphs_scanned')}, expected {scanned}"
        )
    expected = [
        name for name in CENSUS_CLAIM_HITS[claim]
        if len(ARC_TRANSITIVE_UP_TO_16[name][0]()) <= n_max
    ]
    hits = [decode_graph6(s) for s in report.get("hypothesis_hits", [])]
    if len(hits) != len(expected):
        problems.append(f"{claim}: {len(hits)} hits, expected {expected}")
    for name in expected:
        graph = ARC_TRANSITIVE_UP_TO_16[name][0]()
        if sum(1 for h in hits if is_isomorphic(graph, h)) != 1:
            problems.append(f"{claim}: {name} is not among the hits exactly once")
    return problems


# the truncated icosahedron: cubic on 60 vertices, girth 5, vertex-
# transitive with |Aut| = 120 (so |G_v| = 2), edges in two orbits; the
# paper's cost-2 theorem gives it distinguishing cost 2
TRUNCATED_ICOSAHEDRON = {"order": 60, "aut": 120, "cost": 2, "stabilizer": 2}


def input_claim_problems(claim: str, report: dict) -> List[str]:
    """thm34 and cor33 on their default input, the truncated icosahedron."""
    problems = []
    if report.get("verdict") != "Pass":
        problems.append(f"{claim}: verdict {report.get('verdict')!r}")
    if report.get("graphs_scanned") != 1:
        problems.append(f"{claim}: scanned {report.get('graphs_scanned')}, expected 1")
    hits = report.get("hypothesis_hits", [])
    if len(hits) != 1:
        problems.append(f"{claim}: {len(hits)} hits, expected the truncated icosahedron")
    else:
        adj = decode_graph6(hits[0])
        autos = automorphisms(adj)
        want = TRUNCATED_ICOSAHEDRON
        if (len(adj), len(autos)) != (want["order"], want["aut"]) or not (
            vertex_transitive(adj, autos)
        ):
            problems.append(f"{claim}: the hit is not the truncated icosahedron")
    notes = " ".join(report.get("notes", []))
    if claim == "thm34":
        found = re.search(r"cost (\d+)", notes)
        if not found or int(found.group(1)) != TRUNCATED_ICOSAHEDRON["cost"]:
            problems.append(f"thm34: cost 2 not reported (notes: {notes!r})")
    else:
        found = re.search(r"\|G_v\| = (\d+)", notes)
        if not found or int(found.group(1)) != TRUNCATED_ICOSAHEDRON["stabilizer"]:
            problems.append(f"cor33: |G_v| = 2 not reported (notes: {notes!r})")
    return problems


# ---------------------------------------------------------------------------
# analyze oracle

# name -> (|Aut|, largest s, vertex-transitive, distinguishing number or
# None when only "2 if a distinguishing set exists" is known).  The
# distinguishing numbers > 2 are the four connected cubic exceptions.
CLASSICAL = {
    "k4": (24, 2, True, 4),
    "k33": (72, 3, True, 4),
    "cube": (48, 2, True, 3),
    "petersen": (120, 3, True, 3),
    "dodecahedron": (120, 2, True, 2),
    "desargues": (240, 3, True, 2),
    "heawood": (336, 4, True, 2),
    "pappus": (216, 3, True, 2),
    "tutte_coxeter": (1440, 5, True, 2),
    "icosahedron": (120, 1, True, None),
    # the hexagon's dihedral group of order 12 acts on the three graphs
    # built around it; the figure-5 graph has order 24 and is not
    # vertex-transitive
    "base_graph": (12, 0, False, None),
    "omega18": (12, 0, False, None),
    "fig5_lambda": (24, 0, False, 2),
    "truncated_k4": (24, 0, True, 2),
    "truncated_icosahedron": (120, 0, True, 2),
    # generalized Petersen graphs (Frucht-Graver-Watkins), prism and
    # Moebius ladder (dihedral of order 4k)
    "gp(8,3)": (96, 2, True, 2),
    "gp(12,5)": (144, 2, True, 2),
    "gp(13,5)": (52, 0, True, 2),
    "gp(7,2)": (14, 0, False, 2),
    "prism(7)": (28, 0, True, 2),
    "moebius(5)": (20, 0, True, 2),
    "f26a": (78, 1, True, 2),
}


class AnalyzeOracle:
    """Expected invariants of one analyze input, computed once."""

    def __init__(self, name: str, adj: Adjacency):
        self.name = name
        self.adj = adj
        self.autos = automorphisms(adj)
        self.max_s = max_s(adj, self.autos)
        self.vertex_transitive = vertex_transitive(adj, self.autos)

    def problems(self, report: dict, canonical_of_original: Optional[str]) -> List[str]:
        name = self.name
        out = []
        table = CLASSICAL[name]
        computed = (len(self.autos), self.max_s, self.vertex_transitive)
        if computed != table[:3]:
            out.append(f"{name}: oracle computes {computed}, table says {table[:3]}")
        got = (report.get("aut_order"), report.get("max_s"),
               report.get("vertex_transitive"))
        if got != computed:
            out.append(f"{name}: (|Aut|, max s, vertex-transitive) {got}, "
                       f"expected {computed}")
        canon = report.get("canonical_graph6", "")
        if canonical_of_original is not None and canon != canonical_of_original:
            out.append(f"{name}: canonical form depends on the labelling")
        if not is_isomorphic(self.adj, decode_graph6(canon)):
            out.append(f"{name}: canonical form is not isomorphic to the input")
        cost = report.get("distinguishing_cost", {})
        number = report.get("distinguishing_number")
        if cost.get("kind") == "cost":
            witness = cost.get("witness", [])
            if len(witness) != cost.get("cost") or not setwise_stabilizer_trivial(
                self.autos, witness
            ):
                out.append(f"{name}: cost witness {witness} is not distinguishing")
            if number != 2:
                out.append(f"{name}: distinguishing number {number} with a "
                           "distinguishing set")
        if table[3] is not None and number != table[3]:
            out.append(f"{name}: distinguishing number {number}, expected {table[3]}")
        return out
