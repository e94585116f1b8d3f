"""Distinguishing sets, exact cost search, and distinguishing numbers."""

import itertools
import random
from collections import Counter

import pytest

from cubicsym import (
    GroupTooLargeError,
    SearchBudgetExceeded,
    automorphism_group,
    build_graph,
    catalog_build,
    catalog_graph,
    classic_truncation,
    close_generators,
    decode_graph6,
    distinguishing_cost,
    distinguishing_number,
    enumerate_cubic,
    enumerate_cubic_graph6,
    generalized_truncation,
    is_distinguishing_set,
    seeded_orders,
)
from cubicsym import autgrp, distinguishing
from cubicsym.catalog import (complete_bipartite, complete_graph, cycle_graph,
                              edgeless_graph)
from cubicsym.claims import brbb_unique_path_property

import conftest
from conftest import (FIXED_CATALOG, backtracking_automorphisms, random_cubic,
                      random_relabel, setwise_trivial)


def test_whole_vertex_set_distinguishing_iff_asymmetric():
    g = catalog_graph("petersen")
    assert not is_distinguishing_set(g, range(10))
    asym = next(h for h in enumerate_cubic(12)
                if len(automorphism_group(h)) == 1)
    assert is_distinguishing_set(asym, range(12))


def test_single_petersen_vertex_not_distinguishing():
    assert not is_distinguishing_set(catalog_graph("petersen"), [0])


def test_complement_symmetry(rng):
    g = catalog_graph("heawood")
    for _ in range(25):
        k = rng.randrange(0, 15)
        s = rng.sample(range(14), k)
        comp = [v for v in range(14) if v not in s]
        assert is_distinguishing_set(g, s) == is_distinguishing_set(g, comp)


def test_distinguishing_set_agrees_with_backtracking_filter(rng):
    for _ in range(40):
        n = rng.choice((8, 10, 12))
        g = random_cubic(n, rng, connected=True)
        s = rng.sample(range(n), rng.randrange(0, n + 1))
        autos = backtracking_automorphisms(g)
        assert is_distinguishing_set(g, s) == setwise_trivial(autos, s)


def test_distinguishing_set_raises_above_the_group_cap(monkeypatch):
    # Sym(7) has 5040 elements: the set test materializes the group
    monkeypatch.setattr(autgrp, "DEFAULT_GROUP_CAP", 1000)
    with pytest.raises(GroupTooLargeError):
        is_distinguishing_set(build_graph(7, []), [0])


# ---------------------------------------------------------------------------
# exact costs

def test_costs_from_the_arc_regularity_table():
    assert distinguishing_cost(catalog_graph("heawood")).cost == 5
    assert distinguishing_cost(catalog_graph("pappus")).cost == 3
    assert distinguishing_cost(catalog_graph("desargues")).cost == 3


def test_the_four_non_2_distinguishable_graphs():
    for name in ("k4", "k33", "cube", "petersen"):
        res = distinguishing_cost(catalog_graph(name))
        assert res.kind == "not-two-distinguishable"


def test_heawood_has_no_distinguishing_4_set_unpruned():
    # independent of the orbit-pruned search: scan all 4-subsets
    g = catalog_graph("heawood")
    group = automorphism_group(g)
    nontrivial = group[1:]
    for subset in itertools.combinations(range(14), 4):
        s = frozenset(subset)
        assert any(
            frozenset(p[v] for v in s) == s for p in nontrivial
        ), f"unexpected distinguishing 4-set {subset}"


def test_witness_is_lexicographically_least(rng):
    g = catalog_graph("pappus")
    res = distinguishing_cost(g)
    assert res.cost == 3
    # no 3-set lexicographically before the witness is distinguishing
    for cand in itertools.combinations(range(18), 3):
        if cand >= res.witness:
            break
        assert not is_distinguishing_set(g, cand)
    assert is_distinguishing_set(g, res.witness)


def test_asymmetric_cost_zero():
    asym = next(h for h in enumerate_cubic(12)
                if len(automorphism_group(h)) == 1)
    res = distinguishing_cost(asym)
    assert res.kind == "asymmetric" and res.cost == 0 and res.witness == ()


def test_truncated_icosahedron_cost_2_and_brbb_witness():
    g = catalog_graph("truncated_icosahedron")
    res = distinguishing_cost(g)
    assert res.cost == 2
    assert brbb_unique_path_property(g)


def test_brbb_false_when_the_black_cycles_miss_a_vertex():
    # GP(7, 2): the first disjoint-cycles orbit is the outer 7-cycle only
    assert not brbb_unique_path_property(catalog_graph("gp(7,2)"))


def _cayley(generators):
    """The Cayley graph x ~ x*s of the group the permutations generate."""
    elements = close_generators(generators, len(generators[0]))
    index = {x: i for i, x in enumerate(elements)}
    edges = {tuple(sorted((index[x], index[tuple(x[i] for i in s)])))
             for x in elements for s in generators}
    return build_graph(len(elements), sorted(edges))


def test_brbb_agrees_with_the_path_search_reference(monkeypatch, rng):
    reached = []  # graphs whose orbits pass every check before the path count
    count_paths = conftest._count_brbb_paths

    def counting(graph, *args):
        if not reached or reached[-1] is not graph:
            reached.append(graph)
        return count_paths(graph, *args)

    monkeypatch.setattr(conftest, "_count_brbb_paths", counting)
    family = [f"gp({n},{k})" for n in range(3, 16) for k in range(1, (n + 1) // 2)]
    family += [f"{name}({n})" for name in ("prism", "moebius") for n in range(3, 16)]
    named = [catalog_graph(name) for name in FIXED_CATALOG + tuple(family)]
    ico = catalog_build("icosahedron")
    graphs = [decode_graph6(g6) for n in range(4, 13, 2)
              for g6 in enumerate_cubic_graph6(n)]
    graphs += named
    graphs += [generalized_truncation(ico.graph, orders, cycle_graph(5)) for orders
               in [ico.rotation] + [seeded_orders(ico.graph, s) for s in range(40)]]
    graphs += [classic_truncation(g) for g in [g for g in named if g.is_cubic()][:40]]
    # the permutohedron of S4: its 4-cycles give a second path from v2 to
    # u3 around C2, so BRBB fails
    graphs.append(_cayley([(1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)]))
    # 5-regular: two cycle orbits and a matching, so "black" inside a path
    # (not red) takes edges of both cycle orbits
    graphs.append(_cayley([(4, 1, 3, 2, 0), (0, 3, 2, 4, 1), (1, 3, 0, 2, 4)]))
    outcomes = set()
    for g in graphs:
        expected = conftest.brbb_unique_path_property(g)
        assert brbb_unique_path_property(g) == expected
        if reached and reached[-1] is g:
            outcomes.add(expected)
            for _ in range(2):
                h = random_relabel(g, rng)
                assert brbb_unique_path_property(h) == expected
                assert conftest.brbb_unique_path_property(h) == expected
    assert outcomes == {True, False}
    assert len(reached) == 3 * 20  # 20 graphs and two relabellings of each


def test_budget_exhaustion_reports_progress():
    # Heawood is vertex-transitive, so every candidate holds 0: 1 singleton,
    # 13 pairs, 78 triples and 286 quadruples, 378 sets, no witness; a
    # budget of 384 leaves 6 for the 5-sets, and the witness (0, 1, 2, 3,
    # 10) is the 7th
    g = catalog_graph("heawood")
    for budget, exhausted in ((3, 1), (384, 4)):
        with pytest.raises(SearchBudgetExceeded) as err:
            distinguishing_cost(g, budget=budget)
        assert (err.value.budget, err.value.exhausted_size) == (budget, exhausted)
    res = distinguishing_cost(g, budget=385)
    assert (res.kind, res.cost, res.witness) == ("cost", 5, (0, 1, 2, 3, 10))


def test_cost_matches_unpruned_search_on_small_graphs(rng):
    for _ in range(10):
        g = random_cubic(8, rng, connected=True)
        res = distinguishing_cost(g)
        sizes = {}
        for k in range(1, 5):
            sizes[k] = [
                s
                for s in itertools.combinations(range(8), k)
                if is_distinguishing_set(g, s)
            ]
        brute = next((k for k in range(1, 5) if sizes[k]), None)
        if res.kind == "asymmetric":
            assert len(automorphism_group(g)) == 1
        elif res.kind == "cost":
            assert brute == res.cost
            assert min(sizes[res.cost])[0] == res.witness[0]
        else:
            assert brute is None


# ---------------------------------------------------------------------------
# distinguishing number

def test_asymmetric_number_is_one():
    asym = next(h for h in enumerate_cubic(12)
                if len(automorphism_group(h)) == 1)
    assert distinguishing_number(asym) == 1


def test_k4_number_is_four():
    # with 3 colors some color repeats on two of the four vertices, and
    # the transposition swapping them survives; the star K1,3 has the same
    # order and maximum degree but is not K_{Δ+1}
    assert distinguishing_number(catalog_graph("k4")) == 4
    assert distinguishing_number(complete_bipartite(1, 3)) == 3


def test_petersen_number_is_three():
    assert distinguishing_number(catalog_graph("petersen")) == 3
    # K3, C4 and C5 are the exceptions at Δ = 2, with D = Δ + 1 = 3; the
    # longer cycles have a distinguishing set
    for n in (3, 4, 5):
        assert distinguishing_number(cycle_graph(n)) == 3
    assert distinguishing_number(cycle_graph(6)) == 2


def test_cube_and_k33_numbers():
    # K3,3 is K_{Δ,Δ}, the cube is cubic with no distinguishing set
    assert distinguishing_number(catalog_graph("cube")) == 3
    assert distinguishing_number(catalog_graph("k33")) == 4


def test_two_distinguishable_graph_has_number_two():
    assert distinguishing_number(catalog_graph("heawood")) == 2


def test_grr_cost_is_one():
    # vertex-transitive with trivial stabilizers: any single vertex works;
    # scan the small census for them (may be vacuous at these orders)
    from cubicsym import transitivity_profile

    for n in (10, 12):
        for g in enumerate_cubic(n):
            if transitivity_profile(g).stabilizer_class == "grr":
                assert distinguishing_cost(g).cost == 1


# ---------------------------------------------------------------------------
# the C-level preservation test against the generator loops it replaced


@pytest.fixture(scope="module")
def preservation_graphs():
    """Every census graph to order 10 with one seeded relabelling of each,
    and the fixed catalog graphs whose group has at most 1440 elements."""
    rng = random.Random(3001)
    census = [decode_graph6(g6) for n in range(4, 11, 2)
              for g6 in enumerate_cubic_graph6(n)]
    graphs = census + [random_relabel(g, rng) for g in census]
    graphs += [g for g in map(catalog_graph, FIXED_CATALOG)
               if len(automorphism_group(g)) <= 1440]
    return graphs


def _moves_by_image(elements, v):
    """The non-identity elements indexed by the image of v, as the cost
    search indexes them by the image of a representative."""
    moves = {}
    for p in elements[1:]:
        moves.setdefault(p[v], []).append(p)
    return moves


def test_set_preservation_matches_the_member_loops(preservation_graphs):
    # two seeded sets of every size 0..n, so the empty set, the
    # singletons, the pairs and the whole vertex set
    rng = random.Random(3002)
    outcomes = set()
    for g in preservation_graphs:
        elements = automorphism_group(g)
        for k in range(g.n + 1):
            for _ in range(2):
                s = tuple(sorted(rng.sample(range(g.n), k)))
                expected = conftest.reference_is_distinguishing_set(g, s)
                assert is_distinguishing_set(g, s) == expected
                assert is_distinguishing_set(g, s[::-1]) == expected
                outcomes.add(expected)
                if s:
                    moves = _moves_by_image(elements, s[0])
                    assert (distinguishing._preserved(moves, s)
                            == conftest.reference_preserved(moves, s))
    assert outcomes == {True, False}
    with pytest.raises(ValueError):
        is_distinguishing_set(catalog_graph("petersen"), [0, 10])


def test_cost_search_matches_the_member_loops(monkeypatch, preservation_graphs):
    # every call of the search is checked, and the search built on the
    # reference test finds the same outcome and witness
    fast, answers = distinguishing._preserved, set()

    def checked(moves, cand):
        answer = fast(moves, cand)
        assert answer == conftest.reference_preserved(moves, cand)
        answers.add(answer)
        return answer

    kinds = set()
    for g in preservation_graphs:
        monkeypatch.setattr(distinguishing, "_preserved", checked)
        res = distinguishing_cost(g)
        monkeypatch.setattr(distinguishing, "_preserved",
                            conftest.reference_preserved)
        assert distinguishing_cost(g) == res
        kinds.add(res.kind)
    assert answers == {True, False}
    assert kinds == {"cost", "not-two-distinguishable"}


def test_the_formula_matches_the_coloring_search():
    # inside the theorem, connected graphs with Δ <= 3: the census to 14,
    # the fixed catalog graphs and F26A, C3-C8, prisms and Möbius ladders
    # to k = 8, path ladders to k = 6, and GP(n, k) for n <= 12
    inside = [decode_graph6(g6) for n in range(4, 15, 2)
              for g6 in enumerate_cubic_graph6(n)]
    inside += [catalog_graph(name) for name in FIXED_CATALOG + ("f26a",)]
    inside += [cycle_graph(n) for n in range(3, 9)]
    inside += [catalog_graph(family, k) for family in ("prism", "moebius")
               for k in range(3, 9)]
    inside += [catalog_graph("path_ladder", k) for k in range(2, 7)]
    inside += [catalog_graph("gp", n, k) for n in range(3, 13)
               for k in range(1, (n + 1) // 2)]
    assert len(inside) == 690
    numbers = Counter()
    for g in inside:
        cost = distinguishing_cost(g)
        d = distinguishing_number(g, cost)
        assert d == conftest.reference_distinguishing_number(g, cost)
        numbers[d] += 1
    assert numbers == {1: 108, 2: 566, 3: 11, 4: 5}


def _largest_twin_class(g):
    # twins, equal open or closed neighborhoods (an open one never equals a
    # closed one), are swapped by an automorphism fixing the rest, so no
    # two of them may share a color
    bits = g.adj_bits
    return max(Counter([*bits, *(b | 1 << v for v, b in enumerate(bits))]).values())


def test_twin_start_keeps_the_distinguishing_number():
    # the graphs the search from the largest twin class was checked on: the
    # census to 12 and the catalog inside the theorem, and complete,
    # complete bipartite and edgeless graphs, most outside it, where the
    # formula gives None exactly where D > 2; the twin class stays a lower
    # bound of the reference number
    graphs = [decode_graph6(g6) for n in range(4, 13, 2)
              for g6 in enumerate_cubic_graph6(n)]
    graphs += [catalog_graph(name) for name in FIXED_CATALOG]
    graphs += [complete_graph(n) for n in range(2, 8)]
    graphs += [complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 5)]
    graphs += [edgeless_graph(n) for n in range(1, 8)]
    assert len(graphs) == 150
    unknown = []
    for g in graphs:
        cost = distinguishing_cost(g)
        d = distinguishing_number(g, cost)
        reference = conftest.reference_distinguishing_number(g, cost)
        assert reference >= _largest_twin_class(g)
        in_theorem = g.is_connected() and all(len(row) <= 3 for row in g.adj)
        assert d == (reference if in_theorem or reference <= 2 else None)
        if d is None:
            unknown.append(reference)
    assert sorted(unknown) == [3, 4, 4, 4, 4, 5, 5, 5, 6, 6, 7, 7]


def test_coloring_preservation_matches_the_vertex_loop(monkeypatch):
    # the reference coloring search's C-level preservation test against the
    # vertex loop, at every leaf it visits for d = 3..COLOR_CAP and on seeded
    # colorings with up to d colors; its first d is the formula's number
    fast, answers = conftest._coloring_preserved, set()

    def checked(moving, colors):
        answer = fast(moving, colors)
        assert answer == conftest.reference_preserved_by_some(
            len(colors), moving, colors)
        answers.add(answer)
        return answer

    monkeypatch.setattr(conftest, "_coloring_preserved", checked)
    rng = random.Random(3003)
    for name in ("k4", "k33", "cube", "petersen"):
        g = catalog_graph(name)
        moving = automorphism_group(g)[1:]
        found = [d for d in range(3, conftest.COLOR_CAP + 1)
                 if conftest._distinguishing_coloring_exists(g.n, moving, d)]
        assert found[0] == distinguishing_number(g)
        for d in range(3, conftest.COLOR_CAP + 1):
            for _ in range(20):
                checked(moving, [rng.randrange(d) for _ in range(g.n)])
    assert answers == {True, False}


def test_more_twins_than_colors_skip_the_coloring_search():
    # K9's nine twins need nine colors, past the reference search's cap;
    # the formula answers without a search: K9 is outside the theorem
    k9 = decode_graph6("H~~~~~~")
    assert _largest_twin_class(k9) == 9 > conftest.COLOR_CAP
    assert distinguishing_number(k9) is None
    assert not hasattr(distinguishing, "_distinguishing_coloring_exists")
