"""Distinguishing sets, exact cost search, and distinguishing numbers."""

import itertools

import pytest

from cubicsym import (
    SearchBudgetExceeded,
    automorphism_group,
    catalog_graph,
    distinguishing_cost,
    distinguishing_number,
    enumerate_cubic,
    is_distinguishing_set,
    setwise_stabilizer_trivial,
)
from cubicsym.claims import brbb_unique_path_property

from conftest import random_cubic


def test_whole_vertex_set_distinguishing_iff_asymmetric():
    g = catalog_graph("petersen")
    assert not is_distinguishing_set(g, range(10))
    asym = next(h for h in enumerate_cubic(12)
                if automorphism_group(h).order == 1)
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


def test_colored_search_agrees_with_group_filter(rng):
    for _ in range(40):
        n = rng.choice((8, 10, 12))
        g = random_cubic(n, rng, connected=True)
        s = rng.sample(range(n), rng.randrange(0, n + 1))
        assert is_distinguishing_set(g, s) == setwise_stabilizer_trivial(g, s)


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
    nontrivial = group.non_identity()
    for subset in itertools.combinations(range(14), 4):
        s = frozenset(subset)
        assert any(
            frozenset(p.images[v] for v in s) == s for p in nontrivial
        ), f"unexpected distinguishing 4-set {subset}"


def test_witness_is_lexicographically_least(rng):
    g = catalog_graph("pappus")
    res = distinguishing_cost(g)
    assert res.cost == 3
    # no 3-set lexicographically before the witness is distinguishing
    for cand in itertools.combinations(range(18), 3):
        if cand >= res.witness:
            break
        assert not setwise_stabilizer_trivial(g, cand)
    assert is_distinguishing_set(g, res.witness)


def test_asymmetric_cost_zero():
    asym = next(h for h in enumerate_cubic(12)
                if automorphism_group(h).order == 1)
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


def test_budget_exhaustion_reports_progress():
    g = catalog_graph("heawood")
    with pytest.raises(SearchBudgetExceeded) as err:
        distinguishing_cost(g, budget=3)
    assert err.value.exhausted_size >= 0


def test_cost_matches_unpruned_search_on_small_graphs(rng):
    for _ in range(10):
        g = random_cubic(8, rng, connected=True)
        res = distinguishing_cost(g)
        sizes = {}
        for k in range(1, 5):
            sizes[k] = [
                s
                for s in itertools.combinations(range(8), k)
                if setwise_stabilizer_trivial(g, s)
            ]
        brute = next((k for k in range(1, 5) if sizes[k]), None)
        if res.kind == "asymmetric":
            assert automorphism_group(g).order == 1
        elif res.kind == "cost":
            assert brute == res.cost
            assert min(sizes[res.cost])[0] == res.witness[0]
        else:
            assert brute is None


# ---------------------------------------------------------------------------
# distinguishing number

def test_asymmetric_number_is_one():
    asym = next(h for h in enumerate_cubic(12)
                if automorphism_group(h).order == 1)
    assert distinguishing_number(asym) == 1


def test_k4_number_is_four():
    # with 3 colors some color repeats on two of the four vertices, and
    # the transposition swapping them survives
    assert distinguishing_number(catalog_graph("k4")) == 4


def test_petersen_number_is_three():
    assert distinguishing_number(catalog_graph("petersen")) == 3


def test_cube_and_k33_numbers():
    assert distinguishing_number(catalog_graph("cube")) == 3
    assert distinguishing_number(catalog_graph("k33")) == 4


def test_two_distinguishable_graph_has_number_two():
    assert distinguishing_number(catalog_graph("heawood")) == 2


def test_grr_cost_is_one():
    # vertex-transitive with trivial stabilizers: any single vertex works;
    # scan the small census for them (may be vacuous at these orders)
    from cubicsym import stabilizer_class

    for n in (10, 12):
        for g in enumerate_cubic(n):
            sc = stabilizer_class(g)
            if sc.kind == "grr":
                assert distinguishing_cost(g).cost == 1
