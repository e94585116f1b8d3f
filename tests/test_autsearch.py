"""Refinement, automorphism search, canonical forms, and the reference
partial-map extension of conftest against the group."""

import random
import time

import pytest

from cubicsym import (
    GroupTooLargeError,
    automorphism_group,
    build_graph,
    canonical_form,
    catalog_graph,
    enumerate_cubic,
    girth,
    is_isomorphic,
)
from cubicsym import autgrp
from cubicsym.autgrp import _refine_cells
from cubicsym.catalog import generalized_petersen, _lcf

from conftest import (
    FIXED_CATALOG,
    backtracking_automorphisms,
    cycles_of_length,
    extend_partial_map,
    naive_aut_order,
    random_cubic,
    random_graph,
    random_relabel,
    s_arc_count,
)


# ---------------------------------------------------------------------------
# refinement

def is_equitable(graph, cells) -> bool:
    """Every vertex of a cell has as many neighbors in each cell as the
    others of its cell."""
    masks = [sum(1 << v for v in c) for c in cells]
    return all(
        len({(graph.adj_bits[v] & mask).bit_count() for v in cell}) == 1
        for cell in cells
        for mask in masks
    )


def test_refine_complete_graph_stays_single_cell():
    k4 = catalog_graph("k4")
    assert _refine_cells(k4.adj, [(0, 1, 2, 3)]) == [(0, 1, 2, 3)]


def test_refine_star_splits_center_from_leaves():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert _refine_cells(star.adj, [(0, 1, 2, 3)]) == [(0,), (1, 2, 3)]


def test_refine_individualized_petersen_gives_distance_partition():
    g = catalog_graph("petersen")
    cells = _refine_cells(g.adj, [(0,), tuple(range(1, 10))])
    assert [len(c) for c in cells] == [1, 3, 6]
    assert cells[0] == (0,)
    assert cells[1] == tuple(g.adj[0])


def test_refinement_output_is_equitable(rng):
    for _ in range(25):
        g = random_graph(10, 0.3, rng)
        assert is_equitable(g, _refine_cells(g.adj, [tuple(range(10))]))


# ---------------------------------------------------------------------------
# automorphism groups

def test_group_order_matches_naive_oracle(rng):
    for _ in range(40):
        n = rng.randrange(2, 8)
        g = random_graph(n, rng.random(), rng)
        assert len(automorphism_group(g)) == naive_aut_order(g)


def test_every_element_preserves_edges_and_colors(rng):
    g = random_cubic(12, rng, connected=True)
    edges = set(g.edges())
    for p in automorphism_group(g):
        for u, w in edges:
            a, b = p[u], p[w]
            assert (min(a, b), max(a, b)) in edges


def test_asymmetric_cubic_graph_has_trivial_group():
    found = None
    for g in enumerate_cubic(12):
        if len(automorphism_group(g)) == 1:
            found = g
            break
    assert found is not None


def test_fig5_lambda_group_order_24():
    assert len(automorphism_group(catalog_graph("fig5_lambda"))) == 24


def test_petersen_order_120_against_backtracking_oracle():
    g = catalog_graph("petersen")
    assert len(automorphism_group(g)) == 120 == len(backtracking_automorphisms(g))


def test_group_orders_against_backtracking_oracle(rng):
    for _ in range(10):
        g = random_cubic(12, rng, connected=True)
        assert len(automorphism_group(g)) == len(backtracking_automorphisms(g))


def test_heawood_group_order_336():
    g = catalog_graph("heawood")
    group = automorphism_group(g)
    # 4-regular: the order matches the 4-arc count 14 * 3 * 2^3
    assert len(group) == 336 == s_arc_count(g, 4)


def test_group_cap_fires_during_closure(monkeypatch):
    # Sym(7) has 5040 elements; the orbit-pruned search finds a few
    # generators and the closure stops at the cap
    monkeypatch.setattr(autgrp, "DEFAULT_GROUP_CAP", 1000)
    with pytest.raises(GroupTooLargeError) as excinfo:
        automorphism_group(build_graph(7, []))
    assert excinfo.traceback[-1].name == "close_generators"


def test_search_finds_few_generators_under_any_labelling(rng):
    # an equal-code leaf unwinds the search to where its path leaves the
    # best leaf's, so each relabelling yields a handful of generators
    # (19 to 70 for these labellings without the unwinding)
    g = catalog_graph("tutte_coxeter")
    for _ in range(10):
        h = random_relabel(g, rng)
        res = autgrp._ir_search(h)
        assert len(res.generators) <= 8
        assert len(automorphism_group(h)) == 1440


def _count_calls(monkeypatch, name):
    from cubicsym import autgrp

    calls = []
    original = getattr(autgrp, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(autgrp, name, counted)
    return calls


def test_one_search_and_one_closure_per_uncolored_graph(monkeypatch):
    g = catalog_graph("petersen")
    searches = _count_calls(monkeypatch, "_ir_search")
    closures = _count_calls(monkeypatch, "close_generators")
    form = canonical_form(g)
    group = automorphism_group(g)
    assert automorphism_group(g) is group and canonical_form(g) == form
    assert (len(searches), len(closures)) == (1, 1)


def test_memo_keeps_one_graph(monkeypatch):
    g, h = catalog_graph("petersen"), catalog_graph("heawood")
    group = automorphism_group(g)
    searches = _count_calls(monkeypatch, "_ir_search")
    assert len(automorphism_group(h)) == 336
    # h evicted g: g is searched and closed again, into an equal group
    again = automorphism_group(g)
    assert len(searches) == 2
    assert again is not group and again == group


# ---------------------------------------------------------------------------
# canonical forms

def test_canonical_form_invariant_under_relabeling_heawood():
    rng = random.Random(3)
    g = catalog_graph("heawood")
    reference = canonical_form(g)
    for _ in range(100):
        assert canonical_form(random_relabel(g, rng)) == reference


def test_canonical_form_separates_non_isomorphic(rng):
    graphs = list(enumerate_cubic(10))
    forms = {canonical_form(g) for g in graphs}
    assert len(forms) == len(graphs) == 19


def test_is_isomorphic_examples():
    desargues_lcf = _lcf(20, [5, -5, 9, -9], 5)
    assert is_isomorphic(catalog_graph("desargues"), desargues_lcf)
    assert is_isomorphic(desargues_lcf, generalized_petersen(10, 3))
    assert not is_isomorphic(catalog_graph("k33"), build_graph(6, [(i, (i + 1) % 6) for i in range(6)]))


def test_canonical_form_of_edgeless_graph_returns_at_once():
    # an unpruned search visits all 12! leaves here; orbit pruning visits
    # O(n^2) of them
    start = time.perf_counter()
    form = canonical_form(build_graph(12, []))
    assert form == b"K" + b"?" * 11
    assert time.perf_counter() - start < 5.0


def test_canonical_form_is_a_graph6_string():
    from cubicsym import decode_graph6

    g = catalog_graph("petersen")
    form = canonical_form(g)
    assert is_isomorphic(decode_graph6(form.decode("ascii")), g)


def test_canonical_form_is_packed_from_the_leaf_code():
    # the string packed from the best leaf code is graph6 of the graph
    # relabelled canonically: over the profile grid, which holds every
    # fixed catalog graph, and on order 80, where the header takes 4 bytes
    from cubicsym import encode_graph6
    from cubicsym.autgrp import canonical_labeling
    from cubicsym.catalog import prism
    from test_profile_reference import GRID

    assert len(GRID) == 1103
    assert {catalog_graph(name) for name in FIXED_CATALOG} <= set(GRID)
    for g in GRID + [prism(40)]:
        relabelled = g.relabel(canonical_labeling(g))
        assert canonical_form(g) == encode_graph6(relabelled).encode("ascii")
    assert canonical_form(prism(40))[:4] == b"~?@O"  # 80 = 1 * 64 + 16


# ---------------------------------------------------------------------------
# partial map extension

def test_empty_partial_map_extends_to_identity():
    g = catalog_graph("petersen")
    p = extend_partial_map(g, {})
    assert p == tuple(range(10))


def test_k4_transposition_extension():
    g = catalog_graph("k4")
    p = extend_partial_map(g, {0: 0, 1: 1, 2: 3, 3: 2})
    assert p is not None
    assert p == (0, 1, 3, 2)


def test_petersen_pentagon_rotation_has_witness():
    g = catalog_graph("petersen")
    cyc = cycles_of_length(g, 5)[0]
    partial = {cyc[i]: cyc[(i + 1) % 5] for i in range(5)}
    p = extend_partial_map(g, partial)
    assert p is not None
    assert all(p[cyc[i]] == cyc[(i + 1) % 5] for i in range(5))


def test_extension_agrees_with_exhaustive_filter(rng):
    cases = []
    for trial in range(30):
        n = rng.choice((8, 10, 12, 14))
        g = random_cubic(n, rng, connected=True)
        k = rng.randrange(1, 4)
        sources = rng.sample(range(n), k)
        targets = rng.sample(range(n), k)
        cases.append((g, dict(zip(sources, targets))))
    for name in ("heawood", "tutte_coxeter"):
        g = catalog_graph(name)
        for vs in cycles_of_length(g, girth(g)):
            rotation = {vs[i]: vs[(i + 1) % len(vs)] for i in range(len(vs))}
            cases.append((g, rotation))
    for g, partial in cases:
        matches = [
            p
            for p in automorphism_group(g)
            if all(p[s] == t for s, t in partial.items())
        ]
        # the least match by image sequence, or None when there is none
        assert extend_partial_map(g, partial) == (matches[0] if matches else None)


def test_non_injective_partial_map_rejected():
    with pytest.raises(ValueError):
        extend_partial_map(catalog_graph("k4"), {0: 1, 2: 1})


def test_deterministic_witness():
    g = catalog_graph("heawood")
    a = extend_partial_map(g, {0: 1})
    b = extend_partial_map(g, {0: 1})
    assert a == b
