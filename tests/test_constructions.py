"""Catalog entries, truncation machinery, and the cycle quotient."""

import itertools

import pytest

from cubicsym import (
    CatalogError,
    QuotientError,
    build_graph,
    catalog_build,
    catalog_graph,
    classic_truncation,
    cycle_quotient,
    distinguishing_cost,
    generalized_truncation,
    girth,
    is_isomorphic,
    seeded_orders,
    transitivity_profile,
)
from cubicsym.catalog import (
    catalog_names,
    complete_graph,
    cycle_graph,
    edgeless_graph,
    generalized_petersen,
    icosahedron,
    _lcf,
)

EXPECTED_TABLE = {
    # name: (order, size, girth)
    "k4": (4, 6, 3),
    "k33": (6, 9, 4),
    "cube": (8, 12, 4),
    "petersen": (10, 15, 5),
    "dodecahedron": (20, 30, 5),
    "desargues": (20, 30, 6),
    "heawood": (14, 21, 6),
    "pappus": (18, 27, 6),
    "tutte_coxeter": (30, 45, 8),
    "icosahedron": (12, 30, 3),
    "base_graph": (12, 12, 6),
    "omega18": (18, 21, 6),
    "fig5_lambda": (18, 27, 6),
    "truncated_icosahedron": (60, 90, 5),
    "truncated_k4": (12, 18, 3),
}


def test_catalog_expected_table():
    for name, (n, m, g) in EXPECTED_TABLE.items():
        graph = catalog_graph(name)
        assert (graph.n, graph.m, girth(graph)) == (n, m, g), name


def test_catalog_names_cover_table():
    names = set(catalog_names())
    for name in EXPECTED_TABLE:
        assert name in names


def test_parametric_names():
    assert catalog_graph("gp(5,2)") == catalog_graph("petersen")
    assert catalog_graph("prism(5)").n == 10
    assert catalog_graph("moebius(3)").n == 6
    assert is_isomorphic(catalog_graph("moebius(3)"), catalog_graph("k33"))
    assert catalog_graph("path_ladder(4)").n == 8


def test_unknown_and_invalid_names():
    with pytest.raises(CatalogError):
        catalog_build("nosuch")
    with pytest.raises(CatalogError):
        catalog_build("gp(4,2)")  # 2k = n
    with pytest.raises(CatalogError):
        catalog_build("prism(2)")
    with pytest.raises(CatalogError):
        catalog_build("petersen(3)")
    # an empty field is a non-integer parameter, not a dropped one; a bare
    # `k4()` has no fields and stays accepted
    for name in ("gp(5,,2)", "gp(,5,2)", "prism(5,)"):
        with pytest.raises(CatalogError, match="non-integer parameter"):
            catalog_build(name)
    assert catalog_build("k4()") == catalog_build("k4")


def test_negative_parameters_get_the_family_range_errors():
    # a hyphen is a minus sign among the parameters and an underscore only
    # in the base name
    with pytest.raises(CatalogError, match=r"^prism needs k >= 3$"):
        catalog_build("prism(-1)")
    with pytest.raises(CatalogError,
                       match=r"^invalid generalized Petersen parameters \(10, -3\)$"):
        catalog_build("gp(10,-3)")
    with pytest.raises(CatalogError, match="non-integer parameter"):
        catalog_build("gp(10,x)")
    assert catalog_build("truncated-icosahedron").name == "truncated_icosahedron"
    assert catalog_build("path-ladder(3)").name == "path_ladder(3)"
    assert catalog_graph("path-ladder(3)") == catalog_graph("path_ladder", 3)


def test_omega18_has_six_pendant_vertices():
    g = catalog_graph("omega18")
    assert sum(1 for v in range(g.n) if g.degree(v) == 1) == 6


def test_fig5_lambda_is_cubic_of_girth_6():
    g = catalog_graph("fig5_lambda")
    assert g.is_cubic() and girth(g) == 6


def fano_incidence_graph():
    """Independent Heawood oracle: point-line incidence of the 7-point
    projective plane (lines = (i, i+1, i+3) mod 7)."""
    lines = [frozenset(((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    edges = [
        (p, 7 + li) for li, line in enumerate(lines) for p in line
    ]
    return build_graph(14, edges)


def test_heawood_is_the_fano_incidence_graph():
    assert is_isomorphic(catalog_graph("heawood"), fano_incidence_graph())


def test_pappus_matches_lcf_form():
    assert is_isomorphic(
        catalog_graph("pappus"), _lcf(18, [5, 7, -7, 7, -7, -5], 3)
    )


def tutte_coxeter_duad_syntheme():
    """Independent oracle: duads vs synthemes of a 6-element set."""
    duads = list(itertools.combinations(range(6), 2))
    index = {d: i for i, d in enumerate(duads)}
    synthemes = []
    for part in itertools.permutations(range(1, 6)):
        a, b, c, d, e = part
        cand = frozenset({(0, a), tuple(sorted((b, c))), tuple(sorted((d, e)))})
        if len({x for pair in cand for x in pair}) == 6:
            synthemes.append(cand)
    synthemes = sorted(set(synthemes), key=sorted)
    assert len(synthemes) == 15
    edges = [
        (index[duad], 15 + si)
        for si, syn in enumerate(synthemes)
        for duad in syn
    ]
    return build_graph(30, edges)


def test_tutte_coxeter_is_the_duad_syntheme_graph():
    assert is_isomorphic(
        catalog_graph("tutte_coxeter"), tutte_coxeter_duad_syntheme()
    )


def test_desargues_is_gp_10_3():
    assert catalog_graph("desargues") == generalized_petersen(10, 3)
    assert is_isomorphic(catalog_graph("desargues"), _lcf(20, [5, -5, 9, -9], 5))


# ---------------------------------------------------------------------------
# labelings

def test_adjacency_labeling_on_k4():
    k4 = complete_graph(4)
    t = generalized_truncation(k4, k4.adj, edgeless_graph(3))
    # arc (u, adj[u][i]) ends at u * 3 + i, and adj[0] is (1, 2, 3)
    assert t.adj[:3] == ((3,), (6,), (9,))


def test_rotation_labeling_follows_cyclic_order():
    g, rot = icosahedron()
    t = generalized_truncation(g, rot, edgeless_graph(5))
    for v in range(g.n):
        for pos, w in enumerate(rot[v]):
            assert t.adj[v * 5 + pos] == (w * 5 + rot[w].index(v),)


def test_seeded_labeling_is_reproducible():
    g = catalog_graph("heawood")
    a = seeded_orders(g, 7)
    assert a == seeded_orders(g, 7)
    assert a != seeded_orders(g, 8)
    assert all(sorted(row) == list(g.adj[u]) for u, row in enumerate(a))


def test_rotation_for_wrong_graph_rejected():
    _, rot = icosahedron()
    dodecahedron = catalog_graph("dodecahedron")
    with pytest.raises(ValueError):  # wrong length
        generalized_truncation(catalog_graph("petersen"), rot, cycle_graph(3))
    with pytest.raises(ValueError):  # rows that are not the neighbor sets
        generalized_truncation(dodecahedron, rot + rot[:8], cycle_graph(3))
    k4 = complete_graph(4)
    with pytest.raises(ValueError):  # a repeated neighbor
        generalized_truncation(k4, ((1, 1, 2),) + k4.adj[1:], cycle_graph(3))


# ---------------------------------------------------------------------------
# generalized truncation

def test_truncated_icosahedron_full_profile():
    g = catalog_graph("truncated_icosahedron")
    assert g.n == 60 and g.is_cubic()
    assert girth(g) == 5
    profile = transitivity_profile(g)
    assert profile.vertex_transitive and profile.edge_orbit_count == 2


def test_truncation_of_k4_by_triangle_matches_classic():
    k4 = complete_graph(4)
    t = generalized_truncation(k4, k4.adj, cycle_graph(3))
    assert t.n == 12 and t.is_cubic()
    assert is_isomorphic(t, classic_truncation(k4))


def test_truncation_by_edgeless_graph_gives_perfect_matching():
    k4 = complete_graph(4)
    t = generalized_truncation(k4, k4.adj, edgeless_graph(3))
    assert all(t.degree(v) == 1 for v in range(t.n))


def test_truncation_order_and_degree_laws():
    cases = [
        ("k33", cycle_graph(3)),
        ("petersen", cycle_graph(3)),
        ("icosahedron", cycle_graph(5)),
        ("icosahedron", edgeless_graph(5)),
    ]
    for name, y in cases:
        entry = catalog_build(name)
        host = entry.graph
        k = y.n
        t = generalized_truncation(host, host.adj, y)
        assert t.n == k * host.n
        for u in range(host.n):
            for i in range(k):
                assert t.degree(u * k + i) == y.degree(i) + 1


def test_truncation_preconditions():
    k4 = complete_graph(4)
    with pytest.raises(ValueError):
        generalized_truncation(k4, k4.adj, cycle_graph(4))  # |Y| != degree
    with pytest.raises(ValueError):
        classic_truncation(catalog_graph("base_graph"))  # not cubic


# ---------------------------------------------------------------------------
# classic truncation

def test_classic_truncation_k33():
    t = classic_truncation(catalog_graph("k33"))
    assert t.n == 18 and girth(t) == 3
    assert distinguishing_cost(t).cost == 3


def test_classic_truncation_k4_triangles():
    from conftest import cycles_of_length

    t = classic_truncation(complete_graph(4))
    assert t.n == 12 and girth(t) == 3
    assert len(cycles_of_length(t, 3)) == 4


def test_classic_truncation_labeling_independent():
    g = catalog_graph("heawood")
    reference = classic_truncation(g)
    for seed in range(20):
        assert is_isomorphic(classic_truncation(g, seeded_orders(g, seed)), reference)


# ---------------------------------------------------------------------------
# cycle quotient

def test_quotient_of_truncated_icosahedron_is_icosahedron():
    t = catalog_graph("truncated_icosahedron")
    orbit = transitivity_profile(t).orbit_with_tag("disjoint-cycles")
    q = cycle_quotient(t, orbit)
    ico, _ = icosahedron()
    assert is_isomorphic(q, ico)


def test_quotient_of_truncated_k4_is_k4():
    t = classic_truncation(complete_graph(4))
    orbit = transitivity_profile(t).orbit_with_tag("disjoint-cycles")
    q = cycle_quotient(t, orbit)
    assert is_isomorphic(q, complete_graph(4))


def test_quotient_rejects_multi_edges():
    prism5 = catalog_graph("prism(5)")
    orbit = transitivity_profile(prism5).orbit_with_tag("disjoint-cycles")
    assert orbit is not None  # the two pentagons
    with pytest.raises(QuotientError):
        cycle_quotient(prism5, orbit)


def test_quotient_rejects_non_covering_orbit():
    with pytest.raises(QuotientError):
        cycle_quotient(catalog_graph("petersen"),
                       [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def test_truncation_quotient_round_trip():
    for name, y in (("icosahedron", cycle_graph(5)), ("k4", cycle_graph(3))):
        entry = catalog_build(name)
        orders = entry.rotation or entry.graph.adj
        t = generalized_truncation(entry.graph, orders, y)
        orbit = [
            tuple(sorted((u * y.n + a, u * y.n + b)))
            for u in range(entry.graph.n)
            for a, b in y.edges()
        ]
        q = cycle_quotient(t, orbit)
        assert is_isomorphic(q, entry.graph)
