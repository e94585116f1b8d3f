"""Tests of the benchmark's oracles against published values.

    python3 -m pytest -q perfbench
"""

import json
from pathlib import Path

import pytest

import oracles
import run

# OEIS A004109: labelled connected cubic graphs on n = 4, 6, ..., 16
A004109 = [1, 70, 19320, 11166120, 11543439600, 19491385914000,
           50233275604512000]


def test_labelled_connected_counts_match_a004109():
    assert [oracles.labelled_connected_cubic(n) for n in range(4, 17, 2)] == A004109


def test_labelled_counts_of_odd_orders_vanish():
    assert oracles.labelled_cubic(7) == 0


def prism(k):
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return oracles.from_edges(2 * k, edges)


def moebius(k):
    n = 2 * k
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, i + k) for i in range(k)]
    return oracles.from_edges(n, edges)


CONSTRUCTIONS = {
    "k4": oracles.complete_4,
    "k33": oracles.complete_bipartite_33,
    "cube": lambda: oracles.generalized_petersen(4, 1),
    "petersen": lambda: oracles.generalized_petersen(5, 2),
    "dodecahedron": lambda: oracles.generalized_petersen(10, 2),
    "desargues": lambda: oracles.generalized_petersen(10, 3),
    "heawood": oracles.heawood,
    "pappus": lambda: oracles.lcf(18, [5, 7, -7, 7, -7, -5], 3),
    "tutte_coxeter": lambda: oracles.lcf(30, [-13, -9, 7, -7, 9, 13], 5),
    "gp(8,3)": lambda: oracles.generalized_petersen(8, 3),
    "gp(12,5)": lambda: oracles.generalized_petersen(12, 5),
    "gp(13,5)": lambda: oracles.generalized_petersen(13, 5),
    "gp(7,2)": lambda: oracles.generalized_petersen(7, 2),
    "prism(7)": lambda: prism(7),
    "moebius(5)": lambda: moebius(5),
    "f26a": oracles.f26a,
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_group_order_max_s_and_transitivity_match_the_table(name):
    adj = CONSTRUCTIONS[name]()
    autos = oracles.automorphisms(adj)
    got = (len(autos), oracles.max_s(adj, autos),
           oracles.vertex_transitive(adj, autos))
    assert got == oracles.CLASSICAL[name][:3]


@pytest.mark.parametrize("name", sorted(oracles.ARC_TRANSITIVE_UP_TO_16))
def test_arc_transitive_list(name):
    build, s = oracles.ARC_TRANSITIVE_UP_TO_16[name]
    adj = build()
    autos = oracles.automorphisms(adj)
    assert oracles.max_s(adj, autos) == s
    assert len(adj) <= 16 and len(adj) != 12


def test_automorphisms_are_automorphisms():
    adj = oracles.heawood()
    edges = {(u, w) for u in range(len(adj)) for w in adj[u]}
    for p in oracles.automorphisms(adj):
        assert sorted(p) == list(range(len(adj)))
        assert {(p[u], p[w]) for u, w in edges} == edges


def test_disconnected_graph_is_rejected():
    two_k4 = oracles.from_edges(
        8, [(i, j) for i in range(4) for j in range(i + 1, 4)]
        + [(4 + i, 4 + j) for i in range(4) for j in range(i + 1, 4)])
    with pytest.raises(ValueError):
        oracles.count_automorphisms(two_k4)


def test_isomorphism():
    heawood = oracles.heawood()
    images = [(5 * v + 3) % 14 for v in range(14)]
    assert oracles.is_isomorphic(heawood, oracles.relabel(heawood, images))
    assert not oracles.is_isomorphic(heawood, oracles.generalized_petersen(7, 2))


def test_graph6_round_trip_and_known_string():
    assert oracles.encode_graph6(oracles.complete_4()) == "C~"
    for build in CONSTRUCTIONS.values():
        adj = build()
        assert oracles.decode_graph6(oracles.encode_graph6(adj)) == adj
    with pytest.raises(ValueError):
        oracles.decode_graph6("C~~")


def test_setwise_stabilizer():
    autos = oracles.automorphisms(oracles.generalized_petersen(8, 3))
    assert not oracles.setwise_stabilizer_trivial(autos, [0])
    assert oracles.setwise_stabilizer_trivial(autos, [0, 1, 3])


def g6s(*graphs):
    return sorted(oracles.encode_graph6(g) for g in graphs)


def test_census_identity_accepts_the_order_6_census():
    assert oracles.census_level_problems(6, g6s(oracles.complete_bipartite_33(), prism(3))) == []
    assert oracles.census_level_problems(4, g6s(oracles.complete_4())) == []


def test_census_identity_catches_a_missing_class():
    assert oracles.census_level_problems(6, g6s(prism(3)))


def test_census_identity_catches_a_duplicate_class():
    k33 = oracles.complete_bipartite_33()
    other = oracles.relabel(k33, [0, 3, 1, 4, 2, 5])
    census = g6s(k33, other)
    assert len(set(census)) == 2
    assert oracles.census_level_problems(6, census)


def test_census_identity_catches_a_graph_that_is_not_cubic():
    path = oracles.from_edges(6, [(i, i + 1) for i in range(5)])
    assert oracles.census_level_problems(6, g6s(oracles.complete_bipartite_33(), path))


def report(hits, verdict="Pass", scanned=621):
    return {"verdict": verdict, "graphs_scanned": scanned,
            "hypothesis_hits": [oracles.encode_graph6(h) for h in hits], "notes": []}


def test_census_claim_hits():
    k33 = oracles.complete_bipartite_33()
    cube = oracles.generalized_petersen(4, 1)
    assert oracles.census_claim_problems("thm41-g4", report([cube, k33]), 14) == []
    assert oracles.census_claim_problems("thm41-g4", report([k33]), 14)
    assert oracles.census_claim_problems("thm41-g4", report([k33, cube, cube]), 14)
    assert oracles.census_claim_problems("thm41-g4", report([k33, cube], "Fail"), 14)
    assert oracles.census_claim_problems("thm41-g4", report([k33, cube], scanned=620), 14)
    assert oracles.census_claim_problems("cor410", report([]), 14) == []


def test_input_claim_needs_the_truncated_icosahedron():
    problems = oracles.input_claim_problems("thm34", report([oracles.heawood()], scanned=1))
    assert any("not the truncated icosahedron" in p for p in problems)
    assert any("cost 2" in p for p in problems)


def test_benchmark_json_lists_the_metrics_run_py_prints():
    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
