"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time (run with `pytest -v -s` to see them live).

The census-backed criteria share the enumeration cache within the
session; generation runs with 4 workers as the criteria specify.
"""

import hashlib
import random
import time
from math import factorial

import pytest

from cubicsym import (
    automorphism_group,
    close_generators,
    canonical_form,
    catalog_graph,
    consistent_cycles,
    decode_graph6,
    distinguishing_cost,
    encode_graph6,
    enumerate_cubic,
    enumerate_cubic_graph6,
    every_3_arc_in_6_cycle,
    every_edge_in_girth_cycle,
    girth,
    is_distinguishing_set,
    local_action_order,
    local_fixity_check,
    orbits,
    stabilizer,
    transitivity_profile,
    verify_claim,
)
from cubicsym import enumeration
from cubicsym.autgrp import search_generators
from cubicsym.claims import brbb_unique_path_property

from conftest import (
    backtracking_automorphisms,
    enumerate_cubic_bruteforce,
    labelled_connected_cubic,
    random_cubic,
    random_relabel,
    setwise_trivial,
)

JOBS = 4


class _Timer:
    def __init__(self, label: str, budget_s: float):
        self.label = label
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[acceptance] {self.label}: {status} ({elapsed:.1f}s, "
              f"budget {self.budget:.0f}s)")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"{self.label} exceeded its budget: {elapsed:.1f}s"
            )
        return False


def test_criterion_01_costs_match_the_table():
    for name, expected in (("heawood", 5), ("pappus", 3), ("desargues", 3)):
        with _Timer(f"criterion 1 [rho({name}) = {expected}]", 60):
            res = distinguishing_cost(catalog_graph(name))
            assert res.is_cost and res.cost == expected
            assert is_distinguishing_set(catalog_graph(name), res.witness)


def test_criterion_02_the_four_exceptions():
    with _Timer("criterion 2 [K4, K33, cube, Petersen not 2-distinguishable]",
                10):
        for name in ("k4", "k33", "cube", "petersen"):
            res = distinguishing_cost(catalog_graph(name))
            assert res.kind == "not-two-distinguishable", name


def test_criterion_03_figure5_graph():
    with _Timer("criterion 3 [order-18 figure graph]", 5):
        lam = catalog_graph("fig5_lambda")
        assert len(automorphism_group(lam)) == 24
        assert not transitivity_profile(lam).vertex_transitive
        assert girth(lam) == 6
        assert every_edge_in_girth_cycle(lam, 6)
        assert not every_3_arc_in_6_cycle(lam)


def test_criterion_04_girth_4_and_5_census():
    with _Timer("criterion 4 [girth-4/5 classification census]", 600):
        r4 = verify_claim("thm41-g4", n_max=14, jobs=JOBS)
        assert r4.verdict == "Pass"
        allowed4 = {canonical_form(catalog_graph(n)).decode("ascii")
                    for n in ("k33", "cube")}
        assert set(r4.hypothesis_hits) <= allowed4
        r5 = verify_claim("thm41-g5", n_max=16, jobs=JOBS)
        assert r5.verdict == "Pass"
        petersen = {canonical_form(catalog_graph("petersen")).decode("ascii")}
        assert set(r5.hypothesis_hits) == petersen


# sha256 of the sorted census level, each string followed by "\n"
LEVEL_SHA256 = {
    16: "de3ab23240202ab97013a1aa5990809aaaf7a444f02c07e96a5c36de1b81c068",
    18: "b5b63ba26add99a0858467fd042aef8f93fd1033be20a0998a31d68ea884d0af",
}


@pytest.mark.parametrize("n", sorted(LEVEL_SHA256))
def test_criterion_05_census_levels_are_pinned(n):
    # the levels of criterion 5 (16 built by criterion 4, 18 here), each
    # kept with its classes' generators; the mass formula over the orders
    # the carried generators close to sees a missing class that a
    # duplicate hides
    strings, generators = enumeration._level(n, JOBS)
    text = "".join(s + "\n" for s in sorted(strings))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == LEVEL_SHA256[n]
    labelled = sum(factorial(n) // len(close_generators(gens, n))
                   for gens in generators)
    assert labelled == labelled_connected_cubic(n)


def test_criterion_05_girth_6_census():
    with _Timer("criterion 5 [girth-6 classification census, n <= 18]", 1800):
        report = verify_claim("thm44-g6", n_max=18, jobs=JOBS)
        assert report.verdict == "Pass"
        expected = {canonical_form(catalog_graph(n)).decode("ascii")
                    for n in ("heawood", "pappus")}
        assert set(report.hypothesis_hits) == expected
        assert any("desargues" in note for note in report.notes)


def test_criterion_06_consistent_cycle_spot_suite():
    with _Timer("criterion 6 [consistent girth cycles with witnesses]", 5):
        for name, length in (("petersen", 5), ("heawood", 6)):
            g = catalog_graph(name)
            pairs = consistent_cycles(g, length)
            assert pairs
            group_images = set(automorphism_group(g))
            for cyc, witness in pairs:
                assert witness in group_images
                assert all(
                    witness[cyc[i]] == cyc[(i + 1) % len(cyc)]
                    for i in range(len(cyc))
                )


def test_criterion_07_truncation_end_to_end():
    with _Timer("criterion 7 [truncated icosahedron end to end]", 120):
        g = catalog_graph("truncated_icosahedron")
        assert g.n == 60
        assert girth(g) == 5
        profile = transitivity_profile(g)
        assert profile.vertex_transitive
        assert profile.edge_orbit_count == 2
        kinds = sorted(t.kind for t in profile.edge_orbit_tags)
        assert kinds == ["disjoint-cycles", "perfect-matching"]
        assert profile.vertex_stabilizer_order == 2
        res = distinguishing_cost(g)
        assert res.is_cost and res.cost == 2
        assert brbb_unique_path_property(g)


def test_criterion_08_stabilizer_order_checks():
    with _Timer("criterion 8 [stabilizer orders 10 and 2]", 10):
        ico = catalog_graph("icosahedron")
        group = automorphism_group(ico)
        assert len(stabilizer(group, [0])) == 10
        assert local_action_order(ico, 0) == 10
        tico = catalog_graph("truncated_icosahedron")
        order = transitivity_profile(tico).vertex_stabilizer_order
        assert order in (1, 2, 4)
        assert order == 2


def test_criterion_09_local_fixity_on_icosahedron():
    with _Timer("criterion 9 [edge fixity on the icosahedron]", 10):
        ico = catalog_graph("icosahedron")
        assert all(local_fixity_check(ico, e) for e in ico.edges())


def test_criterion_10_enumeration_counts_and_jobs_invariance():
    with _Timer("criterion 10 [counts vs brute-force oracle]", 300):
        from cubicsym.enumeration import _LEVEL_CACHE

        oracle = {n: enumerate_cubic_bruteforce(n) for n in (4, 6, 8, 10)}
        _LEVEL_CACHE.clear()
        jobs1 = {n: enumerate_cubic_graph6(n, jobs=1) for n in (4, 6, 8, 10)}
        _LEVEL_CACHE.clear()
        jobs4 = {n: enumerate_cubic_graph6(n, jobs=4) for n in (4, 6, 8, 10)}
        for n in (4, 6, 8, 10):
            assert tuple(jobs1[n]) == tuple(oracle[n])
            assert tuple(jobs4[n]) == tuple(oracle[n])


def test_criterion_11_property_suites():
    with _Timer("criterion 11 [property suites]", 300):
        rng = random.Random(11)
        # graph6 round-trip on 1000 random cubic graphs
        for _ in range(1000):
            n = rng.choice((4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24))
            g = random_cubic(n, rng)
            assert decode_graph6(encode_graph6(g)) == g
        # canonical-form relabeling invariance, 100 x 5 catalog graphs
        for name in ("k33", "petersen", "heawood", "pappus", "fig5_lambda"):
            g = catalog_graph(name)
            ref = canonical_form(g)
            for _ in range(100):
                assert canonical_form(random_relabel(g, rng)) == ref
        # orbit-stabilizer identity on every fixed-size catalog graph
        for name in ("k4", "k33", "cube", "petersen", "dodecahedron",
                     "desargues", "heawood", "pappus", "tutte_coxeter",
                     "icosahedron", "base_graph", "omega18", "fig5_lambda",
                     "truncated_icosahedron", "truncated_k4"):
            g = catalog_graph(name)
            group = automorphism_group(g)
            for block in orbits(search_generators(g), range(g.n)):
                st = stabilizer(group, [block[0]])
                assert len(block) * len(st) == len(group)
        # distinguishing sets vs a filter over backtracked automorphisms
        # on 200 random pairs
        for _ in range(200):
            n = rng.choice((8, 10, 12))
            g = random_cubic(n, rng, connected=True)
            s = rng.sample(range(n), rng.randrange(0, n + 1))
            autos = backtracking_automorphisms(g)
            assert is_distinguishing_set(g, s) == setwise_trivial(autos, s)


def test_criterion_12_prior_work_regressions():
    with _Timer("criterion 12 [cost regressions and census GRRs]", 600):
        from cubicsym import classic_truncation

        t = classic_truncation(catalog_graph("k33"))
        assert distinguishing_cost(t).cost == 3
        for k in (5, 6):
            assert distinguishing_cost(catalog_graph(f"moebius({k})")).cost == 3
        grr_count = 0
        for n in (4, 6, 8, 10, 12, 14):
            for g in enumerate_cubic(n, jobs=JOBS):
                if transitivity_profile(g).stabilizer_class == "grr":
                    grr_count += 1
                    assert distinguishing_cost(g).cost == 1
        print(f"\n[acceptance] criterion 12: {grr_count} cubic GRRs found "
              f"for n <= 14")
