"""Claim verifiers over small census ranges (the acceptance suite runs
the full stated ranges)."""

import dataclasses
import sys
from collections import Counter

import pytest

import cubicsym.graph
from cubicsym import (
    CLAIM_IDS,
    UnknownClaimError,
    canonical_form,
    catalog_graph,
    catalog_names,
    decode_graph6,
    encode_graph6,
    enumerate_cubic_graph6,
    filtered_enumeration,
    girth,
    transitivity_profile,
    verify_claim,
)
from cubicsym import claims, consistent_cycles, distinguishing_cost
from cubicsym.autgrp import canonical_class
from cubicsym.claims import CLAIMS, INPUT_CLAIMS, PREDICATES, Record
from cubicsym.symmetry import MAX_S

from conftest import distance_profiles, every_edge_in_cycle, random_relabel


def forms(*names):
    return {canonical_form(catalog_graph(n)).decode("ascii") for n in names}


def test_thm41_g4_small_range():
    report = verify_claim("thm41-g4", n_max=12)
    assert report.verdict == "Pass"
    assert set(report.hypothesis_hits) <= forms("k33", "cube")
    assert forms("k33") <= set(report.hypothesis_hits)


def test_thm41_g5_small_range():
    report = verify_claim("thm41-g5", n_max=12)
    assert report.verdict == "Pass"
    assert set(report.hypothesis_hits) == forms("petersen")
    assert any("dodecahedron" in note for note in report.notes)


def test_thm44_g6_small_range():
    report = verify_claim("thm44-g6", n_max=14)
    assert report.verdict == "Pass"
    assert set(report.hypothesis_hits) == forms("heawood")


def test_lem45_and_lem46_small_range():
    for claim in ("lem45", "lem46"):
        report = verify_claim(claim, n_max=12)
        assert report.verdict == "Pass"


def test_cor49_small_range():
    report = verify_claim("cor49", n_max=14)
    assert report.verdict == "Pass"
    assert set(report.hypothesis_hits) == forms("heawood")


# the hits of each census claim at n <= 16: the cubic arc-transitive graphs
# of the Foster census that meet its hypothesis
HITS_TO_16 = {
    "thm41-g4": ("k33", "cube"),
    "thm41-g5": ("petersen",),
    "thm44-g6": ("heawood",),
    "lem45": ("petersen", "heawood"),
    "lem46": ("heawood",),
    "cor49": ("heawood", "gp(8,3)"),
    "cor410": ("gp(8,3)",),
}


@pytest.mark.parametrize("claim_id", sorted(HITS_TO_16))
def test_census_claim_hits_to_16(claim_id):
    assert sorted(HITS_TO_16) == [c for c in CLAIM_IDS if c not in INPUT_CLAIMS]
    report = verify_claim(claim_id, n_max=16)
    assert report.verdict == "Pass"
    assert sorted(report.hypothesis_hits) == sorted(forms(*HITS_TO_16[claim_id]))


def test_a_claim_fails_when_a_named_graph_in_range_is_no_hit(monkeypatch,
                                                              empty_memos):
    # a histogram test broken on the Heawood graph drops cor49's one hit
    heawood = canonical_form(catalog_graph("heawood")).decode("ascii")
    ball_facts = claims.girth_and_histograms

    def broken(graph):
        length, agree = ball_facts(graph)
        return length, agree and encode_graph6(graph) != heawood

    monkeypatch.setattr(claims, "girth_and_histograms", broken)
    report = verify_claim("cor49", n_max=14)
    assert report.verdict == "Fail"
    assert report.hypothesis_hits == []
    assert report.counterexample == heawood
    assert report.notes == [
        "heawood, of order 14 in the scanned range, is not a hypothesis hit"]


@pytest.mark.parametrize("claim_id", ["cor410", "cor49"])
def test_a_census_claim_names_a_hit_no_conclusion_reads(monkeypatch,
                                                        empty_memos, claim_id):
    # a histogram test broken on the Moebius-Kantor graph GP(8,3) alone
    # drops a hit that neither conclusion reads; both claims name it
    gp83 = canonical_form(catalog_graph("gp(8,3)")).decode("ascii")
    ball_facts = claims.girth_and_histograms

    def broken(graph):
        length, agree = ball_facts(graph)
        return length, agree and encode_graph6(graph) != gp83

    monkeypatch.setattr(claims, "girth_and_histograms", broken)
    report = verify_claim(claim_id, n_max=16)
    assert report.verdict == "Fail"
    assert report.counterexample == gp83
    assert report.notes == [
        "gp(8,3), of order 16 in the scanned range, is not a hypothesis hit"]


def test_a_census_claim_fails_when_an_exclusion_is_stale(monkeypatch):
    for n_max in (4, 14, 16):
        assert verify_claim("cor410", n_max=n_max).verdict == "Pass"
    # the truncated K4 (n = 12) is vertex- but not arc-transitive
    cor410 = CLAIMS["cor410"]
    monkeypatch.setitem(CLAIMS, "cor410", dataclasses.replace(
        cor410, excluded=cor410.excluded + ("truncated_k4",)))
    assert verify_claim("cor410", n_max=10).verdict == "Pass"
    report = verify_claim("cor410", n_max=14)
    assert report.verdict == "Fail"
    assert report.counterexample == forms("truncated_k4").pop()
    assert report.notes == [
        "truncated_k4, of order 12 in the scanned range, does not meet the "
        "hypothesis; its exclusion is stale"]


def test_an_input_claim_keeps_an_exclusion_its_inputs_miss():
    # cor33 excludes the Petersen graph; an input of the same order that
    # is not it says nothing about the exclusion
    report = verify_claim("cor33", inputs=["prism(5)"])
    assert report.n_range == (10, 10)
    assert report.verdict == "Pass"


def test_girth_cycle_step_lists_no_cycles():
    assert not hasattr(cubicsym.graph, "cycles_of_length")
    test = PREDICATES["every-edge-in-girth-cycle"].test
    records = list(claims._census(range(4, 13, 2), 1))
    assert len(records) == 1 + 2 + 5 + 19 + 85
    passed = [r.g6 for r in records if test(r, None)]
    assert passed == [r.g6 for r in records
                      if every_edge_in_cycle(r.graph, r.girth)]
    assert len(passed) > 3


def test_cor410_small_range():
    report = verify_claim("cor410", n_max=12)
    assert report.verdict == "Pass"


def test_thm34_default_input():
    report = verify_claim("thm34")
    assert report.verdict == "Pass"
    assert report.graphs_scanned == 1
    assert any("cost 2" in note for note in report.notes)


def test_thm34_skips_non_qualifying_inputs():
    report = verify_claim("thm34", inputs=["petersen"])
    assert report.verdict == "Pass"  # vacuous: hypothesis never satisfied
    assert report.hypothesis_hits == []
    assert any("skipped" in note for note in report.notes)


def test_cor33_default_input():
    report = verify_claim("cor33")
    assert report.verdict == "Pass"
    assert any("|G_v| = 2" in note for note in report.notes)


def test_unknown_claim_rejected():
    with pytest.raises(UnknownClaimError):
        verify_claim("nosuch")


def test_census_claim_rejects_inputs():
    with pytest.raises(ValueError, match="thm34, cor33"):
        verify_claim("lem45", n_max=6, inputs=["k4"])


def test_report_serialization():
    report = verify_claim("thm41-g4", n_max=8)
    payload = report.to_dict()
    assert payload["verdict"] == "Pass"
    assert payload["claim"] == "thm41-g4"
    assert "Pass" in report.summary()


def test_fail_reports_carry_a_reproducible_witness():
    from cubicsym import decode_graph6, is_isomorphic
    from cubicsym.claims import ClaimReport

    report = ClaimReport("demo", (10, 10), 1)
    g = catalog_graph("petersen")
    report.fail(canonical_form(g).decode("ascii"),
                "synthetic failure for the serialization contract")
    assert report.verdict == "Fail"
    assert is_isomorphic(decode_graph6(report.counterexample), g)
    assert "counterexample" in report.summary()


# ---------------------------------------------------------------------------
# one predicate registry for the claims and the enumeration filter

@pytest.mark.parametrize(
    "claim_id", [c for c in CLAIM_IDS if c not in INPUT_CLAIMS]
)
def test_census_hits_equal_filtered_enumeration(claim_id):
    claim = CLAIMS[claim_id]
    excluded = {canonical_form(catalog_graph(n)) for n in claim.excluded}
    expected = []
    for n in range(4, 13, 2):
        for g6 in filtered_enumeration(n, claim.hypothesis):
            form = canonical_form(decode_graph6(g6))
            if form not in excluded:
                expected.append(form.decode("ascii"))
    assert verify_claim(claim_id, n_max=12).hypothesis_hits == expected


def _histograms_agree(graph):
    return len(set(distance_profiles(graph)[1])) == 1


def _census_g6(n_max):
    return [g6 for n in range(4, n_max + 1, 2) for g6 in enumerate_cubic_graph6(n)]


def _counting_profiles(monkeypatch):
    """Graphs passed to the profile the records compute, in call order."""
    calls = []
    profile = claims.transitivity_profile

    def counting(graph):
        calls.append(encode_graph6(graph))
        return profile(graph)

    monkeypatch.setattr(claims, "transitivity_profile", counting)
    return calls


def test_filtered_enumeration_profiles_each_graph_once(monkeypatch, empty_memos):
    # only the census graphs whose distance histograms agree reach the
    # group, each once: 3 of the 5 graphs at n = 8
    calls = _counting_profiles(monkeypatch)
    hits = list(filtered_enumeration(8, ["vertex-transitive", "edge-orbits=2"]))
    assert hits
    expected = [g6 for g6 in enumerate_cubic_graph6(8)
                if _histograms_agree(decode_graph6(g6))]
    assert calls == expected
    assert len(calls) == 3


def test_cor410_profiles_only_graphs_whose_histograms_agree(monkeypatch,
                                                            empty_memos):
    calls = _counting_profiles(monkeypatch)
    assert verify_claim("cor410", n_max=12).verdict == "Pass"
    census = _census_g6(12)
    expected = [g6 for g6 in census if _histograms_agree(decode_graph6(g6))]
    assert calls == expected
    assert (len(calls), len(census)) == (17, 112)


def test_histogram_condition_is_necessary_for_vertex_transitivity(rng):
    graphs = [decode_graph6(g6) for g6 in _census_g6(12)]
    graphs += [catalog_graph(name) for name in catalog_names()
               if not name.endswith("(...)")]
    graphs += [random_relabel(g, rng) for g in graphs]
    transitive = 0
    for g in graphs:
        if transitivity_profile(g).vertex_transitive:
            transitive += 1
            assert Record(*canonical_class(g)).histograms_agree, encode_graph6(g)
    assert transitive > 0


def test_prefiltered_predicates_agree_with_the_profile():
    for g6 in _census_g6(12):
        graph = decode_graph6(g6)
        cls = canonical_class(graph)
        assert cls[0] == g6  # a census string is its own class's string
        profile = transitivity_profile(graph)
        g = girth(graph)
        expected = {
            ("vertex-transitive", None): profile.vertex_transitive,
            ("arc-transitive", None): profile.arc_transitive,
            ("s-arc-transitive-of-girth-s+2", None): (
                g is not None and g >= 5 and profile.max_s >= g - 2),
        }
        for s in range(MAX_S + 2):
            expected["s-arc-transitive", s] = profile.max_s >= s
        for (name, value), truth in expected.items():
            assert PREDICATES[name].test(Record(*cls), value) == truth, (
                g6, name, value)


def test_catalog_forms_are_searched_once_per_process(monkeypatch, empty_memos):
    from cubicsym import autgrp

    verify_claim("cor49", n_max=4)
    searches = []
    search = autgrp._ir_search

    def counting(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(autgrp, "_ir_search", counting)
    assert verify_claim("cor49", n_max=4).verdict == "Pass"
    assert searches == []


def test_census_counterexample_runs_no_search(monkeypatch, empty_memos):
    from cubicsym import autgrp

    always_fails = claims.Claim(("girth=4",), lambda r, _forms: ("demo", None))
    monkeypatch.setitem(CLAIMS, "demo", always_fails)
    census = _census_g6(8)  # built before the search is watched
    searches = []
    search = autgrp._ir_search

    def counting(*args, **kwargs):
        searches.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(autgrp, "_ir_search", counting)
    report = verify_claim("demo", n_max=8)
    assert report.verdict == "Fail"
    assert report.counterexample == report.hypothesis_hits[0]
    first_hit = next(g6 for g6 in census if girth(decode_graph6(g6)) == 4)
    assert report.counterexample == first_hit
    assert searches == []


# ---------------------------------------------------------------------------
# the census memo


def _check_filled_entries(memo):
    """Every filled entry holds the uncached readout; the counts of filled
    (ball facts, profiles, costs, cycle tests)."""
    filled = [0, 0, 0, 0]
    for n, level in memo.items():
        strings = enumerate_cubic_graph6(n)
        assert len(level.ball_facts) == len(strings)
        for index, g6 in enumerate(strings):
            graph = decode_graph6(g6)
            if level.ball_facts[index]:
                expected = girth(graph) << 1 | _histograms_agree(graph)
                assert level.ball_facts[index] == expected, g6
                filled[0] += 1
        for k, (readouts, uncached) in enumerate((
            (level.profiles, transitivity_profile),
            (level.costs, distinguishing_cost),
            (level.cycle_tests, lambda g: len(consistent_cycles(g, girth(g))) > 0),
        ), start=1):
            for index, value in readouts.items():
                assert value == uncached(decode_graph6(strings[index])), (
                    strings[index])
                filled[k] += 1
    return filled


def test_census_facts_equal_the_uncached_facts(monkeypatch, empty_memos):
    # a scan that stops early at its first hit fills the memo in part
    always_fails = claims.Claim(("girth=5", "vertex-transitive"),
                                lambda r, _forms: ("demo", None))
    monkeypatch.setitem(CLAIMS, "demo", always_fails)
    report = verify_claim("demo", n_max=12)
    assert report.verdict == "Fail"
    assert sorted(empty_memos) == [4, 6, 8, 10]  # the Petersen graph stops it
    partial = _check_filled_entries(empty_memos)
    # every string read gets both ball facts; only girth 5 reaches the group
    assert 0 < partial[0] < len(_census_g6(10))
    assert partial[1:] == [1, 0, 0]
    # later scans read the partial memo and fill the rest; to n = 14, where
    # cor49 takes the cost of the Heawood graph (below it, every
    # arc-transitive graph is one of cor410's exceptions)
    reports = {claim: verify_claim(claim, n_max=14).to_dict()
               for claim in CLAIM_IDS}
    filled = _check_filled_entries(empty_memos)
    assert filled[:3] == [621, 26, 1] and filled[3] > 0
    monkeypatch.setattr(claims, "_FACTS", {})
    claims._catalog_record.cache_clear()
    assert reports == {claim: verify_claim(claim, n_max=14).to_dict()
                       for claim in CLAIM_IDS}


def test_census_facts_are_filled_only_on_demand(empty_memos):
    # girth first: both facts of every string, and no profile or cost
    assert verify_claim("thm41-g4", n_max=12).verdict == "Pass"
    assert sorted(empty_memos) == [4, 6, 8, 10, 12]
    assert all(all(level.ball_facts) and not level.profiles and not level.costs
               for level in empty_memos.values())
    assert any(level.cycle_tests for level in empty_memos.values())
    # a histogram-first claim on fresh memos fills the girths as well
    claims._FACTS.clear()
    assert verify_claim("cor410", n_max=12).verdict == "Pass"
    assert all(all(level.ball_facts) and not level.cycle_tests
               for level in empty_memos.values())
    profiled = [g6 for n, level in empty_memos.items()
                for index, g6 in enumerate(enumerate_cubic_graph6(n))
                if index in level.profiles]
    assert profiled == [g6 for g6 in _census_g6(12)
                        if _histograms_agree(decode_graph6(g6))]


def _decode_catalog_records():
    """Build every catalog record the claims read, and decode its
    canonical string, which a catalog record does once per process: so a
    decoder watched after this sees census strings alone."""
    for claim in CLAIMS.values():
        for name in claim.allowed + claim.named + claim.excluded + claim.inputs:
            assert claims._catalog_record(name).graph.n >= 4


def test_a_later_claim_decodes_only_what_passes_the_memo(monkeypatch,
                                                         empty_memos):
    assert verify_claim("thm41-g4", n_max=12).verdict == "Pass"
    _decode_catalog_records()
    decoded = []
    decode = claims.decode_graph6

    def recording(g6):
        decoded.append(g6)
        return decode(g6)

    monkeypatch.setattr(claims, "decode_graph6", recording)
    assert verify_claim("thm41-g5", n_max=12).verdict == "Pass"
    girth_5 = [g6 for g6 in _census_g6(12) if girth(decode_graph6(g6)) == 5]
    assert decoded == girth_5 and len(girth_5) == 3


def _count_calls(monkeypatch, module, name, key):
    """Calls of module.name through every cubicsym namespace that binds
    it, each recorded by key(first argument)."""
    real = getattr(module, name)
    calls = []

    def counting(first, *args, **kwargs):
        calls.append(key(first))
        return real(first, *args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("cubicsym") and getattr(mod, name, None) is real:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_verify_all_reads_each_graph_once(monkeypatch, capsys, empty_memos):
    from cubicsym import cli, graph, graph6, symmetry

    census = _census_g6(14)  # built before the decoder is watched
    _decode_catalog_records()
    decoded = _count_calls(monkeypatch, graph6, "decode_graph6", str)
    passes = _count_calls(monkeypatch, graph, "girth_and_histograms",
                          encode_graph6)
    profiled = _count_calls(monkeypatch, symmetry, "transitivity_profile",
                            encode_graph6)
    scans = []  # the decodes before each claim
    verify = cli.verify_claim

    def marking(*args, **kwargs):
        scans.append(len(decoded))
        return verify(*args, **kwargs)

    monkeypatch.setattr(cli, "verify_claim", marking)
    assert cli.main(["verify", "all", "--max-n", "14", "--json"]) == 0
    capsys.readouterr()
    assert len(scans) == len(CLAIM_IDS)
    # every census string once per process through the ball pass, and once
    # per claim at most; a later claim decodes a string again only for a
    # test that needs its edges (every-edge-in-girth-cycle for the 140
    # strings of girth 4 or 5, the cost or cycle test of a hit), as the
    # memo keeps no graph
    for start, end in zip(scans, scans[1:] + [len(decoded)]):
        assert len(set(decoded[start:end])) == end - start
    assert sorted(set(decoded)) == sorted(census)
    assert len(decoded) == 765
    assert sorted(Counter(passes).values()) == [1] * 622  # and the input
    # each of the 26 census graphs whose histograms agree, and the truncated
    # icosahedron, profiled once
    assert sorted(Counter(profiled).values()) == [1] * 27


def _census_graphs(monkeypatch):
    """The graphs the claims decode from census strings, as they are made."""
    decoded = []
    decode = claims.decode_graph6

    def recording(g6):
        graph = decode(g6)
        decoded.append(graph)
        return graph

    monkeypatch.setattr(claims, "decode_graph6", recording)
    return decoded


def test_verify_all_searches_only_catalog_graphs(monkeypatch, capsys,
                                                 empty_memos):
    from cubicsym import autgrp, cli

    _census_g6(14)  # built before the search is watched
    decoded = _census_graphs(monkeypatch)
    searched = _count_calls(monkeypatch, autgrp, "_ir_search", lambda g: g)
    assert cli.main(["verify", "all", "--max-n", "14", "--json"]) == 0
    capsys.readouterr()
    # each census record adopts its class's generators, so only the
    # catalog graphs the claims allow, name, exclude or scan are searched,
    # each once per process, into its class: thm34 and cor33 share one
    # search of the truncated icosahedron
    assert decoded
    assert not any(g is d for g in searched for d in decoded)
    catalog = {encode_graph6(catalog_graph(name)) for claim in CLAIMS.values()
               for name in claim.allowed + claim.named + claim.excluded
               + claim.inputs}
    assert sorted(map(encode_graph6, searched)) == sorted(catalog)
    assert len(searched) == 10
    # a fresh process: the inputs share their records with the claim's
    # exclusions, and a name's two spellings share one record
    claims._catalog_record.cache_clear()
    searched.clear()
    assert cli.main(["verify", "cor33", "--catalog-input", "petersen",
                     "--catalog-input", "truncated-icosahedron",
                     "--catalog-input", "dodecahedron"]) == 0
    capsys.readouterr()
    assert len(searched) == len(set(map(encode_graph6, searched))) == 3
    assert verify_claim("cor33").verdict == "Pass"  # truncated_icosahedron
    assert len(searched) == 3


def test_filtered_enumeration_runs_no_search(monkeypatch, empty_memos):
    from cubicsym import autgrp

    _census_g6(14)
    decoded = _census_graphs(monkeypatch)
    searched = _count_calls(monkeypatch, autgrp, "_ir_search", lambda g: g)
    assert len(list(filtered_enumeration(14, ["vertex-transitive"]))) == 3
    assert decoded and searched == []
