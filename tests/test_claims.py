"""Claim verifiers over small census ranges (the acceptance suite runs
the full stated ranges)."""

import pytest

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
from cubicsym import claims
from cubicsym.claims import CLAIMS, INPUT_CLAIMS, PREDICATES, Record
from cubicsym.symmetry import MAX_S

from conftest import distance_profiles, random_relabel


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


def test_cor410_small_range():
    report = verify_claim("cor410", n_max=12)
    assert report.verdict == "Pass"


def test_thm34_default_input():
    report = verify_claim("thm34")
    assert report.verdict == "Pass"
    assert report.graphs_scanned == 1
    assert any("cost 2" in note for note in report.notes)


def test_thm34_skips_non_qualifying_inputs():
    report = verify_claim(
        "thm34", inputs=[("petersen", catalog_graph("petersen"))]
    )
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
        verify_claim("lem45", n_max=6, inputs=[("k4", catalog_graph("k4"))])


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
    report.fail(canonical_form(g), "synthetic failure for the serialization contract")
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


def test_filtered_enumeration_profiles_each_graph_once(monkeypatch):
    # only the census graphs whose distance histograms agree reach the
    # group, each once: 3 of the 5 graphs at n = 8
    calls = _counting_profiles(monkeypatch)
    hits = list(filtered_enumeration(8, ["vertex-transitive", "edge-orbits=2"]))
    assert hits
    expected = [g6 for g6 in enumerate_cubic_graph6(8)
                if _histograms_agree(decode_graph6(g6))]
    assert calls == expected
    assert len(calls) == 3


def test_cor410_profiles_only_graphs_whose_histograms_agree(monkeypatch):
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
            assert Record(g).histograms_agree, encode_graph6(g)
    assert transitive > 0


def test_prefiltered_predicates_agree_with_the_profile():
    for g6 in _census_g6(12):
        graph = decode_graph6(g6)
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
            assert PREDICATES[name].test(Record(g6=g6), value) == truth, (
                g6, name, value)


def test_catalog_forms_are_searched_once_per_process(monkeypatch):
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


def test_census_counterexample_runs_no_search(monkeypatch):
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
# the census facts memo


def _fresh_facts(monkeypatch):
    facts = {}
    monkeypatch.setattr(claims, "_FACTS", facts)
    return facts


def _check_filled_slots(facts):
    """Every filled slot holds the uncached fact; the count of filled
    (girth, histogram) slots."""
    filled = [0, 0]
    for n, (girths, histograms) in facts.items():
        level = enumerate_cubic_graph6(n)
        assert len(girths) == len(histograms) == len(level)
        for g6, g, h in zip(level, girths, histograms):
            if g:
                assert g == girth(decode_graph6(g6)), g6
                filled[0] += 1
            if h:
                assert h == 1 + Record(g6=g6).histograms_agree, g6
                filled[1] += 1
    return filled


def test_census_facts_equal_the_uncached_facts(monkeypatch):
    facts = _fresh_facts(monkeypatch)
    # a scan that stops early at its first hit fills the memo in part
    always_fails = claims.Claim(("girth=5", "vertex-transitive"),
                                lambda r, _forms: ("demo", None))
    monkeypatch.setitem(CLAIMS, "demo", always_fails)
    report = verify_claim("demo", n_max=12)
    assert report.verdict == "Fail"
    assert sorted(facts) == [4, 6, 8, 10]  # the Petersen graph stops it
    partial = _check_filled_slots(facts)
    assert 0 < partial[1] < partial[0] < len(_census_g6(10))
    # later scans read the partial memo and fill the rest
    reports = {claim: verify_claim(claim, n_max=12).to_dict()
               for claim in CLAIM_IDS}
    assert _check_filled_slots(facts) == [112, 112]
    monkeypatch.setattr(claims, "_FACTS", {})
    assert reports == {claim: verify_claim(claim, n_max=12).to_dict()
                       for claim in CLAIM_IDS}


def test_census_facts_are_filled_only_on_demand(monkeypatch):
    facts = _fresh_facts(monkeypatch)
    assert verify_claim("thm41-g4", n_max=12).verdict == "Pass"
    assert sorted(facts) == [4, 6, 8, 10, 12]
    assert all(all(girths) and not any(histograms)
               for girths, histograms in facts.values())
    facts = _fresh_facts(monkeypatch)
    assert verify_claim("cor410", n_max=12).verdict == "Pass"
    assert all(all(histograms) and not any(girths)
               for girths, histograms in facts.values())


def test_a_later_claim_decodes_only_what_passes_the_memo(monkeypatch):
    _fresh_facts(monkeypatch)
    assert verify_claim("thm41-g4", n_max=12).verdict == "Pass"
    decoded = []
    decode = claims.decode_graph6

    def recording(g6):
        decoded.append(g6)
        return decode(g6)

    monkeypatch.setattr(claims, "decode_graph6", recording)
    assert verify_claim("thm41-g5", n_max=12).verdict == "Pass"
    girth_5 = [g6 for g6 in _census_g6(12) if girth(decode_graph6(g6)) == 5]
    assert decoded == girth_5 and len(girth_5) == 3
