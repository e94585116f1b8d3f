"""Claim verifiers over small census ranges (the acceptance suite runs
the full stated ranges)."""

import pytest

from cubicsym import (
    CLAIM_IDS,
    UnknownClaimError,
    canonical_form,
    catalog_graph,
    enumerate_cubic_graph6,
    filtered_enumeration,
    verify_claim,
)
from cubicsym import claims
from cubicsym.claims import CLAIMS, INPUT_CLAIMS


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


def test_report_serialization():
    report = verify_claim("thm41-g4", n_max=8)
    payload = report.to_dict()
    assert payload["verdict"] == "Pass"
    assert payload["claim"] == "thm41-g4"
    assert isinstance(report.to_json(), str)
    assert "Pass" in report.summary()


def test_fail_reports_carry_a_reproducible_witness():
    from cubicsym import decode_graph6, is_isomorphic
    from cubicsym.claims import ClaimReport

    report = ClaimReport("demo", (10, 10), 1)
    g = catalog_graph("petersen")
    report.fail(g, "synthetic failure for the serialization contract")
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
        for g in filtered_enumeration(n, claim.hypothesis):
            form = canonical_form(g)
            if form not in excluded:
                expected.append(form.decode("ascii"))
    assert verify_claim(claim_id, n_max=12).hypothesis_hits == expected


def test_filtered_enumeration_profiles_each_graph_once(monkeypatch):
    calls = []
    profile = claims.transitivity_profile

    def counting(graph):
        calls.append(graph)
        return profile(graph)

    monkeypatch.setattr(claims, "transitivity_profile", counting)
    hits = list(filtered_enumeration(8, ["vertex-transitive", "edge-orbits=2"]))
    assert hits
    assert len(calls) == len(enumerate_cubic_graph6(8))
