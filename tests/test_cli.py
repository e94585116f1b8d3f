"""CLI subcommands, exit codes, and report stability."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc

import contextlib
import io
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicsym import (build_graph, catalog_graph, decode_graph6, encode_graph6,
                      is_isomorphic)
from cubicsym import cli
from cubicsym.cli import main

from conftest import FIXED_CATALOG, random_graph

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def run_cli(args, capsys):
    rc = main(args)
    out, err = capsys.readouterr()
    return rc, out, err


def test_analyze_heawood_json(capsys):
    rc, out, _ = run_cli(["analyze", "--catalog", "heawood", "--json"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["aut_order"] == 336
    assert report["max_s"] == 4
    assert report["distinguishing_cost"]["cost"] == 5


def test_analyze_heawood_matches_golden_bytes(capsys):
    rc, out, _ = run_cli(["analyze", "--catalog", "heawood", "--json"], capsys)
    assert rc == 0
    with open(os.path.join(GOLDEN, "analyze_heawood.json")) as fh:
        assert out == fh.read()


def test_analyze_f26a_matches_golden_bytes(capsys):
    rc, out, _ = run_cli(["analyze", "--catalog", "f26a", "--json"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert (report["aut_order"], report["stabilizer_class"]) == (78, "arc-regular")
    assert (report["vertex_stabilizer_order"], report["girth"]) == (3, 6)
    assert report["consistent_girth_cycles"] == 13
    cost = report["distinguishing_cost"]
    assert (cost["cost"], cost["witness"]) == (2, [0, 2])
    with open(os.path.join(GOLDEN, "analyze_f26a.json")) as fh:
        assert out == fh.read()


def test_analyze_tutte_coxeter_matches_golden_bytes(capsys):
    # the reduced generators span six levels of the stabilizer chain: they
    # pin the level walk of `reduced_generators` byte for byte
    rc, out, _ = run_cli(["analyze", "--catalog", "tutte_coxeter", "--json"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert (report["aut_order"], report["max_s"]) == (1440, 5)
    assert len(report["aut_generators"]) == 6
    with open(os.path.join(GOLDEN, "analyze_tutte_coxeter.json")) as fh:
        assert out == fh.read()


# sha256 of the `analyze --json` stdout of every fixed catalog graph, in
# FIXED_CATALOG order: it pins generators, costs and cycle counts
ANALYZE_CATALOG_SHA256 = (
    "f5a8c382dce0c002394e142a0edea48b58693cab0a09797b94fdbf6dba04c148"
)


def test_analyze_catalog_outputs_are_pinned(capsys):
    digest = hashlib.sha256()
    counts = []
    for name in FIXED_CATALOG:
        rc, out, _ = run_cli(["analyze", "--catalog", name, "--json"], capsys)
        assert rc == 0
        digest.update(out.encode())
        counts.append(json.loads(out)["consistent_girth_cycles"])
    assert counts == [4, 9, 6, 12, 12, 20, 28, 18, 90, 20, 1, 1, 2, 4, 12]
    assert digest.hexdigest() == ANALYZE_CATALOG_SHA256


def test_analyze_fig5_lambda_text(capsys):
    rc, out, _ = run_cli(["analyze", "--catalog", "fig5_lambda"], capsys)
    assert rc == 0
    assert "automorphism group order: 24" in out
    assert "vertex-transitive: False" in out


def test_analyze_graph6_k4(capsys):
    rc, out, _ = run_cli(["analyze", "--graph6", "C~", "--json"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["order"] == 4
    assert report["distinguishing_number"] == 4


def test_analyze_reports_a_number_past_the_theorem_as_more_than_2(capsys):
    # nine isolated vertices: disconnected, with no distinguishing set; the
    # text report is formatted from the JSON one, so one run (9! elements)
    # serves both
    rc, out, _ = run_cli(["analyze", "--graph6", "H??????", "--json"], capsys)
    assert rc == 0
    assert '"distinguishing_number": null' in out
    text = cli._format_text_report(json.loads(out))
    assert "\ndistinguishing number: more than 2\n" in text
    assert "None" not in text


def test_analyze_requires_exactly_one_source(capsys):
    rc, _, err = run_cli(["analyze"], capsys)
    assert rc == 2
    rc, _, err = run_cli(
        ["analyze", "--catalog", "k4", "--graph6", "C~"], capsys
    )
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["analyze", "--graph6", "", "--catalog", "k4"],
    ["cost", "--input", "", "--catalog", "k4"],
])
def test_an_empty_source_is_still_a_source(argv, capsys):
    # two sources were given, one of them empty: neither is read
    rc, out, err = run_cli(argv, capsys)
    assert rc == cli.EXIT_USAGE == 2
    assert out == ""
    assert "exactly one of --input, --graph6, --catalog" in err


def test_an_empty_graph6_is_parsed_like_an_empty_file(tmp_path, capsys):
    path = tmp_path / "empty.g6"
    path.write_text("")
    for source in (["--graph6", ""], ["--input", str(path)]):
        rc, out, err = run_cli(["analyze"] + source, capsys)
        assert rc == cli.EXIT_PARSE == 3
        assert out == ""
        assert "empty graph6 string" in err


def test_unreadable_input_exit_2(capsys):
    rc, _, err = run_cli(["analyze", "--input", "/nonexistent/file"], capsys)
    assert rc == 2


def test_analyze_computes_the_vertex_orbits_once(monkeypatch, capsys):
    from cubicsym import perm

    real = perm.orbits
    calls = []

    def counted(perms, points):
        calls.append(points)
        return real(perms, points)

    for name, module in list(sys.modules.items()):  # every name bound to it
        if name.startswith("cubicsym") and getattr(module, "orbits", None) is real:
            monkeypatch.setattr(module, "orbits", counted)
    rc, _, _ = run_cli(["analyze", "--catalog", "truncated_icosahedron", "--json"],
                       capsys)
    assert rc == 0
    # a vertex call reads the points range(n); an edge call, the edge list
    assert [isinstance(points, range) for points in calls].count(True) == 1


def test_analyze_searches_the_cost_once(monkeypatch, capsys):
    from cubicsym import distinguishing

    real = distinguishing.distinguishing_cost
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):  # every name bound to it
        if (name.startswith("cubicsym")
                and getattr(module, "distinguishing_cost", None) is real):
            monkeypatch.setattr(module, "distinguishing_cost", counted)
    # the Petersen graph is not 2-distinguishable: D = 3 needs the cost
    rc, out, _ = run_cli(["analyze", "--catalog", "petersen", "--json"], capsys)
    assert rc == 0
    report = json.loads(out)
    assert report["distinguishing_number"] == 3
    assert report["distinguishing_cost"]["kind"] == "not-two-distinguishable"
    assert len(calls) == 1


def test_bad_graph6_exit_3(capsys):
    rc, _, err = run_cli(["analyze", "--graph6", "C~~~"], capsys)
    assert rc == 3
    assert "offset" in err


def test_non_ascii_graph6_exit_3(capsys):
    rc, out, err = run_cli(["analyze", "--graph6", "C\u00e9"], capsys)
    assert rc == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "byte offset 1" in err


@pytest.mark.parametrize("fmt", ["graph6", "edgelist"])
def test_non_ascii_input_file_exit_3(fmt, tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_bytes(b"C\xc3\xa9\n")
    rc, out, err = run_cli(["analyze", "--input", str(path), "--format", fmt],
                           capsys)
    assert rc == cli.EXIT_PARSE == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "byte offset 1" in err


def test_truncate_bad_y_graph6_exit_3(capsys):
    rc, out, err = run_cli(["truncate", "--catalog", "k4", "--y-graph6", "zz"],
                           capsys)
    assert rc == cli.EXIT_PARSE == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "offset" in err


def test_unexpected_exception_exit_5(monkeypatch, capsys):
    def broken(graph):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "_analysis_report", broken)
    rc, out, err = run_cli(["analyze", "--catalog", "k4"], capsys)
    assert rc == cli.EXIT_INTERNAL == 5
    assert out == ""
    assert err == "error: internal error: KeyError: 'boom'\n"
    assert "Traceback" not in err


def _assert_resource_limit(argv, capsys):
    rc, out, err = run_cli(argv, capsys)
    assert rc == cli.EXIT_RESOURCE == 4
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


EDGELESS_1100 = encode_graph6(build_graph(1100, [])) + "\n"


@pytest.mark.parametrize("argv, text", [
    (["analyze"], EDGELESS_1100),
    (["cost"], EDGELESS_1100),
    (["analyze", "--format", "edgelist"],
     "".join(f"0 {v}\n" for v in range(1, 1101))),  # the star K_{1,1100}
    (["analyze", "--format", "edgelist"], "0 3000\n"),
], ids=["edgeless-analyze", "edgeless-cost", "star", "one-far-edge"])
def test_search_deeper_than_the_stack_exit_4(argv, text, tmp_path, capsys):
    # the search's depth grows with the input's order
    path = tmp_path / "graph.txt"
    path.write_text(text)
    start = time.perf_counter()
    rc, out, err = run_cli(argv + ["--input", str(path)], capsys)
    assert time.perf_counter() - start < 5.0
    assert rc == cli.EXIT_RESOURCE == 4
    assert out == ""
    assert err.startswith("error: resource limit: ") and err.count("\n") == 1


def test_group_cap_exit_4(monkeypatch, capsys):
    from cubicsym import autgrp

    monkeypatch.setattr(autgrp, "DEFAULT_GROUP_CAP", 10)  # |Aut| = 120
    _assert_resource_limit(["analyze", "--catalog", "petersen"], capsys)


def test_cost_budget_exit_4(capsys):
    _assert_resource_limit(
        ["cost", "--catalog", "petersen", "--budget", "1"], capsys)
    _assert_resource_limit(
        ["cost", "--catalog", "petersen", "--budget", "0"], capsys)


def test_edgelist_input(tmp_path, capsys):
    path = tmp_path / "graph.txt"
    path.write_text("# petersen\n" + "\n".join(
        f"{u} {w}" for u, w in catalog_graph("petersen").edges()
    ))
    rc, out, _ = run_cli(
        ["analyze", "--input", str(path), "--format", "edgelist", "--json"],
        capsys,
    )
    assert rc == 0
    assert json.loads(out)["aut_order"] == 120


def test_catalog_list(capsys):
    rc, out, _ = run_cli(["catalog", "list"], capsys)
    assert rc == 0
    assert "heawood" in out and "fig5_lambda" in out


def test_catalog_get(capsys):
    rc, out, _ = run_cli(["catalog", "get", "petersen"], capsys)
    assert rc == 0
    assert is_isomorphic(decode_graph6(out.strip()), catalog_graph("petersen"))


@pytest.mark.parametrize(
    "args",
    [["catalog", "get", "nosuch"], ["catalog", "get", "gp(5)"], ["catalog", "get"],
     ["catalog", "get", "gp(5,,2)"]],
    ids=["unknown", "wrong-parameters", "no-name", "empty-parameter"],
)
def test_catalog_get_bad_name_exit_2(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_enumerate_stream(capsys):
    rc, out, _ = run_cli(["enumerate", "8"], capsys)
    assert rc == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5


def test_enumerate_with_predicates(capsys):
    rc, out, _ = run_cli(
        ["enumerate", "10", "--predicate", "girth=5"], capsys
    )
    assert rc == 0
    for line in out.strip().splitlines():
        from cubicsym import girth

        assert girth(decode_graph6(line)) == 5


def test_enumerate_odd_order_usage_error(capsys):
    rc, _, err = run_cli(["enumerate", "9"], capsys)
    assert rc == 2


@pytest.mark.parametrize("spec", ["vertex-transitive=7", "girth"])
def test_enumerate_malformed_predicate_exit_2(spec, capsys):
    # a value on a predicate that takes none, or none on one that needs it
    rc, out, err = run_cli(["enumerate", "8", "--predicate", spec], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "args",
    [["cost", "--catalog", "petersen", "--budget", "-1"],
     ["quotient", "--graph6", "G~?GW["],  # two disjoint K4s
     ["verify", "lem45", "--catalog-input", "k4", "--max-n", "6"],
     ["verify", "all", "--catalog-input", "k4"],
     ["enumerate", "8", "--predicate", "girth=abc"],
     ["enumerate", "8", "--predicate", "girth="],
     ["catalog", "list", "extra"]],
    ids=["negative-budget", "disconnected-quotient", "census-claim-input",
         "verify-all-input", "non-integer-predicate-value",
         "empty-predicate-value", "catalog-list-name"],
)
def test_usage_errors_exit_2(args, capsys):
    rc, out, err = run_cli(args, capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    if args[0] == "verify":
        assert "thm34" in err and "cor33" in err
    if args[0] == "enumerate":
        assert "'girth'" in err and "girth=G" in err


def _assert_documented_exit(argv):
    """Run one command: a documented code, in bounded time, no traceback."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert time.perf_counter() - start < 5.0, argv
    assert rc in (0, 2, 3, 4), (argv, err.getvalue())
    if rc == 0:
        assert err.getvalue() == "", argv
    else:
        assert out.getvalue() == "", argv
        assert err.getvalue().startswith("error: "), argv
        assert err.getvalue().count("\n") == 1, argv


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)))
def test_fuzz_analyze_printable_graph6(text):
    _assert_documented_exit(["analyze", f"--graph6={text}"])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from(("analyze", "cost", "quotient")), st.integers(0, 7),
       st.floats(0, 1), st.integers(0, 2**31 - 1))
def test_fuzz_small_random_graphs(command, n, p, seed):
    g6 = encode_graph6(random_graph(n, p, random.Random(seed)))
    _assert_documented_exit([command, f"--graph6={g6}"])


def test_cost_command(capsys):
    rc, out, _ = run_cli(["cost", "--catalog", "pappus", "--json"], capsys)
    assert rc == 0
    assert json.loads(out)["cost"] == 3


def test_truncate_and_quotient_round_trip(capsys):
    rc, out, _ = run_cli(
        ["truncate", "--catalog", "icosahedron", "--labeling", "rotation",
         "--y-cycle", "5"],
        capsys,
    )
    assert rc == 0
    t = decode_graph6(out.strip())
    assert t.n == 60
    rc, out, _ = run_cli(["quotient", "--graph6", out.strip()], capsys)
    assert rc == 0
    q = decode_graph6(out.strip())
    from cubicsym.catalog import icosahedron

    assert is_isomorphic(q, icosahedron()[0])


def test_truncate_classic(capsys):
    rc, out, _ = run_cli(
        ["truncate", "--catalog", "k4", "--classic"], capsys
    )
    assert rc == 0
    assert decode_graph6(out.strip()).n == 12


# sha256 of the stdout and exit code of every `truncate` call in the grid
# below: hosts x Y choices x labelings x output formats
TRUNCATE_GRID_SHA256 = (
    "e45abd99d77f143d0233a98581b1e476630eec5579383807a14726c3823554b6"
)


def test_truncate_outputs_are_pinned(capsys):
    digest = hashlib.sha256()
    codes = set()
    for host in ("k4", "cube", "petersen", "heawood", "icosahedron"):
        for y in (["--classic"], ["--y-cycle", "3"], ["--y-cycle", "5"],
                  ["--y-graph6", "Bg"]):
            for labeling in (["adjacency"], ["seeded", "--seed", "0"],
                             ["seeded", "--seed", "7"], ["rotation"]):
                for fmt in ("graph6", "edgelist"):
                    args = ["truncate", "--catalog", host, *y,
                            "--labeling", *labeling, "--format", fmt]
                    rc, out, _ = run_cli(args, capsys)
                    codes.add(rc)
                    digest.update(f"{' '.join(args)}\n{rc}\n{out}".encode())
    assert codes == {0, 2}
    assert digest.hexdigest() == TRUNCATE_GRID_SHA256


# sha256 of the stdout and exit code of every `quotient` call in the grid
# below: two catalog truncations, two seeded truncations and two graphs
# with no contractible orbit, x output formats
QUOTIENT_GRID_SHA256 = (
    "693d5dc119225fa4bd51c18bae8accea5a7dfc09dc5aebec19b97788eb2b0de8"
)


def test_quotient_outputs_are_pinned(capsys):
    sources = [["--catalog", "truncated_icosahedron"],
               ["--catalog", "truncated_k4"]]
    for host, k, seed in (("icosahedron", "5", "7"), ("heawood", "3", "11")):
        rc, out, _ = run_cli(["truncate", "--catalog", host, "--y-cycle", k,
                              "--labeling", "seeded", "--seed", seed], capsys)
        assert rc == 0
        sources.append(["--graph6", out.strip()])
    sources += [["--catalog", "petersen"], ["--catalog", "prism(5)"]]
    digest = hashlib.sha256()
    codes = []
    for src in sources:
        for fmt in ("graph6", "edgelist"):
            args = ["quotient", *src, "--format", fmt]
            rc, out, _ = run_cli(args, capsys)
            codes.append(rc)
            digest.update(f"{' '.join(args)}\n{rc}\n{out}".encode())
    assert codes == [0, 0, 0, 0, 2, 2, 0, 0, 2, 2, 2, 2]
    assert digest.hexdigest() == QUOTIENT_GRID_SHA256


def test_truncate_checks_the_host_before_building_a_long_cycle(capsys):
    # a K-cycle keeps K rows of K bits: a host that is not K-regular must
    # fail before it is built
    tracemalloc.start()
    try:
        rc, out, err = run_cli(["truncate", "--catalog", "k4",
                                "--y-cycle", "20000"], capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2 and out == ""
    assert err == ("error: host must be 20000-regular to truncate by a "
                   "20000-vertex graph\n")
    assert peak < 5 * 2**20


def test_truncate_seeded_determinism(capsys):
    args = ["truncate", "--catalog", "heawood", "--y-cycle", "3",
            "--labeling", "seeded", "--seed", "11"]
    rc1, out1, _ = run_cli(args, capsys)
    rc2, out2, _ = run_cli(args, capsys)
    assert rc1 == rc2 == 0 and out1 == out2


def test_verify_pass_and_exit_codes(capsys):
    rc, out, _ = run_cli(["verify", "thm41-g5", "--max-n", "12"], capsys)
    assert rc == 0
    assert "Pass" in out


def test_verify_thm34_catalog_input(capsys):
    rc, out, _ = run_cli(
        ["verify", "thm34", "--catalog-input", "truncated-icosahedron"],
        capsys,
    )
    assert rc == 0
    assert "Pass" in out


def test_verify_unknown_claim_exit_2(capsys):
    rc, _, err = run_cli(["verify", "nosuch"], capsys)
    assert rc == 2


@pytest.mark.parametrize("claim", ["lem45", "thm34", "cor33"])
def test_verify_max_n_below_range_exit_2(claim, capsys):
    rc, out, err = run_cli(["verify", claim, "--max-n", "2"], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("claim", ["lem45", "thm34", "cor33"])
def test_verify_max_n_above_range_exit_2_before_generating(claim, capsys):
    for max_n in ("22", "99"):  # the census runs to the even part of 99
        start = time.perf_counter()
        rc, out, err = run_cli(["verify", claim, "--max-n", max_n], capsys)
        assert time.perf_counter() - start < 0.5
        assert rc == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert max_n in err and "[4, 20]" in err


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("command", [["enumerate", "8"], ["verify", "lem45"]])
def test_jobs_below_one_exit_2(command, jobs, capsys):
    rc, out, err = run_cli(command + ["--jobs", jobs], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_json(capsys):
    rc, out, _ = run_cli(
        ["verify", "thm41-g4", "--max-n", "10", "--json"], capsys
    )
    assert rc == 0
    payload = json.loads(out)
    assert payload["verdict"] == "Pass"
    assert payload["schema"] == "cubicsym/report-v2"


def test_reports_identical_across_jobs(capsys):
    from cubicsym.enumeration import _LEVEL_CACHE

    rc1, out1, _ = run_cli(
        ["verify", "thm41-g4", "--max-n", "10", "--jobs", "1", "--json"], capsys
    )
    _LEVEL_CACHE.clear()
    rc2, out2, _ = run_cli(
        ["verify", "thm41-g4", "--max-n", "10", "--jobs", "2", "--json"], capsys
    )
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_all_json_is_the_golden_reports(capsys):
    from cubicsym import CLAIM_IDS

    with open(os.path.join(GOLDEN, "verify_reports.json")) as fh:
        golden = {entry["argv"][1]: json.loads(entry["stdout"])
                  for entry in json.load(fh)
                  if entry["argv"][2:] == ["--max-n", "14", "--json"]}
    assert sorted(golden) == list(CLAIM_IDS)
    rc, out, err = run_cli(["verify", "all", "--max-n", "14", "--json"], capsys)
    assert (rc, err) == (0, "")
    assert json.loads(out) == [golden[claim] for claim in CLAIM_IDS]


def test_verify_all_text_joins_the_single_claim_summaries(capsys):
    from cubicsym import CLAIM_IDS

    singles = []
    for claim in CLAIM_IDS:
        rc, out, _ = run_cli(["verify", claim, "--max-n", "8"], capsys)
        assert rc == 0
        singles.append(out)
    rc, out, _ = run_cli(["verify", "all", "--max-n", "8"], capsys)
    assert rc == 0
    assert out == "\n".join(singles)


def test_verify_all_exits_1_if_any_claim_fails(monkeypatch, capsys):
    from cubicsym import claims

    failing = claims.Claim(("girth=4",), lambda r, _forms: ("demo", None))
    monkeypatch.setitem(claims.CLAIMS, "demo", failing)
    monkeypatch.setattr(cli, "CLAIM_IDS", ("cor33", "demo", "lem45"))
    rc, out, _ = run_cli(["verify", "all", "--max-n", "8", "--json"], capsys)
    assert rc == 1
    assert [p["verdict"] for p in json.loads(out)] == ["Pass", "Fail", "Pass"]


def test_verify_all_with_inputs_runs_no_claim(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "verify_claim", lambda *a, **k: calls.append(a))
    rc, out, _ = run_cli(["verify", "all", "--catalog-input", "petersen"], capsys)
    assert (rc, out, calls) == (2, "", [])


def _source_env():
    """The environment with the source tree on the path, not an installed
    copy."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    return dict(os.environ, PYTHONPATH=os.path.abspath(src))


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cubicsym.cli", "catalog", "list"],
        capture_output=True,
        text=True,
        env=_source_env(),
    )
    assert proc.returncode == 0
    assert "petersen" in proc.stdout


def _run_package(args):
    """``python -m cubicsym`` from the source tree."""
    return subprocess.run([sys.executable, "-m", "cubicsym"] + args,
                          capture_output=True, text=True, env=_source_env())


def test_package_runs_as_a_module(capsys):
    args = ["analyze", "--catalog", "k4", "--json"]
    proc = _run_package(args)
    rc, out, _ = run_cli(args, capsys)
    assert proc.returncode == rc == 0
    assert proc.stdout == out
    proc = _run_package(["verify", "nope"])
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "first, second",
    [(["verify", "thm34", "--catalog-input", "petersen", "--json"],
      ["verify", "thm34", "--json"]),
     (["enumerate", "8", "--predicate", "girth=4"], ["enumerate", "8"]),
     (["analyze", "--graph6", "C~"], ["analyze", "--catalog", "petersen"])],
    ids=["catalog-input", "predicate", "input-source"],
)
def test_the_shared_parser_carries_nothing_between_calls(first, second, capsys):
    # the second call of each pair prints what it prints in a fresh process
    assert cli.build_parser() is cli.build_parser()
    _, first_out, _ = run_cli(first, capsys)
    rc, out, err = run_cli(second, capsys)
    fresh = _run_package(second)
    assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert rc == 0 and out != first_out
    if second[0] == "enumerate":
        assert len(out.splitlines()) == 5


def test_a_second_call_builds_no_parser(monkeypatch, capsys):
    calls = []
    add_argument = argparse.ArgumentParser.add_argument

    def counted(self, *args, **kwargs):
        calls.append(args)
        return add_argument(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counted)
    cli.build_parser.cache_clear()
    assert run_cli(["catalog", "get", "k4"], capsys)[0] == 0
    built = len(calls)
    assert run_cli(["catalog", "get", "k4"], capsys)[0] == 0
    assert built > 0 and len(calls) == built


def test_help_wraps_to_the_columns_of_each_call(monkeypatch, capsys):
    widths = []
    for columns in (60, 200, 60):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--help"])
        assert exc.value.code == 0
        out, _ = capsys.readouterr()
        widths.append(max(len(line) for line in out.splitlines()))
    # argparse wraps to COLUMNS - 2
    assert widths[0] == widths[2] <= 58 and 60 < widths[1] <= 198


def test_readme_cli_examples_parse():
    # parsed only: `verify thm44-g6 --max-n 18` would run for minutes
    section = _readme_text().split("## Command-line interface", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cubicsym ")]
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
        assert args.command == argv[0] and callable(args.func), line


def test_verify_reports_match_golden_bytes(capsys):
    # recorded before the claims became one table over one record stream
    with open(os.path.join(GOLDEN, "verify_reports.json")) as fh:
        entries = json.load(fh)
    for entry in entries:
        rc, out, _ = run_cli(entry["argv"], capsys)
        assert (rc, out) == (entry["exit"], entry["stdout"]), entry["argv"]


def _readme_text():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _readme_paragraph(start):
    text = _readme_text()
    para = text[text.index(start) + len(start):].split("\n\n")[0]
    first_sentence = re.sub(r"\([^)]*\)", "", para).split(". ")[0]
    return re.findall(r"`([^`]+)`", first_sentence)


def test_readme_lists_the_claim_ids_and_predicates():
    from cubicsym import CLAIM_IDS, PREDICATES

    assert sorted(_readme_paragraph("Claim ids for `verify`:")) == list(CLAIM_IDS)
    named = _readme_paragraph("Predicates for `enumerate --predicate`:")
    assert sorted(p.split("=")[0] for p in named) == sorted(PREDICATES)


def test_readme_camel_case_names_exist():
    # a backticked CamelCase name, dotted or not, must be reachable from
    # the package, so a deleted class cannot linger in the docs
    import cubicsym

    prose = re.sub(r"```.*?```", "", _readme_text(), flags=re.S)
    spans = re.findall(r"`([^`\n]+)`", prose)
    names = {s for s in spans if re.fullmatch(r"[A-Z][a-z]\w*(\.\w+)*", s)}
    names.discard("None")
    assert {"Graph", "Graph._from_rows", "TransitivityProfile"} <= names
    for name in sorted(names):
        obj = cubicsym
        for part in name.split("."):
            assert hasattr(obj, part), name
            obj = getattr(obj, part)


def test_readme_library_tour_runs():
    tour = _readme_text().split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})


def test_predicate_help_lists_the_registry(capsys):
    from cubicsym import PREDICATES

    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--help"])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0
    listed = "".join(out.split()).split("oneof:")[1]  # wrapping adds spaces
    for name in PREDICATES:
        assert f",{name}" in "," + listed


def _documented_exit_codes(text):
    """The codes listed in the first sentence of an "Exit codes:" text."""
    listing = " ".join(text.split()).split(". ", 1)[0][len("Exit codes:"):]
    return [int(code) for code in re.findall(r"(?:^|, )(\d+) ", listing.strip())]


def test_readme_exit_codes_are_the_cli_constants():
    with open(README) as fh:
        paragraphs = fh.read().split("\n\n")
    text = next(p for p in paragraphs if p.startswith("Exit codes:"))
    docstring = cli.__doc__[cli.__doc__.index("Exit codes:"):]
    constants = [value for name, value in vars(cli).items()
                 if name.startswith("EXIT_")]
    assert _documented_exit_codes(text) == sorted(constants) == sorted(set(constants))
    assert _documented_exit_codes(docstring) == sorted(constants)
