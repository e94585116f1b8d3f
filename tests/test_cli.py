"""CLI subcommands, exit codes, and report stability."""

import json
import os
import re
import subprocess
import sys
import time

import pytest

from cubicsym import catalog_graph, decode_graph6, is_isomorphic
from cubicsym.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


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


def test_analyze_requires_exactly_one_source(capsys):
    rc, _, err = run_cli(["analyze"], capsys)
    assert rc == 2
    rc, _, err = run_cli(
        ["analyze", "--catalog", "k4", "--graph6", "C~"], capsys
    )
    assert rc == 2


def test_unreadable_input_exit_2(capsys):
    rc, _, err = run_cli(["analyze", "--input", "/nonexistent/file"], capsys)
    assert rc == 2


def test_bad_graph6_exit_3(capsys):
    rc, _, err = run_cli(["analyze", "--graph6", "C~~~"], capsys)
    assert rc == 3
    assert "offset" in err


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

        assert girth(decode_graph6(line)).length == 5


def test_enumerate_odd_order_usage_error(capsys):
    rc, _, err = run_cli(["enumerate", "9"], capsys)
    assert rc == 2


@pytest.mark.parametrize("spec", ["vertex-transitive=7", "girth"])
def test_enumerate_malformed_predicate_exit_2(spec, capsys):
    # a value on a predicate that takes none, or none on one that needs it
    rc, out, err = run_cli(["enumerate", "8", "--predicate", spec], capsys)
    assert rc == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


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


def test_verify_max_n_below_range_exit_2(capsys):
    rc, out, err = run_cli(["verify", "lem45", "--max-n", "2"], capsys)
    assert rc == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def test_verify_max_n_above_range_exit_2_before_generating(capsys):
    start = time.perf_counter()
    rc, out, err = run_cli(["verify", "lem45", "--max-n", "22"], capsys)
    assert time.perf_counter() - start < 0.5
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
    assert payload["schema"] == "cubicsym/report-v1"


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


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cubicsym.cli", "catalog", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "petersen" in proc.stdout


def test_verify_reports_match_golden_bytes(capsys):
    # recorded before the claims became one table over one record stream
    with open(os.path.join(GOLDEN, "verify_reports.json")) as fh:
        entries = json.load(fh)
    for entry in entries:
        rc, out, _ = run_cli(entry["argv"], capsys)
        assert (rc, out) == (entry["exit"], entry["stdout"]), entry["argv"]


def _readme_paragraph(start):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    para = text[text.index(start) + len(start):].split("\n\n")[0]
    first_sentence = re.sub(r"\([^)]*\)", "", para).split(". ")[0]
    return re.findall(r"`([^`]+)`", first_sentence)


def test_readme_lists_the_claim_ids_and_predicates():
    from cubicsym import CLAIM_IDS, PREDICATES

    assert sorted(_readme_paragraph("Claim ids for `verify`:")) == list(CLAIM_IDS)
    named = _readme_paragraph("Predicates for `enumerate --predicate`:")
    assert sorted(p.split("=")[0] for p in named) == sorted(PREDICATES)


def test_predicate_help_lists_the_registry(capsys):
    from cubicsym import PREDICATES

    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--help"])
    out, _ = capsys.readouterr()
    assert exc.value.code == 0
    listed = "".join(out.split()).split("oneof:")[1]  # wrapping adds spaces
    for name in PREDICATES:
        assert f",{name}" in "," + listed
