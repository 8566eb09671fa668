"""CLI behaviour: outputs, exit codes, determinism."""

import json

import pytest

from signedchrom.cli import main
from signedchrom.graphs import SignedGraph, fixture, format_graph


@pytest.fixture
def g1_file(tmp_path):
    path = tmp_path / "g1.sg"
    path.write_text(format_graph(fixture("G1")))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_chrom_matches_display(capsys, g1_file):
    code, out, _ = run(capsys, "chrom", g1_file)
    assert code == 0
    payload = json.loads(out)
    assert payload["format"] == 1
    assert payload["even"] == ["0", "12", "-24", "19", "-7", "1"]
    assert payload["odd"] == ["-4", "16", "-25", "19", "-7", "1"]


def test_chrom_bivariate(capsys, g1_file):
    code, out, _ = run(capsys, "chrom", g1_file, "--bivariate")
    assert code == 0
    payload = json.loads(out)
    assert [0, 1, "-8"] in payload["even"]


def test_chrom_deterministic(capsys, g1_file):
    _, out1, _ = run(capsys, "chrom", g1_file)
    _, out2, _ = run(capsys, "chrom", g1_file)
    assert out1 == out2


def test_oracle(capsys, g1_file):
    code, out, _ = run(capsys, "oracle", g1_file, "--lambda", "3")
    assert code == 0
    assert json.loads(out)["count"] == "8"


def test_oracle_budget_exit_2(capsys, g1_file):
    code, _, err = run(capsys, "--oracle-budget", "10", "oracle", g1_file, "--lambda", "3")
    assert code == 2
    assert "error" in err


def test_threshold_example(capsys):
    code, out, _ = run(capsys, "threshold", "--code", "1,-1,0,-1,1,0,1")
    assert code == 0
    payload = json.loads(out)
    # univariate even specialization starts 0, 1320, ... (degree 8, monic)
    assert payload["even_univariate"][-1] == "1"
    assert len(payload["even_univariate"]) == 9
    from signedchrom import reference
    from signedchrom.poly import bipoly_to_json
    assert payload["even"] == bipoly_to_json(reference.THRESHOLD_EXAMPLE_BIVARIATE.even)


def test_threshold_empty_code(capsys):
    code, out, _ = run(capsys, "threshold", "--code", "")
    assert code == 0
    assert json.loads(out)["even"] == [[1, 0, "1"]]


def test_closed_form(capsys):
    code, out, _ = run(capsys, "closed-form", "--family", "1", "-l", "0", "-m", "0", "-n", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["even"] == ["0", "3", "-3", "1"]
    assert payload["odd"] == ["-1", "3", "-3", "1"]


def test_identities_exit_codes(capsys):
    code, out, _ = run(capsys, "identities", "--max", "2", "--output", "text")
    assert code == 0
    assert len([l for l in out.splitlines() if l]) == 9


def test_enumerate_complete3(capsys):
    code, out, _ = run(capsys, "enumerate", "--underlying", "complete:3", "--mode", "switch")
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 2
    assert [c["mask"] for c in payload["classes"]] == [0, 1]


def test_enumerate_spot_check(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--underlying", "complete:3", "--mode", "switch",
        "--spot-check", "5", "--seed", "42",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["spot_check"]["mismatches"] == 0
    assert payload["spot_check"]["seed"] == 42


@pytest.mark.parametrize(
    "underlying,mode",
    [("complete:5", "switch"), ("complete:5", "iso"), ("petersen", "switch")],
)
def test_enumerate_spot_check_exit_0(capsys, underlying, mode):
    code, out, _ = run(
        capsys,
        "enumerate", "--underlying", underlying, "--mode", mode,
        "--spot-check", "5", "--seed", "7",
    )
    assert code == 0
    assert json.loads(out)["spot_check"]["mismatches"] == 0


def test_search_cochromatic_cli(capsys):
    code, out, err = run(capsys, "search-cochromatic", "--underlying", "G1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["details"]["cochromatic_groups"]) == 1
    assert "search-cochromatic" in err


def test_verify_cli_small(capsys):
    code, out, err = run(capsys, "verify", "--conjecture", "threshold", "--max", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "pass"
    assert "elapsed" not in payload  # stdout stays byte-deterministic
    assert "PASS" in err


def test_fixtures_json_and_text(capsys):
    code, out, _ = run(capsys, "fixtures", "--name", "minusK:2")
    assert code == 0
    assert json.loads(out)["edges"] == [[0, 1, "-"]]
    code, out, _ = run(capsys, "fixtures", "--name", "minusK:2", "--output", "text")
    assert code == 0
    assert out == "n 2\ne 0 1 -\n"


def test_unknown_fixture_exit_2(capsys):
    code, _, err = run(capsys, "fixtures", "--name", "bogus")
    assert code == 2 and "error" in err


def test_parse_error_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.sg"
    bad.write_text("e 0 1 +\n")
    code, _, err = run(capsys, "chrom", str(bad))
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "chrom", str(tmp_path / "missing.sg"))
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--conjecture", "threshold", "--max", "-3"),
        ("verify", "--conjecture", "cochromatic-complete", "--max", "-1"),
        ("verify", "--conjecture", "bivariate-complete", "--max", "-1"),
        ("identities", "--max", "-1"),
    ],
)
def test_negative_max_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["chrom"])  # missing file argument
    assert exc.value.code == 2


def test_verification_failure_exit_1(capsys, monkeypatch):
    import signedchrom.cli as cli
    from signedchrom.verify import VerificationReport

    failing = VerificationReport("reproduce-tables", None, "counterexample",
                                 {"checks": []}, 0.0)
    monkeypatch.setattr(cli.verify, "reproduce_tables", lambda: failing)
    code, out, _ = run(capsys, "reproduce-tables")
    assert code == 1
    assert json.loads(out)["status"] == "counterexample"


def test_chrom_and_oracle_agree_on_fixtures(capsys, tmp_path):
    """Smoke test: polynomial evaluations match oracle counts at small lambda."""
    from signedchrom.chromatic import chromatic_pair, count_colourings_oracle, make_colour_spec

    cases = [
        (name, 6)
        for name in ("G1", "G2", "Sigma1", "Sigma2", "Sigma3", "Sigma4",
                     "plusK:4", "minusK:4", "plusK:0")
    ]
    cases.append(("petersen", 4))  # 10 vertices: keep the oracle affordable
    for name, lam_stop in cases:
        g = fixture(name)
        pair = chromatic_pair(g)
        for lam in range(lam_stop):
            want = count_colourings_oracle(g, make_colour_spec(lam, 0))
            poly = pair.even if lam % 2 == 0 else pair.odd
            assert poly.evaluate(lam) == want


def test_search_cochromatic_subset_budget_refusal(capsys):
    code, out, _ = run(
        capsys, "search-cochromatic", "--underlying", "complete:6", "--subset-budget", "10"
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "budget_exceeded"
    assert "subset-expansion budget of 10" in payload["details"]["error"]


def test_enumerate_subset_budget_exit_2(capsys):
    code, out, err = run(
        capsys,
        "enumerate", "--underlying", "complete:6", "--mode", "switch", "--subset-budget", "10",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_chrom_complete8_exceeds_budget_exit_2(capsys, tmp_path):
    """A signed K_8 (28 edges) is still refused by the 24-edge pair budget."""
    edges = tuple((u, v, -1 if u == 0 else 1) for u in range(8) for v in range(u + 1, 8))
    path = tmp_path / "k8.sg"
    path.write_text(format_graph(SignedGraph(8, edges)))
    code, out, err = run(capsys, "chrom", str(path))
    assert code == 2
    assert out == ""
    assert "28 edges" in err
