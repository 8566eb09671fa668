"""CLI behaviour: outputs, exit codes, determinism."""

import argparse
import hashlib
import itertools
import json
import pathlib
import random
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import count_colourings_oracle, relabel

import signedchrom
from signedchrom import chromatic, cli, closedform
from signedchrom.cli import MAX_GRAPH_FILE_BYTES, build_parser, main
from signedchrom.graphs import MAX_VERTICES, SignedGraph, fixture, format_graph, threshold_graph
from signedchrom.poly import BiPoly, BivariatePair, pair_to_json


@pytest.fixture
def g1_file(tmp_path):
    path = tmp_path / "g1.sg"
    path.write_text(format_graph(fixture("G1")))
    return str(path)


# A positive path on the most vertices a graph file may have.
PATH_256 = SignedGraph(MAX_VERTICES, tuple((v, v + 1, 1) for v in range(MAX_VERTICES - 1)))


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
    """G1 has 8 proper colourings from 3 colours, read off by `chrom --lambda`."""
    code, out, _ = run(capsys, "chrom", g1_file, "--lambda", "3")
    assert code == 0
    assert json.loads(out)["count"] == "8"
    code, out, _ = run(capsys, "chrom", g1_file, "--output", "text", "--lambda", "3")
    assert code == 0
    assert out.splitlines()[-1] == "count: 8"


def test_oracle_budget_exit_2(capsys, g1_file):
    """One colour past the colour cap is refused on G1, in both modes."""
    lam = cli.MAX_COLOURS + 1
    for flags in ([], ["--bivariate"]):
        code, out, err = run(capsys, "chrom", g1_file, "--lambda", str(lam), *flags)
        assert code == 2
        assert out == ""
        assert err == f"error: --lambda {lam} exceeds the colour cap of {cli.MAX_COLOURS}\n"


def test_chrom_and_oracle_agree_on_fixtures(capsys, tmp_path):
    """`chrom --lambda L [--mu M]` prints the number of proper colourings from
    the (L, M)-colour set, read off the pair it computes; the brute force
    counts them one colour function at a time."""
    path = tmp_path / "g.sg"
    cases = [(name, 6) for name in ("G1", "G2", "Sigma1", "Sigma2", "Sigma3", "Sigma4",
                                    "plusK:4", "minusK:4", "plusK:1", "plusK:0")]
    cases.append(("petersen", 4))  # 10 vertices: keep the brute force affordable
    for name, lam_stop in cases:
        g = fixture(name)
        path.write_text(format_graph(g))
        for lam in range(lam_stop):
            code, out, _ = run(capsys, "chrom", str(path), "--lambda", str(lam))
            payload = json.loads(out)
            assert code == 0 and (payload["lambda"], payload["mu"]) == (lam, 0)
            assert payload["count"] == str(count_colourings_oracle(g, lam)), (name, lam)
    g1 = fixture("G1")
    path.write_text(format_graph(g1))
    for lam in range(5):
        for mu in range(lam + 1):
            code, out, _ = run(capsys, "chrom", str(path), "--bivariate", "--output", "text",
                               "--lambda", str(lam), "--mu", str(mu))
            assert code == 0
            assert out.splitlines()[2:] == [f"count: {count_colourings_oracle(g1, lam, mu)}"]


def test_chrom_lambda_at_the_colour_cap(capsys, tmp_path):
    """On a positive path every vertex after the first avoids one colour:
    L (L - 1)^(n - 1) colourings, 1,024 digits at the cap on 256 vertices."""
    path = tmp_path / "path.sg"
    path.write_text(format_graph(PATH_256))
    lam = cli.MAX_COLOURS
    for flags in ([], ["--bivariate"]):
        code, out, _ = run(capsys, "chrom", str(path), "--lambda", str(lam), *flags)
        assert code == 0
        assert json.loads(out)["count"] == str(lam * (lam - 1) ** (MAX_VERTICES - 1))


def test_oracle_command_is_gone(capsys, g1_file):
    """Brute-force counting is a test oracle only; `chrom --lambda` counts,
    and the removed command's error line says so."""
    with pytest.raises(SystemExit) as exc:
        main(["oracle", g1_file, "--lambda", "3"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        "signedchrom: error: the oracle command is gone;"
        " count with chrom FILE --lambda L [--mu M]"
    )


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


def _threshold_fold(code):
    """The bivariate pair of a threshold code, by the deletion formulae alone."""
    pair = BivariatePair(BiPoly.x(), BiPoly.x())
    for a in code:
        pair = chromatic.threshold_step(a, pair)
    return pair


@pytest.mark.parametrize("code, seconds", [
    # its frontier tally is refused after about 5 s, past 150,000 entries
    ((1, 0, -1) * 4 + (1,), 0.1),
    # MAX_PEEL_N vertices, seeded random entries
    (tuple(random.Random(41).choices((-1, 0, 1), k=chromatic.MAX_PEEL_N - 1)), 1.0),
])
def test_chrom_bivariate_peels_threshold_graphs(capsys, tmp_path, code, seconds):
    """A relabelled threshold graph is peeled by the deletion formulae down to
    one vertex: `chrom --bivariate` equals the fold of its code and `threshold
    --code` prints the same pair."""
    g = threshold_graph(code)
    perm = list(range(g.n))
    random.Random(len(code)).shuffle(perm)
    path = tmp_path / "threshold.sg"
    path.write_text(format_graph(relabel(g, perm)))
    want = pair_to_json(_threshold_fold(code))
    start = time.perf_counter()
    status, out, _ = run(capsys, "chrom", str(path), "--bivariate")
    elapsed = time.perf_counter() - start
    assert status == 0
    payload = json.loads(out)
    assert (payload["even"], payload["odd"]) == (want["even"], want["odd"])
    assert elapsed < seconds, elapsed
    status, out, _ = run(capsys, "threshold", "--code", ",".join(map(str, code)))
    assert status == 0
    payload = json.loads(out)
    assert (payload["even"], payload["odd"]) == (want["even"], want["odd"])


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


# Stdout of `identities --max 3 --output text` with H1 off by one at (2, 1, 0)
# and H4 off by one wherever l > m, recorded before the identity suite became
# one table of rows and the CLI took over rendering its lines.
IDENTITY_FAILURES = (
    "i: H1(l,m,n) = H1(n,m,l) [params <= 3, 64 checks] FAIL  first counterexample: (l,m,n)=(0, 1, 2)\n"
    "ii: H2 symmetric in all three parameters [params <= 3, 320 checks] PASS\n"
    "iii: H1(l,1,n) = H2(l,1,n) [params <= 3, 16 checks] FAIL  first counterexample: (l,n)=(2, 0)\n"
    "iv: H1(q,0,r) = H2(q,0,r) = H(q+r) [params <= 3, 32 checks] PASS\n"
    "v: H4(l,m,n) = H4(m,l,n) [params <= 3, 64 checks] FAIL  first counterexample: (l,m,n)=(0, 1, 0)\n"
    "vi: H3 symmetric in all three parameters [params <= 3, 320 checks] PASS\n"
    "vii: H3(l,m,1) = H4(l,m,1) [params <= 3, 16 checks] FAIL  first counterexample: (l,m)=(1, 0)\n"
    "viii: H3(q,r,0) = H4(q,r,0) = (x)_{q+r}; (x)_n = sum_j T(n,j) * 2-falling(n-j) [params <= 3, 39 checks] FAIL  first counterexample: (q,r)=(1, 0) H4\n"
    "ix: H1(0,m,n) = H4(1,m,n-1) for n >= 1 [params <= 3, 12 checks] FAIL  first counterexample: (m,n)=(0, 1)\n"
)
IDENTITY_FAILURES_JSON_SHA256 = "ce36367d9e05f3fff7dce074d6b54777dce3d5fea4e90b8d4a3efccd486daee8"


def test_identities_failure_exit_1(capsys, monkeypatch):
    """Failing identities exit 1 and name their first counterexamples, in
    text on stdout and, in JSON mode, on stderr beside the JSON payload."""
    h1, h4 = closedform.H1, closedform.H4
    monkeypatch.setattr(closedform, "H1", lambda l, m, n: h1(l, m, n) + int((l, m, n) == (2, 1, 0)))
    monkeypatch.setattr(closedform, "H4", lambda l, m, n: h4(l, m, n) + int(l > m))
    assert run(capsys, "identities", "--max", "3", "--output", "text") == (1, IDENTITY_FAILURES, "")
    code, out, err = run(capsys, "identities", "--max", "3")
    assert (code, err) == (1, IDENTITY_FAILURES)
    assert hashlib.sha256(out.encode()).hexdigest() == IDENTITY_FAILURES_JSON_SHA256
    payload = json.loads(out)
    assert payload["all_pass"] is False
    assert [r["name"] for r in payload["identities"] if r["status"] == "pass"] == ["ii", "iv", "vi"]


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


def test_enumerate_spot_check_that_draws_a_mask_twice(capsys):
    """Masks are drawn with replacement: seed 2 draws one of G1's 128 masks
    twice among 20, so the members' batch repeats a graph, and its walk
    still matches every class pair."""
    rng = random.Random(2)
    masks = [rng.randrange(1 << 7) for _ in range(20)]
    assert len(set(masks)) < len(masks)
    code, out, _ = run(
        capsys,
        "enumerate", "--underlying", "G1", "--mode", "switch",
        "--spot-check", "20", "--seed", "2",
    )
    assert code == 0
    assert json.loads(out)["spot_check"] == {"samples": 20, "seed": 2, "mismatches": 0}


CLASS_COUNTS = {
    ("complete:5", "switch"): 7,
    ("complete:5", "iso"): 34,
    ("petersen", "switch"): 6,
    ("petersen", "iso"): 396,
}


@pytest.mark.parametrize("underlying,mode", list(CLASS_COUNTS))
def test_enumerate_spot_check_exit_0(capsys, underlying, mode):
    code, out, _ = run(
        capsys,
        "enumerate", "--underlying", underlying, "--mode", mode,
        "--spot-check", "5", "--seed", "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == CLASS_COUNTS[underlying, mode]
    assert payload["spot_check"]["mismatches"] == 0


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


def test_text_stdout_does_not_carry_the_wall_time(capsys, monkeypatch):
    """Text summaries are byte-identical under two clocks; the time is on stderr."""
    commands = [
        ["reproduce-tables", "--output", "text"],
        ["verify", "--conjecture", "threshold", "--max", "3", "--output", "text"],
        ["search-cochromatic", "--underlying", "G1", "--output", "text"],
    ]
    for argv in commands:
        outs = []
        for step in (1.0, 7.25):
            clock = itertools.count(0.0, step)
            monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=clock.__next__))
            code, out, err = run(capsys, *argv)
            assert code == 0
            assert f"wall time: {step:.2f}s" in err
            outs.append(out)
        assert outs[0] == outs[1], argv
        assert "PASS" in outs[0]


def test_fixtures_json_and_text(capsys):
    code, out, _ = run(capsys, "fixtures", "--name", "minusK:2")
    assert code == 0
    assert json.loads(out)["edges"] == [[0, 1, "-"]]
    code, out, _ = run(capsys, "fixtures", "--name", "minusK:2", "--output", "text")
    assert code == 0
    assert out == "n 2\ne 0 1 -\n"


def test_output_flag_does_not_outlive_its_call(capsys):
    """The parser is built once per process, so a flag must not stick to it."""
    for text_argv in (
        ("fixtures", "--name", "minusK:2", "--output", "text"),
        ("--output", "text", "fixtures", "--name", "minusK:2"),
    ):
        assert run(capsys, *text_argv) == (0, "n 2\ne 0 1 -\n", "")
        code, out, _ = run(capsys, "fixtures", "--name", "minusK:2")
        assert code == 0
        assert json.loads(out)["edges"] == [[0, 1, "-"]]


_JSON_TEXT = st.text(st.characters(), max_size=6) | st.sampled_from(
    ["", "\"", "\\", "\n\t\x00\x7f", "é", " ", "😀", "a\"b\\c"]
)
_JSON_KEYS = _JSON_TEXT | st.integers(-10**20, 10**20) | st.booleans() | st.none()
_JSON_PAYLOADS = st.recursive(
    _JSON_TEXT | st.integers(-10**30, 10**30) | st.booleans() | st.none() | st.floats(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_PAYLOADS)
def test_json_text_is_json_dumps_with_indent_2(payload):
    """The CLI's JSON emitter gives the bytes of `json.dumps(payload,
    indent=2)`: non-ASCII and escaped strings, int, bool and None keys,
    None, floats, and empty and nested-empty containers."""
    assert cli._json(payload) == json.dumps(payload, indent=2)
    assert cli._json([payload, {}, [[]], {"": []}]) == json.dumps(
        [payload, {}, [[]], {"": []}], indent=2
    )


def test_json_text_refuses_what_json_refuses():
    for bad in ({(1, 2): 0}, {"a": [object()]}, {1.5j: 0}):
        with pytest.raises(TypeError):
            json.dumps(bad, indent=2)
        with pytest.raises(TypeError):
            cli._json(bad)


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


@pytest.mark.parametrize("command", [["chrom"], ["search-cochromatic", "--underlying"]])
def test_undecodable_graph_file_exit_2(capsys, tmp_path, command):
    path = tmp_path / "utf16.sg"
    path.write_bytes(b"\xff\xfen 2\n")
    code, out, err = run(capsys, *command, str(path))
    assert code == 2
    assert out == ""
    assert err == (f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff"
                   " in position 0: invalid start byte\n")


def test_graph_file_cap_exit_2(capsys, tmp_path):
    """A file at the cap is read; one byte more is refused, and so is a file
    four times the cap, after reading only one byte past the cap."""
    path = tmp_path / "long.sg"
    header = b"n 2\ne 0 1 -\n"
    path.write_bytes(header + b"#" * (MAX_GRAPH_FILE_BYTES - len(header)))
    code, out, _ = run(capsys, "chrom", str(path))
    assert code == 0 and json.loads(out)["even"]
    message = f"error: {path} exceeds the graph-file cap of {MAX_GRAPH_FILE_BYTES} bytes\n"
    for size in (1, 3 * MAX_GRAPH_FILE_BYTES):
        with open(path, "ab") as fh:
            fh.write(b"#" * size)
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "chrom", str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (2, "", message)
        assert peak < 2 * MAX_GRAPH_FILE_BYTES, peak


def test_cli_import_loads_no_heavy_stdlib_modules():
    """`import signedchrom.cli` adds neither dataclasses nor fractions (with
    their inspect and decimal imports) nor closedform nor reference to what
    a bare interpreter loads; only closed-form and identities load
    closedform, and only reproduce-tables loads reference and so builds its
    polynomials: the bivariate verifier does not."""
    script = "import sys; print(*sorted(sys.modules))"
    src = pathlib.Path(signedchrom.__file__).resolve().parent.parent

    def modules(prefix):
        proc = subprocess.run([sys.executable, "-c", prefix + script], cwd=src,
                              capture_output=True, text=True, check=True)
        return set(proc.stdout.split())

    added = modules("import signedchrom.cli; ") - modules("")
    assert "signedchrom.verify" in added
    heavy = {"dataclasses", "fractions", "signedchrom.closedform", "signedchrom.reference"}
    assert added & heavy == set()
    call = "from signedchrom import verify; verify.{}; "
    assert "signedchrom.reference" not in modules(call.format("verify_conj_complete_bivariate(3)"))
    assert "signedchrom.reference" in modules(call.format("reproduce_tables()"))


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--conjecture", "threshold", "--max", "-3"),
        ("verify", "--conjecture", "cochromatic-complete", "--max", "-1"),
        ("verify", "--conjecture", "bivariate-complete", "--max", "-1"),
        ("identities", "--max", "-1"),
        ("identities", "--max", "0"),  # identity ix has no case: no vacuous pass
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
    failing = {"target": "reproduce-tables", "scale": None, "status": "counterexample",
               "details": {"checks": []}}
    monkeypatch.setattr(cli.verify, "reproduce_tables", lambda: failing)
    code, out, _ = run(capsys, "reproduce-tables")
    assert code == 1
    assert json.loads(out)["status"] == "counterexample"
    code, out, _ = run(capsys, "reproduce-tables", "--output", "text")
    assert code == 1
    assert out == "reproduce-tables (scale None): COUNTEREXAMPLE\n"


def test_search_cochromatic_subset_budget_refusal(capsys, monkeypatch):
    """A pair refused by the frontier tally's budget inside the search: the
    Petersen classes peak at 94 to 160 live entries."""
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 93)
    code, out, err = run(capsys, "search-cochromatic", "--underlying", "petersen")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "exceed the tally budget of 93" in err


def test_enumerate_subset_budget_exit_2(capsys):
    for underlying, mode, bits in [("complete:8", "iso", 28), ("complete:200", "switch", 19701)]:
        code, out, err = run(capsys, "enumerate", "--underlying", underlying, "--mode", mode)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {bits} normal-form bits exceed"), underlying


def test_chrom_complete11_exceeds_budget_exit_2(capsys, tmp_path):
    """A signed K_11 is past the partition route's limit of 10 vertices."""
    edges = tuple((u, v, -1 if u == 0 else 1) for u in range(11) for v in range(u + 1, 11))
    path = tmp_path / "k11.sg"
    path.write_text(format_graph(SignedGraph(11, edges)))
    code, out, err = run(capsys, "chrom", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: signed K_11 exceeds the partition-route limit n = 10")


def test_enumerate_negative_spot_check_exit_2(capsys):
    code, out, err = run(
        capsys, "enumerate", "--underlying", "complete:3", "--mode", "switch",
        "--spot-check", "-3",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def run_refused_small(capsys, message, *argv):
    """Run a command that must be refused; nothing big may be built first.

    The inputs are just over the cap, so that a missing cap fails these tests
    on the message and the peak without allocating much either.
    """
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err
    assert peak < 2**20, peak


def test_vertex_cap_graph_file_exit_2(capsys, tmp_path):
    path = tmp_path / "over_cap.sg"
    path.write_text(f"n {MAX_VERTICES + 1}\n")
    run_refused_small(capsys, "vertex cap", "chrom", str(path))


@pytest.mark.parametrize("command", ["enumerate", "search-cochromatic"])
def test_vertex_cap_complete_underlying_exit_2(capsys, command):
    argv = [command, "--underlying", f"complete:{MAX_VERTICES + 1}"]
    if command == "enumerate":
        argv += ["--mode", "switch"]
    run_refused_small(capsys, "vertex cap", *argv)


@pytest.mark.parametrize(
    "message, argv",
    [
        (
            f"exceeds the cap of {chromatic.MAX_PEEL_N - 1}",
            ("threshold", "--code", ",".join(["1"] * chromatic.MAX_PEEL_N)),
        ),
        (
            f"exceeds the join-family cap of {closedform.MAX_JOIN_VERTICES}",
            ("closed-form", "--family", "2", "-l", "1", "-m", "0",
             "-n", str(closedform.MAX_JOIN_VERTICES)),
        ),
        (
            f"identity parameters capped at {closedform.MAX_IDENTITY_PARAM}",
            ("identities", "--max", str(closedform.MAX_IDENTITY_PARAM + 1)),
        ),
        (
            f"4097 exceeds the pair-batch cap of {chromatic.MAX_PAIR_BATCH}",
            ("enumerate", "--underlying", "petersen", "--mode", "switch",
             "--spot-check", str(chromatic.MAX_PAIR_BATCH + 1)),
        ),
    ],
)
def test_work_caps_exit_2(capsys, message, argv):
    """Inputs one past each cap are refused before any polynomial is built."""
    run_refused_small(capsys, message, *argv)


def test_oracle_refuses_before_building_colours(capsys, monkeypatch, tmp_path):
    """8,000,000 colours are refused before a pair is built, also on the 0-,
    1- and 2-vertex files whose counts would be small."""
    def built(g):
        raise AssertionError("a pair was built")

    monkeypatch.setattr(chromatic, "chromatic_pair", built)
    monkeypatch.setattr(chromatic, "bivariate_pair", built)
    cases = [
        ("n 2\ne 0 1 +\n", ["--lambda", "8000000"]),
        ("n 0\n", ["--lambda", "8000000"]),
        ("n 1\n", ["--lambda", "8000000"]),
        ("n 1\n", ["--lambda", "8000000", "--mu", "8000000", "--bivariate"]),
    ]
    path = tmp_path / "small.sg"
    message = f"--lambda 8000000 exceeds the colour cap of {cli.MAX_COLOURS}"
    for text, flags in cases:
        path.write_text(text)
        run_refused_small(capsys, message, "chrom", str(path), *flags)


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--lambda", "2", "--mu", "3", "--bivariate"], "need lam >= mu >= 0, got (2, 3)"),
        (["--lambda", "3", "--mu", "-1", "--bivariate"], "need lam >= mu >= 0, got (3, -1)"),
        (["--lambda", "-1"], "need lam >= mu >= 0, got (-1, 0)"),
        (["--lambda", "3", "--mu", "1"], "--mu > 0 needs --bivariate"),
        (["--mu", "0"], "--mu needs --lambda"),
        (["--lambda", str(cli.MAX_COLOURS + 1)], f"exceeds the colour cap of {cli.MAX_COLOURS}"),
    ],
    ids=["mu-above-lambda", "negative-mu", "negative-lambda", "mu-without-bivariate",
         "mu-without-lambda", "lambda-past-cap"],
)
def test_chrom_lambda_refused_before_any_pair(capsys, monkeypatch, tmp_path, flags, message):
    """Each bad (lambda, mu) exits 2 before a pair of the 256-vertex path is built."""
    path = tmp_path / "path.sg"
    path.write_text(format_graph(PATH_256))

    def built(g):
        raise AssertionError("a pair was built")

    monkeypatch.setattr(chromatic, "chromatic_pair", built)
    monkeypatch.setattr(chromatic, "bivariate_pair", built)
    run_refused_small(capsys, message, "chrom", str(path), *flags)


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def parser_options() -> dict[str, set[str]]:
    """The option strings of the top-level parser ("") and of each subcommand."""
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = {"": parser, **sub.choices}
    return {name: set(p._option_string_actions) for name, p in parsers.items()}


def test_global_and_enumerate_flags():
    options = parser_options()
    assert options[""] == {"-h", "--help", "--output"}
    assert {name for name, opts in options.items() if "--seed" in opts} == {"enumerate"}
    assert all("--output" in opts for opts in options.values())


def test_readme_names_only_cli_flags():
    """Every --flag README names, outside the pip/pytest install block, is
    an option of some parser."""
    head, rest = README.read_text().split("## Install and test", 1)
    text = head + rest.split("## CLI", 1)[1]
    named = set(re.findall(r"--[a-z][a-z-]*", text))
    assert "--spot-check" in named
    assert sorted(named - set().union(*parser_options().values())) == []


def readme_cli_examples():
    """The `signedchrom ...` lines of README's CLI block, without --stretch."""
    text = README.read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("signedchrom ")]
    return [line for line in lines if "--stretch" not in line]


@pytest.mark.parametrize("line", readme_cli_examples())
def test_readme_cli_examples_exit_0(capsys, tmp_path, monkeypatch, line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g1.sg").write_text(format_graph(fixture("G1")))
    argv = shlex.split(line, comments=True)[1:]
    target = None
    if ">" in argv:
        argv, target = argv[: argv.index(">")], argv[argv.index(">") + 1]
    code, out, _ = run(capsys, *argv)
    assert code == 0, line
    if target is not None:
        assert (tmp_path / target).read_text() == out


# Asymmetric graphs, so every signature is its own iso class and every
# switching coset its own switching class: 2^13 iso classes of the first,
# 2^(20 - 8 + 1) switching classes of the second.
ASYMMETRIC_7_13 = SignedGraph(7, tuple((u, v, 1) for u, v in (
    (0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 4), (1, 5), (2, 4), (2, 5),
    (3, 4), (3, 5), (5, 6),
)))
ASYMMETRIC_8_20 = SignedGraph(8, tuple((u, v, 1) for u, v in (
    (0, 2), (0, 3), (0, 5), (0, 7), (1, 3), (1, 4), (1, 6), (1, 7), (2, 3), (2, 5),
    (2, 6), (3, 4), (3, 5), (3, 6), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
)))


@pytest.mark.parametrize(
    "graph, argv",
    [
        (ASYMMETRIC_7_13, ["enumerate", "--mode", "iso"]),
        (ASYMMETRIC_8_20, ["enumerate", "--mode", "switch"]),
        (ASYMMETRIC_8_20, ["search-cochromatic"]),
    ],
)
def test_pair_batch_cap(capsys, monkeypatch, tmp_path, graph, argv):
    """8,192 classes are refused before any of their pairs is tallied: no
    DP step of a walk or of a single tally sizes its states."""
    path = tmp_path / "asymmetric.sg"
    path.write_text(format_graph(graph))
    misses = chromatic._subset_tally.cache_info().misses
    steps = [0]
    live_entries = chromatic._live_entries

    def counted(states, width):
        steps[0] += 1
        return live_entries(states, width)

    monkeypatch.setattr(chromatic, "_live_entries", counted)
    code, out, err = run(capsys, *argv, "--underlying", str(path))
    message = f"8192 graphs exceed the pair-batch cap of {chromatic.MAX_PAIR_BATCH}"
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert chromatic._subset_tally.cache_info().misses == misses
    assert steps[0] == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["enumerate", "--underlying", "plusK:300", "--mode", "switch"],
         "300 vertices exceed the vertex cap of 256"),
        (["search-cochromatic", "--underlying", "minusK:300"],
         "300 vertices exceed the vertex cap of 256"),
        (["enumerate", "--underlying", "plusK:x", "--mode", "switch"],
         "bad fixture name 'plusK:x'"),
        (["enumerate", "--underlying", "complete:x", "--mode", "switch"],
         "bad vertex count in 'complete:x'"),
        (["threshold", "--code", "1,x"], "bad threshold code '1,x'"),
    ],
)
def test_malformed_names_exit_2(capsys, argv, message):
    """A fixture-shaped name is never read as a file path."""
    run_refused_small(capsys, message, *argv)
