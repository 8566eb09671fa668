"""Golden stdout: each command prints the same bytes as when the digests were taken.

Every command runs `cli.main` in-process and the sha256 of its stdout is
compared with a recorded digest.  The digests were taken before univariate
polynomials became `BiPoly`s with no y terms, so they pin the JSON and text
renderings of both polynomial shapes across that change.  The threshold
cases after them (the stretch verifier, a 40-entry code and a relabelled
20-vertex threshold graph, whose pair the peel rebuilds by `threshold_step`)
were recorded before the fingerprint slots went from 128 to 64 bits and the
deletion-formula steps became index moves.  The last three (the 12
co-chromatic groups and 61 certificates of a 7-vertex, 12-edge graph, and
the 156 iso classes of signed K_6) were recorded before the certificate
moved into `equivalence` and every sign-matrix search got one builder.  The
two JSON `verify --conjecture threshold` digests were re-taken when the exact
prefix went from length 6 to 3; the parent's stdout differed from the new one
in `details.method` alone (`exact_to`, `fingerprint_from`) for every `--max`
from 0 to 12.  Every digest held when the deletion-formula steps went from
index moves on term dicts back to `BiPoly` ring operations, and every
threshold digest held when the check of lemma L went from residues mod
2^31 - 1 to exact values at (-1, 1).  The
`identities --max 3 --output text` digest was recorded before the identity
suite became one table of rows whose text the CLI renders.  The
`reproduce-tables --output text` digest and the stderr digests of three
JSON-mode runs (the summary lines echoed there, with the wall time masked)
were recorded while each verifier still returned a report object, before
the CLI rendered the summary line from the payload.  The stream digest, over
the exit codes and stdout of `search-cochromatic` on the benchmark's 200
seed-11 search inputs, was recorded before a batch of switching classes was
tallied in one walk of its chord-sign trie.  The graph files are written to
a temporary directory; their paths do not reach stdout.
"""

import hashlib
import importlib
import pathlib
import re
import sys

import pytest
from oracles import relabel

from signedchrom.cli import main
from signedchrom.graphs import SignedGraph, fixture, format_graph, threshold_graph

G1 = "{G1}"  # replaced by the path of the G1 graph file
T20 = "{T20}"  # replaced by the path of a relabelled threshold graph on 20 vertices
G072 = "{G072}"  # replaced by the path of a connected 7-vertex, 12-edge graph
CODE40 = "1,-1,0,1,-1,-1,1,-1,0,1,-1,1,-1,-1,-1,0,0,-1,-1,-1,1,0,-1,1,-1,-1,1,1,1,-1,1,1,0,-1,-1,-1,1,-1,0,0"
GRAPHS = {
    G1: fixture("G1"),
    T20: relabel(
        threshold_graph((-1, 1, -1, 1, 0, 1, 1, -1, -1, 1, 1, 1, -1, 0, -1, 1, 1, -1, 1)),
        (18, 11, 19, 12, 8, 17, 0, 16, 2, 3, 4, 5, 14, 9, 7, 10, 13, 15, 6, 1),
    ),
    G072: SignedGraph(7, tuple((u, v, 1) for u, v in (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 3),
        (1, 4), (1, 5), (1, 6), (2, 4), (3, 4), (5, 6),
    ))),
}

GOLDEN = [
    (["chrom", G1],
     "6304e59701c25c49ee93b569f442a6a140f9394966d527b27d41c5beb5f83ea9"),
    (["chrom", G1, "--output", "text"],
     "263c9d07c2a335d8cde3c98df144fbe1054848d7c1b7c75b99703e63f41edd43"),
    (["chrom", G1, "--bivariate"],
     "df12dd76be9d2a19d19d56435f9f5d1c311597fff25020b462ad725c8086a6dc"),
    (["chrom", G1, "--bivariate", "--output", "text"],
     "6826446d6fce53580b3c01d5b7e2a608970dedc58fc2250a2ed0f6437249b685"),
    (["threshold", "--code", "1,-1,0,-1,1,0,1"],
     "e4148421cde807c58f9bb35b9344ded04892547be0638d7790152c7fc85f76b6"),
    (["threshold", "--code", "1,-1,0,-1,1,0,1", "--output", "text"],
     "c5d71e01c1aacff316c466d4919f4916760519ff34ed94422f2f2c258aaa4576"),
    (["closed-form", "--family", "2", "-l", "4", "-m", "3", "-n", "2"],
     "fff07654d4a3453e1712e42ebfe4764981137cca092be7ab419fa432c7edcae1"),
    (["identities", "--max", "3"],
     "c503eb4ef4d71cbed3d0cde65a4e63f07592054b8d5662cbc5d24a8c03fd1e5d"),
    (["identities", "--max", "3", "--output", "text"],
     "e023c2ffeb50ee5968b3faa6cf04e7458519ef6506315c69a8795da1a359dc79"),
    (["enumerate", "--underlying", "petersen", "--mode", "switch", "--spot-check", "20"],
     "8316349f964c7ddf0a49f7be358ee11790a573ea55175573c87da94b09ab6863"),
    (["search-cochromatic", "--underlying", "G1"],
     "e9ef77336781b5afa29890441fbc5aea4f87066821797490495c15afdea8b016"),
    (["reproduce-tables"],
     "014114771be063345139ec4b2509c2a8ec75d54b0b7ea20b3ac7014584a8dcbf"),
    (["verify", "--conjecture", "cochromatic-complete"],
     "7b13337b413165ec42fc8bb8086998cc467dd9547b467a86b8d632207d0efae2"),
    (["verify", "--conjecture", "threshold"],
     "dc4dc4988c106feb832b497e3c08e6c9bce12c10fe6adf602afa185e0aa6e7db"),
    (["verify", "--conjecture", "bivariate-complete"],
     "a6f2c03f3378b7a9a6ef3b8a7158125c3b7f4c868ffc8f63a0c820164d1a2cda"),
    (["verify", "--conjecture", "threshold", "--stretch"],
     "9b8754a41b96601c30ed3cd73f73b0607c33f2acb1a2467b9c6437dc65f4b286"),
    (["verify", "--conjecture", "threshold", "--stretch", "--output", "text"],
     "876e1d54b5a0ad404c5dd767f2d3661c484110cacac5d5956570d855fc99d0c9"),
    (["threshold", "--code", CODE40],
     "0d92c7f3070b8dbb38e492f164aa1e8394b206b4869b1f17b154365ab264774e"),
    (["threshold", "--code", CODE40, "--output", "text"],
     "45ddd840527ab5fbf070945695392cb98bbd2d7ff59f951cf3f8fa64d0dffde2"),
    (["chrom", T20, "--bivariate"],
     "19fe30ad5ab41db61032b4b73968592028fc64a9562247f359e5296180601d6a"),
    (["chrom", T20, "--bivariate", "--output", "text"],
     "2c25bb8fa19c2a20f25cbf330dbbd13b34f96db81d120f021c85dfeb7e212023"),
    (["search-cochromatic", "--underlying", G072],
     "432f666b20018cff8f7c593f556203d36eb5a8196a450c887dcc4bb6c2275db7"),
    (["search-cochromatic", "--underlying", G072, "--output", "text"],
     "dcb751c252363d093c6443f89e822a0009561a910c91fdcb3571d333d244b4dd"),
    (["enumerate", "--underlying", "complete:6", "--mode", "iso"],
     "581eda15456c3c9b34d6ac151b38b29b5ce849136f38ff8fdb080c61b21e508c"),
    (["reproduce-tables", "--output", "text"],
     "119a656392ce802166766ffb61c624caea615081cb0fbdc332a9c770b41e4099"),
]

# sha256 of stderr with the wall-time figure replaced by "X"
GOLDEN_STDERR = [
    (["verify", "--conjecture", "cochromatic-complete", "--max", "4"],
     "961736d73853d1e240a555360fdcd49a29e73b3026054639a3d7117275f41a69"),
    (["reproduce-tables"],
     "03d75037106e0fb753e08719bd582288a950bb12544b5de030b9b5e7032d1277"),
    (["search-cochromatic", "--underlying", "G1"],
     "ed724f139570a9968ef5924d4bcb548d5feeaf45ec12231528c1f6e99000eb3c"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_matches_golden_digest(capsys, tmp_path, argv, digest):
    paths = {name: tmp_path / f"{name.strip('{}')}.sg" for name in GRAPHS}
    for name, graph in GRAPHS.items():
        paths[name].write_text(format_graph(graph))
    assert main([str(paths.get(a, a)) for a in argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", GOLDEN_STDERR,
                         ids=[" ".join(a) for a, _ in GOLDEN_STDERR])
def test_json_mode_stderr_matches_golden_digest(capsys, argv, digest):
    assert main(argv) == 0
    err = re.sub(r"wall time: \d+\.\d\ds", "wall time: X", capsys.readouterr().err)
    assert err.endswith("wall time: X\n")
    assert hashlib.sha256(err.encode()).hexdigest() == digest


BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
STREAM_DIGEST = "3ab1e24cc304f0fafcd499fb4f638a116e6389fc09fe18a3dff733de2fd7a514"
OTHER_STREAM_DIGESTS = {
    5: "6b6e1b26cbf390f780c9b47442866a5b06f70c0f0cb541c56f9badecc2e80615",
    301: "f2cdbc2c69a5b465b7f82f78b557da27a6257a56fbcfc769b34c2b145400c647",
}


def stream_digest(capsys, tmp_path, seed):
    """Each of the 200 inputs of the `cochromatic-search` stream at `seed`
    adds its exit code, a newline and its stdout to one sha256."""
    sys.path.insert(0, str(BENCH))
    try:
        inputs = importlib.import_module("inputs")
    finally:
        sys.path.remove(str(BENCH))
    digest = hashlib.sha256()
    for name, text in inputs.generate(seed):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code = main(["search-cochromatic", "--underlying", str(path)])
        digest.update(f"{code}\n{capsys.readouterr().out}".encode())
    return digest.hexdigest()


def test_search_stream_matches_golden_digest(capsys, tmp_path):
    """The stream at seed 11."""
    assert stream_digest(capsys, tmp_path, 11) == STREAM_DIGEST


@pytest.mark.parametrize("seed", list(OTHER_STREAM_DIGESTS))
def test_search_stream_at_other_seeds_matches_golden_digest(capsys, tmp_path, seed):
    assert stream_digest(capsys, tmp_path, seed) == OTHER_STREAM_DIGESTS[seed]
