"""The CLI's exit contract under seeded random argv and malformed graph files.

Every case runs `cli.main` in-process and must end with exit 0, 1 or 2: no
exception escapes, stderr carries no traceback, an exit-2 case prints nothing
on stdout, and each case stays inside a time and a traced-memory bound.  The
values are drawn from pools that mix valid small inputs, malformed tokens and
values over each work bound, so that no valid case is a heavy run.  The
largest valid cases, added once each, are the ones the peel answers:
threshold codes of 39 to 42 entries (the last two refused), and `chrom
--bivariate` on relabelled threshold graphs of up to MAX_PEEL_N vertices.
"""

import io
import random
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from oracles import relabel

from signedchrom.chromatic import MAX_PEEL_N
from signedchrom.cli import MAX_COLOURS, main
from signedchrom.graphs import fixture_names, format_graph, threshold_graph

SEED = 20
CASES = 300
CASE_SECONDS = 5.0
CASE_PEAK_BYTES = 64 << 20

_INTS = ["-1", "0", "1", "2", "3", "x", "", "1.5", "99999999999999999999"]
# one past the colour cap, and an int longer than Python turns from a string
_COLOURS = _INTS + [str(MAX_COLOURS + 1), "1" * 4301]
_GRAPH_TEXTS = [
    "n 0\n",
    "n 1\n",
    "n 3\ne 0 1 +\ne 1 2 -\n",
    "n 4\ne 0 1 -\ne 1 2 -\ne 2 3 +\ne 0 3 +\ne 0 2 -\n",
    "# comment\n\nn 2\r\ne 0 1 -\r\n",
]
_BAD_LINES = [
    "n", "n -1", "n x", "n 257", "n 3 4", "e 0 1", "e 0 1 *", "e 0 0 +",
    "e 0 9 +", "e -1 0 -", "e a b +", "e 0 1 + +", "x 1", "n 2", "e 1 0 +",
    "e 0 1 -", "#", "\t", "n 99999999999999999999", "e 0 99999999999999999999 +",
    "n 256",
]
_BAD_BYTES = [b"\xff\xfe\x00", b"n 2\ne 0 1 \xe9\n", b"n 1\x00\n", b"\x00" * 64]


def _graph_files(tmp_path, rng) -> list[str]:
    """Valid small graph files, random line soups and undecodable files, plus
    a missing path and a directory."""
    paths = []

    def put(data: bytes) -> None:
        path = tmp_path / f"g{len(paths)}.sg"
        path.write_bytes(data)
        paths.append(str(path))

    for text in _GRAPH_TEXTS:
        put(text.encode())
    for _ in range(30):
        lines = [rng.choice(_BAD_LINES) for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.5:
            lines.insert(0, "n 3")
        put("\n".join(lines).encode())
    for data in _BAD_BYTES:
        put(data)
    return paths + [str(tmp_path / "missing.sg"), str(tmp_path)]


def _threshold_files(tmp_path, rng) -> list[str]:
    """Threshold graphs of random codes, relabelled at random, on 2 to
    MAX_PEEL_N vertices."""
    paths = []
    for n in (2, 9, 14, 27, MAX_PEEL_N):
        g = threshold_graph(rng.choices((-1, 0, 1), k=n - 1))
        perm = list(range(n))
        rng.shuffle(perm)
        path = tmp_path / f"threshold{n}.sg"
        path.write_text(format_graph(relabel(g, perm)))
        paths.append(str(path))
    return paths


def _underlying(rng, files) -> str:
    return rng.choice([
        "complete:0", "complete:3", "complete:5", "complete:-1", "complete:x",
        "complete:", "complete:99999999999999999999", "plusK:3", "minusK:4",
        "plusK:x", "minusK:-2", "nosuch", "G1", "Sigma3", rng.choice(files),
        rng.choice(files),
    ])


def _argv(rng, files) -> list[str]:
    """One random command line."""
    n = lambda: rng.choice(_INTS)  # noqa: E731
    command = rng.choice([
        "chrom", "chrom --lambda", "closed-form", "identities", "threshold", "enumerate",
        "search-cochromatic", "verify", "reproduce-tables", "fixtures", "junk",
    ])
    if command == "chrom":
        argv = ["chrom", rng.choice(files)] + rng.choice([[], ["--bivariate"]])
    elif command == "chrom --lambda":
        colours = lambda: rng.choice(_COLOURS)  # noqa: E731
        argv = ["chrom", rng.choice(files), "--lambda", colours()]
        argv += rng.choice([[], ["--bivariate"]])
        if rng.random() < 0.5:
            argv += ["--mu", colours()]
    elif command == "closed-form":
        argv = ["closed-form", "--family", rng.choice(["0", "1", "2", "3", "4", "5", "x"]),
                "-l", n(), "-m", n(), "-n", n()]
    elif command == "identities":
        argv = ["identities"] + rng.choice([[], ["--max", n()]])
    elif command == "threshold":
        entries = [rng.choice(["-1", "0", "1", "2", "x", "", " 1"])
                   for _ in range(rng.choice([0, 1, 3, 7, 41]))]
        argv = ["threshold", "--code", ",".join(entries)]
    elif command == "enumerate":
        argv = ["enumerate", "--underlying", _underlying(rng, files),
                "--mode", rng.choice(["iso", "switch", "both"])]
        if rng.random() < 0.5:
            argv += ["--spot-check", rng.choice(["-1", "0", "3", "5000", "x"])]
        if rng.random() < 0.3:
            argv += ["--seed", n()]
    elif command == "search-cochromatic":
        argv = ["search-cochromatic", "--underlying", _underlying(rng, files)]
    elif command == "verify":
        argv = ["verify", "--conjecture",
                rng.choice(["cochromatic-complete", "threshold", "bivariate-complete", "nope"])]
        # --stretch runs only with a --max, which bounds the work
        argv += ["--max", rng.choice(_INTS + ["4", "13"])]
        if rng.random() < 0.3:
            argv.append("--stretch")
    elif command == "reproduce-tables":
        argv = ["reproduce-tables"]
    elif command == "fixtures":
        argv = ["fixtures", "--name", rng.choice(list(fixture_names()) + ["nosuch", ""])]
    else:
        argv = rng.choice([[], ["--help"], ["nosuch"], ["--output"], ["chrom"],
                           ["verify", "--max", "2"], ["--version"]])
    if argv and rng.random() < 0.3:
        flag = ["--output", rng.choice(["json", "text", "xml"])]
        argv = flag + argv if rng.random() < 0.5 else argv + flag
    if argv and rng.random() < 0.05:
        del argv[rng.randrange(len(argv))]
    return argv


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:  # argparse: usage errors and --help
            code = e.code
    return code, out.getvalue(), err.getvalue()


def test_random_argv_keeps_the_exit_contract(tmp_path):
    rng = random.Random(SEED)
    files = _graph_files(tmp_path, rng)
    cases = [_argv(rng, files) for _ in range(CASES)]
    cases += [["chrom", path] for path in files]  # every malformed file at least once
    # the largest valid cases, each once: at 40 entries and 41 vertices, about 1.5 s traced
    cases += [["chrom", path, "--bivariate"] for path in _threshold_files(tmp_path, rng)]
    cases += [["threshold", "--code", ",".join(rng.choices(["-1", "0", "1"], k=k))]
              for k in range(MAX_PEEL_N - 2, MAX_PEEL_N + 2)]
    codes = {0: 0, 1: 0, 2: 0}
    tracemalloc.start()
    try:
        for argv in cases:
            tracemalloc.reset_peak()
            start = time.perf_counter()
            try:
                code, out, err = _run(argv)
            except Exception as e:  # pragma: no cover - reported as the failure
                pytest.fail(f"{argv}: {type(e).__name__}: {e}")
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
            assert code in codes, (argv, code, err)
            assert "Traceback" not in err, (argv, err)
            assert elapsed < CASE_SECONDS, (argv, elapsed)
            assert peak < CASE_PEAK_BYTES, (argv, peak)
            if code == 2:
                assert out == "", (argv, out)
                assert err, argv
            else:
                assert out, argv
            codes[code] += 1
    finally:
        tracemalloc.stop()
    # exit 1 needs a failed verification, which no valid small case has
    assert codes[1] == 0 and codes[0] >= len(cases) // 5, codes
