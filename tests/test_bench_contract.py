"""The bench tracer still finds every function it wraps, and the bench checks
still accept what the verifiers print.

`bench/spans.py` looks up each traced function and method by name when it is
installed, and reads `chromatic._subset_tally.cache_info()` around every pair
call to record its `cache_hits` and `subsets` counters.  A rename or deletion
in `src/` that would crash a traced bench run, or leave those counters
unrecorded, fails here instead.  So does a threshold scan whose `method` or
traced step count the bench would reject, and any `desk` command whose output
fails the bench's answer keys, and so does a search on the start of the
`cochromatic-search` input stream.
"""

import importlib
import json
import pathlib
import sys

import pytest

from signedchrom import cli
from signedchrom.equivalence import enumerate_classes
from signedchrom.graphs import parse_graph

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_traced_runs_record_pair_spans(capsys):
    spans = _bench_module("spans")
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.main(["verify", "--conjecture", "cochromatic-complete", "--max", "4"]) == 0
        search_start = len(tracer.spans)
        assert cli.main(["search-cochromatic", "--underlying", "G1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    names = {span[0] for span in tracer.spans}
    assert {"chromatic.pair", "chromatic.complete_pair"} <= names
    search_pairs = [s for s in tracer.spans[search_start:] if s[0] == "chromatic.pair"]
    assert search_pairs
    for span in search_pairs:
        assert set(span[5]) == {"cache_hits", "subsets"}, span


def _check_threshold_run(capsys, argv, scale):
    """Run `argv` under the bench tracer and hold it to the bench's checks."""
    spans, checks = _bench_module("spans"), _bench_module("checks")
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
    out = capsys.readouterr().out
    assert code == 0
    details = json.loads(out)["details"]
    assert details["method"] == {"exact_to": 3, "fingerprint_from": 4}
    assert details["codes_checked"] == {str(d): 3**d for d in range(scale + 1)}
    steps = sum(1 for span in tracer.spans if span[0] == "chromatic.threshold_step")
    assert steps == 3 + 9 + 27
    assert checks.check_cli_output(argv, code, out) == []
    assert checks.check_threshold_steps(out, steps) == []


def test_traced_threshold_run_meets_bench_checks(capsys):
    """The exact prefix to length 3 runs through `threshold_even_step`, one
    step for each of its 3 + 9 + 27 codes and no more."""
    _check_threshold_run(capsys, ["verify", "--conjecture", "threshold", "--max", "8"], 8)


def test_traced_threshold_stretch_meets_bench_checks(capsys):
    """The stretch run that the `threshold12` workload makes passes the same
    checks, so a change to the exact prefix fails here before the bench."""
    _check_threshold_run(capsys, ["verify", "--conjecture", "threshold", "--stretch"], 12)


DESK = _bench_module("run").DESK


@pytest.mark.parametrize("argv", [argv for _, argv in DESK], ids=[label for label, _ in DESK])
def test_desk_commands_meet_bench_checks(capsys, argv):
    """Every `desk` request of the bench passes its answer keys in-process."""
    checks = _bench_module("checks")
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    assert checks.check_cli_output(argv, code, out) == []


def test_search_stream_meets_bench_checks(capsys, tmp_path):
    """The first inputs of the `cochromatic-search` stream (seed 11) pass the
    bench's search checks in-process, and on 5 vertices its brute-force
    grouping of every class."""
    checks, inputs = _bench_module("checks"), _bench_module("inputs")
    grouped = 0
    for name, text in inputs.generate(11)[:20]:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        code = cli.main(["search-cochromatic", "--underlying", str(path)])
        out = capsys.readouterr().out
        assert checks.check_search_output(text, code, out) == [], name
        if checks.parse_sg(text)[0] == 5:
            inventory = enumerate_classes(parse_graph(text), "switching_iso")
            assert checks.check_groups_by_brute_force(out, inventory) == [], name
            grouped += 1
    assert grouped > 0
