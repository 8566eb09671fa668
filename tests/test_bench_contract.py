"""The bench tracer still finds every function it wraps.

`bench/spans.py` looks up each traced function and method by name when it is
installed, and reads `chromatic._subset_tally.cache_info()` around every pair
call to record its `cache_hits` and `subsets` counters.  A rename or deletion
in `src/` that would crash a traced bench run, or leave those counters
unrecorded, fails here instead.
"""

import pathlib
import sys

from signedchrom import cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_traced_runs_record_pair_spans(capsys):
    sys.path.insert(0, str(BENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(BENCH))
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
