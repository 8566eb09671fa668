"""One benchmark client process: runs signedchrom CLI requests in-process.

    python3 bench/client.py REQUESTS_JSON [--spans SPANS_JSON]
    python3 bench/client.py --setup-only

REQUESTS_JSON holds a list of argv lists for `signedchrom.cli.main`.  The
requests run one after another (a closed loop with one client), each with
its stdout and stderr captured.  The client prints one JSON report on its
own stdout: the monotonic times at which `signedchrom.cli` had finished
importing and the last request had returned, then the start, latency, exit
code and captured stdout of each request.
With --spans, the layer functions are wrapped before the first request and
the recorded spans are written to SPANS_JSON when the last one returns.

Run from the repository root with `src` on PYTHONPATH.
"""

import contextlib
import io
import json
import sys
import time
import traceback


def _run_request(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse usage errors
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # a traceback is a failed request, not a dead client
        code = None
        err.write(traceback.format_exc())
    latency = time.perf_counter() - start
    return {
        "start": start,
        "latency_s": latency,
        "exit": code,
        "stdout": out.getvalue(),
        "stderr_tail": err.getvalue()[-2000:] if code != 0 else "",
    }


def main(argv: list[str]) -> int:
    import signedchrom.cli as cli  # the set-up every invocation pays

    ready = time.perf_counter()
    if argv == ["--setup-only"]:
        print(json.dumps({"ready": ready}))
        return 0
    with open(argv[0], encoding="utf-8") as fh:
        requests = json.load(fh)
    tracer = None
    if argv[1:2] == ["--spans"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    results = []
    for i, request in enumerate(requests):
        if tracer is not None:
            tracer.request_id = i
        results.append(_run_request(cli, request))
    done = time.perf_counter()
    if tracer is not None:
        tracer.uninstall()
        tracer.write(argv[2])
    print(json.dumps({"ready": ready, "done": done, "requests": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
