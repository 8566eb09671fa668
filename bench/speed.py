"""Machine-speed sampler: times a fixed pure-Python probe every 25 ms.

    python3 bench/speed.py SAMPLES_JSON

run.py starts it pinned to the CPU that runs the measured work, reads the
line "ready", and ends it with SIGTERM (it also stops when run.py dies); it
then writes its samples to SAMPLES_JSON as [[start, seconds], ...], with
start on the perf_counter clock that run.py and the clients share.  The probe runs twice per sample
and only the second run is timed, so that caches the measured work evicted
while the sampler slept do not count as a slow machine.
"""

import json
import os
import signal
import sys
import time

INTERVAL_S = 0.025


def probe() -> int:
    """Dictionary updates with tuple keys and large integers, the kind of
    work signedchrom's polynomials and tallies do."""
    terms: dict[tuple[int, int], int] = {}
    for i in range(400):
        key = (i & 15, i >> 4)
        terms[key] = terms.get(key, 0) + i * 123456789012345
    return sum(terms.values())


def main(path: str) -> int:
    samples = []
    parent = os.getppid()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print("ready", flush=True)
    try:
        while os.getppid() == parent:  # an orphaned sampler stops by itself
            time.sleep(INTERVAL_S)
            probe()
            start = time.perf_counter()
            probe()
            samples.append((start, time.perf_counter() - start))
    finally:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(samples, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
