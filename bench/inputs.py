"""Seeded input stream for the cochromatic-search workload.

Each input is an unsigned (all-positive) connected simple graph in the
`.sg` text format.  Vertex counts run from 5 to 9 and edge counts from n to
12; every (n, m) combination appears equally often (up to one), so the seed
moves only the edge placement and the request order, not the mix of sizes.
The graphs are connected because a graph with c components has 2^(m-n+c)
switching classes: disconnected draws made inputs of one size differ in cost
by up to 4x, and the request percentiles varied with the seed accordingly.
The same seed always gives byte-identical files.
"""

from __future__ import annotations

import random
from pathlib import Path

from checks import component_count

MIN_N, MAX_N, MAX_M = 5, 9, 12
COUNT = 200


def size_combos() -> list[tuple[int, int]]:
    """All (n, m) pairs the stream draws from."""
    return [
        (n, m)
        for n in range(MIN_N, MAX_N + 1)
        for m in range(n, min(MAX_M, n * (n - 1) // 2) + 1)
    ]


def generate(seed: int) -> list[tuple[str, str]]:
    """(file name, file text) for the COUNT graphs drawn from `seed`."""
    rng = random.Random(seed)
    combos = size_combos()
    sizes = [combos[i % len(combos)] for i in range(COUNT)]
    rng.shuffle(sizes)
    files = []
    for i, (n, m) in enumerate(sizes):
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(rng.sample(slots, m))
        while component_count(n, edges) > 1:
            edges = sorted(rng.sample(slots, m))
        text = f"# search input {i} (seed {seed})\nn {n}\n"
        text += "".join(f"e {u} {v} +\n" for u, v in edges)
        files.append((f"g{i:03d}.sg", text))
    return files


def write(seed: int, directory: Path) -> list[Path]:
    """Write the stream for `seed` into `directory`; return the paths in order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in generate(seed):
        path = directory / name
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths
