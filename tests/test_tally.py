"""The frontier tally against the 2^|E| subset loop it replaced.

`_tally_spanning_stats` below is that loop, kept as the oracle: it rebuilds
a parity union-find for every edge subset and keys its table by (p, b, c).
The frontier tally keys by (p, b, u), u = 1 when b != c, and leaves out
entries that cancel to 0, so the oracle's table is projected onto those keys
and compared without zeros.  The univariate tally is compared on (b, u).
"""

import itertools
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signedchrom import chromatic, reference
from signedchrom.chromatic import (
    _frontier_tally,
    _steps,
    _subset_bivariate_pair,
    _subset_chromatic_pair,
    chromatic_pair,
    chromatic_pairs,
)
from signedchrom.equivalence import enumerate_classes
from signedchrom.errors import BudgetExceededError
from signedchrom.poly import ChromaticPair
from signedchrom.graphs import (
    SignedGraph,
    complete_graph,
    fixture,
    relabel,
    switch,
    threshold_graph,
)


def _tally_spanning_stats(n: int, edges) -> dict[tuple[int, int, int], int]:
    """Signed count of edge subsets grouped by (p, b, c) of the spanning subgraph.

    Every subset contributes (-1)^|Y| to its component-statistics class. The
    parity union-find is rebuilt from scratch per subset.
    """
    m = len(edges)
    eu = [e[0] for e in edges]
    ev = [e[1] for e in edges]
    et = [1 if e[2] < 0 else 0 for e in edges]
    counts: dict[tuple[int, int, int], int] = {}
    for mask in range(1 << m):
        parent = list(range(n))
        parity = [0] * n
        flags = [0] * n  # bit 0: unbalanced, bit 1: contains a negative edge
        mm = mask
        while mm:
            low = mm & -mm
            mm ^= low
            i = low.bit_length() - 1
            u = eu[i]
            pu = 0
            while parent[u] != u:
                pu ^= parity[u]
                u = parent[u]
            v = ev[i]
            pv = 0
            while parent[v] != v:
                pv ^= parity[v]
                v = parent[v]
            t = et[i]
            if u == v:
                if pu ^ pv != t:
                    flags[u] |= 1
            else:
                parent[v] = u
                parity[v] = pu ^ pv ^ t
                flags[u] |= flags[v]
            if t:
                flags[u] |= 2
        c = b = p = 0
        for v in range(n):
            if parent[v] == v:
                c += 1
                f = flags[v]
                if not f & 1:
                    b += 1
                if not f & 2:
                    p += 1
        key = (p, b, c)
        counts[key] = counts.get(key, 0) + (-1 if mask.bit_count() & 1 else 1)
    return counts


def _nonzero_sums(items) -> dict:
    out: dict = {}
    for key, v in items:
        out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}


def oracle_tally(g: SignedGraph) -> dict[tuple[int, int, int], int]:
    """The oracle's table on (p, b, u) keys."""
    return _nonzero_sums(
        ((p, b, int(b != c)), v) for (p, b, c), v in _tally_spanning_stats(g.n, g.edges).items()
    )


def balance_counts(tally: dict) -> dict[tuple[int, int], int]:
    """A (p, b, u) table on (b, u), all the univariate pair reads."""
    return _nonzero_sums(((b, u), v) for (_, b, u), v in tally.items())


def assert_matches_oracle(g: SignedGraph) -> None:
    oracle = oracle_tally(g)
    assert _frontier_tally(g.n, g.edges) == oracle, g
    assert balance_counts(_frontier_tally(g.n, g.edges, True)) == balance_counts(oracle), g


def random_signed_graph(rng: random.Random, n: int, m: int) -> SignedGraph:
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = rng.sample(slots, min(m, len(slots)))
    return SignedGraph(n, tuple((u, v, rng.choice((1, -1))) for u, v in chosen))


def test_every_signed_graph_up_to_4_vertices():
    count = 0
    for n in range(5):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for states in itertools.product((0, 1, -1), repeat=len(pairs)):
            assert_matches_oracle(
                SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(pairs, states) if s))
            )
            count += 1
    assert count == 1 + 1 + 3 + 27 + 729


def test_isolated_vertices_components_and_empty_graph():
    assert _frontier_tally(0, ()) == {(0, 0, 0): 1}
    assert _frontier_tally(5, ()) == {(5, 5, 0): 1}
    assert _frontier_tally(5, (), True) == {(5, 5, 0): 1}
    graphs = [
        SignedGraph(7, ((1, 4, -1),)),  # isolated vertices around one edge
        SignedGraph(9, ((0, 1, 1), (1, 2, -1), (0, 2, 1),      # negative triangle
                        (4, 6, 1), (6, 8, 1),                  # positive path
                        (3, 5, -1), (5, 7, -1), (3, 7, -1))),  # all-negative triangle
        SignedGraph(8, ((6, 7, 1), (0, 7, -1), (2, 5, 1), (2, 3, 1), (3, 5, -1))),
    ]
    for g in graphs:
        assert_matches_oracle(g)


def test_petersen_and_threshold_example():
    assert_matches_oracle(fixture("petersen"))
    assert_matches_oracle(threshold_graph(reference.THRESHOLD_EXAMPLE_CODE))


def test_seeded_random_graphs_up_to_8_vertices_14_edges():
    rng = random.Random(71)
    for _ in range(80):
        n = rng.randrange(9)
        assert_matches_oracle(random_signed_graph(rng, n, rng.randrange(15)))


@st.composite
def small_signed_graphs(draw):
    n = draw(st.integers(0, 6))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    signs = draw(st.lists(st.sampled_from((0, 1, -1)), min_size=len(slots), max_size=len(slots)))
    return SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(slots, signs) if s))


@settings(max_examples=60, deadline=None)
@given(small_signed_graphs(), st.data())
def test_tally_matches_oracle_and_invariants(g, data):
    """Relabelling reorders the edges and the frontier, so it catches edge-order
    and forget-order faults; switching keeps the chromatic pair."""
    tally = _frontier_tally(g.n, g.edges)
    assert tally == oracle_tally(g)
    perm = data.draw(st.permutations(range(g.n)))
    h = relabel(g, perm)
    assert _frontier_tally(h.n, h.edges) == tally
    bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    switched = switch(g, [v for v, bit in enumerate(bits) if bit])
    assert chromatic_pair(switched) == chromatic_pair(g)
    # the univariate tally runs on one signing per switching class, the one
    # whose first step at each vertex (to its BFS parent) is positive
    covered, skeleton, signs = _steps(g.n, g.edges, True)
    assert _steps(switched.n, switched.edges, True) == (covered, skeleton, signs)
    firsts = {}
    for (a, _), t in zip(skeleton[1], signs):
        firsts.setdefault(a, t)
    assert set(firsts.values()) <= {0}


def test_switched_tally_pair_is_switching_invariant():
    """The univariate pair from the switched tally equals the bivariate
    pair's y = 0 specialization from the unswitched tally, under any switching."""
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randrange(1, 10)
        g = random_signed_graph(rng, n, rng.randrange(16))
        even, odd = _subset_bivariate_pair(g)
        expected = ChromaticPair(even.substitute_y(0), odd.substitute_y(0))
        for _ in range(3):
            h = switch(g, [v for v in range(n) if rng.random() < 0.5])
            assert _subset_chromatic_pair(h) == expected, (g, h)


# -- chromatic_pairs: tallies sharing DP prefixes --------------------------------


def switching_classes(underlying: SignedGraph) -> list[SignedGraph]:
    return list(enumerate_classes(underlying, "switching_iso").representatives)


def unlabelled_graphs(max_n: int):
    """One all-positive graph per unlabelled graph on at most max_n vertices:
    the negative edges of the iso classes of signed K_n."""
    for n in range(max_n + 1):
        for signed in enumerate_classes(complete_graph(n, 1), "iso").representatives:
            yield SignedGraph(n, tuple((u, v, 1) for u, v, s in signed.edges if s < 0))


def one_by_one(graphs) -> list:
    chromatic._subset_tally.cache_clear()
    return [chromatic_pair(g) for g in graphs]


def shared(graphs) -> list:
    chromatic._subset_tally.cache_clear()  # a cached table would skip the tally
    pairs = chromatic_pairs(graphs)
    assert chromatic._batch.get() is None
    return pairs


def shuffled(graphs, seed: int) -> list:
    graphs = list(graphs)
    random.Random(seed).shuffle(graphs)
    return graphs


def test_chromatic_pairs_match_one_by_one_on_small_graphs():
    graphs = [h for g in unlabelled_graphs(5) for h in switching_classes(g)]
    assert len(graphs) == 1 + 1 + 2 + 5 + 18 + 100  # by vertex count
    graphs = shuffled(graphs, 3)
    assert shared(graphs) == one_by_one(graphs)


def test_chromatic_pairs_match_one_by_one_on_petersen():
    graphs = shuffled(switching_classes(fixture("petersen")), 5)
    graphs += [switch(g, [0, 3, 4]) for g in graphs]  # same classes, other signs
    assert shared(graphs) == one_by_one(graphs)


def test_budget_refusal_mid_batch_keeps_no_layers(monkeypatch):
    """The Petersen classes peak at 271 to 534 live entries: with a budget of
    450 the first one is tallied and a later one refused, while the batch
    holds layers and tables; the batch is gone after the refusal."""
    graphs = switching_classes(fixture("petersen")) + [
        SignedGraph(11, tuple((v, v + 1, -1) for v in range(10)))
    ]
    expected = one_by_one(graphs)
    batches = watch_batches(monkeypatch)
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 450)
    chromatic._subset_tally.cache_clear()
    with pytest.raises(BudgetExceededError, match="frontier entries"):
        chromatic_pairs(graphs)
    assert chromatic._batch.get() is None
    assert chromatic._subset_tally.cache_info().currsize > 0  # it did start
    assert batches and batches[-1][1] > 0  # tables were in use when refused
    monkeypatch.undo()
    assert shared(graphs) == expected


def count_calls(monkeypatch, name: str) -> list[int]:
    calls = [0]
    function = getattr(chromatic, name)

    def counted(*args):
        calls[0] += 1
        return function(*args)

    monkeypatch.setattr(chromatic, name, counted)
    return calls


def batch_entries(batch) -> tuple[int, int]:
    """(entries of the kept layers, entries of the take and forget tables)."""
    layers = sum(size for _, size in batch.layers)
    return layers, sum(len(table) for step in batch.tables for table in step)


def watch_batches(monkeypatch) -> list[tuple[int, int]]:
    """Records `batch_entries` of the running batch after every tally in one."""
    seen = []
    tally = chromatic._frontier_tally

    def watched(*args):
        batch = chromatic._batch.get()
        try:
            return tally(*args)
        finally:
            if batch is not None:
                seen.append(batch_entries(batch))

    monkeypatch.setattr(chromatic, "_frontier_tally", watched)
    return seen


def test_chromatic_pairs_share_work(monkeypatch):
    """Deterministic: resuming from shared prefixes takes fewer DP steps."""
    graphs = switching_classes(fixture("petersen"))
    calls = count_calls(monkeypatch, "_take")
    one_by_one(graphs)
    alone = calls[0]
    calls[0] = 0
    shared(graphs)
    assert 0 < calls[0] < alone


def test_chromatic_pairs_under_a_small_layer_budget(monkeypatch):
    """Kept layers stop at MAX_FRONTIER_ENTRIES entries.  At 534, the largest
    live count of any Petersen class, every tally still runs but only the
    first few layers are kept, so less is shared and the pairs do not move.
    Work is counted in DP state visits, each of which adds its counts into
    the next layer through `_add_into`; the take tables absorb `_take` calls."""
    graphs = shuffled(switching_classes(fixture("petersen")), 7)
    expected = one_by_one(graphs)
    visits = count_calls(monkeypatch, "_add_into")
    shared(graphs)
    full = visits[0]
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 534)
    visits[0] = 0
    assert shared(graphs) == expected
    assert visits[0] > full


def first_chord_flipped(g: SignedGraph) -> SignedGraph:
    """g with one edge negated so that its switched signs differ from g's at
    the first chord step (the first that is not a vertex's BFS-parent edge)
    and nowhere else."""
    signs = _steps(g.n, g.edges, True)[2]
    flips = []
    for i, (u, v, s) in enumerate(g.edges):
        h = SignedGraph(g.n, g.edges[:i] + ((u, v, -s),) + g.edges[i + 1:])
        diff = [k for k, (x, y) in enumerate(zip(signs, _steps(h.n, h.edges, True)[2])) if x != y]
        if len(diff) == 1:  # one chord flipped, up to switching
            flips.append((diff[0], h))
    return min(flips, key=lambda flip: flip[0])[1]


def test_chromatic_pairs_share_tables_across_a_mixed_batch(monkeypatch):
    """A shuffled batch over many skeletons of equal length, with pairs of
    graphs on one skeleton that first differ at the first chord: the kept
    layers then share only the tree steps before it, and the tables are
    reused from there on.  The pairs equal the one-by-one pairs."""
    rng = random.Random(13)
    underlying = [fixture("petersen")] + [random_signed_graph(rng, 7, 10) for _ in range(6)]
    graphs = []
    for u in underlying:
        for _ in range(3):
            g = SignedGraph(u.n, tuple((a, b, rng.choice((1, -1))) for a, b, _ in u.edges))
            graphs += [g, first_chord_flipped(g)]
    graphs = shuffled(graphs, 17)
    expected = one_by_one(graphs)
    takes = count_calls(monkeypatch, "_take")
    one_by_one(graphs)
    alone = takes[0]
    batches = watch_batches(monkeypatch)
    takes[0] = 0
    assert shared(graphs) == expected
    assert 0 < takes[0] < alone
    assert all(tables > 0 for _, tables in batches)


def test_tables_and_layers_stop_at_a_small_budget(monkeypatch):
    """Tables and kept layers together never hold more than
    MAX_FRONTIER_ENTRIES entries; at 600, just above the largest live count
    of a Petersen class, the tables fill it and the pairs do not move."""
    graphs = shuffled(switching_classes(fixture("petersen")), 7)
    expected = one_by_one(graphs)
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 600)
    batches = watch_batches(monkeypatch)
    assert shared(graphs) == expected
    totals = [layers + tables for layers, tables in batches]
    assert len(totals) == len(graphs)
    assert max(totals) == 600


def test_chromatic_pairs_compute_steps_once_per_graph(monkeypatch):
    """The batch's sort key is each graph's `_steps`; the tally reuses it."""
    graphs = switching_classes(fixture("petersen"))
    graphs = shuffled(graphs + [switch(g, [1, 2, 7]) for g in graphs], 11)
    expected = one_by_one(graphs)
    calls = [0]
    steps = chromatic._steps

    def counted(*args):
        calls[0] += 1
        return steps(*args)

    monkeypatch.setattr(chromatic, "_steps", counted)
    assert shared(graphs) == expected
    assert calls[0] == len(graphs) == 12
    assert chromatic._batch.get() is None


def test_chromatic_pairs_in_concurrent_threads():
    """Each thread's batch keeps its own layers.  With module globals the
    other threads' batches overwrote them, and most batches raised IndexError."""
    graphs = list(enumerate_classes(fixture("petersen"), "iso").representatives)[:40]
    expected = one_by_one(graphs)
    results = []

    def run(seed):
        for k in range(3):
            order = shuffled(range(len(graphs)), 10 * seed + k)
            chromatic._subset_tally.cache_clear()  # a cached table would skip the tally
            try:
                pairs = chromatic_pairs([graphs[i] for i in order])
                results.append(pairs == [expected[i] for i in order])
            except Exception as e:  # reported below, not lost in the thread
                results.append(repr(e))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in (1, 2, 3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 9
    assert chromatic._batch.get() is None
