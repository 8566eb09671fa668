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
    bivariate_pair,
    chromatic_pair,
    chromatic_pairs,
    complete_bivariate_pair,
    complete_chromatic_pair,
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
    """The Petersen classes peak at 273 to 548 live entries: with a budget of
    450 the first one is tallied and a later one refused, while the batch
    holds layers; the batch is gone after the refusal."""
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
    assert batches and batches[-1] > 0  # layers were kept when refused
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


def count_visits(monkeypatch) -> list[int]:
    """DP state visits: every layer's states, counted as `_live_entries` sizes it."""
    visits = [0]
    live_entries = chromatic._live_entries

    def counted(states, width):
        visits[0] += len(states)
        return live_entries(states, width)

    monkeypatch.setattr(chromatic, "_live_entries", counted)
    return visits


def cold_moves(monkeypatch, room: int = chromatic.MAX_MOVES) -> None:
    """An empty move memo that takes at most `room` moves, for this test only."""
    monkeypatch.setattr(chromatic, "_takes", {})
    monkeypatch.setattr(chromatic, "_forgets", {})
    monkeypatch.setattr(chromatic, "_moves_room", room)


def memo_size() -> int:
    """Moves in the memo, takes and forgets."""
    memos = (chromatic._takes, chromatic._forgets)
    return sum(len(table) for memo in memos for table in memo.values())


def watch_batches(monkeypatch) -> list[int]:
    """Records the entries of the kept layers after every tally in a batch."""
    seen = []
    tally = chromatic._frontier_tally

    def watched(*args):
        batch = chromatic._batch.get()
        try:
            return tally(*args)
        finally:
            if batch is not None:
                seen.append(sum(size for _, size in batch.layers))

    monkeypatch.setattr(chromatic, "_frontier_tally", watched)
    return seen


def test_chromatic_pairs_share_work(monkeypatch):
    """Deterministic: resuming from shared prefixes visits fewer DP states.
    States, not `_take` calls, are the unit, as a warm move memo makes
    those 0 on both sides."""
    graphs = switching_classes(fixture("petersen"))
    visits = count_visits(monkeypatch)
    one_by_one(graphs)
    alone = visits[0]
    visits[0] = 0
    shared(graphs)
    assert 0 < visits[0] < alone


def test_chromatic_pairs_under_a_small_layer_budget(monkeypatch):
    """Kept layers stop at MAX_FRONTIER_ENTRIES entries.  At 548, the largest
    live count of any Petersen class, every tally still runs but only the
    first few layers are kept, so less is shared, more DP states are
    visited and the pairs do not move."""
    graphs = shuffled(switching_classes(fixture("petersen")), 7)
    expected = one_by_one(graphs)
    visits = count_visits(monkeypatch)
    shared(graphs)
    full = visits[0]
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 548)
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
    layers then share only the tree steps before it, and the memoised moves
    are reused from there on, so a cold memo computes fewer moves than a
    batch without one, and a warm memo none.  The pairs equal the one-by-one
    pairs."""
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
    batches = watch_batches(monkeypatch)
    cold_moves(monkeypatch, 0)
    assert shared(graphs) == expected
    unmemoised = takes[0]
    cold_moves(monkeypatch)
    takes[0] = 0
    assert shared(graphs) == expected
    assert 0 < takes[0] < unmemoised
    takes[0] = 0
    assert shared(graphs) == expected
    assert takes[0] == 0
    assert all(layers > 0 for layers in batches)


def test_tables_and_layers_stop_at_a_small_budget(monkeypatch):
    """Kept layers never hold more than MAX_FRONTIER_ENTRIES entries, and
    the move memo stops adding at MAX_MOVES moves.  At 600 entries, just
    above the largest live count of a Petersen class, every tally keeps
    fewer layer entries than without the cap; at 200 moves the memo fills.
    The pairs do not move."""
    graphs = shuffled(switching_classes(fixture("petersen")), 7)
    expected = one_by_one(graphs)
    batches = watch_batches(monkeypatch)
    shared(graphs)
    full = list(batches)
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 600)
    cold_moves(monkeypatch, 200)
    del batches[:]
    assert shared(graphs) == expected
    assert len(batches) == len(full) == len(graphs)
    assert all(0 < kept <= 600 < total for kept, total in zip(batches, full))
    assert memo_size() == 200
    assert chromatic._moves_room == 0


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


# -- the move memo and the packed counts ------------------------------------------


def test_move_memo_is_sound_across_modes_batches_and_threads(monkeypatch):
    """Univariate and bivariate tallies of the same graphs, interleaved in
    shuffled batches, agree with the subset loop on a cold memo, on the warm
    memo they leave, and from three threads sharing one cold memo.  Both
    modes meet the same steps and forgets, so a move memoised without the
    mode (the flags of a new component) or without the positions forgotten
    would hand one tally another's states."""
    rng = random.Random(43)
    graphs = {}
    for _ in range(30):
        g = random_signed_graph(rng, rng.randrange(3, 8), rng.randrange(2, 12))
        if g.m < g.n * (g.n - 1) // 2:  # complete graphs take the partition route
            graphs[g.n, g.edges] = g
    graphs = list(graphs.values()) + switching_classes(fixture("G1"))
    oracles = {(g.n, g.edges): oracle_tally(g) for g in graphs}
    jobs = [(g, univariate) for g in graphs for univariate in (False, True)]
    tally = chromatic._frontier_tally
    tallies, failures = [0], []

    def checked(n, edges, univariate=False):
        got = tally(n, edges, univariate)
        want = oracles[n, edges]
        tallies[0] += 1
        if (balance_counts(got) != balance_counts(want)) if univariate else got != want:
            failures.append((n, edges, univariate))
        return got

    def run(seed: int) -> None:
        order = shuffled(jobs, seed)
        for start in range(0, len(order), 8):
            batch = order[start:start + 8]
            chromatic._subset_tally.cache_clear()  # a cached table would skip the tally
            chromatic_pairs([g for g, univariate in batch if univariate])
            for g, univariate in batch:
                if not univariate:
                    bivariate_pair(g)

    def run_in_thread(seed: int) -> None:
        try:
            run(seed)
        except Exception as e:  # reported below, not lost in the thread
            failures.append(repr(e))

    monkeypatch.setattr(chromatic, "_frontier_tally", checked)
    cold_moves(monkeypatch)
    run(1)
    assert tallies[0] == len(jobs) and memo_size() > 0
    run(2)  # warm
    assert tallies[0] == 2 * len(jobs)
    cold_moves(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run_in_thread, args=(seed,)) for seed in (3, 4, 5)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert tallies[0] > 3 * len(jobs)
    assert failures == []


def test_packed_counts_fit_their_slots():
    """Counts reach 2^|E| in absolute value and each sits in a slot of
    |E| + 2 bits.  The tally, forced past the partition route, gives the
    partition route's pairs on every switching class of signed K_6 and on
    all-positive and all-negative K_7 (21 edges), and the subset loop's
    table on no vertices, isolated vertices and a disconnected graph."""
    signed_k7 = [complete_graph(7, 1), complete_graph(7, -1)]
    for g in switching_classes(complete_graph(6, 1)) + signed_k7:
        chromatic._subset_tally.cache_clear()
        assert _subset_bivariate_pair(g) == complete_bivariate_pair(g), g
        assert _subset_chromatic_pair(g) == complete_chromatic_pair(g), g
    for g in (
        SignedGraph(0, ()),
        SignedGraph(4, ()),
        SignedGraph(8, ((2, 6, -1),)),
        SignedGraph(10, ((0, 1, -1), (1, 2, -1), (0, 2, -1), (5, 7, 1), (7, 9, 1), (5, 9, -1))),
    ):
        assert_matches_oracle(g)
