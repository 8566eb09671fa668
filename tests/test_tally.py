"""The frontier tally against the 2^|E| subset loop it replaced.

`_tally_spanning_stats` below is that loop, kept as the oracle: it rebuilds
a parity union-find for every edge subset and keys its table by (p, b, c).
The frontier tally keys by (p, b, u), u = 1 when b != c, and leaves out
entries that cancel to 0, so the oracle's table is projected onto those keys
and compared without zeros.  The univariate tally is compared on (b, u).
"""

import importlib
import itertools
import pathlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import relabel

from signedchrom import chromatic, cli, reference
from signedchrom.chromatic import (
    _numbering,
    _order,
    _parts,
    _signs,
    _state,
    _subset_bivariate_pair,
    _subset_chromatic_pair,
    chromatic_pair,
    chromatic_pairs,
    complete_bivariate_pair,
    complete_chromatic_pair,
)
from signedchrom.equivalence import enumerate_classes
from signedchrom.errors import BudgetExceededError
from signedchrom.poly import BiPoly, ChromaticPair
from signedchrom.graphs import SignedGraph, complete_graph, fixture, switch, threshold_graph


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


def switched_steps(g: SignedGraph):
    """(vertices with an edge, skeleton, switched sign of each step) of g's
    univariate tally, the signs unpacked from `_signs`'s int."""
    covered, skeleton, masks = _numbering(g.n, g.edges, True)
    signs = _signs(g, masks)
    return covered, skeleton, tuple(signs >> len(masks) - 1 - k & 1 for k in range(len(masks)))


def flipped_signs(g: SignedGraph, skeleton) -> tuple[int, ...]:
    """The switched signs of g's steps by switching itself: walk the steps
    in order and flip each vertex at its first step, back into the numbered
    part, so that step turns positive."""
    pos = _order(g.n, g.edges)
    sign = {}
    for u, v, s in g.edges:
        sign[pos[u], pos[v]] = sign[pos[v], pos[u]] = 1 if s < 0 else 0
    flip, done, signs = [0] * g.n, -1, []
    for a, b in skeleton[1]:
        if a > done:
            flip[a], done = flip[b] ^ sign[a, b], a
        signs.append(sign[a, b] ^ flip[a] ^ flip[b])
    return tuple(signs)


def _nonzero_sums(items) -> dict:
    out: dict = {}
    for key, v in items:
        out[key] = out.get(key, 0) + v
    return {k: v for k, v in out.items() if v}


def as_table(n: int, univariate: bool, tally) -> dict[tuple[int, int, int], int]:
    """A `_subset_tally` result, (isolated vertices, balanced slots,
    unbalanced slots), as its (p, b, u) table."""
    iso, *slots = tally
    stride = 1 if univariate else n + 1
    return {
        (iso + k % stride, iso + k % stride + k // stride, u): v
        for u, counts in enumerate(slots) for k, v in counts.items()
    }


def frontier_tally(n: int, edges, univariate: bool = False) -> dict[tuple[int, int, int], int]:
    """The frontier tally of SignedGraph(n, edges) as a (p, b, u) table,
    computed past the cache."""
    g = SignedGraph(n, edges)
    return as_table(n, univariate, chromatic._subset_tally.__wrapped__(g, univariate))


def oracle_tally(g: SignedGraph) -> dict[tuple[int, int, int], int]:
    """The oracle's table on (p, b, u) keys."""
    return _nonzero_sums(
        ((p, b, int(b != c)), v) for (p, b, c), v in _tally_spanning_stats(g.n, g.edges).items()
    )


def balance_counts(tally: dict) -> dict[tuple[int, int], int]:
    """A (p, b, u) table on (b, u), all the univariate pair reads."""
    return _nonzero_sums(((b, u), v) for (_, b, u), v in tally.items())


def pair_from_tally(tally: dict) -> ChromaticPair:
    """The univariate pair a (p, b, u) table gives: the term x^b for each
    entry, and only the balanced entries (u = 0) in the even constituent."""
    even = BiPoly(((b, 0), v) for (_, b, u), v in tally.items() if not u)
    return ChromaticPair(even, BiPoly(((b, 0), v) for (_, b, _), v in tally.items()))


def assert_matches_oracle(g: SignedGraph) -> None:
    oracle = oracle_tally(g)
    assert frontier_tally(g.n, g.edges) == oracle, g
    assert balance_counts(frontier_tally(g.n, g.edges, True)) == balance_counts(oracle), g


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
    assert frontier_tally(0, ()) == {(0, 0, 0): 1}
    assert frontier_tally(5, ()) == {(5, 5, 0): 1}
    assert frontier_tally(5, (), True) == {(5, 5, 0): 1}
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
def small_signed_graphs(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    signs = draw(st.lists(st.sampled_from((0, 1, -1)), min_size=len(slots), max_size=len(slots)))
    return SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(slots, signs) if s))


@settings(max_examples=60, deadline=None)
@given(small_signed_graphs(), st.data())
def test_tally_matches_oracle_and_invariants(g, data):
    """Relabelling reorders the edges and the frontier, so it catches edge-order
    and forget-order faults; switching keeps the chromatic pair."""
    tally = frontier_tally(g.n, g.edges)
    assert tally == oracle_tally(g)
    perm = data.draw(st.permutations(range(g.n)))
    h = relabel(g, perm)
    assert frontier_tally(h.n, h.edges) == tally
    bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    switched = switch(g, [v for v, bit in enumerate(bits) if bit])
    assert chromatic_pair(switched) == chromatic_pair(g)
    # the univariate tally runs on one signing per switching class, the one
    # whose first step at each vertex (back to its earliest numbered
    # neighbour) is positive
    covered, skeleton, signs = switched_steps(g)
    assert switched_steps(switched) == (covered, skeleton, signs)
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


# -- chromatic_pairs: one walk of each skeleton's sign trie -----------------------


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
    """The Petersen classes peak at 94 to 160 live entries: with a budget of
    159 the first one is tallied and a later one refused, while the walk
    holds layers; the walk and its layers are gone after the refusal.  At
    160 the whole batch is tallied."""
    graphs = switching_classes(fixture("petersen")) + [
        SignedGraph(11, tuple((v, v + 1, -1) for v in range(10)))
    ]
    expected = one_by_one(graphs)
    walks, kept = watch_walks(monkeypatch)
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 159)
    chromatic._subset_tally.cache_clear()  # a cached table would skip the tally
    with pytest.raises(BudgetExceededError, match="frontier entries"):
        chromatic_pairs(graphs)
    assert chromatic._batch.get() is None
    assert kept  # it did start: some classes were tallied before the refusal
    assert len(kept) < len(graphs) - 1  # and a Petersen class was refused
    assert kept[-1] > 1  # layers beyond the root were kept when refused
    assert walks and all(walk.gi_frame is None for walk in walks)  # and are gone
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 160)
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
    monkeypatch.setattr(chromatic, "_moves", {})
    monkeypatch.setattr(chromatic, "_moves_room", room)


def memo_size() -> int:
    """Moves in the memo."""
    return sum(len(table) for table in chromatic._moves.values())


def watch_walks(monkeypatch) -> tuple[list, list[int]]:
    """(the walks started, the entries of the kept layers after each class
    of a batch).  A kept layer records the entries kept through it, so the
    last one's figure is the total; the root layer counts 1."""
    walks, kept = [], []
    walk = chromatic._walk

    def watched(skeleton, univariate, sign_vectors):
        inner = walk(skeleton, univariate, sign_vectors)
        walks.append(inner)
        for states in inner:
            kept.append(inner.gi_frame.f_locals["layers"][-1][1])
            yield states

    monkeypatch.setattr(chromatic, "_walk", watched)
    return walks, kept


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
    """Kept layers stop at MAX_FRONTIER_ENTRIES entries.  At 548, above the
    largest live count of any Petersen class (160), every tally still runs but only the
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
    the first chord step (the first that is not a vertex's first step)
    and nowhere else."""
    signs = switched_steps(g)[2]
    flips = []
    for i, (u, v, s) in enumerate(g.edges):
        h = SignedGraph(g.n, g.edges[:i] + ((u, v, -s),) + g.edges[i + 1:])
        diff = [k for k, (x, y) in enumerate(zip(signs, switched_steps(h)[2])) if x != y]
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
    _, kept = watch_walks(monkeypatch)
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
    # every skeleton has six graphs and its walk keeps at least the first
    # tree step's layer beside the root after every one of them
    assert len(kept) == 3 * len(graphs)
    assert all(entries > 1 for entries in kept)


def test_tables_and_layers_stop_at_a_small_budget(monkeypatch):
    """Kept layers never hold more than MAX_FRONTIER_ENTRIES entries, and
    the move memo stops adding at MAX_MOVES moves.  At 161 entries, just
    above the largest live count of a Petersen class (160), no class keeps
    more layer entries than without the cap, and each that kept more than
    161 without it keeps fewer; at 200 moves the memo fills.  The pairs do
    not move."""
    graphs = shuffled(switching_classes(fixture("petersen")), 7)
    expected = one_by_one(graphs)
    _, kept = watch_walks(monkeypatch)
    shared(graphs)
    full = list(kept)
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 161)
    cold_moves(monkeypatch, 200)
    del kept[:]
    assert shared(graphs) == expected
    assert len(kept) == len(full) == len(graphs)
    assert all(0 < entries <= min(161, total) for entries, total in zip(kept, full))
    assert all(entries < total for entries, total in zip(kept, full) if total > 161)
    assert max(full) > 161
    assert memo_size() == 200
    assert chromatic._moves_room == 0


def test_chromatic_pairs_compute_steps_once_per_graph(monkeypatch):
    """The steps and their masks are numbered once per underlying graph:
    the classes of Petersen and of G1, with switched copies of the Petersen
    classes, take two `_numbering` calls, the tally reuses them, and signed
    K_n take the partition route and are not numbered at all."""
    graphs = switching_classes(fixture("petersen"))
    graphs = graphs + [switch(g, [1, 2, 7]) for g in graphs] + switching_classes(fixture("G1"))
    graphs = shuffled(graphs + switching_classes(complete_graph(6, 1)), 11)
    expected = one_by_one(graphs)
    calls = count_calls(monkeypatch, "_numbering")
    assert shared(graphs) == expected
    assert calls[0] == 2
    assert chromatic._batch.get() is None


def test_repeated_graphs_resume_after_the_last_step(monkeypatch):
    """Equal sign vectors share every layer, so a graph that comes again
    resumes after its last step and costs no DP step: a batch with
    repeats, a switched copy included, takes as many steps as the batch of
    its distinct classes, and gets the one-by-one pairs.  The cache answers
    the repeats of an equal graph, which the walk then passes; the switched
    copy is another graph with the same signs, so the walk tallies it."""
    petersen = switching_classes(fixture("petersen"))
    g, h = petersen[1], petersen[4]
    copy = switch(g, [2, 5])
    assert copy != g and switched_steps(copy) == switched_steps(g)
    steps = count_calls(monkeypatch, "_live_entries")
    distinct = shared([g, h])
    alone = steps[0]
    steps[0] = 0
    batch = [g, h, g, copy, h, g]
    assert shared(batch) == [distinct[0], distinct[1]] + [distinct[0]] * 2 + distinct[::-1]
    assert steps[0] == alone > 0
    monkeypatch.undo()
    assert shared(batch) == one_by_one(batch)


def test_a_batch_refuses_a_graph_its_walk_has_passed(monkeypatch):
    """Inside `chromatic_pairs`, `chromatic_pair(g)` runs the batch's walk
    on to g, past the graphs the cache answered: a graph the walk has
    already passed is refused, and the batch's context is reset."""
    walk = chromatic._batch_walk

    def rotated(graphs, batch):
        items = list(walk(graphs, batch))
        return iter(items[1:] + items[:1])

    monkeypatch.setattr(chromatic, "_batch_walk", rotated)
    chromatic._subset_tally.cache_clear()  # a cached table would skip the walk
    with pytest.raises(RuntimeError, match="order of its walk"):
        chromatic_pairs(switching_classes(fixture("G1"))[:3])
    assert chromatic._batch.get() is None


def test_each_tally_of_a_batch_is_a_cache_miss():
    """The benchmark's tracer reads the tally work of each pair call off
    `_subset_tally.cache_info()`: in a shuffled batch each distinct graph
    that takes the tally is one miss and each repeat one hit, while signed
    K_n are neither; the pairs are the one-by-one pairs."""
    graphs = switching_classes(fixture("petersen"))
    batch = shuffled(graphs + graphs[:3] + [complete_graph(5, -1)], 19)
    expected = one_by_one(batch)
    chromatic._subset_tally.cache_clear()
    assert chromatic_pairs(batch) == expected
    info = chromatic._subset_tally.cache_info()
    assert (info.misses, info.hits) == (len(graphs), 3)


def test_traced_search_records_the_tally_work_of_each_pair(capsys):
    """Under the benchmark's tracer every pair call of a search records
    either the 2^|E| subsets of its tally or one cache hit."""
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    sys.path.insert(0, str(bench))
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path.remove(str(bench))
    tracer = spans.Tracer()
    chromatic._subset_tally.cache_clear()
    tracer.install()
    try:
        assert cli.main(["search-cochromatic", "--underlying", "petersen"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    counts = [span[5] for span in tracer.spans if span[0] == "chromatic.pair"]
    assert len(counts) >= len(switching_classes(fixture("petersen")))
    assert all(c in ({"cache_hits": 0, "subsets": 1 << 15}, {"cache_hits": 1, "subsets": 0})
               for c in counts), counts


def test_mixed_batches_and_batches_of_one_match_chromatic_pair():
    """A batch mixing several skeletons with signed K_n (which take the
    partition route), and each of its graphs as a batch of one, give what
    `chromatic_pair` gives for each graph alone."""
    rng = random.Random(37)
    batch = [complete_graph(5, -1), SignedGraph(4, ((0, 1, -1), (0, 2, 1), (0, 3, 1),
                                                    (1, 2, 1), (1, 3, -1), (2, 3, 1)))]
    batch += switching_classes(fixture("G1"))[:6] + [SignedGraph(0, ()), SignedGraph(1, ()),
                                                      SignedGraph(5, ()), fixture("Sigma3")]
    batch += [random_signed_graph(rng, rng.randrange(2, 9), rng.randrange(1, 12))
              for _ in range(12)]
    batch = shuffled(batch, 41)
    expected = one_by_one(batch)
    assert shared(batch) == expected
    for g, pair in zip(batch, expected):
        assert shared([g]) == [pair], g
    assert len({switched_steps(g)[1] for g in batch}) > 10


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
    would hand one tally another's states.  Every tally, the univariate
    ones from the batch's walk, is checked by its table as it leaves
    `_subset_tally`, and the batch's pairs against the oracle's."""
    rng = random.Random(43)
    graphs = {}
    for _ in range(30):
        g = random_signed_graph(rng, rng.randrange(3, 8), rng.randrange(2, 12))
        if g.m < g.n * (g.n - 1) // 2:  # complete graphs take the partition route
            graphs[g.n, g.edges] = g
    graphs = list(graphs.values()) + switching_classes(fixture("G1"))
    oracles = {(g.n, g.edges): oracle_tally(g) for g in graphs}
    univariate_pairs = {key: pair_from_tally(tally) for key, tally in oracles.items()}
    jobs = [(g, univariate) for g in graphs for univariate in (False, True)]
    tally = chromatic._subset_tally
    tallies, failures = [0], []

    def checked(g, univariate):
        got = tally(g, univariate)
        table, want = as_table(g.n, univariate, got), oracles[g.n, g.edges]
        tallies[0] += 1
        if (balance_counts(table) != balance_counts(want)) if univariate else table != want:
            failures.append((g.n, g.edges, univariate))
        return got

    def run(seed: int) -> None:
        order = shuffled(jobs, seed)
        for start in range(0, len(order), 8):
            batch = order[start:start + 8]
            tally.cache_clear()  # a cached table would skip the tally
            walked = [g for g, univariate in batch if univariate]
            for g, pair in zip(walked, chromatic_pairs(walked)):
                if pair != univariate_pairs[g.n, g.edges]:
                    failures.append((g.n, g.edges, True))
            for g, univariate in batch:
                if not univariate:  # the tally of g itself: bivariate_pair may peel it first
                    _subset_bivariate_pair(g)

    def run_in_thread(seed: int) -> None:
        try:
            run(seed)
        except Exception as e:  # reported below, not lost in the thread
            failures.append(repr(e))

    monkeypatch.setattr(chromatic, "_subset_tally", checked)
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


# -- the vertex order and the bytes states -----------------------------------------


def mcs_by_the_rule(n: int, edges) -> list[int]:
    """`_order` read off its rule directly, one quadratic scan per vertex."""
    adj = [set() for _ in range(n)]
    for u, v, _ in edges:
        adj[u].add(v)
        adj[v].add(u)
    pos = [-1] * n
    numbered = 0
    while True:
        left = [v for v in range(n) if pos[v] < 0 and adj[v]]
        if not left:
            return pos
        reached = [v for v in left if any(pos[y] >= 0 for y in adj[v])]
        if reached:
            def key(v):
                done = [pos[y] for y in adj[v] if pos[y] >= 0]
                return -len(done), len(adj[v]) - len(done), min(done), v
            x = min(reached, key=key)
        else:
            x = min(left, key=lambda v: (len(adj[v]), v))
        pos[x] = numbered
        numbered += 1


@st.composite
def connected_or_not(draw):
    """A signed graph on up to 10 vertices: a random forest, with each tree
    linked to the last one with some chance, plus random chords, relabelled."""
    n = draw(st.integers(0, 10))
    edges = {}
    for v in range(1, n):
        if draw(st.integers(0, 3)):
            edges[draw(st.integers(0, v - 1)), v] = draw(st.sampled_from((1, -1)))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for slot in draw(st.lists(st.sampled_from(slots), max_size=8)) if slots else ():
        edges[slot] = draw(st.sampled_from((1, -1)))
    g = SignedGraph(n, tuple((u, v, s) for (u, v), s in edges.items()))
    return relabel(g, draw(st.permutations(range(n))))


@settings(max_examples=150, deadline=None)
@given(connected_or_not(), st.data())
def test_order_switching_and_batches_on_random_graphs(g, data):
    """The order is the rule's, numbers each component in one run from a
    vertex of least degree, and gives every other vertex an earlier
    neighbour; the switched signs make every vertex's first step positive;
    and a batch of relabelled and switched copies gets the one-by-one pairs."""
    pos = _order(g.n, g.edges)
    assert pos == mcs_by_the_rule(g.n, g.edges)
    adj = [[] for _ in range(g.n)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    by_pos = sorted((p, v) for v, p in enumerate(pos) if p >= 0)
    assert [p for p, _ in by_pos] == list(range(len(by_pos)))
    for p, v in by_pos:
        if min(pos[y] for y in adj[v]) > p:  # the first vertex of its component
            component, queue = {v}, [v]
            for x in queue:
                for y in adj[x]:
                    if y not in component:
                        component.add(y)
                        queue.append(y)
            assert sorted(pos[x] for x in component) == list(range(p, p + len(component)))
            assert len(adj[v]) == min(len(adj[x]) for x in component)
    covered, skeleton, signs = switched_steps(g)
    assert signs == flipped_signs(g, skeleton)
    assert covered == len(by_pos)
    firsts = {}
    for (a, _), t in zip(skeleton[1], signs):
        firsts.setdefault(a, t)
    assert set(firsts.values()) <= {0}
    assert len(firsts) == covered - sum(1 for p, v in by_pos if min(pos[y] for y in adj[v]) > p)
    batch = [g]
    for _ in range(3):
        h = relabel(g, data.draw(st.permutations(range(g.n))))
        bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        batch.append(switch(h, [v for v, bit in enumerate(bits) if bit]))
    assert shared(batch) == one_by_one(batch)


def test_state_bytes_round_trip_and_carry_their_width():
    """A state decodes to the parts it was built from, at every width up to
    the vertex cap of 256, and states of different widths whose parts
    concatenate to the same bytes stay apart."""
    parts = [
        (b"", b"", b"", b"\0"),
        (b"\0", b"\1", b"\2", b"\1"),
        (bytes([0, 1, 0, 2]), bytes([0, 0, 1, 0]), bytes([3, 0, 2]), b"\0"),
        (bytes(range(255)), bytes(255), bytes(255), b"\1"),
        (bytes(range(256)), bytes([1]) * 256, bytes([2]) * 256, b"\0"),
    ]
    for labs, pars, flags, u in parts:
        state = _state(labs, pars, flags, u)
        assert type(state) is bytes
        assert _parts(state) == (labs, pars, flags, u)
    assert _state(bytes(range(256)), bytes(256), bytes(256), b"\0")[:2] == b"\1\0"
    one = _state(b"\0", b"\0", b"\0", b"\0")  # width 1: one vertex, one component
    none = _state(b"", b"", b"\0\0\0", b"\0")  # width 0, the same bytes after the width
    assert one[2:] == none[2:] and one != none
    assert _parts(one) != _parts(none)


def grid(rows: int, columns: int, sign: int = 1) -> SignedGraph:
    edges = []
    for r in range(rows):
        for c in range(columns):
            v = r * columns + c
            if c + 1 < columns:
                edges.append((v, v + 1, sign))
            if r + 1 < rows:
                edges.append((v, v + columns, sign))
    return SignedGraph(rows * columns, tuple(edges))


def recursive_tree(seed: int) -> SignedGraph:
    rng = random.Random(seed)
    return SignedGraph(256, tuple((rng.randrange(v), v, 1) for v in range(1, 256)))


def peak_entries(monkeypatch, g: SignedGraph, univariate: bool):
    """(peak live entries, the refusal's message or None) of one tally of g."""
    peak = [0]
    live_entries = chromatic._live_entries

    def watched(states, width):
        live = live_entries(states, width)
        peak[0] = max(peak[0], live)
        return live

    monkeypatch.setattr(chromatic, "_live_entries", watched)
    try:
        frontier_tally(g.n, g.edges, univariate)
        refusal = None
    except BudgetExceededError as e:
        refusal = str(e)
    monkeypatch.undo()
    return peak[0], refusal


@pytest.mark.parametrize("name, g, modes, peak, refused_at", [
    ("petersen", fixture("petersen"), (True, False), 94, None),
    ("3x30 grid", grid(3, 30), (True, False), 428, None),
    ("2x128 ladder", grid(2, 128), (True, False), 508, None),
    ("negative 2x128 ladder", grid(2, 128, -1), (True,), 508, None),
    ("random 256-vertex tree", recursive_tree(1), (True, False), 4162, None),
    ("negative 2x128 ladder", grid(2, 128, -1), (False,), 130820, 131334),
    ("16x16 grid", grid(16, 16), (True,), 67292, 134584),
], ids=["petersen", "3x30 grid", "2x128 ladder", "negative 2x128 ladder",
        "random 256-vertex tree", "negative 2x128 ladder bivariate", "16x16 grid"])
def test_probe_peaks_in_maximum_cardinality_order(monkeypatch, name, g, modes, peak, refused_at):
    """Peak live entries of the budget probes, in the univariate and
    bivariate tallies, and where the order still leaves them refused, the
    count that the refusal names."""
    for univariate in modes:
        got, refusal = peak_entries(monkeypatch, g, univariate)
        assert got == peak, (name, univariate)
        if refused_at is None:
            assert refusal is None, (name, univariate)
        else:
            assert refusal is not None and refusal.startswith(f"{refused_at} frontier entries")
