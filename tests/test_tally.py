"""The frontier tally against the 2^|E| subset loop it replaced.

`_tally_spanning_stats` below is that loop, kept as the oracle: it rebuilds
a parity union-find for every edge subset.  The frontier tally leaves out
entries that cancel to 0, so the oracle's table is compared without them.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from signedchrom.chromatic import _frontier_tally, chromatic_pair
from signedchrom.graphs import SignedGraph, fixture, relabel, switch, threshold_graph
from signedchrom import reference


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


def oracle_tally(g: SignedGraph) -> dict[tuple[int, int, int], int]:
    return {k: v for k, v in _tally_spanning_stats(g.n, g.edges).items() if v}


def assert_matches_oracle(g: SignedGraph) -> None:
    assert _frontier_tally(g.n, g.edges) == oracle_tally(g), g


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
    assert _frontier_tally(5, ()) == {(5, 5, 5): 1}
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
