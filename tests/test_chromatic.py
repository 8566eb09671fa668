"""Counting functions and polynomial constructors, cross-checked per route."""

import functools
import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ISOLATED,
    NEGATIVE_DOMINATING,
    POSITIVE_DOMINATING,
    SWITCHING_CLASS_COUNTS,
    colour_set,
    contract,
    count_colourings_oracle,
    diagonal,
    evaluate,
    interpolated_pair,
    lagrange_integer,
    positive_part,
    relabel,
    vertex_role,
)
from test_tally import random_signed_graph, small_signed_graphs

from signedchrom import chromatic
from signedchrom.chromatic import (
    _peel_entry,
    _subset_bivariate_pair,
    _subset_chromatic_pair,
    bivariate_pair,
    chromatic_pair,
    chromatic_pairs,
    _unit_tally,
    complete_bivariate_pair,
    complete_chromatic_pair,
)
from signedchrom.closedform import join_pair
from signedchrom.equivalence import enumerate_classes, graph_from_mask
from signedchrom.errors import BudgetExceededError, SignedChromError
from signedchrom.graphs import SignedGraph, complete_graph, fixture, switch, threshold_graph
from signedchrom.poly import BiPoly, BivariatePair, ChromaticPair, falling_factorial
from signedchrom import reference

X = BiPoly.x()
XB, YB = BiPoly.x(), BiPoly.y()


def all_signed_graphs(n):
    """Every signature of every underlying graph on exactly n labelled vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for states in itertools.product((0, 1, -1), repeat=len(pairs)):
        edges = tuple((u, v, s) for (u, v), s in zip(pairs, states) if s)
        yield SignedGraph(n, edges)


def test_colour_set_examples():
    assert colour_set(0, 0) == ()
    assert colour_set(1, 0) == (0,)
    assert colour_set(4, 1) == (-1, 0, 1, 5)
    assert colour_set(7, 2) == (-2, -1, 0, 1, 2, 8, 9)
    with pytest.raises(SignedChromError, match=r"need lam >= mu >= 0, got \(1, 2\)"):
        colour_set(1, 2)
    with pytest.raises(SignedChromError, match=r"need lam >= mu >= 0, got \(1, -1\)"):
        colour_set(1, -1)


def test_colour_spec_invariants():
    for lam in range(8):
        for mu in range(lam + 1):
            colours = colour_set(lam, mu)
            assert colours == tuple(sorted(set(colours)))
            paired = {c for c in colours if 0 < abs(c) <= (lam - mu) // 2}
            unpaired = set(colours) - paired - {0}
            assert paired == {-c for c in paired}
            assert len(unpaired) == mu
            assert not {-c for c in unpaired} & set(colours)
            assert (0 in colours) == ((lam - mu) % 2 == 1)
            assert len(colours) == lam


def test_oracle_examples():
    assert count_colourings_oracle(complete_graph(3, -1), 4) == 28
    assert count_colourings_oracle(SignedGraph(1, ()), 0) == 0
    assert count_colourings_oracle(fixture("G1"), 3) == 8
    assert count_colourings_oracle(SignedGraph(0, ()), 0) == 1


def test_chromatic_pair_examples():
    assert chromatic_pair(complete_graph(3, -1)) == ChromaticPair(
        X * (X**2 - 3 * X + 3), (X - 1) ** 3
    )
    assert chromatic_pair(fixture("G1")) == reference.GEM_PAIR
    for n in range(6):
        fall = falling_factorial(n)
        assert chromatic_pair(complete_graph(n, 1)) == ChromaticPair(fall, fall)


def test_chromatic_pair_budget(monkeypatch):
    """Each route refuses by its own budget: K_11 on the partition route, and
    the frontier tally once its live entries pass the (lowered) limit.  The
    Petersen graph's bivariate tally peaks at 94 entries (states plus the
    slots of their packed counts).  The peel takes a signed K_n down to
    K_10, the largest the partition route takes, when each vertex it meets
    has edges of one sign, and K_n above MAX_PEEL_N vertices are not
    peeled."""
    with pytest.raises(BudgetExceededError, match="K_11"):
        chromatic_pair(complete_graph(11, 1))
    mixed = SignedGraph(11, [(u, v, -1 if (u + v) % 2 else 1)
                             for u in range(11) for v in range(u + 1, 11)])
    with pytest.raises(BudgetExceededError, match="K_11"):
        bivariate_pair(mixed)
    over = chromatic.MAX_PEEL_N + 1
    with pytest.raises(BudgetExceededError, match=f"K_{over}"):
        bivariate_pair(complete_graph(over, -1))
    k10 = complete_bivariate_pair(complete_graph(10, -1))
    assert bivariate_pair(complete_graph(11, -1)) == chromatic.threshold_step(-1, k10)
    expected = bivariate_pair(fixture("petersen"))
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 93)
    chromatic._subset_tally.cache_clear()  # a cached table would skip the tally
    with pytest.raises(BudgetExceededError, match="94 frontier entries"):
        bivariate_pair(fixture("petersen"))
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 94)
    assert bivariate_pair(fixture("petersen")) == expected


@pytest.mark.parametrize(
    "g",
    [
        graph_from_mask(complete_graph(8, 1), 9110),
        graph_from_mask(complete_graph(8, 1), 9115),
        complete_graph(8, 1),
        complete_graph(8, -1),
    ],
    ids=["mask9110", "mask9115", "plusK8", "minusK8"],
)
def test_partition_route_matches_frontier_tally_k8(g):
    """K_8, where the univariate pair first fails to separate switching
    classes (masks 9110 and 9115), on both routes."""
    assert complete_chromatic_pair(g) == _subset_chromatic_pair(g)
    assert complete_bivariate_pair(g) == _subset_bivariate_pair(g)


def test_bivariate_pair_examples():
    mk2 = XB**2 - XB + YB
    assert bivariate_pair(complete_graph(2, -1)) == (mk2, mk2)
    assert bivariate_pair(fixture("G1")) == reference.GEM_BIVARIATE
    b3 = bivariate_pair(fixture("Sigma3"))
    assert b3.even == reference.SIGMA3_EVEN_BIVARIATE
    assert b3.odd == reference.SIGMA34_ODD_BIVARIATE


def test_unsigned_chromatic():
    assert chromatic_pair(complete_graph(3, 1)).even == X * (X - 1) * (X - 2)
    assert chromatic_pair(SignedGraph(4, ())).even == X**4
    g1 = fixture("G1")
    assert diagonal(bivariate_pair(g1).even) == chromatic_pair(positive_part(g1)).even


def test_interpolated_pair_examples():
    mk2 = complete_graph(2, -1)
    assert interpolated_pair(mk2) == chromatic_pair(mk2)
    g2 = fixture("G2")
    assert interpolated_pair(g2) == reference.GEM_PAIR
    assert interpolated_pair(SignedGraph(0, ())) == ChromaticPair(BiPoly.one(), BiPoly.one())
    # through (0, 0) and (2, 1) the line is x/2
    with pytest.raises(SignedChromError, match="coefficient 1/2 is not an integer"):
        lagrange_integer([0, 2], [0, 1])


def test_threshold_bivariate_examples():
    """The peeled pairs of threshold graphs against the published values and
    the subset expansion."""
    assert bivariate_pair(threshold_graph(())) == (XB, XB)
    example = threshold_graph(reference.THRESHOLD_EXAMPLE_CODE)
    assert bivariate_pair(example) == reference.THRESHOLD_EXAMPLE_BIVARIATE
    assert _subset_bivariate_pair(example) == reference.THRESHOLD_EXAMPLE_BIVARIATE
    fall5 = falling_factorial(5)
    pair = bivariate_pair(threshold_graph((1, 1, 1, 1)))
    assert pair == _subset_bivariate_pair(complete_graph(5, 1))
    assert pair.even.substitute_y(0) == fall5
    assert pair.even == pair.odd
    # +K_5 is all-positive, so no y appears at all
    assert all(j == 0 for (_, j), _ in pair.even.items())
    for code in ((3,), (1, -1, 0) * 13 + (3,)):  # 40 entries, the last one refused
        with pytest.raises(SignedChromError, match="code entry 3 not in"):
            threshold_graph(code)


def test_threshold_recursion_matches_subset_expansion():
    rng = random.Random(5)
    codes = [tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randrange(5))) for _ in range(12)]
    for code in codes:
        g = threshold_graph(code)
        assert bivariate_pair(g) == _subset_bivariate_pair(g), code


def _generic_even_step(entry, even):
    """The even step as `BiPoly` ring operations, each shift taken on both
    axes at once: the oracle of `threshold_even_step`."""
    if entry == 0:
        return XB * even
    if entry == 1:
        return YB * even.shifted(-1, -1) + (XB - YB) * even.shifted(-1, 1)
    return YB * even + (XB - YB) * even.shifted(-1, 1)


def _generic_step(entry, pair):
    """The deletion formulae as `BiPoly` ring operations: the oracle of
    `threshold_step`."""
    even, odd = pair
    if entry == 0:
        odd2 = XB * odd
    else:
        a = odd.shifted(-1, -1) if entry == 1 else odd
        odd2 = YB * a + (XB - YB - 1) * odd.shifted(-1, 1) + even.shifted(-1, 0)
    return BivariatePair(_generic_even_step(entry, even), odd2)


def _assert_steps_match_generic(pair):
    for entry in (-1, 0, 1):
        assert chromatic.threshold_even_step(entry, pair.even) == _generic_even_step(entry, pair.even)
        assert chromatic.threshold_step(entry, pair) == _generic_step(entry, pair), (entry, pair)


def test_threshold_steps_match_generic_ring_operations():
    """Both steps on the pair of every code of length <= 5, so every code of
    length <= 6 is stepped, and on seeded random polynomials: the zero
    polynomial, negative coefficients and unrelated even and odd halves."""
    pairs = [BivariatePair(XB, XB)]
    for _ in range(6):
        for pair in pairs:
            _assert_steps_match_generic(pair)
        pairs = [chromatic.threshold_step(a, p) for a in (-1, 0, 1) for p in pairs]
    rng = random.Random(24)

    def random_poly():
        size = rng.choice((0, 1, 3, 8))
        return BiPoly({(rng.randrange(6), rng.randrange(6)): rng.randint(-50, 50)
                       for _ in range(size)})

    zero = BiPoly.zero()
    randoms = [BivariatePair(random_poly(), random_poly()) for _ in range(300)]
    for pair in [BivariatePair(zero, zero), BivariatePair(XB, zero), BivariatePair(zero, -YB)]:
        _assert_steps_match_generic(pair)
    for pair in randoms:
        _assert_steps_match_generic(pair)
    assert any(c < 0 for p in randoms for _, c in p.even.items())
    assert any(p.odd.is_zero() for p in randoms)


@pytest.mark.parametrize("entry", [2, -2, 3, "1", None])
def test_threshold_steps_refuse_a_bad_entry(entry):
    message = re.escape(f"code entry {entry!r} not in {{-1, 0, 1}}")
    with pytest.raises(SignedChromError, match=f"^{message}$"):
        chromatic.threshold_even_step(entry, XB)
    with pytest.raises(SignedChromError, match=f"^{message}$"):
        chromatic.threshold_step(entry, BivariatePair(XB, XB))


def _append_vertex(g: SignedGraph, entry: int) -> SignedGraph:
    """g plus a vertex that is isolated (0) or dominating with `entry` edges."""
    edges = g.edges + tuple((u, g.n, entry) for u in range(g.n) if entry)
    return SignedGraph(g.n + 1, edges)


def test_peel_matches_subset_expansion():
    """Every signed graph on at most 4 vertices and 100 seeded random ones on
    5, each with an isolated, a positive and a negative dominating vertex
    appended and then relabelled at random: the peeled pair equals the
    subset expansion of the whole graph, and on a sample its even
    constituent counts what the brute-force oracle counts."""
    rng = random.Random(22)
    pairs5 = list(itertools.combinations(range(5), 2))
    family = [g for n in range(5) for g in all_signed_graphs(n)]
    family += [
        SignedGraph(5, [(u, v, rng.choice((1, -1))) for u, v in pairs5 if rng.random() < 0.6])
        for _ in range(100)
    ]
    sampled = 0
    for g in family:
        for entry in (0, 1, -1):
            h = _append_vertex(g, entry)
            perm = list(range(h.n))
            rng.shuffle(perm)
            h = relabel(h, perm)
            pair = bivariate_pair(h)
            assert pair == _subset_bivariate_pair(h), (g, entry, perm)
            if rng.random() < 0.02:
                sampled += 1
                for lam, mu in ((2, 0), (3, 1), (4, 2), (4, 0)):
                    assert evaluate(pair.even, lam, mu) == count_colourings_oracle(h, lam, mu)
    assert sampled > 20, sampled


def test_peel_entry_matches_vertex_roles():
    """On every vertex of every signed graph on at most 4 vertices, K_1
    among them, the peel takes the code entry of the vertex's role: 0 when
    isolated, 1 or -1 when dominating with edges of that sign, and none for
    a plain vertex or the vertex of K_1."""
    want = {ISOLATED: 0, POSITIVE_DOMINATING: 1, NEGATIVE_DOMINATING: -1}
    checked = 0
    for n in range(5):
        for g in all_signed_graphs(n):
            for v in range(n):
                assert _peel_entry(g, v) == want.get(vertex_role(g, v)), (g, v)
                checked += 1
    assert checked == 1 + 2 * 3 + 3 * 3**3 + 4 * 3**6


def test_oracle_equivalence_small_family():
    """Subset expansion agrees with brute-force counts on all 3-vertex graphs."""
    for g in all_signed_graphs(3):
        pair = bivariate_pair(g)
        for lam in range(5):
            for mu in range(lam + 1):
                want = count_colourings_oracle(g, lam, mu)
                poly = pair.even if (lam - mu) % 2 == 0 else pair.odd
                assert evaluate(poly, lam, mu) == want


def test_univariate_oracle_lambda_up_to_six():
    rng = random.Random(2)
    graphs = list(all_signed_graphs(3)) + rng.sample(list(all_signed_graphs(4)), 40)
    for g in graphs:
        pair = chromatic_pair(g)
        for lam in range(7):
            want = count_colourings_oracle(g, lam)
            poly = pair.even if lam % 2 == 0 else pair.odd
            assert evaluate(poly, lam, 0) == want


def test_fastpath_matches_subset_expansion_all_complete_up_to_5():
    """Required validation gate for the partition-based complete-graph route."""
    for n in range(6):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for signs in itertools.product((1, -1), repeat=len(pairs)):
            g = SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(pairs, signs)))
            assert complete_bivariate_pair(g) == _subset_bivariate_pair(g), g
            assert complete_chromatic_pair(g) == _subset_chromatic_pair(g), g


def test_fastpath_matches_subset_expansion_k6_switching_classes():
    """The two routes agree on one graph of every switching class of signed
    K_6, for both pairs: the bivariate odd constituent is the one built from
    the colour-0 singletons."""
    inventory = enumerate_classes(complete_graph(6, 1), "switching_iso")
    assert inventory.class_count == SWITCHING_CLASS_COUNTS[6]
    for g in inventory.representatives:
        assert complete_chromatic_pair(g) == _subset_chromatic_pair(g), g
        assert complete_bivariate_pair(g) == _subset_bivariate_pair(g), g


def test_pair_functions_route_complete_graphs_to_partitions():
    """Signed K_n never reach the subset tally; other graphs do, once per
    pair function: the univariate tally runs switched and without the
    has-negative bit, so it is cached apart from the bivariate one."""
    k6 = SignedGraph(6, tuple(
        (u, v, -1 if (u + v) % 3 == 0 else 1) for u in range(6) for v in range(u + 1, 6)
    ))
    chromatic._subset_tally.cache_clear()
    chromatic_pair(k6)
    bivariate_pair(k6)
    assert chromatic._subset_tally.cache_info().misses == 0
    chromatic_pair(fixture("G1"))
    bivariate_pair(fixture("G1"))
    assert chromatic._subset_tally.cache_info().misses == 2


def test_fastpath_rejects_incomplete():
    with pytest.raises(ValueError):
        complete_bivariate_pair(fixture("G1"))


def test_empty_graph_pairs():
    k0 = SignedGraph(0, ())
    assert chromatic_pair(k0) == ChromaticPair(BiPoly.one(), BiPoly.one())
    b = bivariate_pair(k0)
    assert b.even == BiPoly.one() and b.odd == BiPoly.one()


# -- the partition route: the unit DP against partitions x matchings ---------------


def negclique_partitions(neg: list[int], n: int) -> list[tuple[int, ...]]:
    """All partitions of 0..n-1 into blocks that are cliques of the negative graph."""
    blocks: list[int] = []
    out: list[tuple[int, ...]] = []

    def rec(i: int) -> None:
        if i == n:
            out.append(tuple(blocks))
            return
        bit = 1 << i
        for idx in range(len(blocks)):
            b = blocks[idx]
            if b & ~neg[i] == 0:
                blocks[idx] = b | bit
                rec(i + 1)
                blocks[idx] = b
        blocks.append(bit)
        rec(i + 1)
        blocks.pop()

    rec(0)
    return out


def matching_counts(adj: list[int]):
    """Matching counts by size in the subgraphs of a graph given as adjacency
    bitmasks: the returned function maps a vertex mask to its counts, and
    every call shares one memo."""
    memo: dict[int, tuple[int, ...]] = {0: (1,)}

    def rec(mask: int) -> tuple[int, ...]:
        got = memo.get(mask)
        if got is not None:
            return got
        vb = mask & -mask
        v = vb.bit_length() - 1
        rest = mask ^ vb
        res = list(rec(rest))
        nb = adj[v] & rest
        while nb:
            ub = nb & -nb
            nb ^= ub
            sub = rec(rest ^ ub)
            if len(res) < len(sub) + 1:
                res.extend([0] * (len(sub) + 1 - len(res)))
            for i, cnt in enumerate(sub):
                res[i + 1] += cnt
        out = tuple(res)
        memo[mask] = out
        return out

    return rec


def oracle_unit_tally(g: SignedGraph) -> tuple[dict, dict]:
    """(w_all, w_zero) the route this DP replaced computed: every partition
    of V into negative cliques, times the k-matchings of the complement of
    its block-conflict graph (blocks joined by a negative edge conflict),
    with w_zero reading the blocks minus each singleton from the same memo."""
    n = g.n
    neg = [0] * n
    for u, v, s in g.edges:
        if s < 0:
            neg[u] |= 1 << v
            neg[v] |= 1 << u
    w_all: dict[tuple[int, int], int] = {}
    w_zero: dict[tuple[int, int], int] = {}
    for blocks in negclique_partitions(neg, n):
        r = len(blocks)
        blockneg = [0] * r
        for i, bm in enumerate(blocks):
            for v in range(n):
                if bm >> v & 1:
                    blockneg[i] |= neg[v]
        coadj = [0] * r
        for i in range(r):
            for j in range(i + 1, r):
                if not blockneg[i] & blocks[j]:
                    coadj[i] |= 1 << j
                    coadj[j] |= 1 << i
        matchings = matching_counts(coadj)
        full = (1 << r) - 1
        for k, cnt in enumerate(matchings(full)):
            if cnt:
                w_all[k, r - 2 * k] = w_all.get((k, r - 2 * k), 0) + cnt
        for s in range(r):
            if blocks[s].bit_count() == 1:
                for k, cnt in enumerate(matchings(full ^ 1 << s)):
                    if cnt:
                        w_zero[k, r - 1 - 2 * k] = w_zero.get((k, r - 1 - 2 * k), 0) + cnt
    return w_all, w_zero


@functools.cache
def complete_switching_classes(n: int) -> tuple[SignedGraph, ...]:
    return enumerate_classes(complete_graph(n, 1), "switching_iso").representatives


def random_signed_complete(rng: random.Random, n: int) -> SignedGraph:
    p = rng.random()
    return SignedGraph(n, tuple(
        (u, v, -1 if rng.random() < p else 1) for u in range(n) for v in range(u + 1, n)
    ))


def negative_graph(n: int, negative) -> SignedGraph:
    """Signed K_n whose negative edges are the pairs for which negative(u, v) holds."""
    return SignedGraph(n, tuple(
        (u, v, -1 if negative(u, v) else 1) for u in range(n) for v in range(u + 1, n)
    ))


def clique_union(*sizes: int) -> SignedGraph:
    """Signed K_n whose negative graph is the disjoint union of cliques of these sizes."""
    part = [i for i, size in enumerate(sizes) for _ in range(size)]
    return negative_graph(len(part), lambda u, v: part[u] == part[v])


def test_unit_tally_matches_partitions_on_switching_classes_up_to_8():
    """Every switching class of signed K_n for n <= 8: 328 graphs."""
    graphs = [g for n in range(9) for g in complete_switching_classes(n)]
    assert len(graphs) == 328
    for g in graphs:
        assert _unit_tally(g) == oracle_unit_tally(g), g


def test_unit_tally_matches_partitions_on_random_k9_k10():
    rng = random.Random(19)
    for n in (9, 9, 9, 10, 10, 10):
        g = random_signed_complete(rng, n)
        assert _unit_tally(g) == oracle_unit_tally(g), g


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(10, 1),
        complete_graph(10, -1),
        clique_union(5, 5),
        clique_union(6, 4),
        clique_union(4, 3, 3),
        negative_graph(10, lambda u, v: (v - u) % 10 in (1, 9)),
        negative_graph(10, lambda u, v: (u < 5) != (v < 5)),
    ],
    ids=["plusK10", "minusK10", "K5+K5", "K6+K4", "K4+K3+K3", "C10", "K5,5"],
)
def test_unit_tally_matches_partitions_on_structured_k10(g):
    """n = MAX_PARTITION_N, where the packed slots hold the largest counts."""
    assert g.n == chromatic.MAX_PARTITION_N
    assert _unit_tally(g) == oracle_unit_tally(g)


INVOLUTIONS = (1, 1, 2, 4, 10, 26, 76, 232, 764, 2620, 9496)  # OEIS A000085
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975)  # OEIS A000110


def test_unit_tally_totals_are_known_sequences():
    """On +K_n every block is a singleton and the units are a matching of V,
    so w_all totals the involutions; on -K_n no two blocks may share a
    colour pair, so w_all totals the partitions.  w_zero totals n times the
    count for n - 1.  Through n = MAX_PARTITION_N."""
    assert len(INVOLUTIONS) == len(BELL) == chromatic.MAX_PARTITION_N + 1
    for n in range(chromatic.MAX_PARTITION_N + 1):
        for sign, seq in ((1, INVOLUTIONS), (-1, BELL)):
            w_all, w_zero = _unit_tally(complete_graph(n, sign))
            assert sum(w_all.values()) == seq[n], (n, sign)
            assert sum(w_zero.values()) == (n * seq[n - 1] if n else 0), (n, sign)


def test_univariate_pair_is_bivariate_pair_at_y_0():
    """complete_chromatic_pair builds no bivariate polynomial; it must equal
    complete_bivariate_pair at y = 0 on every switching class of K_n, n <= 8,
    and on +-K_9 and +-K_10, whose packed unit counts are the largest.  The
    closed forms of family 3 at (0, 0, n) (+K_n) and family 1 at (n, 0, 0)
    (-K_n) pin those four pairs independently of the unit sum both share."""
    graphs = [g for n in range(9) for g in complete_switching_classes(n)]
    closed = {}
    for n in (9, 10):
        closed[complete_graph(n, 1)] = join_pair(3, 0, 0, n)
        closed[complete_graph(n, -1)] = join_pair(1, n, 0, 0)
    for g in graphs + list(closed):
        even, odd = complete_bivariate_pair(g)
        expected = ChromaticPair(even.substitute_y(0), odd.substitute_y(0))
        assert complete_chromatic_pair(g) == expected, g
        assert closed.get(g, expected) == expected, g


@st.composite
def signed_complete_graphs(draw):
    n = draw(st.integers(0, 6))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n * (n - 1) // 2,
                          max_size=n * (n - 1) // 2))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(pairs, signs)))


@settings(max_examples=40, deadline=None)
@given(signed_complete_graphs(), st.data())
def test_partition_route_matches_tally_and_invariants(g, data):
    """The partition route against the frontier tally on random signed K_n,
    before and after a random relabelling and switching.  Relabelling keeps
    both pairs; switching keeps the chromatic pair, while the bivariate pair
    sees the switched signs (x counts all-positive components)."""
    pair, bi = complete_chromatic_pair(g), complete_bivariate_pair(g)
    assert pair == _subset_chromatic_pair(g)
    assert bi == _subset_bivariate_pair(g)
    h = relabel(g, data.draw(st.permutations(range(g.n))))
    assert complete_chromatic_pair(h) == pair
    assert complete_bivariate_pair(h) == bi
    bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    h = switch(h, [v for v, bit in enumerate(bits) if bit])
    assert complete_chromatic_pair(h) == pair == _subset_chromatic_pair(h)
    assert complete_bivariate_pair(h) == _subset_bivariate_pair(h)


@settings(max_examples=40, deadline=None)
@given(small_signed_graphs(), st.data())
def test_production_routes_match_brute_force(g, data):
    """The production routes against brute-force counts on a random signed
    graph of at most 6 vertices, relabelled and switched at random:
    `chromatic_pair` at every lambda <= 4 (mu = 0) and `bivariate_pair` at
    every mu <= lambda <= 4.  Up to 5 vertices `chromatic_pair` also equals
    `interpolated_pair`, which rebuilds the pair from oracle counts alone."""
    h = relabel(g, data.draw(st.permutations(range(g.n))))
    bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    h = switch(h, [v for v, bit in enumerate(bits) if bit])
    pair, bi = chromatic_pair(h), bivariate_pair(h)
    assert pair == chromatic_pair(g)  # relabelling and switching keep the pair
    for lam in range(5):
        assert evaluate(pair.odd if lam % 2 else pair.even, lam, 0) == count_colourings_oracle(h, lam)
        for mu in range(lam + 1):
            poly = bi.odd if (lam - mu) % 2 else bi.even
            assert evaluate(poly, lam, mu) == count_colourings_oracle(h, lam, mu), (h, lam, mu)
    if h.n <= 5:
        assert pair == interpolated_pair(h)


def test_deletion_contraction_past_brute_force():
    """P(G) = P(G - e) - P(G / e) in both univariate constituents for a
    positive edge e whose ends have no common neighbour, on seeded signed
    graphs of 8 to 14 vertices, where brute force cannot follow: once with
    every pair from one `chromatic_pairs` batch and once from single
    `chromatic_pair` calls.  A negative e is made positive by switching one
    of its ends, which keeps the pair."""
    rng = random.Random(59)
    triples = []
    while len(triples) < 30:
        n = rng.randrange(8, 15)
        g = random_signed_graph(rng, n, rng.randrange(n, n + 9))
        near = [set() for _ in range(n)]
        for u, v, _ in g.edges:
            near[u].add(v)
            near[v].add(u)
        free = [(u, v, s) for u, v, s in g.edges if not near[u] & near[v]]
        if not free:
            continue
        u, v, s = rng.choice(free)
        if s < 0:
            g = switch(g, [u])
        deleted = SignedGraph(g.n, tuple(e for e in g.edges if e[:2] != (u, v)))
        triples += [(g, deleted, contract(g, (u, v, 1)))]
    graphs = [h for triple in triples for h in triple]
    chromatic._subset_tally.cache_clear()  # a cached table would skip the tally
    batched = chromatic_pairs(graphs)
    chromatic._subset_tally.cache_clear()
    for pairs in (batched, [chromatic_pair(h) for h in graphs]):
        for k, triple in enumerate(triples):
            whole, minus, merged = pairs[3 * k:3 * k + 3]
            assert whole.even == minus.even - merged.even, triple
            assert whole.odd == minus.odd - merged.odd, triple
            assert not merged.even.is_zero()
