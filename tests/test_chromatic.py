"""Counting functions and polynomial constructors, cross-checked per route."""

import functools
import itertools
import operator
import random
import re

import pytest
from hypothesis import assume, given, settings
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
    glue,
    induced,
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


@settings(max_examples=20, deadline=None)
@given(st.lists(st.sampled_from((-1, 0, 1)), min_size=13, max_size=chromatic.MAX_PEEL_N - 1),
       st.data())
def test_threshold_codes_past_the_verifier(code, data):
    """A spot check of lemma L past the verifier's 12 entries, evidence and
    not a verdict: on codes of 13 to 40 entries, the peel of the relabelled
    threshold graph equals the fold of `threshold_step` from K_1; every
    prefix's even polynomial has (-1)^n E(-1, 1) >= 1, n its vertex count;
    and both halves of the whole pair at y = 0 keep Zaslavsky's reciprocity
    signs, (-1)^n P(-t) > 0 for t = 1, 2, 3."""
    pair = BivariatePair(XB, XB)
    for n, a in enumerate([None, *code], 1):
        if a is not None:
            pair = chromatic.threshold_step(a, pair)
        assert (-1) ** n * evaluate(pair.even, -1, 1) >= 1, (code[:n - 1], n)
    perm = data.draw(st.permutations(range(n)))
    assert bivariate_pair(relabel(threshold_graph(code), perm)) == pair
    for t in (1, 2, 3):
        for poly in pair:
            assert (-1) ** n * evaluate(poly, -t, 0) > 0, (code, t)


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
    has-negative bit, so the two pair functions tally it apart."""
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
    """(w_all, w_all + w_zero), the even and odd counts, from w_all and
    w_zero as the route this DP replaced computed them: every partition of
    V into negative cliques, times the k-matchings of the complement of its
    block-conflict graph (blocks joined by a negative edge conflict), with
    w_zero reading the blocks minus each singleton from the same memo."""
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
    odd = dict(w_all)
    for key, cnt in w_zero.items():
        odd[key] = odd.get(key, 0) + cnt
    return w_all, odd


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
    count for n - 1, so the odd counts w_all + w_zero total that plus the
    count for n.  Through n = MAX_PARTITION_N."""
    assert len(INVOLUTIONS) == len(BELL) == chromatic.MAX_PARTITION_N + 1
    for n in range(chromatic.MAX_PARTITION_N + 1):
        for sign, seq in ((1, INVOLUTIONS), (-1, BELL)):
            even, odd = _unit_tally(complete_graph(n, sign))
            assert sum(even.values()) == seq[n], (n, sign)
            assert sum(odd.values()) == seq[n] + (n * seq[n - 1] if n else 0), (n, sign)


def test_univariate_pair_is_bivariate_pair_at_y_0():
    """complete_chromatic_pair sums the unit counts over the bases at y = 0
    and shifts only its univariate odd sum; it must equal
    complete_bivariate_pair's y = 0 values on every switching class of K_n,
    n <= 8, and on +-K_9 and +-K_10, whose packed unit counts are the
    largest.  The closed forms of family 3 at (0, 0, n) (+K_n) and family 1
    at (n, 0, 0) (-K_n) pin those four pairs independently of the unit sum
    both read."""
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


def _contractible_edges(g: SignedGraph) -> list:
    """The edges (u, v, s) of g that `contract` takes once s is made
    positive by switching u: every common neighbour w of the ends has
    sign(u, w) * sign(v, w) = s."""
    near: list[dict] = [{} for _ in range(g.n)]
    for u, v, s in g.edges:
        near[u][v] = near[v][u] = s
    return [(u, v, s) for u, v, s in g.edges
            if all(near[u][w] * near[v][w] == s for w in near[u].keys() & near[v].keys())]


def _deletion_contraction_triple(g: SignedGraph, e) -> tuple:
    """(G, G - e, G / e) for a contractible edge e = (u, v, s) of g, made
    positive first by switching u if it is negative, which keeps the
    univariate pair."""
    u, v, s = e
    if s < 0:
        g = switch(g, [u])
    deleted = SignedGraph(g.n, tuple(f for f in g.edges if f[:2] != (u, v)))
    return g, deleted, contract(g, (u, v, 1))


def test_deletion_contraction_past_brute_force():
    """P(G) = P(G - e) - P(G / e) in both univariate constituents for a
    positive edge e whose ends see each common neighbour with one sign, on
    seeded signed graphs of 8 to 14 vertices, where brute force cannot
    follow: once with every pair from one `chromatic_pairs` batch and once
    from single `chromatic_pair` calls.  A negative e is made positive by
    switching one of its ends, which keeps the pair."""
    rng = random.Random(59)
    triples = []
    while len(triples) < 30:
        n = rng.randrange(8, 15)
        g = random_signed_graph(rng, n, rng.randrange(n, n + 9))
        edges = _contractible_edges(g)
        if edges:
            triples.append(_deletion_contraction_triple(g, rng.choice(edges)))
    graphs = [h for triple in triples for h in triple]
    batched = chromatic_pairs(graphs)
    for pairs in (batched, [chromatic_pair(h) for h in graphs]):
        for k, triple in enumerate(triples):
            whole, minus, merged = pairs[3 * k:3 * k + 3]
            assert whole.even == minus.even - merged.even, triple
            assert whole.odd == minus.odd - merged.odd, triple
            assert not merged.even.is_zero()


def test_unpaired_colour_split_past_brute_force():
    """P_biv(G; x, y) = sum over S of P_univ(G - S; x - y) chi(G+[S]; y) in
    both constituents, where G+[S] is the positive part of G induced on S
    and chi its even univariate constituent: the vertices of S take the y
    unpaired colours, which act as plain colours on positive edges and
    clash with nothing across a negative one.  On seeded signed graphs of 7
    to 10 vertices, the sums of two `chromatic_pairs` batches against
    `bivariate_pair`, which ties the bivariate tally to the univariate one."""
    rng = random.Random(83)
    for _ in range(5):
        n = rng.randrange(7, 11)
        g = random_signed_graph(rng, n, rng.randrange(n, 2 * n + 1))
        subsets = [{v for v in range(n) if mask >> v & 1} for mask in range(1 << n)]
        rests = chromatic_pairs([induced(g, set(range(n)) - s) for s in subsets])
        parts = chromatic_pairs([positive_part(induced(g, s)) for s in subsets])
        whole = bivariate_pair(g)
        for x, y in ((3, 1), (4, 2), (5, 0), (6, 3), (2, 2)):
            chi = [evaluate(part.even, y, 0) for part in parts]
            for k in (0, 1):  # even, odd
                split = sum(evaluate(rest[k], x - y, 0) * c for rest, c in zip(rests, chi))
                assert split == evaluate(whole[k], x, y), (g, x, y, k)


def test_reciprocity_signs():
    """(-1)^n P(-t) > 0 for t = 1, 2, 3 in both univariate constituents
    (Zaslavsky, Discrete Math. 1982; Beck and Zaslavsky, Adv. Math. 2006),
    on every labelled signed graph of at most 4 vertices, 3,000 seeded ones
    of 5 and one graph of every switching class of signed K_n, n <= 7, all
    in one `chromatic_pairs` batch: the tally and the partition route at
    y = 0 both answer."""
    rng = random.Random(97)
    slots = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    graphs = [g for n in range(5) for g in all_signed_graphs(n)]
    for _ in range(3000):
        signs = rng.choices((0, 1, -1), k=len(slots))
        graphs.append(SignedGraph(5, tuple((u, v, s) for (u, v), s in zip(slots, signs) if s)))
    graphs += [g for n in range(8) for g in complete_switching_classes(n)]
    for g, pair in zip(graphs, chromatic_pairs(graphs)):
        for t in (1, 2, 3):
            for poly in pair:
                assert (-1) ** g.n * evaluate(poly, -t, 0) > 0, (g, t)


def test_cut_vertex_product_past_brute_force():
    """x E(G) = E(G1) E(G2) in the even univariate constituent E when G is
    G1 and G2 glued at one vertex: from an even-type colour set, negation
    and permutations of the colour pairs take any colour to any other, so
    each colour of the glued vertex extends to E(Gi) / x colourings of each
    part.  (Colour 0 is apart in the odd constituent, and there the
    relation fails.)  On seeded gluings of 5 to 15 vertices, G1 a random
    signed K_n in half of them, so that the partition route is checked
    against the tally of G."""
    rng = random.Random(61)
    triples = []
    for k in range(32):
        n1, n2 = rng.randrange(3, 9), rng.randrange(3, 9)
        if k % 2:
            g1 = random_signed_complete(rng, n1)
        else:
            g1 = random_signed_graph(rng, n1, rng.randrange(n1 - 1, 2 * n1))
        g2 = random_signed_graph(rng, n2, rng.randrange(n2 - 1, 2 * n2))
        triples.append((glue(g1, g2, rng.randrange(n1), rng.randrange(n2)), g1, g2))
    pairs = chromatic_pairs([h for triple in triples for h in triple])
    for k, triple in enumerate(triples):
        whole, one, two = pairs[3 * k:3 * k + 3]
        assert XB * whole.even == one.even * two.even, triple
        assert not whole.even.is_zero()


def test_disjoint_union_product_on_the_bivariate_basis():
    """Both bivariate pairs of a disjoint union are the products of the
    parts' pairs: a spanning subgraph is one of each part, and its term
    x^p (x - y)^(b - p) delta^(c - b) is the product of theirs.  On seeded
    unions of 2 to 14 parts of 2 to 4 vertices, each with a negative edge,
    relabelled at random: a subset of one negative edge per part has
    w = b - p equal to the number of parts, up to 14 on the subset basis,
    where each part alone reaches at most 2."""
    rng = random.Random(43)
    for k in list(range(2, 15)) * 2:
        parts, edges, n = [], [], 0
        for _ in range(k):
            size = rng.randrange(2, 5)
            g = random_signed_graph(rng, size, rng.randrange(1, size * (size - 1) // 2 + 1))
            (u, v, _), *rest = g.edges
            parts.append(SignedGraph(size, ((u, v, -1), *rest)))
            edges += [(a + n, b + n, s) for a, b, s in parts[-1].edges]
            n += size
        whole = _subset_bivariate_pair(relabel(SignedGraph(n, tuple(edges)), rng.sample(range(n), n)))
        pairs = [bivariate_pair(h) for h in parts]
        assert whole.even == functools.reduce(operator.mul, [p.even for p in pairs]), parts
        assert whole.odd == functools.reduce(operator.mul, [p.odd for p in pairs]), parts


@st.composite
def sparse_signed_graphs(draw, n, chords):
    """A signed graph on n vertices: a random spanning tree, each vertex
    after the first hung from an earlier one, plus at most `chords` other
    edges, with random signs, relabelled at random."""
    pairs = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]
    others = sorted({(u, v) for u in range(n) for v in range(u + 1, n)} - set(pairs))
    if others:
        pairs += draw(st.lists(st.sampled_from(others), max_size=chords, unique=True))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(pairs), max_size=len(pairs)))
    g = SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(pairs, signs)))
    return relabel(g, draw(st.permutations(range(n))))


@settings(max_examples=100, deadline=None)
@given(st.integers(16, 24).flatmap(lambda n: sparse_signed_graphs(n, 6)), st.data())
def test_deletion_contraction_on_sparse_graphs(g, data):
    """P(G) = P(G - e) - P(G / e) in both univariate constituents on a
    sparse signed graph of 16 to 24 vertices, a spanning tree plus at most
    6 chords, for a contractible edge e (a negative one is made positive by
    switching one of its ends)."""
    edges = _contractible_edges(g)
    assume(edges)
    triple = _deletion_contraction_triple(g, data.draw(st.sampled_from(edges)))
    whole, minus, merged = chromatic_pairs(list(triple))
    assert whole.even == minus.even - merged.even
    assert whole.odd == minus.odd - merged.odd
    assert not merged.even.is_zero()


@settings(max_examples=100, deadline=None)
@given(st.integers(16, 24).flatmap(lambda n: st.integers(2, n - 1).map(lambda n1: (n1, n + 1 - n1))),
       st.data())
def test_cut_vertex_product_on_sparse_graphs(sizes, data):
    """x E(G) = E(G1) E(G2) in the even univariate constituent when G, of
    16 to 24 vertices, is G1 and G2 glued at one vertex, each part a
    spanning tree plus at most 3 chords."""
    g1, g2 = (data.draw(sparse_signed_graphs(n, 3)) for n in sizes)
    v1, v2 = (data.draw(st.integers(0, h.n - 1)) for h in (g1, g2))
    whole, one, two = chromatic_pairs([glue(g1, g2, v1, v2), g1, g2])
    assert XB * whole.even == one.even * two.even
    assert not whole.even.is_zero()


@st.composite
def banded_signed_graphs(draw, n, band):
    """A signed graph on n vertices in which each pair of vertices at most
    `band` apart is an edge in about four draws of five, of either sign,
    relabelled at random: dense, yet its frontier stays narrow."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, min(n, u + band + 1))]
    signs = draw(st.lists(st.sampled_from((1, -1, 1, -1, 0)), min_size=len(pairs),
                          max_size=len(pairs)))
    g = SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(pairs, signs) if s))
    return relabel(g, draw(st.permutations(range(n))))


@pytest.mark.parametrize("pairs, top", [
    (chromatic_pairs, 24),
    # the bivariate tally's (p, b) slots near the budget from about 24 vertices
    (lambda graphs: [bivariate_pair(g) for g in graphs], 16),
], ids=["univariate", "bivariate"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_deletion_contraction_on_banded_graphs(pairs, top, data):
    """P(G) = P(G - e) - P(G / e) in both constituents of either pair on a
    banded signed graph of 8 to `top` vertices, for a contractible edge e
    made positive by switching one of its ends: the switched graph's pairs
    obey it, the bivariate pair's too, since a positive edge forbids equal
    colours of either kind."""
    g = data.draw(st.integers(8, top).flatmap(lambda n: banded_signed_graphs(n, 3)))
    edges = _contractible_edges(g)
    assume(edges)
    whole, minus, merged = pairs(list(_deletion_contraction_triple(g, data.draw(st.sampled_from(edges)))))
    assert whole.even == minus.even - merged.even
    assert whole.odd == minus.odd - merged.odd
    assert not merged.even.is_zero()


@settings(max_examples=100, deadline=None)
@given(st.integers(8, 24).flatmap(lambda n: st.integers(2, n - 1).map(lambda n1: (n1, n + 1 - n1))),
       st.data())
def test_cut_vertex_product_on_banded_graphs(sizes, data):
    """x E(G) = E(G1) E(G2) in the even univariate constituent when G, of
    8 to 24 vertices, is two banded signed graphs glued at one vertex."""
    g1, g2 = (data.draw(banded_signed_graphs(n, 3)) for n in sizes)
    v1, v2 = (data.draw(st.integers(0, h.n - 1)) for h in (g1, g2))
    whole, one, two = chromatic_pairs([glue(g1, g2, v1, v2), g1, g2])
    assert XB * whole.even == one.even * two.even
    assert not whole.even.is_zero()
