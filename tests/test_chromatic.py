"""Counting functions and polynomial constructors, cross-checked per route."""

import itertools
import random

import pytest

from signedchrom import chromatic
from signedchrom.chromatic import (
    _subset_bivariate_pair,
    _subset_chromatic_pair,
    bivariate_pair,
    chromatic_pair,
    complete_bivariate_pair,
    complete_chromatic_pair,
    count_colourings_oracle,
    interpolated_pair,
    make_colour_spec,
    threshold_bivariate,
)
from signedchrom.equivalence import enumerate_classes, graph_from_mask
from signedchrom.errors import BudgetExceededError, SignedChromError
from signedchrom.graphs import (
    SignedGraph,
    complete_graph,
    fixture,
    positive_part,
    threshold_graph,
)
from signedchrom.poly import BiPoly, ChromaticPair, UniPoly, falling_factorial
from signedchrom import reference

X = UniPoly.x()
XB, YB = BiPoly.x(), BiPoly.y()


def all_signed_graphs(n):
    """Every signature of every underlying graph on exactly n labelled vertices."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for states in itertools.product((0, 1, -1), repeat=len(pairs)):
        edges = tuple((u, v, s) for (u, v), s in zip(pairs, states) if s)
        yield SignedGraph(n, edges)


def test_make_colour_spec_examples():
    empty = make_colour_spec(0, 0)
    assert empty.colours() == ()
    single = make_colour_spec(1, 0)
    assert single.colours() == (0,)
    spec = make_colour_spec(7, 2)
    assert spec.paired == {1, 2, -1, -2}
    assert spec.includes_zero
    assert spec.unpaired == {8, 9}
    assert len(spec.colours()) == 7
    with pytest.raises(SignedChromError, match=r"need lam >= mu >= 0, got \(1, 2\)"):
        make_colour_spec(1, 2)
    with pytest.raises(SignedChromError, match=r"need lam >= mu >= 0, got \(1, -1\)"):
        make_colour_spec(1, -1)


def test_colour_spec_invariants():
    for lam in range(8):
        for mu in range(lam + 1):
            spec = make_colour_spec(lam, mu)
            assert len(spec.unpaired) == mu
            assert not spec.paired & spec.unpaired
            assert spec.paired == {-c for c in spec.paired}
            assert not spec.unpaired & {-c for c in spec.unpaired}
            assert spec.includes_zero == ((lam - mu) % 2 == 1)
            assert len(spec.colours()) == lam


def test_oracle_examples():
    assert count_colourings_oracle(complete_graph(3, -1), 4) == 28
    assert count_colourings_oracle(SignedGraph(1, ()), 0) == 0
    assert count_colourings_oracle(fixture("G1"), 3) == 8
    assert count_colourings_oracle(SignedGraph(0, ()), 0) == 1


def test_oracle_budget():
    """lambda^max(n, 2) is capped at 10^8: 100^5 on G1 is refused, and 10^4
    colours on one vertex are the most the colour set may hold."""
    with pytest.raises(BudgetExceededError):
        count_colourings_oracle(fixture("G1"), 100)
    assert count_colourings_oracle(SignedGraph(1, ()), 10**4) == 10**4
    with pytest.raises(BudgetExceededError):
        count_colourings_oracle(SignedGraph(1, ()), 10**4 + 1)


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
    Petersen graph's bivariate tally peaks at 273 entries (states plus the
    slots of their packed counts)."""
    with pytest.raises(BudgetExceededError, match="K_11"):
        chromatic_pair(complete_graph(11, 1))
    with pytest.raises(BudgetExceededError, match="K_11"):
        bivariate_pair(complete_graph(11, -1))
    expected = bivariate_pair(fixture("petersen"))
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 272)
    chromatic._subset_tally.cache_clear()  # a cached table would skip the tally
    with pytest.raises(BudgetExceededError, match="273 frontier entries"):
        bivariate_pair(fixture("petersen"))
    monkeypatch.setattr(chromatic, "MAX_FRONTIER_ENTRIES", 273)
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
    assert bivariate_pair(g1).even.diagonal() == chromatic_pair(positive_part(g1)).even


def test_interpolated_pair_examples():
    mk2 = complete_graph(2, -1)
    assert interpolated_pair(mk2) == chromatic_pair(mk2)
    g2 = fixture("G2")
    assert interpolated_pair(g2) == reference.GEM_PAIR
    assert interpolated_pair(SignedGraph(0, ())) == ChromaticPair(UniPoly.one(), UniPoly.one())
    # through (0, 0) and (2, 1) the line is x/2
    with pytest.raises(SignedChromError, match="coefficient 1/2 is not an integer"):
        chromatic._lagrange_integer([0, 2], [0, 1])


def test_threshold_bivariate_examples():
    assert threshold_bivariate(()) == (XB, XB)
    assert threshold_bivariate(reference.THRESHOLD_EXAMPLE_CODE) == (
        reference.THRESHOLD_EXAMPLE_BIVARIATE
    )
    fall5 = falling_factorial(5)
    pair = threshold_bivariate((1, 1, 1, 1))
    assert pair.even.substitute_y(0) == fall5
    assert pair.even == pair.odd
    # +K_5 is all-positive, so no y appears at all
    assert all(j == 0 for (_, j), _ in pair.even.items())
    with pytest.raises(SignedChromError, match="code entry 3 not in"):
        threshold_bivariate((3,))


def test_threshold_recursion_matches_subset_expansion():
    rng = random.Random(5)
    codes = [tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randrange(5))) for _ in range(12)]
    for code in codes:
        assert threshold_bivariate(code) == _subset_bivariate_pair(threshold_graph(code)), code


def test_oracle_equivalence_small_family():
    """Subset expansion agrees with brute-force counts on all 3-vertex graphs."""
    for g in all_signed_graphs(3):
        pair = bivariate_pair(g)
        for lam in range(5):
            for mu in range(lam + 1):
                want = count_colourings_oracle(g, lam, mu)
                poly = pair.even if (lam - mu) % 2 == 0 else pair.odd
                assert poly.evaluate(lam, mu) == want


def test_univariate_oracle_lambda_up_to_six():
    rng = random.Random(2)
    graphs = list(all_signed_graphs(3)) + rng.sample(list(all_signed_graphs(4)), 40)
    for g in graphs:
        pair = chromatic_pair(g)
        for lam in range(7):
            want = count_colourings_oracle(g, lam)
            poly = pair.even if lam % 2 == 0 else pair.odd
            assert poly.evaluate(lam) == want


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
    assert inventory.class_count == reference.SWITCHING_CLASS_COUNTS[6]
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
    assert chromatic_pair(k0) == ChromaticPair(UniPoly.one(), UniPoly.one())
    b = bivariate_pair(k0)
    assert b.even == BiPoly.one() and b.odd == BiPoly.one()
