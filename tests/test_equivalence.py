"""Isomorphism, switching isomorphism, and signature-class enumeration."""

import random

import pytest

from signedchrom.chromatic import bivariate_pair, chromatic_pair
from signedchrom.equivalence import (
    are_isomorphic,
    are_switching_isomorphic,
    automorphisms,
    enumerate_classes,
    find_isomorphism,
    find_switching_isomorphism,
    graph_from_mask,
)
from signedchrom.errors import BudgetExceededError
from signedchrom.graphs import (
    SignedGraph,
    build_graph,
    complete_graph,
    fixture,
    relabel,
    switch,
)
from signedchrom.verify import non_switching_isomorphism_certificate


def random_graph(rng, n):
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            r = rng.random()
            if r < 0.3:
                edges.append((u, v, 1))
            elif r < 0.6:
                edges.append((u, v, -1))
    return SignedGraph(n, tuple(edges))


def test_isomorphism_examples():
    g1 = fixture("G1")
    rng = random.Random(1)
    perm = list(range(5))
    rng.shuffle(perm)
    shuffled = relabel(g1, perm)
    witness = find_isomorphism(g1, shuffled)
    assert witness is not None
    assert relabel(g1, witness) == shuffled
    assert not are_isomorphic(complete_graph(3, 1), complete_graph(3, -1))
    assert not are_isomorphic(g1, fixture("G2"))


def test_isomorphism_budget():
    big = SignedGraph(15, ())
    with pytest.raises(BudgetExceededError):
        find_isomorphism(big, big)
    with pytest.raises(BudgetExceededError):
        find_switching_isomorphism(big, big)


def test_switching_isomorphism_examples():
    mk2, pk2 = complete_graph(2, -1), complete_graph(2, 1)
    res = find_switching_isomorphism(mk2, pk2)
    assert res is not None
    X, perm = res
    assert relabel(mk2, perm) == switch(pk2, X)
    two_neg = build_graph(3, [(0, 1, -1), (0, 2, -1), (1, 2, 1)])
    assert are_switching_isomorphic(two_neg, complete_graph(3, 1))
    assert not are_switching_isomorphic(fixture("G1"), fixture("G2"))


def test_switching_isomorphic_witness_validates():
    rng = random.Random(3)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 6))
        X = {v for v in range(g.n) if rng.random() < 0.5}
        perm = list(range(g.n))
        rng.shuffle(perm)
        h = relabel(switch(g, X), perm)
        res = find_switching_isomorphism(h, g)
        assert res is not None
        Xw, pw = res
        assert relabel(h, pw) == switch(g, Xw)


def test_switching_isomorphism_is_equivalence_sampled():
    rng = random.Random(9)
    graphs = [random_graph(rng, 4) for _ in range(6)]
    for g in graphs:
        assert are_switching_isomorphic(g, g)
    for g in graphs:
        for h in graphs:
            assert are_switching_isomorphic(g, h) == are_switching_isomorphic(h, g)
    # transitivity on switched/relabelled copies
    g = graphs[0]
    a = switch(g, {0})
    b = relabel(a, [g.n - 1 - v for v in range(g.n)])
    assert are_switching_isomorphic(g, a)
    assert are_switching_isomorphic(a, b)
    assert are_switching_isomorphic(g, b)


def test_switching_search_matches_class_partition():
    # union-find classes of signed K_n: same class iff switching isomorphic
    inv = enumerate_classes(complete_graph(4, 1), "switching_iso")
    members = [graph_from_mask(inv.underlying, k) for k in range(2 ** inv.underlying.m)]
    for a, ga in enumerate(members):
        for b, gb in enumerate(members):
            same = inv.mask_to_class[a] == inv.mask_to_class[b]
            assert are_switching_isomorphic(ga, gb) == same, (a, b)
    inv = enumerate_classes(complete_graph(5, 1), "switching_iso")
    for mask in range(2 ** inv.underlying.m):
        g = graph_from_mask(inv.underlying, mask)
        for cls, rep in enumerate(inv.representatives):
            assert are_switching_isomorphic(g, rep) == (inv.mask_to_class[mask] == cls)


def test_switching_search_matches_certificate():
    # the certificate tries every switching of g2 with a plain isomorphism search
    rng = random.Random(41)
    for i in range(60):
        n = rng.randrange(5, 9)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = relabel(switch(g, {v for v in range(n) if rng.random() < 0.5}), perm)
        if i % 2 and h.m:
            # flip one edge sign: usually leaves the switching class
            k = rng.randrange(h.m)
            edges = list(h.edges)
            u, v, sgn = edges[k]
            edges[k] = (u, v, -sgn)
            h = SignedGraph(n, tuple(edges))
        res = find_switching_isomorphism(g, h)
        assert (res is not None) == non_switching_isomorphism_certificate(g, h)[
            "isomorphism_found"
        ]
        if res is not None:
            X, pw = res
            assert relabel(g, pw) == switch(h, X)


def test_automorphism_groups():
    assert len(automorphisms(fixture("petersen"))) == 120
    assert len(automorphisms(complete_graph(4, 1))) == 24
    assert len(automorphisms(fixture("G1"))) == 1  # the negative rim edge breaks the flip
    from signedchrom.graphs import all_positive
    assert len(automorphisms(all_positive(fixture("G1")))) == 2


def test_enumerate_classes_counts():
    assert enumerate_classes(complete_graph(3, 1), "switching_iso").class_count == 2
    assert enumerate_classes(complete_graph(4, 1), "switching_iso").class_count == 3
    assert enumerate_classes(complete_graph(5, 1), "switching_iso").class_count == 7
    assert enumerate_classes(complete_graph(4, 1), "iso").class_count == 11
    with pytest.raises(ValueError):
        enumerate_classes(complete_graph(3, 1), "nope")
    with pytest.raises(BudgetExceededError):
        enumerate_classes(complete_graph(8, 1), "iso")


def test_enumerate_classes_structure():
    inv = enumerate_classes(complete_graph(4, 1), "switching_iso")
    assert sum(inv.orbit_sizes) == 2 ** inv.underlying.m
    assert inv.representative_masks == tuple(sorted(inv.representative_masks))
    # every mask's class representative has a mask no larger than it
    for mask, cls in enumerate(inv.mask_to_class):
        assert inv.representative_masks[cls] <= mask
    # representatives pairwise not switching isomorphic
    reps = inv.representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert not are_switching_isomorphic(reps[i], reps[j])


def test_in_orbit_members_share_chromatic_pair():
    rng = random.Random(17)
    inv = enumerate_classes(complete_graph(4, 1), "switching_iso")
    rep_pairs = [chromatic_pair(rep) for rep in inv.representatives]
    for _ in range(30):
        mask = rng.randrange(2 ** inv.underlying.m)
        member = graph_from_mask(inv.underlying, mask)
        assert chromatic_pair(member) == rep_pairs[inv.mask_to_class[mask]]


def test_in_orbit_members_share_bivariate_pair_iso_mode():
    rng = random.Random(23)
    inv = enumerate_classes(complete_graph(4, 1), "iso")
    rep_pairs = [bivariate_pair(rep) for rep in inv.representatives]
    for _ in range(20):
        mask = rng.randrange(2 ** inv.underlying.m)
        member = graph_from_mask(inv.underlying, mask)
        assert bivariate_pair(member) == rep_pairs[inv.mask_to_class[mask]]


def test_isomorphic_graphs_share_bivariate_pair():
    rng = random.Random(29)
    for _ in range(15):
        g = random_graph(rng, rng.randrange(1, 5))
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert bivariate_pair(relabel(g, perm)) == bivariate_pair(g)
    # while switching need not preserve it
    assert bivariate_pair(complete_graph(2, 1)) != bivariate_pair(complete_graph(2, -1))


def test_join_associative_commutative_up_to_isomorphism():
    from signedchrom.graphs import join
    rng = random.Random(31)
    for sign in (1, -1):
        a, b, c = (random_graph(rng, 2) for _ in range(3))
        left = join(join(a, b, sign), c, sign)
        right = join(a, join(b, c, sign), sign)
        assert are_isomorphic(left, right)
        assert are_switching_isomorphic(join(a, b, sign), join(b, a, sign))
