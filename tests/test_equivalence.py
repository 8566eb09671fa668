"""Isomorphism, switching isomorphism, and signature-class enumeration."""

import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    SWITCHING_CLASS_COUNTS,
    component_stats,
    isomorphisms,
    join,
    oracle_certificate,
    relabel,
)
from test_tally import small_signed_graphs

from signedchrom import equivalence
from signedchrom.chromatic import bivariate_pair, chromatic_pair
from signedchrom.equivalence import (
    automorphisms,
    enumerate_classes,
    find_isomorphism,
    find_switching_isomorphism,
    free_switching_vertices,
    generating_automorphisms,
    graph_from_mask,
    non_switching_isomorphism_certificate,
)
from signedchrom.errors import BudgetExceededError
from signedchrom.graphs import SignedGraph, complete_graph, fixture, switch
from signedchrom.verify import UNLABELLED_GRAPH_COUNTS


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


def star(leaves):
    return SignedGraph(leaves + 1, tuple((0, v, 1) for v in range(1, leaves + 1)))


def union_find_classes(underlying, mode):
    """Oracle: union-find over all 2^m masks, united under single-vertex
    switchings (switching mode) and automorphism generators.  Returns the
    representative masks, the orbit sizes and the class of every mask."""
    edges = [(u, v) for u, v, _ in underlying.edges]
    edge_index = {e: i for i, e in enumerate(edges)}
    m = len(edges)
    moves = []
    if mode == "switching_iso":
        for v in range(underlying.n):
            star_mask = sum(1 << i for i, e in enumerate(edges) if v in e)
            moves.append(lambda mask, sm=star_mask: mask ^ sm)
    for perm in generating_automorphisms(underlying):
        table = [edge_index[tuple(sorted((perm[a], perm[b])))] for a, b in edges]
        moves.append(
            lambda mask, t=table: sum(1 << t[i] for i in range(m) if mask >> i & 1)
        )
    parent = list(range(1 << m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mask in range(1 << m):
        for move in moves:
            ra, rb = find(mask), find(move(mask))
            parent[max(ra, rb)] = min(ra, rb)
    reps, sizes, class_of = [], [], []
    rep_of_root = {}
    for mask in range(1 << m):
        root = find(mask)
        if root not in rep_of_root:
            rep_of_root[root] = len(reps)
            reps.append(mask)
            sizes.append(0)
        sizes[rep_of_root[root]] += 1
        class_of.append(rep_of_root[root])
    return tuple(reps), tuple(sizes), class_of


def generated_group(gens, n):
    """The permutation group on range(n) that gens generate."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        a = frontier.pop()
        for b in gens:
            c = tuple(b[a[v]] for v in range(n))
            if c not in group:
                group.add(c)
                frontier.append(c)
    return group


def oracle_graphs():
    """K_1..K_6, Petersen and 30 seeded graphs with at most 12 edges, some
    of them disconnected or with isolated vertices."""
    graphs = [complete_graph(n, 1) for n in range(1, 7)] + [fixture("petersen")]
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randrange(1, 9)
        slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = sorted(rng.sample(slots, rng.randrange(min(12, len(slots)) + 1)))
        graphs.append(SignedGraph(n, tuple((u, v, 1) for u, v in chosen)))
    return graphs


def test_isomorphism_examples():
    g1 = fixture("G1")
    rng = random.Random(1)
    perm = list(range(5))
    rng.shuffle(perm)
    shuffled = relabel(g1, perm)
    witness = find_isomorphism(g1, shuffled)
    assert witness is not None
    assert relabel(g1, witness) == shuffled
    assert find_isomorphism(complete_graph(3, 1), complete_graph(3, -1)) is None
    assert find_isomorphism(g1, fixture("G2")) is None


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
    two_neg = SignedGraph(3, ((0, 1, -1), (0, 2, -1), (1, 2, 1)))
    assert find_switching_isomorphism(two_neg, complete_graph(3, 1)) is not None
    assert find_switching_isomorphism(fixture("G1"), fixture("G2")) is None


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
        assert find_switching_isomorphism(g, g) is not None
    for g in graphs:
        for h in graphs:
            forward = find_switching_isomorphism(g, h) is not None
            assert forward == (find_switching_isomorphism(h, g) is not None)
    # transitivity on switched/relabelled copies
    g = graphs[0]
    a = switch(g, {0})
    b = relabel(a, [g.n - 1 - v for v in range(g.n)])
    assert find_switching_isomorphism(g, a) is not None
    assert find_switching_isomorphism(a, b) is not None
    assert find_switching_isomorphism(g, b) is not None


def test_switching_search_matches_class_partition():
    # union-find classes of signed K_n: same class iff switching isomorphic
    inv = enumerate_classes(complete_graph(4, 1), "switching_iso")
    members = [graph_from_mask(inv.underlying, k) for k in range(2 ** inv.underlying.m)]
    for a, ga in enumerate(members):
        for b, gb in enumerate(members):
            same = inv.classify(a) == inv.classify(b)
            assert (find_switching_isomorphism(ga, gb) is not None) == same, (a, b)
    inv = enumerate_classes(complete_graph(5, 1), "switching_iso")
    for mask in range(2 ** inv.underlying.m):
        g = graph_from_mask(inv.underlying, mask)
        for cls, rep in enumerate(inv.representatives):
            assert (find_switching_isomorphism(g, rep) is not None) == (inv.classify(mask) == cls)


def test_switching_search_matches_certificate():
    # the oracle certificate tries every switching of h with a plain isomorphism search
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
        assert (res is not None) == oracle_certificate(g, h)["isomorphism_found"]
        if res is not None:
            X, pw = res
            assert relabel(g, pw) == switch(h, X)


@settings(max_examples=200, deadline=None)
@given(small_signed_graphs(), st.data())
def test_certificate_agrees_with_the_switching_search(g, data):
    """On a random switching and relabelling of g, sometimes with one sign
    flipped, the certificate finds an isomorphism exactly when the plain
    switch-and-search loop does.  A found witness re-checks; a failure
    counts all 2^(n - c) switchings, as the loop does."""
    bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    h = relabel(switch(g, [v for v, bit in enumerate(bits) if bit]),
                data.draw(st.permutations(range(g.n))))
    flipped = bool(h.m) and data.draw(st.booleans())
    if flipped:
        k = data.draw(st.integers(0, h.m - 1))
        edges = list(h.edges)
        u, v, sgn = edges[k]
        edges[k] = (u, v, -sgn)
        h = SignedGraph(h.n, tuple(edges))
    cert = non_switching_isomorphism_certificate(g, h)
    want = oracle_certificate(g, h)
    assert cert["isomorphism_found"] == want["isomorphism_found"]
    if cert["isomorphism_found"]:
        X, perm = cert["witness"]["X"], cert["witness"]["perm"]
        assert relabel(g, perm) == switch(h, X)
    else:
        assert flipped
        assert cert == want
        assert cert["switchings_tried"] == 2 ** (h.n - component_stats(h).c)


@settings(max_examples=200, deadline=None)
@given(small_signed_graphs(), st.data())
def test_switching_search_labels_survive_switching_and_relabelling(g, data):
    """The switching search's labels, (degree, negative triangles through
    the vertex), count the negative triangles by brute force, and the iso
    searches' labels add the negative degree.  Relabelling moves both label
    lists by the relabelling, and switching keeps the switching labels."""
    switching_labels, iso_labels = equivalence._labels(g, True), equivalence._labels(g, False)
    sign = {(u, v): s for u, v, s in g.edges}
    for v in range(g.n):
        degree = sum(v in (a, b) for a, b in sign)
        negative_degree = sum(v in (a, b) and s < 0 for (a, b), s in sign.items())
        negative = sum(
            sign[a, b] * sign[a, c] * sign[b, c] < 0
            for a, b, c in combinations(range(g.n), 3)
            if v in (a, b, c) and {(a, b), (a, c), (b, c)} <= sign.keys()
        )
        assert switching_labels[v] == (degree, negative)
        assert iso_labels[v] == (degree, negative, negative_degree)
    perm = data.draw(st.permutations(range(g.n)))
    bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    h = relabel(g, perm)

    def moved(labels):
        out = [None] * g.n
        for v in range(g.n):
            out[perm[v]] = labels[v]
        return out

    assert equivalence._labels(h, False) == moved(iso_labels)
    switched = switch(h, [v for v, bit in enumerate(bits) if bit])
    assert equivalence._labels(switched, True) == moved(switching_labels)


def test_automorphism_groups():
    assert len(automorphisms(fixture("petersen"))) == 120
    assert len(automorphisms(complete_graph(4, 1))) == 24
    assert len(automorphisms(fixture("G1"))) == 1  # the negative rim edge breaks the flip
    from signedchrom.graphs import all_positive
    assert len(automorphisms(all_positive(fixture("G1")))) == 2


def test_generating_automorphisms_generate_the_group():
    rng = random.Random(59)
    graphs = [complete_graph(5, 1), fixture("petersen"), fixture("G1"), star(5)]
    triangles = ((0, 1, 1), (0, 2, 1), (1, 2, 1), (3, 4, 1), (3, 5, 1), (4, 5, 1))
    graphs.append(SignedGraph(7, triangles))  # two triangles and an isolated vertex
    graphs += [random_graph(rng, rng.randrange(1, 7)) for _ in range(10)]
    for g in graphs:
        gens = generating_automorphisms(g)
        assert generated_group(gens, g.n) == set(isomorphisms(g, g))
        assert len(gens) <= g.n * g.n


@settings(max_examples=100, deadline=None)
@given(small_signed_graphs(7), st.data())
def test_searches_match_the_plain_search(g, data):
    """On a signed graph g of at most 7 vertices, `automorphisms` lists the
    group the plain search of `oracles` finds, `generating_automorphisms`
    generates it with at most n^2 generators, and `find_isomorphism` and
    `find_switching_isomorphism` decide a relabelled copy of g, and a
    switching of that copy, as the plain search does.  Sometimes one sign of
    the copy is flipped, which usually leaves g's classes."""
    group = set(isomorphisms(g, g))
    found = automorphisms(g)
    assert len(found) == len(group) and set(found) == group
    gens = generating_automorphisms(g)
    assert generated_group(gens, g.n) == group
    assert len(gens) <= g.n * g.n
    h = relabel(g, data.draw(st.permutations(range(g.n))))
    if h.m and data.draw(st.booleans()):
        k = data.draw(st.integers(0, h.m - 1))
        edges = list(h.edges)
        u, v, sgn = edges[k]
        edges[k] = (u, v, -sgn)
        h = SignedGraph(h.n, tuple(edges))
    perm = find_isomorphism(g, h)
    assert (perm is not None) == (next(isomorphisms(g, h), None) is not None)
    if perm is not None:
        assert relabel(g, perm) == h
    bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
    h = switch(h, [v for v, bit in enumerate(bits) if bit])
    res = find_switching_isomorphism(g, h)
    assert (res is not None) == oracle_certificate(g, h)["isomorphism_found"]
    if res is not None:
        X, perm = res
        assert relabel(g, perm) == switch(h, X)


def test_enumerate_classes_counts():
    # switching classes of K_0..K_7: OEIS A002854; iso classes of K_0..K_6: A000088
    for n, count in enumerate(SWITCHING_CLASS_COUNTS):
        assert enumerate_classes(complete_graph(n, 1), "switching_iso").class_count == count
    for n in range(7):
        inv = enumerate_classes(complete_graph(n, 1), "iso")
        assert inv.class_count == UNLABELLED_GRAPH_COUNTS[n]
    with pytest.raises(ValueError):
        enumerate_classes(complete_graph(3, 1), "nope")
    with pytest.raises(BudgetExceededError):
        enumerate_classes(complete_graph(8, 1), "iso")


def test_enumerate_classes_large_automorphism_groups():
    # K_1,11 has 11! automorphisms; a tree has one switching class
    assert enumerate_classes(star(11), "switching_iso").orbit_sizes == (2**11,)
    inv = enumerate_classes(star(11), "iso")
    assert inv.representative_masks == tuple((1 << k) - 1 for k in range(12))
    assert inv.orbit_sizes == tuple(comb(11, k) for k in range(12))
    for mode in ("iso", "switching_iso"):
        inv = enumerate_classes(SignedGraph(30, ()), mode)
        assert inv.orbit_sizes == (1,) and inv.classify(0) == 0


def test_enumerate_classes_budgets(monkeypatch):
    """Bits are m - n + c in switching mode and m in iso mode; a long path
    has 255 edges but no free bit, so its one switching class is admitted."""
    with pytest.raises(BudgetExceededError, match="^28 normal-form bits"):
        enumerate_classes(complete_graph(8, 1), "iso")
    path = SignedGraph(256, tuple((v, v + 1, 1) for v in range(255)))
    assert enumerate_classes(path, "switching_iso").orbit_sizes == (2**255,)
    with pytest.raises(BudgetExceededError, match="^255 normal-form bits"):
        enumerate_classes(path, "iso")
    monkeypatch.setattr(equivalence, "MAX_CLASS_EDGES", 1000)  # Petersen iso: 396 x 15
    with pytest.raises(BudgetExceededError, match="classes of 15 edges exceed"):
        enumerate_classes(fixture("petersen"), "iso")


def test_enumerate_classes_matches_union_find_oracle():
    graphs = oracle_graphs()
    assert any(g.n - len(free_switching_vertices(g)) > 1 for g in graphs)
    assert any(g.n > len({v for e in g.edges for v in e[:2]}) for g in graphs)
    for g in graphs:
        for mode in ("iso", "switching_iso"):
            inv = enumerate_classes(g, mode)
            reps, sizes, _ = union_find_classes(g, mode)
            assert (inv.representative_masks, inv.orbit_sizes) == (reps, sizes), (g, mode)


def test_classify_matches_union_find_oracle():
    disconnected = SignedGraph(
        8, ((0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1), (4, 5, 1), (4, 6, 1), (5, 6, 1))
    )
    for g in (complete_graph(5, 1), disconnected):
        for mode in ("iso", "switching_iso"):
            inv = enumerate_classes(g, mode)
            _, _, class_of = union_find_classes(g, mode)
            assert [inv.classify(mask) for mask in range(2**g.m)] == class_of
    for mask in (-1, 2**disconnected.m):
        with pytest.raises(ValueError):
            enumerate_classes(disconnected, "iso").classify(mask)


def test_enumerate_classes_structure():
    inv = enumerate_classes(complete_graph(4, 1), "switching_iso")
    assert sum(inv.orbit_sizes) == 2 ** inv.underlying.m
    assert inv.representative_masks == tuple(sorted(inv.representative_masks))
    # every mask's class representative has a mask no larger than it
    for mask in range(2 ** inv.underlying.m):
        assert inv.representative_masks[inv.classify(mask)] <= mask
    # representatives pairwise not switching isomorphic
    reps = inv.representatives
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            assert find_switching_isomorphism(reps[i], reps[j]) is None


def test_class_inventory_value_semantics():
    k3 = complete_graph(3, 1)
    inv = enumerate_classes(k3, "switching_iso")
    reps = (k3, SignedGraph(3, ((0, 1, -1), (0, 2, 1), (1, 2, 1))))
    fields = (k3, "switching_iso", (0, 1), reps, (4, 4), (1, 1, 1), (0, 1))
    assert (inv.normal_index, inv.class_of_index) == fields[5:]
    assert inv == enumerate_classes(k3, "switching_iso") and inv != enumerate_classes(k3, "iso")
    assert hash(inv) == hash(fields)
    # the two index tables stay out of the repr: at K_7 one has 2^21 entries
    assert repr(inv) == (
        f"ClassInventory(underlying={k3!r}, mode='switching_iso',"
        f" representative_masks=(0, 1), representatives={reps!r}, orbit_sizes=(4, 4))"
    )
    with pytest.raises(AttributeError):
        inv.mode = "iso"
    assert inv.mode == "switching_iso"


def test_in_orbit_members_share_chromatic_pair():
    rng = random.Random(17)
    inv = enumerate_classes(complete_graph(4, 1), "switching_iso")
    rep_pairs = [chromatic_pair(rep) for rep in inv.representatives]
    for _ in range(30):
        mask = rng.randrange(2 ** inv.underlying.m)
        member = graph_from_mask(inv.underlying, mask)
        assert chromatic_pair(member) == rep_pairs[inv.classify(mask)]


def test_in_orbit_members_share_bivariate_pair_iso_mode():
    rng = random.Random(23)
    inv = enumerate_classes(complete_graph(4, 1), "iso")
    rep_pairs = [bivariate_pair(rep) for rep in inv.representatives]
    for _ in range(20):
        mask = rng.randrange(2 ** inv.underlying.m)
        member = graph_from_mask(inv.underlying, mask)
        assert bivariate_pair(member) == rep_pairs[inv.classify(mask)]


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
    rng = random.Random(31)
    for sign in (1, -1):
        a, b, c = (random_graph(rng, 2) for _ in range(3))
        left = join(join(a, b, sign), c, sign)
        right = join(a, join(b, c, sign), sign)
        assert find_isomorphism(left, right) is not None
        assert find_switching_isomorphism(join(a, b, sign), join(b, a, sign)) is not None


@st.composite
def underlying_graphs(draw):
    """An all-positive graph on at most 6 vertices."""
    n = draw(st.integers(0, 6))
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    return SignedGraph(n, tuple((u, v, 1) for (u, v), k in zip(slots, keep) if k))


@settings(max_examples=100, deadline=None)
@given(underlying_graphs(), st.sampled_from(("iso", "switching_iso")), st.data())
def test_classify_is_constant_on_orbits(g, mode, data):
    """A random mask keeps its class index when a random automorphism of the
    underlying graph moves it and, in switching mode, when it is XOR-ed with
    the cut of a random vertex set.  Its class's representative is no larger
    than it, and each representative mask classifies to its own index."""
    inventory = enumerate_classes(g, mode)
    assert [inventory.classify(r) for r in inventory.representative_masks] == list(
        range(inventory.class_count)
    )
    edge_index = {(u, v): i for i, (u, v, _) in enumerate(g.edges)}
    mask = data.draw(st.integers(0, (1 << g.m) - 1))
    cls = inventory.classify(mask)
    assert inventory.representative_masks[cls] <= mask
    perm = data.draw(st.sampled_from(automorphisms(g)))
    moved = sum(
        1 << edge_index[tuple(sorted((perm[u], perm[v])))]
        for i, (u, v, _) in enumerate(g.edges) if mask >> i & 1
    )
    assert inventory.classify(moved) == cls
    if mode == "switching_iso":
        bits = data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n))
        cut = sum(1 << i for i, (u, v, _) in enumerate(g.edges) if bits[u] != bits[v])
        assert inventory.classify(mask ^ cut) == cls
