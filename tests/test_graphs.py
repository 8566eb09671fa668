"""Signed-graph data model: construction, switching, fixtures, parsing; and the
graph oracles of `tests/oracles.py`: component statistics, joins, vertex roles."""

import copy
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ISOLATED,
    NEGATIVE_DOMINATING,
    PLAIN,
    POSITIVE_DOMINATING,
    UNIVERSAL_K1,
    component_stats,
    is_balanced,
    join,
    positive_part,
    vertex_role,
)

from signedchrom.errors import BudgetExceededError, SignedChromError
from signedchrom.graphs import (
    MAX_VERTICES,
    SignedGraph,
    complete_graph,
    delete_vertex,
    fixture,
    format_graph,
    parse_graph,
    switch,
    threshold_graph,
)


@st.composite
def signed_graphs(draw, max_n=6):
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    for u, v in pairs:
        choice = draw(st.integers(0, 2))
        if choice:
            edges.append((u, v, 1 if choice == 1 else -1))
    return SignedGraph(n, tuple(edges))


def test_build_graph_examples():
    g = SignedGraph(2, ((0, 1, -1),))
    assert g == complete_graph(2, -1)
    with pytest.raises(SignedChromError, match="duplicate edge"):
        SignedGraph(3, ((0, 1, 1), (0, 1, -1)))
    with pytest.raises(SignedChromError, match="duplicate edge"):
        SignedGraph(3, ((0, 1, 1), (1, 0, 1)))
    with pytest.raises(SignedChromError, match="loop at vertex"):
        SignedGraph(3, ((1, 1, 1),))
    with pytest.raises(SignedChromError, match="outside 0..2"):
        SignedGraph(3, ((0, 3, 1),))
    with pytest.raises(SignedChromError, match="^sign 2 on edge"):
        SignedGraph(3, ((0, 1, 2),))


def test_edges_normalized_and_sorted():
    g = SignedGraph(3, ((2, 1, -1), (1, 0, 1)))
    assert g.edges == ((0, 1, 1), (1, 2, -1))
    assert SignedGraph(3, iter([(2, 1, -1), (1, 0, 1)])).edges == g.edges


def test_signed_graph_value_semantics():
    g = SignedGraph(3, [(2, 0, -1), (1, 0, 1)])
    edges = ((0, 1, 1), (0, 2, -1))
    assert g.n == 3 and g.edges == edges
    assert g == SignedGraph(3, edges) and hash(g) == hash((3, edges))
    assert hash(SignedGraph(0)) == hash((0, ()))
    assert g != SignedGraph(4, edges) and g != (3, edges)
    assert repr(g) == "SignedGraph(n=3, edges=((0, 1, 1), (0, 2, -1)))"
    assert repr(SignedGraph(0)) == "SignedGraph(n=0, edges=())"
    for attr in ("n", "edges", "other"):
        with pytest.raises(AttributeError):
            setattr(g, attr, 1)
    with pytest.raises(AttributeError):
        del g.edges
    assert g.n == 3 and g.edges == edges
    assert copy.deepcopy(g) == g and pickle.loads(pickle.dumps(g)) == g


@pytest.mark.parametrize(
    "n, edges, message",
    [
        (-1, (), "vertex count must be nonnegative"),
        (3, ((1, 1, 1),), "loop at vertex 1"),
        (3, ((3, 0, 1),), "edge (0,3) outside 0..2"),
        (3, ((0, 1, 1), (1, 0, -1)), "duplicate edge (0,1)"),
        (3, ((2, 1, 0),), "sign 0 on edge (1,2)"),
    ],
)
def test_signed_graph_error_messages(n, edges, message):
    with pytest.raises(SignedChromError) as exc:
        SignedGraph(n, edges)
    assert str(exc.value) == message


def test_switch_examples():
    minus_k2 = complete_graph(2, -1)
    assert switch(minus_k2, {0}) == complete_graph(2, 1)
    g = fixture("G1")
    assert switch(g, set()) == g
    with pytest.raises(SignedChromError, match="vertex 9 outside"):
        switch(g, {9})


@settings(max_examples=100)
@given(signed_graphs(), st.sets(st.integers(0, 5)))
def test_switch_is_involution(g, X):
    X = {v for v in X if v < g.n}
    assert switch(switch(g, X), X) == g


@settings(max_examples=100)
@given(signed_graphs(), st.sets(st.integers(0, 5)))
def test_switch_preserves_c_and_b(g, X):
    X = {v for v in X if v < g.n}
    before = component_stats(g)
    after = component_stats(switch(g, X))
    assert (before.c, before.b) == (after.c, after.b)


def test_component_stats_examples():
    assert component_stats(SignedGraph(5, ())) == (5, 5, 5)
    assert component_stats(complete_graph(3, -1)) == (1, 0, 0)
    assert component_stats(fixture("G1")) == (1, 0, 0)


def test_is_balanced_examples():
    assert is_balanced(complete_graph(5, 1))
    assert is_balanced(complete_graph(2, -1))
    assert not is_balanced(fixture("Sigma3"))
    assert not is_balanced(fixture("Sigma4"))
    assert is_balanced(SignedGraph(0, ()))


@settings(max_examples=100)
@given(signed_graphs())
def test_balance_iff_b_equals_c(g):
    stats = component_stats(g)
    assert is_balanced(g) == (stats.b == stats.c)
    assert 0 <= stats.p <= stats.b <= stats.c <= g.n


def test_join_examples():
    k0 = SignedGraph(0, ())
    k1 = SignedGraph(1, ())
    plus_k2 = complete_graph(2, 1)
    assert join(plus_k2, k0, -1) == plus_k2
    assert join(k0, plus_k2, -1) == plus_k2
    assert join(k1, k1, 1) == plus_k2
    assert join(join(k1, k1, 1), k1, 1) == complete_graph(3, 1)


def test_vertex_role():
    g1 = fixture("G1")
    assert vertex_role(g1, 0) == POSITIVE_DOMINATING
    assert all(vertex_role(complete_graph(4, -1), v) == NEGATIVE_DOMINATING for v in range(4))
    assert vertex_role(SignedGraph(2, ()), 0) == ISOLATED
    assert vertex_role(SignedGraph(1, ()), 0) == UNIVERSAL_K1
    assert vertex_role(g1, 3) == PLAIN
    with pytest.raises(SignedChromError, match="vertex 5 outside"):
        vertex_role(g1, 5)


def test_delete_vertex():
    assert delete_vertex(SignedGraph(1, ()), 0) == SignedGraph(0, ())
    assert delete_vertex(complete_graph(3, -1), 0) == complete_graph(2, -1)
    # removing the centre of the gem leaves the signed rim path
    rim = delete_vertex(fixture("G1"), 0)
    assert rim == SignedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, -1)))
    with pytest.raises(SignedChromError, match="cannot delete from the vertexless graph"):
        delete_vertex(SignedGraph(0, ()), 0)
    with pytest.raises(SignedChromError, match="vertex 2 outside"):
        delete_vertex(SignedGraph(2, ()), 2)


def test_threshold_graph_examples():
    assert threshold_graph(()) == SignedGraph(1, ())
    assert threshold_graph((1, 1)) == complete_graph(3, 1)
    assert threshold_graph((-1, -1)) == complete_graph(3, -1)
    with pytest.raises(SignedChromError, match="code entry 2 not in"):
        threshold_graph((2,))
    # each entry is a join with one vertex, or a disjoint union with it
    rng = random.Random(3)
    code = ()
    for _ in range(12):
        a = rng.choice((-1, 0, 1))
        prev = threshold_graph(code)
        want = join(prev, SignedGraph(1, ()), a) if a else SignedGraph(prev.n + 1, prev.edges)
        code += (a,)
        assert threshold_graph(code) == want, code
    with pytest.raises(BudgetExceededError, match="vertex cap"):
        threshold_graph((0,) * MAX_VERTICES)


def _is_threshold_underlying(g: SignedGraph) -> bool:
    """Recognition by repeated removal of an isolated or dominating vertex."""
    alive = set(range(g.n))
    adj = {v: set() for v in alive}
    for u, v, _ in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    while len(alive) > 1:
        for v in sorted(alive):
            deg = len(adj[v] & alive)
            if deg == 0 or deg == len(alive) - 1:
                alive.remove(v)
                break
        else:
            return False
    return True


def test_threshold_underlying_is_threshold():
    rng = random.Random(11)
    for _ in range(50):
        code = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randrange(7)))
        assert _is_threshold_underlying(threshold_graph(code))
    # sanity: a 4-cycle is not a threshold graph
    c4 = SignedGraph(4, ((0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)))
    assert not _is_threshold_underlying(c4)


def test_parts():
    assert positive_part(complete_graph(3, -1)) == SignedGraph(3, ())
    assert positive_part(complete_graph(3, 1)) == complete_graph(3, 1)


def test_fixture_examples():
    g1 = fixture("G1")
    assert g1.n == 5 and g1.m == 7 and [s for _, _, s in g1.edges].count(-1) == 1
    assert fixture("minusK:0") == SignedGraph(0, ())
    pet = fixture("petersen")
    assert pet.n == 10 and pet.m == 15
    degs = [0] * 10
    for u, v, _ in pet.edges:
        degs[u] += 1
        degs[v] += 1
    assert degs == [3] * 10
    assert fixture("Sigma1").n == 6 and fixture("Sigma2").m == 8
    with pytest.raises(SignedChromError, match="unknown fixture 'nope'"):
        fixture("nope")
    with pytest.raises(SignedChromError, match="bad fixture name 'plusK:x'"):
        fixture("plusK:x")


def test_parse_and_format_round_trip():
    g = fixture("G2")
    assert parse_graph(format_graph(g)) == g
    text = "# comment\nn 3\ne 0 1 +\ne 1 2 -\n"
    assert parse_graph(text) == SignedGraph(3, ((0, 1, 1), (1, 2, -1)))


def test_parse_errors():
    with pytest.raises(SignedChromError, match="line 1: edge before n line"):
        parse_graph("e 0 1 +\n")
    with pytest.raises(SignedChromError, match="line 2: duplicate n line"):
        parse_graph("n 2\nn 3\n")
    with pytest.raises(SignedChromError, match="line 1: bad vertex count 'two'"):
        parse_graph("n two\n")
    with pytest.raises(SignedChromError, match=r"line 2: sign must be \+ or -"):
        parse_graph("n 2\ne 0 1 ?\n")
    with pytest.raises(SignedChromError, match="line 2: unknown directive 'q'"):
        parse_graph("n 2\nq 0 1 +\n")
    with pytest.raises(SignedChromError, match=r"edge \(0,5\) outside 0..1"):
        parse_graph("n 2\ne 0 5 +\n")
    with pytest.raises(SignedChromError, match="missing n line"):
        parse_graph("# just a comment\n")


def test_vertex_cap():
    assert parse_graph(f"n {MAX_VERTICES}\n").n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 100_000_000):
        with pytest.raises(BudgetExceededError, match="vertex cap"):
            parse_graph(f"n {n}\n")
    with pytest.raises(BudgetExceededError, match="vertex cap"):
        complete_graph(MAX_VERTICES + 1, 1)
    with pytest.raises(BudgetExceededError, match="vertex cap"):
        fixture(f"minusK:{MAX_VERTICES + 1}")
