"""Signed graphs: construction, switching, balance, joins and fixtures.

A signed graph is a finite simple graph whose edges carry a sign in {+1, -1}.
Vertices are 0..n-1; edges are stored as (u, v, sign) with u < v, sorted
lexicographically, so equal graphs compare and hash equal. All operations
are pure: they return new graphs and never mutate their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    BadCodeError,
    BadSignError,
    BudgetExceededError,
    DuplicateEdgeError,
    EmptyGraphError,
    IndexOutOfRangeError,
    LoopEdgeError,
    ParseError,
    UnknownEdgeError,
    UnknownFixtureError,
)

Edge = tuple[int, int, int]

# Largest vertex count a graph file or a complete graph may ask for.  At the
# default edge budget a pair touches at most 48 vertices, and switching
# searches take at most 12; K_256 has 32,640 edges, cheap to build before the
# edge budget refuses it.
MAX_VERTICES = 256

# vertex roles
ISOLATED = "isolated"
POSITIVE_DOMINATING = "positive_dominating"
NEGATIVE_DOMINATING = "negative_dominating"
PLAIN = "plain"
UNIVERSAL_K1 = "universal_K1"


@dataclass(frozen=True)
class SignedGraph:
    """Immutable signed graph on vertices 0..n-1."""

    n: int
    edges: tuple[Edge, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise IndexOutOfRangeError("vertex count must be nonnegative")
        seen = set()
        norm = []
        for u, v, s in self.edges:
            if u == v:
                raise LoopEdgeError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < self.n):
                raise IndexOutOfRangeError(f"edge ({u},{v}) outside 0..{self.n - 1}")
            if (u, v) in seen:
                raise DuplicateEdgeError(f"duplicate edge ({u},{v})")
            if s not in (1, -1):
                raise BadSignError(f"sign {s!r} on edge ({u},{v})")
            seen.add((u, v))
            norm.append((u, v, s))
        norm.sort()
        object.__setattr__(self, "edges", tuple(norm))

    @property
    def m(self) -> int:
        return len(self.edges)

    def negative_edge_count(self) -> int:
        return sum(1 for _, _, s in self.edges if s < 0)


class ComponentStats(NamedTuple):
    """Connected components: total, balanced, and all-positive counts."""

    c: int
    b: int
    p: int


def build_graph(n: int, edge_list: Iterable[tuple[int, int, int]]) -> SignedGraph:
    """Validate and canonicalize an edge list into a SignedGraph."""
    return SignedGraph(n, tuple(edge_list))


def _check_vertex(g: SignedGraph, v: int) -> None:
    if not (0 <= v < g.n):
        raise IndexOutOfRangeError(f"vertex {v} outside 0..{g.n - 1}")


def switch(g: SignedGraph, X: Iterable[int]) -> SignedGraph:
    """Negate the sign of every edge with exactly one endpoint in X."""
    xs = set(X)
    for v in xs:
        _check_vertex(g, v)
    edges = tuple(
        (u, v, -s if (u in xs) != (v in xs) else s) for u, v, s in g.edges
    )
    return SignedGraph(g.n, edges)


def relabel(g: SignedGraph, perm: Sequence[int]) -> SignedGraph:
    """Apply a vertex permutation: vertex v becomes perm[v]."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        raise IndexOutOfRangeError("perm must be a permutation of 0..n-1")
    return SignedGraph(g.n, tuple((perm[u], perm[v], s) for u, v, s in g.edges))


def component_stats(g: SignedGraph) -> ComponentStats:
    """Count components, balanced components and all-positive components.

    Uses a parity union-find: each vertex carries its sign relative to the
    component root, so a negative cycle shows up as a parity clash.
    """
    parent = list(range(g.n))
    parity = [0] * g.n
    unbalanced = [False] * g.n
    has_negative = [False] * g.n
    for u, v, s in g.edges:
        pu = 0
        while parent[u] != u:
            pu ^= parity[u]
            u = parent[u]
        pv = 0
        while parent[v] != v:
            pv ^= parity[v]
            v = parent[v]
        t = 1 if s < 0 else 0
        if u == v:
            if pu ^ pv != t:
                unbalanced[u] = True
        else:
            parent[v] = u
            parity[v] = pu ^ pv ^ t
            if unbalanced[v]:
                unbalanced[u] = True
            if has_negative[v]:
                has_negative[u] = True
        if t:
            has_negative[u] = True
    c = b = p = 0
    for v in range(g.n):
        if parent[v] == v:
            c += 1
            if not unbalanced[v]:
                b += 1
            if not has_negative[v]:
                p += 1
    return ComponentStats(c, b, p)


def is_balanced(g: SignedGraph) -> bool:
    """True iff no component contains a negative cycle."""
    stats = component_stats(g)
    return stats.b == stats.c


def is_connected(g: SignedGraph) -> bool:
    return component_stats(g).c == 1


def spanning_subgraph(g: SignedGraph, Y: Iterable) -> SignedGraph:
    """Keep the full vertex set and only the edges in Y (signs inherited)."""
    by_pair = {(u, v): s for u, v, s in g.edges}
    chosen = []
    for item in Y:
        u, v = item[0], item[1]
        if u > v:
            u, v = v, u
        if (u, v) not in by_pair:
            raise UnknownEdgeError(f"edge ({u},{v}) not in graph")
        if len(item) > 2 and item[2] != by_pair[(u, v)]:
            raise UnknownEdgeError(f"edge ({u},{v}) has sign {by_pair[(u, v)]}")
        chosen.append((u, v, by_pair[(u, v)]))
    return SignedGraph(g.n, tuple(chosen))


def join(g1: SignedGraph, g2: SignedGraph, join_sign: int) -> SignedGraph:
    """Disjoint union plus all edges of join_sign between the two parts.

    Joining with the vertexless graph returns the other argument unchanged.
    """
    if join_sign not in (1, -1):
        raise BadSignError(f"join sign must be +1 or -1, got {join_sign!r}")
    if g1.n == 0:
        return g2
    if g2.n == 0:
        return g1
    k = g1.n
    edges = list(g1.edges)
    edges.extend((u + k, v + k, s) for u, v, s in g2.edges)
    edges.extend((u, v + k, join_sign) for u in range(g1.n) for v in range(g2.n))
    return SignedGraph(g1.n + g2.n, tuple(edges))


def vertex_role(g: SignedGraph, v: int) -> str:
    """Classify v as isolated / positive or negative dominating / plain."""
    _check_vertex(g, v)
    if g.n == 1:
        return UNIVERSAL_K1
    signs = [s for u, w, s in g.edges if v in (u, w)]
    if not signs:
        return ISOLATED
    if len(signs) == g.n - 1:
        if all(s > 0 for s in signs):
            return POSITIVE_DOMINATING
        if all(s < 0 for s in signs):
            return NEGATIVE_DOMINATING
    return PLAIN


def delete_vertex(g: SignedGraph, v: int) -> SignedGraph:
    """Remove v and its incident edges; higher vertices shift down by one."""
    if g.n == 0:
        raise EmptyGraphError("cannot delete from the vertexless graph")
    _check_vertex(g, v)
    edges = tuple(
        (u - (u > v), w - (w > v), s)
        for u, w, s in g.edges
        if v not in (u, w)
    )
    return SignedGraph(g.n - 1, edges)


def add_dominating_vertex(g: SignedGraph, sign: int) -> SignedGraph:
    """Append a new vertex joined to every existing vertex with `sign` edges."""
    if sign not in (1, -1):
        raise BadSignError(f"sign must be +1 or -1, got {sign!r}")
    edges = g.edges + tuple((u, g.n, sign) for u in range(g.n))
    return SignedGraph(g.n + 1, edges)


def threshold_graph(code: Sequence[int]) -> SignedGraph:
    """Build the signed threshold graph of a code over {-1, 0, 1}.

    Starts from the single-vertex graph; each entry appends an isolated
    vertex (0), a positive dominating vertex (1), or a negative dominating
    vertex (-1).
    """
    for a in code:
        if a not in (-1, 0, 1):
            raise BadCodeError(f"code entry {a!r} not in {{-1, 0, 1}}")
    g = SignedGraph(1, ())
    for a in code:
        if a == 0:
            g = SignedGraph(g.n + 1, g.edges)
        else:
            g = add_dominating_vertex(g, a)
    return g


def positive_part(g: SignedGraph) -> SignedGraph:
    """Same vertices, only the positive edges."""
    return SignedGraph(g.n, tuple(e for e in g.edges if e[2] > 0))


def negative_part(g: SignedGraph) -> SignedGraph:
    """Same vertices, only the negative edges."""
    return SignedGraph(g.n, tuple(e for e in g.edges if e[2] < 0))


def all_positive(g: SignedGraph) -> SignedGraph:
    """Same underlying graph with every edge made positive."""
    return SignedGraph(g.n, tuple((u, v, 1) for u, v, _ in g.edges))


def _check_vertex_count(n: int) -> None:
    """Refuse a vertex count above MAX_VERTICES before anything is built."""
    if n > MAX_VERTICES:
        raise BudgetExceededError(f"{n} vertices exceed the vertex cap of {MAX_VERTICES}")


def complete_graph(n: int, sign: int) -> SignedGraph:
    if sign not in (1, -1):
        raise BadSignError(f"sign must be +1 or -1, got {sign!r}")
    _check_vertex_count(n)
    return SignedGraph(
        n, tuple((u, v, sign) for u in range(n) for v in range(u + 1, n))
    )


def _gem(negative_rim_edge: tuple[int, int]) -> SignedGraph:
    # centre 0, rim path 1-2-3-4; spokes positive
    rim = [(1, 2), (2, 3), (3, 4)]
    edges = [(0, i, 1) for i in range(1, 5)]
    edges += [(u, v, -1 if (u, v) == negative_rim_edge else 1) for u, v in rim]
    return SignedGraph(5, tuple(edges))


def _six_wheel_like(extra: list[tuple[int, int, int]]) -> SignedGraph:
    edges = [(0, i, 1) for i in range(1, 6)]
    edges += extra
    return SignedGraph(6, tuple(edges))


def _petersen() -> SignedGraph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5, 1))                # outer 5-cycle
        edges.append((5 + i, 5 + (i + 2) % 5, 1))        # inner pentagram
        edges.append((i, 5 + i, 1))                      # spokes
    return SignedGraph(10, tuple(edges))


_FIXTURES = {
    "G1": lambda: _gem((3, 4)),
    "G2": lambda: _gem((2, 3)),
    "Sigma1": lambda: _six_wheel_like([(1, 2, 1), (2, 3, 1), (4, 5, -1)]),
    "Sigma2": lambda: _six_wheel_like([(1, 5, 1), (3, 4, 1), (4, 5, -1)]),
    "Sigma3": lambda: SignedGraph(
        5,
        ((0, 1, 1), (0, 4, 1), (1, 2, 1), (1, 3, -1), (2, 3, 1), (2, 4, -1), (3, 4, -1)),
    ),
    "Sigma4": lambda: SignedGraph(
        5,
        ((0, 1, 1), (0, 2, -1), (0, 3, 1), (0, 4, -1), (1, 2, 1), (2, 3, 1), (3, 4, -1)),
    ),
    "petersen": _petersen,
}


def fixture(name: str) -> SignedGraph:
    """Return a named built-in graph; plusK:n / minusK:n give signed K_n."""
    if name in _FIXTURES:
        return _FIXTURES[name]()
    for prefix, sign in (("plusK:", 1), ("minusK:", -1)):
        if name.startswith(prefix):
            try:
                n = int(name[len(prefix):])
            except ValueError:
                raise UnknownFixtureError(f"bad fixture name {name!r}") from None
            if n < 0:
                raise UnknownFixtureError(f"bad fixture name {name!r}")
            return complete_graph(n, sign)
    raise UnknownFixtureError(f"unknown fixture {name!r}")


def fixture_names() -> tuple[str, ...]:
    return tuple(_FIXTURES) + ("plusK:n", "minusK:n")


# -- text edge-list format -----------------------------------------------------
#
#   # comment
#   n 5
#   e 0 1 +
#   e 3 4 -


def parse_graph(text: str) -> SignedGraph:
    """Parse the one-graph-per-file edge-list format."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if n is not None:
                raise ParseError(f"line {lineno}: duplicate n line")
            if len(parts) != 2:
                raise ParseError(f"line {lineno}: expected 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n < 0:
                raise ParseError(f"line {lineno}: negative vertex count")
            _check_vertex_count(n)
        elif parts[0] == "e":
            if n is None:
                raise ParseError(f"line {lineno}: edge before n line")
            if len(parts) != 4:
                raise ParseError(f"line {lineno}: expected 'e <u> <v> <+|->'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(f"line {lineno}: bad vertex index") from None
            if parts[3] == "+":
                s = 1
            elif parts[3] == "-":
                s = -1
            else:
                raise BadSignError(f"line {lineno}: sign must be + or -, got {parts[3]!r}")
            edges.append((u, v, s))
        else:
            raise ParseError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise ParseError("missing n line")
    return SignedGraph(n, tuple(edges))


def format_graph(g: SignedGraph) -> str:
    lines = [f"n {g.n}"]
    lines += [f"e {u} {v} {'+' if s > 0 else '-'}" for u, v, s in g.edges]
    return "\n".join(lines) + "\n"


def graph_to_dict(g: SignedGraph) -> dict:
    return {
        "n": g.n,
        "edges": [[u, v, "+" if s > 0 else "-"] for u, v, s in g.edges],
    }
