"""Signed graphs: construction, switching, vertex deletion, threshold graphs,
fixtures and the edge-list file format.

A signed graph is a finite simple graph whose edges carry a sign in {+1, -1}.
Vertices are 0..n-1; edges are stored as (u, v, sign) with u < v, sorted
lexicographically, so equal graphs compare and hash equal. All operations
are pure: they return new graphs and never mutate their arguments.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import BudgetExceededError, SignedChromError

Edge = tuple[int, int, int]

# Largest vertex count a graph file or a complete graph may ask for.  Each
# route bounds its own work later (frontier-tally entries, K_n up to n = 10
# on the partition route, normal-form bits and representative edges,
# 12-vertex searches); this cap only keeps what is built before those checks
# small: K_256 has 32,640 edges.
MAX_VERTICES = 256


class SignedGraph:
    """Immutable signed graph on vertices 0..n-1.

    Equal to another `SignedGraph` with the same `n` and normalised `edges`,
    and hashed as the tuple `(n, edges)`.
    """

    __slots__ = ("n", "edges")

    def __new__(cls, n: int, edges: Iterable[Edge] = ()) -> "SignedGraph":
        if n < 0:
            raise SignedChromError("vertex count must be nonnegative")
        seen = set()
        norm = []
        for u, v, s in edges:
            if u == v:
                raise SignedChromError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < n):
                raise SignedChromError(f"edge ({u},{v}) outside 0..{n - 1}")
            if (u, v) in seen:
                raise SignedChromError(f"duplicate edge ({u},{v})")
            if s not in (1, -1):
                raise SignedChromError(f"sign {s!r} on edge ({u},{v})")
            seen.add((u, v))
            norm.append((u, v, s))
        norm.sort()
        return cls._trusted(n, tuple(norm))

    @classmethod
    def _trusted(cls, n: int, edges: tuple[Edge, ...]) -> "SignedGraph":
        """The graph of edges already normalised and checked, taken as is."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"SignedGraph(n={self.n!r}, edges={self.edges!r})"

    def __reduce__(self):
        return SignedGraph, (self.n, self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)


def _check_vertex(g: SignedGraph, v: int) -> None:
    if not (0 <= v < g.n):
        raise SignedChromError(f"vertex {v} outside 0..{g.n - 1}")


def switch(g: SignedGraph, X: Iterable[int]) -> SignedGraph:
    """Negate the sign of every edge with exactly one endpoint in X."""
    xs = set(X)
    for v in xs:
        _check_vertex(g, v)
    edges = tuple(
        (u, v, -s if (u in xs) != (v in xs) else s) for u, v, s in g.edges
    )
    return SignedGraph(g.n, edges)


def delete_vertex(g: SignedGraph, v: int) -> SignedGraph:
    """Remove v and its incident edges; higher vertices shift down by one."""
    if g.n == 0:
        raise SignedChromError("cannot delete from the vertexless graph")
    _check_vertex(g, v)
    edges = tuple(
        (u - (u > v), w - (w > v), s)
        for u, w, s in g.edges
        if v not in (u, w)
    )
    return SignedGraph(g.n - 1, edges)


def threshold_graph(code: Sequence[int]) -> SignedGraph:
    """Build the signed threshold graph of a code over {-1, 0, 1}.

    Starts from the single-vertex graph; each entry appends an isolated
    vertex (0), a positive dominating vertex (1), or a negative dominating
    vertex (-1).  Refuses codes of more than MAX_VERTICES - 1 entries first.
    """
    _check_vertex_count(len(code) + 1)
    edges = []
    for v, a in enumerate(code, 1):
        if a not in (-1, 0, 1):
            raise SignedChromError(f"code entry {a!r} not in {{-1, 0, 1}}")
        if a:
            edges.extend((u, v, a) for u in range(v))
    return SignedGraph(len(code) + 1, edges)


def all_positive(g: SignedGraph) -> SignedGraph:
    """Same underlying graph with every edge made positive."""
    return SignedGraph(g.n, tuple((u, v, 1) for u, v, _ in g.edges))


def _check_vertex_count(n: int) -> None:
    """Refuse a vertex count above MAX_VERTICES before anything is built."""
    if n > MAX_VERTICES:
        raise BudgetExceededError(f"{n} vertices exceed the vertex cap of {MAX_VERTICES}")


def complete_graph(n: int, sign: int) -> SignedGraph:
    if sign not in (1, -1):
        raise SignedChromError(f"sign must be +1 or -1, got {sign!r}")
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
                raise SignedChromError(f"bad fixture name {name!r}") from None
            if n < 0:
                raise SignedChromError(f"bad fixture name {name!r}")
            return complete_graph(n, sign)
    raise SignedChromError(f"unknown fixture {name!r}")


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
                raise SignedChromError(f"line {lineno}: duplicate n line")
            if len(parts) != 2:
                raise SignedChromError(f"line {lineno}: expected 'n <count>'")
            try:
                n = int(parts[1])
            except ValueError:
                raise SignedChromError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n < 0:
                raise SignedChromError(f"line {lineno}: negative vertex count")
            _check_vertex_count(n)
        elif parts[0] == "e":
            if n is None:
                raise SignedChromError(f"line {lineno}: edge before n line")
            if len(parts) != 4:
                raise SignedChromError(f"line {lineno}: expected 'e <u> <v> <+|->'")
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise SignedChromError(f"line {lineno}: bad vertex index") from None
            if parts[3] == "+":
                s = 1
            elif parts[3] == "-":
                s = -1
            else:
                raise SignedChromError(f"line {lineno}: sign must be + or -, got {parts[3]!r}")
            edges.append((u, v, s))
        else:
            raise SignedChromError(f"line {lineno}: unknown directive {parts[0]!r}")
    if n is None:
        raise SignedChromError("missing n line")
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
