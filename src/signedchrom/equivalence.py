"""Isomorphism and switching-isomorphism of signed graphs, and signature orbits.

Decision procedures return explicit witnesses (a vertex permutation, plus a
switching set where applicable) so a result of "equivalent" can be re-checked
independently.  Signature classes over a fixed underlying graph are
enumerated by a union-find over all 2^|E| sign patterns, united under
single-vertex switchings and underlying-graph automorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import BudgetExceededError
from .graphs import SignedGraph, all_positive

DEFAULT_VERTEX_BUDGET = 12
DEFAULT_ORBIT_EDGE_BUDGET = 21


def _adjacency(g: SignedGraph) -> list[list[int]]:
    """n x n matrix of edge signs, 0 where there is no edge."""
    adj = [[0] * g.n for _ in range(g.n)]
    for u, v, s in g.edges:
        adj[u][v] = s
        adj[v][u] = s
    return adj


def _profiles(g: SignedGraph) -> list[tuple[int, int, int]]:
    """(degree, positive degree, negative degree) per vertex."""
    pos = [0] * g.n
    neg = [0] * g.n
    for u, v, s in g.edges:
        if s > 0:
            pos[u] += 1
            pos[v] += 1
        else:
            neg[u] += 1
            neg[v] += 1
    return [(pos[v] + neg[v], pos[v], neg[v]) for v in range(g.n)]


def _search_isomorphisms(g1: SignedGraph, g2: SignedGraph, find_all: bool):
    """Backtracking over vertex maps pruned by sign-degree profiles."""
    n = g1.n
    if n != g2.n or g1.m != g2.m:
        return []
    prof1 = _profiles(g1)
    prof2 = _profiles(g2)
    if sorted(prof1) != sorted(prof2):
        return []
    adj1 = _adjacency(g1)
    adj2 = _adjacency(g2)
    # place high-degree vertices first; ties broken by index for determinism
    order = sorted(range(n), key=lambda v: (-prof1[v][0], v))
    found: list[tuple[int, ...]] = []
    image = [-1] * n
    used = [False] * n

    def extend(step: int) -> bool:
        if step == n:
            perm = tuple(image)
            found.append(perm)
            return not find_all
        v = order[step]
        row1 = adj1[v]
        for w in range(n):
            if used[w] or prof1[v] != prof2[w]:
                continue
            row2 = adj2[w]
            ok = True
            for prev in order[:step]:
                if row1[prev] != row2[image[prev]]:
                    ok = False
                    break
            if ok:
                image[v] = w
                used[w] = True
                if extend(step + 1):
                    return True
                used[w] = False
                image[v] = -1
        return False

    extend(0)
    return found


def find_isomorphism(
    g1: SignedGraph, g2: SignedGraph, *, max_vertices: int = DEFAULT_VERTEX_BUDGET
) -> tuple[int, ...] | None:
    """A sign-preserving vertex bijection with relabel(g1, perm) == g2, or None."""
    if max(g1.n, g2.n) > max_vertices:
        raise BudgetExceededError(
            f"isomorphism search limited to {max_vertices} vertices"
        )
    maps = _search_isomorphisms(g1, g2, find_all=False)
    return maps[0] if maps else None


def are_isomorphic(g1: SignedGraph, g2: SignedGraph, **kw) -> bool:
    return find_isomorphism(g1, g2, **kw) is not None


def automorphisms(g: SignedGraph) -> list[tuple[int, ...]]:
    """All sign-preserving automorphisms of g."""
    return _search_isomorphisms(g, g, find_all=True)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[v]] for v in range(len(p)))


def generating_automorphisms(g: SignedGraph) -> list[tuple[int, ...]]:
    """A small generating set for the automorphism group of g."""
    identity = tuple(range(g.n))
    group = {identity}
    gens: list[tuple[int, ...]] = []
    for perm in automorphisms(g):
        if perm in group:
            continue
        gens.append(perm)
        frontier = list(group)
        while frontier:
            a = frontier.pop()
            for b in gens:
                for c in (_compose(a, b), _compose(b, a)):
                    if c not in group:
                        group.add(c)
                        frontier.append(c)
    return gens


def find_switching_isomorphism(
    g1: SignedGraph, g2: SignedGraph
) -> tuple[frozenset[int], tuple[int, ...]] | None:
    """A pair (X, perm) with relabel(g1, perm) == switch(g2, X), or None.

    One backtracking search over vertex maps.  g1's vertices are placed in
    BFS order per component.  A component's first vertex gets switch bit 0
    (switching a whole component changes nothing); every later vertex has a
    placed BFS parent, so the sign of the edge to it forces the bit.
    """
    if max(g1.n, g2.n) > DEFAULT_VERTEX_BUDGET:
        raise BudgetExceededError(
            f"switching-isomorphism search limited to {DEFAULT_VERTEX_BUDGET} vertices"
        )
    n = g1.n
    if n != g2.n or g1.m != g2.m:
        return None
    adj1 = _adjacency(g1)
    adj2 = _adjacency(g2)
    deg1 = [sum(map(abs, row)) for row in adj1]
    deg2 = [sum(map(abs, row)) for row in adj2]
    if sorted(deg1) != sorted(deg2):
        return None
    order: list[int] = []
    parent = [-1] * n
    for root in range(n):
        if root in order:
            continue
        i = len(order)
        order.append(root)
        while i < len(order):
            v = order[i]
            i += 1
            for u in range(n):
                if adj1[v][u] and u not in order:
                    parent[u] = v
                    order.append(u)
    image = [-1] * n
    used = [False] * n
    flip = [1] * n  # -1 where a vertex of g2 is switched

    def extend(step: int) -> bool:
        if step == n:
            return True
        v = order[step]
        row1 = adj1[v]
        a = parent[v]
        for w in range(n):
            if used[w] or deg1[v] != deg2[w]:
                continue
            row2 = adj2[w]
            s = 1
            if a >= 0:
                if not row2[image[a]]:
                    continue
                s = row1[a] * row2[image[a]] * flip[image[a]]
            for p in order[:step]:
                if row1[p] != s * row2[image[p]] * flip[image[p]]:
                    break
            else:
                image[v] = w
                used[w] = True
                flip[w] = s
                if extend(step + 1):
                    return True
                used[w] = False
        return False

    if not extend(0):
        return None
    return frozenset(w for w in range(n) if flip[w] < 0), tuple(image)


def free_switching_vertices(g: SignedGraph) -> list[int]:
    """All vertices except one representative per connected component."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v, _ in g.edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = {find(v) for v in range(g.n)}
    return [v for v in range(g.n) if v not in roots]


def are_switching_isomorphic(g1: SignedGraph, g2: SignedGraph) -> bool:
    return find_switching_isomorphism(g1, g2) is not None


# -- signature orbits over a fixed underlying graph -----------------------------


@dataclass(frozen=True)
class ClassInventory:
    """Signature classes of one underlying graph under iso or switching-iso.

    Masks encode signatures: bit i set means edge i (in the graph's canonical
    lexicographic edge order) is negative.  Representatives are the minimal
    mask of each orbit, listed in increasing order.
    """

    underlying: SignedGraph
    mode: str
    representative_masks: tuple[int, ...]
    representatives: tuple[SignedGraph, ...]
    orbit_sizes: tuple[int, ...]
    mask_to_class: tuple[int, ...]

    @property
    def class_count(self) -> int:
        return len(self.representatives)


def graph_from_mask(underlying: SignedGraph, mask: int) -> SignedGraph:
    edges = tuple(
        (u, v, -1 if mask >> i & 1 else 1)
        for i, (u, v, _) in enumerate(underlying.edges)
    )
    return SignedGraph(underlying.n, edges)


MODE_ISO = "iso"
MODE_SWITCHING_ISO = "switching_iso"


def enumerate_classes(
    underlying: SignedGraph,
    mode: str,
    *,
    max_edges: int = DEFAULT_ORBIT_EDGE_BUDGET,
) -> ClassInventory:
    """Partition all 2^|E| signatures of the underlying graph into classes.

    mode "iso" unites signatures under underlying-graph automorphisms only;
    "switching_iso" adds single-vertex switchings as generators.
    """
    if mode not in (MODE_ISO, MODE_SWITCHING_ISO):
        raise ValueError(f"mode must be 'iso' or 'switching_iso', got {mode!r}")
    base = all_positive(underlying)
    m = base.m
    if m > max_edges:
        raise BudgetExceededError(f"{m} edges exceed the orbit budget of {max_edges}")
    edge_index = {(u, v): i for i, (u, v, _) in enumerate(base.edges)}

    switch_masks: list[int] = []
    if mode == MODE_SWITCHING_ISO:
        for v in range(base.n):
            sm = 0
            for (a, b), i in edge_index.items():
                if v in (a, b):
                    sm |= 1 << i
            if sm:
                switch_masks.append(sm)

    perm_tables: list[list[int]] = []
    for perm in generating_automorphisms(base):
        table = [0] * m
        for (a, b), i in edge_index.items():
            x, y = perm[a], perm[b]
            if x > y:
                x, y = y, x
            table[i] = edge_index[(x, y)]
        if table != list(range(m)):
            perm_tables.append(table)

    size = 1 << m
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            if ra < rb:
                parent[rb] = ra
            else:
                parent[ra] = rb

    for mask in range(size):
        for sm in switch_masks:
            union(mask, mask ^ sm)
        for table in perm_tables:
            img = 0
            mm = mask
            while mm:
                low = mm & -mm
                mm ^= low
                img |= 1 << table[low.bit_length() - 1]
            union(mask, img)

    rep_of_root: dict[int, int] = {}
    reps: list[int] = []
    sizes: list[int] = []
    mask_to_class = [0] * size
    for mask in range(size):
        root = find(mask)
        cls = rep_of_root.get(root)
        if cls is None:
            cls = len(reps)
            rep_of_root[root] = cls
            reps.append(mask)  # ascending scan makes this the minimal mask
            sizes.append(0)
        sizes[cls] += 1
        mask_to_class[mask] = cls
    return ClassInventory(
        underlying=base,
        mode=mode,
        representative_masks=tuple(reps),
        representatives=tuple(graph_from_mask(base, r) for r in reps),
        orbit_sizes=tuple(sizes),
        mask_to_class=tuple(mask_to_class),
    )

