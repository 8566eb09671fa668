"""Isomorphism and switching-isomorphism of signed graphs, and signature orbits.

Isomorphism, automorphisms and switching isomorphism are decided by one
backtracking search over sign matrices, `_search`; plain isomorphism is the
case in which no vertex is switched.  Decision procedures return explicit
witnesses (a vertex permutation, plus a switching set where applicable) so a
result of "equivalent" can be re-checked independently; when there is none,
a certificate records the number of switchings the failed search ruled out.
Signature classes over a fixed underlying graph are enumerated on switching
normal forms: each sign pattern is reduced to the smallest pattern of its
switching coset, which leaves 2^(|E|-n+c) patterns for c components, and
those are grouped into orbits of the underlying graph's automorphism group.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BudgetExceededError
from .graphs import SignedGraph, all_positive

MAX_SEARCH_VERTICES = 12   # vertices of an isomorphism or switching search
MAX_NORMAL_FORM_BITS = 21  # log2 of the normal forms a class enumeration walks
MAX_CLASS_EDGES = 1 << 21  # signed edges held by the class representatives


def _matrix(g: SignedGraph) -> list[list[int]]:
    """The n x n matrix of edge signs, 0 where there is no edge."""
    adj = [[0] * g.n for _ in range(g.n)]
    for u, v, s in g.edges:
        adj[u][v] = s
        adj[v][u] = s
    return adj


def _labels(g: SignedGraph, switching: bool) -> list[tuple[int, ...]]:
    """(degree, negative triangles through the vertex) per vertex, then its
    negative degree unless `switching`.  A triangle's sign survives
    switching, so switching and relabelling only permute the first two, and
    relabelling only permutes all three.  Triangle u v w is negative when
    w's edges to u and v differ in sign and uv is positive, or agree and uv
    is negative; it lies on two edges at each of its vertices."""
    pos, neg = [0] * g.n, [0] * g.n
    for u, v, s in g.edges:
        masks = pos if s > 0 else neg
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    twice = [0] * g.n
    for u, v, s in g.edges:
        if s > 0:
            k = (pos[u] & neg[v] | neg[u] & pos[v]).bit_count()
        else:
            k = (pos[u] & pos[v] | neg[u] & neg[v]).bit_count()
        twice[u] += k
        twice[v] += k
    return [
        ((pos[v] | neg[v]).bit_count(), twice[v] // 2)
        + (() if switching else (neg[v].bit_count(),))
        for v in range(g.n)
    ]


def _order(
    adj: list[list[int]], lab: list[tuple[int, ...]], k: int
) -> tuple[list[int], list[int]]:
    """The order in which a search places the vertices of the graph with
    matrix `adj`, and each vertex's parent.  Vertices 0..k-1 come first,
    and the rest by maximum cardinality search (most placed neighbours
    first, then highest degree, then lowest index), so each placement closes
    as many cycles as it can.  A vertex's parent is its first placed
    neighbour, -1 for a vertex placed before all of its neighbours."""
    n = len(adj)
    order: list[int] = []
    parent = [-1] * n
    # the order's key (placed neighbours, degree, -index) as one int,
    # placed neighbours * n^2 + degree * n + n - 1 - index; -1 once placed
    rank = [lab[u][0] * n + n - 1 - u for u in range(n)]
    for step in range(n):
        v = step if step < k else max(range(n), key=rank.__getitem__)
        order.append(v)
        rank[v] = -1
        for u, sign in enumerate(adj[v]):
            if sign and rank[u] >= 0:
                rank[u] += n * n
                if parent[u] < 0:
                    parent[u] = v
    return order, parent


def _search(
    adj1: list[list[int]],
    lab1: list[tuple[int, ...]],
    adj2: list[list[int]],
    lab2: list[tuple[int, ...]],
    switching: bool,
    order: tuple[list[int], list[int]],
    find_all: bool = False,
    fixed: tuple[tuple[int, int], ...] = (),
) -> list[tuple[frozenset[int], tuple[int, ...]]]:
    """Backtracking over vertex maps, pruned by labels: v may map only to a
    vertex with its label.

    Returns the pairs (X, image) with adj1[v][u] == adj2[image[v]][image[u]]
    * f(image[v]) * f(image[u]) for all v, u, where f is -1 on X and 1 off
    it (all of them, or the first one unless `find_all`).  X is empty unless
    `switching`.  Vertices are placed in the order, with the parents, that
    `order` gives, which is `_order` of graph 1.  `fixed` is a sequence of
    pairs (v, w) that force image[v] = w, for the vertices `order` places
    first.  A vertex with a parent must map to a neighbour of its parent's
    image, and the sign of the edge to it forces the vertex's switch bit;
    any other vertex gets bit 0, since switching a whole component changes
    nothing.  A failed switching search has ruled out every switching of
    graph 2 under every relabelling.  The matrices are only read.
    """
    n = len(adj1)
    forced = dict(fixed)
    order, parent = order
    found: list[tuple[frozenset[int], tuple[int, ...]]] = []
    image = [-1] * n
    used = [False] * n
    flip = [1] * n  # -1 where a vertex of graph 2 is switched

    def extend(step: int) -> bool:
        if step == n:
            found.append((frozenset(w for w in range(n) if flip[w] < 0), tuple(image)))
            return not find_all
        v = order[step]
        row1 = adj1[v]
        a = parent[v]
        for w in (forced[v],) if v in forced else range(n):
            if used[w] or lab1[v] != lab2[w]:
                continue
            row2 = adj2[w]
            s = 1
            if a >= 0:
                if not row2[image[a]]:
                    continue
                if switching:
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

    extend(0)
    return found


def _find(
    g1: SignedGraph, g2: SignedGraph, switching: bool
) -> tuple[frozenset[int], tuple[int, ...]] | None:
    """The first (X, perm) of a search between g1 and g2, or None; graphs
    that differ in size or in their sorted labels are not searched.  Refuses
    either graph past MAX_SEARCH_VERTICES, even when the sizes differ."""
    if max(g1.n, g2.n) > MAX_SEARCH_VERTICES:
        what = "switching-isomorphism" if switching else "isomorphism"
        raise BudgetExceededError(f"{what} search limited to {MAX_SEARCH_VERTICES} vertices")
    if g1.n != g2.n or g1.m != g2.m:
        return None
    lab1, lab2 = _labels(g1, switching), _labels(g2, switching)
    if sorted(lab1) != sorted(lab2):
        return None
    adj1 = _matrix(g1)
    found = _search(adj1, lab1, _matrix(g2), lab2, switching, _order(adj1, lab1, 0))
    return found[0] if found else None


def find_isomorphism(g1: SignedGraph, g2: SignedGraph) -> tuple[int, ...] | None:
    """A sign-preserving vertex bijection perm, taking each edge (u, v, s) of
    g1 to the edge (perm[u], perm[v], s) of g2, or None.  Graphs that differ
    in size or in their sorted `_labels` are not searched."""
    found = _find(g1, g2, False)
    return found[1] if found else None


def automorphisms(g: SignedGraph) -> list[tuple[int, ...]]:
    """All sign-preserving automorphisms of g."""
    adj, lab = _matrix(g), _labels(g, False)
    order = _order(adj, lab, 0)
    return [perm for _, perm in _search(adj, lab, adj, lab, False, order, find_all=True)]


def _orbit(point: int, gens: list[tuple[int, ...]]) -> set[int]:
    orbit = {point}
    stack = [point]
    while stack:
        x = stack.pop()
        for perm in gens:
            if perm[x] not in orbit:
                orbit.add(perm[x])
                stack.append(perm[x])
    return orbit


def generating_automorphisms(g: SignedGraph) -> list[tuple[int, ...]]:
    """A strong generating set for the automorphism group of g.

    Base points run from the last vertex down.  At point i every generator
    found so far fixes 0..i-1; for each vertex not yet in i's orbit under
    them, one first-hit search looks for an automorphism fixing 0..i-1 and
    mapping i there.  i's orbit then equals its orbit under the stabiliser
    of 0..i-1 in the whole group, so by induction from the last vertex the
    generators found at points >= i generate that stabiliser, and at i = 0
    the whole group.  That takes at most n^2 searches, not a walk over
    every element, and a target is searched only if it has i's label and
    i's edges to 0..i-1.  The searches at one point share one placement
    order, which starts with 0..i whatever the target.
    """
    adj, lab = _matrix(g), _labels(g, False)
    gens: list[tuple[int, ...]] = []
    for i in reversed(range(g.n)):
        orbit = {i}
        order = None
        for target in range(i + 1, g.n):
            if target in orbit or lab[target] != lab[i]:
                continue
            if adj[target][:i] != adj[i][:i]:
                continue
            if order is None:
                order = _order(adj, lab, i + 1)
            fixed = tuple((v, v) for v in range(i)) + ((i, target),)
            found = _search(adj, lab, adj, lab, False, order, fixed=fixed)
            if found:
                gens.append(found[0][1])
                orbit = _orbit(i, gens)
    return gens


def find_switching_isomorphism(
    g1: SignedGraph, g2: SignedGraph
) -> tuple[frozenset[int], tuple[int, ...]] | None:
    """A pair (X, perm) such that perm is a sign-preserving vertex bijection
    from g1 to switch(g2, X), or None.

    One `_search` with switching, pruned by the switching-invariant labels
    (degree, negative triangles through the vertex); graphs whose sorted
    labels differ are not searched.
    """
    return _find(g1, g2, True)


def _roots(g: SignedGraph) -> list[int]:
    """Each vertex's component representative; a representative is its own."""
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
    return [find(v) for v in range(g.n)]


def free_switching_vertices(g: SignedGraph) -> list[int]:
    """All vertices except one representative per connected component."""
    return [v for v, r in enumerate(_roots(g)) if r != v]


def non_switching_isomorphism_certificate(g1: SignedGraph, g2: SignedGraph) -> dict:
    """Whether some switching of g2 is isomorphic to g1, decided by one
    find_switching_isomorphism search.  On failure `switchings_tried` counts
    the 2^(n-c) switchings of g2 it ruled out, one per subset of
    free_switching_vertices(g2).  On success it is 1, the witness's
    switching, and perm maps g1 onto switch(g2, X) with X the search's
    switching complemented on each component whose representative it holds,
    so a sorted subset of the free vertices.
    """
    found = find_switching_isomorphism(g1, g2)
    if found is None:
        free = free_switching_vertices(g2)
        return {"switchings_tried": 1 << len(free), "isomorphism_found": False}
    X, perm = found
    root = _roots(g2)
    whole = {v for v in X if root[v] == v}
    return {
        "switchings_tried": 1,
        "isomorphism_found": True,
        "witness": {
            "X": [v for v in range(g2.n) if (v in X) != (root[v] in whole)],
            "perm": list(perm),
        },
    }


# -- signature orbits over a fixed underlying graph -----------------------------


class ClassInventory(NamedTuple):
    """Signature classes of one underlying graph under iso or switching-iso.

    Masks encode signatures: bit i set means edge i (in the graph's canonical
    lexicographic edge order) is negative.  Representatives are the minimal
    mask of each orbit, listed in increasing order.

    Each mask reduces to a normal form; `normal_index[i]` is the index of
    the normal form of the mask with only bit i set, and reduction is
    linear, so a mask's index is the XOR of its bits' entries.
    `class_of_index` gives the class of every normal form.
    """

    underlying: SignedGraph
    mode: str
    representative_masks: tuple[int, ...]
    representatives: tuple[SignedGraph, ...]
    orbit_sizes: tuple[int, ...]
    normal_index: tuple[int, ...]
    class_of_index: tuple[int, ...]

    def __repr__(self) -> str:
        # The two index tables are left out: K_7's class_of_index has 2^21 entries.
        return (f"ClassInventory(underlying={self.underlying!r}, mode={self.mode!r},"
                f" representative_masks={self.representative_masks!r},"
                f" representatives={self.representatives!r},"
                f" orbit_sizes={self.orbit_sizes!r})")

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    def classify(self, mask: int) -> int:
        """The class index of a signature mask."""
        if not 0 <= mask < 1 << self.underlying.m:
            raise ValueError(f"mask {mask} out of range for {self.underlying.m} edges")
        index = 0
        for i, column in enumerate(self.normal_index):
            if mask >> i & 1:
                index ^= column
        return self.class_of_index[index]


def graph_from_mask(underlying: SignedGraph, mask: int) -> SignedGraph:
    edges = tuple(
        (u, v, -1 if mask >> i & 1 else 1)
        for i, (u, v, _) in enumerate(underlying.edges)
    )
    return SignedGraph._trusted(underlying.n, edges)  # the underlying's checked edges


MODE_ISO = "iso"
MODE_SWITCHING_ISO = "switching_iso"


def _cut_basis(g: SignedGraph) -> dict[int, int]:
    """Fully reduced basis of the cut space (edge masks of the switchings).

    One star vector per vertex, keyed by its pivot, the highest set bit; no
    vector has another's pivot set.  The pivot edges form a spanning forest.
    """
    basis: dict[int, int] = {}
    stars = [0] * g.n
    for i, (u, v, _) in enumerate(g.edges):
        stars[u] |= 1 << i
        stars[v] |= 1 << i
    for vec in stars:
        for p, b in basis.items():
            if vec >> p & 1:
                vec ^= b
        if vec:
            p = vec.bit_length() - 1
            for q, b in basis.items():
                if b >> p & 1:
                    basis[q] = b ^ vec
            basis[p] = vec
    return basis


def _span_table(columns: list[int]) -> list[int]:
    """table[x] = XOR of columns[j] over the set bits j of x."""
    table = [0]
    for c in columns:
        table += [x ^ c for x in table]
    return table


def enumerate_classes(underlying: SignedGraph, mode: str) -> ClassInventory:
    """Partition all 2^|E| signatures of the underlying graph into classes.

    mode "iso" unites signatures under underlying-graph automorphisms only;
    "switching_iso" also under switchings.  In switching mode, XOR-ing a
    mask with the cut-basis vectors whose pivots it has set gives the
    smallest mask of its switching coset, its normal form: the normal forms
    are the 2^(m-n+c) masks that are zero on the pivot edges, each standing
    for 2^(n-c) masks.  Iso mode has an empty basis, so every mask is its
    own normal form.  Automorphisms act linearly on normal forms; each
    orbit is walked from its smallest normal form, which is the smallest
    mask of the class.  Refuses more than MAX_NORMAL_FORM_BITS normal-form
    bits, m - n + c in switching mode and m in iso mode (K_8: 21 and 28),
    and classes whose representatives would hold more than MAX_CLASS_EDGES
    edges.
    """
    if mode not in (MODE_ISO, MODE_SWITCHING_ISO):
        raise ValueError(f"mode must be 'iso' or 'switching_iso', got {mode!r}")
    base = all_positive(underlying)
    m = base.m
    basis = _cut_basis(base) if mode == MODE_SWITCHING_ISO else {}
    # bit j of a normal form's index is its bit free[j]
    free = [i for i in range(m) if i not in basis]
    k = len(free)
    if k > MAX_NORMAL_FORM_BITS:
        raise BudgetExceededError(
            f"{k} normal-form bits exceed the enumeration budget of {MAX_NORMAL_FORM_BITS}"
        )
    edge_index = {(u, v): i for i, (u, v, _) in enumerate(base.edges)}
    index_bit = {b: 1 << j for j, b in enumerate(free)}
    # a pivot bit reduces to the rest of its basis vector, which has no other pivot bit
    normal_index = [
        sum(bit for b, bit in index_bit.items() if basis.get(i, 1 << i) >> b & 1)
        for i in range(m)
    ]

    # each automorphism as a linear map on indices, looked up in two halves
    half = k // 2
    maps: list[tuple[list[int], list[int]]] = []
    for perm in generating_automorphisms(base):
        columns = []
        for i in free:
            x, y = sorted((perm[base.edges[i][0]], perm[base.edges[i][1]]))
            columns.append(normal_index[edge_index[(x, y)]])
        if columns != [1 << j for j in range(k)]:
            maps.append((_span_table(columns[:half]), _span_table(columns[half:])))

    low = (1 << half) - 1
    class_of = [-1] * (1 << k)
    reps: list[int] = []
    sizes: list[int] = []
    for start in range(1 << k):
        if class_of[start] >= 0:
            continue
        cls = len(reps)
        if (cls + 1) * m > MAX_CLASS_EDGES:
            raise BudgetExceededError(
                f"more than {cls} classes of {m} edges exceed the budget"
                f" of {MAX_CLASS_EDGES} edges"
            )
        class_of[start] = cls
        stack = [start]
        count = 0
        while stack:
            x = stack.pop()
            count += 1
            for lo_table, hi_table in maps:
                y = lo_table[x & low] ^ hi_table[x >> half]
                if class_of[y] < 0:
                    class_of[y] = cls
                    stack.append(y)
        reps.append(sum(1 << free[j] for j in range(k) if start >> j & 1))
        sizes.append(count << len(basis))
    return ClassInventory(
        underlying=base,
        mode=mode,
        representative_masks=tuple(reps),
        representatives=tuple(graph_from_mask(base, r) for r in reps),
        orbit_sizes=tuple(sizes),
        normal_index=tuple(normal_index),
        class_of_index=tuple(class_of),
    )
