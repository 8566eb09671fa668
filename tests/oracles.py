"""Reference routes and helpers the tests check production against, none
of which production calls.

- A plain isomorphism search, and the non-switching-isomorphism certificate
  as a switch-and-search loop over it.
- The (lambda, mu)-colour set and a brute-force count of proper colourings
  from it, which `chrom --lambda` reads off the computed pair instead.
- The chromatic pair rebuilt by Lagrange interpolation through brute-force
  colouring counts.
- Graph helpers: relabelling, component statistics and balance, the
  positive part, induced subgraphs, edge contraction for
  deletion-contraction, joins, gluings at one vertex and the explicit
  join-family graphs.
- The canonical form of a frontier-tally state, computed from scratch.
- Each vertex's role in the dominating-vertex deletion formulae.
- Polynomial evaluation and the diagonal p(x, x), read from `items()`.
- Published counts no command checks: switching classes of signed K_n, and
  the co-chromatic groups of signed K_8.
"""

import itertools
from fractions import Fraction
from typing import NamedTuple

from signedchrom.equivalence import free_switching_vertices
from signedchrom.errors import SignedChromError
from signedchrom.graphs import SignedGraph, complete_graph, switch
from signedchrom.poly import BiPoly, ChromaticPair


def isomorphisms(g1, g2):
    """Yield every perm with relabel(g1, perm) == g2: g1's vertices are
    mapped in index order, each to any unused vertex whose edge signs to the
    images of the vertices before it match, with no other pruning."""
    if (g1.n, g1.m) != (g2.n, g2.m):
        return
    sign1, sign2 = {}, {}
    for g, sign in ((g1, sign1), (g2, sign2)):
        for u, v, s in g.edges:
            sign[u, v] = sign[v, u] = s

    def extend(image):
        v = len(image)
        if v == g1.n:
            yield tuple(image)
            return
        for w in range(g1.n):
            if w not in image and all(
                sign1.get((v, p), 0) == sign2.get((w, image[p]), 0) for p in range(v)
            ):
                yield from extend(image + [w])

    yield from extend([])


def oracle_certificate(g1, g2):
    """A plain isomorphism search from g1 to switch(g2, X) for every subset X
    of g2's free vertices, in binary order; on success switchings_tried
    counts the switchings tried up to the witness."""
    free = free_switching_vertices(g2)
    for bits in range(1 << len(free)):
        X = [v for i, v in enumerate(free) if bits >> i & 1]
        perm = next(isomorphisms(g1, switch(g2, X)), None)
        if perm is not None:
            return {
                "switchings_tried": bits + 1,
                "isomorphism_found": True,
                "witness": {"X": X, "perm": list(perm)},
            }
    return {"switchings_tried": 1 << len(free), "isomorphism_found": False}


def colour_set(lam, mu):
    """A (lam, mu)-colour set of lam colours, sorted: the paired colours
    +-1..+-h with h = (lam - mu) // 2, closed under negation; the mu unpaired
    colours lam + 1..lam + mu, none of whose negatives is present; and 0
    exactly when lam - mu is odd."""
    if mu < 0 or lam < mu:
        raise SignedChromError(f"need lam >= mu >= 0, got ({lam}, {mu})")
    half = (lam - mu) // 2
    zero = (0,) if (lam - mu) % 2 else ()
    return (*range(-half, 0), *zero, *range(1, half + 1), *range(lam + 1, lam + mu + 1))


def count_colourings_oracle(g, lam, mu=0):
    """Count proper colourings from the (lam, mu)-colour set by enumerating
    every function V -> C: a function is proper when kappa(u) != sign *
    kappa(v) on every edge.  Deliberately naive; this is the ground truth
    for the polynomials, so keep lam^n small."""
    count = 0
    for kappa in itertools.product(colour_set(lam, mu), repeat=g.n):
        for u, v, s in g.edges:
            if kappa[u] == s * kappa[v]:
                break
        else:
            count += 1
    return count


def lagrange_integer(xs, ys):
    """Exact Lagrange interpolation; the result must have integer coefficients."""
    k = len(xs)
    acc = [Fraction(0)] * k
    for i in range(k):
        num = [Fraction(1)]
        denom = 1
        for j in range(k):
            if j == i:
                continue
            nxt = [Fraction(0)] * (len(num) + 1)
            for t, c in enumerate(num):
                nxt[t + 1] += c
                nxt[t] -= xs[j] * c
            num = nxt
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i], denom)
        for t, c in enumerate(num):
            acc[t] += scale * c
    for c in acc:
        if c.denominator != 1:
            raise SignedChromError(f"coefficient {c} is not an integer")
    return BiPoly(((t, 0), int(c)) for t, c in enumerate(acc))


def interpolated_pair(g):
    """Rebuild the chromatic pair from oracle counts alone.

    Interpolates through lam = 0, 2, ..., 2n for the even constituent and
    lam = 1, 3, ..., 2n+1 for the odd one; both polynomials have degree n,
    so n+1 points of matching parity pin them down.
    """
    even_xs = [2 * i for i in range(g.n + 1)]
    odd_xs = [2 * i + 1 for i in range(g.n + 1)]
    even_ys = [count_colourings_oracle(g, lam) for lam in even_xs]
    odd_ys = [count_colourings_oracle(g, lam) for lam in odd_xs]
    return ChromaticPair(lagrange_integer(even_xs, even_ys), lagrange_integer(odd_xs, odd_ys))


# -- graph helpers ------------------------------------------------------------


def relabel(g, perm):
    """Apply a vertex permutation: vertex v becomes perm[v]."""
    if len(perm) != g.n or sorted(perm) != list(range(g.n)):
        raise SignedChromError("perm must be a permutation of 0..n-1")
    return SignedGraph(g.n, tuple((perm[u], perm[v], s) for u, v, s in g.edges))


class ComponentStats(NamedTuple):
    """Connected components: total, balanced, and all-positive counts."""

    c: int
    b: int
    p: int


def component_stats(g):
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


def is_balanced(g):
    """True iff no component contains a negative cycle."""
    stats = component_stats(g)
    return stats.b == stats.c


def positive_part(g):
    """Same vertices, only the positive edges."""
    return SignedGraph(g.n, tuple(e for e in g.edges if e[2] > 0))


def induced(g, vertices):
    """The subgraph of g induced on `vertices`, renumbered in increasing order."""
    keep = sorted(vertices)
    index = {v: i for i, v in enumerate(keep)}
    return SignedGraph(len(keep), tuple(
        (index[u], index[v], s) for u, v, s in g.edges if u in index and v in index
    ))


def contract(g, e):
    """g with the positive edge e = (u, v, 1), u < v, contracted: v merges
    into u, its edges keep their signs, and the vertices above v shift down
    by one.  A common neighbour of the ends must be joined to both by edges
    of one sign; the two become one edge, which forbids the same colours."""
    u, v, s = e
    if s != 1 or e not in g.edges:
        raise SignedChromError(f"{e} is not a positive edge of the graph")
    near = [{b if a == x else a: t for a, b, t in g.edges if x in (a, b)} for x in (u, v)]
    if any(near[0][w] != near[1][w] for w in near[0].keys() & near[1].keys()):
        raise SignedChromError(f"a common neighbour of the ends of {e} is joined to them by two signs")

    def image(x):
        return u if x == v else x - (x > v)

    edges = {tuple(sorted((image(a), image(b)))): t for a, b, t in g.edges if (a, b) != (u, v)}
    return SignedGraph(g.n - 1, tuple((a, b, t) for (a, b), t in edges.items()))


def join(g1, g2, join_sign):
    """Disjoint union plus all edges of join_sign between the two parts.

    Joining with the vertexless graph returns the other argument unchanged.
    """
    if join_sign not in (1, -1):
        raise SignedChromError(f"join sign must be +1 or -1, got {join_sign!r}")
    if g1.n == 0:
        return g2
    if g2.n == 0:
        return g1
    k = g1.n
    edges = list(g1.edges)
    edges.extend((u + k, v + k, s) for u, v, s in g2.edges)
    edges.extend((u, v + k, join_sign) for u in range(g1.n) for v in range(g2.n))
    return SignedGraph(g1.n + g2.n, tuple(edges))


def glue(g1, g2, v1, v2):
    """g1 and g2 glued at one vertex: vertex v2 of g2 becomes vertex v1 of
    g1, and g2's other vertices follow g1's in order, so v1 is a cut vertex
    whenever both parts have another vertex."""
    def image(x):
        return v1 if x == v2 else g1.n + x - (x > v2)

    return SignedGraph(g1.n + g2.n - 1, g1.edges + tuple(
        (image(a), image(b), s) for a, b, s in g2.edges
    ))


def join_family_graph(family, l, m, n):
    """The explicit signed graph whose pair `closedform.join_pair` computes:
    the three signed complete graphs of the family joined as listed in the
    `closedform` docstring."""
    # the signs of K_l, K_m and K_n, then of the edges joining K_l to K_m
    signs = {1: (-1, 1, -1, 1), 2: (-1, -1, -1, 1), 3: (1, 1, 1, -1), 4: (1, 1, -1, -1)}
    sl, sm, sn, inner = signs[family]
    return join(join(complete_graph(l, sl), complete_graph(m, sm), inner),
                complete_graph(n, sn), 1)


# -- vertex roles in the deletion formulae ------------------------------------

ISOLATED = "isolated"
POSITIVE_DOMINATING = "positive_dominating"
NEGATIVE_DOMINATING = "negative_dominating"
PLAIN = "plain"
UNIVERSAL_K1 = "universal_K1"


def vertex_role(g, v):
    """Classify v as isolated / positive or negative dominating / plain; the
    vertex of K_1 is universal_K1."""
    if not 0 <= v < g.n:
        raise SignedChromError(f"vertex {v} outside 0..{g.n - 1}")
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


# -- frontier-tally states ----------------------------------------------------


def canonical_state(state):
    """The canonical form of a frontier-tally state, rebuilt from scratch.

    A state is bytes: the frontier width w in two bytes, then per frontier
    vertex its component label, then per frontier vertex its sign parity,
    then per component a flags byte (bit 0 unbalanced), then u.  The
    canonical form renumbers the components by first occurrence (their flags
    follow them), takes each parity relative to the first vertex of its
    component, and zeroes the parities of unbalanced components."""
    w = state[0] << 8 | state[1]
    labs, pars, flags = state[2:w + 2], state[w + 2:2 * w + 2], state[2 * w + 2:-1]
    number, root = {}, {}
    for lab, par in zip(labs, pars):
        if lab not in number:
            number[lab], root[lab] = len(number), par
    pars = bytes(0 if flags[lab] & 1 else par ^ root[lab] for lab, par in zip(labs, pars))
    labs = bytes(number[lab] for lab in labs)
    return b"".join((state[:2], labs, pars, bytes(flags[lab] for lab in number), state[-1:]))


# -- polynomial evaluation ----------------------------------------------------


def evaluate(p, x0, y0):
    """p(x0, y0)."""
    return sum(c * x0**i * y0**j for (i, j), c in p.items())


def diagonal(p):
    """p(x, x): substitute y = x."""
    return BiPoly(((i + j, 0), c) for (i, j), c in p.items())


# Switching classes of signed complete graphs are switching classes of graphs
# on n vertices, equal in number to two-graphs and to Euler graphs
# (Mallows-Sloane 1975, OEIS A002854), indexed by n.
SWITCHING_CLASS_COUNTS = (1, 1, 1, 2, 3, 7, 16, 54)

# The co-chromatic groups of signed K_8: switching classes that share one
# chromatic pair, by representative mask (bit i set: edge i of K_8 in
# lexicographic order is negative).  243 classes give 228 distinct pairs, so
# K_8 is the smallest complete graph whose pair does not separate switching
# classes; the bivariate pair separates all of these groups.
K8_COCHROMATIC_GROUPS = (
    (9110, 9115), (9114, 9770), (9118, 9768), (9759, 25375), (25885, 25896),
    (25892, 25899), (25897, 26012), (287903, 304799), (287907, 287911, 288154),
    (288174, 305064), (296864, 297772), (305068, 837546), (305712, 305843),
    (322353, 846386),
)
