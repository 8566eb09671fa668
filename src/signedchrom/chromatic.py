"""Colouring counts and chromatic polynomial pairs of signed graphs.

`chromatic_pair` and `bivariate_pair` check the edge budget and then pick
the route: signed complete graphs take the negative-clique partition route,
every other graph the edge-subset expansion, which sums a signed term over
all spanning subgraphs classified by their component statistics.

A brute-force counting oracle over an explicit colour set, and exact
Lagrange interpolation through oracle values, cross-check both routes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import (
    BadCodeError,
    BadRangeError,
    BudgetExceededError,
    NonIntegralCoefficientError,
)
from .graphs import SignedGraph, all_positive
from .poly import BiPoly, BivariatePair, ChromaticPair, UniPoly

DEFAULT_SUBSET_BUDGET = 24      # max |E| for any pair
DEFAULT_ORACLE_BUDGET = 10**8   # max |C|^n for brute-force counting


@dataclass(frozen=True)
class ColourSpec:
    """A concrete colour set: paired colours, unpaired colours and maybe 0.

    `paired` is closed under negation, `unpaired` avoids its own negatives,
    and zero is present exactly when lam - mu is odd, so the three parts
    always add up to lam colours (see `make_colour_spec`).
    """

    paired: frozenset[int]
    unpaired: frozenset[int]
    includes_zero: bool

    def colours(self) -> tuple[int, ...]:
        cs = set(self.paired) | set(self.unpaired)
        if self.includes_zero:
            cs.add(0)
        return tuple(sorted(cs))


def make_colour_spec(lam: int, mu: int) -> ColourSpec:
    """Realize a (lam, mu)-colour set: paired = {+-1..+-h}, unpaired above lam."""
    if mu < 0 or lam < mu:
        raise BadRangeError(f"need lam >= mu >= 0, got ({lam}, {mu})")
    half = (lam - mu) // 2
    paired = frozenset(i for i in range(1, half + 1)) | frozenset(
        -i for i in range(1, half + 1)
    )
    unpaired = frozenset(range(lam + 1, lam + mu + 1))
    return ColourSpec(paired, unpaired, (lam - mu) % 2 == 1)


def count_colourings_oracle(
    g: SignedGraph, spec: ColourSpec, *, budget: int = DEFAULT_ORACLE_BUDGET
) -> int:
    """Count proper colourings by enumerating every function V -> C.

    A function is proper when kappa(u) != sign * kappa(v) on every edge.
    Deliberately naive; this is the ground truth the polynomials are tested
    against.
    """
    colours = spec.colours()
    if len(colours) ** g.n > budget:
        raise BudgetExceededError(
            f"{len(colours)}^{g.n} colour functions exceed budget {budget}"
        )
    edges = g.edges
    count = 0
    for kappa in itertools.product(colours, repeat=g.n):
        for u, v, s in edges:
            if kappa[u] == s * kappa[v]:
                break
        else:
            count += 1
    return count


# -- edge-subset expansion -----------------------------------------------------


def _tally_spanning_stats(n: int, edges) -> dict[tuple[int, int, int], int]:
    """Signed count of edge subsets grouped by (p, b, c) of the spanning subgraph.

    Every subset contributes (-1)^|Y| to its component-statistics class. The
    parity union-find is rebuilt from scratch per subset.
    """
    m = len(edges)
    eu = [e[0] for e in edges]
    ev = [e[1] for e in edges]
    et = [1 if e[2] < 0 else 0 for e in edges]
    counts: dict[tuple[int, int, int], int] = {}
    for mask in range(1 << m):
        parent = list(range(n))
        parity = [0] * n
        flags = [0] * n  # bit 0: unbalanced, bit 1: contains a negative edge
        mm = mask
        while mm:
            low = mm & -mm
            mm ^= low
            i = low.bit_length() - 1
            u = eu[i]
            pu = 0
            while parent[u] != u:
                pu ^= parity[u]
                u = parent[u]
            v = ev[i]
            pv = 0
            while parent[v] != v:
                pv ^= parity[v]
                v = parent[v]
            t = et[i]
            if u == v:
                if pu ^ pv != t:
                    flags[u] |= 1
            else:
                parent[v] = u
                parity[v] = pu ^ pv ^ t
                flags[u] |= flags[v]
            if t:
                flags[u] |= 2
        c = b = p = 0
        for v in range(n):
            if parent[v] == v:
                c += 1
                f = flags[v]
                if not f & 1:
                    b += 1
                if not f & 2:
                    p += 1
        key = (p, b, c)
        counts[key] = counts.get(key, 0) + (-1 if mask.bit_count() & 1 else 1)
    return counts


@functools.lru_cache(maxsize=4096)
def _subset_tally(g: SignedGraph) -> tuple[tuple[tuple[int, int, int], int], ...]:
    return tuple(sorted(_tally_spanning_stats(g.n, g.edges).items()))


def _check_subset_budget(g: SignedGraph, max_edges: int) -> None:
    if g.m > max_edges:
        raise BudgetExceededError(
            f"{g.m} edges exceed the subset-expansion budget of {max_edges}"
        )


def _subset_chromatic_pair(g: SignedGraph) -> ChromaticPair:
    """Even and odd chromatic polynomials via the subset expansion.

    Each subset Y contributes (-1)^|Y| x^b delta^(c-b); the even constituent
    keeps only subsets with every component balanced (delta = 0 with 0^0 = 1),
    the odd one keeps all of them (delta = 1).
    """
    ecoef = [0] * (g.n + 1)
    ocoef = [0] * (g.n + 1)
    for (p, b, c), cnt in _subset_tally(g):
        ocoef[b] += cnt
        if b == c:
            ecoef[b] += cnt
    return ChromaticPair(UniPoly(tuple(ecoef)), UniPoly(tuple(ocoef)))


def _subset_bivariate_pair(g: SignedGraph) -> BivariatePair:
    """Even and odd bivariate chromatic polynomials via the subset expansion.

    Each subset contributes (-1)^|Y| x^p (x-y)^(b-p) delta^(c-b), with delta
    handled as in _subset_chromatic_pair.
    """
    even: dict[tuple[int, int], int] = {}
    odd: dict[tuple[int, int], int] = {}
    for (p, b, c), cnt in _subset_tally(g):
        w = b - p
        for j in range(w + 1):
            co = cnt * math.comb(w, j) * (-1 if j & 1 else 1)
            key = (b - j, j)
            odd[key] = odd.get(key, 0) + co
            if b == c:
                even[key] = even.get(key, 0) + co
    return BivariatePair(BiPoly(even), BiPoly(odd))


def chromatic_pair(
    g: SignedGraph, *, max_edges: int = DEFAULT_SUBSET_BUDGET
) -> ChromaticPair:
    """Even and odd chromatic polynomials of a graph with at most max_edges edges."""
    _check_subset_budget(g, max_edges)
    if g.m == g.n * (g.n - 1) // 2:
        return complete_chromatic_pair(g)
    return _subset_chromatic_pair(g)


def bivariate_pair(
    g: SignedGraph, *, max_edges: int = DEFAULT_SUBSET_BUDGET
) -> BivariatePair:
    """Even and odd bivariate polynomials; routed as in chromatic_pair."""
    _check_subset_budget(g, max_edges)
    if g.m == g.n * (g.n - 1) // 2:
        return complete_bivariate_pair(g)
    return _subset_bivariate_pair(g)


def unsigned_chromatic(
    g: SignedGraph, *, max_edges: int = DEFAULT_SUBSET_BUDGET
) -> UniPoly:
    """Chromatic polynomial of the underlying unsigned graph."""
    return chromatic_pair(all_positive(g), max_edges=max_edges).even


# -- interpolation cross-check ---------------------------------------------------


def _lagrange_integer(xs: Sequence[int], ys: Sequence[int]) -> UniPoly:
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
    coeffs = []
    for c in acc:
        if c.denominator != 1:
            raise NonIntegralCoefficientError(f"coefficient {c} is not an integer")
        coeffs.append(int(c))
    return UniPoly(tuple(coeffs))


def interpolated_pair(
    g: SignedGraph, *, budget: int = DEFAULT_ORACLE_BUDGET
) -> ChromaticPair:
    """Rebuild the chromatic pair from oracle counts alone.

    Interpolates through lam = 0, 2, ..., 2n for the even constituent and
    lam = 1, 3, ..., 2n+1 for the odd one; both polynomials have degree n,
    so n+1 points of matching parity pin them down.
    """
    deg = g.n
    even_xs = [2 * i for i in range(deg + 1)]
    odd_xs = [2 * i + 1 for i in range(deg + 1)]
    even_ys = [
        count_colourings_oracle(g, make_colour_spec(l, 0), budget=budget)
        for l in even_xs
    ]
    odd_ys = [
        count_colourings_oracle(g, make_colour_spec(l, 0), budget=budget)
        for l in odd_xs
    ]
    return ChromaticPair(
        _lagrange_integer(even_xs, even_ys), _lagrange_integer(odd_xs, odd_ys)
    )


# -- dominating-vertex deletion recursion ----------------------------------------


def _check_code(code: Sequence[int]) -> None:
    for a in code:
        if a not in (-1, 0, 1):
            raise BadCodeError(f"code entry {a!r} not in {{-1, 0, 1}}")


def threshold_step(entry: int, pair: BivariatePair) -> BivariatePair:
    """Bivariate pair after appending one vertex per the code entry.

    Inverts the deletion formulae: the appended vertex is isolated (0),
    positive dominating (1) or negative dominating (-1), so the new pair is
    a fixed combination of the old pair evaluated at shifted arguments.
    """
    even, odd = pair
    e2 = threshold_even_step(entry, even)
    X, Y = BiPoly.x(), BiPoly.y()
    if entry == 0:
        o2 = X * odd
    elif entry == 1:
        o2 = (
            Y * odd.shifted(-1, -1)
            + (X - Y - 1) * odd.shifted(-1, 1)
            + even.shifted(-1, 0)
        )
    else:
        o2 = Y * odd + (X - Y - 1) * odd.shifted(-1, 1) + even.shifted(-1, 0)
    return BivariatePair(e2, o2)


def threshold_even_step(entry: int, even: BiPoly) -> BiPoly:
    """Even constituent only; its recursion is closed in itself."""
    X, Y = BiPoly.x(), BiPoly.y()
    if entry == 0:
        return X * even
    if entry == 1:
        return Y * even.shifted(-1, -1) + (X - Y) * even.shifted(-1, 1)
    if entry == -1:
        return Y * even + (X - Y) * even.shifted(-1, 1)
    raise BadCodeError(f"code entry {entry!r} not in {{-1, 0, 1}}")


def threshold_bivariate(code: Sequence[int]) -> BivariatePair:
    """Bivariate pair of the signed threshold graph of `code`.

    Folds the vertex-addition steps from the single-vertex base (x, x);
    equivalently, unwinds the dominating-vertex deletion recursion with the
    last-added vertex deleted first.
    """
    _check_code(code)
    pair = BivariatePair(BiPoly.x(), BiPoly.x())
    for a in code:
        pair = threshold_step(a, pair)
    return pair


# -- signed complete graphs: the negative-clique partition route ------------------
#
# Colour classes of a proper colouring of a signed complete graph are exactly
# the blocks of a partition of V into all-negative cliques, and a block of
# size >= 2 cannot take colour 0.  Given the partition, an admissible colour
# assignment is an injection of blocks into the colour set that never puts
# opposite paired colours on two blocks joined by a negative edge.  Counting
# those injections by the number k of paired colour pairs used twice turns
# into k-matchings of the complement of the block-conflict graph times
# double-falling-factorial polynomials.


def _negclique_partitions(neg: list[int], n: int) -> list[tuple[int, ...]]:
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


def _matching_counts(adj: list[int]) -> tuple[int, ...]:
    """Counts of matchings by size in a graph given as adjacency bitmasks."""
    r = len(adj)
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

    return rec((1 << r) - 1)


def _drop_index(adj: list[int], s: int) -> list[int]:
    keep = [i for i in range(len(adj)) if i != s]
    out = []
    for i in keep:
        mask = 0
        for nj, j in enumerate(keep):
            if adj[i] >> j & 1:
                mask |= 1 << nj
        out.append(mask)
    return out


@functools.lru_cache(maxsize=None)
def _dfall_xy(offset: int, t: int) -> BiPoly:
    """Product of (x - y - offset - 2i) for i < t."""
    p = BiPoly.one()
    z = BiPoly.x() - BiPoly.y()
    for i in range(t):
        p = p * (z - (offset + 2 * i))
    return p


@functools.lru_cache(maxsize=None)
def _yfall(j: int) -> BiPoly:
    """Product of (y - i) for i < j."""
    p = BiPoly.one()
    y = BiPoly.y()
    for i in range(j):
        p = p * (y - i)
    return p


@functools.lru_cache(maxsize=None)
def _complete_basis(k: int, d: int, offset: int) -> BiPoly:
    """Assignments for k doubled pairs plus d singly-coloured blocks.

    offset 0 serves even lam - mu (paired pool x - y), offset 1 odd
    (paired pool x - y - 1, colour 0 accounted for separately).
    """
    s = BiPoly.zero()
    for j in range(d + 1):
        s = s + math.comb(d, j) * _yfall(j) * _dfall_xy(offset + 2 * k, d - j)
    return _dfall_xy(offset, k) * s


def complete_bivariate_pair(g: SignedGraph) -> BivariatePair:
    """Bivariate pair of a signed complete graph via negative-clique partitions."""
    n = g.n
    if g.m != n * (n - 1) // 2:
        raise ValueError("underlying graph is not complete")
    neg = [0] * n
    for u, v, s in g.edges:
        if s < 0:
            neg[u] |= 1 << v
            neg[v] |= 1 << u
    w_all: dict[tuple[int, int], int] = {}
    w_zero: dict[tuple[int, int], int] = {}
    for blocks in _negclique_partitions(neg, n):
        r = len(blocks)
        blockneg = [0] * r
        for i, bm in enumerate(blocks):
            acc = 0
            mm = bm
            while mm:
                low = mm & -mm
                mm ^= low
                acc |= neg[low.bit_length() - 1]
            blockneg[i] = acc
        coadj = [0] * r
        for i in range(r):
            for j in range(i + 1, r):
                if not blockneg[i] & blocks[j]:
                    coadj[i] |= 1 << j
                    coadj[j] |= 1 << i
        for k, cnt in enumerate(_matching_counts(coadj)):
            key = (k, r - 2 * k)
            w_all[key] = w_all.get(key, 0) + cnt
        for s in range(r):
            if blocks[s].bit_count() == 1:
                sub = _drop_index(coadj, s)
                for k, cnt in enumerate(_matching_counts(sub)):
                    key = (k, r - 1 - 2 * k)
                    w_zero[key] = w_zero.get(key, 0) + cnt
    even = BiPoly.zero()
    odd = BiPoly.zero()
    for (k, d), cnt in sorted(w_all.items()):
        even = even + cnt * _complete_basis(k, d, 0)
        odd = odd + cnt * _complete_basis(k, d, 1)
    for (k, d), cnt in sorted(w_zero.items()):
        odd = odd + cnt * _complete_basis(k, d, 1)
    return BivariatePair(even, odd)


def complete_chromatic_pair(g: SignedGraph) -> ChromaticPair:
    """Univariate pair of a signed complete graph (y = 0 specialization)."""
    even, odd = complete_bivariate_pair(g)
    return ChromaticPair(even.substitute_y(0), odd.substitute_y(0))
