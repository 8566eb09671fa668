"""Reference routes the tests check production against, built without the
production searches: a plain isomorphism search, the non-switching-
isomorphism certificate as a switch-and-search loop over it, and the
chromatic pair rebuilt by Lagrange interpolation through brute-force
colouring counts."""

from fractions import Fraction

from signedchrom.chromatic import count_colourings_oracle
from signedchrom.equivalence import free_switching_vertices
from signedchrom.errors import SignedChromError
from signedchrom.graphs import switch
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
