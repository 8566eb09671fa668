"""Exact integer polynomial arithmetic in (x, y).

A polynomial is a sparse map (x_degree, y_degree) -> coefficient, and a
polynomial in x alone, such as a chromatic polynomial, is one with no y
terms: the univariate pair is the bivariate pair at y = 0.  Coefficients are
plain Python ints, so every operation is exact at any size.  Canonical form:
no zero-valued terms, which makes equality, hashing and the JSON
serialization bit-stable.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import SignedChromError


class BiPoly:
    """Sparse polynomial in x and y with integer coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        d: dict[tuple[int, int], int] = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for (i, j), c in items:
                if c:
                    k = (i, j)
                    nc = d.get(k, 0) + c
                    if nc:
                        d[k] = nc
                    elif k in d:
                        del d[k]
        self._terms = d

    # -- constructors ------------------------------------------------------

    @staticmethod
    def _trusted(terms: dict) -> "BiPoly":
        """The polynomial of a term dict already in canonical form, taken as is."""
        r = BiPoly.__new__(BiPoly)
        r._terms = terms
        return r

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def one() -> "BiPoly":
        return BiPoly({(0, 0): 1})

    @staticmethod
    def x() -> "BiPoly":
        return BiPoly({(1, 0): 1})

    @staticmethod
    def y() -> "BiPoly":
        return BiPoly({(0, 1): 1})

    # -- queries -----------------------------------------------------------

    def items(self):
        """Terms as ((x_degree, y_degree), coefficient), lexicographic order."""
        return sorted(self._terms.items())

    def coeff(self, i: int, j: int) -> int:
        return self._terms.get((i, j), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return BiPoly({(0, 0): other})
        if isinstance(other, BiPoly):
            return other
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            nc = out.get(k, 0) + c
            if nc:
                out[k] = nc
            elif k in out:
                del out[k]
        return BiPoly._trusted(out)

    __radd__ = __add__

    def __neg__(self):
        return BiPoly._trusted({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._terms.items():
            for (i2, j2), c2 in other._terms.items():
                k = (i1 + i2, j1 + j2)
                nc = out.get(k, 0) + c1 * c2
                if nc:
                    out[k] = nc
                elif k in out:
                    del out[k]
        return BiPoly._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise SignedChromError("negative polynomial power")
        out = BiPoly.one()
        for _ in range(e):
            out = out * self
        return out

    # -- substitution ------------------------------------------------------

    def shifted(self, dx: int, dy: int) -> "BiPoly":
        """Return p(x + dx, y + dy), expanded exactly, one variable at a time.

        Each axis with a nonzero shift d takes the coefficients of p along it,
        one line per degree in the other variable.  Pass i of the Taylor shift
        divides entries i.. of a line by t - d by Horner's rule and leaves the
        remainder, the coefficient of t^i in p(t + d), in entry i.
        """
        terms = self._terms
        for axis, d in enumerate((dx, dy)):
            if not d:
                continue
            lines: dict[int, list[int]] = {}  # the line of each degree in the other variable
            for key, c in terms.items():
                line = lines.setdefault(key[1 - axis], [])
                line += [0] * (key[axis] + 1 - len(line))
                line[key[axis]] = c
            terms = {}
            for other, a in lines.items():
                top = len(a) - 1
                for i in range(top):
                    for j in range(top - 1, i - 1, -1):
                        a[j] += d * a[j + 1]
                for e, c in enumerate(a):
                    if c:
                        terms[(e, other) if axis == 0 else (other, e)] = c
        return BiPoly._trusted(terms)

    def substitute_y(self, y0: int) -> "BiPoly":
        """Return p(x, y0), a polynomial in x alone."""
        return BiPoly(((i, 0), c * y0**j) for (i, j), c in self._terms.items())

    def __repr__(self) -> str:
        return f"BiPoly({dict(self.items())!r})"

    def __str__(self) -> str:
        return format_bipoly(self)


class ChromaticPair(NamedTuple):
    """The (even, odd) univariate chromatic polynomials of a signed graph,
    each a `BiPoly` with no y terms."""

    even: BiPoly
    odd: BiPoly


class BivariatePair(NamedTuple):
    """The (even, odd) bivariate chromatic polynomials of a signed graph."""

    even: BiPoly
    odd: BiPoly


def weighted_sum(weights, basis) -> BiPoly:
    """Sum of w * basis(key) over the items (key, w) of the mapping `weights`,
    skipping w = 0, so no basis polynomial of a zero weight is built: the
    terms add into one dict, and one polynomial is built at the end."""
    out: dict[tuple[int, int], int] = {}
    for key, w in weights.items():
        if w:
            for k, c in basis(key)._terms.items():
                out[k] = out.get(k, 0) + w * c
    return BiPoly._trusted({k: c for k, c in out.items() if c})


# -- combinatorial sequences -------------------------------------------------


def falling_product(base: BiPoly, step: int, t: int) -> BiPoly:
    """base (base - step) ... (base - (t-1) step); the empty product for t <= 0."""
    p = BiPoly.one()
    for i in range(t):
        p = p * (base - step * i)
    return p


@functools.lru_cache(maxsize=None)
def falling_factorial(n: int) -> BiPoly:
    """(x)_n = x (x-1) ... (x-n+1); the empty product for n = 0."""
    if n < 0:
        raise SignedChromError("falling factorial needs n >= 0")
    return falling_product(BiPoly.x(), 1, n)


@functools.lru_cache(maxsize=None)
def double_falling(n: int) -> BiPoly:
    """x (x-2) (x-4) ... (x-2n+2); the empty product for n = 0."""
    if n < 0:
        raise SignedChromError("double falling factorial needs n >= 0")
    return falling_product(BiPoly.x(), 2, n)


@functools.lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind; 0 outside 0 <= k <= n."""
    if n < 0 or k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    if k == 0:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def matchings_T(n: int, k: int) -> int:
    """Number of k-edge matchings in the complete graph on n vertices."""
    if n < 0 or k < 0 or n < 2 * k:
        return 0
    return math.perm(n, 2 * k) // (2**k * math.factorial(k))


# -- canonical JSON serialization --------------------------------------------


def unipoly_to_json(p: BiPoly) -> list[str]:
    """Decimal coefficient strings of p in x alone, ascending by degree and
    dense; [] for zero."""
    degree = max((i for (i, _), _ in p.items()), default=-1)
    return [str(p.coeff(i, 0)) for i in range(degree + 1)]


def bipoly_to_json(p: BiPoly) -> list[list]:
    """[x_degree, y_degree, "coefficient"] triples, lexicographic order."""
    return [[i, j, str(c)] for (i, j), c in p.items()]


def pair_to_json(pair) -> dict:
    if isinstance(pair, ChromaticPair):
        return {"even": unipoly_to_json(pair.even), "odd": unipoly_to_json(pair.odd)}
    return {"even": bipoly_to_json(pair.even), "odd": bipoly_to_json(pair.odd)}


# -- human-readable rendering -------------------------------------------------


def _term_str(c: int, monomial: str, first: bool) -> str:
    sign = "-" if c < 0 else "+"
    mag = abs(c)
    body = monomial if mag == 1 and monomial else (f"{mag}" if not monomial else f"{mag}*{monomial}")
    if first:
        return body if c > 0 else f"-{body}"
    return f" {sign} {body}"


def format_bipoly(p: BiPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    terms = sorted(p._terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0]))
    for (i, j), c in terms:
        xs = "" if i == 0 else ("x" if i == 1 else f"x^{i}")
        ys = "" if j == 0 else ("y" if j == 1 else f"y^{j}")
        mono = xs + ("*" if xs and ys else "") + ys
        parts.append(_term_str(c, mono, not parts))
    return "".join(parts)
