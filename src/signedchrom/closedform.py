"""Closed-form chromatic polynomials for joins of signed complete graphs.

Four three-parameter families are covered, each with an even polynomial
H1..H4 and a companion "hat" polynomial that corrects the odd constituent:

  family 1: (-K_l) joined+ (+K_m) joined+ (-K_n)
  family 2: (-K_l) joined+ (-K_m) joined+ (-K_n)
  family 3: ((+K_l) joined- (+K_m)) joined+ (+K_n)
  family 4: ((+K_l) joined- (+K_m)) joined+ (-K_n)

H(n, x) is the special case of family 1 with l = m = 0 (the all-negative
complete graph).  All functions return the zero polynomial whenever any
parameter is negative.  identity_suite machine-checks the nine exchange and
collapse identities these families satisfy and returns the plain data the
`identities` command renders; it keeps no clock.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from math import comb, factorial, perm

from .errors import BudgetExceededError, SignedChromError
from .poly import (
    BiPoly,
    ChromaticPair,
    double_falling,
    falling_factorial,
    matchings_T,
    stirling2,
)

MAX_JOIN_VERTICES = 30  # l + m + n of join_pair; family 2 at 10, 10, 10 takes 0.13-0.26 s
MAX_IDENTITY_PARAM = 7  # parameter bound of identity_suite; 7 takes 0.6-0.9 s


@functools.lru_cache(maxsize=None)
def _basis(a: int, m: int, b: int) -> BiPoly:
    """double_falling(a) (x - b)_m, one of the products the family sums weight."""
    return double_falling(a) * falling_factorial(m).shifted(-b, 0)


def _weighted_sum(weights: Counter, m: int) -> BiPoly:
    """Sum of w * _basis(a, m, b) over the weights w by key (a, b).  The
    families total their integer weights per key first, so each product is
    built once however many terms of the sum share it.  H2 and H4 have no
    falling-factorial tail: they key (a, 0) with m = 0, and (x)_0 = 1."""
    acc = BiPoly.zero()
    for (a, b), w in weights.items():
        if w:
            acc = acc + w * _basis(a, m, b)
    return acc


@functools.lru_cache(maxsize=None)
def H(n: int) -> BiPoly:
    """Sum of stirling2(n, i) * double_falling(i); zero for n < 0."""
    acc = BiPoly.zero()
    for i in range(n + 1):
        acc = acc + stirling2(n, i) * double_falling(i)
    return acc


@functools.lru_cache(maxsize=None)
def H1(l: int, m: int, n: int) -> BiPoly:
    if l < 0 or m < 0 or n < 0:
        return BiPoly.zero()
    weights = Counter()
    for i in range(l + 1):
        si = stirling2(l, i)
        if not si:
            continue
        for j in range(n + 1):
            sj = stirling2(n, j)
            if not sj:
                continue
            for k in range(min(i, j) + 1):
                weights[i + j - k, i + j] += factorial(k) * comb(i, k) * comb(j, k) * si * sj
    return _weighted_sum(weights, m)


@functools.lru_cache(maxsize=None)
def H2(l: int, m: int, n: int) -> BiPoly:
    weights = Counter()
    for i in range(l + 1):
        si = stirling2(l, i)
        if not si:
            continue
        for j in range(m + 1):
            sj = stirling2(m, j)
            if not sj:
                continue
            for k in range(n + 1):
                sk = stirling2(n, k)
                if not sk:
                    continue
                for s in range(min(i, j) + 1):
                    fs = factorial(s) * comb(i, s) * comb(j, s)
                    for t in range(k + 1):
                        weights[i + j + k - t - s, 0] += (
                            fs
                            * comb(k, t)
                            * si
                            * sj
                            * sk
                            * perm(i + j - 2 * s, t)
                        )
    return _weighted_sum(weights, 0)


@functools.lru_cache(maxsize=None)
def H3(l: int, m: int, n: int) -> BiPoly:
    if l < 0 or m < 0 or n < 0:
        return BiPoly.zero()
    weights = Counter()
    for i in range(min(l, m) + 1):
        fi = factorial(i) * comb(l, i) * comb(m, i)
        for j in range((l - i) // 2 + 1):
            tj = matchings_T(l - i, j)
            for k in range((m - i) // 2 + 1):
                tk = matchings_T(m - i, k)
                weights[l + m - i - j - k, l + m - i] += fi * tj * tk
    return _weighted_sum(weights, n)


@functools.lru_cache(maxsize=None)
def H4(l: int, m: int, n: int) -> BiPoly:
    """Sums double_falling(l+m+s-i-j-k-t) times the integer (l+m-i-2j-2k)_t;
    the ranges below keep l+m+s-i-j-k >= s >= t >= 0."""
    weights = Counter()
    for i in range(min(l, m) + 1):
        fi = factorial(i) * comb(l, i) * comb(m, i)
        for j in range((l - i) // 2 + 1):
            tj = matchings_T(l - i, j)
            for k in range((m - i) // 2 + 1):
                tk = matchings_T(m - i, k)
                for s in range(n + 1):
                    ss = stirling2(n, s)
                    if not ss:
                        continue
                    for t in range(s + 1):
                        weights[l + m + s - i - j - k - t, 0] += (
                            fi * tj * tk * ss * comb(s, t)
                            * perm(l + m - i - 2 * j - 2 * k, t)
                        )
    return _weighted_sum(weights, 0)


_FAMILY = {1: H1, 2: H2, 3: H3, 4: H4}


def _hat(h, l: int, m: int, n: int) -> BiPoly:
    """l*h(l-1,m,n)(x-1) + m*h(l,m-1,n)(x-1) + n*h(l,m,n-1)(x-1)."""
    acc = BiPoly.zero()
    for w, args in ((l, (l - 1, m, n)), (m, (l, m - 1, n)), (n, (l, m, n - 1))):
        if w:
            acc = acc + w * h(*args).shifted(-1, 0)
    return acc


def _check_family(family: int, l: int, m: int, n: int) -> None:
    """Refuses a family other than 1..4 and a negative parameter."""
    if family not in _FAMILY:
        raise SignedChromError(f"family must be 1..4, got {family!r}")
    if l < 0 or m < 0 or n < 0:
        raise SignedChromError(f"parameters must be >= 0, got {(l, m, n)}")


def join_pair(family: int, l: int, m: int, n: int) -> ChromaticPair:
    """Chromatic pair of the family's join graph from the closed forms.

    The even constituent is the family polynomial itself; the odd one is the
    even constituent shifted to x-1 plus the family's hat polynomial.
    Refuses l + m + n above MAX_JOIN_VERTICES.
    """
    _check_family(family, l, m, n)
    if l + m + n > MAX_JOIN_VERTICES:
        raise BudgetExceededError(
            f"l + m + n = {l + m + n} exceeds the join-family cap of {MAX_JOIN_VERTICES}"
        )
    h = _FAMILY[family]
    even = h(l, m, n)
    odd = even.shifted(-1, 0) + _hat(h, l, m, n)
    return ChromaticPair(even, odd)


def _symmetric(h, rng):
    """Cases of h equal under the five non-trivial permutations of (l, m, n)."""
    return (
        (f"(l,m,n)={(l, m, n)} perm={p}", h(l, m, n), h(*p))
        for l in rng for m in rng for n in rng
        for p in ((l, n, m), (m, l, n), (m, n, l), (n, l, m), (n, m, l))
    )


def identity_suite(max_param: int) -> dict:
    """Check the nine family identities for all parameters up to max_param,
    from 1 (below it identity ix has no case) to MAX_IDENTITY_PARAM.

    Each row of the table is (name, statement, cases), and each case is
    (label, lhs, rhs), built lazily.  Returns the `identities` payload: per
    identity the number of cases checked, its status and the label of the
    first case whose sides differ.
    """
    if max_param < 1:
        raise SignedChromError(f"max_param must be >= 1, as identity ix needs n >= 1;"
                               f" got {max_param}")
    if max_param > MAX_IDENTITY_PARAM:
        raise BudgetExceededError(
            f"identity parameters capped at {MAX_IDENTITY_PARAM}, got {max_param}"
        )
    rng = range(max_param + 1)
    table = [
        ("i", "H1(l,m,n) = H1(n,m,l)", (
            (f"(l,m,n)={(l, m, n)}", H1(l, m, n), H1(n, m, l))
            for l in rng for m in rng for n in rng
        )),
        ("ii", "H2 symmetric in all three parameters", _symmetric(H2, rng)),
        ("iii", "H1(l,1,n) = H2(l,1,n)", (
            (f"(l,n)={(l, n)}", H1(l, 1, n), H2(l, 1, n)) for l in rng for n in rng
        )),
        ("iv", "H1(q,0,r) = H2(q,0,r) = H(q+r)", (
            (f"(q,r)={(q, r)} {tag}", h(q, 0, r), H(q + r))
            for q in rng for r in rng for tag, h in (("H1", H1), ("H2", H2))
        )),
        ("v", "H4(l,m,n) = H4(m,l,n)", (
            (f"(l,m,n)={(l, m, n)}", H4(l, m, n), H4(m, l, n))
            for l in rng for m in rng for n in rng
        )),
        ("vi", "H3 symmetric in all three parameters", _symmetric(H3, rng)),
        ("vii", "H3(l,m,1) = H4(l,m,1)", (
            (f"(l,m)={(l, m)}", H3(l, m, 1), H4(l, m, 1)) for l in rng for m in rng
        )),
        ("viii", "H3(q,r,0) = H4(q,r,0) = (x)_{q+r}; (x)_n = sum_j T(n,j) * 2-falling(n-j)",
         itertools.chain(
             (
                 (f"(q,r)={(q, r)} {tag}", h(q, r, 0), falling_factorial(q + r))
                 for q in rng for r in rng for tag, h in (("H3", H3), ("H4", H4))
             ),
             (
                 (f"n={n} T-sum", falling_factorial(n), sum(
                     (matchings_T(n, j) * double_falling(n - j) for j in range(n // 2 + 1)),
                     BiPoly.zero(),
                 ))
                 for n in range(2 * max_param + 1)
             ),
         )),
        ("ix", "H1(0,m,n) = H4(1,m,n-1) for n >= 1", (
            (f"(m,n)={(m, n)}", H1(0, m, n), H4(1, m, n - 1))
            for m in rng for n in range(1, max_param + 1)
        )),
    ]
    identities = []
    for name, statement, cases in table:
        checked, bad = 0, None
        for label, lhs, rhs in cases:
            checked += 1
            if lhs != rhs and bad is None:
                bad = label
        identities.append({"name": name, "description": statement, "checked": checked,
                           "status": "fail" if bad else "pass", "counterexample": bad})
    return {
        "max_param": max_param,
        "all_pass": all(r["status"] == "pass" for r in identities),
        "identities": identities,
    }
