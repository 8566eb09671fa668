"""Ring arithmetic, combinatorial sequences, and serialization."""

import copy
import itertools
import os
import pathlib
import pickle
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import diagonal, evaluate

import signedchrom
from signedchrom.errors import SignedChromError
from signedchrom.poly import (
    BiPoly,
    bipoly_to_json,
    double_falling,
    falling_factorial,
    matchings_T,
    stirling2,
    unipoly_to_json,
    weighted_sum,
)

X, Y = BiPoly.x(), BiPoly.y()

# polynomials in x alone, the shape of every chromatic polynomial
unipolys = st.lists(st.integers(-9, 9), max_size=6).map(
    lambda coeffs: BiPoly(((i, 0), c) for i, c in enumerate(coeffs))
)
bipolys = st.builds(
    BiPoly,
    st.dictionaries(
        st.tuples(st.integers(0, 4), st.integers(0, 3)),
        st.integers(-9, 9),
        max_size=6,
    ),
)


def test_canonical_form_strips_trailing_zeros():
    assert BiPoly({(0, 0): 1, (1, 0): 2, (2, 0): 0, (3, 0): 0}) == 1 + 2 * X
    assert unipoly_to_json(X**3 - X**3 + 2 * X) == ["0", "2"]
    assert BiPoly({(0, 0): 0, (1, 0): 0}).is_zero()
    assert BiPoly({(1, 1): 0}).is_zero()


def test_polynomial_in_x_alone_value_semantics():
    p = 1 - 2 * X
    same = BiPoly({(1, 0): -2, (0, 0): 1})
    assert p == same and hash(p) == hash(same)
    assert p != BiPoly.one() and p != (1, -2) and p != 1 - 2 * Y
    assert copy.deepcopy(p) == p and pickle.loads(pickle.dumps(p)) == p


def test_basic_arithmetic_examples():
    assert X * (X - 1) == BiPoly({(1, 0): -1, (2, 0): 1})
    p = X**2 - X + 3
    assert p - p == BiPoly.zero()
    q = X**2 - X + Y
    assert q + BiPoly.zero() == q


def test_shift_substitute_examples():
    assert (X**2).shifted(-1, 0) == X**2 - 2 * X + 1
    assert Y.shifted(0, 1) == Y + 1
    # expand (x-1)^2 - (x-1) + (y+1)
    assert (X**2 - X + Y).shifted(-1, 1) == X**2 - 3 * X + Y + 3


def test_evaluate_examples():
    assert evaluate(X * (X**2 - 3 * X + 3), 4, 0) == 28
    assert evaluate(BiPoly.zero(), 1000, 0) == 0
    assert evaluate(X**2 - X + Y, 3, 5) == 11


@settings(max_examples=100)
@given(unipolys, unipolys, unipolys)
def test_uni_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)


@settings(max_examples=100)
@given(bipolys, bipolys, bipolys)
def test_bi_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80)
@given(bipolys, st.integers(-3, 3), st.integers(-3, 3))
def test_shift_substitute_inverse(p, dx, dy):
    assert p.shifted(dx, dy).shifted(-dx, -dy) == p


@settings(max_examples=80)
@given(unipolys, unipolys, st.integers(-5, 5))
def test_evaluate_commutes_with_arithmetic(a, b, x0):
    assert evaluate(a * b, x0, 0) == evaluate(a, x0, 0) * evaluate(b, x0, 0)
    assert evaluate(a + b, x0, 0) == evaluate(a, x0, 0) + evaluate(b, x0, 0)


@settings(max_examples=80)
@given(bipolys, st.integers(-4, 4), st.integers(-4, 4), st.integers(-2, 2), st.integers(-2, 2))
def test_bipoly_shift_matches_evaluation(p, x0, y0, dx, dy):
    assert evaluate(p.shifted(dx, dy), x0, y0) == evaluate(p, x0 + dx, y0 + dy)


def test_falling_factorials():
    assert falling_factorial(0) == BiPoly.one()
    assert falling_factorial(3) == X**3 - 3 * X**2 + 2 * X
    with pytest.raises(SignedChromError, match="^falling factorial needs n >= 0"):
        falling_factorial(-1)


def test_double_falling():
    assert double_falling(0) == BiPoly.one()
    assert double_falling(2) == X**2 - 2 * X
    assert double_falling(3) == X**3 - 6 * X**2 + 8 * X
    with pytest.raises(SignedChromError, match="double falling factorial needs n >= 0"):
        double_falling(-2)


def _partitions_into_blocks(items):
    """All set partitions, brute force."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _partitions_into_blocks(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield [[first]] + part


def test_stirling2_against_partition_enumeration():
    assert stirling2(0, 0) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    for n in range(7):
        counts = {}
        for part in _partitions_into_blocks(list(range(n))):
            counts[len(part)] = counts.get(len(part), 0) + 1
        for k in range(n + 2):
            assert stirling2(n, k) == counts.get(k, 0)


def test_matchings_against_brute_force():
    assert matchings_T(4, 2) == 3
    assert matchings_T(4, 1) == 6
    for n in range(9):
        assert matchings_T(n, 0) == 1
        edges = list(itertools.combinations(range(n), 2))
        for k in range(5):
            brute = sum(
                1
                for combo in itertools.combinations(edges, k)
                if len({v for e in combo for v in e}) == 2 * k
            )
            assert matchings_T(n, k) == brute


def test_falling_equals_matching_sum_of_double_fallings():
    for n in range(9):
        total = BiPoly.zero()
        for j in range(n // 2 + 1):
            total = total + matchings_T(n, j) * double_falling(n - j)
        assert total == falling_factorial(n)


@settings(max_examples=100)
@given(st.dictionaries(st.integers(0, 5), st.tuples(st.integers(-3, 3), bipolys), max_size=5))
def test_weighted_sum_is_the_ring_sum(drawn):
    """weighted_sum is the sum of w * basis(key) by ring operations, zero
    weights included, and asks the basis only for the keys of nonzero
    weight."""
    weights = {key: w for key, (w, _) in drawn.items()}
    asked = []

    def basis(key):
        asked.append(key)
        return drawn[key][1]

    expected = BiPoly.zero()
    for w, p in drawn.values():
        expected = expected + w * p
    assert weighted_sum(weights, basis) == expected
    assert sorted(asked) == sorted(key for key, w in weights.items() if w)


def test_weighted_sum_that_cancels_is_zero():
    """Terms that cancel leave no zero-valued term behind, and a zero
    weight's basis is never built."""
    bases = {"a": X - Y, "b": 2 * X - 2 * Y + X * Y, "c": X * Y}

    def basis(key):
        if key == "z":
            raise AssertionError("the basis of a zero weight was built")
        return bases[key]

    total = weighted_sum({"a": 2, "b": -1, "c": 1, "z": 0}, basis)
    assert total == BiPoly.zero() and total.is_zero()


def test_json_round_trip():
    p = X**2 - 3 * X
    assert unipoly_to_json(p) == ["0", "-3", "1"]
    assert unipoly_to_json(BiPoly.zero()) == []
    q = X**2 - X + Y
    assert bipoly_to_json(q) == [[0, 1, "1"], [1, 0, "-1"], [2, 0, "1"]]


@settings(max_examples=80)
@given(bipolys)
def test_repr_evaluates_back(p):
    assert eval(repr(p), {"BiPoly": BiPoly}) == p


def test_repr_lists_terms_in_order():
    assert repr(BiPoly.zero()) == "BiPoly({})"
    assert repr(2 * X - Y) == "BiPoly({(0, 1): -1, (1, 0): 2})"


def test_pair_repr_is_the_same_in_two_processes():
    """The repr of a chromatic pair shows its terms, not object addresses."""
    script = (
        "from signedchrom.chromatic import chromatic_pair\n"
        "from signedchrom.graphs import SignedGraph\n"
        "k38 = SignedGraph(11, tuple((u, v, 1) for u in range(3) for v in range(3, 11)))\n"
        "print(repr(chromatic_pair(k38)))\n"
    )
    src = pathlib.Path(signedchrom.__file__).resolve().parent.parent
    outs = [
        subprocess.run([sys.executable, "-c", script], cwd=src, capture_output=True, text=True,
                       env={**os.environ, "PYTHONHASHSEED": seed}, check=True).stdout
        for seed in ("1", "2")
    ]
    assert outs[0] == outs[1]
    assert outs[0].startswith("ChromaticPair(even=BiPoly({(1, 0): ")
    assert "0x" not in outs[0]


def test_bipoly_partial_substitutions():
    q = X**2 - X + Y
    assert q.substitute_y(0) == X**2 - X
    assert q.substitute_y(5) == X**2 - X + 5
    assert diagonal(q) == X**2  # x^2 - x + x
    assert q.coeff(0, 1) == 1 and q.coeff(2, 0) == 1 and q.coeff(1, 1) == 0
