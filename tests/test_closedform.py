"""Closed-form join families, their hat variants, and the identity suite."""

import json

import pytest
from oracles import join_family_graph

from signedchrom.chromatic import chromatic_pair
from signedchrom.closedform import H, H1, H2, H3, H4, identity_suite, join_pair
from signedchrom.errors import SignedChromError
from signedchrom.graphs import complete_graph
from signedchrom.poly import BiPoly, falling_factorial

X = BiPoly.x()


def test_H_examples():
    assert H(0) == BiPoly.one()
    assert H(3) == X**3 - 3 * X**2 + 3 * X
    assert H(-2) == BiPoly.zero()


def test_H_is_even_polynomial_of_all_negative_complete():
    for n in range(7):
        assert H(n) == chromatic_pair(complete_graph(n, -1)).even


def test_H1_examples():
    for n in range(7):
        assert H1(0, 0, n) == H(n)
    for m in range(5):
        assert H1(0, m, 0) == falling_factorial(m)
    assert H1(1, 0, 1) == H1(1, 0, 1)
    assert H1(2, 1, 3) == H1(3, 1, 2)


def test_H2_examples():
    assert H2(1, 1, 1) == falling_factorial(3)
    assert H2(-1, 0, 0) == BiPoly.zero()


def test_H3_H4_examples():
    for n in range(5):
        assert H3(0, 0, n) == falling_factorial(n)
        assert H4(0, 0, n) == H(n)
    for q in range(4):
        for r in range(4):
            assert H3(q, r, 0) == falling_factorial(q + r)
            assert H4(q, r, 0) == falling_factorial(q + r)


def test_families_vanish_on_negative_arguments():
    for h in (H1, H2, H3, H4):
        assert h(-1, 2, 2) == BiPoly.zero()
        assert h(2, -1, 2) == BiPoly.zero()
        assert h(2, 2, -1) == BiPoly.zero()


def test_join_pair_examples():
    # the all-negative triangle, via family 1 with l = m = 0
    assert join_pair(1, 0, 0, 3) == chromatic_pair(complete_graph(3, -1))
    assert join_pair(3, 2, 3, 0) == chromatic_pair(join_family_graph(3, 2, 3, 0))
    assert join_pair(4, 2, 2, 1) == chromatic_pair(join_family_graph(4, 2, 2, 1))
    with pytest.raises(SignedChromError, match="parameters must be >= 0"):
        join_pair(1, -1, 0, 0)
    with pytest.raises(SignedChromError, match="family must be 1..4"):
        join_pair(5, 0, 0, 0)


def test_join_pair_cross_validation_small():
    """Every family at l + m + n <= 10 against the partition route, which
    takes each join graph: all of them are signed complete graphs."""
    for family in (1, 2, 3, 4):
        for l in range(11):
            for m in range(11 - l):
                for n in range(11 - l - m):
                    got = join_pair(family, l, m, n)
                    want = chromatic_pair(join_family_graph(family, l, m, n))
                    assert got == want, (family, l, m, n)


def test_identity_suite_degenerate():
    """At max_param 0 identity ix (n >= 1) has no case, so a pass would be
    vacuous: the suite refuses it."""
    with pytest.raises(SignedChromError, match=r"identity ix needs n >= 1; got 0"):
        identity_suite(0)
    assert [r["name"] for r in identity_suite(1)["identities"]] == [
        "i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix",
    ]


def test_identity_suite_max_3():
    report = identity_suite(3)
    assert report["all_pass"]
    assert [r["checked"] for r in report["identities"]] == [64, 320, 16, 32, 64, 320, 16, 39, 12]


def test_identity_report_serializes():
    d = identity_suite(1)
    assert json.loads(json.dumps(d)) == d
    assert d["all_pass"] is True
    assert len(d["identities"]) == 9
