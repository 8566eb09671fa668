"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Everything here is exact integer/polynomial equality; there are
no tolerances to tune.
"""

import itertools
import random
from collections import Counter

import pytest
from oracles import (
    NEGATIVE_DOMINATING,
    POSITIVE_DOMINATING,
    SWITCHING_CLASS_COUNTS,
    UNIVERSAL_K1,
    component_stats,
    count_colourings_oracle,
    diagonal,
    evaluate,
    interpolated_pair,
    is_balanced,
    join_family_graph,
    positive_part,
    relabel,
    vertex_role,
)

from signedchrom import reference
from signedchrom.chromatic import (
    _subset_bivariate_pair,
    bivariate_pair,
    chromatic_pair,
)
from signedchrom.closedform import identity_suite, join_pair
from signedchrom.equivalence import (
    enumerate_classes,
    find_switching_isomorphism,
    graph_from_mask,
)
from signedchrom.graphs import (
    SignedGraph,
    all_positive,
    complete_graph,
    delete_vertex,
    fixture,
    switch,
    threshold_graph,
)
from signedchrom.poly import pair_to_json
from signedchrom.verify import (
    reproduce_tables,
    search_cochromatic,
    verify_conj_cochromatic_complete,
    verify_conj_complete_bivariate,
    verify_conj_threshold,
)


def _all_signed_graphs(n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    for states in itertools.product((0, 1, -1), repeat=len(pairs)):
        edges = tuple((u, v, s) for (u, v), s in zip(pairs, states) if s)
        yield SignedGraph(n, edges)


@pytest.fixture(scope="module")
def family_le4():
    """Every signed graph on at most 4 vertices: all underlying graphs, all signatures."""
    graphs = []
    for n in range(5):
        graphs.extend(_all_signed_graphs(n))
    assert len(graphs) == 1 + 1 + 3 + 27 + 729
    return graphs


def _pair_multiset(pairs):
    return Counter((p.even, p.odd) for p in pairs)


def test_c01_complete_tables():
    """Criterion 1: switching classes of K3/K4/K5 match the reference table."""
    for n, rows in sorted(reference.COMPLETE_TABLE.items()):
        inv = enumerate_classes(complete_graph(n, 1), "switching_iso")
        assert inv.class_count == SWITCHING_CLASS_COUNTS[n]
        computed = [chromatic_pair(rep) for rep in inv.representatives]
        assert _pair_multiset(computed) == _pair_multiset(rows), f"K{n} table mismatch"
    print("ACCEPTANCE 1 (complete-graph table, K3/K4/K5): PASS")


def test_c02_petersen_table():
    """Criterion 2: six Petersen classes match the reference table."""
    inv = enumerate_classes(fixture("petersen"), "switching_iso")
    assert inv.class_count == 6
    computed = [chromatic_pair(rep) for rep in inv.representatives]
    assert _pair_multiset(computed) == _pair_multiset(reference.PETERSEN_TABLE)
    print("ACCEPTANCE 2 (Petersen table, 6 classes): PASS")


def test_c03_displayed_polynomials():
    """Criterion 3: every displayed one-off polynomial reproduces exactly."""
    report = reproduce_tables()
    failed = [c["name"] for c in report["details"]["checks"] if c["status"] != "pass"]
    assert report["status"] == "pass" and not failed, failed
    # spot-assert the headline facts directly
    assert chromatic_pair(fixture("G1")) == chromatic_pair(fixture("G2")) == reference.GEM_PAIR
    b3, b4 = bivariate_pair(fixture("Sigma3")), bivariate_pair(fixture("Sigma4"))
    assert b3.odd == b4.odd and b3.even != b4.even
    print("ACCEPTANCE 3 (displayed polynomial goldens): PASS")


def test_c04_oracle_equivalence(family_le4):
    """Criterion 4: expansion = oracle for all (lam, mu) <= 5; interpolation agrees."""
    # (6, 0) rides along so the univariate route is covered for lam in 0..6
    lam_mu = [(l, m) for l in range(6) for m in range(l + 1)] + [(6, 0)]
    for g in family_le4:
        bp = bivariate_pair(g)
        for lam, mu in lam_mu:
            want = count_colourings_oracle(g, lam, mu)
            poly = bp.even if (lam - mu) % 2 == 0 else bp.odd
            assert evaluate(poly, lam, mu) == want, (g, lam, mu)
        assert interpolated_pair(g) == chromatic_pair(g), g
    print("ACCEPTANCE 4 (oracle equivalence + interpolation, <=4 vertices): PASS")


def test_c05_theorem_suite(family_le4):
    """Criterion 5: balance/specialization/coefficient/deletion theorems."""
    rng = random.Random(20240)
    # balance iff even == odd, both variants; footnote criterion for connected graphs
    for g in family_le4:
        cp = chromatic_pair(g)
        bp = bivariate_pair(g)
        balanced = is_balanced(g)
        assert (cp.even == cp.odd) == balanced
        assert (bp.even == bp.odd) == balanced
        # y -> 0 specialization
        assert bp.even.substitute_y(0) == cp.even
        assert bp.odd.substitute_y(0) == cp.odd
        if component_stats(g).c == 1:
            assert (evaluate(cp.odd, 0, 0) == 0) == balanced
        # leading coefficients: -|E| at x^(n-1), negative-edge count at x^(n-2) y
        if g.n >= 1:
            assert bp.even.coeff(g.n - 1, 0) == -g.m
            assert bp.odd.coeff(g.n - 1, 0) == -g.m
        if g.n >= 2:
            nu = sum(1 for _, _, s in g.edges if s < 0)
            assert bp.even.coeff(g.n - 2, 1) == nu
            assert bp.odd.coeff(g.n - 2, 1) == nu
        # diagonal identity: E(g, x, x) is the chromatic polynomial of the
        # positive part's underlying graph
        assert diagonal(bp.even) == chromatic_pair(positive_part(g)).even
        # dominating-vertex difference formula where it applies
        for v in range(g.n):
            role = vertex_role(g, v)
            if role in (POSITIVE_DOMINATING, NEGATIVE_DOMINATING, UNIVERSAL_K1):
                rest = delete_vertex(g, v)
                if is_balanced(rest):
                    erest = bivariate_pair(rest).even
                    assert bp.even - bp.odd == (
                        erest.shifted(-1, 1) - erest.shifted(-1, 0)
                    ), (g, v)
    # switching invariance of the univariate pair: 200 random switch/relabel probes
    pool = [g for g in family_le4 if g.n >= 2]
    for _ in range(200):
        g = rng.choice(pool)
        X = {v for v in range(g.n) if rng.random() < 0.5}
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert chromatic_pair(relabel(switch(g, X), perm)) == chromatic_pair(g)
    # spot-check the y->0 specialization on random 5-vertex graphs as well
    five = []
    pairs5 = [(u, v) for u in range(5) for v in range(u + 1, 5)]
    for _ in range(200):
        edges = tuple(
            (u, v, rng.choice((1, -1))) for u, v in pairs5 if rng.random() < 0.55
        )
        five.append(SignedGraph(5, edges))
    for g in five:
        cp, bp = chromatic_pair(g), bivariate_pair(g)
        assert bp.even.substitute_y(0) == cp.even
        assert bp.odd.substitute_y(0) == cp.odd
    print("ACCEPTANCE 5 (theorem suite on the exhaustive <=4-vertex family): PASS")


def test_c06_closed_form_cross_validation():
    """Criterion 6: join_pair equals the subset expansion for l+m+n <= 6."""
    checked = 0
    for family in (1, 2, 3, 4):
        for l in range(7):
            for m in range(7 - l):
                for n in range(7 - l - m):
                    got = join_pair(family, l, m, n)
                    want = chromatic_pair(join_family_graph(family, l, m, n))
                    assert got == want, (family, l, m, n)
                    checked += 1
    assert checked == 4 * 84
    print("ACCEPTANCE 6 (closed-form join families, l+m+n <= 6): PASS")


def test_c07_identity_suite():
    """Criterion 7: identities i..ix for all parameters <= 4."""
    report = identity_suite(4)
    for r in report["identities"]:
        assert r["status"] == "pass", (r["name"], r["counterexample"])
    assert len(report["identities"]) == 9 and report["all_pass"]
    print("ACCEPTANCE 7 (identities i-ix, parameters <= 4): PASS")


def test_c08_threshold_recursion_consistency():
    """Criterion 8: recursion equals subset expansion for all codes of length <= 5.

    `bivariate_pair` peels a threshold graph down to one vertex by the
    deletion recursion; `_subset_bivariate_pair` tallies the whole graph."""
    count = 0
    for length in range(6):
        for code in itertools.product((-1, 0, 1), repeat=length):
            g = threshold_graph(code)
            assert bivariate_pair(g) == _subset_bivariate_pair(g), code
            count += 1
    assert count == 364  # 1 + 3 + 9 + 27 + 81 + 243
    print("ACCEPTANCE 8 (threshold recursion vs expansion, codes <= 5): PASS")


def test_c09_conjecture_verification_desk_scale():
    """Criterion 9: all three conjecture verifiers pass at desk scale."""
    r1 = verify_conj_cochromatic_complete(6)
    assert r1["status"] == "pass", r1["details"]
    assert r1["details"]["classes_checked"]["6"] == 16
    r2 = verify_conj_threshold(8)
    assert r2["status"] == "pass", r2["details"]
    assert r2["details"]["codes_checked"]["8"] == 6561
    r3 = verify_conj_complete_bivariate(6)
    assert r3["status"] == "pass", r3["details"]
    assert [r3["details"]["class_counts"][str(n)] for n in range(7)] == [1, 1, 2, 4, 11, 34, 156]
    assert r3["details"]["class_counts"] == r3["details"]["expected_class_counts"]
    print("ACCEPTANCE 9 (conjectures at scales 6/8/6): PASS")


def test_c09_complete_graph_conjectures_at_stretch_scale():
    """Both complete-graph verifiers pass at their cap, n = 7: the even
    bivariate polynomial separates the 1,044 iso classes of signed K_7
    (A000088), and the chromatic pair its 54 switching classes (A002854)."""
    r1 = verify_conj_complete_bivariate(7)
    assert r1["status"] == "pass", r1["details"]
    assert [r1["details"]["class_counts"][str(n)] for n in range(8)] == [
        1, 1, 2, 4, 11, 34, 156, 1044
    ]
    r2 = verify_conj_cochromatic_complete(7)
    assert r2["status"] == "pass", r2["details"]
    assert [r2["details"]["classes_checked"][str(n)] for n in range(8)] == [
        1, 1, 1, 2, 3, 7, 16, 54
    ]


def test_c10_cochromatic_rediscovery():
    """Criterion 10: the gem search finds exactly the published co-chromatic pair."""
    gem = all_positive(fixture("G1"))
    report = search_cochromatic(gem)
    assert report["status"] == "pass"
    groups = report["details"]["cochromatic_groups"]
    assert len(groups) == 1
    group = groups[0]
    assert len(group["classes"]) == 2
    assert group["pair"] == pair_to_json(reference.GEM_PAIR)
    # the two classes are those of the published graphs, in some order
    members = [graph_from_mask(gem, c["mask"]) for c in group["classes"]]
    hits = {
        name: sum(find_switching_isomorphism(m, fixture(name)) is not None for m in members)
        for name in ("G1", "G2")
    }
    assert hits == {"G1": 1, "G2": 1}
    for cert in group["non_switching_isomorphism"]:
        assert cert["isomorphism_found"] is False
        assert cert["switchings_tried"] == 16
    print("ACCEPTANCE 10 (gem co-chromatic rediscovery, certified): PASS")
