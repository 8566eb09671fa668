"""Verifier payloads at small scale; acceptance runs the full scales."""

import itertools
import json
import random
import re

import pytest
from oracles import (
    K8_COCHROMATIC_GROUPS,
    count_colourings_oracle,
    diagonal,
    evaluate,
    oracle_certificate,
    relabel,
)

from signedchrom import reference
from signedchrom.chromatic import bivariate_pair, chromatic_pair
from signedchrom.equivalence import (
    enumerate_classes,
    find_switching_isomorphism,
    free_switching_vertices,
    graph_from_mask,
)
from signedchrom.errors import BudgetExceededError
from signedchrom.graphs import SignedGraph, all_positive, complete_graph, fixture, switch
from signedchrom.poly import bipoly_to_json, pair_to_json
from signedchrom.verify import (
    MAX_BIVARIATE_N,
    UNLABELLED_GRAPH_COUNTS,
    non_switching_isomorphism_certificate,
    reproduce_tables,
    search_cochromatic,
    verify_conj_cochromatic_complete,
    verify_conj_complete_bivariate,
    verify_conj_threshold,
)


def test_search_cochromatic_gem():
    gem = all_positive(fixture("G1"))
    report = search_cochromatic(gem)
    assert report["status"] == "pass"
    groups = report["details"]["cochromatic_groups"]
    assert len(groups) == 1
    group = groups[0]
    assert len(group["classes"]) == 2
    assert group["pair"] == pair_to_json(chromatic_pair(fixture("G1")))
    cert = group["non_switching_isomorphism"][0]
    assert cert["isomorphism_found"] is False
    assert cert["switchings_tried"] == 16  # 2^(5-1)


def test_search_cochromatic_k4_free():
    report = search_cochromatic(complete_graph(4, 1))
    assert report["status"] == "pass"
    assert report["details"]["cochromatic_groups"] == []


def test_search_cochromatic_petersen_free():
    report = search_cochromatic(fixture("petersen"))
    assert report["status"] == "pass"
    assert report["details"]["class_count"] == 6
    assert report["details"]["cochromatic_groups"] == []


def test_certificate_reports_witness_when_equivalent():
    cert = non_switching_isomorphism_certificate(
        complete_graph(2, -1), complete_graph(2, 1)
    )
    assert cert["isomorphism_found"] is True
    assert "witness" in cert


# -- the certificate against a switch-and-search loop ----------------------------


def signed_graphs_up_to_iso(max_n):
    """One signed graph per isomorphism class on at most max_n vertices,
    edgeless, disconnected and isolated-vertex ones included."""
    for n in range(max_n + 1):
        slots = list(itertools.combinations(range(n), 2))
        perms = list(itertools.permutations(range(n)))
        seen = set()
        for signs in itertools.product((0, 1, -1), repeat=len(slots)):
            g = SignedGraph(n, tuple((u, v, s) for (u, v), s in zip(slots, signs) if s))
            key = min(relabel(g, p).edges for p in perms)
            if key not in seen:
                seen.add(key)
                yield g


def assert_certificate_agrees(g1, g2):
    cert = non_switching_isomorphism_certificate(g1, g2)
    want = oracle_certificate(g1, g2)
    assert cert["isomorphism_found"] == want["isomorphism_found"], (g1, g2)
    free = free_switching_vertices(g2)
    if cert["isomorphism_found"]:
        X, perm = cert["witness"]["X"], cert["witness"]["perm"]
        assert X == sorted(set(X)) and set(X) <= set(free)
        assert cert["switchings_tried"] == 1
        assert relabel(g1, perm) == switch(g2, X), (g1, g2)
    else:
        assert cert == want
        assert cert["switchings_tried"] == 1 << len(free)
    return cert["isomorphism_found"]


def test_certificate_matches_oracle_on_all_graphs_up_to_4_vertices():
    """Whether a switching of g2 is isomorphic to g1 depends only on the
    isomorphism classes of the two, so one graph per class covers every
    pair; pairs whose n or m differ are included."""
    graphs = list(signed_graphs_up_to_iso(4))
    assert len(graphs) == 1 + 1 + 3 + 10 + 66
    found = sum(assert_certificate_agrees(g1, g2) for g1 in graphs for g2 in graphs)
    assert found > len(graphs)  # each graph matches itself and its other switchings


def test_certificate_matches_oracle_on_seeded_5_vertex_pairs():
    """Labelled pairs on 5 vertices: half are switched, relabelled copies,
    half of those with one edge sign flipped, and the rest independent."""
    rng = random.Random(13)
    slots = list(itertools.combinations(range(5), 2))

    def random_graph():
        chosen = [(u, v) for u, v in slots if rng.random() < 0.5]
        return SignedGraph(5, tuple((u, v, rng.choice((1, -1))) for u, v in chosen))

    found = 0
    for i in range(240):
        g1 = random_graph()
        if i % 2:
            g2 = random_graph()
        else:
            perm = list(range(5))
            rng.shuffle(perm)
            g2 = relabel(switch(g1, [v for v in range(5) if rng.random() < 0.5]), perm)
            if i % 4 and g2.m:
                edges = list(g2.edges)
                k = rng.randrange(len(edges))
                u, v, sgn = edges[k]
                edges[k] = (u, v, -sgn)
                g2 = SignedGraph(5, tuple(edges))
        found += assert_certificate_agrees(g1, g2)
    assert 60 <= found < 240


def test_certificate_and_search_on_all_pairs_of_k6_switching_classes():
    """Signed K_6 is dense and every vertex has the same degree, so only the
    negative-triangle counts prune the search.  Every ordered pair of its 16
    switching classes agrees with the switch-and-search loop, and a switched,
    relabelled copy of each class gives a witness that re-checks."""
    reps = enumerate_classes(complete_graph(6, 1), "switching_iso").representatives
    assert len(reps) == 16
    assert sum(assert_certificate_agrees(g1, g2) for g1 in reps for g2 in reps) == 16
    rng = random.Random(6)
    for g in reps:
        for _ in range(4):
            perm = list(range(6))
            rng.shuffle(perm)
            h = relabel(switch(g, [v for v in range(6) if rng.random() < 0.5]), perm)
            X, pw = find_switching_isomorphism(g, h)
            assert relabel(g, pw) == switch(h, X)


def test_certificate_refuses_more_than_12_vertices():
    big, small = SignedGraph(13, ((0, 1, -1),)), SignedGraph(12)
    for g1, g2 in ((big, big), (big, small), (small, big)):
        with pytest.raises(BudgetExceededError) as refusal:
            non_switching_isomorphism_certificate(g1, g2)
        assert str(refusal.value) == "isomorphism search limited to 12 vertices"


def test_search_cochromatic_matches_the_oracle_certificate(monkeypatch):
    """Seeded connected graphs with co-chromatic groups give the same report
    with the certificate and with the switch-and-search loop."""
    from signedchrom import verify

    rng = random.Random(29)
    graphs = []
    while len(graphs) < 3:
        n = rng.randrange(5, 8)
        slots = list(itertools.combinations(range(n), 2))
        chosen = rng.sample(slots, rng.randrange(n, 11))
        g = SignedGraph(n, tuple((u, v, 1) for u, v in chosen))
        if len(free_switching_vertices(g)) < n - 1:  # not connected
            continue
        if search_cochromatic(g)["details"]["cochromatic_groups"]:
            graphs.append(g)
    reports = [search_cochromatic(g) for g in graphs]
    monkeypatch.setattr(verify, "non_switching_isomorphism_certificate", oracle_certificate)
    assert [search_cochromatic(g) for g in graphs] == reports


def test_conjecture_cochromatic_small():
    report = verify_conj_cochromatic_complete(4)
    assert report["status"] == "pass"
    assert report["details"]["classes_checked"] == {"0": 1, "1": 1, "2": 1, "3": 2, "4": 3}
    with pytest.raises(BudgetExceededError):
        verify_conj_cochromatic_complete(8)


def test_conjecture_cochromatic_counterexample(monkeypatch, capsys):
    """With one pair for every class, K_3's two classes are the first group."""
    from signedchrom import verify
    from signedchrom.cli import main
    from signedchrom.poly import BiPoly, ChromaticPair

    same = ChromaticPair(BiPoly.one(), BiPoly.one())
    monkeypatch.setattr(verify, "chromatic_pairs", lambda graphs: [same] * len(graphs))
    report = verify_conj_cochromatic_complete(4)
    assert report["status"] == "counterexample"
    assert report["details"]["classes_checked"] == {"0": 1, "1": 1, "2": 1, "3": 2}
    bad = report["details"]["counterexample"]
    assert bad["n"] == 3
    assert len(bad["classes"]) == 2
    assert bad["pair"] == pair_to_json(same)
    (cert,) = bad["non_switching_isomorphism"]
    assert cert["switchings_tried"] == 4  # 2^(3-1)
    assert cert["isomorphism_found"] is False
    assert main(["verify", "--conjecture", "cochromatic-complete", "--max", "4"]) == 1
    assert '"status": "counterexample"' in capsys.readouterr().out


def test_conjecture_threshold_small():
    report = verify_conj_threshold(3)
    assert report["status"] == "pass"
    assert report["details"]["codes_checked"]["3"] == 27
    with pytest.raises(BudgetExceededError):
        verify_conj_threshold(13)


def test_threshold_fingerprint_agrees_with_exact(monkeypatch):
    """Exact keys to length 5, lemma L from length 3 (the default), and lemma
    L from length 0 all pass every code."""
    from signedchrom import verify

    want = {str(d): 3**d for d in range(6)}
    report = verify_conj_threshold(5)
    assert report["status"] == "pass"
    assert report["details"] == {
        "codes_checked": want,
        "method": {"exact_to": 3, "fingerprint_from": 4},
    }
    monkeypatch.setattr(verify, "_EXACT_THRESHOLD_LIMIT", 5)
    report = verify_conj_threshold(5)
    assert report["status"] == "pass"
    assert report["details"] == {"codes_checked": want, "method": {"exact_to": 5}}
    monkeypatch.setattr(verify, "_EXACT_THRESHOLD_LIMIT", 0)
    report = verify_conj_threshold(5)
    assert report["status"] == "pass"
    assert report["details"] == {
        "codes_checked": want,
        "method": {"exact_to": 0, "fingerprint_from": 1},
    }


def _merged_step(monkeypatch):
    """Make the scan read code entry -1 as 1, so codes differing only at +-1
    entries get equal even polynomials; returns the patched step."""
    from signedchrom import verify

    step = verify.threshold_even_step

    def merged(entry, even):
        return step(1 if entry == -1 else entry, even)

    monkeypatch.setattr(verify, "threshold_even_step", merged)
    return merged


def _assert_merged_clash(bad, merged):
    from signedchrom.poly import BiPoly

    assert bad is not None
    first, second = bad["codes"]
    assert first != second and len(first) == len(second)
    assert all(a == b or {a, b} == {-1, 1} for a, b in zip(first, second))
    even = BiPoly.x()
    for entry in first:
        even = merged(entry, even)
    assert bad["even"] == bipoly_to_json(even)


def test_exact_threshold_keys_detect_a_clash(monkeypatch):
    merged = _merged_step(monkeypatch)
    for n_max in (1, 2, 3):
        report = verify_conj_threshold(n_max)
        assert report["status"] == "counterexample"
        assert report["details"]["method"] == {"exact_to": n_max}
        assert report["details"]["codes_checked"] == {"0": 1, "1": 3}
        _assert_merged_clash(report["details"]["counterexample"], merged)


# -- the decode rule and lemma L, exactly ------------------------------------------


def _threshold_evens(max_length):
    """The exact even polynomial of every code of length <= max_length."""
    from signedchrom.chromatic import threshold_even_step
    from signedchrom.poly import BiPoly

    evens, level = {(): BiPoly.x()}, [()]
    for _ in range(max_length):
        level = [code + (a,) for code in level for a in (-1, 0, 1)]
        for code in level:
            evens[code] = threshold_even_step(code[-1], evens[code[:-1]])
    return evens


def _at_x_zero(p):
    """p(0, y) as a map y_degree -> coefficient."""
    return {j: c for (i, j), c in p.items() if i == 0}


def _lemma_l_holds(p):
    return _at_x_zero(p) != _at_x_zero(p.shifted(-1, 1))


def _last_entry(even):
    """Rule (b)-(d): 1 if E(t, t) has a term in t, else 0 if E(0, y) = 0, else -1."""
    if diagonal(even).coeff(1, 0):
        return 1
    return -1 if _at_x_zero(even) else 0


def _inverse_step(entry, even):
    """The P with threshold_even_step(entry, P) == even: divide by x for entry
    0; for +-1 solve from the top degree down, since each step maps P's top
    homogeneous part to x times it (fact (a))."""
    from signedchrom.chromatic import threshold_even_step
    from signedchrom.poly import BiPoly

    def over_x(terms):
        assert all(i >= 1 for (i, _), _ in terms), "not divisible by x"
        return BiPoly({(i - 1, j): c for (i, j), c in terms})

    if entry == 0:
        return over_x(even.items())
    prefix, residual = BiPoly.zero(), even
    while not residual.is_zero():
        top = max(i + j for (i, j), _ in residual.items())
        part = over_x([((i, j), c) for (i, j), c in residual.items() if i + j == top])
        prefix += part
        residual -= threshold_even_step(entry, part)
        assert residual.is_zero() or max(i + j for (i, j), _ in residual.items()) < top
    return prefix


def test_threshold_codes_decode_by_the_rule():
    """Every code of length <= 7 decodes to its last entry and its prefix's
    even polynomial.  Its prefix is a shorter code of the same family, so by
    induction every code decodes back to x, entry by entry."""
    from signedchrom.poly import BiPoly

    evens = _threshold_evens(7)
    assert len(evens) == 3280  # 1 + 3 + ... + 3^7
    assert evens[()] == BiPoly.x()
    for code, even in evens.items():
        if code:
            entry = _last_entry(even)
            assert entry == code[-1], code
            assert _inverse_step(entry, even) == evens[code[:-1]], code


def test_lemma_l_holds_exactly_on_short_codes():
    """L on every code of length <= 7, with no fingerprint."""
    evens = _threshold_evens(7)
    failures = [code for code, even in evens.items() if not _lemma_l_holds(even)]
    assert failures == []


def test_lemma_l_holds_on_small_signed_graphs():
    """L on the even polynomial of every signed graph on 1..5 vertices, one per
    isomorphism class: each underlying graph (the negative edges of an iso
    class of K_n) with each iso class of its signatures."""
    from signedchrom.equivalence import enumerate_classes

    classes = 0
    for n in range(1, 6):
        for rep in enumerate_classes(complete_graph(n, 1), "iso").representatives:
            underlying = SignedGraph(n, [(u, v, 1) for u, v, s in rep.edges if s < 0])
            for g in enumerate_classes(underlying, "iso").representatives:
                assert _lemma_l_holds(bivariate_pair(g).even), g
                classes += 1
    assert classes == 1 + 3 + 10 + 66 + 792  # A004102


# -- the grid of exact values ----------------------------------------------------

# The distinctness oracle's fingerprints: values mod a prime at (x0 - u - v,
# y0 + u - v).  At x0 = 0 every code ending in 0 has fingerprint 0 (fact (c)),
# so the oracle anchors off the axis.
_ORACLE_MOD = (1 << 31) - 1
_ORACLE_X0 = 1122334455667788990
_ORACLE_Y0 = 987654321987654321


def _list_scan(n_max, mod, x0, y0):
    """The fingerprint grid one Python int per code: yields (d, grid) with
    grid[u][v] the values at (x0 - u - v, y0 + u - v) of every code of length
    d in index order, for u + v <= n_max - d."""
    x0, y0 = x0 % mod, y0 % mod
    cols = [[[(x0 - u - v) % mod] for v in range(n_max + 1 - u)] for u in range(n_max + 1)]
    for d in range(n_max + 1):
        yield d, cols
        child = []
        for u in range(n_max - d):
            row = []
            for v in range(n_max - d - u):
                x, y = (x0 - u - v) % mod, (y0 + u - v) % mod
                w = (x - y) % mod
                here, right, up = cols[u][v], cols[u + 1][v], cols[u][v + 1]
                vals = [(y * p + w * r) % mod for p, r in zip(here, right)]
                vals.extend([x * p % mod for p in here])
                vals.extend([(y * q + w * r) % mod for q, r in zip(up, right)])
                row.append(vals)
            child.append(row)
        cols = child


def _threshold_even(index, length):
    """The even polynomial of one code, rebuilt from its index through the
    verifier's own step, which a test may patch."""
    from signedchrom import verify
    from signedchrom.poly import BiPoly

    even = BiPoly.x()
    for a in verify._threshold_code(index, length):
        even = verify.threshold_even_step(a, even)
    return even


def _distinctness_scan(n_max, mod=_ORACLE_MOD):
    """The verifier before lemma L, kept as its oracle: exact keys up to
    exact_to, then all 3^d fingerprints of each longer length mod `mod` at
    (_ORACLE_X0, _ORACLE_Y0), with the codes of colliding fingerprints
    rebuilt and compared exactly.  Returns (status, details) as the verifier
    reports them."""
    from signedchrom import verify
    from signedchrom.poly import BiPoly

    exact_to = min(n_max, verify._EXACT_THRESHOLD_LIMIT)
    method = {"exact_to": exact_to}
    if n_max > exact_to:
        method["fingerprint_from"] = exact_to + 1
    checked, evens, bad = {}, [BiPoly.x()], None
    for d, cols in _list_scan(n_max, mod, _ORACLE_X0, _ORACLE_Y0):
        fps = cols[0][0]
        checked[str(d)] = len(fps)
        if d <= exact_to:
            if d:
                evens = [verify.threshold_even_step(a, p) for a in (-1, 0, 1) for p in evens]
            bad = verify._threshold_clash(d, range(len(evens)), evens)
        elif len(set(fps)) != len(fps):
            collided = sorted(i for members in verify._groups(fps) for i in members)
            evens = [_threshold_even(i, d) for i in collided]
            bad = verify._threshold_clash(d, collided, evens)
        if bad is not None:
            break
    details = {"codes_checked": checked, "method": method}
    if bad is not None:
        details["counterexample"] = bad
    return ("counterexample" if bad else "pass"), details


def test_lemma_l_verdicts_match_the_distinctness_scan(monkeypatch):
    """Every n_max to 10, and to 6 with the exact prefix cut to 0 and 3 and
    kept at 6, the length it had before L was checked from 3."""
    from signedchrom import verify

    for n_max in range(11):
        report = verify_conj_threshold(n_max)
        assert (report["status"], report["details"]) == _distinctness_scan(n_max), n_max
    for limit in (0, 3, 6):
        monkeypatch.setattr(verify, "_EXACT_THRESHOLD_LIMIT", limit)
        for n_max in range(7):
            report = verify_conj_threshold(n_max)
            want = _distinctness_scan(n_max)
            assert (report["status"], report["details"]) == want, (limit, n_max)


def test_fingerprint_collisions_are_rechecked_exactly(monkeypatch):
    """The distinctness oracle: with modulus 1 every fingerprint collides, so
    only the exact re-check tells codes apart.  A merged step breaks facts
    (b)-(d) as well, so lemma L alone could not catch its clash."""
    from signedchrom import verify

    monkeypatch.setattr(verify, "_EXACT_THRESHOLD_LIMIT", 0)
    assert _distinctness_scan(5, mod=1)[0] == "pass"

    merged = _merged_step(monkeypatch)
    status, details = _distinctness_scan(3, mod=1)
    assert status == "counterexample"
    assert details["method"] == {"exact_to": 0, "fingerprint_from": 1}
    _assert_merged_clash(details["counterexample"], merged)


def _slots(parts, count, width):
    """The `count` values in a point's packed parts, in index order: each
    balanced `width`-bit slot read back by adding 2^(width - 1) to it."""
    size, nbytes, half = count // len(parts), width // 8, 1 << (width - 1)
    top = int.from_bytes((bytes(nbytes - 1) + b"\x80") * size, "little")
    values = []
    for part in parts:
        raw = (part + top).to_bytes(size * nbytes, "little")
        values += [int.from_bytes(raw[i:i + nbytes], "little") - half
                   for i in range(0, len(raw), nbytes)]
    return values


def _planted_zero(monkeypatch, length, *indices):
    """Make the grid yield 0 at (-1, 1) for the codes at `indices` of `length`:
    subtracting a slot's value from its packed part clears that slot alone."""
    from signedchrom import verify

    grid = verify._threshold_grid

    def planted(last, width):
        for d, rows in grid(last, width):
            if d == length:
                parts = rows[0][0]
                values = _slots(parts, 3**length, width)
                size = 3**length // len(parts)
                for index in indices:
                    a, i = divmod(index, size)
                    parts[a] -= values[index] << (i * width)
            yield d, rows

    monkeypatch.setattr(verify, "_threshold_grid", planted)


def test_a_failure_of_lemma_l_is_refused(monkeypatch, capsys):
    """A zero at (-1, 1) leaves L open for its code, and with it the verdict:
    the verifier raises, and the CLI exits 2 with nothing on stdout.  The
    zero sits at length exact_to = 3, the first length whose L is checked."""
    from signedchrom.cli import main
    from signedchrom.errors import SignedChromError

    _planted_zero(monkeypatch, 3, 5)  # the code (1, 0, -1)
    with pytest.raises(SignedChromError, match=r"lemma L is undecided for threshold code \[1, 0, -1\]"):
        verify_conj_threshold(4)
    assert verify_conj_threshold(3)["status"] == "pass"  # L is checked below n_max only
    assert main(["verify", "--conjecture", "threshold", "--max", "4"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: lemma L is undecided for threshold code [1, 0, -1]" in err


def test_a_planted_zero_is_found_in_every_slot(monkeypatch):
    """The zero test finds a planted zero at the first, a middle and the last
    slot of each part, and names its code; of two zeros, the first."""
    from signedchrom import verify
    from signedchrom.errors import SignedChromError

    for indices in [(0,), (1,), (26,), (27,), (40,), (53,), (54,), (80,), (3, 7), (30, 60)]:
        _planted_zero(monkeypatch, 4, *indices)
        code = list(verify._threshold_code(indices[0], 4))
        with pytest.raises(SignedChromError, match=f"code {re.escape(str(code))}:"):
            verify_conj_threshold(5)
        monkeypatch.undo()


def test_grid_slots_match_exact_evaluation():
    """Every code of length <= 6 has its even polynomial's value at (-1, 1) in
    its slot and E(0, 0) = 0 (fact (e)); index i spells its code in base 3,
    least significant first."""
    from signedchrom.verify import _slot_bits, _threshold_code, _threshold_grid

    count, width = 0, _slot_bits(6)
    for length, rows in _threshold_grid(6, width):
        codes = [tuple(reversed(p)) for p in itertools.product((-1, 0, 1), repeat=length)]
        assert [_threshold_code(i, length) for i in range(len(codes))] == codes
        assert len(rows[0][0]) == (3 if length else 1)
        for index, (value, code) in enumerate(zip(_slots(rows[0][0], len(codes), width), codes)):
            even = _threshold_even(index, length)
            assert value == evaluate(even, -1, 1), code
            assert evaluate(even, 0, 0) == 0, code
            count += 1
    assert count == 1093  # 1 + 3 + ... + 729


def test_every_grid_value_fits_its_slot():
    """At the largest scale, every value at every grid point of every length,
    read from 128-bit slots, is within B(last) = (last + 1) 3^last last! and
    below 2^(W - 1) for the verifier's width W, the least multiple of 8 above
    B's bit length: 48 bits, where the largest value has 35."""
    import math

    from signedchrom.verify import MAX_THRESHOLD_N, _slot_bits, _threshold_grid

    last = MAX_THRESHOLD_N - 1
    bound = (last + 1) * 3**last * math.factorial(last)
    width = _slot_bits(last)
    assert width % 8 == 0 and width - 8 <= bound.bit_length() < width
    assert width == 48
    largest = 0
    for d, rows in _threshold_grid(last, 128):
        for row in rows:
            for parts in row:
                largest = max(largest, *map(abs, _slots(parts, 3**d, 128)))
    assert largest <= bound and largest < 1 << (width - 1)
    assert largest.bit_length() == 35


def test_packed_fingerprints_match_the_list_scan():
    """The packed values at (-1, 1), at every length the verifier reads them
    and for every n_max to 10, against the one-int-per-code list scan at the
    anchor (0, 0) mod 2^61 - 1, which exceeds twice every value."""
    from signedchrom import verify

    mod = (1 << 61) - 1
    for n_max in range(1, 11):
        want = [(d, cols[1][0]) for d, cols in _list_scan(n_max, mod, 0, 0) if d < n_max]
        width = verify._slot_bits(n_max - 1)
        got = [
            (d, [v % mod for v in _slots(rows[0][0], 3**d, width)])
            for d, rows in verify._threshold_grid(n_max - 1, width)
        ]
        assert got == want, n_max


def test_conjecture_threshold_stretch():
    """The full stretch scale, which only the benchmark ran before, within its
    memory: the traced peak is about 5 MB with exact values in 48-bit slots
    (8.5 MB with residues mod 2^31 - 1 in 64-bit slots, and the distinctness
    scan's was 59 MB)."""
    import tracemalloc

    tracemalloc.start()
    try:
        report = verify_conj_threshold(12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["status"] == "pass"
    assert report["details"] == {
        "codes_checked": {str(d): 3**d for d in range(13)},
        "method": {"exact_to": 3, "fingerprint_from": 4},
    }
    assert peak < 12 << 20, peak


def test_conjecture_bivariate_small():
    report = verify_conj_complete_bivariate(4)
    assert report["status"] == "pass"
    assert report["details"]["class_counts"] == {"0": 1, "1": 1, "2": 2, "3": 4, "4": 11}
    assert report["details"]["class_counts"] == report["details"]["expected_class_counts"]
    assert len(UNLABELLED_GRAPH_COUNTS) == MAX_BIVARIATE_N + 1  # a key for every allowed n
    with pytest.raises(BudgetExceededError):
        verify_conj_complete_bivariate(8)


def test_conjecture_bivariate_counterexample(monkeypatch, capsys):
    """With one pair for every class, K_2's two classes are the first clash."""
    from signedchrom import verify
    from signedchrom.cli import main

    same = bivariate_pair(fixture("G1"))
    monkeypatch.setattr(verify, "bivariate_pair", lambda g: same)
    report = verify_conj_complete_bivariate(4)
    assert report["status"] == "counterexample"
    assert report["details"]["class_counts"] == {"0": 1, "1": 1, "2": 2}
    bad = report["details"]["counterexample"]
    assert bad["n"] == 2
    assert [g["mask"] for g in bad["graphs"]] == [0, 1]
    assert bad["even"] == bipoly_to_json(same.even)
    assert main(["verify", "--conjecture", "bivariate-complete", "--max", "4"]) == 1
    assert '"status": "counterexample"' in capsys.readouterr().out


TABLE_CHECK_NAMES = [
    "complete_table_K3", "complete_table_K4", "complete_table_K5", "petersen_table",
    "gem_G1_pair", "gem_G2_pair", "sigma1_pair", "sigma2_pair",
    "gem_G1_bivariate", "gem_G2_bivariate", "sigma1_bivariate", "sigma2_bivariate",
    "sigma3_even_bivariate", "sigma4_even_bivariate", "sigma3_odd_bivariate",
    "sigma4_odd_bivariate", "sigma34_odd_equal_even_distinct",
    "sigma3_even", "sigma4_even", "sigma3_odd", "sigma4_odd",
    "plus_K2_bivariate", "minus_K2_bivariate",
    "threshold_example_bivariate", "threshold_example_even_specialized",
    "threshold_example_odd_specialized", "threshold_example_subset_expansion",
]


def test_reproduce_tables_renders_failures(monkeypatch):
    """A wrong displayed pair fails its rows with computed/expected; so does a
    wrong univariate polynomial, shown as dense coefficient strings; a table
    row dropped fails the multiset row with missing/unexpected."""
    assert [c["name"] for c in reproduce_tables()["details"]["checks"]] == TABLE_CHECK_NAMES
    gem, dropped = reference.GEM_PAIR, reference.PETERSEN_TABLE[0]
    monkeypatch.setattr(reference, "GEM_PAIR", reference.SIGMA12_PAIR)
    monkeypatch.setattr(reference, "SIGMA3_EVEN", reference.SIGMA4_EVEN)
    monkeypatch.setattr(reference, "PETERSEN_TABLE", reference.PETERSEN_TABLE[1:])
    report = reproduce_tables()
    assert report["status"] == "counterexample"
    checks = report["details"]["checks"]
    assert [c["name"] for c in checks] == TABLE_CHECK_NAMES
    failed = {c["name"]: c for c in checks if c["status"] != "pass"}
    assert set(failed) == {"gem_G1_pair", "gem_G2_pair", "petersen_table", "sigma3_even"}
    for name in ("gem_G1_pair", "gem_G2_pair"):
        assert failed[name] == {
            "name": name,
            "status": "fail",
            "computed": pair_to_json(gem),
            "expected": pair_to_json(reference.SIGMA12_PAIR),
        }
    assert failed["sigma3_even"] == {
        "name": "sigma3_even",
        "status": "fail",
        "computed": ["0", "16", "-28", "20", "-7", "1"],
        "expected": ["0", "14", "-27", "20", "-7", "1"],
    }
    assert failed["petersen_table"] == {
        "name": "petersen_table",
        "status": "fail",
        "missing": [],
        "unexpected": [json.dumps(pair_to_json(dropped), separators=(",", ":"))],
        "classes": 6,
    }
    assert [list(failed[name]) for name in ("gem_G1_pair", "petersen_table")] == [
        ["name", "status", "computed", "expected"],
        ["name", "status", "missing", "unexpected", "classes"],
    ]


def test_checking_functions_return_plain_data():
    """Each checking function returns the JSON data its command prints: a
    round trip through `json` gives the same dict (no tuple, no int key, no
    object), with exactly the four top-level keys."""
    payloads = [
        search_cochromatic(all_positive(fixture("G1"))),
        verify_conj_cochromatic_complete(4),
        verify_conj_threshold(5),
        verify_conj_complete_bivariate(4),
        reproduce_tables(),
    ]
    for payload in payloads:
        assert json.loads(json.dumps(payload)) == payload, payload["target"]
        assert list(payload) == ["target", "scale", "status", "details"]
        assert payload["status"] in ("pass", "counterexample")


def test_budget_exceeded_status_inside_search():
    """A refusal inside the search raises; it is not a report status."""
    with pytest.raises(BudgetExceededError, match="28 normal-form bits"):
        search_cochromatic(complete_graph(9, 1))  # 36 - 9 + 1 = 28 bits


def test_search_cochromatic_k8_groups():
    """K_8 is the first complete graph with co-chromatic switching classes."""
    report = search_cochromatic(complete_graph(8, 1))
    assert report["status"] == "pass"
    assert report["details"]["class_count"] == 243  # A002854
    groups = report["details"]["cochromatic_groups"]
    masks = tuple(tuple(c["mask"] for c in group["classes"]) for group in groups)
    assert masks == K8_COCHROMATIC_GROUPS
    for group in groups:
        for cert in group["non_switching_isomorphism"]:
            assert cert["isomorphism_found"] is False
            assert cert["switchings_tried"] == 128  # 2^(8-1)
    k8 = complete_graph(8, 1)
    for group in K8_COCHROMATIC_GROUPS:
        evens = {bivariate_pair(graph_from_mask(k8, mask)).even for mask in group}
        assert len(evens) == len(group)  # the bivariate pair still separates them
    assert evaluate(chromatic_pair(graph_from_mask(k8, 9110)).odd, 5, 0) == 80
    for mask in (9110, 9115):
        assert count_colourings_oracle(graph_from_mask(k8, mask), 5) == 80
