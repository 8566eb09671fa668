"""Verification harness: conjecture checks, co-chromatic search, table replay.

Every entry point returns a VerificationReport whose details are plain
JSON-serializable data, so a failed run carries the concrete graphs and
polynomials a referee would need to re-check the outcome by hand.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from itertools import combinations

from .chromatic import (
    bivariate_pair,
    chromatic_pair,
    chromatic_pairs,
    threshold_bivariate,
    threshold_even_step,
)
from .equivalence import (
    ClassInventory,
    _adjacency,
    _check_search_size,
    _profiles,
    _search_matrices,
    enumerate_classes,
    free_switching_vertices,
)
from .errors import BudgetExceededError, SignedChromError
from .graphs import (
    SignedGraph,
    complete_graph,
    fixture,
    graph_to_dict,
    threshold_graph,
)
from .poly import BiPoly, bipoly_to_json, pair_to_json, unipoly_to_json
from . import reference

MAX_COCHROMATIC_N = 7
MAX_THRESHOLD_N = 12
MAX_BIVARIATE_N = 7
_EXACT_THRESHOLD_LIMIT = 6  # longer codes are compared by fingerprint first

_FP_MOD = (1 << 61) - 1
_FP_X0 = 1122334455667788990 % _FP_MOD
_FP_Y0 = 987654321987654321 % _FP_MOD
_FP_SLOT = 128  # bits per fingerprint in the packed grid (see the threshold layout)


class VerificationReport:
    __slots__ = ("target", "scale", "status", "details", "elapsed")

    def __init__(self, target: str, scale: int | None, status: str,
                 details: dict, elapsed: float) -> None:
        self.target = target
        self.scale = scale
        self.status = status  # "pass" | "counterexample"; a refusal raises instead
        self.details = details
        self.elapsed = elapsed

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "scale": self.scale,
            "status": self.status,
            "details": self.details,
        }

    def summary(self) -> str:
        return f"{self.target} (scale {self.scale}): {self.status.upper()}"


def _groups(keys) -> list[list[int]]:
    """The index groups of equal keys with two or more members, in order of
    their first member."""
    by_key: dict = {}
    for i, key in enumerate(keys):
        by_key.setdefault(key, []).append(i)
    return [members for members in by_key.values() if len(members) > 1]


def _class_entry(inventory: ClassInventory, idx: int) -> dict:
    g = inventory.representatives[idx]
    return {
        "mask": inventory.representative_masks[idx],
        "orbit_size": inventory.orbit_sizes[idx],
        **graph_to_dict(g),
    }


def non_switching_isomorphism_certificate(g1: SignedGraph, g2: SignedGraph) -> dict:
    """Try every switching of g2 against g1; record the failure.

    The switchings X run over all 2^(n-c) subsets of g2's free vertices
    (switching a whole component changes nothing), and each gets the
    decision find_isomorphism(g1, switch(g2, X)) gives: the sign-degree
    profile check, then the backtracking search.  The subsets are walked in
    Gray-code order on one sign matrix of g2: step k switches free[j] for
    the lowest set bit j of k, which negates that vertex's row and column,
    swaps its positive and negative degrees and moves each neighbour's by
    one.  The search runs only where the sorted profiles equal g1's.  On
    failure every switching has been tried; on success the witness
    satisfies relabel(g1, perm) == switch(g2, X).
    """
    _check_search_size(g1, g2, "isomorphism")
    free = free_switching_vertices(g2)
    total = 1 << len(free)
    if g1.n != g2.n or g1.m != g2.m:
        return {"switchings_tried": total, "isomorphism_found": False}
    adj1, prof1 = _adjacency(g1), _profiles(g1)
    want = sorted(prof1)
    adj2 = _adjacency(g2)
    pos = [row.count(1) for row in adj2]
    neg = [row.count(-1) for row in adj2]
    deg = [p + q for p, q in zip(pos, neg)]
    nbrs = [[u for u, s in enumerate(row) if s] for row in adj2]
    switched = [False] * g2.n
    for k in range(total):
        if k:
            w = free[(k & -k).bit_length() - 1]
            row = adj2[w]
            for u in nbrs[w]:
                if row[u] > 0:
                    pos[u] -= 1
                    neg[u] += 1
                else:
                    pos[u] += 1
                    neg[u] -= 1
                row[u] = adj2[u][w] = -row[u]
            pos[w], neg[w] = neg[w], pos[w]
            switched[w] = not switched[w]
        prof2 = list(zip(deg, pos, neg))
        if sorted(prof2) != want:
            continue
        maps = _search_matrices(adj1, prof1, adj2, prof2, False)
        if maps:
            X = [v for v in free if switched[v]]
            return {
                "switchings_tried": k + 1,
                "isomorphism_found": True,
                "witness": {"X": X, "perm": list(maps[0])},
            }
    return {"switchings_tried": total, "isomorphism_found": False}


def search_cochromatic(underlying: SignedGraph) -> VerificationReport:
    """Group the switching-isomorphism classes of one underlying graph by
    chromatic pair and certify every group of two or more as co-chromatic.

    A refusal by any layer's budget raises BudgetExceededError.
    """
    start = time.perf_counter()
    inventory = enumerate_classes(underlying, "switching_iso")
    reps = inventory.representatives
    pairs = chromatic_pairs(reps)
    groups = []
    for members in _groups(pairs):
        certs = [
            {"classes": [i, j], **non_switching_isomorphism_certificate(reps[i], reps[j])}
            for i, j in combinations(members, 2)
        ]
        groups.append(
            {
                "classes": [_class_entry(inventory, i) for i in members],
                "pair": pair_to_json(pairs[members[0]]),
                "non_switching_isomorphism": certs,
            }
        )
    return VerificationReport(
        "search-cochromatic",
        underlying.m,
        "pass",
        {"class_count": inventory.class_count, "cochromatic_groups": groups},
        time.perf_counter() - start,
    )


def _check_n_max(n_max: int, cap: int, what: str) -> None:
    if n_max < 0:
        raise SignedChromError(f"n_max must be >= 0, got {n_max}")
    if n_max > cap:
        raise BudgetExceededError(f"{what} capped at n = {cap}")


def verify_conj_cochromatic_complete(n_max: int) -> VerificationReport:
    """No two switching-isomorphism classes of signed K_n share a chromatic pair.

    Runs `search_cochromatic` on K_n for n = 0..n_max; the first group it
    reports is the counterexample.
    """
    _check_n_max(n_max, MAX_COCHROMATIC_N, "complete-graph co-chromatic check")
    start = time.perf_counter()
    details: dict = {"classes_checked": {}}
    for n in range(n_max + 1):
        search = search_cochromatic(complete_graph(n, 1))
        details["classes_checked"][str(n)] = search.details["class_count"]
        groups = search.details["cochromatic_groups"]
        if groups:
            details["counterexample"] = {"n": n, **groups[0]}
            break
    return VerificationReport(
        "conjecture:cochromatic-complete",
        n_max,
        "counterexample" if "counterexample" in details else "pass",
        details,
        time.perf_counter() - start,
    )


# -- threshold codes --------------------------------------------------------------
#
# One scan runs over the code lengths 0..n_max.  Codes of length <=
# _EXACT_THRESHOLD_LIMIT are compared by their exact even polynomials, longer
# ones by fingerprint: the even polynomial's value mod the prime _FP_MOD at
# (_FP_X0, _FP_Y0).  Distinct fingerprints prove distinct polynomials; codes
# with equal fingerprints are re-checked exactly.
#
# A step of the even recursion reads its parent at (x, y), (x - 1, y - 1) and
# (x - 1, y + 1).  From (x0, y0) the steps therefore read only the points
# (x0 - u - v, y0 + u - v) with u, v >= 0, and a prefix that `rem` more entries
# extend is read only where u + v <= rem: (rem + 1)(rem + 2)/2 values, half the
# square of offsets.  At x = x0 - u - v, y = y0 + u - v the steps are
#     entry  0:  C(u, v) = x P(u, v)
#     entry  1:  C(u, v) = y P(u, v + 1) + (x - y) P(u + 1, v)
#     entry -1:  C(u, v) = y P(u, v) + (x - y) P(u + 1, v)
# The scan runs level by level.  Each grid point keeps one Python int, its
# value list: slot i, bits [_FP_SLOT i, _FP_SLOT (i + 1)), holds its value for
# code index i of the current length.  A point's list at the next length is its
# parent lists stepped with entry -1, then 0, then 1, concatenated (entry -1 in
# the low slots), so index i at length d spells its code in base 3, least
# significant digit first, with entry = digit - 1.  The exact polynomials of
# one length are kept in the same order.  No code is stored.
#
# One step is a few big-int operations on whole lists: each of the three parts
# is folded, then they are concatenated.  With _FP_MOD = M = 2^k - 1, a slot
# folds mod M by adding its bits from k up to its low k bits (2^k = 1 mod M).
# Multipliers are residues below M and every stored slot is at most 2^k, so a
# step's sum of two products is below 2^(2k + 1) <= 2^127 and never carries
# into the next slot; two folds bring it back to at most 2^k.  Only the corner
# (0, 0), whose list is yielded, is made canonical, in [0, M), and a slot is
# read out of its low 64 bits; hence 1 <= k <= 63.  The fold masks have the
# parents' length, so the longest lists are built without any.


def _fold(t: int, lo: int, k: int) -> int:
    """Two folds of every slot of `t` mod 2^k - 1; `lo` holds 2^k - 1 in each slot."""
    low = t & lo
    t = low + ((t ^ low) >> k)
    low = t & lo
    return low + ((t ^ low) >> k)


def _canonical(c: int, ones: int, k: int) -> int:
    """Every slot of `c`, each at most 2^(k + 1) - 3, reduced into [0, 2^k - 1);
    `ones` holds 1 in each slot."""
    return c - (((c + ones) >> k) & ones) * ((1 << k) - 1)


def _threshold_code(index: int, length: int) -> tuple[int, ...]:
    """The code at `index` among the codes of `length` (see the layout above)."""
    code = []
    for _ in range(length):
        index, digit = divmod(index, 3)
        code.append(digit - 1)
    return tuple(code)


def _threshold_children(cols: list, size: int, k: int, x0: int, y0: int) -> list:
    """The grid at the next length, from `cols` whose lists hold `size` slots.
    The corner (0, 0), whose list the scan yields, is made canonical."""
    mod = (1 << k) - 1
    shift = size * _FP_SLOT
    ones = int.from_bytes((b"\1" + bytes(_FP_SLOT // 8 - 1)) * size, "little")
    lo = ones * mod
    child = []
    for u in range(len(cols) - 1):
        row = []
        for v in range(len(cols) - 1 - u):
            x, y = (x0 - u - v) % mod, (y0 + u - v) % mod
            w = (x - y) % mod
            here, wr = cols[u][v], w * cols[u + 1][v]
            # entries -1, 0, 1 of the recursion, in index order
            parts = [_fold(t, lo, k) for t in (y * here + wr, x * here, y * cols[u][v + 1] + wr)]
            if u == v == 0:
                parts = [_canonical(p, ones, k) for p in parts]
            row.append(parts[0] | parts[1] << shift | parts[2] << 2 * shift)
        child.append(row)
    return child


def _threshold_fingerprints(n_max: int):
    """Yield (d, fingerprints of every code of length d in index order), d = 0..n_max."""
    mod = _FP_MOD
    k = mod.bit_length()
    if mod < 1 or mod & (mod + 1) or k > 63:
        raise SignedChromError(f"fingerprint modulus {mod} is not 2^k - 1 with 1 <= k <= 63")
    x0, y0 = _FP_X0 % mod, _FP_Y0 % mod
    # cols[u][v]: the list at (x0 - u - v, y0 + u - v), for u + v <= n_max - d
    cols = [[(x0 - u - v) % mod for v in range(n_max + 1 - u)] for u in range(n_max + 1)]
    for d in range(n_max + 1):
        if d:
            cols = _threshold_children(cols, 3 ** (d - 1), k, x0, y0)
        raw = cols[0][0].to_bytes(3**d * _FP_SLOT // 8, sys.byteorder)
        if d == n_max:
            del cols  # the longest list: free its packed int before building it
        view = memoryview(raw).cast("Q")
        fps = (view[::2] if sys.byteorder == "little" else view[::-2]).tolist()
        del view, raw
        yield d, fps


def _threshold_clash(length: int, indices, evens) -> dict | None:
    """The first two codes of the first group of `indices` (code indices)
    whose even polynomials in `evens` are equal."""
    groups = _groups(evens)
    if not groups:
        return None
    first = groups[0][:2]
    codes = [list(_threshold_code(indices[k], length)) for k in first]
    return {"codes": codes, "even": bipoly_to_json(evens[first[0]])}


def _threshold_even(index: int, length: int) -> BiPoly:
    """The even polynomial of one code, rebuilt from its index."""
    even = BiPoly.x()
    for a in _threshold_code(index, length):
        even = threshold_even_step(a, even)
    return even


def verify_conj_threshold(n_max: int) -> VerificationReport:
    """Distinct threshold codes of one length give distinct even bivariate
    polynomials.

    One level-order scan over the lengths 0..n_max (see the layout above).
    Up to length exact_to it keeps the exact even polynomials of all codes
    in index order and compares them as keys.  Past it, it compares
    fingerprints, and a length whose fingerprints are not all distinct has
    its colliding codes rebuilt from their indices and compared exactly
    (codes with distinct fingerprints cannot be equal); only exact equality
    is reported.
    """
    _check_n_max(n_max, MAX_THRESHOLD_N, "threshold-code check")
    start = time.perf_counter()
    exact_to = min(n_max, _EXACT_THRESHOLD_LIMIT)
    method = {"exact_to": exact_to}
    if n_max > exact_to:
        method["fingerprint_from"] = exact_to + 1
    checked: dict[str, int] = {}
    evens = [BiPoly.x()]
    bad = None
    for d, fps in _threshold_fingerprints(n_max):
        checked[str(d)] = len(fps)
        if d <= exact_to:
            if d:
                evens = [threshold_even_step(a, p) for a in (-1, 0, 1) for p in evens]
            bad = _threshold_clash(d, range(len(evens)), evens)
            if d == exact_to:
                evens = None  # the fingerprint lengths never read it
        elif len(set(fps)) != len(fps):
            collided = sorted(i for members in _groups(fps) for i in members)
            bad = _threshold_clash(d, collided, [_threshold_even(i, d) for i in collided])
        if bad is not None:
            break
    details: dict = {"codes_checked": checked, "method": method}
    if bad is not None:
        details["counterexample"] = bad
    return VerificationReport(
        "conjecture:threshold",
        n_max,
        "counterexample" if bad else "pass",
        details,
        time.perf_counter() - start,
    )


def verify_conj_complete_bivariate(n_max: int) -> VerificationReport:
    """Isomorphism classes of signed K_n are separated by the even bivariate
    polynomial."""
    _check_n_max(n_max, MAX_BIVARIATE_N, "complete-graph bivariate check")
    start = time.perf_counter()
    details: dict = {"class_counts": {}, "expected_class_counts": {}}
    for n in range(n_max + 1):
        inventory = enumerate_classes(complete_graph(n, 1), "iso")
        details["class_counts"][str(n)] = inventory.class_count
        if n < len(reference.UNLABELLED_GRAPH_COUNTS):
            details["expected_class_counts"][str(n)] = (
                reference.UNLABELLED_GRAPH_COUNTS[n]
            )
        evens = [bivariate_pair(rep).even for rep in inventory.representatives]
        groups = _groups(evens)
        if groups:
            details["counterexample"] = {
                "n": n,
                "graphs": [_class_entry(inventory, i) for i in groups[0][:2]],
                "even": bipoly_to_json(evens[groups[0][0]]),
            }
            break
    return VerificationReport(
        "conjecture:bivariate-complete",
        n_max,
        "counterexample" if "counterexample" in details else "pass",
        details,
        time.perf_counter() - start,
    )


# -- table and display reproduction ----------------------------------------------


def _pair_counts(pairs) -> Counter:
    return Counter(json.dumps(pair_to_json(p), separators=(",", ":")) for p in pairs)


def _check(name: str, computed, expected) -> dict:
    """One row of the table, compared by equality.  A failed table of pairs,
    counted as a multiset by `_pair_counts`, lists its missing and unexpected
    pairs; a failed pair or polynomial shows both values; a failed bool no more."""
    entry = {"name": name, "status": "pass" if computed == expected else "fail"}
    if computed == expected or isinstance(computed, bool):
        return entry
    if isinstance(computed, Counter):
        entry["missing"] = sorted((expected - computed).elements())
        entry["unexpected"] = sorted((computed - expected).elements())
        return entry

    def render(v):
        if isinstance(v, BiPoly):
            return bipoly_to_json(v)
        if isinstance(v, tuple):
            return pair_to_json(v)
        return unipoly_to_json(v)

    entry["computed"] = render(computed)
    entry["expected"] = render(expected)
    return entry


def reproduce_tables() -> VerificationReport:
    """Recompute every published table row and displayed polynomial."""
    start = time.perf_counter()
    tables = [
        (f"complete_table_K{n}", complete_graph(n, 1), expected)
        for n, expected in sorted(reference.COMPLETE_TABLE.items())
    ]
    tables.append(("petersen_table", fixture("petersen"), reference.PETERSEN_TABLE))
    rows, class_counts = [], []
    for name, underlying, expected in tables:
        inventory = enumerate_classes(underlying, "switching_iso")
        class_counts.append(inventory.class_count)
        computed = chromatic_pairs(inventory.representatives)
        rows.append((name, _pair_counts(computed), _pair_counts(expected)))

    g1, g2 = fixture("G1"), fixture("G2")
    s1, s2 = fixture("Sigma1"), fixture("Sigma2")
    s3, s4 = fixture("Sigma3"), fixture("Sigma4")
    b3, b4 = bivariate_pair(s3), bivariate_pair(s4)
    c3, c4 = chromatic_pair(s3), chromatic_pair(s4)
    code = reference.THRESHOLD_EXAMPLE_CODE
    tb = threshold_bivariate(code)
    rows += [
        ("gem_G1_pair", chromatic_pair(g1), reference.GEM_PAIR),
        ("gem_G2_pair", chromatic_pair(g2), reference.GEM_PAIR),
        ("sigma1_pair", chromatic_pair(s1), reference.SIGMA12_PAIR),
        ("sigma2_pair", chromatic_pair(s2), reference.SIGMA12_PAIR),
        ("gem_G1_bivariate", bivariate_pair(g1), reference.GEM_BIVARIATE),
        ("gem_G2_bivariate", bivariate_pair(g2), reference.GEM_BIVARIATE),
        ("sigma1_bivariate", bivariate_pair(s1), reference.SIGMA12_BIVARIATE),
        ("sigma2_bivariate", bivariate_pair(s2), reference.SIGMA12_BIVARIATE),
        ("sigma3_even_bivariate", b3.even, reference.SIGMA3_EVEN_BIVARIATE),
        ("sigma4_even_bivariate", b4.even, reference.SIGMA4_EVEN_BIVARIATE),
        ("sigma3_odd_bivariate", b3.odd, reference.SIGMA34_ODD_BIVARIATE),
        ("sigma4_odd_bivariate", b4.odd, reference.SIGMA34_ODD_BIVARIATE),
        ("sigma34_odd_equal_even_distinct", b3.odd == b4.odd and b3.even != b4.even, True),
        ("sigma3_even", c3.even, reference.SIGMA3_EVEN),
        ("sigma4_even", c4.even, reference.SIGMA4_EVEN),
        ("sigma3_odd", c3.odd, reference.SIGMA34_ODD),
        ("sigma4_odd", c4.odd, reference.SIGMA34_ODD),
        ("plus_K2_bivariate", bivariate_pair(complete_graph(2, 1)), reference.PLUS_K2_BIVARIATE),
        ("minus_K2_bivariate", bivariate_pair(complete_graph(2, -1)),
         reference.MINUS_K2_BIVARIATE),
        ("threshold_example_bivariate", tb, reference.THRESHOLD_EXAMPLE_BIVARIATE),
        ("threshold_example_even_specialized", tb.even.substitute_y(0),
         reference.THRESHOLD_EXAMPLE_PAIR.even),
        ("threshold_example_odd_specialized", tb.odd.substitute_y(0),
         reference.THRESHOLD_EXAMPLE_PAIR.odd),
        ("threshold_example_subset_expansion", chromatic_pair(threshold_graph(code)),
         reference.THRESHOLD_EXAMPLE_PAIR),
    ]
    checks = [_check(*row) for row in rows]
    for entry, count in zip(checks, class_counts):  # the tables are the first rows
        entry["classes"] = count

    status = "pass" if all(c["status"] == "pass" for c in checks) else "counterexample"
    return VerificationReport(
        "reproduce-tables",
        None,
        status,
        {"checks": checks},
        time.perf_counter() - start,
    )
