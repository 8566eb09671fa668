"""Verification harness: conjecture checks, co-chromatic search, table replay.

Every entry point returns a VerificationReport whose details are plain
JSON-serializable data, so a failed run carries the concrete graphs and
polynomials a referee would need to re-check the outcome by hand.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from itertools import combinations

from .chromatic import (
    bivariate_pair,
    chromatic_pair,
    chromatic_pairs,
    threshold_even_step,
)
from .equivalence import (
    ClassInventory,
    enumerate_classes,
    non_switching_isomorphism_certificate,
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
_EXACT_THRESHOLD_LIMIT = 3  # longer codes are decided by lemma L on their prefixes

_FP_MOD = (1 << 31) - 1  # slots of _slot_bits(31) = 64 bits (see the threshold layout)
_FP_Y0 = 987654321987654321 % _FP_MOD


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
# Let E be the even polynomial of a code and P that of the code without its
# last entry a, so E = threshold_even_step(a, P).  Four facts, each proven:
#   (a) Each step is linear and injective: a shift leaves the top-degree
#       homogeneous part unchanged, so E's top part is x times P's for every
#       entry, and P is solved for degree by degree from the top.
#   (b) a = 1 exactly when the coefficient of t in E(t, t) is nonzero.  E(t, t)
#       is the chromatic polynomial of the positive part (the diagonal
#       identity).  Entry 1 gives E(t, t) = t chi(t - 1), with chi that of P,
#       whose coefficient of t is chi(-1) != 0 (Stanley 1973: |chi(-1)|
#       counts the acyclic orientations); entries 0 and -1 give t chi(t), and
#       chi(0) = 0.
#   (c) Entry 0 gives E(0, y) = 0, since E = x P.
#   (d) Entry -1 gives E(0, y) = y (P(0, y) - P(-1, y + 1)).
# Lemma L, unproven: P(0, y) and P(-1, y + 1) differ as polynomials in y for
# every signed graph.  Given L for P, rule (b)-(d) reads the last entry off E:
# 1 by (b), else 0 when E(0, y) = 0, else -1.  Codes of one length with equal
# E therefore share their last entry, and by (a) their prefixes share their
# even polynomial.  So distinctness at length N follows from distinctness at
# length N - 1 and L on every code of length N - 1.
#
# The verifier compares the exact even polynomials of all codes up to length
# exact_to = _EXACT_THRESHOLD_LIMIT, then checks L on every code of length
# exact_to..n_max - 1, which carries distinctness up to n_max.  Any exact_to
# gives the same verdict; 3 keeps the 3 + 9 + 27 exact steps that the
# benchmark's threshold checks count.  The stretch run (n_max = 12) checks L
# on lengths 3 to 11 in about 0.05 s, in a CLI process of about 0.2 s and
# 25 MB on a 2-core machine; the tests check L exactly, with no fingerprints,
# to length 7.  MAX_THRESHOLD_N stays 12, the scale the threshold12 benchmark
# workload runs; with the cap raised, the CLI process takes 0.33 s and 44 MB
# at n = 13, and 0.65 s and 103 MB at n = 14.
#
# L is checked on fingerprints: values mod the prime _FP_MOD.  A step of the
# even recursion reads its parent at (x, y), (x - 1, y - 1) and (x - 1, y + 1).
# The grid is anchored at x = 0, the only anchor at which distinct residues
# prove L: from (0, y0) the steps read only the points (-u - v, y0 + u - v)
# with u, v >= 0, and at x = -u - v, y = y0 + u - v they are
#     entry  0:  C(u, v) = x P(u, v)
#     entry  1:  C(u, v) = y P(u, v + 1) + (x - y) P(u + 1, v)
#     entry -1:  C(u, v) = y P(u, v) + (x - y) P(u + 1, v)
# So the corner (0, 0) holds P(0, y0) and its neighbour (1, 0) holds
# P(-1, y0 + 1): L's two sides at y0.  The points a prefix needs, with `rem`
# more entries to take before the last length is reached, are those with
# u + v <= rem + 1 except (0, rem + 1); each row of the grid is one point
# shorter at the next length, and the last length keeps the corner and its
# neighbour alone.  Distinct values there prove L for a code; a code whose
# values agree is rebuilt and compared exactly.
#
# The grid runs level by level.  A value list is one Python int: slot i, bits
# [W i, W (i + 1)) with W = _slot_bits(k), holds the value for code index i.
# A step makes three parts per grid point, its parent lists stepped with entry
# -1, 0 and 1, and keeps them apart; the next step first concatenates them
# (entry -1 in the low slots) into the point's list.  So index i at length d
# spells its code in base 3, least significant digit first, with entry =
# digit - 1, and part a of a length d >= 1 holds the codes a 3^(d-1) ..
# (a + 1) 3^(d-1) - 1.  The exact polynomials of one length are kept in the
# same order.  No code is stored.
#
# One step is a few big-int operations on whole lists: each of the three parts
# is built and folded before the next.  With _FP_MOD = M = 2^k - 1, a slot
# folds mod M by adding its bits from k up to its low k bits (2^k = 1 mod M).
# Multipliers are residues below M and every stored slot is at most 2^k, so a
# step's sum of two products is below 2^(2k + 1), and W is the least multiple
# of 8 bits that holds it: 64 bits for the prime 2^31 - 1, and 128 for k = 61
# and for k = 63, the largest k the kernel takes.  So no sum carries into the next slot,
# and two folds bring it back to at most 2^k.  Which prime it is does not
# matter to the verdict: distinct residues prove L, and agreeing ones are
# rebuilt exactly.  At n_max = 12 no code of any length is rebuilt.  The two
# points L reads are made canonical, in [0, M), so that one zero-slot test on
# the XOR of two parts finds every code whose two values agree.  L is checked
# part by part, with the step's own masks of the parents' length, so the last
# length builds no list longer than its parents' and joins no parts.


def _slot_bits(k: int) -> int:
    """Bits per slot for the modulus 2^k - 1: the least multiple of 8 that
    holds a step's sum, which is below 2^(2k + 1)."""
    return (2 * k + 8) // 8 * 8


def _slot_masks(size: int, k: int) -> tuple[int, int]:
    """`ones` with 1 and `lo` with 2^k - 1 in each of `size` slots."""
    ones = int.from_bytes((b"\1" + bytes(_slot_bits(k) // 8 - 1)) * size, "little")
    return ones, ones * ((1 << k) - 1)


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


def _threshold_children(cols: list, size: int, k: int, y0: int) -> tuple[list, int, int]:
    """The grid at the next length, from `cols` whose lists hold `size` slots:
    each point's parts for entries -1, 0, 1, each of `size` slots, and the
    `ones` and `lo` masks of that size.  The corner (0, 0) and its neighbour
    (1, 0), which the scan yields, are made canonical."""
    mod = (1 << k) - 1
    ones, lo = _slot_masks(size, k)
    child = []
    for u in range(len(cols) - 1):
        row = []
        for v in range(len(cols[u]) - 1):
            x, y = (-u - v) % mod, (y0 + u - v) % mod
            w = (x - y) % mod
            here, wr = cols[u][v], w * cols[u + 1][v]
            # entries -1, 0, 1 of the recursion, in index order, each folded
            # before the next is built
            parts = [_fold(y * here + wr, lo, k), _fold(x * here, lo, k),
                     _fold(y * cols[u][v + 1] + wr, lo, k)]
            if v == 0 and u < 2:
                parts = [_canonical(p, ones, k) for p in parts]
            row.append(parts)
        child.append(row)
    return child, ones, lo


def _threshold_fingerprints(last: int):
    """Yield (d, corners, neighbours, ones, lo) for d = 0..last: the packed
    values mod _FP_MOD of every code of length d at (0, y0) and (-1, y0 + 1),
    as parts of equal size (one at d = 0, else three: part a holds the codes
    a * 3^(d-1) .. (a + 1) * 3^(d-1) - 1 in index order), and the `ones` and
    `lo` masks of one part."""
    mod = _FP_MOD
    k = mod.bit_length()
    if mod < 1 or mod & (mod + 1) or k > 63:
        raise SignedChromError(f"fingerprint modulus {mod} is not 2^k - 1 with 1 <= k <= 63")
    y0 = _FP_Y0 % mod
    # cols[u][v]: the parts at (-u - v, y0 + u - v), for u + v <= last + 1 - d
    # except u = 0, v = last + 1 - d
    cols = [[[(-u - v) % mod] for v in range(last + 2 - u - (u == 0))]
            for u in range(last + 2)]
    ones, lo = _slot_masks(1, k)
    for d in range(last + 1):
        if d:
            size = 3 ** (d - 1)
            bits = size // len(cols[0][0]) * _slot_bits(k)
            # joined before the step, so the parts are freed before it builds
            cols = [[sum(p << a * bits for a, p in enumerate(parts)) for parts in row]
                    for row in cols]
            cols, ones, lo = _threshold_children(cols, size, k, y0)
        yield d, cols[0][0], cols[1][0], ones, lo


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


def _at_x0(even: BiPoly) -> dict:
    """even(0, y) as a map y_degree -> coefficient."""
    return {j: c for (i, j), c in even.items() if i == 0}


def _check_lemma_l(length: int, corners: list, neighbours: list, ones: int, lo: int) -> None:
    """Refuse unless every code of `length` satisfies lemma L, on the parts
    and masks that _threshold_fingerprints yields.  Codes whose values at the
    two points differ satisfy it; the rest are rebuilt and compared exactly."""
    k = _FP_MOD.bit_length()
    size = 3**length // len(corners)
    for a, (corner, neighbour) in enumerate(zip(corners, neighbours)):
        agree = ones ^ ((((corner ^ neighbour) + lo) >> k) & ones)  # 1 where they agree
        while agree:
            low = agree & -agree
            agree ^= low
            index = a * size + (low.bit_length() - 1) // _slot_bits(k)
            even = _threshold_even(index, length)
            if _at_x0(even) == _at_x0(even.shifted(-1, 1)):
                code = list(_threshold_code(index, length))
                raise SignedChromError(
                    f"lemma L fails for threshold code {code}: P(0, y) = P(-1, y + 1),"
                    f" so the longer codes cannot be decoded"
                )


def _exact_threshold_scan(exact_to: int, checked: dict) -> dict | None:
    """Compare the exact even polynomials of the codes of length 0..exact_to,
    recording each length in `checked`; the first clash, or None."""
    evens = [BiPoly.x()]
    for d in range(exact_to + 1):
        if d:
            evens = [threshold_even_step(a, p) for a in (-1, 0, 1) for p in evens]
        checked[str(d)] = len(evens)
        bad = _threshold_clash(d, range(len(evens)), evens)
        if bad is not None:
            return bad
    return None


def verify_conj_threshold(n_max: int) -> VerificationReport:
    """Distinct threshold codes of one length give distinct even bivariate
    polynomials.

    Up to length exact_to the exact even polynomials of all codes are compared
    as keys.  Past it, lemma L is checked on every code of length exact_to..
    n_max - 1 (see the layout above), which decides every length up to n_max;
    a code on which L fails is refused, since the verdict then stays open.
    """
    _check_n_max(n_max, MAX_THRESHOLD_N, "threshold-code check")
    start = time.perf_counter()
    exact_to = min(n_max, _EXACT_THRESHOLD_LIMIT)
    method = {"exact_to": exact_to}
    checked: dict[str, int] = {}
    bad = _exact_threshold_scan(exact_to, checked)
    if n_max > exact_to:
        method["fingerprint_from"] = exact_to + 1
        if bad is None:
            for d, corners, neighbours, ones, lo in _threshold_fingerprints(n_max - 1):
                if d >= exact_to:
                    _check_lemma_l(d, corners, neighbours, ones, lo)
                del corners, neighbours  # so the next length's step can free them
            checked.update((str(d), 3**d) for d in range(exact_to + 1, n_max + 1))
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


def _check(name: str, render, computed, expected) -> dict:
    """One row of the table, compared by equality of the renderings its row
    names: the JSON of a pair or polynomial, whose shape the row picks; the
    multiset `_pair_counts` of a table of pairs; or a bool.  A failed table
    lists its missing and unexpected pairs; a failed pair or polynomial shows
    both renderings; a failed bool no more."""
    computed, expected = render(computed), render(expected)
    entry = {"name": name, "status": "pass" if computed == expected else "fail"}
    if computed == expected or isinstance(computed, bool):
        return entry
    if isinstance(computed, Counter):
        entry["missing"] = sorted((expected - computed).elements())
        entry["unexpected"] = sorted((computed - expected).elements())
        return entry
    entry["computed"] = computed
    entry["expected"] = expected
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
        rows.append((name, _pair_counts, computed, expected))

    g1, g2 = fixture("G1"), fixture("G2")
    s1, s2 = fixture("Sigma1"), fixture("Sigma2")
    s3, s4 = fixture("Sigma3"), fixture("Sigma4")
    b3, b4 = bivariate_pair(s3), bivariate_pair(s4)
    c3, c4 = chromatic_pair(s3), chromatic_pair(s4)
    threshold = threshold_graph(reference.THRESHOLD_EXAMPLE_CODE)
    tb = bivariate_pair(threshold)
    pair, bi, uni = pair_to_json, bipoly_to_json, unipoly_to_json
    rows += [
        ("gem_G1_pair", pair, chromatic_pair(g1), reference.GEM_PAIR),
        ("gem_G2_pair", pair, chromatic_pair(g2), reference.GEM_PAIR),
        ("sigma1_pair", pair, chromatic_pair(s1), reference.SIGMA12_PAIR),
        ("sigma2_pair", pair, chromatic_pair(s2), reference.SIGMA12_PAIR),
        ("gem_G1_bivariate", pair, bivariate_pair(g1), reference.GEM_BIVARIATE),
        ("gem_G2_bivariate", pair, bivariate_pair(g2), reference.GEM_BIVARIATE),
        ("sigma1_bivariate", pair, bivariate_pair(s1), reference.SIGMA12_BIVARIATE),
        ("sigma2_bivariate", pair, bivariate_pair(s2), reference.SIGMA12_BIVARIATE),
        ("sigma3_even_bivariate", bi, b3.even, reference.SIGMA3_EVEN_BIVARIATE),
        ("sigma4_even_bivariate", bi, b4.even, reference.SIGMA4_EVEN_BIVARIATE),
        ("sigma3_odd_bivariate", bi, b3.odd, reference.SIGMA34_ODD_BIVARIATE),
        ("sigma4_odd_bivariate", bi, b4.odd, reference.SIGMA34_ODD_BIVARIATE),
        ("sigma34_odd_equal_even_distinct", bool, b3.odd == b4.odd and b3.even != b4.even,
         True),
        ("sigma3_even", uni, c3.even, reference.SIGMA3_EVEN),
        ("sigma4_even", uni, c4.even, reference.SIGMA4_EVEN),
        ("sigma3_odd", uni, c3.odd, reference.SIGMA34_ODD),
        ("sigma4_odd", uni, c4.odd, reference.SIGMA34_ODD),
        ("plus_K2_bivariate", pair, bivariate_pair(complete_graph(2, 1)),
         reference.PLUS_K2_BIVARIATE),
        ("minus_K2_bivariate", pair, bivariate_pair(complete_graph(2, -1)),
         reference.MINUS_K2_BIVARIATE),
        ("threshold_example_bivariate", pair, tb, reference.THRESHOLD_EXAMPLE_BIVARIATE),
        ("threshold_example_even_specialized", uni, tb.even.substitute_y(0),
         reference.THRESHOLD_EXAMPLE_PAIR.even),
        ("threshold_example_odd_specialized", uni, tb.odd.substitute_y(0),
         reference.THRESHOLD_EXAMPLE_PAIR.odd),
        ("threshold_example_subset_expansion", pair, chromatic_pair(threshold),
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
