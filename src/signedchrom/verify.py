"""Verification harness: conjecture checks, co-chromatic search, table replay.

Every entry point returns the plain JSON data its command prints: a dict of
`target`, `scale`, `status` ("pass" or "counterexample"; a refusal raises
instead) and `details`, so a failed run carries the concrete graphs and
polynomials a referee would need to re-check the outcome by hand.  No
verifier keeps a clock or renders text: the CLI times the one call each
command makes and writes its summary line from the dict.

The published polynomials live in `reference`, which `reproduce_tables`
imports when it runs, so no other command builds them.  The bivariate
verifier's answer key, `UNLABELLED_GRAPH_COUNTS`, is kept here.
"""

from __future__ import annotations

import json
import math
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

MAX_COCHROMATIC_N = 7
MAX_THRESHOLD_N = 12
MAX_BIVARIATE_N = 7
# Isomorphism classes of signed complete graphs correspond to unlabelled
# graphs on n vertices (take the positive part): 1, 1, 2, 4, 11, 34, ...
# (OEIS A000088), indexed by n up to MAX_BIVARIATE_N.
UNLABELLED_GRAPH_COUNTS = (1, 1, 2, 4, 11, 34, 156, 1044)
_EXACT_THRESHOLD_LIMIT = 3  # longer codes are decided by lemma L on their prefixes
_GRID_VALUES = 3**9  # most values a grid point packs past the split: 118 KB at 48-bit slots


def _result(target: str, scale: int | None, details: dict, status: str | None = None) -> dict:
    """The dict a checking function returns; `status` defaults to
    "counterexample" when `details` holds one, else "pass"."""
    if status is None:
        status = "counterexample" if "counterexample" in details else "pass"
    return {"target": target, "scale": scale, "status": status, "details": details}


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


def search_cochromatic(underlying: SignedGraph) -> dict:
    """Group the switching-isomorphism classes of one underlying graph by
    chromatic pair and certify every group of two or more as co-chromatic.

    A refusal by any layer's budget raises BudgetExceededError.
    """
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
    details = {"class_count": inventory.class_count, "cochromatic_groups": groups}
    return _result("search-cochromatic", underlying.m, details)


def _check_n_max(n_max: int, cap: int, what: str) -> None:
    if n_max < 0:
        raise SignedChromError(f"n_max must be >= 0, got {n_max}")
    if n_max > cap:
        raise BudgetExceededError(f"{what} capped at n = {cap}")


def verify_conj_cochromatic_complete(n_max: int) -> dict:
    """No two switching-isomorphism classes of signed K_n share a chromatic pair.

    Runs `search_cochromatic` on K_n for n = 0..n_max; the first group it
    reports is the counterexample.
    """
    _check_n_max(n_max, MAX_COCHROMATIC_N, "complete-graph co-chromatic check")
    details: dict = {"classes_checked": {}}
    for n in range(n_max + 1):
        search = search_cochromatic(complete_graph(n, 1))["details"]
        details["classes_checked"][str(n)] = search["class_count"]
        groups = search["cochromatic_groups"]
        if groups:
            details["counterexample"] = {"n": n, **groups[0]}
            break
    return _result("conjecture:cochromatic-complete", n_max, details)


# -- threshold codes --------------------------------------------------------------
#
# Let E be the even polynomial of a code and P that of the code without its
# last entry a, so E = threshold_even_step(a, P).  Five facts, each proven:
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
#   (e) E(0, 0) = 0: the empty code gives x, and each step (see the grid
#       below) is x P or a sum of multiples of y and x - y, all 0 at (0, 0).
# Lemma L, unproven: P(0, y) and P(-1, y + 1) differ as polynomials in y for
# every signed graph.  Given L for P, rule (b)-(d) reads the last entry off E:
# 1 by (b), else 0 when E(0, y) = 0, else -1.  Codes of one length with equal
# E therefore share their last entry, and by (a) their prefixes share their
# even polynomial.  So distinctness at length N follows from distinctness at
# length N - 1 and L on every code of length N - 1.  By (e), L holds for P as
# soon as P(-1, 1) != 0: its two sides then differ at y = 0.
#
# The verifier compares the exact even polynomials of all codes up to length
# exact_to = _EXACT_THRESHOLD_LIMIT, then checks P(-1, 1) != 0 on every code of
# length exact_to..n_max - 1, which carries distinctness up to n_max.  Any
# exact_to gives the same verdict; 3 keeps the 3 + 9 + 27 exact steps that the
# benchmark's threshold checks count.  A zero would leave L open for its code,
# so it is refused; no code of length <= 13 has one.  The stretch run
# (n_max = 12) checks lengths 3 to 11 in about 0.009 s, in a CLI process of
# about 0.09 s and 15.5 MB on a 2-core machine, what importing the CLI takes
# alone; the tests check L on the polynomials themselves to length 7.
# MAX_THRESHOLD_N stays 12, the scale the threshold12 benchmark workload runs;
# with the cap raised, the verifier takes 0.03 s at n = 13 and 0.09 s at
# n = 14, in a process of 15.6 MB and 16.0 MB.
#
# A step of the even recursion reads its parent at (x, y), (x - 1, y - 1) and
# (x - 1, y + 1).  From (-1, 1) the steps read only the points (-u - v, u - v)
# with u >= 1 and v >= 0, and at x = -u - v, y = u - v they are
#     entry  0:  C(u, v) = x P(u, v)
#     entry  1:  C(u, v) = y P(u, v + 1) + (x - y) P(u + 1, v)
#     entry -1:  C(u, v) = y P(u, v) + (x - y) P(u + 1, v)
# with x - y = -2u.  The points a prefix needs, with `rem` more entries to
# take before the last length is reached, are those with u + v <= rem + 1;
# each row of the grid is one point shorter at the next length, and the last
# length keeps (1, 0), the point (-1, 1), alone.
#
# Every value is an exact integer.  At length 0 the value at (u, v) is
# -u - v, at most last + 1 in size.  A step multiplies by |x| <= u + v, or by
# |y| and |x - y| with |y| + |x - y| <= 3 (u + v), and at length d the points
# have u + v <= last + 1 - d.  So no value up to length `last` exceeds
# B(last) = (last + 1) 3^last last! in size: below 2^47 at last = 11, where the
# largest value met has 35 bits.
#
# A value list is one Python int: slot i, bits
# [W i, W (i + 1)) with W = _slot_bits(last), holds the value for code index i
# as a balanced digit, so the int is the sum of value_i 2^(W i).  Sums, small
# multiples and shifts of such ints act on every slot at once and stay exact,
# and the slots read back apart while every value v has |v| < 2^(W - 1), which
# the bound gives.  A step makes three parts per grid point, its parent lists
# stepped with entry -1, 0 and 1, and keeps them apart; the next step first
# concatenates them (entry -1 in the low slots) into the point's list.  So
# index i at length d spells its code in base 3, least significant digit
# first, with entry = digit - 1, and part a of a length d >= 1 holds the codes
# a 3^(d-1) .. (a + 1) 3^(d-1) - 1.  The exact polynomials of one length are
# kept in the same order.  No code is stored.  The zero test runs part by
# part, so the last length builds no list longer than its parents' and joins
# no parts.
#
# The grid runs level by level only to the split length b, the least b with
# 3^(last - b) <= _GRID_VALUES, so b = max(0, last - 9).  Then it runs once
# per code c of length b, seeded with c's values at the points it still
# needs, to the last length; slot j of c's run at length d holds the code
# c + 3^b j.  So no grid point packs more than 3^9 values past the split at
# any n (118 KB at 48-bit slots, nor before it while n <= 19), and the traced
# peak of the whole check is about 0.6 MB at n_max = 12 and 1.0 MB at 14,
# against 5 MB and 61 MB for one grid.  Up to n_max = 10, b is 0 and the one
# run is the whole grid.  Each run finds its own first zero; the refusal
# names the shortest code with a zero and, of those, the lowest index, the
# code one grid would find first.


def _slot_bits(last: int) -> int:
    """Bits per slot of the grid up to length `last`: the least multiple of 8
    above the bit length of B(last), which bounds every value."""
    bound = (last + 1) * 3**last * math.factorial(last)
    return bound.bit_length() // 8 * 8 + 8


def _split_length(last: int) -> int:
    """The length at which the grid up to length `last` splits into one run
    per code: the least b with 3^(last - b) <= _GRID_VALUES."""
    split = 0
    while 3 ** (last - split) > _GRID_VALUES:
        split += 1
    return split


def _threshold_code(index: int, length: int) -> tuple[int, ...]:
    """The code at `index` among the codes of `length` (see the layout above)."""
    code = []
    for _ in range(length):
        index, digit = divmod(index, 3)
        code.append(digit - 1)
    return tuple(code)


def _grid_seed(last: int) -> list:
    """The grid at length 0 for the lengths up to `last`: rows[u - 1][v] is
    [-u - v], the value of the empty code's x at (-u - v, u - v), for u >= 1
    and u + v <= last + 1."""
    return [[[-u - v] for v in range(last + 2 - u)] for u in range(1, last + 2)]


def _threshold_grid(rows: list, width: int):
    """Step the grid `rows` of one code to the last length, yielding (k,
    rows) after k = 0, 1, ... steps, until one point is left.  rows[u - 1][v]
    holds the packed values in `width`-bit slots at (-u - v, u - v), u >= 1,
    of the 3^k codes that extend the seed's code by k entries, as parts of
    equal size (the seed's one value, then three: part a holds the
    extensions a * 3^(k-1) .. (a + 1) * 3^(k-1) - 1 in index order).
    rows[0][0] is the point (-1, 1)."""
    k = 0
    while True:
        yield k, rows
        if len(rows) == 1:
            return
        bits = 3**k // len(rows[0][0]) * width
        # joined before the step, so the parts are freed before it builds
        rows = [[sum(p << a * bits for a, p in enumerate(parts)) for parts in row]
                for row in rows]
        child = []
        for u, (row, below) in enumerate(zip(rows, rows[1:]), 1):
            points = []
            for v, right in enumerate(below):
                x, y = -u - v, u - v
                here, wr = row[v], -2 * u * right
                # entries -1, 0, 1 of the recursion, in index order
                points.append([y * here + wr, x * here, y * row[v + 1] + wr])
            child.append(points)
        rows = child
        k += 1


def _unpack(parts: list, count: int, width: int) -> list[int]:
    """The `count` values in a point's packed parts, in index order: each
    balanced `width`-bit slot read back once every slot gains 2^(width - 1)."""
    size, nbytes, half = count // len(parts), width // 8, 1 << (width - 1)
    top = int.from_bytes((bytes(nbytes - 1) + b"\x80") * size, "little")
    values = []
    for part in parts:
        raw = (part + top).to_bytes(size * nbytes, "little")
        values += [int.from_bytes(raw[i:i + nbytes], "little") - half
                   for i in range(0, len(raw), nbytes)]
    return values


def _first_zero(parts: list, count: int, width: int, masks: dict) -> int | None:
    """The index of the first 0 among the `count` values in `parts`, or None.
    `masks` keeps the test's masks by part size, for the next call."""
    size = count // len(parts)
    if size not in masks:
        ones = int.from_bytes((b"\1" + bytes(width // 8 - 1)) * size, "little")
        top = ones << (width - 1)  # 2^(W - 1) in each slot
        masks[size] = top, top - ones
    top, low = masks[size]
    for a, part in enumerate(parts):
        digits = (part + top) ^ top  # each slot in W-bit two's complement, 0 only for 0
        zero = top & ~(((digits & low) + low) | digits)  # 2^(W - 1) in the zero slots
        if zero:
            return a * size + ((zero & -zero).bit_length() - 1) // width
    return None


def _threshold_clash(length: int, indices, evens) -> dict | None:
    """The first two codes of the first group of `indices` (code indices)
    whose even polynomials in `evens` are equal."""
    groups = _groups(evens)
    if not groups:
        return None
    first = groups[0][:2]
    codes = [list(_threshold_code(indices[k], length)) for k in first]
    return {"codes": codes, "even": bipoly_to_json(evens[first[0]])}


def _undecided(length: int, index: int) -> SignedChromError:
    code = list(_threshold_code(index, length))
    return SignedChromError(
        f"lemma L is undecided for threshold code {code}: P(-1, 1) = 0,"
        f" so the longer codes cannot be decoded"
    )


def _check_lemma_l(first: int, last: int) -> None:
    """Refuse unless every code of length first..last has a nonzero value at
    (-1, 1).  A nonzero value proves L for its code by fact (e); a zero
    leaves L open, and the refusal names the shortest such code of lowest
    index.  The grid runs whole to the split length b, then once per code c
    of length b: slot j of c's run at length d holds the code c + 3^b j."""
    width, split, masks = _slot_bits(last), _split_length(last), {}
    for d, rows in _threshold_grid(_grid_seed(last), width):
        index = _first_zero(rows[0][0], 3**d, width, masks) if d >= first else None
        if index is not None:
            raise _undecided(d, index)
        if d == split:
            break
    seeds = [[_unpack(parts, 3**split, width) for parts in row] for row in rows]
    del rows
    zeros = []  # (length, index) of the first zero of each run that has one
    for prefix in range(3**split):
        seed = [[[values[prefix]] for values in row] for row in seeds]
        for k, rows in _threshold_grid(seed, width):
            d = split + k
            index = _first_zero(rows[0][0], 3**k, width, masks) if k and d >= first else None
            del rows  # so the next length's step can free them
            if index is not None:
                zeros.append((d, prefix + 3**split * index))
                break
    if zeros:
        raise _undecided(*min(zeros))


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


def verify_conj_threshold(n_max: int) -> dict:
    """Distinct threshold codes of one length give distinct even bivariate
    polynomials.

    Up to length exact_to the exact even polynomials of all codes are compared
    as keys.  Past it, lemma L is checked on every code of length exact_to..
    n_max - 1 (see the layout above), which decides every length up to n_max;
    a code on which the check leaves L open is refused, since the verdict
    then stays open.
    """
    _check_n_max(n_max, MAX_THRESHOLD_N, "threshold-code check")
    exact_to = min(n_max, _EXACT_THRESHOLD_LIMIT)
    method = {"exact_to": exact_to}
    checked: dict[str, int] = {}
    bad = _exact_threshold_scan(exact_to, checked)
    if n_max > exact_to:
        method["fingerprint_from"] = exact_to + 1  # the first length the grid decides
        if bad is None:
            _check_lemma_l(exact_to, n_max - 1)
            checked.update((str(d), 3**d) for d in range(exact_to + 1, n_max + 1))
    details: dict = {"codes_checked": checked, "method": method}
    if bad is not None:
        details["counterexample"] = bad
    return _result("conjecture:threshold", n_max, details)


def verify_conj_complete_bivariate(n_max: int) -> dict:
    """Isomorphism classes of signed K_n are separated by the even bivariate
    polynomial."""
    _check_n_max(n_max, MAX_BIVARIATE_N, "complete-graph bivariate check")
    details: dict = {"class_counts": {}, "expected_class_counts": {}}
    for n in range(n_max + 1):
        inventory = enumerate_classes(complete_graph(n, 1), "iso")
        details["class_counts"][str(n)] = inventory.class_count
        details["expected_class_counts"][str(n)] = UNLABELLED_GRAPH_COUNTS[n]
        evens = [bivariate_pair(rep).even for rep in inventory.representatives]
        groups = _groups(evens)
        if groups:
            details["counterexample"] = {
                "n": n,
                "graphs": [_class_entry(inventory, i) for i in groups[0][:2]],
                "even": bipoly_to_json(evens[groups[0][0]]),
            }
            break
    return _result("conjecture:bivariate-complete", n_max, details)


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


def reproduce_tables() -> dict:
    """Recompute every published table row and displayed polynomial, against
    `reference`, which only this command loads."""
    from . import reference

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
    return _result("reproduce-tables", None, {"checks": checks}, status)
