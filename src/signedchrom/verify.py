"""Verification harness: conjecture checks, co-chromatic search, table replay.

Every entry point returns a VerificationReport whose details are plain
JSON-serializable data, so a failed run carries the concrete graphs and
polynomials a referee would need to re-check the outcome by hand.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass, field

from .chromatic import (
    bivariate_pair,
    chromatic_pair,
    threshold_bivariate,
    threshold_even_step,
)
from .equivalence import (
    ClassInventory,
    enumerate_classes,
    find_isomorphism,
    free_switching_vertices,
)
from .errors import BadRangeError, BudgetExceededError
from .graphs import (
    SignedGraph,
    complete_graph,
    fixture,
    graph_to_dict,
    switch,
    threshold_graph,
)
from .poly import BiPoly, bipoly_to_json, pair_to_json, unipoly_to_json
from . import reference

MAX_COCHROMATIC_N = 7
MAX_THRESHOLD_N = 12
MAX_BIVARIATE_N = 7
_EXACT_THRESHOLD_LIMIT = 9  # above this, fingerprint first and re-check collisions

_FP_MOD = (1 << 61) - 1
_FP_X0 = 1122334455667788990 % _FP_MOD
_FP_Y0 = 987654321987654321 % _FP_MOD


@dataclass
class VerificationReport:
    target: str
    scale: int | None
    status: str  # "pass" | "counterexample" | "budget_exceeded"
    details: dict = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_dict(self, *, include_elapsed: bool = False) -> dict:
        out = {
            "target": self.target,
            "scale": self.scale,
            "status": self.status,
            "details": self.details,
        }
        if include_elapsed:
            out["elapsed"] = self.elapsed
        return out

    def summary(self) -> str:
        return (
            f"{self.target} (scale {self.scale}): {self.status.upper()}"
            f" in {self.elapsed:.2f}s"
        )


def _pair_key(pair) -> str:
    return json.dumps(pair_to_json(pair), separators=(",", ":"))


def _class_entry(inventory: ClassInventory, idx: int) -> dict:
    g = inventory.representatives[idx]
    return {
        "mask": inventory.representative_masks[idx],
        "orbit_size": inventory.orbit_sizes[idx],
        **graph_to_dict(g),
    }


def non_switching_isomorphism_certificate(g1: SignedGraph, g2: SignedGraph) -> dict:
    """Exhaustively try every switching of g2 against g1; record the failure.

    Unlike the decision procedure, no invariant shortcuts are taken, so the
    transcript really covers all 2^(n-c) switching representatives.
    """
    free = free_switching_vertices(g2)
    tried = 0
    for bits in range(1 << len(free)):
        X = frozenset(free[i] for i in range(len(free)) if bits >> i & 1)
        tried += 1
        perm = find_isomorphism(g1, switch(g2, X))
        if perm is not None:
            return {
                "switchings_tried": tried,
                "isomorphism_found": True,
                "witness": {"X": sorted(X), "perm": list(perm)},
            }
    return {"switchings_tried": tried, "isomorphism_found": False}


def search_cochromatic(underlying: SignedGraph) -> VerificationReport:
    """Group the switching-isomorphism classes of one underlying graph by
    chromatic pair and certify every group of two or more as co-chromatic.

    A refusal by any layer's budget is reported as status "budget_exceeded".
    """
    start = time.perf_counter()
    try:
        inventory = enumerate_classes(underlying, "switching_iso")
        by_pair: dict[str, list[int]] = {}
        pairs = []
        for idx, rep in enumerate(inventory.representatives):
            pair = chromatic_pair(rep)
            pairs.append(pair)
            by_pair.setdefault(_pair_key(pair), []).append(idx)
        groups = []
        for key, members in sorted(by_pair.items(), key=lambda kv: kv[1][0]):
            if len(members) < 2:
                continue
            certs = []
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    gi = inventory.representatives[members[i]]
                    gj = inventory.representatives[members[j]]
                    certs.append(
                        {
                            "classes": [members[i], members[j]],
                            **non_switching_isomorphism_certificate(gi, gj),
                        }
                    )
            groups.append(
                {
                    "classes": [_class_entry(inventory, i) for i in members],
                    "pair": pair_to_json(pairs[members[0]]),
                    "non_switching_isomorphism": certs,
                }
            )
        status = "pass"
        details = {
            "class_count": inventory.class_count,
            "cochromatic_groups": groups,
        }
    except BudgetExceededError as e:
        status = "budget_exceeded"
        details = {"error": str(e)}
    return VerificationReport(
        "search-cochromatic",
        underlying.m,
        status,
        details,
        time.perf_counter() - start,
    )


def _check_n_max(n_max: int) -> None:
    if n_max < 0:
        raise BadRangeError(f"n_max must be >= 0, got {n_max}")


def verify_conj_cochromatic_complete(n_max: int = 6) -> VerificationReport:
    """No two switching-isomorphism classes of signed K_n share a chromatic pair."""
    _check_n_max(n_max)
    start = time.perf_counter()
    if n_max > MAX_COCHROMATIC_N:
        raise BudgetExceededError(
            f"complete-graph co-chromatic check capped at n = {MAX_COCHROMATIC_N}"
        )
    status = "pass"
    details: dict = {"classes_checked": {}}
    for n in range(n_max + 1):
        inventory = enumerate_classes(complete_graph(n, 1), "switching_iso")
        pairs = [chromatic_pair(rep) for rep in inventory.representatives]
        details["classes_checked"][str(n)] = inventory.class_count
        seen: dict[str, int] = {}
        for idx, pair in enumerate(pairs):
            key = _pair_key(pair)
            if key in seen:
                other = seen[key]
                g1 = inventory.representatives[other]
                g2 = inventory.representatives[idx]
                status = "counterexample"
                details["counterexample"] = {
                    "n": n,
                    "graphs": [
                        _class_entry(inventory, other),
                        _class_entry(inventory, idx),
                    ],
                    "pair": pair_to_json(pair),
                    "non_switching_isomorphism": non_switching_isomorphism_certificate(
                        g1, g2
                    ),
                }
                break
            seen[key] = idx
        if status != "pass":
            break
    return VerificationReport(
        "conjecture:cochromatic-complete",
        n_max,
        status,
        details,
        time.perf_counter() - start,
    )


def _exact_threshold_scan(n_max: int) -> dict | None:
    """Depth-first scan of all codes, exact polynomial keys; None if all distinct."""
    seen: list[dict[BiPoly, tuple[int, ...]]] = [dict() for _ in range(n_max + 1)]

    def rec(code: tuple[int, ...], even: BiPoly):
        d = len(code)
        clash = seen[d].get(even)
        if clash is not None:
            return {"codes": [list(clash), list(code)], "even": bipoly_to_json(even)}
        seen[d][even] = code
        if d == n_max:
            return None
        for a in (-1, 0, 1):
            bad = rec(code + (a,), threshold_even_step(a, even))
            if bad is not None:
                return bad
        return None

    return rec((), BiPoly.x())


def _fp_base_grid(depth: int) -> dict[tuple[int, int], int]:
    """Values of E(K_1) = x at every point (x0 - a, y0 + b) reachable in `depth` steps."""
    return {
        (a, b): (_FP_X0 - a) % _FP_MOD
        for a in range(depth + 1)
        for b in range(-a, a + 1)
    }


def _fp_child_grid(
    entry: int, vals: dict[tuple[int, int], int], rem: int
) -> dict[tuple[int, int], int]:
    """One vertex-addition step of the even recursion on the value grid.

    `rem` is the number of further steps the child must support; a child
    value at offset (a, b) only needs parent values at offsets a and a+1,
    so the grid shrinks by one layer per step.
    """
    mod, x0, y0 = _FP_MOD, _FP_X0, _FP_Y0
    child: dict[tuple[int, int], int] = {}
    for off_a in range(rem + 1):
        xa = x0 - off_a
        for off_b in range(-off_a, off_a + 1):
            yb = y0 + off_b
            if entry == 0:
                v = xa * vals[(off_a, off_b)]
            elif entry == 1:
                v = (
                    yb * vals[(off_a + 1, off_b - 1)]
                    + (xa - yb) * vals[(off_a + 1, off_b + 1)]
                )
            else:
                v = (
                    yb * vals[(off_a, off_b)]
                    + (xa - yb) * vals[(off_a + 1, off_b + 1)]
                )
            child[(off_a, off_b)] = v % mod
    return child


def _fingerprint_threshold_scan(n_max: int, check_from: int) -> dict | None:
    """Same scan with the recursion evaluated on a shifted grid mod a prime.

    The even polynomial of a prefix is kept as its values at the points
    (x0 - a, y0 + b) for all offsets a deeper extensions can still reach.
    Equal fingerprints for two codes are re-checked symbolically before
    anything is reported.
    """
    seen: list[dict[int, list[tuple[int, ...]]]] = [dict() for _ in range(n_max + 1)]

    def exact_even(code: tuple[int, ...]) -> BiPoly:
        even = BiPoly.x()
        for a in code:
            even = threshold_even_step(a, even)
        return even

    def rec(code: tuple[int, ...], vals: dict[tuple[int, int], int]):
        d = len(code)
        if d >= check_from:
            fp = vals[(0, 0)]
            bucket = seen[d].setdefault(fp, [])
            for other in bucket:
                e1, e2 = exact_even(other), exact_even(code)
                if e1 == e2:
                    return {
                        "codes": [list(other), list(code)],
                        "even": bipoly_to_json(e1),
                    }
            bucket.append(code)
        if d == n_max:
            return None
        for a in (-1, 0, 1):
            bad = rec(code + (a,), _fp_child_grid(a, vals, n_max - d - 1))
            if bad is not None:
                return bad
        return None

    return rec((), _fp_base_grid(n_max))


def verify_conj_threshold(n_max: int = 8) -> VerificationReport:
    """Distinct threshold codes of one length give distinct even bivariate
    polynomials."""
    _check_n_max(n_max)
    start = time.perf_counter()
    if n_max > MAX_THRESHOLD_N:
        raise BudgetExceededError(
            f"threshold-code check capped at n = {MAX_THRESHOLD_N}"
        )
    exact_to = min(n_max, _EXACT_THRESHOLD_LIMIT)
    bad = _exact_threshold_scan(exact_to)
    method = {"exact_to": exact_to}
    if bad is None and n_max > exact_to:
        method["fingerprint_from"] = exact_to + 1
        bad = _fingerprint_threshold_scan(n_max, exact_to + 1)
    details: dict = {
        "codes_checked": {str(d): 3**d for d in range(n_max + 1)},
        "method": method,
    }
    if bad is not None:
        details["counterexample"] = bad
    return VerificationReport(
        "conjecture:threshold",
        n_max,
        "counterexample" if bad else "pass",
        details,
        time.perf_counter() - start,
    )


def verify_conj_complete_bivariate(n_max: int = 6) -> VerificationReport:
    """Isomorphism classes of signed K_n are separated by the even bivariate
    polynomial."""
    _check_n_max(n_max)
    start = time.perf_counter()
    if n_max > MAX_BIVARIATE_N:
        raise BudgetExceededError(
            f"complete-graph bivariate check capped at n = {MAX_BIVARIATE_N}"
        )
    status = "pass"
    details: dict = {"class_counts": {}, "expected_class_counts": {}}
    for n in range(n_max + 1):
        inventory = enumerate_classes(complete_graph(n, 1), "iso")
        details["class_counts"][str(n)] = inventory.class_count
        if n < len(reference.UNLABELLED_GRAPH_COUNTS):
            details["expected_class_counts"][str(n)] = (
                reference.UNLABELLED_GRAPH_COUNTS[n]
            )
        seen: dict[BiPoly, int] = {}
        for idx, rep in enumerate(inventory.representatives):
            even = bivariate_pair(rep).even
            if even in seen:
                other = seen[even]
                status = "counterexample"
                details["counterexample"] = {
                    "n": n,
                    "graphs": [
                        _class_entry(inventory, other),
                        _class_entry(inventory, idx),
                    ],
                    "even": bipoly_to_json(even),
                }
                break
            seen[even] = idx
        if status != "pass":
            break
    return VerificationReport(
        "conjecture:bivariate-complete",
        n_max,
        status,
        details,
        time.perf_counter() - start,
    )


# -- table and display reproduction ----------------------------------------------


def _multiset_check(name: str, computed, expected) -> dict:
    got = Counter(_pair_key(p) for p in computed)
    want = Counter(_pair_key(p) for p in expected)
    entry = {"name": name, "status": "pass" if got == want else "fail"}
    if got != want:
        entry["missing"] = sorted((want - got).elements())
        entry["unexpected"] = sorted((got - want).elements())
    return entry


def _equality_check(name: str, computed, expected) -> dict:
    entry = {"name": name, "status": "pass" if computed == expected else "fail"}
    if computed != expected:
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
    checks: list[dict] = []

    for n, expected in sorted(reference.COMPLETE_TABLE.items()):
        inventory = enumerate_classes(complete_graph(n, 1), "switching_iso")
        computed = [chromatic_pair(rep) for rep in inventory.representatives]
        entry = _multiset_check(f"complete_table_K{n}", computed, expected)
        entry["classes"] = inventory.class_count
        checks.append(entry)

    petersen_inv = enumerate_classes(fixture("petersen"), "switching_iso")
    computed = [chromatic_pair(rep) for rep in petersen_inv.representatives]
    entry = _multiset_check("petersen_table", computed, reference.PETERSEN_TABLE)
    entry["classes"] = petersen_inv.class_count
    checks.append(entry)

    g1, g2 = fixture("G1"), fixture("G2")
    s1, s2 = fixture("Sigma1"), fixture("Sigma2")
    s3, s4 = fixture("Sigma3"), fixture("Sigma4")
    checks.append(_equality_check("gem_G1_pair", chromatic_pair(g1), reference.GEM_PAIR))
    checks.append(_equality_check("gem_G2_pair", chromatic_pair(g2), reference.GEM_PAIR))
    checks.append(
        _equality_check("sigma1_pair", chromatic_pair(s1), reference.SIGMA12_PAIR)
    )
    checks.append(
        _equality_check("sigma2_pair", chromatic_pair(s2), reference.SIGMA12_PAIR)
    )
    checks.append(
        _equality_check(
            "gem_G1_bivariate", bivariate_pair(g1), reference.GEM_BIVARIATE
        )
    )
    checks.append(
        _equality_check(
            "gem_G2_bivariate", bivariate_pair(g2), reference.GEM_BIVARIATE
        )
    )
    checks.append(
        _equality_check(
            "sigma1_bivariate", bivariate_pair(s1), reference.SIGMA12_BIVARIATE
        )
    )
    checks.append(
        _equality_check(
            "sigma2_bivariate", bivariate_pair(s2), reference.SIGMA12_BIVARIATE
        )
    )

    b3, b4 = bivariate_pair(s3), bivariate_pair(s4)
    checks.append(
        _equality_check("sigma3_even_bivariate", b3.even, reference.SIGMA3_EVEN_BIVARIATE)
    )
    checks.append(
        _equality_check("sigma4_even_bivariate", b4.even, reference.SIGMA4_EVEN_BIVARIATE)
    )
    checks.append(
        _equality_check("sigma3_odd_bivariate", b3.odd, reference.SIGMA34_ODD_BIVARIATE)
    )
    checks.append(
        _equality_check("sigma4_odd_bivariate", b4.odd, reference.SIGMA34_ODD_BIVARIATE)
    )
    checks.append(
        {
            "name": "sigma34_odd_equal_even_distinct",
            "status": "pass" if b3.odd == b4.odd and b3.even != b4.even else "fail",
        }
    )
    c3, c4 = chromatic_pair(s3), chromatic_pair(s4)
    checks.append(_equality_check("sigma3_even", c3.even, reference.SIGMA3_EVEN))
    checks.append(_equality_check("sigma4_even", c4.even, reference.SIGMA4_EVEN))
    checks.append(_equality_check("sigma3_odd", c3.odd, reference.SIGMA34_ODD))
    checks.append(_equality_check("sigma4_odd", c4.odd, reference.SIGMA34_ODD))

    checks.append(
        _equality_check(
            "plus_K2_bivariate",
            bivariate_pair(complete_graph(2, 1)),
            reference.PLUS_K2_BIVARIATE,
        )
    )
    checks.append(
        _equality_check(
            "minus_K2_bivariate",
            bivariate_pair(complete_graph(2, -1)),
            reference.MINUS_K2_BIVARIATE,
        )
    )

    code = reference.THRESHOLD_EXAMPLE_CODE
    tb = threshold_bivariate(code)
    checks.append(
        _equality_check(
            "threshold_example_bivariate", tb, reference.THRESHOLD_EXAMPLE_BIVARIATE
        )
    )
    checks.append(
        _equality_check(
            "threshold_example_even_specialized",
            tb.even.substitute_y(0),
            reference.THRESHOLD_EXAMPLE_PAIR.even,
        )
    )
    checks.append(
        _equality_check(
            "threshold_example_odd_specialized",
            tb.odd.substitute_y(0),
            reference.THRESHOLD_EXAMPLE_PAIR.odd,
        )
    )
    checks.append(
        _equality_check(
            "threshold_example_subset_expansion",
            chromatic_pair(threshold_graph(code)),
            reference.THRESHOLD_EXAMPLE_PAIR,
        )
    )

    status = "pass" if all(c["status"] == "pass" for c in checks) else "counterexample"
    return VerificationReport(
        "reproduce-tables",
        None,
        status,
        {"checks": checks},
        time.perf_counter() - start,
    )
