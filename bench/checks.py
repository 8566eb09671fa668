"""Output checks whose expected values do not come from the code under test.

Answer keys:

* switching classes of signed K_n, n = 0..7: Mallows and Sloane, "Two-graphs,
  switching classes and Euler graphs are equal in number", SIAM J. Appl.
  Math. 28 (1975); OEIS A002854 (for n >= 1).
* isomorphism classes of signed K_n = graphs on n vertices: OEIS A000088.
* the check names reproduce-tables must report: TABLE_CHECKS, the paper's
  tables for K_3..K_5 and the Petersen graph and its displayed polynomials.
* threshold codes of length d: 3^d, so the exact scan up to length e makes
  at least 3 + 9 + ... + 3^e vertex-addition steps (counted when traced).
* signatures of a graph with m edges: 2^m, so orbit sizes sum to 2^m.
* a certificate against switching isomorphism tries 2^(n-c) switchings
  (c = number of components of the underlying graph).
* co-chromatic classes have equal proper-colouring counts, checked with the
  brute-force counter below; on small graphs the counts at 0..2n+1 colours
  fix both parity polynomials, so they give the co-chromatic groups exactly.

Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json

SWITCHING_CLASSES_KN = (1, 1, 1, 2, 3, 7, 16, 54)
ISO_CLASSES_KN = (1, 1, 2, 4, 11, 34, 156)
BRUTE_FORCE_COLOURS = (1, 2, 3)
TABLE_CHECKS = frozenset({
    "complete_table_K3", "complete_table_K4", "complete_table_K5", "petersen_table",
    "gem_G1_pair", "gem_G2_pair", "sigma1_pair", "sigma2_pair",
    "gem_G1_bivariate", "gem_G2_bivariate", "sigma1_bivariate", "sigma2_bivariate",
    "sigma3_even_bivariate", "sigma4_even_bivariate",
    "sigma3_odd_bivariate", "sigma4_odd_bivariate", "sigma34_odd_equal_even_distinct",
    "sigma3_even", "sigma4_even", "sigma3_odd", "sigma4_odd",
    "plus_K2_bivariate", "minus_K2_bivariate",
    "threshold_example_bivariate", "threshold_example_even_specialized",
    "threshold_example_odd_specialized", "threshold_example_subset_expansion",
})


def parse_sg(text: str) -> tuple[int, list[tuple[int, int, int]]]:
    """Vertex count and (u, v, sign) edges of a `.sg` file."""
    n, edges = 0, []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "n":
            n = int(parts[1])
        elif parts and parts[0] == "e":
            edges.append((int(parts[1]), int(parts[2]), 1 if parts[3] == "+" else -1))
    return n, edges


def component_count(n: int, edges) -> int:
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v, *_ in edges:
        parent[find(u)] = find(v)
    return sum(1 for v in range(n) if find(v) == v)


def count_colourings(n: int, edges, lam: int) -> int:
    """Proper colourings with lam colours and no unpaired ones.

    The colours are +-1..+-(lam // 2), plus 0 when lam is odd; a colouring
    is proper when no edge (u, v, s) has colour(u) == s * colour(v).  The
    vertices are coloured in order.  Vertex 0 tries only 1 and 0: negating
    colours and permuting the pairs +-i keeps a colouring proper, so every
    non-zero colour of vertex 0 starts as many colourings as 1 does.  The
    last vertex takes every colour its neighbours leave.
    """
    half = lam // 2
    colours = [c for i in range(1, half + 1) for c in (i, -i)] + ([0] if lam % 2 else [])
    if n < 2:
        return len(colours) ** n
    earlier = [[] for _ in range(n)]  # (earlier neighbour, sign) of each vertex
    for u, v, s in edges:
        earlier[max(u, v)].append((min(u, v), s))
    kappa = [0] * n

    def extend(v: int) -> int:
        if v == n - 1:
            return len(colours) - len({s * kappa[u] for u, s in earlier[v]})
        total = 0
        for c in colours:
            if all(c != s * kappa[u] for u, s in earlier[v]):
                kappa[v] = c
                total += extend(v + 1)
        return total

    kappa[0] = 1
    total = 2 * half * extend(1) if half else 0
    if lam % 2:
        kappa[0] = 0
        total += extend(1)
    return total


def eval_coeffs(coeffs: list[str], x: int) -> int:
    return sum(int(c) * x**k for k, c in enumerate(coeffs))


def _load(stdout: str) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(stdout), []
    except ValueError:
        return None, ["stdout is not one JSON document"]


def _expect_counts(found: dict, key: dict[int, int], scale: int, what: str) -> list[str]:
    want = {str(n): key[n] for n in range(scale + 1)}
    if found != want:
        return [f"{what}: got {found}, want {want}"]
    return []


def check_cli_output(argv: list[str], code, stdout: str) -> list[str]:
    """Checks for reproduce-tables and the three conjecture verifiers."""
    if code != 0:
        return [f"exit code {code}"]
    doc, problems = _load(stdout)
    if doc is None:
        return problems
    if doc.get("status") != "pass":
        problems.append(f"status {doc.get('status')!r}")
    details = doc.get("details", {})
    scale = doc.get("scale")
    if argv[0] == "reproduce-tables":
        names = set()
        for check in details.get("checks", []):
            name = check.get("name", "")
            names.add(name)
            if check.get("status") != "pass":
                problems.append(f"check {name} is {check.get('status')}")
            if name.startswith("complete_table_K"):
                n = int(name.removeprefix("complete_table_K"))
                if check.get("classes") != SWITCHING_CLASSES_KN[n]:
                    problems.append(f"{name}: {check.get('classes')} classes")
        if not TABLE_CHECKS <= names:
            problems.append(f"checks missing: {sorted(TABLE_CHECKS - names)}")
    elif "cochromatic-complete" in argv:
        problems += _expect_counts(
            details.get("classes_checked"), dict(enumerate(SWITCHING_CLASSES_KN)),
            scale, "switching classes of K_n",
        )
    elif "bivariate-complete" in argv:
        problems += _expect_counts(
            details.get("class_counts"), dict(enumerate(ISO_CLASSES_KN)),
            scale, "isomorphism classes of K_n",
        )
    elif "threshold" in argv:
        method = details.get("method", {})
        exact_to = method.get("exact_to")
        if not 0 < exact_to <= scale:
            problems.append(f"exact scan to {exact_to} for n <= {scale}")
        elif method.get("fingerprint_from") != (exact_to + 1 if exact_to < scale else None):
            problems.append(f"fingerprint scan from {method.get('fingerprint_from')} "
                            f"after an exact scan to {exact_to}, n <= {scale}")
    else:
        problems.append(f"no check for {argv}")
    return problems


def check_threshold_steps(stdout: str, steps: int) -> list[str]:
    """The exact scan to length e made a step for every code of length 1..e."""
    exact_to = json.loads(stdout)["details"]["method"]["exact_to"]
    want = sum(3**d for d in range(1, exact_to + 1))
    if steps < want:
        return [f"{steps} threshold steps, want at least {want} for codes up to {exact_to}"]
    return []


def check_search_output(graph_text: str, code, stdout: str) -> list[str]:
    """Checks for one search-cochromatic request on the graph in graph_text."""
    if code != 0:
        return [f"exit code {code}"]
    doc, problems = _load(stdout)
    if doc is None:
        return problems
    n, edges = parse_sg(graph_text)
    if doc.get("status") != "pass":
        problems.append(f"status {doc.get('status')!r}")
    details = doc.get("details", {})
    if doc.get("scale") != len(edges):
        problems.append(f"scale {doc.get('scale')} for {len(edges)} edges")
    if not 1 <= details.get("class_count", 0) <= 1 << len(edges):
        problems.append(f"class count {details.get('class_count')}")
    tries = 1 << (n - component_count(n, edges))
    for group in details.get("cochromatic_groups", []):
        for cert in group["non_switching_isomorphism"]:
            if cert["isomorphism_found"] or cert["switchings_tried"] != tries:
                problems.append(f"certificate {cert} (want {tries} switchings, none found)")
    return problems


def check_orbits(graph_text: str, stdout: str, inventory) -> list[str]:
    """Orbit sizes of the full inventory sum to 2^m and match the output."""
    _, edges = parse_sg(graph_text)
    problems = []
    if sum(inventory.orbit_sizes) != 1 << len(edges):
        problems.append(f"orbit sizes sum to {sum(inventory.orbit_sizes)}, not 2^{len(edges)}")
    details = json.loads(stdout)["details"]
    if inventory.class_count != details["class_count"]:
        problems.append(f"class count {details['class_count']} != {inventory.class_count}")
    size_of = dict(zip(inventory.representative_masks, inventory.orbit_sizes))
    for group in details["cochromatic_groups"]:
        for c in group["classes"]:
            if size_of.get(c["mask"]) != c["orbit_size"]:
                problems.append(f"class mask {c['mask']}: orbit size {c['orbit_size']}")
    return problems


def check_pair_by_brute_force(cls_a: dict, cls_b: dict, pair: dict) -> list[str]:
    """Both classes of a co-chromatic group have the reported colouring counts."""
    problems = []
    for lam in BRUTE_FORCE_COLOURS:
        want = eval_coeffs(pair["even" if lam % 2 == 0 else "odd"], lam)
        for cls in (cls_a, cls_b):
            edges = [(u, v, 1 if s == "+" else -1) for u, v, s in cls["edges"]]
            got = count_colourings(cls["n"], edges, lam)
            if got != want:
                problems.append(f"class mask {cls['mask']}: {got} colourings at {lam}, pair says {want}")
    return problems


def check_groups_by_brute_force(stdout: str, inventory) -> list[str]:
    """The co-chromatic groups are exactly the classes with equal counts.

    Every class of the inventory is counted by brute force at 0..2n+1
    colours; classes with equal counts must form the reported groups, and
    each group's pair must give those counts.
    """
    counts = {}  # class mask -> colouring counts at 0..2n+1 colours
    for mask, rep in zip(inventory.representative_masks, inventory.representatives):
        counts[mask] = tuple(count_colourings(rep.n, rep.edges, lam) for lam in range(2 * rep.n + 2))
    by_counts: dict[tuple, set] = {}
    for mask, key in counts.items():
        by_counts.setdefault(key, set()).add(mask)
    want = {frozenset(masks) for masks in by_counts.values() if len(masks) > 1}
    problems = []
    got = set()
    for group in json.loads(stdout)["details"]["cochromatic_groups"]:
        masks = frozenset(c["mask"] for c in group["classes"])
        got.add(masks)
        key = counts.get(min(masks))
        pair = group["pair"]
        evaluated = tuple(
            eval_coeffs(pair["even" if lam % 2 == 0 else "odd"], lam) for lam in range(len(key or ()))
        )
        if key is None or evaluated != key:
            problems.append(f"group {sorted(masks)}: pair gives {evaluated}, brute force {key}")
    if got != want:
        problems.append(f"co-chromatic groups {sorted(map(sorted, got))}, "
                        f"brute force gives {sorted(map(sorted, want))}")
    return problems
