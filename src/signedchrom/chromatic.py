"""Chromatic polynomial pairs of signed graphs.

`chromatic_pair` and `bivariate_pair` pick the route, and each route checks its
own budget.  First, on at most MAX_PEEL_N vertices, `bivariate_pair` peels
every isolated vertex and every dominating vertex with edges of one sign, but
stops at a signed K_n the partition route takes, which answers it faster.  The
paper's deletion formulae (`threshold_step`, whose even half is
`threshold_even_step`) put the peeled vertices back: a relabelled 41-vertex
threshold graph takes about 0.07 s.  Then signed complete graphs take the
partition route, a subset DP over colour units whose univariate pair is its
bivariate pair at y = 0, and every other graph the edge-subset expansion,
which sums a signed term over all spanning subgraphs classified by their
component statistics.  That sum is tallied by a frontier edge DP rather
than subset by subset, on vertices numbered by maximum cardinality search
and states held as bytes strings (see the comment above `_walk`): one
memoised move per state and one budget check per step.  On a 2-core
machine the Petersen graph takes about 2 ms (0.3 ms once its moves are
memoised) instead of 0.2 s for its 2^15 subsets.

The univariate pair depends only on balance, so its tally runs on a switched
copy of the graph, whose chord signs are parities of edge masks.
`chromatic_pairs` tallies a batch, such as the switching classes of one
underlying graph, in one depth-first walk per skeleton of the trie of those
signs, so each class costs only the DP steps after the sign prefix it shares
with the one before, and its leaf decodes straight into its pair: 0.25 s of
CPU in a fresh process on the 7,005 switching classes of the benchmark's
search inputs (seeds 11, 5 and 301), against 0.59 s one graph at a time.
"""

from __future__ import annotations

import functools
import itertools
import math
from contextvars import ContextVar
from typing import Iterator, Sequence

from .errors import BudgetExceededError, SignedChromError
from .graphs import SignedGraph, delete_vertex
from .poly import BiPoly, BivariatePair, ChromaticPair, falling_product

MAX_FRONTIER_ENTRIES = 1 << 17  # live states plus the W-bit slots of their packed counts
MAX_MOVES = 1 << 14             # fused step moves the process memoises
MAX_PARTITION_N = 10            # vertices of a signed K_n: the unit DP visits at most 2^n masks
MAX_PAIR_BATCH = 1 << 12        # graphs per chromatic_pairs batch; iso classes of K_7: 1,044
MAX_PEEL_N = 41                 # vertices bivariate_pair peels: a threshold code of 40 entries


# -- edge-subset expansion: the frontier tally -----------------------------------
#
# The subset expansion sums (-1)^|Y| over all 2^|E| spanning subgraphs Y,
# grouped by (p, b, u): all-positive and balanced components, and u = 1 when
# some component is unbalanced (both pairs read the component count c only
# through b == c, that is u == 0).  The tally adds the edges one at a time and
# keeps, instead of the subsets, the distinct ways they can look from the
# frontier (the vertices with some edges added and some still to come), as in
# Sekine, Imai and Tani (ISAAC 1995).  A frontier state holds
#   labs   - per frontier vertex, its component, numbered by first occurrence
#   pars   - per frontier vertex, its sign parity relative to the first
#            frontier vertex of its component (all 0 once it is unbalanced)
#   flags  - per component, bit 0 unbalanced, bit 1 has a negative edge
#   u      - 1 once a closed component (none of it on the frontier) is unbalanced
# in one bytes string: the frontier width w in two bytes (w reaches 256, the
# vertex cap), labs and pars in w bytes each, a byte of flags per component
# and u in the last byte (`_state`, `_parts`).  With the width in front a
# state decodes on its own, and states of different widths, which share the
# move memo, never compare equal.  Python keeps a bytes string's hash, and
# the moves work on the bytes, relabelling components with `bytes.translate`.
# Each state maps to the signed counts of its closed components by (p, b),
# packed into one int as balanced W-bit digits, W = |E| + 2 (no count of at
# most 2^|E| subsets reaches the next one), at slot p + (b - p) * stride.
# Merging states adds their ints, and closing components shifts one left by
# their slots.
#
# The frontier, and so the work, depends on the vertex order.  `_order`
# numbers the vertices by maximum cardinality search (Tarjan and Yannakakis,
# SIAM J. Comput. 1984) with tie-breaks that keep grids narrow: each
# component starts at a vertex of least degree, and then the vertex with the
# most numbered neighbours comes next, ties broken by fewest unnumbered
# neighbours, then by the earliest position of its first numbered neighbour,
# then by label.  The Petersen graph then peaks at 94 entries, a 3x30 grid
# at 428 and a random recursive 256-vertex tree at 4,162; without the
# tie-break on the first numbered neighbour the grid is refused at 131,951.
#
# The univariate pair needs neither p nor any one edge's sign, only balance,
# which switching keeps.  So its tally runs on the switching that makes each
# vertex's first step, back to its earliest numbered neighbour, positive, and
# starts each component with bit 1 already set, so that states differing only
# in that bit merge; p stays 0 and stride is 1.  A chord's sign is then the
# parity of the negative edges on its cycle through first steps, read off an
# edge mask that `_numbering` finds once per underlying graph.  Graphs on one
# skeleton (vertex count and edge steps) differ only in chord signs, and
# `_walk` tallies them in one depth-first walk of the trie of their sorted
# sign ints (`_signs`).  Each graph of a batch still goes through the
# one-argument `chromatic_pair` and `_subset_tally`, which takes the next
# entry of the batch's walk, held in the context variable `_batch`: so its
# share of the DP runs inside its own call, and batches in other threads
# each see their own walk.
# `chromatic_pairs` resets it in a `finally`.
#
# A step's move, its edge skipped and taken, each then forgotten, is a pure
# function of the state, so the process memoises it in `_moves` for every
# later tally in either mode, keyed by all the move reads but the state, the
# mode (`new` and `stride`) included.  `_move` decodes the state once and
# encodes each result once.  So each step is one pass over the states and
# one budget check.
# Adding stops at MAX_MOVES moves, and a key enters only with its first move.
# The search inputs of seeds 11, 5 and 301 take 1,363 moves; K_9 fills it.


_batch: ContextVar[Iterator | None] = ContextVar("_batch", default=None)
_moves: dict = {}  # (joined, ia, ib, t, new, gone, stride) -> {state: `_move`'s move}
_moves_room = MAX_MOVES


def _order(n: int, edges) -> list[int]:
    """Each vertex's position in the maximum cardinality search of the tally,
    -1 for a vertex without edges.

    Each component starts at an unnumbered vertex of least degree, ties by
    label.  Next comes the unnumbered vertex with the most numbered
    neighbours, ties broken by fewest unnumbered neighbours, then by the
    earliest position of its first numbered neighbour, then by label.  A
    vertex's key only changes when a neighbour is numbered, so the heap
    takes one entry per such change and skips the entries left behind.
    """
    from heapq import heappop, heappush  # imported here: only the tally needs it

    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v, _ in edges:
        adj[u].append(v)
        adj[v].append(u)
    pos, seen, first = [-1] * n, [0] * n, [0] * n
    roots = sorted((len(a), v) for v, a in enumerate(adj) if a)
    numbered = 0
    for _, root in roots:
        if pos[root] >= 0:
            continue
        heap = [(0, 0, 0, root)]
        while heap:
            x = heappop(heap)[3]
            if pos[x] >= 0:
                continue
            pos[x] = numbered
            for y in adj[x]:
                if pos[y] < 0:
                    k = seen[y] = seen[y] + 1
                    if k == 1:
                        first[y] = numbered
                    heappush(heap, (-k, len(adj[y]) - k, first[y], y))
            numbered += 1
    return pos


def _numbering(n: int, edges, switched: bool):
    """(vertices with an edge, skeleton, edge mask of each step) of the tally
    of a graph, which depend only on its underlying graph.

    Vertices are numbered by `_order`, and each edge becomes a step (a, b),
    a > b, taken in sorted order; the skeleton is n and the steps.  A step's
    mask is its edge, with `switched` also both ends' first-step paths.
    """
    pos = _order(n, edges)
    steps = []
    for i, (u, v, _) in enumerate(edges):
        a, b = pos[u], pos[v]
        steps.append((a, b, i) if a > b else (b, a, i))
    steps.sort()
    masks, path, done = [], [0] * n, -1
    for a, b, i in steps:
        bit = 1 << i
        if switched and a > done:
            path[a], done = path[b] ^ bit, a
        masks.append(bit ^ path[a] ^ path[b])
    skeleton = (n, tuple((a, b) for a, b, _ in steps))
    return n - pos.count(-1), skeleton, masks


def _signs(g: SignedGraph, masks) -> int:
    """g's step signs as one int, the first in the top bit, each the parity
    of g's negative edges in its mask: ints order as sign vectors do."""
    neg = sum(1 << i for i, (_, _, s) in enumerate(g.edges) if s < 0)
    signs = 0
    for mask in masks:
        signs = signs << 1 | (neg & mask).bit_count() & 1
    return signs


def _frontier_plan(steps) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Per step: how many vertices join the frontier, the frontier positions
    of the edge's ends, and the positions forgotten after it, in order."""
    last = {}
    for i, (a, b) in enumerate(steps):
        last[a] = last[b] = i
    front: list[int] = []
    plan = []
    for i, (a, b) in enumerate(steps):
        joined = 0
        for x in (b, a):
            if x not in front:
                front.append(x)
                joined += 1
        ia, ib = front.index(a), front.index(b)
        gone = []
        for x in (a, b):
            if last[x] == i:
                gone.append(front.index(x))
                front.remove(x)
        plan.append((joined, ia, ib, tuple(gone)))
    return plan


def _state(labs: bytes, pars: bytes, flags: bytes, u: bytes) -> bytes:
    """One frontier state as bytes: the width w in two bytes, then labs,
    pars, flags and u (see above)."""
    return b"".join((len(labs).to_bytes(2, "big"), labs, pars, flags, u))


def _parts(state: bytes) -> tuple[bytes, bytes, bytes, bytes]:
    """(labs, pars, flags, u) of a state, each as bytes."""
    w = state[0] << 8 | state[1]
    return state[2:w + 2], state[w + 2:2 * w + 2], state[2 * w + 2:-1], state[-1:]


@functools.lru_cache(maxsize=None)
def _label_is(l: int) -> bytes:
    """The translate table that reads a label as 1 when it is l, else 0."""
    return bytes(y == l for y in range(256))


@functools.lru_cache(maxsize=None)
def _merged(lo: int, hi: int) -> bytes:
    """The translate table that folds label hi into lo, lo <= hi, and moves
    the labels above hi down one."""
    return bytes(lo if y == hi else y - (y > hi) for y in range(256))


@functools.lru_cache(maxsize=None)
def _rotated(l: int, r: int) -> bytes:
    """The translate table that moves label l up to l + r and the r labels
    above it down one."""
    return bytes(l + r if y == l else y - (l < y <= l + r) for y in range(256))


def _flip(pars: bytes, labs: bytes, l: int) -> bytes:
    """pars with the parity of every vertex labelled l flipped."""
    mask = int.from_bytes(labs.translate(_label_is(l)), "big")
    return (int.from_bytes(pars, "big") ^ mask).to_bytes(len(pars), "big")


def _clear(pars: bytes, labs: bytes, l: int) -> bytes:
    """pars with the parity of every vertex labelled l set to 0."""
    mask = int.from_bytes(labs.translate(_label_is(l)), "big")
    return (int.from_bytes(pars, "big") & ~mask).to_bytes(len(pars), "big")


def _forget(labs: bytes, pars: bytes, flags: bytes, u: bytes, gone, stride: int) -> tuple[bytes, int]:
    """The canonical state of these parts after forgetting the positions in
    `gone`, in order, and the slots its count moves up by: one per
    all-positive component that closes and `stride` per other balanced one."""
    slots = 0
    for k in gone:
        l = labs[k]
        labs, pars = labs[:k] + labs[k + 1:], pars[:k] + pars[k + 1:]
        j = labs.find(l)
        if j >= 0:
            if j >= k:  # the vertex was its component's first: the one at j is now
                if pars[j]:
                    pars = _flip(pars, labs, l)
                r = max(labs[k:j], default=l) - l  # components now first before j
                if r > 0:
                    labs = labs.translate(_rotated(l, r))
                    flags = flags[:l] + flags[l + 1:l + r + 1] + flags[l:l + 1] + flags[l + r + 1:]
            continue
        f = flags[l]
        if f & 1:
            u = b"\1"
        else:
            slots += stride if f else 1
        labs, flags = labs.translate(_merged(l, l)), flags[:l] + flags[l + 1:]
    return _state(labs, pars, flags, u), slots


def _move(state: bytes, joined: int, ia: int, ib: int, t: int, new: int, gone, stride: int):
    """A step's move: after its joins (one or two new vertices, each its own
    component with flags `new`), the edge between positions ia and ib
    skipped and taken, each followed by the forgets.  (skip, its slots,
    taken, its slots), the states and the slots each count moves up by, or
    () when the two are equal, as when taking the edge changes nothing."""
    labs, pars, flags, u = _parts(state)
    if joined:
        c = len(flags)
        labs += bytes((c, c + 1)[:joined])
        pars += bytes(joined)
        flags += bytes((new, new)[:joined])
    skip = _forget(labs, pars, flags, u, gone, stride)
    la, lb = labs[ia], labs[ib]
    odd = pars[ia] ^ pars[ib] ^ t  # 1 when the edge closes a negative cycle
    if la == lb:
        f = flags[la] | t << 1 | odd
        if f & 1:
            pars = _clear(pars, labs, la)
        flags = flags[:la] + bytes((f,)) + flags[la + 1:]
    else:
        lo, hi = (la, lb) if la < lb else (lb, la)
        f = flags[lo] | flags[hi] | t << 1
        if odd and not f & 1:
            pars = _flip(pars, labs, hi)
        labs = labs.translate(_merged(lo, hi))
        if f & 1:
            pars = _clear(pars, labs, lo)
        flags = flags[:lo] + bytes((f,)) + flags[lo + 1:hi] + flags[hi + 1:]
    taken = _forget(labs, pars, flags, u, gone, stride)
    return () if skip == taken else (*skip, *taken)


def _live_entries(states: dict, width: int) -> int:
    """Live states plus the `width`-bit slots of their counts, up to the budget."""
    live = len(states) + sum(map(int.bit_length, states.values())) // width
    if live > MAX_FRONTIER_ENTRIES:
        raise BudgetExceededError(
            f"{live} frontier entries exceed the tally budget of {MAX_FRONTIER_ENTRIES}"
        )
    return live


def _walk(skeleton, univariate: bool, sign_vectors) -> Iterator[dict]:
    """The final states of the tally on `skeleton` for each sign int in
    turn.  Each starts from the layer after the sign prefix it shares with
    the one before, and keeps its layers as far as it shares signs with the
    one after, until the kept live entries would pass MAX_FRONTIER_ENTRIES.
    With `univariate` the tally runs without the has-negative bit."""
    global _moves_room
    n, steps = skeleton
    plan = _frontier_plan(steps)
    L = len(steps)
    width = L + 2
    stride = 1 if univariate else n + 1
    new = 2 if univariate else 0  # the flags of a component when it appears
    # per vector, the length of the sign prefix it shares with the next one
    shared = [L - (a ^ b).bit_length() for a, b in zip(sign_vectors, sign_vectors[1:])]
    layers = [({_state(b"", b"", b"", b"\0"): 1}, 1)]  # (states, entries held through them)
    start = 0
    for signs, keep in zip(sign_vectors, shared + [0]):
        del layers[start + 1:]
        states, held = layers[start]
        for i in range(start, L):
            joined, ia, ib, gone = plan[i]
            t = signs >> L - 1 - i & 1
            key = joined, ia, ib, t, new, gone, stride
            moves = _moves.get(key, {})
            nxt: dict = {}
            get = nxt.get
            for state, count in states.items():
                move = moves.get(state)
                if move is None:
                    move = _move(state, joined, ia, ib, t, new, gone, stride)
                    if _moves_room > 0:
                        _moves.setdefault(key, moves)[state] = move
                        _moves_room -= 1
                if move:
                    skip, s, taken, r = move
                    nxt[skip] = get(skip, 0) + (count << s * width if s else count)
                    nxt[taken] = get(taken, 0) - (count << r * width if r else count)
            live = _live_entries(nxt, width)
            states = nxt
            if i < keep:
                if held + live > MAX_FRONTIER_ENTRIES:
                    keep = i  # keep no further layer of this path
                else:
                    held += live
                    layers.append((states, held))
        yield states
        start = min(keep, len(layers) - 1)


def _digits(states: dict, width: int) -> list[dict[int, int]]:
    """For u = 0 and u = 1, {slot: digit} of the sum of the packed counts of
    the states with that u (still at most 2^|E| subsets per slot): each
    nonzero balanced digit, read off by shifts once every slot gains half."""
    sums = [0, 0]
    for state, count in states.items():
        sums[state[-1]] += count
    half, mask = 1 << width - 1, (1 << width) - 1
    out = []
    for count in sums:
        slots = count.bit_length() // width + 1
        count += half * (((1 << width * slots) - 1) // mask)
        out.append({k: v for k in range(slots) if (v := (count >> width * k & mask) - half)})
    return out


@functools.lru_cache(maxsize=0)
def _subset_tally(g: SignedGraph, univariate: bool) -> tuple[int, dict[int, int], dict[int, int]]:
    """g's frontier tally, the signed count of its edge subsets: (isolated
    vertices, {slot: count} of the subsets without an unbalanced component,
    the same of those with one), slot p + (b - p) * stride over the vertices
    with an edge (see above); counts that cancel to 0 are left out.  With
    `univariate` the tally runs switched, so p is 0.

    Inside `chromatic_pairs` a univariate tally is the next entry of the
    batch's walk, else a walk of g's one sign vector.  Refuses past
    MAX_FRONTIER_ENTRIES live entries, one per state and one per W-bit slot
    of its count, on the one layer each step leaves: a 3x30 grid peaks at
    428 entries, 5 of them states.  The `lru_cache` stores nothing: the
    benchmark's tracer reads its `cache_info()`, whose misses count every
    tally, around every pair call.
    """
    walk = _batch.get() if univariate else None
    if walk is None:
        covered, skeleton, masks = _numbering(g.n, g.edges, univariate)
        (states,) = _walk(skeleton, univariate, [_signs(g, masks)])
    else:
        h, covered, states = next(walk, (None, 0, None))
        if h is not g:
            raise RuntimeError("a batch's graphs must be asked for in the order of its walk")
    return (g.n - covered, *_digits(states, g.m + 2))


def _subset_chromatic_pair(g: SignedGraph) -> ChromaticPair:
    """Even and odd chromatic polynomials via the subset expansion.

    Each subset Y contributes (-1)^|Y| x^b delta^(c-b); the even constituent
    keeps only subsets with every component balanced (delta = 0 with 0^0 = 1),
    the odd one keeps all of them (delta = 1).
    """
    iso, balanced, unbalanced = _subset_tally(g, True)
    even = {(k + iso, 0): v for k, v in balanced.items()}
    odd = {(k + iso, 0): c for k in balanced.keys() | unbalanced.keys()
           if (c := balanced.get(k, 0) + unbalanced.get(k, 0))}
    return ChromaticPair(BiPoly._trusted(even), BiPoly._trusted(odd))


def _subset_bivariate_pair(g: SignedGraph) -> BivariatePair:
    """Even and odd bivariate chromatic polynomials via the subset expansion.

    Each subset contributes (-1)^|Y| x^p (x-y)^(b-p) delta^(c-b), with delta
    handled as in _subset_chromatic_pair.
    """
    iso, *tally = _subset_tally(g, False)
    even: dict[tuple[int, int], int] = {}
    odd: dict[tuple[int, int], int] = {}
    for u, slots in enumerate(tally):
        for k, cnt in slots.items():
            w, b = divmod(k, g.n + 1)  # b - p and p, then b
            b += w + iso
            for j in range(w + 1):
                co = cnt * math.comb(w, j) * (-1 if j & 1 else 1)
                key = (b - j, j)
                odd[key] = odd.get(key, 0) + co
                if not u:
                    even[key] = even.get(key, 0) + co
    return BivariatePair(BiPoly(even), BiPoly(odd))


def _complete(g: SignedGraph) -> bool:
    """Whether g is a signed K_n: every pair of its vertices an edge."""
    return g.m == g.n * (g.n - 1) // 2


def chromatic_pair(g: SignedGraph) -> ChromaticPair:
    """Even and odd chromatic polynomials: partitions on signed K_n, else the
    tally, which inside `chromatic_pairs` comes from the batch's walk."""
    if _complete(g):
        return complete_chromatic_pair(g)
    return _subset_chromatic_pair(g)


def _peel_entry(g: SignedGraph, v: int) -> int | None:
    """The threshold-code entry that `threshold_step` puts v back with: 0
    when v has no edges, s when v has n - 1 edges all of sign s, otherwise
    None.  The vertex of K_1 is where a code starts, not an entry: None."""
    signs = [s for a, b, s in g.edges if a == v or b == v]
    if not signs:
        return 0 if g.n > 1 else None
    if len(signs) == g.n - 1 and len(set(signs)) == 1:
        return signs[0]
    return None


def bivariate_pair(g: SignedGraph) -> BivariatePair:
    """Even and odd bivariate polynomials, by the routes above.

    The peel scans from the highest vertex, so a threshold graph loses its
    last-added vertex first, and `threshold_step` puts the peeled vertices
    back in reverse order."""
    entries = []
    while 1 < g.n <= MAX_PEEL_N:
        if g.n <= MAX_PARTITION_N and _complete(g):
            break  # the partition route answers a small signed K_n faster
        for v in reversed(range(g.n)):
            entry = _peel_entry(g, v)
            if entry is not None:
                break
        else:
            break
        entries.append(entry)
        g = delete_vertex(g, v)
    pair = complete_bivariate_pair(g) if _complete(g) else _subset_bivariate_pair(g)
    for entry in reversed(entries):
        pair = threshold_step(entry, pair)
    return pair


def chromatic_pairs(graphs: Sequence[SignedGraph]) -> list[ChromaticPair]:
    """`[chromatic_pair(g) for g in graphs]`, with the tallies sharing work:
    numbered once per underlying graph, and each skeleton's graphs asked for
    in order of their switched signs, one walk of their trie.  Signed K_n
    take the partition route and are neither numbered nor sorted.  Refuses
    a batch of more than MAX_PAIR_BATCH graphs before any tally."""
    if len(graphs) > MAX_PAIR_BATCH:
        raise BudgetExceededError(
            f"{len(graphs)} graphs exceed the pair-batch cap of {MAX_PAIR_BATCH}"
        )
    pairs: list = [None] * len(graphs)
    batch, numberings = [], {}
    for i, g in enumerate(graphs):
        if _complete(g):
            pairs[i] = chromatic_pair(g)
            continue
        underlying = (g.n, *zip(*g.edges))[:3]  # n and the two columns of edge ends
        if underlying not in numberings:
            numberings[underlying] = _numbering(g.n, g.edges, True)
        covered, skeleton, masks = numberings[underlying]
        batch.append((skeleton, _signs(g, masks), covered, i))
    batch.sort()  # by skeleton, then signs; the index breaks ties as a stable sort would
    token = _batch.set(_batch_walk(graphs, batch))
    try:
        for *_, i in batch:
            pairs[i] = chromatic_pair(graphs[i])
    finally:
        _batch.reset(token)
    return pairs


def _batch_walk(graphs, batch) -> Iterator[tuple[SignedGraph, int, dict]]:
    """(graph, vertices with an edge, final states) for each (skeleton,
    signs, covered, index) of the sorted batch, one walk per skeleton."""
    for skeleton, group in itertools.groupby(batch, key=lambda entry: entry[0]):
        group = list(group)
        walk = _walk(skeleton, True, [signs for _, signs, _, _ in group])
        for (_, _, covered, i), states in zip(group, walk):
            yield graphs[i], covered, states


# -- dominating-vertex deletion recursion ----------------------------------------


def threshold_step(entry: int, pair: BivariatePair) -> BivariatePair:
    """Bivariate pair after appending one vertex per the code entry.

    Inverts the deletion formulae: the appended vertex is isolated (0),
    positive dominating (1) or negative dominating (-1), so the new pair is
    a fixed combination of the old pair evaluated at shifted arguments.  The
    odd half is the even step applied to the odd polynomial O, less
    O(x - 1, y + 1), plus E(x - 1, y).
    """
    if entry not in (-1, 0, 1):
        raise SignedChromError(f"code entry {entry!r} not in {{-1, 0, 1}}")
    even, odd = pair
    if not entry:
        return BivariatePair(BiPoly.x() * even, BiPoly.x() * odd)
    even_x = even.shifted(-1, 0)
    odd_step, b = _dominating_step(entry, odd, odd.shifted(-1, 0))
    return BivariatePair(_dominating_step(entry, even, even_x)[0], odd_step - b + even_x)


def threshold_even_step(entry: int, even: BiPoly) -> BiPoly:
    """Even constituent only: its recursion is closed in itself, so it is
    `threshold_step`'s even half whatever the odd half."""
    return threshold_step(entry, BivariatePair(even, even)).even


def _dominating_step(entry: int, p: BiPoly, p_x: BiPoly) -> tuple[BiPoly, BiPoly]:
    """The even step y A + (x - y) B of a dominating entry, and B.

    `p_x` is P(x - 1, y), from which both y-shifts are taken: B = P(x - 1,
    y + 1), and A = P(x - 1, y - 1) for entry 1 and P itself for entry -1.
    """
    y = BiPoly.y()
    a = p_x.shifted(0, -1) if entry == 1 else p
    b = p_x.shifted(0, 1)
    return y * a + (BiPoly.x() - y) * b, b


# -- signed complete graphs: the partition route over colour units ----------------
#
# Colour classes of a proper colouring of a signed complete graph are exactly
# the blocks of a partition of V into all-negative cliques, and a block of
# size >= 2 cannot take colour 0.  Group the blocks into units: a single unit
# is one block with a colour of its own, a double unit two blocks with only
# positive edges between them, coloured c and -c by one paired colour.  A
# colouring from a colour set of even type is then a split of V into k double
# and d single units times an assignment of colours to the units, counted by
# `_complete_basis(k, d)`.  `_unit_tally` counts the splits by (k, d) in one
# memoised DP over vertex masks, at most 2^n of them: it chooses the unit of
# the lowest vertex of a mask and recurs on the rest.  The cliques of the
# negative graph that it lists are memoised per vertex set too.
# `complete_bivariate_pair` weights the counts by `_complete_basis`, and the
# univariate pair is that pair at y = 0.
#
# A mask's counts are one packed int, the count of (k, d) in the _UNIT_BITS-bit
# slot k * (n + 1) + d, so adding a unit is a shift and merging is an add.
# Counts are non-negative and never reach the next slot: the splits of n
# vertices number at most Bell(n) partitions times involutions(n) matchings
# of their blocks, and w_zero sums n of those, so at MAX_PARTITION_N every
# count is at most 115,975 * 9,496 * 10 < 2^34.
_UNIT_BITS = 36


def _unit_tally(g: SignedGraph) -> tuple[dict, dict]:
    """(w_all, w_zero) of a signed complete graph, each keyed by (k, d).

    w_all counts the splits of V into k double and d single units (see
    above).  Colour 0 is its own negative, so at most one vertex takes it,
    as a singleton block; w_zero sums over each vertex s the splits of
    V minus s.  Refuses graphs that are not complete, and past
    MAX_PARTITION_N vertices.
    """
    n = g.n
    if not _complete(g):
        raise ValueError("underlying graph is not complete")
    if n > MAX_PARTITION_N:
        raise BudgetExceededError(
            f"signed K_{n} exceeds the partition-route limit n = {MAX_PARTITION_N}"
        )
    neg = [0] * n
    for u, v, s in g.edges:
        if s < 0:
            neg[u] |= 1 << v
            neg[v] |= 1 << u
    double = _UNIT_BITS * (n + 1)
    clique_memo: dict[int, list[tuple[int, int]]] = {0: [(0, 0)]}
    unit_memo = {0: 1}

    def cliques(mask: int) -> list[tuple[int, int]]:
        # (C, the negative neighbours of C) for the cliques C in mask, empty first
        got = clique_memo.get(mask)
        if got is None:
            low = mask & -mask
            rest, nv = mask ^ low, neg[low.bit_length() - 1]
            got = cliques(rest) + [(c | low, nc | nv) for c, nc in cliques(rest & nv)]
            clique_memo[mask] = got
        return got

    def units(mask: int) -> int:
        got = unit_memo.get(mask)
        if got is None:
            low = mask & -mask
            rest, nv = mask ^ low, neg[low.bit_length() - 1]
            ones = twos = 0
            for c, nc in cliques(rest & nv):  # the lowest vertex's block A
                left = rest ^ c
                ones += units(left)
                for b, _ in cliques(left & ~(nc | nv))[1:]:  # a block B beside A
                    twos += units(left ^ b)
            got = unit_memo[mask] = (ones << _UNIT_BITS) + (twos << double)
        return got

    full, slot = (1 << n) - 1, (1 << _UNIT_BITS) - 1
    packed = units(full), sum(units(full ^ 1 << s) for s in range(n))
    return tuple(
        {(k, d): c for k in range(n // 2 + 1) for d in range(n - 2 * k + 1)
         if (c := w >> (k * (n + 1) + d) * _UNIT_BITS & slot)}
        for w in packed
    )


@functools.lru_cache(maxsize=None)
def _complete_basis(k: int, d: int) -> BiPoly:
    """Assignments for k doubled pairs plus d singly-coloured blocks, from a
    colour set of even type: x - y paired colours and y unpaired ones, which
    j of the single blocks take.  The k pairs and the other d - j blocks each
    take a pair +-c of the paired colours."""
    y, z = BiPoly.y(), BiPoly.x() - BiPoly.y()
    s = BiPoly.zero()
    for j in range(d + 1):
        s = s + math.comb(d, j) * falling_product(y, 1, j) * falling_product(z, 2, k + d - j)
    return s


def complete_bivariate_pair(g: SignedGraph) -> BivariatePair:
    """Bivariate pair of a signed complete graph via its colour units: count
    * `_complete_basis(k, d)` summed over the splits that w_all counts for
    the even constituent.  For the odd one, the vertex coloured 0 (if any) is
    a singleton, and the others are coloured from an even-type set of x - 1
    colours: so the odd constituent adds the same sum over w_zero and is
    taken at (x - 1, y).  Both sums run term by term into one dict, and each
    polynomial is built once."""
    terms: dict[tuple[int, int], int] = {}
    pair = []
    for w in _unit_tally(g):
        for (k, d), cnt in w.items():
            for key, c in _complete_basis(k, d).items():
                terms[key] = terms.get(key, 0) + cnt * c
        pair.append(BiPoly(terms))
    return BivariatePair(pair[0], pair[1].shifted(-1, 0))


def complete_chromatic_pair(g: SignedGraph) -> ChromaticPair:
    """Univariate pair of a signed complete graph: `complete_bivariate_pair`
    at y = 0."""
    even, odd = complete_bivariate_pair(g)
    return ChromaticPair(even.substitute_y(0), odd.substitute_y(0))
