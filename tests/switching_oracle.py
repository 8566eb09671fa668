"""The non-switching-isomorphism certificate as a plain switch-and-search
loop, shared by the tests that check the certificate and the switching
search against it."""

from signedchrom.equivalence import find_isomorphism, free_switching_vertices
from signedchrom.graphs import switch


def oracle_certificate(g1, g2):
    """find_isomorphism(g1, switch(g2, X)) for every subset X of g2's free
    vertices, in binary order; on success switchings_tried counts the
    switchings tried up to the witness."""
    free = free_switching_vertices(g2)
    for bits in range(1 << len(free)):
        X = [v for i, v in enumerate(free) if bits >> i & 1]
        perm = find_isomorphism(g1, switch(g2, X))
        if perm is not None:
            return {
                "switchings_tried": bits + 1,
                "isomorphism_found": True,
                "witness": {"X": X, "perm": list(perm)},
            }
    return {"switchings_tried": 1 << len(free), "isomorphism_found": False}
