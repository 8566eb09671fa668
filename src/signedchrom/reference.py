"""The published polynomials that `reproduce-tables` compares against.

Transcribed in their published factored form and expanded exactly by the
package's own ring arithmetic when the module is imported, so any
transcription slip shows up as a mismatch during table reproduction.  Only
`verify.reproduce_tables` imports this module, so no other command builds
these polynomials.  The complete-graph and Petersen tables are compared as
multisets of (even, odd) pairs: the class enumeration here fixes no
correspondence with the published row labels.
"""

from __future__ import annotations

from .poly import BiPoly, BivariatePair, ChromaticPair

# The worked threshold-graph example.
THRESHOLD_EXAMPLE_CODE = (1, -1, 0, -1, 1, 0, 1)


def _p(*desc: int) -> BiPoly:
    """Polynomial in x from descending coefficients, as printed."""
    return BiPoly(((i, 0), c) for i, c in enumerate(reversed(desc)))


X, Y = BiPoly.x(), BiPoly.y()

# (even, odd) chromatic pairs of the signature classes of K_3, K_4, K_5,
# keyed by order; within one order the list is an unordered multiset.
COMPLETE_TABLE: dict[int, list[ChromaticPair]] = {
    3: [
        ChromaticPair(X * (X - 1) * (X - 2), X * (X - 1) * (X - 2)),
        ChromaticPair(X * _p(1, -3, 3), (X - 1) ** 3),
    ],
    4: [
        ChromaticPair(X * (X - 1) * (X - 2) * (X - 3), X * (X - 1) * (X - 2) * (X - 3)),
        ChromaticPair(X * (X - 2) * _p(1, -4, 5), (X - 1) ** 2 * (X - 2) ** 2),
        ChromaticPair(X * _p(1, -6, 15, -13), (X - 1) * _p(1, -5, 10, -7)),
    ],
    5: [
        ChromaticPair(
            X * (X - 1) * (X - 2) * (X - 3) * (X - 4),
            X * (X - 1) * (X - 2) * (X - 3) * (X - 4),
        ),
        ChromaticPair(
            X * (X - 2) * (X - 3) * _p(1, -5, 7),
            (X - 1) ** 2 * (X - 2) * (X - 3) ** 2,
        ),
        ChromaticPair(
            X * (X - 2) * _p(1, -8, 25, -29),
            (X - 1) * (X - 2) * _p(1, -7, 18, -17),
        ),
        ChromaticPair(
            X * (X - 2) * (X - 3) * _p(1, -5, 8),
            (X - 1) * (X - 2) ** 3 * (X - 3),
        ),
        ChromaticPair(
            X * (X - 2) * _p(1, -8, 26, -31),
            (X - 1) * (X - 2) * _p(1, -7, 19, -19),
        ),
        ChromaticPair(
            X * (X - 2) * (X - 3) * _p(1, -5, 9),
            (X - 1) * (X - 2) * (X - 3) * _p(1, -4, 5),
        ),
        ChromaticPair(
            X * _p(1, -10, 45, -95, 75),
            (X - 1) * _p(1, -9, 36, -69, 51),
        ),
    ],
}

# (even, odd) chromatic pairs of the six signature classes of the Petersen graph.
PETERSEN_TABLE: list[ChromaticPair] = [
    ChromaticPair(
        X * (X - 1) * (X - 2) * _p(1, -12, 67, -230, 529, -814, 775, -352),
        X * (X - 1) * (X - 2) * _p(1, -12, 67, -230, 529, -814, 775, -352),
    ),
    ChromaticPair(
        X * (X - 2) * _p(1, -13, 79, -297, 763, -1379, 1717, -1351, 516),
        (X - 1) ** 2 * (X - 2) ** 2 * _p(1, -9, 38, -98, 163, -165, 82),
    ),
    ChromaticPair(
        X * (X - 2) * _p(1, -13, 79, -297, 765, -1397, 1781, -1462, 597),
        (X - 1) * _p(1, -14, 91, -364, 995, -1938, 2703, -2621, 1619, -492),
    ),
    ChromaticPair(
        X * (X - 2) * _p(1, -13, 79, -297, 767, -1411, 1823, -1524, 635),
        (X - 1) * _p(1, -14, 91, -364, 997, -1956, 2773, -2767, 1781, -568),
    ),
    ChromaticPair(
        X * (X - 2) * _p(1, -13, 79, -297, 765, -1401, 1803, -1509, 632),
        (X - 1) * (X - 2) ** 2 * _p(1, -4, 5) * _p(1, -6, 18, -34, 37, -28),
    ),
    ChromaticPair(
        X * _p(1, -15, 105, -455, 1365, -2981, 4785, -5460, 4005, -1425),
        (X - 1) * _p(1, -14, 91, -364, 1001, -1992, 2913, -3057, 2103, -727),
    ),
]

# Chromatic pairs of the displayed co-chromatic examples.
GEM_PAIR = ChromaticPair(
    X * (X - 2) ** 2 * _p(1, -3, 3),
    (X - 1) ** 3 * (X - 2) ** 2,
)
SIGMA12_PAIR = ChromaticPair(
    X * (X - 1) * (X - 2) ** 2 * _p(1, -3, 3),
    (X - 1) ** 4 * (X - 2) ** 2,
)

# Bivariate pairs of the same graphs.
_GEM_CORE_E = X**3 - 3 * X**2 + X * Y + 3 * X - 2 * Y
GEM_BIVARIATE = BivariatePair(
    (X - 2) ** 2 * _GEM_CORE_E,
    (X - 2) ** 2 * (_GEM_CORE_E - 1),
)
SIGMA12_BIVARIATE = BivariatePair(
    (X - 1) * (X - 2) ** 2 * _GEM_CORE_E,
    (X - 1) * (X - 2) ** 2 * (_GEM_CORE_E - 1),
)

# The five-vertex pair with equal odd but distinct even bivariate polynomials.
SIGMA3_EVEN_BIVARIATE = (
    X**5 - 7 * X**4 + 3 * X**3 * Y + 20 * X**3 - 15 * X**2 * Y
    - 28 * X**2 + X * Y**2 + 26 * X * Y + 16 * X - 2 * Y**2 - 15 * Y
)
SIGMA4_EVEN_BIVARIATE = (
    X**5 - 7 * X**4 + 3 * X**3 * Y + 20 * X**3 - 15 * X**2 * Y
    - 27 * X**2 + X * Y**2 + 26 * X * Y + 14 * X - 2 * Y**2 - 14 * Y
)
SIGMA34_ODD_BIVARIATE = (
    X**5 - 7 * X**4 + 3 * X**3 * Y + 20 * X**3 - 15 * X**2 * Y
    - 29 * X**2 + X * Y**2 + 26 * X * Y + 21 * X - 2 * Y**2 - 15 * Y - 6
)
SIGMA3_EVEN = X * (X - 2) ** 2 * _p(1, -3, 4)
SIGMA4_EVEN = X * (X - 2) * _p(1, -5, 10, -7)
SIGMA34_ODD = (X - 1) ** 2 * (X - 2) * _p(1, -3, 3)

PLUS_K2_BIVARIATE = BivariatePair(X * (X - 1), X * (X - 1))
MINUS_K2_BIVARIATE = BivariatePair(X**2 - X + Y, X**2 - X + Y)

# The worked threshold-graph example's bivariate pair and its y = 0
# specializations.
THRESHOLD_EXAMPLE_BIVARIATE = BivariatePair(
    (X - 1)
    * (X - 3)
    * (
        X**6 - 15 * X**5 + 6 * X**4 * Y + 99 * X**4 - 71 * X**3 * Y
        - 345 * X**3 + 4 * X**2 * Y**2 + 325 * X**2 * Y + 618 * X**2
        - 36 * X * Y**2 - 650 * X * Y - 440 * X + 80 * Y**2 + 424 * Y
    ),
    (X - 1)
    * (X - 3)
    * (
        X**6 - 15 * X**5 + 6 * X**4 * Y + 99 * X**4 - 71 * X**3 * Y
        - 359 * X**3 + 4 * X**2 * Y**2 + 325 * X**2 * Y + 738 * X**2
        - 36 * X * Y**2 - 666 * X * Y - 792 * X + 80 * Y**2 + 488 * Y + 328
    ),
)
THRESHOLD_EXAMPLE_PAIR = ChromaticPair(
    X * (X - 1) * (X - 2) * (X - 3) * _p(1, -13, 73, -199, 220),
    (X - 1) ** 2 * (X - 3) * _p(1, -14, 85, -274, 464, -328),
)
