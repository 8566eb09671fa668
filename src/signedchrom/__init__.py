"""Exact even/odd chromatic polynomials of signed graphs.

Data model and operations for signed graphs (switching, balance, joins,
threshold constructions), exact integer polynomial pairs (negative-clique
partitions on complete graphs, the edge-subset expansion tallied by a
frontier edge DP on the rest) with
brute-force and interpolation cross-checks, closed-form join families with
a machine-checked identity suite, switching isomorphism and signature-class
enumeration, and desk-scale verifiers for the known tables and conjectures.
"""

from .errors import (
    ArityMismatchError,
    BadCodeError,
    BadIndexError,
    BadRangeError,
    BadSignError,
    BudgetExceededError,
    DuplicateEdgeError,
    EmptyGraphError,
    IndexOutOfRangeError,
    LoopEdgeError,
    NegativeIndexError,
    NegativeParameterError,
    NonIntegralCoefficientError,
    ParseError,
    SignedChromError,
    UnknownEdgeError,
    UnknownFixtureError,
    UsageError,
)
from .graphs import (
    ComponentStats,
    SignedGraph,
    all_positive,
    build_graph,
    complete_graph,
    component_stats,
    delete_vertex,
    fixture,
    fixture_names,
    format_graph,
    is_balanced,
    is_connected,
    join,
    negative_part,
    parse_graph,
    positive_part,
    relabel,
    spanning_subgraph,
    switch,
    threshold_graph,
    vertex_role,
)
from .poly import (
    BiPoly,
    BivariatePair,
    ChromaticPair,
    UniPoly,
    bipoly_to_json,
    double_falling,
    evaluate,
    falling_factorial,
    integer_falling,
    json_to_bipoly,
    json_to_unipoly,
    matchings_T,
    pair_to_json,
    shift_substitute,
    stirling2,
    unipoly_to_json,
)
from .chromatic import (
    ColourSpec,
    bivariate_pair,
    chromatic_pair,
    complete_bivariate_pair,
    complete_chromatic_pair,
    count_colourings_oracle,
    interpolated_pair,
    make_colour_spec,
    threshold_bivariate,
    unsigned_chromatic,
)
from .closedform import (
    H,
    H1,
    H2,
    H3,
    H4,
    U_x,
    hat_H1,
    hat_H2,
    hat_H3,
    hat_H4,
    identity_suite,
    join_family_graph,
    join_pair,
)
from .equivalence import (
    ClassInventory,
    are_isomorphic,
    are_switching_isomorphic,
    automorphisms,
    enumerate_classes,
    find_isomorphism,
    find_switching_isomorphism,
    graph_from_mask,
)
from .verify import (
    VerificationReport,
    reproduce_tables,
    search_cochromatic,
    verify_conj_cochromatic_complete,
    verify_conj_complete_bivariate,
    verify_conj_threshold,
)

__version__ = "0.1.0"
