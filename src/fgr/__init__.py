"""Subgroup calculus for free groups.

Words, Stallings core graphs, abelianized visibility and transfer maps,
the explicit covering-graph families, and retract-intersection
verdicts, with seeded randomized property suites and a CLI (``fgr``).
"""

from .abelian import (
    AbelianVector,
    abelianize_in_subgroup,
    apply_projection,
    homology_projection,
    is_visible,
    is_visible_in_subgroup,
    transfer,
)
from .constructions import (
    gamma_graph,
    hm_graph,
    lm_graph,
    wk_square_rewrite,
    wk_word,
)
from .retracts import (
    IntersectionReport,
    RetractPresentation,
    SuiteReport,
    bergman_counterexample,
    cyclic_retract,
    intersection_report,
    random_retract,
    run_suite,
    smallest_power_in,
    suite_names,
)
from .stallings import (
    CoreGraph,
    Edge,
    InfiniteIndexError,
    NotAMemberError,
    Permutation,
    SpanningTree,
    basis,
    canonicalize,
    contains,
    coset_permutation,
    fold,
    from_generators,
    graph_from_json,
    graph_to_json,
    pullback,
    rewrite_in_basis,
    schreier_graph,
    spanning_tree,
    subgroup_index,
    subgroup_rank,
    tree_path_word,
    walk,
)
from .words import (
    MAX_RANK,
    ParseError,
    Word,
    commutator,
    exponent_sums,
    parse_word,
    reduce_word,
    render_word,
    substitute,
)

__version__ = "0.1.0"
