"""The public names of ``fgr``, pinned: a name is added or dropped only
by editing ``PUBLIC`` here, and no public name aliases another.

A public name is one ``fgr`` binds without a leading underscore, less
its submodules, which the import system binds (``fgr.cli`` among them
once anything imports it).
"""

from types import ModuleType

import fgr

PUBLIC = {
    "AbelianVector", "CoreGraph", "Edge", "InfiniteIndexError", "IntersectionReport",
    "MAX_RANK", "NotAMemberError", "ParseError", "Permutation", "RetractPresentation",
    "SpanningTree", "SuiteReport", "Word", "abelianize_in_subgroup", "add_vectors",
    "apply_projection", "basis", "bergman_counterexample", "canonicalize", "checked_int64",
    "commutator", "contains", "coset_permutation", "cyclic_retract", "exponent_sums", "fold",
    "from_generators", "gamma_graph", "graph_from_json", "graph_to_json", "hm_graph",
    "homology_projection", "intersection_report", "is_visible", "is_visible_in_subgroup",
    "lm_graph", "parse_word", "pullback", "random_retract", "reduce_word", "render_word",
    "rewrite_in_basis", "run_suite", "schreier_graph", "smallest_power_in", "spanning_tree",
    "subgroup_index", "subgroup_rank", "substitute", "suite_names", "transfer",
    "tree_path_word", "turner_power_word", "walk", "wk_square_rewrite", "wk_word",
}


def public_names() -> dict[str, object]:
    return {
        name: value
        for name, value in vars(fgr).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }


def test_public_names_are_pinned():
    assert set(public_names()) == PUBLIC


def test_no_public_name_aliases_another():
    names = public_names()
    by_object: dict[int, list[str]] = {}
    for name, value in names.items():
        by_object.setdefault(id(value), []).append(name)
    assert [group for group in by_object.values() if len(group) > 1] == []
