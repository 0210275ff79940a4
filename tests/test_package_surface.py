"""The public names of ``fgr``, pinned: a name is added or dropped only
by editing ``PUBLIC`` here, no public name aliases another, and the
package itself uses every one of them but the two the benchmark times
from outside.

A public name is one ``fgr`` binds without a leading underscore, less
its submodules, which the import system binds (``fgr.cli`` among them
once anything imports it).
"""

import ast
from pathlib import Path
from types import ModuleType

import fgr

PUBLIC = {
    "AbelianVector", "CoreGraph", "Edge", "InfiniteIndexError", "IntersectionReport",
    "MAX_RANK", "NotAMemberError", "ParseError", "Permutation", "RetractPresentation",
    "SpanningTree", "SuiteReport", "Word", "abelianize_in_subgroup",
    "apply_projection", "basis", "bergman_counterexample", "canonicalize",
    "commutator", "contains", "coset_permutation", "cyclic_retract", "exponent_sums", "fold",
    "from_generators", "gamma_graph", "graph_from_json", "graph_to_json", "hm_graph",
    "homology_projection", "intersection_report", "is_visible", "is_visible_in_subgroup",
    "lm_graph", "parse_word", "pullback", "random_retract", "reduce_word", "render_word",
    "rewrite_in_basis", "run_suite", "schreier_graph", "smallest_power_in", "spanning_tree",
    "subgroup_index", "subgroup_rank", "substitute", "suite_names", "transfer",
    "tree_path_word", "walk", "wk_square_rewrite", "wk_word",
}

# Public names only the benchmark's per-layer metrics call.
BENCHMARKED = {"coset_permutation", "tree_path_word"}


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


def names_used_in_the_package() -> set[str]:
    """The names read in the modules of ``fgr`` other than ``__init__``,
    each outside the top-level statement that defines it."""
    used: set[str] = set()
    for path in Path(fgr.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for statement in ast.parse(path.read_text(encoding="utf-8")).body:
            read = {
                node.id
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            }
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                read.discard(statement.name)
            used |= read
    return used


def test_every_public_name_is_used_in_the_package():
    unused = set(public_names()) - names_used_in_the_package()
    assert unused == BENCHMARKED
