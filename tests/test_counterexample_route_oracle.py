"""The tree routes of the counterexample, kept as references for the
routes that need no tree and no renumbering.

``oracle_hm_graph`` and ``oracle_lm_graph`` are ``hm_graph`` and
``lm_graph`` as they were before the closed form: ``gamma_graph`` (with
the two slots of the edge of y^m emptied, for odd m) renumbered by
``canonicalize``, and the tree read off the renumbered b-arrays.
``oracle_generator`` is ``basis(graph)[0]``, through a spanning tree,
for the generator of a rank-1 subgroup.  ``oracle_visible_in_subgroup``
is visibility through the basis: the gcd of the exponent sums of the
member rewritten over it.  The seeded tests below require the new
routes to return equal arrays and trees, the same generator up to
inverse, and the same visibility, errors included.
``tests/test_intersection_oracle.py`` keeps the product route of
``intersection_report`` as the arbiter of whole reports.
"""

from __future__ import annotations

import random
from math import gcd

import pytest

from fgr import (
    CoreGraph,
    NotAMemberError,
    RetractPresentation,
    SpanningTree,
    Word,
    basis,
    bergman_counterexample,
    canonicalize,
    contains,
    exponent_sums,
    from_generators,
    intersection_report,
    is_visible_in_subgroup,
    pullback,
    rewrite_in_basis,
    schreier_graph,
    spanning_tree,
    subgroup_rank,
    substitute,
)
from fgr.abelian import _visible_member
from fgr.constructions import gamma_graph, hm_graph, lm_graph, wk_word
from fgr.retracts import _rank1_generator
from test_fold_oracle import random_permutations, random_reduced_word


def oracle_hm_graph(m: int) -> tuple[CoreGraph, frozenset]:
    graph = canonicalize(gamma_graph(m))
    return graph, frozenset((u, v, 2) for u, v in enumerate(graph.table[2]) if v)


def oracle_lm_graph(m: int) -> CoreGraph:
    if m % 2 == 0:
        return canonicalize(gamma_graph(m - 1))
    gamma = gamma_graph(m)
    table = gamma.table
    table[2][m - 1] = table[-2][0] = -1
    return canonicalize(CoreGraph._from_arrays(2, m, table, 2 * m - 1))


def oracle_generator(graph: CoreGraph) -> Word:
    return basis(graph)[0]


def oracle_visible_in_subgroup(graph: CoreGraph, tree: SpanningTree, w: Word) -> bool:
    return gcd(*exponent_sums(rewrite_in_basis(graph, tree, w))) == 1


def arrays(graph: CoreGraph) -> tuple:
    return graph.rank, graph.vertex_count, graph.table, graph._edge_count


def raised(call) -> tuple[type, str] | None:
    try:
        call()
    except ValueError as exc:
        return type(exc), str(exc)
    return None


# --- hm and lm in closed canonical form -------------------------------------------


@pytest.mark.parametrize("ms", [range(2, 601), [100_001]])
def test_closed_forms_match_the_renumbered_gamma_graphs(ms):
    for m in ms:
        graph, tree = hm_graph(m)
        old_graph, old_tree = oracle_hm_graph(m)
        assert arrays(graph) == arrays(old_graph)
        assert tree.tree_edges == old_tree
        assert tree.graph is graph
        if m >= 3:
            assert arrays(lm_graph(m)) == arrays(oracle_lm_graph(m))


# --- the generator of a rank-1 subgroup in one walk --------------------------------


def rank1_folds(rng: random.Random):
    """Seeded rank-1 core graphs of ranks 1..4: the fold of one word, or
    of powers of one root under one conjugator, whose base is then often
    off the cycle."""
    while True:
        rank = rng.randint(1, 4)
        root = random_reduced_word(rng, rank, 6)
        if not root.letters:
            continue
        conjugator = random_reduced_word(rng, rank, 4)
        powers = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(rng.randint(1, 3))]
        words = [conjugator * root**e * conjugator.inverse() for e in powers]
        if rng.random() < 0.3:
            words = [random_reduced_word(rng, rank, 10)]
        graph = from_generators(rank, words)
        if subgroup_rank(graph) == 1:
            yield graph


@pytest.mark.parametrize("seed", range(4))
def test_one_walk_generator_matches_the_tree_basis(seed):
    rng = random.Random(9300 + seed)
    seen = set()
    for graph, _ in zip(rank1_folds(rng), range(200)):
        g = _rank1_generator(graph)
        want = oracle_generator(graph)
        assert g in (want, want.inverse())
        assert from_generators(graph.rank, [g]) == graph
        base_degree = sum(array[0] >= 0 for array in graph.table[1:])
        seen.add("stem" if base_degree == 1 else "no stem")
        seen.add(f"rank {graph.rank}")
        if graph.vertex_count == 1:
            seen.add("loop")
    assert seen == {"stem", "no stem", "loop", "rank 1", "rank 2", "rank 3", "rank 4"}


def bergman_parts(n: int, m: int) -> tuple[CoreGraph, RetractPresentation]:
    """The subgroup and retract of ``bergman_counterexample(n, m, n - 1)``."""
    w = Word(n, wk_word((m - 1) // 2).letters)
    lm = lm_graph(m)
    count = lm.vertex_count
    # Widened to rank n by labels that carry no edge.
    subgroup = CoreGraph(n, count, lm.edges)
    section = [w] + [Word(n, (i,)) for i in range(3, n + 1)]
    retraction = [Word(n - 1, (1,)), Word(n - 1)]
    retraction += [Word(n - 1, (i - 1,)) for i in range(3, n + 1)]
    return subgroup, RetractPresentation(n, tuple(section), tuple(retraction))


@pytest.mark.parametrize("n", (2, 3))
def test_one_walk_generator_on_the_bergman_intersections(n):
    for m in range(3, 202):
        subgroup, retract = bergman_parts(n, m)
        intersection = pullback(subgroup, retract.graph)
        assert subgroup_rank(intersection) == 1
        g = _rank1_generator(intersection)
        want = oracle_generator(intersection)
        assert g in (want, want.inverse())
        assert contains(subgroup, g)
        assert not _visible_member(subgroup, g)


def test_no_rank1_route_builds_a_tree(monkeypatch):
    def no_tree(self, *args, **kwargs):
        raise AssertionError("a spanning tree was built")

    cases = [
        (from_generators(2, [Word(2, (1, 1, 2))]), from_generators(2, [Word(2, (2, 1, -2))])),
        (lm_graph(5), from_generators(2, [wk_word(2)])),
        (lm_graph(5), from_generators(2, [Word(2, (2,)) * wk_word(2) * Word(2, (-2,))])),
        bergman_parts(3, 5),
    ]
    reports = [intersection_report(*case) for case in cases]
    bergman = [bergman_counterexample(n, 7, k) for n, k in ((2, 1), (3, 1), (3, 2))]
    monkeypatch.setattr(SpanningTree, "__init__", no_tree)
    assert [intersection_report(*case) for case in cases] == reports
    assert [bergman_counterexample(n, 7, k) for n, k in ((2, 1), (3, 1), (3, 2))] == bergman
    assert [r.rank_intersection for r in reports] == [0, 1, 1, 1]


# --- visibility off signed edge crossings ------------------------------------------


def random_graph(rng: random.Random, rank: int) -> CoreGraph:
    """A random cover of index at most 10, or the fold of three words of
    at most 8 letters, half the time each."""
    if rng.random() < 0.5:
        return from_generators(rank, [random_reduced_word(rng, rank, 8) for _ in range(3)])
    while True:
        try:
            return schreier_graph(rank, random_permutations(rng, rank, rng.randint(1, 10)), 0)
        except ValueError:
            continue


@pytest.mark.parametrize("seed", range(4))
def test_crossing_gcd_matches_the_rewrite_route(seed):
    rng = random.Random(9400 + seed)
    seen = set()
    for _ in range(150):
        rank = rng.randint(1, 3)
        graph = random_graph(rng, rank)
        tree = spanning_tree(graph)
        words = basis(graph, tree)
        for _ in range(4):
            symbols = random_reduced_word(rng, len(words), 6) if words else Word(0)
            member = substitute(symbols, words, rank)
            # A power of a basis word is visible only when it is a first power.
            if words and rng.random() < 0.25:
                member = substitute(Word(len(words), (rng.randint(1, len(words)),)), words, rank)
                member = member ** rng.randint(1, 3)
            visible = oracle_visible_in_subgroup(graph, tree, member)
            assert is_visible_in_subgroup(graph, tree, member) == visible
            assert _visible_member(graph, member) == visible
            seen.add(visible)
            outsider = random_reduced_word(rng, rank, 8)
            if not contains(graph, outsider):
                error = raised(lambda: oracle_visible_in_subgroup(graph, tree, outsider))
                assert error is not None and error[0] is NotAMemberError
                assert raised(lambda: is_visible_in_subgroup(graph, tree, outsider)) == error
                assert raised(lambda: _visible_member(graph, outsider)) == error
                seen.add(error[1].split(" at ")[0])
    assert seen == {True, False, "word leaves the graph", "path does not close"}


def test_visibility_errors_keep_their_order():
    graph, tree = hm_graph(3)
    other = spanning_tree(hm_graph(5)[0])
    outsider = Word(2, (2,))
    wide = Word(3, (3, 3))
    for call_tree, w in ((tree, wide), (other, wide), (other, outsider), (tree, outsider)):
        want = raised(lambda: oracle_visible_in_subgroup(graph, call_tree, w))
        assert want is not None
        assert raised(lambda: is_visible_in_subgroup(graph, call_tree, w)) == want
