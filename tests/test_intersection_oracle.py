"""The product route of ``intersection_report``, kept as the reference
for the route that reads a cyclic retract's intersection off the
smallest power.

``oracle_intersection_report`` is ``intersection_report`` as it was
before that route: it builds the fiber product of the subgroup and the
retract for every retract, takes the intersection's rank from the
product and, for a cyclic intersection, tests the visibility of the
product's basis word.  The seeded tests below require the report of
``intersection_report`` to equal the oracle's on rank-1 retracts, given
as ``RetractPresentation`` and as ``CoreGraph``, in subgroups of finite
and of infinite index, with trivial intersections and with generators
that are not cyclically reduced, and on ``bergman_counterexample(2, m,
1)``.
"""

from __future__ import annotations

import random

import pytest

from fgr import (
    CoreGraph,
    IntersectionReport,
    RetractPresentation,
    Word,
    basis,
    bergman_counterexample,
    canonicalize,
    cyclic_retract,
    from_generators,
    intersection_report,
    is_visible,
    is_visible_in_subgroup,
    pullback,
    schreier_graph,
    smallest_power_in,
    spanning_tree,
    subgroup_index,
    subgroup_rank,
)
from fgr.constructions import lm_graph, wk_word
from test_fold_oracle import random_permutations, random_reduced_word


def oracle_intersection_report(
    subgroup: CoreGraph, retract: RetractPresentation | CoreGraph
) -> IntersectionReport:
    r_graph = retract.graph if isinstance(retract, RetractPresentation) else retract
    if subgroup.rank != r_graph.rank:
        raise ValueError(f"rank mismatch: {subgroup.rank} != {r_graph.rank}")
    intersection = pullback(subgroup, r_graph)
    rank_h = subgroup_rank(subgroup)
    rank_r = (
        retract.rank if isinstance(retract, RetractPresentation) else subgroup_rank(r_graph)
    )
    rank_i = subgroup_rank(intersection)

    smallest = None
    if rank_r == 1:
        if isinstance(retract, RetractPresentation):
            generator = retract.section_images[0]
        else:
            generator = basis(r_graph)[0]
        smallest = smallest_power_in(subgroup, generator)

    visible = None
    if rank_i == 1:
        u = basis(intersection)[0]
        visible = is_visible_in_subgroup(subgroup, spanning_tree(subgroup), u)

    if rank_i == 0:
        verdict = "yes"
    elif rank_i == 1:
        verdict = "yes" if visible else "no"
    elif intersection == canonicalize(subgroup):
        verdict = "yes"
    elif rank_h <= 2:
        verdict = "no"
    else:
        verdict = "undecided"
    return IntersectionReport(rank_h, rank_r, rank_i, smallest, visible, verdict)


def random_subgroup(rng: random.Random, rank: int) -> CoreGraph:
    """A random cover of index at most 12 or a subgroup on 1-3 words of
    at most 6 letters (almost always of infinite index), half the time
    each."""
    if rng.random() < 0.5:
        words = [random_reduced_word(rng, rank, 6) for _ in range(rng.randint(1, 3))]
        return from_generators(rank, words)
    while True:
        points = rng.randint(1, 12)
        try:
            return schreier_graph(rank, random_permutations(rng, rank, points), 0)
        except ValueError:
            continue


def cyclic_generator(rng: random.Random, rank: int) -> Word:
    """A nontrivial word, conjugated by a random word a third of the time
    so that it is often not cyclically reduced (as ``baB`` is not)."""
    while True:
        g = random_reduced_word(rng, rank, 5)
        if rng.random() < 1 / 3:
            c = random_reduced_word(rng, rank, 3)
            g = c * g * c.inverse()
        if g.letters:
            return g


@pytest.mark.parametrize("seed", range(4))
def test_cyclic_route_matches_product_route(seed):
    rng = random.Random(8100 + seed)
    seen = set()
    for _ in range(150):
        rank = rng.choice((2, 3))
        subgroup = random_subgroup(rng, rank)
        g = cyclic_generator(rng, rank)
        if is_visible(g) and rng.random() < 0.5:
            retract = cyclic_retract(g)
            seen.add("presented")
        else:
            retract = from_generators(rank, [g])
            seen.add("graph")
        report = intersection_report(subgroup, retract)
        assert report == oracle_intersection_report(subgroup, retract)
        seen.add("finite index" if subgroup_index(subgroup) else "infinite index")
        if report.smallest_power is None:
            assert report.verdict == "yes"
            seen.add("trivial")
        elif report.smallest_power > 1:
            seen.add("proper power")
        if g.letters[0] == -g.letters[-1]:
            seen.add("not cyclically reduced")
    assert seen == {
        "presented",
        "graph",
        "finite index",
        "infinite index",
        "trivial",
        "proper power",
        "not cyclically reduced",
    }


def test_bergman_cyclic_case_matches_product_route():
    retraction = (Word(1, (1,)), Word(1))
    for m in range(3, 22):
        w = Word(2, wk_word((m - 1) // 2).letters)
        presented = RetractPresentation(2, (w,), retraction)
        report = bergman_counterexample(2, m, 1)
        assert report == oracle_intersection_report(lm_graph(m), presented)
        assert report.verdict == "no"
