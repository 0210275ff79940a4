"""Each precondition is written once: the rank check ``words._same_rank``
at its nine call sites, the edge check ``stallings._check_edge`` shared
by ``fold`` and the checked ``CoreGraph`` constructor, plain ints in the
checked constructor's table, and ``fgr hm``'s tree text written from the
graph's b-array."""

import json
import random

import pytest

from fgr import (
    CoreGraph,
    InfiniteIndexError,
    Word,
    contains,
    coset_permutation,
    fold,
    from_generators,
    graph_to_json,
    hm_graph,
    intersection_report,
    is_visible_in_subgroup,
    pullback,
    rewrite_in_basis,
    smallest_power_in,
    spanning_tree,
    transfer,
)
from fgr.cli import main

# Rank 2, infinite index: the subgroup <a>.
CYCLIC = from_generators(2, [Word(2, (1,))])
# Rank 2, finite index, and a tree of another rank-2 graph.
COVER = from_generators(2, [Word(2, (1,)), Word(2, (2, 2)), Word(2, (2, 1, -2))])
FOREIGN_TREE = spanning_tree(from_generators(2, [Word(2, (2,))]))
RANK3 = from_generators(3, [Word(3, (1,))])
W3 = Word(3, (1, 2))
W2 = Word(2, (1,))

# Each call raises the rank mismatch with its operands in this order.
# Where a later check of the same call would also fail on these inputs
# (infinite index, a foreign tree), the rank check is the one raised.
RANK_CASES = {
    "Word.__mul__": (lambda: W3 * W2, "3 != 2"),
    "contains": (lambda: contains(CYCLIC, W3), "3 != 2"),
    "rewrite_in_basis, foreign tree": (lambda: rewrite_in_basis(COVER, FOREIGN_TREE, W3), "3 != 2"),
    "pullback": (lambda: pullback(CYCLIC, RANK3), "2 != 3"),
    "coset_permutation, infinite index": (lambda: coset_permutation(CYCLIC, W3), "3 != 2"),
    "transfer, infinite index": (lambda: transfer(CYCLIC, FOREIGN_TREE, W3), "3 != 2"),
    "is_visible_in_subgroup, foreign tree": (
        lambda: is_visible_in_subgroup(COVER, FOREIGN_TREE, W3),
        "3 != 2",
    ),
    "smallest_power_in": (lambda: smallest_power_in(CYCLIC, W3), "3 != 2"),
    "intersection_report": (lambda: intersection_report(CYCLIC, RANK3), "2 != 3"),
}


@pytest.mark.parametrize("name", RANK_CASES)
def test_each_rank_check_names_its_operands_first(name):
    call, operands = RANK_CASES[name]
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == f"rank mismatch: {operands}"
    assert type(caught.value) is ValueError


def test_the_other_checks_fail_on_the_rank_cases_inputs():
    # The inputs above would fail the later checks too, so the cases pin
    # the order of the checks.
    with pytest.raises(InfiniteIndexError):
        coset_permutation(CYCLIC, W2)
    with pytest.raises(InfiniteIndexError):
        transfer(CYCLIC, FOREIGN_TREE, W2)
    for call in (rewrite_in_basis, is_visible_in_subgroup):
        with pytest.raises(ValueError, match="spanning tree does not belong"):
            call(COVER, FOREIGN_TREE, W2)


def test_smallest_power_in_checks_the_empty_word_before_the_rank():
    with pytest.raises(ValueError, match="the trivial word has no smallest power"):
        smallest_power_in(CYCLIC, Word(3))


def edge_error(build, edges):
    with pytest.raises(ValueError) as caught:
        build(edges)
    return str(caught.value)


def both_errors(rank, count, edges):
    return (
        edge_error(lambda e: fold(rank, count, e), edges),
        edge_error(lambda e: CoreGraph(rank, count, e), edges),
    )


@pytest.mark.parametrize(
    "edges, named",
    [
        ([(0, 3, 1), (0, 5, 1)], "edge endpoint out of range: (0, 3, 1)"),
        ([(1, 0, 3), (0, 9, 1)], "edge endpoint out of range: (0, 9, 1)"),
        ([(1, 0, 3), (1, 0, 0), (0, 1, 1)], "edge label out of range: (1, 0, 0)"),
    ],
)
def test_fold_and_core_graph_name_the_first_bad_edge_in_sorted_order(edges, named):
    for given in (edges, edges[::-1]):
        assert both_errors(2, 2, given) == (named, named)


def in_range(rank, count, edge):
    u, v, l = edge
    return 0 <= u < count and 0 <= v < count and 1 <= l <= rank


@pytest.mark.parametrize("seed", range(20))
def test_fold_and_core_graph_agree_on_random_faulty_edge_lists(seed):
    rng = random.Random(seed)
    # At least 5 edges, so no count fails the connectivity bound first.
    rank, count = rng.randint(1, 3), rng.randint(2, 6)
    # Valid edges never share a slot, so only a range check can fail.
    edges = []
    for label in range(1, rank + 1):
        heads = rng.sample(range(count), count)
        edges += [(u, heads[u], label) for u in rng.sample(range(count), rng.randint(0, count))]
    bad = [(-1, 0, 1), (0, count, 1), (count, 9, 1), (0, 0, 0), (1, 0, rank + 1), (0, 0, -1)]
    edges += rng.sample(bad, rng.randint(4, len(bad)))
    while True:
        u, v = rng.randrange(-2, count + 3), rng.randrange(-2, count + 3)
        edge = (u, v, rng.randint(-1, rank + 2))
        if not in_range(rank, count, edge):
            break
    edges.append(edge)
    first_bad = min(e for e in edges if not in_range(rank, count, e))
    for _ in range(3):
        rng.shuffle(edges)
        fold_error, graph_error = both_errors(rank, count, edges)
        assert fold_error == graph_error
        assert fold_error.endswith(f"out of range: {first_bad}")


def test_checked_constructor_holds_ints_for_bool_endpoints():
    graph = CoreGraph(1, 2, [(0, True, 1), (True, 0, 1)])
    plain = CoreGraph(1, 2, [(0, 1, 1), (1, 0, 1)])
    assert graph == plain
    assert {type(slot) for array in graph.table[1:] for slot in array} == {int}
    assert json.dumps(graph_to_json(graph)) == json.dumps(graph_to_json(plain))


@pytest.mark.parametrize("m", range(2, 41))
def test_hm_tree_text_is_the_sorted_tree(capsys, m):
    assert main(["hm", "--m", str(m)]) == 0
    tree = hm_graph(m)[1]
    spelled = [f"{u}:{v}:{l}" for u, v, l in sorted(tree.tree_edges)]
    assert json.loads(capsys.readouterr().out)["tree"] == spelled
