"""The cycle-by-cycle transfer, the basis-walking homology projection,
the bases and tree paths that reduced what they built, and the per-call
tree check, kept as the reference their replacements are checked
against.

``cycle_transfer``, ``chain_projection`` and ``all_paths_basis`` are the
old ``transfer``, ``homology_projection`` and ``basis`` as they were:
the transfer rewrites, for each cycle of the coset permutation, the
lifted loop (tree path) w^len(cycle) (tree path back) over the subgroup
basis; the projection builds every basis word and reads the base lifts
off its chain, which ``cycle_chain`` (once public in ``fgr.abelian``)
counts.  ``root_path_basis`` and ``reducing_tree_path_word`` are the
``basis`` and ``tree_path_word`` that replaced those: they built a root
path per endpoint with ``_root_path`` and reduced every word they
returned; the new ones build reduced words from shared root paths and
hand them, like ``rewrite_in_basis`` its basis words, to the unchecked
constructors, so the tests below pass every such word through
``rechecked``.  ``_check_tree`` is the check every function taking a
tree ran on each call, with the dict-based ``_bfs`` it called, and
``oracle_tree`` adds the non-tree edge sort ``spanning_tree`` did after
it; a ``SpanningTree`` now does both once, when it is built.  The
oracles read the graph through ``succ_pred``, which rebuilds the
(vertex, label) dicts a ``CoreGraph`` once kept.  The seeded tests below require the new code to
return equal values and to raise the same errors.
"""

from __future__ import annotations

import random
from datetime import timedelta
from functools import partial
from typing import Callable, NamedTuple, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgr import (
    AbelianVector,
    CoreGraph,
    InfiniteIndexError,
    NotAMemberError,
    Permutation,
    SpanningTree,
    Word,
    abelianize_in_subgroup,
    basis,
    coset_permutation,
    from_generators,
    homology_projection,
    parse_word,
    reduce_word,
    rewrite_in_basis,
    schreier_graph,
    spanning_tree,
    subgroup_index,
    substitute,
    transfer,
    tree_path_word,
    walk,
)
from fgr.constructions import hm_graph, wk_word
from fgr.retracts import _random_reduced_word
from fgr.stallings import Edge, _canonical_letters
from test_stallings import cycles


def rechecked(w):
    """``w``, a ``Word`` a builder handed over unchecked, once checked:
    the checked constructor accepts its letters, a tuple of ints, and
    builds an equal word."""
    assert type(w.letters) is tuple and all(type(l) is int for l in w.letters)
    assert type(w) is Word and Word(w.rank, w.letters) == w
    return w


def _root_path(parents: dict[int, tuple[int, int] | None], vertex: int) -> list[int]:
    """Signed letters spelling the tree path base -> vertex."""
    letters: list[int] = []
    while parents[vertex] is not None:
        parent, letter = parents[vertex]  # type: ignore[misc]
        letters.append(letter)
        vertex = parent
    letters.reverse()
    return letters


def reducing_tree_path_word(
    graph: CoreGraph, tree: SpanningTree, source: int, target: int
) -> Word:
    """Reduced word spelled by the tree geodesic from source to target."""
    if tree.graph is not graph and tree.graph != graph:
        raise ValueError("spanning tree does not belong to this graph")
    to_source = _root_path(tree.parents, source)
    to_target = _root_path(tree.parents, target)
    inverted = [-l for l in reversed(to_source)]
    return reduce_word(graph.rank, inverted + to_target)


def root_path_basis(graph: CoreGraph, tree: SpanningTree | None = None) -> list[Word]:
    """The free basis of the subgroup induced by a spanning tree.

    For each non-tree edge e the basis word is (tree path base ->
    origin(e)) . label(e) . (tree path terminus(e) -> base), reduced.
    """
    if tree is None:
        tree = spanning_tree(graph)
    if tree.graph is not graph and tree.graph != graph:
        raise ValueError("spanning tree does not belong to this graph")
    paths = {v: _root_path(tree.parents, v) for edge in tree.nontree_edges for v in edge[:2]}
    words = []
    for origin, terminus, label in tree.nontree_edges:
        back = [-l for l in reversed(paths[terminus])]
        words.append(reduce_word(graph.rank, paths[origin] + [label] + back))
    return words


class OldTree(NamedTuple):
    """The fields a ``SpanningTree`` had before it was bound to its graph."""

    tree_edges: frozenset[Edge]
    nontree_edges: tuple[Edge, ...]


def _bfs(
    succ: dict[tuple[int, int], int],
    pred: dict[tuple[int, int], int],
    base: int,
    letters: Sequence[int],
) -> dict[int, tuple[int, int] | None]:
    """Breadth-first search from ``base`` trying the signed ``letters`` in
    order at each vertex.

    Maps every vertex reached, in discovery order, to (parent, signed
    letter spelling parent -> vertex); the base maps to None.
    """
    moves = [(succ, l, l) if l > 0 else (pred, -l, l) for l in letters]
    found: dict[int, tuple[int, int] | None] = {base: None}
    order = [base]
    for vertex in order:
        for table, label, letter in moves:
            other = table.get((vertex, label))
            if other is not None and other not in found:
                found[other] = (vertex, letter)
                order.append(other)
    return found


def _check_tree(graph: CoreGraph, tree: OldTree) -> dict[int, tuple[int, int] | None]:
    """Validate ``tree`` against ``graph`` and walk it from the base.

    The walk is a BFS over the tree edges in canonical letter order.  Its
    discovery order is the BFS index that orders non-tree edges.  On a
    tree each vertex's parent is its neighbour towards the base in any
    letter order, so the same walk gives the tree paths.
    """
    if tree.tree_edges | set(tree.nontree_edges) != set(graph.edges):
        raise ValueError("spanning tree does not belong to this graph")
    if len(tree.tree_edges) != graph.vertex_count - 1:
        raise ValueError("spanning tree has the wrong number of edges")
    succ = {(u, l): v for (u, v, l) in tree.tree_edges}
    pred = {(v, l): u for (u, v, l) in tree.tree_edges}
    parents = _bfs(succ, pred, 0, _canonical_letters(graph.rank))
    if len(parents) != graph.vertex_count:
        raise ValueError("spanning tree does not span the graph")
    return parents


def oracle_tree(graph: CoreGraph, tree_edges) -> tuple[list, tuple[Edge, ...]]:
    """The walk (as (vertex, step) pairs in discovery order) and the
    ordered non-tree edges of a tree, checked and sorted as
    ``spanning_tree`` did with ``_check_tree``."""
    tree = {tuple(e) for e in tree_edges}
    nontree = [e for e in graph.edges if e not in tree]
    walked = _check_tree(graph, OldTree(frozenset(tree), tuple(nontree)))
    index = {vertex: i for i, vertex in enumerate(walked)}
    nontree.sort(key=lambda e: (index[e[0]], e[2]))
    return list(walked.items()), tuple(nontree)


def cycle_transfer(
    graph: CoreGraph,
    tree: SpanningTree,
    w: Word,
    representative: Callable[[tuple[int, ...]], int] | None = None,
) -> AbelianVector:
    """Transfer of ``w`` into the abelianized finite-index subgroup.

    For each cycle c of the coset permutation of ``w``, pick a vertex v
    on c, form the member word (tree path base -> v) w^len(c) (tree
    path v -> base), abelianize it over the subgroup basis, and sum over
    cycles.  The default representative is the least vertex of the
    cycle; the result does not depend on this choice because conjugation
    dies in the abelianization.
    """
    perm = coset_permutation(graph, w)
    total = AbelianVector("subgroup", (0,) * len(tree.nontree_edges))
    for cycle in cycles(perm):
        vertex = min(cycle) if representative is None else representative(cycle)
        if vertex not in cycle:
            raise ValueError(f"representative {vertex} is not on the cycle {cycle}")
        loop = (
            tree_path_word(graph, tree, 0, vertex)
            * w ** len(cycle)
            * tree_path_word(graph, tree, vertex, 0)
        )
        total = total + abelianize_in_subgroup(graph, tree, loop)
    return total


def all_paths_basis(graph: CoreGraph, tree: SpanningTree | None = None) -> list[Word]:
    """The free basis of the subgroup induced by a spanning tree.

    For each non-tree edge e the basis word is (tree path base ->
    origin(e)) . label(e) . (tree path terminus(e) -> base), reduced.
    """
    if tree is None:
        tree = spanning_tree(graph)
    if tree.graph != graph:
        raise ValueError("spanning tree does not belong to this graph")
    paths = {v: _root_path(tree.parents, v) for v in range(graph.vertex_count)}
    words = []
    for origin, terminus, label in tree.nontree_edges:
        back = [-l for l in reversed(paths[terminus])]
        words.append(reduce_word(graph.rank, paths[origin] + [label] + back))
    return words


def succ_pred(graph):
    """The (origin, label) -> terminus and (terminus, label) -> origin
    dicts a ``CoreGraph`` kept before its per-label arrays, rebuilt from
    its edges."""
    succ = {(u, l): v for (u, v, l) in graph.edges}
    pred = {(v, l): u for (u, v, l) in graph.edges}
    return succ, pred


def chain_projection(graph: CoreGraph, tree: SpanningTree) -> tuple[tuple[int, ...], ...]:
    """Matrix projecting subgroup homology onto the ambient lattice.

    Row i, column j is the coefficient, in the chain of the j-th basis
    word, of the designated lift of generator i: the unique edge labeled
    i leaving the base.  Requires finite index so that every such lift
    exists.
    """
    if subgroup_index(graph) is None:
        raise InfiniteIndexError("the chain projection needs a finite-index subgroup")
    succ, _ = succ_pred(graph)
    base_lifts = []
    for label in range(1, graph.rank + 1):
        target = succ.get((0, label))
        if target is None:
            raise InfiniteIndexError(f"base vertex has no outgoing edge labeled {label}")
        base_lifts.append((0, target, label))
    columns = []
    for word in all_paths_basis(graph, tree):
        chain = cycle_chain(graph, word)
        columns.append([chain.get(edge, 0) for edge in base_lifts])
    return tuple(
        tuple(column[row] for column in columns) for row in range(graph.rank)
    )


def cycle_chain(graph: CoreGraph, w: Word) -> dict[Edge, int]:
    """Signed edge-traversal counts of the based loop spelling ``w``.

    This is the cellular 1-chain of the lifted loop; it has boundary
    zero at every vertex.  Raises when ``w`` is not a member.
    """
    counts: dict[Edge, int] = {}
    vertex = 0
    for letter in w.letters:
        if letter > 0:
            target = graph.table[letter][vertex]
            if target < 0:
                raise NotAMemberError(f"word leaves the graph at vertex {vertex}")
            edge = (vertex, target, letter)
            counts[edge] = counts.get(edge, 0) + 1
            vertex = target
        else:
            source = graph.table[letter][vertex]
            if source < 0:
                raise NotAMemberError(f"word leaves the graph at vertex {vertex}")
            edge = (source, vertex, -letter)
            counts[edge] = counts.get(edge, 0) - 1
            vertex = source
    if vertex != 0:
        raise NotAMemberError("path does not close at the base")
    return counts


def test_cycle_chain_has_zero_boundary():
    rng = random.Random(47)
    graph, tree = hm_graph(4)
    base_words = basis(graph, tree)
    for _ in range(25):
        member = Word(2)
        for _ in range(rng.randint(1, 4)):
            member = member * rng.choice(base_words)
        chain = cycle_chain(graph, member)
        for vertex in range(graph.vertex_count):
            boundary = 0
            for (u, v, _), count in chain.items():
                if v == vertex:
                    boundary += count
                if u == vertex:
                    boundary -= count
            assert boundary == 0


def outcome(function, *args):
    """The value of a call, or the type and message of what it raised."""
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def new_tree(graph, edges):
    """``oracle_tree`` computed by a ``SpanningTree``."""
    tree = SpanningTree(graph, edges)
    return list(tree.parents.items()), tree.nontree_edges


# The suites' sampler, drawing the empty word too.
random_reduced_word = partial(_random_reduced_word, min_len=0)


def random_cover(rng, rank, max_index):
    points = rng.randint(1, max_index)
    while True:
        perms = []
        for _ in range(rank):
            images = list(range(points))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
        try:
            return schreier_graph(rank, perms, 0)
        except ValueError:
            continue


def random_tree(rng, graph):
    """A uniformly shuffled Kruskal spanning tree."""
    edges = list(graph.edges)
    rng.shuffle(edges)
    parent = list(range(graph.vertex_count))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    chosen = []
    for u, v, l in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            chosen.append((u, v, l))
    return SpanningTree(graph, chosen)


def assert_words_agree(graph, tree, words):
    """The basis, tree paths and rewrites of members agree with the
    oracles and pass the checked constructors; a member is each of
    ``words`` whose path exists, closed by the tree path back."""
    base_words = [rechecked(w) for w in basis(graph, tree)]
    assert base_words == root_path_basis(graph, tree) == all_paths_basis(graph, tree)
    count = graph.vertex_count
    for source in range(count):
        target = (7 * source + 3) % count
        assert rechecked(tree_path_word(graph, tree, source, target)) == (
            reducing_tree_path_word(graph, tree, source, target)
        )
    for i, w in enumerate(base_words, start=1):
        assert rechecked(rewrite_in_basis(graph, tree, w)) == Word(len(base_words), (i,))
    for w in words:
        end = walk(graph, 0, w.letters)
        if end is not None:
            member = w * rechecked(tree_path_word(graph, tree, end, 0))
            symbols = rechecked(rewrite_in_basis(graph, tree, member))
            assert substitute(symbols, base_words, graph.rank) == member


def assert_agree(graph, tree, words):
    assert new_tree(graph, tree.tree_edges) == oracle_tree(graph, tree.tree_edges)
    assert_words_agree(graph, tree, words)
    assert outcome(homology_projection, graph, tree) == outcome(chain_projection, graph, tree)
    for w in words:
        assert outcome(transfer, graph, tree, w) == outcome(cycle_transfer, graph, tree, w)


@pytest.mark.parametrize("seed", range(6))
def test_closed_forms_match_oracle_on_random_covers(seed):
    rng = random.Random(9100 + seed)
    for _ in range(40):
        rank = rng.randint(2, 4)
        graph = random_cover(rng, rank, 15)
        words = [random_reduced_word(rng, rank, 30) for _ in range(3)]
        assert_agree(graph, spanning_tree(graph), words)
        assert_agree(graph, random_tree(rng, graph), words)


@pytest.mark.parametrize("m", range(3, 16))
def test_closed_forms_match_oracle_on_hm_graphs(m):
    graph, tree = hm_graph(m)
    rng = random.Random(m)
    words = [wk_word(k) for k in range(1, m)] + [random_reduced_word(rng, 2, 40)]
    assert_agree(graph, tree, words)
    assert_agree(graph, spanning_tree(graph), words[:3])


def test_closed_forms_raise_like_oracle():
    rng = random.Random(9200)
    for _ in range(40):
        rank = rng.randint(2, 3)
        gens = [random_reduced_word(rng, rank, 6) for _ in range(rng.randint(1, 3))]
        graph = from_generators(rank, gens)
        tree = spanning_tree(graph)
        w = random_reduced_word(rng, rank, 10)
        assert outcome(transfer, graph, tree, w) == outcome(cycle_transfer, graph, tree, w)
        assert outcome(homology_projection, graph, tree) == outcome(
            chain_projection, graph, tree
        )
        assert_words_agree(graph, tree, [w])
    graph, tree = hm_graph(5)
    other, other_tree = hm_graph(7)
    for args in ((graph, tree, parse_word("ab", 3)), (graph, other_tree, wk_word(1))):
        assert outcome(transfer, *args) == outcome(cycle_transfer, *args)
    assert outcome(homology_projection, graph, other_tree) == outcome(
        chain_projection, graph, other_tree
    )


def test_tree_checks_raise_like_oracle():
    # Random edge sets around the size of a tree, sometimes with an edge
    # of no graph: each is rejected with the old message or gives the
    # old walk and non-tree edge order.
    rng = random.Random(9300)
    for _ in range(300):
        rank = rng.randint(2, 3)
        if rng.random() < 0.5:
            graph = random_cover(rng, rank, 8)
        else:
            gens = [random_reduced_word(rng, rank, 6) for _ in range(rng.randint(1, 3))]
            graph = from_generators(rank, gens)
        size = graph.vertex_count - 1 + rng.choice((-1, 0, 0, 0, 1))
        edges = rng.sample(graph.edges, max(0, min(size, len(graph.edges))))
        if rng.random() < 0.2:
            edges[rng.randrange(len(edges) + 1):0] = [(0, graph.vertex_count, 1)]
        assert outcome(new_tree, graph, edges) == outcome(oracle_tree, graph, edges)


def test_transfer_is_representative_independent():
    rng = random.Random(41)
    graph, tree = hm_graph(5)
    for _ in range(25):
        w = random_reduced_word(rng, 2, 12)
        picked = cycle_transfer(graph, tree, w, representative=rng.choice)
        assert picked == cycle_transfer(graph, tree, w) == transfer(graph, tree, w)
    with pytest.raises(ValueError):
        cycle_transfer(graph, tree, parse_word("b", 2), representative=lambda cycle: 99)


@settings(derandomize=True, database=None, deadline=timedelta(seconds=1), max_examples=60)
@given(st.data())
def test_rewriting_a_member_over_the_basis_and_back_is_the_identity(data):
    # Random covers and folded generator sets, with the default or a
    # Kruskal tree; members are random words closed by a tree path and
    # products of basis words.
    rank = data.draw(st.integers(1, 3))
    rng = data.draw(st.randoms(use_true_random=False))
    if data.draw(st.booleans()):
        graph = random_cover(rng, rank, 12)
    else:
        gens = [random_reduced_word(rng, rank, 8) for _ in range(rng.randint(1, 3))]
        graph = from_generators(rank, gens)
    tree = random_tree(rng, graph) if data.draw(st.booleans()) else spanning_tree(graph)
    letters = st.lists(st.sampled_from(_canonical_letters(rank)), max_size=30)
    words = [reduce_word(rank, data.draw(letters)) for _ in range(3)]
    base_words = basis(graph, tree)
    if base_words:
        product = Word(rank)
        for _ in range(rng.randint(1, 6)):
            product = product * rng.choice(base_words) ** rng.choice((1, -1))
        words.append(product)
    assert_words_agree(graph, tree, words)
