"""The multi-pass fold that ``fold``, ``pullback`` and ``schreier_graph``
replaced, kept as the reference the worklist fold is checked against.

``_normalize`` and ``_bfs_relabeling`` are the old implementation as it
was: every pass re-scans all edges, merging targets of equal-label edges
that share an endpoint, until a pass changes nothing; then it restricts
to the base component, trims hair pass by pass and renumbers.
``oracle_pullback`` and ``oracle_schreier_graph`` are the old
``pullback`` and ``schreier_graph``, which folded their results again,
and ``oracle_subgroup_index`` is the old per-vertex, per-label
``subgroup_index``.  ``oracle_from_generators`` is the old
``from_generators``, which built the whole wedge of generator loops and
folded it; ``from_generators`` on ``lm_generators(m)`` is in turn the
oracle for the closed form of the odd ``lm_graph(m)``.
``oracle_validate`` is the old dict-based validation of ``CoreGraph``
(with the dict-based ``_dict_bfs`` it called).  The
oracles read a graph through ``succ_pred``, which rebuilds the
(vertex, label) dicts a ``CoreGraph`` once kept.  The seeded tests below
require the new code to return equal graphs and indices and to raise
the same errors.  The builders hand their arrays to ``CoreGraph``
unchecked, so every graph they return here, and in a Hypothesis
property over random generator sets and actions, goes through
``revalidated``, which checks it with ``oracle_validate`` and against
the checked constructor.  ``revalidated`` also requires the default
spanning tree to be the one ``oracle_default_tree`` selects with
``_dict_bfs``, every step the old stepping search
(``order_with_steps``) reports to re-walk, and the tree given again by
its edges to walk to the same result.  The explicit
families write their arrays in closed form and are checked the same
way (``gamma_graph``, which keeps the numbering v_i = i, against
``oracle_validate`` and the checked constructor only), and are built
once more with the checked constructor and ``CoreGraph.edges`` made to
raise.
Products of two complete covers of coprime indices take a search of
their own in ``pullback``, with list rows, and all other products dict
rows; seeded cover pairs check both against ``oracle_pullback``, check
that the product has a multiple of lcm(V1, V2) vertices, exactly
V1 * V2 for coprime indices, and bound its memory by its pair table, in
either order of the factors.  ``oracle_degrees`` is the old
``_degrees``, a ``compress`` loop per array, against which the count
``_core`` and ``_check_core`` read is checked on every table ``_core``
is handed in seeded folds and products, and on covers, the families
and one-vertex graphs.
"""

from __future__ import annotations

import random
import tracemalloc
from collections import deque
from datetime import timedelta
from functools import partial
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgr.retracts
from fgr import (
    MAX_RANK,
    CoreGraph,
    Permutation,
    SpanningTree,
    Word,
    basis,
    bergman_counterexample,
    canonicalize,
    fold,
    from_generators,
    pullback,
    reduce_word,
    schreier_graph,
    spanning_tree,
    subgroup_index,
    subgroup_rank,
    walk,
)
from fgr.constructions import gamma_graph, hm_graph, lm_graph
from fgr.retracts import _random_reduced_word
from fgr.stallings import Edge, _canonical_letters, _order


def _bfs_relabeling(
    rank: int,
    succ: dict[tuple[int, int], int],
    pred: dict[tuple[int, int], int],
    base: int,
) -> dict[int, int]:
    """Canonical vertex order: BFS from the base, exploring outgoing
    labels 1..n and then incoming labels 1..n at each vertex."""
    order = {base: 0}
    queue = deque([base])
    while queue:
        vertex = queue.popleft()
        for label in range(1, rank + 1):
            other = succ.get((vertex, label))
            if other is not None and other not in order:
                order[other] = len(order)
                queue.append(other)
        for label in range(1, rank + 1):
            other = pred.get((vertex, label))
            if other is not None and other not in order:
                order[other] = len(order)
                queue.append(other)
    return order


def _normalize(rank: int, vertex_count: int, edges: Iterable[Edge], base: int) -> CoreGraph:
    """Fold, restrict to the base component, trim hair, renumber."""
    edge_set = {(int(u), int(v), int(l)) for (u, v, l) in edges}
    for u, v, l in edge_set:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge endpoint out of range: {(u, v, l)}")
        if not 1 <= l <= rank:
            raise ValueError(f"edge label out of range: {(u, v, l)}")
    if not 0 <= base < vertex_count:
        raise ValueError("base vertex out of range")

    parent = list(range(vertex_count))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Fold: repeatedly merge targets of equal-label edges sharing an
    # endpoint.  Each pass either finds a clean deterministic structure
    # or strictly decreases the number of vertex classes, so this
    # terminates; confluence makes the result order-independent.
    while True:
        changed = False
        succ: dict[tuple[int, int], int] = {}
        pred: dict[tuple[int, int], int] = {}
        for u, v, l in edge_set:
            ru, rv = find(u), find(v)
            known = succ.get((ru, l))
            if known is None:
                succ[(ru, l)] = rv
            else:
                known = find(known)
                if known != find(rv):
                    parent[find(rv)] = known
                    changed = True
            rv = find(rv)
            known = pred.get((rv, l))
            if known is None:
                pred[(rv, l)] = find(ru)
            else:
                known = find(known)
                if known != find(ru):
                    parent[find(ru)] = known
                    changed = True
        edge_set = {(find(u), find(v), l) for (u, v, l) in edge_set}
        if not changed:
            break

    root = find(base)
    neighbors: dict[int, set[int]] = {}
    for u, v, _ in edge_set:
        neighbors.setdefault(u, set()).add(v)
        neighbors.setdefault(v, set()).add(u)
    component = {root}
    queue = deque([root])
    while queue:
        for other in neighbors.get(queue.popleft(), ()):
            if other not in component:
                component.add(other)
                queue.append(other)
    edge_set = {e for e in edge_set if e[0] in component}

    # Core-trim: drop non-base vertices of degree <= 1 until stable.
    while True:
        degree: dict[int, int] = {}
        for u, v, _ in edge_set:
            degree[u] = degree.get(u, 0) + 1
            degree[v] = degree.get(v, 0) + 1
        dangling = {v for v in component if v != root and degree.get(v, 0) <= 1}
        if not dangling:
            break
        component -= dangling
        edge_set = {e for e in edge_set if e[0] not in dangling and e[1] not in dangling}

    succ = {(u, l): v for (u, v, l) in edge_set}
    pred = {(v, l): u for (u, v, l) in edge_set}
    order = _bfs_relabeling(rank, succ, pred, root)
    renumbered = tuple((order[u], order[v], l) for (u, v, l) in edge_set)
    return CoreGraph(rank, len(order), renumbered)


def succ_pred(graph):
    """The (origin, label) -> terminus and (terminus, label) -> origin
    dicts a ``CoreGraph`` kept before its per-label arrays, rebuilt from
    its edges."""
    succ = {(u, l): v for (u, v, l) in graph.edges}
    pred = {(v, l): u for (u, v, l) in graph.edges}
    return succ, pred


def oracle_pullback(g1: CoreGraph, g2: CoreGraph) -> CoreGraph:
    """Fiber product of two core graphs: the intersection subgroup.

    Explores synchronized transitions lazily from the pair of base
    vertices rather than materializing the full product; the result is
    core-trimmed and canonical.  A trivial intersection yields the
    one-vertex graph.
    """
    if g1.rank != g2.rank:
        raise ValueError(f"rank mismatch: {g1.rank} != {g2.rank}")
    (succ1, pred1), (succ2, pred2) = succ_pred(g1), succ_pred(g2)
    ids: dict[tuple[int, int], int] = {(0, 0): 0}
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    edges: set[Edge] = set()
    while queue:
        p, q = queue.popleft()
        here = ids[(p, q)]
        for label in range(1, g1.rank + 1):
            a = succ1.get((p, label))
            b = succ2.get((q, label))
            if a is not None and b is not None:
                pair = (a, b)
                there = ids.get(pair)
                if there is None:
                    there = ids[pair] = len(ids)
                    queue.append(pair)
                edges.add((here, there, label))
            a = pred1.get((p, label))
            b = pred2.get((q, label))
            if a is not None and b is not None:
                pair = (a, b)
                there = ids.get(pair)
                if there is None:
                    there = ids[pair] = len(ids)
                    queue.append(pair)
                edges.add((there, here, label))
    if not edges:
        return CoreGraph(g1.rank, 1, ())
    return _normalize(g1.rank, len(ids), edges, 0)


def oracle_schreier_graph(rank: int, perms: Sequence[Permutation], base: int) -> CoreGraph:
    """Coset graph of a transitive permutation action.

    ``perms[i]`` is the action of generator i+1 on the points; the
    resulting graph is a complete covering with the given base point,
    renumbered canonically.  Raises when the action is not transitive.
    """
    if len(perms) != rank:
        raise ValueError(f"expected {rank} permutations, got {len(perms)}")
    points = perms[0].degree() if perms else 1
    for perm in perms:
        if perm.degree() != points:
            raise ValueError("permutations act on different point counts")
    if not 0 <= base < points:
        raise ValueError("base point out of range")
    edges = {
        (p, perm.images[p], label)
        for label, perm in enumerate(perms, start=1)
        for p in range(points)
    }
    neighbors: dict[int, set[int]] = {p: set() for p in range(points)}
    for u, v, _ in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    seen = {base}
    queue = deque([base])
    while queue:
        for other in neighbors[queue.popleft()]:
            if other not in seen:
                seen.add(other)
                queue.append(other)
    if len(seen) != points:
        raise ValueError("action is not transitive: coset graph is not connected")
    return _normalize(rank, points, edges, base)



def oracle_subgroup_index(graph: CoreGraph) -> int | None:
    """The subgroup index, or None when it is infinite.

    The index is finite exactly when the graph is a complete covering:
    one outgoing and one incoming edge per label at every vertex.
    """
    succ, pred = succ_pred(graph)
    for vertex in range(graph.vertex_count):
        for label in range(1, graph.rank + 1):
            if (vertex, label) not in succ or (vertex, label) not in pred:
                return None
    return graph.vertex_count


def oracle_from_generators(rank: int, generators: Sequence[Word]) -> CoreGraph:
    """Stallings graph of the subgroup generated by the given words.

    Builds a wedge of loop paths at the base and folds.  Identity words
    are discarded; if nothing remains the trivial one-vertex graph is
    returned by convention.
    """
    edges: list[Edge] = []
    next_vertex = 1
    for g in generators:
        if g.rank != rank:
            raise ValueError(f"generator rank {g.rank} != ambient rank {rank}")
        if not g.letters:
            continue
        current = 0
        for i, letter in enumerate(g.letters):
            target = 0 if i == len(g.letters) - 1 else next_vertex
            if target:
                next_vertex += 1
            if letter > 0:
                edges.append((current, target, letter))
            else:
                edges.append((target, current, -letter))
            current = target
    return fold(rank, next_vertex, edges)


def _dict_bfs(
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


def oracle_validate(
    rank: int, vertex_count: int, edges: Iterable[Edge], table: list | None = None
) -> None:
    """The checks of ``CoreGraph.__post_init__`` when it built the
    ``succ``/``pred`` dicts; raises ``ValueError`` where they failed.

    Given a graph's ``table`` as well, it also asserts that the table
    has the layout of :class:`CoreGraph` for valid edges: 2 * rank + 1
    entries, None first, arrays over the vertices, where ``table[-l]``
    undoes ``table[l]`` at every full slot and the forward arrays hold
    the edges."""
    edges = tuple(sorted(edges))
    succ: dict[tuple[int, int], int] = {}
    pred: dict[tuple[int, int], int] = {}
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in 1..{MAX_RANK}, got {rank}")
    if vertex_count < 1:
        raise ValueError("graph needs at least the base vertex")
    if vertex_count > len(edges) + 1:
        raise ValueError("graph is not connected to the base vertex")
    degree = [0] * vertex_count
    for origin, terminus, label in edges:
        if not (0 <= origin < vertex_count and 0 <= terminus < vertex_count):
            raise ValueError(f"edge endpoint out of range: {(origin, terminus, label)}")
        if not 1 <= label <= rank:
            raise ValueError(f"edge label out of range: {(origin, terminus, label)}")
        if (origin, label) in succ:
            raise ValueError(f"not folded: two edges labeled {label} leave {origin}")
        if (terminus, label) in pred:
            raise ValueError(f"not folded: two edges labeled {label} enter {terminus}")
        succ[(origin, label)] = terminus
        pred[(terminus, label)] = origin
        degree[origin] += 1
        degree[terminus] += 1
    if len(_dict_bfs(succ, pred, 0, _canonical_letters(rank))) != vertex_count:
        raise ValueError("graph is not connected to the base vertex")
    for vertex in range(1, vertex_count):
        if degree[vertex] < 2:
            raise ValueError(f"vertex {vertex} dangles (degree < 2)")
    if table is not None:
        assert len(table) == 2 * rank + 1 and table[0] is None
        assert all(len(array) == vertex_count for array in table[1:])
        for l in range(1, rank + 1):
            for v in range(vertex_count):
                for forward, backward in ((table[l], table[-l]), (table[-l], table[l])):
                    if forward[v] >= 0:
                        assert backward[forward[v]] == v, (l, v)
            assert {(u, l): v for u, v in enumerate(table[l]) if v >= 0} == {
                (u, label): v for u, v, label in edges if label == l
            }


def revalidated(graph: CoreGraph) -> CoreGraph:
    """``graph``, once checked for what a builder hands over unchecked.

    The graph must pass ``oracle_validate``, be in canonical numbering,
    and equal the checked constructor's graph on its edges: the same
    table, the same rank and the same index.  Its default spanning tree
    must pass ``assert_default_tree_checks``.
    """
    rank, count, edges = graph.rank, graph.vertex_count, graph.edges
    oracle_validate(rank, count, edges, graph.table)
    checked = CoreGraph(rank, count, edges)
    assert graph.table == checked.table
    assert subgroup_rank(graph) == subgroup_rank(checked)
    assert subgroup_index(graph) == subgroup_index(checked)
    assert _order(graph.table, 0, _canonical_letters(graph.rank)) == list(range(count))
    assert_default_tree_checks(graph)
    return graph


def oracle_default_tree(graph: CoreGraph) -> frozenset[Edge]:
    """The default tree's selection rule on the (vertex, label) dicts:
    breadth-first from the base trying 1, -1, .., n, -n at each vertex,
    keeping the edge that first reaches each vertex."""
    succ, pred = succ_pred(graph)
    letters = [s * l for l in range(1, graph.rank + 1) for s in (1, -1)]
    found = list(_dict_bfs(succ, pred, 0, letters).items())
    return frozenset((u, v, l) if l > 0 else (v, u, -l) for v, (u, l) in found[1:])


def order_with_steps(table: list, base: int, letters: Iterable[int], steps: list) -> list[int]:
    """The old ``_order`` given a list as ``steps``: the breadth-first
    order, with the step (vertex it was reached from, signed letter)
    that reached each vertex after the base appended to ``steps``."""
    seen = bytearray(len(table[1]) + 1)
    seen[base] = seen[-1] = 1
    order = [base]
    moves = [(table[l], l) for l in letters]
    for vertex in order:
        for array, letter in moves:
            other = array[vertex]
            if not seen[other]:
                seen[other] = 1
                order.append(other)
                steps.append((vertex, letter))
    return order


def assert_default_tree_checks(graph: CoreGraph) -> None:
    """The default tree is the edge set ``oracle_default_tree`` selects.
    Each step that ``order_with_steps`` reports, in the default tree's
    letter order and in canonical order, leaves a vertex found earlier,
    and its letter leads there to the vertex it reached.  The tree given
    again by its edges walks to the same parents, non-tree edges and
    symbols."""
    tree = spanning_tree(graph)
    assert tree.tree_edges == oracle_default_tree(graph)
    rank = graph.rank
    for letters in ([s * l for l in range(1, rank + 1) for s in (1, -1)], _canonical_letters(rank)):
        steps: list = []
        order = order_with_steps(graph.table, 0, letters, steps)
        assert order == _order(graph.table, 0, letters)
        assert len(steps) == len(order) - 1
        index = {vertex: i for i, vertex in enumerate(order)}
        for vertex, (u, letter) in zip(order[1:], steps):
            assert index[u] < index[vertex]
            assert walk(graph, u, [letter]) == vertex
    checked = SpanningTree(graph, tree.tree_edges)
    assert tree == checked
    assert list(tree.parents.items()) == list(checked.parents.items())
    assert tree.nontree_edges == checked.nontree_edges
    assert tree.symbols == checked.symbols == symbol_arrays(tree)


def symbol_arrays(tree: SpanningTree) -> list:
    """Per-label arrays holding each non-tree edge's 1-based symbol at
    its slot (label, origin) and 0 at every other slot."""
    graph = tree.graph
    arrays = [None, *([0] * graph.vertex_count for _ in range(graph.rank))]
    for i, (u, _, l) in enumerate(tree.nontree_edges, start=1):
        arrays[l][u] = i
    return arrays


# --- seeded comparisons ---------------------------------------------------------

# The suites' sampler, drawing the empty word too.
random_reduced_word = partial(_random_reduced_word, min_len=0)


def shuffled_wedge(rng, rank, generators):
    """A wedge of generator loops with shuffled vertex ids and edge order.

    Returns (vertex_count, edges, base); the base is a random id too.
    """
    edges = []
    next_vertex = 1
    for g in generators:
        current = 0
        for i, letter in enumerate(g.letters):
            target = 0 if i == len(g.letters) - 1 else next_vertex
            if target:
                next_vertex += 1
            edges.append((current, target, letter) if letter > 0 else (target, current, -letter))
            current = target
    ids = list(range(next_vertex))
    rng.shuffle(ids)
    edges = [(ids[u], ids[v], l) for (u, v, l) in edges]
    rng.shuffle(edges)
    return next_vertex, edges, ids[0]


def random_permutations(rng, rank, points):
    perms = []
    for _ in range(rank):
        images = list(range(points))
        rng.shuffle(images)
        perms.append(Permutation(tuple(images)))
    return perms


@pytest.mark.parametrize("seed", range(4))
def test_fold_matches_oracle_on_shuffled_wedges(seed):
    rng = random.Random(1000 + seed)
    for _ in range(60):
        rank = rng.randint(1, 4)
        gens = [random_reduced_word(rng, rank, 14) for _ in range(rng.randint(1, 5))]
        vertex_count, edges, base = shuffled_wedge(rng, rank, gens)
        expected = _normalize(rank, vertex_count, edges, base)
        assert revalidated(fold(rank, vertex_count, edges, base)) == expected
        if base == 0:
            assert revalidated(from_generators(rank, gens)) == expected


@pytest.mark.parametrize("seed", range(4))
def test_fold_matches_oracle_on_random_digraphs(seed):
    # Arbitrary labeled digraphs: several components, hair, loops and
    # vertices no edge touches.
    rng = random.Random(2000 + seed)
    for _ in range(60):
        rank = rng.randint(1, 3)
        vertex_count = rng.randint(1, 12)
        edges = [
            (rng.randrange(vertex_count), rng.randrange(vertex_count), rng.randint(1, rank))
            for _ in range(rng.randint(0, 2 * vertex_count))
        ]
        base = rng.randrange(vertex_count)
        graph = revalidated(fold(rank, vertex_count, edges, base))
        assert graph == _normalize(rank, vertex_count, edges, base)
        assert subgroup_index(graph) == oracle_subgroup_index(graph)


@pytest.mark.parametrize("seed", range(4))
def test_pullback_matches_oracle_on_random_subgroups(seed):
    rng = random.Random(3000 + seed)
    for _ in range(40):
        rank = rng.randint(1, 3)
        g1, g2 = (
            from_generators(rank, [random_reduced_word(rng, rank, 10) for _ in range(rng.randint(1, 4))])
            for _ in range(2)
        )
        assert revalidated(pullback(g1, g2)) == oracle_pullback(g1, g2)


def each_pair_table(monkeypatch):
    """Yield, once, a list that grows by one for every product that
    ``_cover_product`` numbers in list rows: a product of two covers of
    coprime indices.  ``pullback`` numbers every other one in dict rows."""
    cover_product = fgr.stallings._cover_product
    covers: list[None] = []
    monkeypatch.setattr(
        fgr.stallings, "_cover_product", lambda *pair: covers.append(None) or cover_product(*pair)
    )
    yield covers


def coprime(pairs) -> int:
    """How many of the pairs of graphs have coprime vertex counts."""
    return sum(gcd(g1.vertex_count, g2.vertex_count) == 1 for g1, g2 in pairs)


@pytest.mark.parametrize("seed", range(4))
def test_pullback_and_schreier_match_oracle_on_random_covers(seed, monkeypatch):
    rng = random.Random(4000 + seed)
    covers = []
    while len(covers) < 12:
        rank = rng.randint(1, 3)
        points = rng.randint(1, 9)
        perms = random_permutations(rng, rank, points)
        base = rng.randrange(points)
        try:
            expected = oracle_schreier_graph(rank, perms, base)
        except ValueError:
            with pytest.raises(ValueError, match="not transitive"):
                schreier_graph(rank, perms, base)
            continue
        graph = revalidated(schreier_graph(rank, perms, base))
        assert graph == expected
        assert subgroup_index(graph) == oracle_subgroup_index(graph) == points
        # Without one of its edges a cover folds to an infinite-index core.
        edges = list(graph.edges)
        del edges[rng.randrange(len(edges))]
        cut = revalidated(fold(rank, points, edges))
        assert subgroup_index(cut) == oracle_subgroup_index(cut) is None
        covers.append((graph, cut))
    pairs = [(g1, g2) for g1, _ in covers for g2, _ in covers if g1.rank == g2.rank]
    # A cover times a cut cover is not a product of two covers, so it
    # takes dict rows whatever the indices.
    mixed = [pair for graph, cut in covers for pair in ((graph, cut), (cut, graph))]
    for cover_products in each_pair_table(monkeypatch):
        for g1, g2 in pairs + mixed:
            assert revalidated(pullback(g1, g2)) == oracle_pullback(g1, g2)
        assert len(cover_products) == coprime(pairs)


def random_cover(rng, rank, points) -> CoreGraph:
    """The coset graph of a seeded transitive action on ``points`` points."""
    while True:
        try:
            return schreier_graph(rank, random_permutations(rng, rank, points), 0)
        except ValueError:
            continue


def relabelled(rng, graph: CoreGraph) -> CoreGraph:
    """The same subgroup's graph with its vertices other than the base
    shuffled, so it is not in canonical numbering."""
    ids = [0] + rng.sample(range(1, graph.vertex_count), graph.vertex_count - 1)
    return CoreGraph(graph.rank, graph.vertex_count, [(ids[u], ids[v], l) for u, v, l in graph.edges])


def cover_pairs(rng, rank) -> list[tuple[CoreGraph, CoreGraph]]:
    """Seeded pairs of covers of one rank: coprime indices, a cover with
    itself and with a relabelled copy, indices that share a factor, and
    lopsided pairs in both orders."""
    pairs = []
    for n1, n2 in ((rng.choice((2, 4, 8)), rng.choice((3, 5, 9))), (1, rng.randint(1, 12))):
        pairs.append((random_cover(rng, rank, n1), random_cover(rng, rank, n2)))
    graph = random_cover(rng, rank, rng.randint(2, 12))
    pairs += [(graph, graph), (graph, relabelled(rng, graph))]
    for n1, n2 in ((4, 6), (6, 9), (6, 10), (8, 12), (12, 12)):
        pairs.append((random_cover(rng, rank, n1), random_cover(rng, rank, n2)))
    big, small = random_cover(rng, rank, rng.randint(40, 80)), random_cover(rng, rank, rng.randint(2, 4))
    pairs += [(big, small), (small, big)]
    return pairs


@pytest.mark.parametrize("seed", range(3))
def test_cover_products_match_oracle_and_fill_lcm_multiples(seed, monkeypatch):
    # The orbit of the base pair is a multiple of lcm(V1, V2): all V1 * V2
    # pairs for coprime indices, in list rows; one lcm for a cover times
    # itself, and often several when the indices share a factor, in dict
    # rows.  Either order of the factors gives the same graph.
    rng = random.Random(4500 + seed)
    pairs = [pair for rank in range(1, 5) for pair in cover_pairs(rng, rank)]
    grown = set()
    for cover_products in each_pair_table(monkeypatch):
        for i, (g1, g2) in enumerate(pairs):
            product = revalidated(pullback(g1, g2))
            assert product == oracle_pullback(g1, g2) == pullback(g2, g1)
            step = lcm(g1.vertex_count, g2.vertex_count)
            assert product.vertex_count % step == 0
            assert subgroup_index(product) == product.vertex_count
            if step == g1.vertex_count * g2.vertex_count:
                assert product.vertex_count == step
            elif product.vertex_count > step:
                grown.add(i)
        assert len(cover_products) == 2 * coprime(pairs)
    # Among them the five pairs of shared factors at each rank 2-4.
    assert len(grown) >= 15


def peak_bytes(build) -> int:
    """The ``tracemalloc`` peak of ``build()``, in bytes."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cover_product_memory_is_its_pair_table():
    # A 700-vertex cover times itself reaches only the 700 diagonal pairs,
    # so the rows hold 700 entries each and the peak is the pair table's
    # 700 * 700 pointers (3.9 MB), plus 10 %.
    rng = random.Random(4600)
    graph = random_cover(rng, 2, 700)
    assert pullback(graph, graph).vertex_count == 700
    assert peak_bytes(lambda: pullback(graph, graph)) < 1.1 * 8 * 700 * 700
    # The pair table has a row per vertex of the smaller factor, in
    # either order: 2 rows of 2,001 slots, not 2,001 rows of 2.
    small, big = random_cover(rng, 2, 2), random_cover(rng, 2, 2001)
    assert peak_bytes(lambda: pullback(big, small)) < 1.1 * peak_bytes(lambda: pullback(small, big))


def test_hairless_products_keep_their_arrays(monkeypatch):
    # <a^2> and <a^3> meet in the 6-cycle of <a^6>, and <a^2, b^2> and
    # <a^3, b^3> in two 6-cycles at the base: products with no hair that
    # are not covers, handed back without a renumbering.  <ab> and <aB>
    # meet trivially, in a product of one edge that the trim removes.
    a, b = Word(2, (1,)), Word(2, (2,))
    hairless = [
        ([a**2], [a**3]),
        ([a**2, b**2], [a**3, b**3]),
    ]
    graphs = [(from_generators(2, g1), from_generators(2, g2)) for g1, g2 in hairless]
    # The product of bergman_counterexample(3, 9, 2), H_9 times its rank-2
    # retract, has no hair either.
    with monkeypatch.context() as patch:
        patch.setattr(fgr.retracts, "pullback", lambda *pair: graphs.append(pair) or pullback(*pair))
        bergman_counterexample(3, 9, 2)
    assert len(graphs) == 3
    hairy = from_generators(2, [a * b]), from_generators(2, [a * b**-1])
    calls = []
    renumbered = fgr.stallings._renumbered
    monkeypatch.setattr(
        fgr.stallings, "_renumbered", lambda *args: calls.append(None) or renumbered(*args)
    )
    for g1, g2 in graphs:
        product = revalidated(pullback(g1, g2))
        assert subgroup_index(product) is None
        assert product == oracle_pullback(g1, g2)
    assert calls == []
    assert revalidated(pullback(*hairy)) == oracle_pullback(*hairy) == CoreGraph(2, 1, ())
    assert len(calls) == 1


def oracle_degrees(table: list) -> list[int]:
    """The old ``_degrees``: each vertex's number of letters less its
    empty slots, which ``compress`` picks out array by array."""
    size = len(table[1])
    degree = [len(table) - 1] * size
    vertices, empty = range(size), (0).__gt__
    for array in table[1:]:
        for vertex in compress(vertices, map(empty, array)):
            degree[vertex] -= 1
    return degree


@pytest.mark.parametrize("seed", range(2))
def test_degrees_match_the_compress_loop(seed, monkeypatch):
    # Every table _core is handed, copied as it comes: folds of wedges and
    # of random digraphs, with hair and merged-away vertices, products in
    # dict rows, complete ones among them, and bergman_counterexample's
    # product; then products in list rows, complete covers, the hm and lm
    # families and one-vertex graphs, with and without loops.
    rng = random.Random(5200 + seed)
    tables = []
    trim = fgr.stallings._core

    def spy(rank, table, order):
        tables.append([None, *map(list, table[1:])])
        return trim(rank, table, order)

    monkeypatch.setattr(fgr.stallings, "_core", spy)
    for _ in range(40):
        rank = rng.randint(1, 3)
        gens = [random_reduced_word(rng, rank, 10) for _ in range(rng.randint(1, 4))]
        fold(rank, *shuffled_wedge(rng, rank, gens))
        count = rng.randint(1, 12)
        edges = [
            (rng.randrange(count), rng.randrange(count), rng.randint(1, rank))
            for _ in range(rng.randint(0, 2 * count))
        ]
        fold(rank, count, edges, rng.randrange(count))
        pullback(from_generators(rank, gens[:2]), from_generators(rank, gens[2:] or gens))
    covers = [pair for rank in range(1, 4) for pair in cover_pairs(rng, rank)]
    products = [pullback(*pair) for pair in covers]
    bergman_counterexample(3, 9 + 2 * seed, 2)
    monkeypatch.undo()
    hair = sum(min(oracle_degrees(t)[1:], default=2) < 2 for t in tables)
    tables += [graph.table for graph in products] + [g.table for pair in covers for g in pair]
    tables += [hm_graph(m)[0].table for m in (2, 5, 31)] + [lm_graph(m).table for m in (3, 10, 31)]
    tables += [from_generators(rank, []).table for rank in (1, 2, 3)]
    tables += [CoreGraph(2, 1, [(0, 0, 1)]).table, CoreGraph(3, 1, [(0, 0, 1), (0, 0, 3)]).table]
    for table in tables:
        assert fgr.stallings._degrees(table) == oracle_degrees(table), table
    assert hair >= 20 and len(tables) >= 200, (hair, len(tables))


def cyclically_reduced_word(rng, rank, length) -> Word:
    """A seeded word of ``length`` letters that is cyclically reduced."""
    while True:
        word = [rng.choice(_canonical_letters(rank))]
        while len(word) < length:
            letter = rng.choice(_canonical_letters(rank))
            if letter != -word[-1]:
                word.append(letter)
        if word[0] != -word[-1]:
            return Word(rank, tuple(word))


def test_pullback_matches_oracle_on_large_sparse_products():
    # Cycle graphs of words of about 2,100 letters, whose products have
    # millions of pairs but reach few of them: <u^20> and <u^22> meet in
    # <u^220>, a cycle of 23,100 pairs; second generators c c a and
    # c c b, which agree on a prefix off the u cycles, add product pairs
    # that the trim removes; two random words meet trivially.
    rng = random.Random(5100)
    u = cyclically_reduced_word(rng, 2, 105)
    c = cyclically_reduced_word(rng, 2, 7)
    a, b = Word(2, (1,)), Word(2, (2,))
    sparse = [
        ([u**20], [u**22], 1),
        ([u**20, c * c * a], [u**22, c * c * b], 1),
        ([cyclically_reduced_word(rng, 2, 2100)], [cyclically_reduced_word(rng, 2, 2150)], 0),
    ]
    for gens1, gens2, rank_i in sparse:
        g1, g2 = from_generators(2, gens1), from_generators(2, gens2)
        product = revalidated(pullback(g1, g2))
        assert product == oracle_pullback(g1, g2)
        assert subgroup_rank(product) == rank_i


def outcome(build) -> str:
    """'ok', or the message of the ValueError that ``build()`` raises."""
    try:
        build()
    except ValueError as exc:
        return str(exc)
    return "ok"


@pytest.mark.parametrize("seed", range(4))
def test_from_generators_matches_oracle_on_random_generator_sets(seed):
    rng = random.Random(5000 + seed)
    for _ in range(150):
        rank = rng.randint(1, 4)
        gens = [random_reduced_word(rng, rank, 12) for _ in range(rng.randint(0, 5))]
        if gens and rng.random() < 0.3:
            # A product of earlier generators reads fully into the graph.
            gens.append(rng.choice(gens) * rng.choice(gens).inverse())
        if rng.random() < 0.3:
            gens.insert(rng.randint(0, len(gens)), Word(rank, ()))
        rng.shuffle(gens)
        assert revalidated(from_generators(rank, gens)) == oracle_from_generators(rank, gens)


def lm_generators(m: int) -> list[Word]:
    """x, t_1, .., t_{m-1} with t_i = y^i x y^-(m-i): the generators the
    odd ``lm_graph(m)`` was once read from, now its oracle."""
    t_words = [Word(2, (2,) * i + (1,) + (-2,) * (m - i)) for i in range(1, m)]
    return [Word(2, (1,)), *t_words]


def test_from_generators_matches_oracle_on_lm_generators():
    for m in range(3, 42):
        gens = lm_generators(m)
        assert revalidated(from_generators(2, gens)) == oracle_from_generators(2, gens)


def test_lm_graph_closed_form_matches_its_generators():
    # Odd m: gamma_graph(m) less the edge of y^m is the graph of <x, t_1..t_{m-1}>.
    for m in range(3, 42, 2):
        assert revalidated(lm_graph(m)) == revalidated(from_generators(2, lm_generators(m)))


# --- the families, whose arrays are written in closed form ----------------------

def assert_arrays_of_checked_graph(graph: CoreGraph) -> None:
    """``graph`` passes ``oracle_validate`` and holds the arrays the
    checked constructor builds from its edges."""
    rank, count, edges = graph.rank, graph.vertex_count, graph.edges
    oracle_validate(rank, count, edges, graph.table)
    checked = CoreGraph(rank, count, edges)
    assert graph.table == checked.table
    assert subgroup_rank(graph) == subgroup_rank(checked)


def bergman_subgroups(monkeypatch, n: int, m: int) -> list[CoreGraph]:
    """The rank-n subgroup that ``bergman_counterexample(n, m, k)`` hands
    to ``intersection_report``, for each retract rank k."""
    seen = []
    report = fgr.retracts.intersection_report

    def capture(subgroup, retract):
        seen.append(subgroup)
        return report(subgroup, retract)

    with monkeypatch.context() as patch:
        patch.setattr(fgr.retracts, "intersection_report", capture)
        for k in range(1, n):
            bergman_counterexample(n, m, k)
    return seen


def test_family_arrays_match_the_checked_constructor(monkeypatch):
    for m in range(2, 61):
        assert_arrays_of_checked_graph(gamma_graph(m))
    for m in range(2, 42):
        graph, tree = hm_graph(m)
        revalidated(graph)
        # The tree given again by its edges walks to the same result, and
        # to the b-path's basis x, t_1..t_{m-1}, y^m.
        checked = SpanningTree(graph, tree.tree_edges)
        assert (tree.parents, tree.nontree_edges) == (checked.parents, checked.nontree_edges)
        assert tree.symbols == checked.symbols == symbol_arrays(tree)
        t_words = [(2,) * i + (1,) + (-2,) * (m - i) for i in range(1, m)]
        assert [w.letters for w in basis(graph, tree)] == [(1,), *t_words, (2,) * m]
    for m in range(3, 42):
        revalidated(lm_graph(m))
    for n in range(2, 5):
        for m in (3, 4, 9, 10, 21):
            for subgroup in bergman_subgroups(monkeypatch, n, m):
                assert subgroup.rank == n
                revalidated(subgroup)
                lm = lm_graph(m).table
                assert (subgroup.table[:3], subgroup.table[-2:]) == (lm[:3], lm[-2:])


def test_default_tree_of_one_vertex_graphs():
    for rank in range(1, 5):
        for gens in ([], [Word(rank, (rank,))]):
            graph = revalidated(from_generators(rank, gens))
            assert graph.vertex_count == 1
            tree = spanning_tree(graph)
            assert (tree.tree_edges, tree.parents) == (frozenset(), {0: None})
            assert tree.nontree_edges == ((0, 0, rank),) * len(gens)


def test_families_build_without_the_checked_constructor(monkeypatch):
    def refuse(*args):
        raise AssertionError("a family went through the checked constructor or read edges")

    monkeypatch.setattr(CoreGraph, "__init__", refuse)
    monkeypatch.setattr(CoreGraph, "edges", property(refuse))
    for m in (2, 9, 40):
        gamma_graph(m)
        hm_graph(m)
    for m in (3, 9, 10, 41):
        lm_graph(m)
        for n in (2, 4):
            for k in range(1, n):
                bergman_counterexample(n, m, k)


def test_from_generators_when_the_base_merges_away_mid_read():
    # Reading these in order merges the base into another vertex's class,
    # so later reads must start from the base's class, not from vertex 0.
    gens = [
        Word(2, letters)
        for letters in (
            (-2, 1, 1, 2, -1, -2, -2, -2, -1),
            (1,),
            (2, -1, 2, 2, -1, -1, -2, -1, -2, -2),
            (-1, -2, -1, 2),
            (-2, -2, -2),
        )
    ]
    assert revalidated(from_generators(2, gens)) == oracle_from_generators(2, gens)


def test_from_generators_raises_like_oracle():
    cases = [
        (2, [Word(2, (1,)), Word(3, (1,))]),
        (3, [Word(2, ())]),
        (0, []),
        (MAX_RANK + 1, []),
        (1, []),
    ]
    for rank, gens in cases:
        got = outcome(lambda: from_generators(rank, gens))
        assert got == outcome(lambda: oracle_from_generators(rank, gens))


EDGE_LIST_KINDS = (
    "valid", "unfolded", "disconnected", "dangling", "out-of-range", "huge", "mutated"
)


def random_edge_list(rng) -> tuple[str, int, int, list[Edge]]:
    """(kind, rank, vertex count, edges) built from a folded graph with
    shuffled vertex ids, then broken in the way ``kind`` names."""
    rank = rng.randint(1, 3)
    gens = [random_reduced_word(rng, rank, 8) for _ in range(rng.randint(1, 3))]
    graph = from_generators(rank, gens)
    count = graph.vertex_count
    ids = [0] + rng.sample(range(1, count), count - 1)
    edges = [(ids[u], ids[v], l) for (u, v, l) in graph.edges]
    kind = rng.choice(EDGE_LIST_KINDS)
    if kind == "unfolded" and edges:
        u, v, l = rng.choice(edges)
        other = rng.randrange(count)
        edges.append((u, other, l) if rng.random() < 0.5 else (other, v, l))
    elif kind == "disconnected":
        edges += [(u + count, v + count, l) for (u, v, l) in edges]
        count *= 2
    elif kind == "dangling":
        u, l = rng.randrange(count), rng.randint(1, rank)
        edges.append((u, count, l) if rng.random() < 0.5 else (count, u, l))
        count += 1
    elif kind == "out-of-range" and edges:
        i = rng.randrange(len(edges))
        u, v, l = edges[i]
        edges[i] = rng.choice(((count, v, l), (u, -1, l), (u, v, 0), (u, v, rank + 1)))
    elif kind == "huge":
        count = rng.choice((10**12, len(edges) + 2))
    elif kind == "mutated":
        for _ in range(rng.randint(1, 3)):
            if edges and rng.random() < 0.5:
                del edges[rng.randrange(len(edges))]
            elif edges:
                i = rng.randrange(len(edges))
                u, v, l = edges[i]
                edges[i] = (u, rng.randrange(count), rng.randint(1, rank))
    rng.shuffle(edges)
    return kind, rank, count, edges


def test_validation_matches_dict_oracle_on_random_edge_lists():
    rng = random.Random(7000)
    checks = ("rank must be", "not connected", "out of range", "not folded", "dangles")
    seen_kinds, seen_checks = set(), set()
    for _ in range(3000):
        kind, rank, count, edges = random_edge_list(rng)
        if rng.random() < 0.02:
            rank = rng.choice((0, MAX_RANK + 1))
        got = outcome(lambda: CoreGraph(rank, count, edges))
        assert got == outcome(lambda: oracle_validate(rank, count, edges)), (rank, count, edges)
        seen_kinds.add(kind)
        seen_checks.update(c for c in checks if c in got)
        if got == "ok":
            graph = CoreGraph(rank, count, edges)
            assert revalidated(canonicalize(graph)) == _normalize(rank, count, edges, 0)
            succ, pred = succ_pred(graph)
            for vertex in range(count):
                for label in range(1, rank + 1):
                    assert walk(graph, vertex, (label,)) == succ.get((vertex, label))
                    assert walk(graph, vertex, (-label,)) == pred.get((vertex, label))
    assert seen_kinds == set(EDGE_LIST_KINDS)
    assert seen_checks == set(checks)


def gamma_orbit_size(m: int) -> int:
    """Size of the orbit of (v_0, v_0) under the product of the gamma(m)
    and gamma(m+1) actions (a: i -> -i, b: i -> i + 1), pair by pair."""
    seen = {(0, 0)}
    queue = [(0, 0)]
    for p, q in queue:
        for pair in ((-p % m, -q % (m + 1)), ((p + 1) % m, (q + 1) % (m + 1))):
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return len(seen)


def test_gamma_pullbacks_match_oracle_and_orbit_size(monkeypatch):
    for cover_products in each_pair_table(monkeypatch):
        pairs = [(gamma_graph(m), gamma_graph(m + 1)) for m in range(2, 61)]
        for m, (g1, g2) in enumerate(pairs, start=2):
            product = revalidated(pullback(g1, g2))
            assert product == oracle_pullback(g1, g2)
            assert product.vertex_count == subgroup_index(product) == gamma_orbit_size(m)
        # gamma(m) and gamma(m + 1) are covers of coprime indices m and m + 1.
        assert len(cover_products) == coprime(pairs) == 59


@settings(derandomize=True, database=None, max_examples=150, deadline=timedelta(seconds=1))
@given(st.data())
def test_builder_outputs_pass_the_checked_constructor(data):
    rank = data.draw(st.integers(1, 3))
    word = st.lists(st.sampled_from(_canonical_letters(rank)), max_size=10)
    generator_sets = st.lists(word.map(partial(reduce_word, rank)), max_size=4)
    rng = data.draw(st.randoms(use_true_random=False))
    gens = data.draw(generator_sets)
    g1 = revalidated(from_generators(rank, gens))
    g2 = revalidated(from_generators(rank, data.draw(generator_sets)))
    revalidated(pullback(g1, g2))
    assert revalidated(fold(rank, *shuffled_wedge(rng, rank, gens))) == g1
    assert revalidated(canonicalize(relabelled(rng, g1))) == g1
    points = rng.randint(1, 8)
    try:
        cover = schreier_graph(rank, random_permutations(rng, rank, points), rng.randrange(points))
    except ValueError as exc:
        assert "not transitive" in str(exc)
    else:
        revalidated(cover)
        revalidated(pullback(cover, g1))
