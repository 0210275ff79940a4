"""The multi-pass fold that ``fold``, ``pullback`` and ``schreier_graph``
replaced, kept as the reference the worklist fold is checked against.

``_normalize`` and ``_bfs_relabeling`` are the old implementation as it
was: every pass re-scans all edges, merging targets of equal-label edges
that share an endpoint, until a pass changes nothing; then it restricts
to the base component, trims hair pass by pass and renumbers.
``oracle_pullback`` and ``oracle_schreier_graph`` are the old
``pullback`` and ``schreier_graph``, which folded their results again,
and ``oracle_subgroup_index`` is the old per-vertex, per-label
``subgroup_index``.  The seeded tests below require the new code to
return equal graphs and indices.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Iterable, Sequence

import pytest

from fgr import (
    CoreGraph,
    Permutation,
    Word,
    fold,
    from_generators,
    pullback,
    schreier_graph,
    subgroup_index,
)
from fgr.stallings import Edge, trivial_graph


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


def oracle_pullback(g1: CoreGraph, g2: CoreGraph) -> CoreGraph:
    """Fiber product of two core graphs: the intersection subgroup.

    Explores synchronized transitions lazily from the pair of base
    vertices rather than materializing the full product; the result is
    core-trimmed and canonical.  A trivial intersection yields the
    one-vertex graph.
    """
    if g1.rank != g2.rank:
        raise ValueError(f"rank mismatch: {g1.rank} != {g2.rank}")
    ids: dict[tuple[int, int], int] = {(0, 0): 0}
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    edges: set[Edge] = set()
    while queue:
        p, q = queue.popleft()
        here = ids[(p, q)]
        for label in range(1, g1.rank + 1):
            a = g1.succ.get((p, label))
            b = g2.succ.get((q, label))
            if a is not None and b is not None:
                pair = (a, b)
                there = ids.get(pair)
                if there is None:
                    there = ids[pair] = len(ids)
                    queue.append(pair)
                edges.add((here, there, label))
            a = g1.pred.get((p, label))
            b = g2.pred.get((q, label))
            if a is not None and b is not None:
                pair = (a, b)
                there = ids.get(pair)
                if there is None:
                    there = ids[pair] = len(ids)
                    queue.append(pair)
                edges.add((there, here, label))
    if not edges:
        return trivial_graph(g1.rank)
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
    for vertex in range(graph.vertex_count):
        for label in range(1, graph.rank + 1):
            if (vertex, label) not in graph.succ or (vertex, label) not in graph.pred:
                return None
    return graph.vertex_count


# --- seeded comparisons ---------------------------------------------------------

def random_reduced_word(rng, rank, max_len):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        options = [
            l for l in range(-rank, rank + 1)
            if l != 0 and (not letters or l != -letters[-1])
        ]
        letters.append(rng.choice(options))
    return Word(rank, tuple(letters))


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
        assert fold(rank, vertex_count, edges, base) == expected
        if base == 0:
            assert from_generators(rank, gens) == expected


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
        graph = fold(rank, vertex_count, edges, base)
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
        assert pullback(g1, g2) == oracle_pullback(g1, g2)


@pytest.mark.parametrize("seed", range(4))
def test_pullback_and_schreier_match_oracle_on_random_covers(seed):
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
        graph = schreier_graph(rank, perms, base)
        assert graph == expected
        assert subgroup_index(graph) == oracle_subgroup_index(graph) == points
        # Without one of its edges a cover folds to an infinite-index core.
        edges = list(graph.edges)
        del edges[rng.randrange(len(edges))]
        cut = fold(rank, points, edges)
        assert subgroup_index(cut) == oracle_subgroup_index(cut) is None
        covers.append(graph)
    for g1 in covers:
        for g2 in covers:
            if g1.rank == g2.rank:
                assert pullback(g1, g2) == oracle_pullback(g1, g2)
