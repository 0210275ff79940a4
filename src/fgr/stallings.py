"""Stallings core graphs for finitely generated subgroups of free groups.

A core graph is a folded, based, connected, edge-labeled digraph whose
loops at the base vertex spell exactly the members of a subgroup.
Vertices are ``0..vertex_count-1`` with the base fixed at 0; an edge
``(u, v, l)`` runs from u to v and carries the generator label l.

Construction folds a wedge of generator loops with a worklist fold: a
union-find over the vertices plus a stack of pending merges, so each
merge is done once instead of re-scanning every edge per pass.
``pullback`` computes the fiber product realizing subgroup intersection;
``schreier_graph`` builds the coset graph of a permutation action.
Neither folds: a product of folded graphs is already folded and a
permutation graph is a complete cover, so both only restrict to the base
component, trim and renumber.  ``canonicalize`` renumbers vertices
deterministically so that structural equality of canonical graphs
coincides with equality of subgroups.

A ``SpanningTree`` is checked against its graph once, when it is built,
and carries its tree walk and ordered non-tree edges; the functions that
take a graph and a tree (``basis``, ``tree_path_word``,
``rewrite_in_basis``, the transfer and the homology projection) only
check that the tree was built for that graph.
"""

from __future__ import annotations

import gc
from collections import deque
from dataclasses import dataclass
from functools import wraps
from typing import Iterable, Sequence

from .words import MAX_RANK, Word, reduce_word

# An edge is (origin, terminus, label) with label in 1..rank.
Edge = tuple[int, int, int]


class NotAMemberError(ValueError):
    """The word does not belong to the subgroup."""


class InfiniteIndexError(ValueError):
    """The graph is not a finite covering of the rose."""


@dataclass(frozen=True)
class CoreGraph:
    """A validated core graph.

    ``succ`` maps (origin, label) to terminus and ``pred`` maps
    (terminus, label) to origin; validation builds both once, and both
    are functions because the graph is folded.
    """

    rank: int
    vertex_count: int
    edges: tuple[Edge, ...]

    # The base vertex is 0 by convention; renumbering preserves this.
    base = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))
        succ: dict[tuple[int, int], int] = {}
        pred: dict[tuple[int, int], int] = {}
        if not 1 <= self.rank <= MAX_RANK:
            raise ValueError(f"rank must be in 1..{MAX_RANK}, got {self.rank}")
        if self.vertex_count < 1:
            raise ValueError("graph needs at least the base vertex")
        # Checked before anything is sized by vertex_count, so a declared
        # count cannot ask for unbounded memory.
        if self.vertex_count > len(self.edges) + 1:
            raise ValueError("graph is not connected to the base vertex")
        degree = [0] * self.vertex_count
        for origin, terminus, label in self.edges:
            if not (0 <= origin < self.vertex_count and 0 <= terminus < self.vertex_count):
                raise ValueError(f"edge endpoint out of range: {(origin, terminus, label)}")
            if not 1 <= label <= self.rank:
                raise ValueError(f"edge label out of range: {(origin, terminus, label)}")
            if (origin, label) in succ:
                raise ValueError(f"not folded: two edges labeled {label} leave {origin}")
            if (terminus, label) in pred:
                raise ValueError(f"not folded: two edges labeled {label} enter {terminus}")
            succ[(origin, label)] = terminus
            pred[(terminus, label)] = origin
            degree[origin] += 1
            degree[terminus] += 1
        object.__setattr__(self, "succ", succ)
        object.__setattr__(self, "pred", pred)
        if len(_bfs(succ, pred, 0, _canonical_letters(self.rank))) != self.vertex_count:
            raise ValueError("graph is not connected to the base vertex")
        for vertex in range(1, self.vertex_count):
            if degree[vertex] < 2:
                raise ValueError(f"vertex {vertex} dangles (degree < 2)")

    def step(self, vertex: int, letter: int) -> int | None:
        """Endpoint of the signed ``letter`` traversal from ``vertex``."""
        if letter > 0:
            return self.succ.get((vertex, letter))
        return self.pred.get((vertex, -letter))


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of a core graph, checked against it once when built.

    Construction raises ``ValueError`` unless ``tree_edges`` are edges of
    ``graph`` that span it as a tree, so a function given a graph and a
    tree only checks that the tree was built for that graph.  It records
    ``parents``, the walk of the tree from the base in canonical letter
    order (vertex -> (parent, signed letter); the base -> None), which
    gives the tree paths; ``nontree_edges``, ordered by (index of origin
    in the walk, label), which index the induced free basis; and
    ``symbols``, each non-tree edge's 1-based basis symbol.
    """

    graph: CoreGraph
    tree_edges: frozenset[Edge]

    def __post_init__(self) -> None:
        graph = self.graph
        tree = frozenset(self.tree_edges)
        object.__setattr__(self, "tree_edges", tree)
        if not tree.issubset(graph.edges):
            raise ValueError("spanning tree does not belong to this graph")
        if len(tree) != graph.vertex_count - 1:
            raise ValueError("spanning tree has the wrong number of edges")
        succ = {(u, l): v for (u, v, l) in tree}
        pred = {(v, l): u for (u, v, l) in tree}
        parents = _bfs(succ, pred, 0, _canonical_letters(graph.rank))
        if len(parents) != graph.vertex_count:
            raise ValueError("spanning tree does not span the graph")
        index = {vertex: i for i, vertex in enumerate(parents)}
        nontree = sorted(
            (e for e in graph.edges if e not in tree), key=lambda e: (index[e[0]], e[2])
        )
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "nontree_edges", tuple(nontree))
        object.__setattr__(self, "symbols", {e: i for i, e in enumerate(nontree, start=1)})


@dataclass(frozen=True)
class BasisWord:
    """A reduced word over a subgroup basis.

    Letters are signed 1-based indices into the non-tree edge list of a
    spanning tree; sign +1 traverses the edge along its orientation.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        previous = 0
        for letter in self.letters:
            if letter == 0:
                raise ValueError("basis symbol 0 is not allowed")
            if letter == -previous:
                raise ValueError("basis word is not freely reduced")
            previous = letter

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``0..len(images)-1`` given by its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if sorted(self.images) != list(range(n)):
            raise ValueError("images are not a bijection")

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def then(self, other: "Permutation") -> "Permutation":
        """Composite permutation: apply ``self`` first, then ``other``."""
        if len(self.images) != len(other.images):
            raise ValueError("permutation degree mismatch")
        return Permutation(tuple(other.images[i] for i in self.images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """All cycles (fixed points included), ordered by least element."""
        seen = [False] * len(self.images)
        out: list[tuple[int, ...]] = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = True
            point = self.images[start]
            while point != start:
                cycle.append(point)
                seen[point] = True
                point = self.images[point]
            out.append(tuple(cycle))
        return tuple(out)


def trivial_graph(rank: int) -> CoreGraph:
    """The one-vertex, zero-edge graph representing the trivial subgroup."""
    return CoreGraph(rank, 1, ())


def walk(graph: CoreGraph, vertex: int, letters: Iterable[int]) -> int | None:
    """Follow a signed letter sequence; None if the path breaks."""
    current: int | None = vertex
    for letter in letters:
        current = graph.step(current, letter)
        if current is None:
            return None
    return current


def contains(graph: CoreGraph, w: Word) -> bool:
    """Membership: the path of ``w`` from the base exists and closes."""
    if w.rank != graph.rank:
        raise ValueError(f"rank mismatch: {w.rank} != {graph.rank}")
    return walk(graph, 0, w.letters) == 0


def subgroup_rank(graph: CoreGraph) -> int:
    """Rank of the represented subgroup: |edges| - |vertices| + 1."""
    return len(graph.edges) - graph.vertex_count + 1


def subgroup_index(graph: CoreGraph) -> int | None:
    """The subgroup index, or None when it is infinite.

    The index is finite exactly when the graph is a complete covering:
    one outgoing and one incoming edge per label at every vertex.  A
    folded graph has at most one of each, so it is complete exactly when
    it has rank * vertex_count edges.
    """
    return graph.vertex_count if len(graph.edges) == graph.rank * graph.vertex_count else None


def _canonical_letters(rank: int) -> tuple[int, ...]:
    """Outgoing labels 1..n, then incoming labels 1..n."""
    return (*range(1, rank + 1), *range(-1, -rank - 1, -1))


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


def canonical_relabeling(graph: CoreGraph) -> dict[int, int]:
    """Map from current vertex ids to canonical BFS ids."""
    order = _bfs(graph.succ, graph.pred, 0, _canonical_letters(graph.rank))
    return {vertex: i for i, vertex in enumerate(order)}


def canonicalize(graph: CoreGraph) -> CoreGraph:
    """Renumber vertices canonically; idempotent.

    Two folded core graphs represent the same subgroup exactly when
    their canonical forms are equal.
    """
    order = canonical_relabeling(graph)
    edges = tuple((order[u], order[v], l) for (u, v, l) in graph.edges)
    return CoreGraph(graph.rank, graph.vertex_count, edges)


def _collector_paused(build):
    """Run the graph builder ``build`` with the cyclic collector paused.

    Builders allocate a tuple per edge and per (vertex, label) key, none
    in a reference cycle; left on, the collector would traverse them on
    every collection they trigger, at a cost set by its state at entry.
    """

    @wraps(build)
    def run(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return run


def _core(
    rank: int,
    succ: dict[tuple[int, int], int],
    pred: dict[tuple[int, int], int],
    base: int,
) -> CoreGraph:
    """Core graph of the base component of a folded graph.

    ``succ``/``pred`` describe the folded graph as in :class:`CoreGraph`
    and are consumed.  Non-base vertices of degree <= 1 are trimmed from
    a worklist, then the rest is renumbered canonically.  The component's
    BFS order restricted to the kept vertices is the core's BFS order: a
    trimmed tree hangs from one kept vertex and is only entered through
    it, so it never discovers a kept vertex.
    """
    component = _bfs(succ, pred, base, _canonical_letters(rank))
    degree = dict.fromkeys(component, 0)
    for (origin, _), terminus in succ.items():
        if origin in degree:
            degree[origin] += 1
            degree[terminus] += 1
    hair = [v for v, d in degree.items() if d <= 1 and v != base]
    while hair:
        vertex = hair.pop()
        del degree[vertex]
        for label in range(1, rank + 1):
            for table, reverse in ((succ, pred), (pred, succ)):
                other = table.pop((vertex, label), None)
                if other is not None:
                    del reverse[(other, label)]
                    degree[other] -= 1
                    if degree[other] == 1 and other != base:
                        hair.append(other)
    order = {v: i for i, v in enumerate(v for v in component if v in degree)}
    edges = tuple((order[u], order[v], l) for (u, l), v in succ.items() if u in order)
    return CoreGraph(rank, len(order), edges)


@_collector_paused
def fold(rank: int, vertex_count: int, edges: Iterable[Edge], base: int = 0) -> CoreGraph:
    """Fold an arbitrary based labeled digraph into a core graph.

    Each vertex keeps at most one edge per label and direction; an edge
    that would be a second one queues a merge of the two far endpoints.
    Merges run on a union-find (Touikan, "A fast algorithm for Stallings'
    folding process", 2006), the smaller class handing its edges to the
    larger and queueing any clash, until no merge is pending.  The result
    is independent of edge order (folding is confluent) and is returned
    in canonical numbering with the base at 0.
    """
    edge_set = {(int(u), int(v), int(l)) for (u, v, l) in edges}
    for u, v, l in edge_set:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge endpoint out of range: {(u, v, l)}")
        if not 1 <= l <= rank:
            raise ValueError(f"edge label out of range: {(u, v, l)}")
    if not 0 <= base < vertex_count:
        raise ValueError("base vertex out of range")

    # Keyed by the vertices the edges touch, not sized by vertex_count.
    parent = {base: base}
    succ: dict[tuple[int, int], int] = {}
    pred: dict[tuple[int, int], int] = {}
    pending: list[tuple[int, int]] = []
    for u, v, l in edge_set:
        parent[u] = u
        parent[v] = v
        known = succ.setdefault((u, l), v)
        if known != v:
            pending.append((known, v))
        known = pred.setdefault((v, l), u)
        if known != u:
            pending.append((known, u))
    size = dict.fromkeys(parent, 1)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    while pending:
        keep, merge = pending.pop()
        keep, merge = find(keep), find(merge)
        if keep == merge:
            continue
        if size[keep] < size[merge]:
            keep, merge = merge, keep
        parent[merge] = keep
        size[keep] += size[merge]
        for label in range(1, rank + 1):
            for table in (succ, pred):
                far = table.pop((merge, label), None)
                if far is not None:
                    known = table.setdefault((keep, label), far)
                    if known != far:
                        pending.append((known, far))

    succ = {key: find(v) for key, v in succ.items()}
    pred = {key: find(v) for key, v in pred.items()}
    return _core(rank, succ, pred, find(base))


def from_generators(rank: int, generators: Sequence[Word]) -> CoreGraph:
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


def spanning_tree(graph: CoreGraph, override: Iterable[Edge] | None = None) -> SpanningTree:
    """A spanning tree with a deterministic non-tree edge order.

    The default tree is grown by BFS from the base exploring, at each
    vertex, labels 1..n in (label, direction) order with outgoing before
    incoming.  ``override`` supplies an explicit tree edge set instead;
    :class:`SpanningTree` checks that it is a spanning tree of the graph
    and orders the non-tree edges.
    """
    if override is not None:
        return SpanningTree(graph, frozenset(tuple(e) for e in override))
    letters = [s * l for l in range(1, graph.rank + 1) for s in (1, -1)]
    tree: set[Edge] = set()
    for vertex, step in _bfs(graph.succ, graph.pred, 0, letters).items():
        if step is not None:
            parent, letter = step
            tree.add((parent, vertex, letter) if letter > 0 else (vertex, parent, -letter))
    return SpanningTree(graph, frozenset(tree))


def _root_path(parents: dict[int, tuple[int, int] | None], vertex: int) -> list[int]:
    """Signed letters spelling the tree path base -> vertex."""
    letters: list[int] = []
    while parents[vertex] is not None:
        parent, letter = parents[vertex]  # type: ignore[misc]
        letters.append(letter)
        vertex = parent
    letters.reverse()
    return letters


def tree_path_word(graph: CoreGraph, tree: SpanningTree, source: int, target: int) -> Word:
    """Reduced word spelled by the tree geodesic from source to target."""
    if tree.graph is not graph and tree.graph != graph:
        raise ValueError("spanning tree does not belong to this graph")
    to_source = _root_path(tree.parents, source)
    to_target = _root_path(tree.parents, target)
    inverted = [-l for l in reversed(to_source)]
    return reduce_word(graph.rank, inverted + to_target)


def basis(graph: CoreGraph, tree: SpanningTree | None = None) -> list[Word]:
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


def rewrite_in_basis(graph: CoreGraph, tree: SpanningTree, w: Word) -> BasisWord:
    """Express a member word over the basis induced by ``tree``.

    Traces the path of ``w`` from the base and emits a signed basis
    symbol for each non-tree edge crossed, in traversal order.  Raises
    :class:`NotAMemberError` when the path breaks or does not close.
    """
    if w.rank != graph.rank:
        raise ValueError(f"rank mismatch: {w.rank} != {graph.rank}")
    if tree.graph is not graph and tree.graph != graph:
        raise ValueError("spanning tree does not belong to this graph")
    vertex = 0
    out: list[int] = []
    for letter in w.letters:
        if letter > 0:
            target = graph.succ.get((vertex, letter))
            if target is None:
                raise NotAMemberError(f"word leaves the graph at vertex {vertex}")
            sym = tree.symbols.get((vertex, target, letter))
            if sym is not None:
                out.append(sym)
            vertex = target
        else:
            source = graph.pred.get((vertex, -letter))
            if source is None:
                raise NotAMemberError(f"word leaves the graph at vertex {vertex}")
            sym = tree.symbols.get((source, vertex, -letter))
            if sym is not None:
                out.append(-sym)
            vertex = source
    if vertex != 0:
        raise NotAMemberError("path does not close at the base")
    return BasisWord(tuple(out))


def evaluate_basis_word(basis_words: Sequence[Word], symbols: BasisWord, rank: int) -> Word:
    """Substitute actual basis words for the symbols and reduce."""
    letters: list[int] = []
    for symbol in symbols.letters:
        if abs(symbol) > len(basis_words):
            raise ValueError(f"basis symbol {symbol} out of range")
        word = basis_words[abs(symbol) - 1]
        if word.rank != rank:
            raise ValueError(f"rank mismatch: {rank} != {word.rank}")
        letters += word.letters if symbol > 0 else word.inverse().letters
    return reduce_word(rank, letters)


@_collector_paused
def pullback(g1: CoreGraph, g2: CoreGraph) -> CoreGraph:
    """Fiber product of two core graphs: the intersection subgroup.

    Explores synchronized transitions lazily from the pair of base
    vertices rather than materializing the full product; the result is
    core-trimmed and canonical.  A trivial intersection yields the
    one-vertex graph.  The product of folded graphs is folded, so it is
    only trimmed and renumbered.
    """
    if g1.rank != g2.rank:
        raise ValueError(f"rank mismatch: {g1.rank} != {g2.rank}")
    ids: dict[tuple[int, int], int] = {(0, 0): 0}
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    succ: dict[tuple[int, int], int] = {}
    pred: dict[tuple[int, int], int] = {}
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
                succ[(here, label)] = there
            a = g1.pred.get((p, label))
            b = g2.pred.get((q, label))
            if a is not None and b is not None:
                pair = (a, b)
                there = ids.get(pair)
                if there is None:
                    there = ids[pair] = len(ids)
                    queue.append(pair)
                pred[(here, label)] = there
    return _core(g1.rank, succ, pred, 0)


@_collector_paused
def schreier_graph(rank: int, perms: Sequence[Permutation], base: int) -> CoreGraph:
    """Coset graph of a transitive permutation action.

    ``perms[i]`` is the action of generator i+1 on the points; the
    resulting graph is a complete covering with the given base point,
    renumbered canonically.  Raises when the action is not transitive.
    A complete covering is folded and has no hair, so it is only
    restricted to the base orbit and renumbered.
    """
    if len(perms) != rank:
        raise ValueError(f"expected {rank} permutations, got {len(perms)}")
    points = perms[0].degree() if perms else 1
    for perm in perms:
        if perm.degree() != points:
            raise ValueError("permutations act on different point counts")
    if not 0 <= base < points:
        raise ValueError("base point out of range")
    succ: dict[tuple[int, int], int] = {}
    pred: dict[tuple[int, int], int] = {}
    for label, perm in enumerate(perms, start=1):
        for p, image in enumerate(perm.images):
            succ[(p, label)] = image
            pred[(image, label)] = p
    graph = _core(rank, succ, pred, base)
    if graph.vertex_count != points:
        raise ValueError("action is not transitive: coset graph is not connected")
    return graph


def coset_permutation(graph: CoreGraph, w: Word) -> Permutation:
    """Permutation induced by ``w`` on the vertices of a finite cover.

    Vertex v maps to the endpoint of the lift of ``w`` starting at v.
    Requires finite index (a complete covering).
    """
    if w.rank != graph.rank:
        raise ValueError(f"rank mismatch: {w.rank} != {graph.rank}")
    if subgroup_index(graph) is None:
        raise InfiniteIndexError("coset permutations need a finite-index subgroup")
    images = []
    for vertex in range(graph.vertex_count):
        target = walk(graph, vertex, w.letters)
        assert target is not None  # complete covering
        images.append(target)
    return Permutation(tuple(images))


def graph_to_json(graph: CoreGraph) -> dict:
    """JSON-serializable form with canonical vertex numbering."""
    g = canonicalize(graph)
    return {
        "rank": g.rank,
        "vertices": g.vertex_count,
        "base": 0,
        "edges": [{"from": u, "to": v, "label": l} for (u, v, l) in g.edges],
    }


def _read_graph_json(data: dict) -> tuple[int, int, tuple[Edge, ...], int]:
    """The (rank, vertices, edges, base) fields of the JSON form."""
    try:
        rank = int(data["rank"])
        vertices = int(data["vertices"])
        base = int(data.get("base", 0))
        edges = tuple(
            (int(e["from"]), int(e["to"]), int(e["label"])) for e in data["edges"]
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    return rank, vertices, edges, base


def graph_from_json(data: dict) -> CoreGraph:
    """Parse the JSON form back into a validated core graph."""
    rank, vertices, edges, base = _read_graph_json(data)
    if base != 0:
        raise ValueError("graph JSON must use base vertex 0")
    return CoreGraph(rank, vertices, edges)
