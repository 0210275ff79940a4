"""Stallings core graphs for finitely generated subgroups of free groups.

A core graph is a folded, based, connected, edge-labeled digraph whose
loops at the base vertex spell exactly the members of a subgroup.
Vertices are ``0..vertex_count-1`` with the base fixed at 0; an edge
``(u, v, l)`` runs from u to v and carries the generator label l.  A
``CoreGraph`` is held as one int array per label and direction,
``out[l][v]`` and ``in_[l][v]`` (-1 where there is no edge), plus its
edge count; every walk, search and builder reads the arrays, and the
sorted ``edges`` tuple is a view derived from them when first asked
for.  ``CoreGraph(rank, vertex_count, edges)`` checks its input and is
the one way in for edges from outside; the builders below make arrays
that are valid by construction and pass them to a private constructor
that checks nothing.

``from_generators`` reads each generator into the graph folded so far:
it follows the word forward from the base as far as edges exist and
backward from the base along the rest, adds only the unread middle
path, and folds whatever clashes.  Folding is a worklist fold: a
union-find over the vertices plus a stack of pending merges, so each
merge is done once instead of re-scanning every edge per pass.
``pullback`` computes the fiber product realizing subgroup intersection;
``schreier_graph`` builds the coset graph of a permutation action.
Neither folds: a product of folded graphs is already folded and a
permutation graph is a complete cover.  Only two builders trim hair
(``_core``): ``fold``, whose input may dangle, and ``pullback`` of two
graphs that are not both complete covers, whose product may.  ``fold``
then renumbers; a ``pullback`` product is numbered canonically by its
search, so it is renumbered only when hair was trimmed.  The others
cannot leave hair, so they only renumber.  In ``from_generators`` every
vertex but the base lies inside a reduced closed walk from the base,
which enters and leaves it through two different slots; a coset graph
is a complete cover, where every vertex has degree 2 * rank.
``pullback`` tries the letters in canonical order, so it discovers the
product's vertices already in canonical order and needs no second
search.  It has two searches.  A product of two complete covers with
V1 * V2 at most ``_DENSE_PAIRS`` numbers the pair (a, b) in a list per
vertex a of the smaller factor, read through one selector list per
letter, so a move is three list reads; it queues pairs in two
coordinate lists and stores each row entry in place, in rows sized
lcm(V1, V2) and grown by as much.  The orbit of the base pair maps onto
each factor with fibres of one size, so it has a multiple of
lcm(V1, V2) pairs, and no slot is left empty.  Every other product
queues each pair as one int key, (a << s) | b with 2 ** s > V2, not as a
tuple, so the search leaves the cyclic garbage collector little to
track, and numbers the keys in a dict of the pairs the search reaches,
so that a large, sparse pair space costs only what is reached.  The
first graph's arrays are shifted before that search, its empty slots
to -1 << s, so a move is one OR and a sign test (the second graph's -1
ORs to -1).  No builder touches the collector's state.  A product of
complete covers is itself a complete cover, so its arrays become the
result's with no trim or renumbering.  Any other product has an empty
slot: with none it would be a finite cover, so the intersection would
have finite index inside a factor of infinite index.
``canonicalize`` renumbers vertices deterministically so that
structural equality of canonical graphs coincides with equality of
subgroups; a graph already in canonical numbering is returned as it
is.  Every breadth-first search over the arrays, apart from
``pullback``'s two searches of pairs, is one flat search, ``_order``,
that marks seen vertices in a byte array and returns the discovery
order: the connectivity check, canonical numbering, the base component
of a fold or a coset graph, and the two searches of a spanning tree.
Asked for them, it also reports the step that reached each vertex (the
vertex it was reached from and the signed letter); it does so in a
loop of its own, so that the searches that need only the order do not
pay for steps.  On a complete cover the connectivity check follows
outgoing letters only.

The checked constructor fills the arrays in one pass over the edges in
the order given, checking each edge's range and slots as it fills them,
and ``_check_core`` then checks connectivity and degrees.  Valid edges
are never sorted.  Edges that fail a check or raise a ``TypeError``
are filled again in sorted order, which fails as well and names the
first bad edge in that order.  ``graph_from_json`` is only a reader:
``_read_graph_json`` takes the fields out of the document, the base
must be 0, and the constructor does the rest.

Every spanning tree, whether given, the default tree of
``spanning_tree`` or the tree of ``hm_graph``, is built by the one
checked constructor ``SpanningTree(graph, tree_edges)``.  In one pass
over the edges it checks that each is an edge of the graph and fills
the tree's own per-label arrays; it checks the edge count, walks those
arrays with ``_order`` in canonical letter order, which tells whether
the tree spans, and reads off the walk the tree's parents, its
non-tree edges in (walk index of origin, label) order and per-label
symbol arrays indexed like ``out`` (each non-tree edge's basis symbol
at its slot, 0 elsewhere), so ``rewrite_in_basis`` reads a crossed
edge's symbol with two list reads.  The default tree holds, for each
vertex but the base, the edge by which ``_order`` over the letters 1,
-1, 2, -2, .., n, -n first reaches it.  The functions that take a
graph and a tree (``basis``, ``tree_path_word``, ``rewrite_in_basis``,
the transfer and the homology projection) only check that the tree was
built for that graph (``_check_tree_of``).  ``basis`` and
``rewrite_in_basis`` build words that are reduced by construction and
hand them over unchecked, as the builders of ``fgr.words`` do.  One
walk of the tree spells the root paths of the vertices asked for
(``_root_paths``): those of the non-tree edges' endpoints either as
letters, for ``basis``, or as text, for ``fgr basis``, which writes each
basis word as three string copies (``_basis_text``); those of two
vertices for ``tree_path_word``, which reduces the one path's inverse
times the other, and which names a vertex outside the graph.
``rewrite_in_basis`` returns a ``Word`` in the free group on the basis,
whose rank is the number of non-tree edges, beyond 26 too, and 0 for
the trivial subgroup; ``fgr.words.substitute`` of the basis words is the
way back.  The builders check their rank against 1..26 with
``fgr.words._check_rank``, as the parser does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress
from math import lcm
from operator import eq, index, neg
from typing import Callable, Iterable, Sequence

from .words import _GLYPHS, Word, _check_rank, _render_letters, reduce_word

# An edge is (origin, terminus, label) with label in 1..rank.
Edge = tuple[int, int, int]


class NotAMemberError(ValueError):
    """The word does not belong to the subgroup."""


class InfiniteIndexError(ValueError):
    """The graph is not a finite covering of the rose."""


class CoreGraph:
    """A core graph, held as one int array per label and direction.

    ``out[l][v]`` is the terminus of the edge labeled l leaving v and
    ``in_[l][v]`` the origin of the edge labeled l entering v, or -1
    where there is none (index 0 of both is None).  One entry per slot
    suffices because the graph is folded.  The arrays and the edge count
    are the whole graph: ``edges`` is a sorted view derived from ``out``
    on first use, and equality and hashing read the arrays.

    ``CoreGraph(rank, vertex_count, edges)`` checks its input and raises
    ``ValueError`` unless the edges form a folded core graph based at 0.
    It fills the arrays in the given order, checking as it goes, so
    valid edges are not sorted and need not be comparable with each
    other.  Edges that fail a check or raise a ``TypeError`` are filled
    again in sorted order, for the error that names the first bad edge
    in that order.
    The builders of this module make arrays that are valid by
    construction and hand them to ``_from_arrays``, which checks nothing.
    """

    __slots__ = ("rank", "vertex_count", "out", "in_", "_edge_count", "_edges")

    # The base vertex is 0 by convention; renumbering preserves this.
    base = 0

    def __init__(self, rank: int, vertex_count: int, edges: Iterable[Edge]) -> None:
        edges = tuple(edges)
        try:
            out, in_ = _filled_arrays(rank, vertex_count, edges)
        except (TypeError, ValueError):
            # Filled again in sorted order, which fails as well, so that the
            # error names the first bad edge in that order.
            out, in_ = _filled_arrays(rank, vertex_count, sorted(edges))
        _check_core(rank, out, in_)
        self.rank, self.vertex_count, self.out, self.in_ = rank, vertex_count, out, in_
        self._edge_count, self._edges = len(edges), None

    @classmethod
    def _from_arrays(
        cls, rank: int, vertex_count: int, out: list, in_: list, edge_count: int
    ) -> CoreGraph:
        """A graph on arrays a builder has made valid, taken as they are."""
        graph = cls.__new__(cls)
        graph.rank, graph.vertex_count, graph.out, graph.in_ = rank, vertex_count, out, in_
        graph._edge_count, graph._edges = edge_count, None
        return graph

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges (origin, terminus, label) in sorted order."""
        if self._edges is None:
            self._edges = tuple(sorted(
                (u, v, l)
                for l in range(1, self.rank + 1)
                for u, v in enumerate(self.out[l])
                if v >= 0
            ))
        return self._edges

    # ``in_`` is the inverse of ``out``, so ``out`` decides equality.
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoreGraph):
            return NotImplemented
        return (self.rank, self.vertex_count, self.out) == (
            other.rank, other.vertex_count, other.out
        )

    def __hash__(self) -> int:
        return hash((self.rank, self.vertex_count, *map(tuple, self.out[1:])))

    def __repr__(self) -> str:
        return f"CoreGraph(rank={self.rank}, vertex_count={self.vertex_count}, edges={self.edges})"


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree of a core graph, checked against it once when built.

    This constructor is the only one: a given tree, the default tree of
    ``spanning_tree`` and the tree of ``hm_graph`` all go through it.
    ``tree_edges`` may be any iterable of edges and is kept as a
    frozenset.  Construction raises ``ValueError`` unless they are edges
    of ``graph`` (checked first, while the tree's own per-label arrays
    are filled), one fewer than its vertices (checked next), that span
    it (checked by walking those arrays from the base), so a function
    given a graph and a tree only checks that the tree was built for
    that graph.  The walk, by ``_order`` in canonical letter order,
    gives ``parents`` (vertex -> (parent, signed letter), the base ->
    None, in walk order), from which the tree paths are read;
    ``nontree_edges``, ordered by (index of origin in the walk, label),
    which index the induced free basis; and ``symbols``, one array per
    label indexed like ``graph.out``: ``symbols[l][u]`` is the 1-based
    basis symbol of the non-tree edge labeled l leaving u, and 0 at tree
    edges and empty slots (index 0 is None).
    """

    graph: CoreGraph
    tree_edges: frozenset[Edge]

    def __post_init__(self) -> None:
        tree = frozenset(self.tree_edges)
        object.__setattr__(self, "tree_edges", tree)
        rank, count, out = self.graph.rank, self.graph.vertex_count, self.graph.out
        # The tree's own arrays, filled as each edge is checked.
        tree_out, tree_in = _empty_arrays(rank, count), _empty_arrays(rank, count)
        for u, v, l in tree:
            if not (1 <= l <= rank and 0 <= u < count and 0 <= v == out[l][u]):
                raise ValueError("spanning tree does not belong to this graph")
            tree_out[l][u] = v
            tree_in[l][v] = u
        if len(tree) != count - 1:
            raise ValueError("spanning tree has the wrong number of edges")
        steps: list[tuple[int, int]] = []
        order = _order(tree_out, tree_in, 0, _canonical_letters(rank), steps)
        if len(order) != count:
            raise ValueError("spanning tree does not span the graph")
        parents = dict(zip(order, [None, *steps]))
        symbols = [None, *([0] * count for _ in range(rank))]
        labels = [(out[l], tree_out[l], symbols[l], l) for l in range(1, rank + 1)]
        nontree: list[Edge] = []
        # Vertices in walk order and labels in order at each: the non-tree
        # edges come out in (walk index of origin, label) order.
        for u in order:
            for leaving, tree_leaving, marks, l in labels:
                v = leaving[u]
                # A slot of the tree's arrays is empty or holds the graph's edge.
                if v != tree_leaving[u]:
                    nontree.append((u, v, l))
                    marks[u] = len(nontree)
        object.__setattr__(self, "parents", parents)
        object.__setattr__(self, "nontree_edges", tuple(nontree))
        object.__setattr__(self, "symbols", symbols)


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``0..len(images)-1`` given by its image tuple.

    Each image is read by ``operator.index``, as graph JSON fields are:
    a float or a string is a ``ValueError``, and a bool reads as 1/0.
    """

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            images = tuple(map(index, self.images))
        except TypeError as exc:
            raise ValueError(f"permutation images must be integers: {exc}") from exc
        object.__setattr__(self, "images", images)
        if sorted(images) != list(range(len(images))):
            raise ValueError("images are not a bijection")

    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]


def walk(graph: CoreGraph, vertex: int, letters: Iterable[int]) -> int | None:
    """Follow a signed letter sequence; None if the path breaks.

    A start outside the graph or a letter outside the alphabet breaks
    the path too.
    """
    if not 0 <= vertex < graph.vertex_count:
        return None
    out, in_ = graph.out, graph.in_
    try:
        for letter in letters:
            vertex = out[letter][vertex] if letter > 0 else in_[-letter][vertex]
            if vertex < 0:
                return None
    except (IndexError, TypeError):  # |letter| > rank, or letter 0 (index 0 is None)
        return None
    return vertex


def contains(graph: CoreGraph, w: Word) -> bool:
    """Membership: the path of ``w`` from the base exists and closes."""
    if w.rank != graph.rank:
        raise ValueError(f"rank mismatch: {w.rank} != {graph.rank}")
    return walk(graph, 0, w.letters) == 0


def subgroup_rank(graph: CoreGraph) -> int:
    """Rank of the represented subgroup: |edges| - |vertices| + 1."""
    return graph._edge_count - graph.vertex_count + 1


def subgroup_index(graph: CoreGraph) -> int | None:
    """The subgroup index, or None when it is infinite.

    The index is finite exactly when the graph is a complete covering:
    one outgoing and one incoming edge per label at every vertex.  A
    folded graph has at most one of each, so it is complete exactly when
    it has rank * vertex_count edges.
    """
    return graph.vertex_count if graph._edge_count == graph.rank * graph.vertex_count else None


@cache
def _canonical_letters(rank: int) -> tuple[int, ...]:
    """Outgoing labels 1..n, then incoming labels 1..n."""
    return (*range(1, rank + 1), *range(-1, -rank - 1, -1))


def _check_tree_of(graph: CoreGraph, tree: SpanningTree) -> None:
    """Raise unless ``tree`` was built for ``graph`` (or an equal graph)."""
    if tree.graph is not graph and tree.graph != graph:
        raise ValueError("spanning tree does not belong to this graph")


def _empty_arrays(rank: int, count: int) -> list:
    """Per-label arrays over ``count`` vertices with no edges: index 0
    is None, index l in 1..rank a list of -1s."""
    return [None, *map(list, [[-1] * count] * rank)]


def _filled_arrays(rank: int, count: int, edges: Sequence[Edge]) -> tuple[list, list]:
    """The per-label arrays (as in :class:`CoreGraph`) of ``edges`` over
    ``count`` vertices, filled in the given order; raises ``ValueError``
    at the first check that fails: the rank, the count, then each edge's
    endpoints, label and slots."""
    _check_rank(rank)
    if count < 1:
        raise ValueError("graph needs at least the base vertex")
    # Checked before anything is sized by count, so a declared count
    # cannot ask for unbounded memory.
    if count > len(edges) + 1:
        raise ValueError("graph is not connected to the base vertex")
    out, in_ = _empty_arrays(rank, count), _empty_arrays(rank, count)
    for origin, terminus, label in edges:
        if not (0 <= origin < count and 0 <= terminus < count):
            raise ValueError(f"edge endpoint out of range: {(origin, terminus, label)}")
        if not 1 <= label <= rank:
            raise ValueError(f"edge label out of range: {(origin, terminus, label)}")
        leaving, entering = out[label], in_[label]
        if leaving[origin] >= 0:
            raise ValueError(f"not folded: two edges labeled {label} leave {origin}")
        if entering[terminus] >= 0:
            raise ValueError(f"not folded: two edges labeled {label} enter {terminus}")
        leaving[origin] = terminus
        entering[terminus] = origin
    return out, in_


def _degrees(rank: int, out: list, in_: list) -> list[int]:
    """The number of edges at each vertex of per-label arrays (as in
    :class:`CoreGraph`): 2 * rank less its empty slots, which compress
    picks out without a Python-level pass over the full slots."""
    size = len(out[1])
    degree = [2 * rank] * size
    vertices, empty = range(size), (0).__gt__
    for array in (*out[1:], *in_[1:]):
        for vertex in compress(vertices, map(empty, array)):
            degree[vertex] -= 1
    return degree


def _check_core(rank: int, out: list, in_: list) -> None:
    """Raise ``ValueError`` unless the folded graph on ``out``/``in_`` is
    a core graph: connected to the base 0, no other vertex of degree < 2."""
    complete = not any(-1 in array for array in out[1:])
    # In a complete cover each label permutes the vertices, so the
    # outgoing letters alone reach every vertex any letter reaches.
    letters = range(1, rank + 1) if complete else _canonical_letters(rank)
    if len(_order(out, in_, 0, letters)) != len(out[1]):
        raise ValueError("graph is not connected to the base vertex")
    # Every vertex of a complete cover has degree 2 * rank.
    if not complete:
        for vertex in compress(range(len(out[1])), map((2).__gt__, _degrees(rank, out, in_))):
            if vertex:
                raise ValueError(f"vertex {vertex} dangles (degree < 2)")


def _order(
    out: list, in_: list, base: int, letters: Iterable[int], steps: list | None = None
) -> list[int]:
    """Breadth-first search from ``base`` over per-label arrays (as in
    :class:`CoreGraph`), trying the signed ``letters`` in order at each
    vertex; the vertices reached, in discovery order.  Given a list as
    ``steps``, it also appends the step that reached each vertex after
    the base, in the same order: (vertex it was reached from, signed
    letter)."""
    seen = bytearray(len(out[1]) + 1)
    # The extra last byte is seen[-1], so an empty slot reads as seen.
    seen[base] = seen[-1] = 1
    order = [base]
    if steps is None:
        arrays = [out[l] if l > 0 else in_[-l] for l in letters]
        for vertex in order:
            for array in arrays:
                other = array[vertex]
                if not seen[other]:
                    seen[other] = 1
                    order.append(other)
        return order
    # A separate loop, so that searches without steps do not pay for them.
    moves = [(out[l] if l > 0 else in_[-l], l) for l in letters]
    for vertex in order:
        for array, letter in moves:
            other = array[vertex]
            if not seen[other]:
                seen[other] = 1
                order.append(other)
                steps.append((vertex, letter))
    return order


def canonicalize(graph: CoreGraph) -> CoreGraph:
    """Renumber vertices canonically; idempotent.

    Two folded core graphs represent the same subgroup exactly when
    their canonical forms are equal.  A graph whose numbering is
    already canonical (every builder returns one) is returned as is.
    """
    order = _order(graph.out, graph.in_, 0, _canonical_letters(graph.rank))
    if all(map(eq, order, range(len(order)))):
        return graph
    return _renumbered(graph.rank, graph.out, graph.in_, order)


def _core(rank: int, out: list, in_: list, order: Sequence[int]) -> CoreGraph:
    """Core graph of the base component of a folded graph that may have hair.

    ``out``/``in_`` describe the folded graph as in :class:`CoreGraph`
    and are consumed; ``order`` lists the base component in canonical
    BFS order, base first.  Non-base vertices of degree <= 1 are trimmed
    from a worklist, then the rest is renumbered in that order.  The
    component's BFS order restricted to the kept vertices is the core's
    BFS order: a trimmed tree hangs from one kept vertex and is only
    entered through it, so it never discovers a kept vertex.  Only
    ``fold`` and ``pullback``'s search of pair keys can leave hair, so
    they are its only callers.  A graph with no hair whose ``order`` is
    the identity ``range`` over all its vertices, as ``pullback`` passes
    it, is already a canonical core graph and keeps its arrays; ``fold``
    passes a list and is always renumbered.
    """
    base = order[0]
    links = [(out[l], in_[l]) for l in range(1, rank + 1)]
    # Only entries on ``order`` are read.
    degree = _degrees(rank, out, in_)
    hair = [v for v in order if degree[v] <= 1 and v != base]
    if not hair and order == range(len(degree)):
        edge_count = sum(len(degree) - array.count(-1) for array in out[1:])
        return CoreGraph._from_arrays(rank, len(degree), out, in_, edge_count)
    while hair:
        vertex = hair.pop()
        for leaving, entering in links:
            for array, reverse in ((leaving, entering), (entering, leaving)):
                other = array[vertex]
                if other >= 0:
                    array[vertex] = reverse[other] = -1
                    degree[other] -= 1
                    if degree[other] == 1 and other != base:
                        hair.append(other)
    return _renumbered(rank, out, in_, [v for v in order if degree[v] > 1 or v == base])


def _renumbered(rank: int, out: list, in_: list, kept: Sequence[int]) -> CoreGraph:
    """The graph on the vertices ``kept``, with kept[i] renumbered i.

    ``out``/``in_`` are per-label arrays as in :class:`CoreGraph` whose
    entries at kept vertices name kept vertices or -1, and ``kept`` is a
    core graph's vertex set in canonical order, base first.
    """
    # number[-1] stays -1, so mapping through number carries empty slots.
    number = [-1] * (len(out[1]) + 1)
    for i, vertex in enumerate(kept):
        number[vertex] = i
    renumber = number.__getitem__
    out, in_ = (
        [None, *(list(map(renumber, map(array.__getitem__, kept))) for array in arrays[1:])]
        for arrays in (out, in_)
    )
    edge_count = sum(len(kept) - array.count(-1) for array in out[1:])
    return CoreGraph._from_arrays(rank, len(kept), out, in_, edge_count)


class _Folding:
    """A graph being folded.

    Vertices are ``0..len(parent)-1``, kept in a union-find.  ``out`` and
    ``in_`` are per-label arrays as in :class:`CoreGraph`, filled only at
    class roots; their entries may name merged vertices until ``find``
    resolves them.  Adding a second edge with the same label and
    direction at a vertex queues a merge of the two far endpoints on
    ``pending`` instead; ``settle`` runs the merges (Touikan, "A fast
    algorithm for Stallings' folding process", 2006), the smaller class
    handing its edges to the larger and queueing any clash, until none
    is pending.  Every array is sized by the vertices added.
    ``resolved`` hands over the settled arrays and the base component's
    canonical order: ``fold`` trims them with ``_core``, and
    ``from_generators``, which cannot leave hair, only renumbers them.
    """

    def __init__(self, rank: int, vertex_count: int) -> None:
        _check_rank(rank)
        self.rank = rank
        self.out = _empty_arrays(rank, vertex_count)
        self.in_ = _empty_arrays(rank, vertex_count)
        self.arrays = [a for l in range(1, rank + 1) for a in (self.out[l], self.in_[l])]
        self.parent = list(range(vertex_count))
        self.size = [1] * vertex_count
        self.pending: list[tuple[int, int]] = []

    def add_vertices(self, count: int) -> int:
        """Add ``count`` isolated vertices; returns the first new id."""
        first = len(self.parent)
        self.parent.extend(range(first, first + count))
        self.size.extend([1] * count)
        for array in self.arrays:
            array.extend([-1] * count)
        return first

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def add_edge(self, origin: int, terminus: int, label: int) -> None:
        """Add an edge between class roots, queueing any clash."""
        sides = ((self.out[label], origin, terminus), (self.in_[label], terminus, origin))
        for array, x, y in sides:
            known = array[x]
            if known < 0:
                array[x] = y
            elif known != y:
                self.pending.append((known, y))

    def settle(self) -> None:
        """Run pending merges until none is left."""
        parent, size, pending, find = self.parent, self.size, self.pending, self.find
        while pending:
            keep, merge = pending.pop()
            keep, merge = find(keep), find(merge)
            if keep == merge:
                continue
            if size[keep] < size[merge]:
                keep, merge = merge, keep
            parent[merge] = keep
            size[keep] += size[merge]
            for array in self.arrays:
                far = array[merge]
                if far >= 0:
                    array[merge] = -1
                    known = array[keep]
                    if known < 0:
                        array[keep] = far
                    elif known != far:
                        pending.append((known, far))

    def read_loop(self, letters: Sequence[int]) -> None:
        """Add the loop spelled by ``letters`` at vertex 0 and fold.

        The word is read forward from the class of vertex 0 as far as
        edges exist and backward from it along the rest; only the unread
        middle is added as a new path.  When the two reads meet, their
        endpoints are merged instead.
        """
        out, in_, find = self.out, self.in_, self.find
        # Vertex 0 may have been merged into another class by now.
        start = find(0)
        head, i = start, 0
        while i < len(letters):
            letter = letters[i]
            target = out[letter][head] if letter > 0 else in_[-letter][head]
            if target < 0:
                break
            head, i = find(target), i + 1
        tail, j = start, len(letters)
        while j > i:
            letter = letters[j - 1]
            source = in_[letter][tail] if letter > 0 else out[-letter][tail]
            if source < 0:
                break
            tail, j = find(source), j - 1
        if i == j:
            self.pending.append((head, tail))
        else:
            first = self.add_vertices(j - i - 1)
            path = [head, *range(first, first + j - i - 1), tail]
            for k, letter in enumerate(letters[i:j]):
                u, v = path[k], path[k + 1]
                if letter > 0:
                    self.add_edge(u, v, letter)
                else:
                    self.add_edge(v, u, -letter)
        self.settle()

    def resolved(self) -> tuple[list, list, list[int]]:
        """The settled ``out`` and ``in_``, every entry resolved to its
        class root, and the base component in canonical BFS order, base
        first."""
        out, in_, find = self.out, self.in_, self.find
        for array in self.arrays:
            array[:] = [x if x < 0 else find(x) for x in array]
        return out, in_, _order(out, in_, find(0), _canonical_letters(self.rank))


def fold(rank: int, vertex_count: int, edges: Iterable[Edge], base: int = 0) -> CoreGraph:
    """Fold an arbitrary based labeled digraph into a core graph.

    Each vertex keeps at most one edge per label and direction; an edge
    that would be a second one queues a merge of the two far endpoints,
    and the merges run on a union-find worklist (see ``_Folding``).  The
    vertices the edges touch are numbered densely first, so nothing is
    sized by ``vertex_count``.  The result is independent of edge order
    (folding is confluent) and is returned in canonical numbering with
    the base at 0.
    """
    edge_set = {(index(u), index(v), index(l)) for (u, v, l) in edges}
    for u, v, l in edge_set:
        if not (0 <= u < vertex_count and 0 <= v < vertex_count):
            raise ValueError(f"edge endpoint out of range: {(u, v, l)}")
        if not 1 <= l <= rank:
            raise ValueError(f"edge label out of range: {(u, v, l)}")
    if not 0 <= base < vertex_count:
        raise ValueError("base vertex out of range")
    ids = {base: 0}
    for u, v, _ in edge_set:
        ids.setdefault(u, len(ids))
        ids.setdefault(v, len(ids))
    folding = _Folding(rank, len(ids))
    for u, v, l in edge_set:
        folding.add_edge(ids[u], ids[v], l)
    folding.settle()
    return _core(rank, *folding.resolved())


def from_generators(rank: int, generators: Sequence[Word]) -> CoreGraph:
    """Stallings graph of the subgroup generated by the given words.

    Reads each generator as a loop at the base into the graph folded so
    far (see ``_Folding.read_loop``), which gives the fold of the wedge
    of generator loops.  Identity words are discarded; if nothing
    remains the trivial one-vertex graph is returned by convention.
    """
    for g in generators:
        if g.rank != rank:
            raise ValueError(f"generator rank {g.rank} != ambient rank {rank}")
    folding = _Folding(rank, 1)
    for g in generators:
        if g.letters:
            folding.read_loop(g.letters)
    return _renumbered(rank, *folding.resolved())


def spanning_tree(graph: CoreGraph) -> SpanningTree:
    """The default spanning tree, with a deterministic non-tree edge order.

    It holds, for each vertex but the base, the edge by which a
    breadth-first search from the base first reaches it, trying the
    letters 1, -1, 2, -2, .., n, -n in that order at each vertex.  A
    given tree is built as ``SpanningTree(graph, tree_edges)``; either
    way :class:`SpanningTree` checks the tree against the graph and
    walks it.
    """
    letters = [s * l for l in range(1, graph.rank + 1) for s in (1, -1)]
    steps: list[tuple[int, int]] = []
    order = _order(graph.out, graph.in_, 0, letters, steps)
    tree = ((u, v, l) if l > 0 else (v, u, -l) for v, (u, l) in zip(order[1:], steps))
    return SpanningTree(graph, tree)


def _root_paths(tree: SpanningTree, spell: Callable[[list[int]], Sequence], wanted: set) -> dict:
    """The tree path base -> v, for each vertex v in ``wanted``, as
    ``spell`` writes a list of signed letters: ``tuple`` keeps the
    letters, ``_render_letters`` writes their glyphs.

    The tree walk lists every vertex after its parent, so by the time a
    wanted vertex comes up, each wanted ancestor has its path: the
    vertex climbs to the nearest one and extends that path.  Only wanted
    paths are kept, so memory, and time beyond one step per vertex, are
    proportional to their total length.
    """
    parents = tree.parents
    paths = {0: spell([])}
    for vertex in parents:
        if vertex in wanted:
            climb = []
            up = vertex
            while up not in paths:
                up, letter = parents[up]  # type: ignore[misc]
                climb.append(letter)
            climb.reverse()
            paths[vertex] = paths[up] + spell(climb)
    return paths


def tree_path_word(graph: CoreGraph, tree: SpanningTree, source: int, target: int) -> Word:
    """Reduced word spelled by the tree geodesic from source to target:
    the free reduction of path(source)^-1 . path(target), with both root
    paths read by ``_root_paths``."""
    _check_tree_of(graph, tree)
    for vertex in (source, target):
        if vertex not in range(graph.vertex_count):
            raise ValueError(f"vertex {vertex!r} is not in the graph")
    paths = _root_paths(tree, tuple, {source, target})
    return reduce_word(graph.rank, [*map(neg, reversed(paths[source])), *paths[target]])


def basis(graph: CoreGraph, tree: SpanningTree | None = None) -> list[Word]:
    """The free basis of the subgroup induced by a spanning tree.

    For each non-tree edge e = (u, v, l) the basis word is (tree path
    base -> u) . l . (tree path v -> base), built without reduction
    because it is already reduced.  Both tree paths are reduced, and
    neither joint cancels: the path to u could end in l^-1 only by a
    tree edge labeled l leaving u, and the path back from v could start
    with l^-1 only by a tree edge labeled l entering v, and in a folded
    graph either would be e, which is not a tree edge.  Root paths are
    built only for the endpoints of non-tree edges, each from the
    nearest such ancestor's (see ``_root_paths``).
    """
    if tree is None:
        tree = spanning_tree(graph)
    _check_tree_of(graph, tree)
    paths = _root_paths(tree, tuple, {v for e in tree.nontree_edges for v in e[:2]})
    rank = graph.rank
    return [
        Word._from_letters(rank, (*paths[u], l, *map(neg, reversed(paths[v]))))
        for u, v, l in tree.nontree_edges
    ]


def _basis_text(graph: CoreGraph, tree: SpanningTree) -> list[str]:
    """``[render_word(w) for w in basis(graph, tree)]``, spelled from the
    text of the root paths: the inverse of path(v) is its text reversed
    with the case swapped, so each word is three string copies."""
    _check_tree_of(graph, tree)
    paths = _root_paths(tree, _render_letters, {v for e in tree.nontree_edges for v in e[:2]})
    return [
        paths[u] + _GLYPHS[l] + paths[v][::-1].swapcase() for u, v, l in tree.nontree_edges
    ]


def rewrite_in_basis(graph: CoreGraph, tree: SpanningTree, w: Word) -> Word:
    """Express a member word over the basis induced by ``tree``.

    Traces the path of ``w`` from the base and emits a signed basis
    symbol for each non-tree edge crossed, in traversal order: letter i
    of the result, a word of rank ``len(tree.nontree_edges)``, is the
    i-th basis word.  Raises :class:`NotAMemberError` when the path
    breaks or does not close.
    """
    if w.rank != graph.rank:
        raise ValueError(f"rank mismatch: {w.rank} != {graph.rank}")
    _check_tree_of(graph, tree)
    out, in_, marks = graph.out, graph.in_, tree.symbols
    vertex = 0
    symbols: list[int] = []
    for letter in w.letters:
        if letter > 0:
            target = out[letter][vertex]
            if target < 0:
                raise NotAMemberError(f"word leaves the graph at vertex {vertex}")
            symbol = marks[letter][vertex]
            if symbol:
                symbols.append(symbol)
            vertex = target
        else:
            source = in_[-letter][vertex]
            if source < 0:
                raise NotAMemberError(f"word leaves the graph at vertex {vertex}")
            symbol = marks[-letter][source]
            if symbol:
                symbols.append(-symbol)
            vertex = source
    if vertex != 0:
        raise NotAMemberError("path does not close at the base")
    # Reduced: crossing a non-tree edge and then straight back would need
    # a reduced closed walk in the tree between them, and that is empty.
    return Word._from_letters(len(tree.nontree_edges), tuple(symbols))


# The most slots V1 * V2 of the pair table of a product of two complete
# covers: 8 MB of pointers, in at most 1,024 lists, one per vertex of the
# smaller factor.  Past it, and for every other product, a dict.
_DENSE_PAIRS = 1 << 20


class _PairIds(dict):
    """Pair numbers by key, reading -1 for a pair not reached yet."""

    __slots__ = ()

    def __missing__(self, key: int) -> int:
        return -1


def pullback(g1: CoreGraph, g2: CoreGraph) -> CoreGraph:
    """Fiber product of two core graphs: the intersection subgroup.

    Explores synchronized transitions lazily from the pair of base
    vertices rather than materializing the full product; the result is
    core-trimmed and canonical.  A trivial intersection yields the
    one-vertex graph.  The product of folded graphs is folded, so it is
    only trimmed.  The letters are tried in canonical order, so pairs
    are numbered in the product's canonical BFS order as they are found.
    A product of two complete covers with V1 * V2 at most
    ``_DENSE_PAIRS`` takes the search of ``_cover_product``.  Every other
    product keys a pair (a, b) by the int (a << s) | b, with s the bit
    length of V2, and numbers the keys it reaches in a dict, so a large,
    sparse pair space costs only what is reached.  The first graph's
    arrays are shifted once, before the search, and its empty slots
    become -1 << s; the second graph's -1 ORs to -1.  So a move is one
    OR, and a negative key means no edge.  Pairs wait to be explored as
    their int keys, so the search allocates no object per pair that the
    cyclic garbage collector would track.  That search hands its product
    to ``_core``, which trims it if it has hair and otherwise takes its
    arrays as they are.  A product of complete covers is a complete
    cover, so it never has hair; any other product has an empty slot,
    since the intersection has infinite index, and may.
    """
    if g1.rank != g2.rank:
        raise ValueError(f"rank mismatch: {g1.rank} != {g2.rank}")
    cover = subgroup_index(g1) is not None and subgroup_index(g2) is not None
    if cover and g1.vertex_count * g2.vertex_count <= _DENSE_PAIRS:
        if g1.vertex_count <= g2.vertex_count:
            return _cover_product(g1, g2)
        return _cover_product(g2, g1)
    rank, shift = g1.rank, g2.vertex_count.bit_length()
    mask = (1 << shift) - 1
    ids = _PairIds()
    # rows[k][i] is the endpoint of the k-th letter from pair i: pairs
    # are explored in the order they are numbered, one entry each.
    rows: list[list[int]] = [[] for _ in range(2 * rank)]
    # Read through this list, a vertex a becomes a << shift, and an empty
    # slot (-1, the last index) -1 << shift, which ORs to a negative key.
    scaled = [*range(0, g1.vertex_count << shift, 1 << shift), -1 << shift]
    firsts = [list(map(scaled.__getitem__, a)) for a in g1.out[1:] + g1.in_[1:]]
    moves = [(a, b, row.append) for a, b, row in zip(firsts, g2.out[1:] + g2.in_[1:], rows)]
    # The base pair, key 0, is pair 0.
    ids[0], keys, count = 0, [0], 1
    for key in keys:
        p, q = key >> shift, key & mask
        for first, second, append in moves:
            # Negative exactly when either slot is empty (-1 in the second).
            pair = first[p] | second[q]
            if pair < 0:
                append(-1)
                continue
            there = ids[pair]
            if there < 0:
                there = ids[pair] = count
                keys.append(pair)
                count += 1
            append(there)
    # The trim and renumbering peak higher; they no longer need the keys.
    del ids, keys
    return _core(rank, [None, *rows[:rank]], [None, *rows[rank:]], range(count))


def _cover_product(small: CoreGraph, large: CoreGraph) -> CoreGraph:
    """The product of two complete covers, ``small`` with at most as many
    vertices as ``large``, numbered canonically.

    The pair (a, b) is numbered at ``ids[a][b]``, -1 until it is reached:
    one row of V_large slots per vertex of the smaller factor, so the
    numbering does not depend on the order of the factors.  For each
    letter l a selector list holds, at a, the row of l's endpoint from
    a, so a move from (p, q) reads ``select[p][second[q]]``.  Pairs wait
    in two coordinate lists.  The product's row entries are stored in
    place at the explored pair's number, in rows sized lcm(V1, V2) and
    grown by as much: the orbit of the base pair maps onto each factor
    with fibres of one size, so its size is a multiple of lcm(V1, V2),
    and no slot is left empty at the end.
    """
    rank = small.rank
    ids = [[-1] * large.vertex_count for _ in range(small.vertex_count)]
    ids[0][0] = 0
    step = lcm(small.vertex_count, large.vertex_count)
    rows = [[0] * step for _ in range(2 * rank)]
    moves = [
        (first, list(map(ids.__getitem__, first)), second, row)
        for first, second, row in zip(
            small.out[1:] + small.in_[1:], large.out[1:] + large.in_[1:], rows
        )
    ]
    firsts, seconds, count, done = [0], [0], 1, 0
    while True:
        # Pair i is reached before it is explored, and the orbit ends on a
        # multiple of step, so every pair of this block is or will be queued.
        for i in range(done, done + step):
            p, q = firsts[i], seconds[i]
            for first, select, second, row in moves:
                b = second[q]
                there = select[p][b]
                if there < 0:
                    there = select[p][b] = count
                    firsts.append(first[p])
                    seconds.append(b)
                    count += 1
                row[i] = there
        done += step
        if done == count:
            return CoreGraph._from_arrays(
                rank, count, [None, *rows[:rank]], [None, *rows[rank:]], rank * count
            )
        for row in rows:
            row.extend([0] * step)


def schreier_graph(rank: int, perms: Sequence[Permutation], base: int) -> CoreGraph:
    """Coset graph of a transitive permutation action.

    ``perms[i]`` is the action of generator i+1 on the points; the
    resulting graph is a complete covering with the given base point,
    renumbered canonically.  Raises when the action is not transitive.
    A complete covering is folded and every vertex has degree 2 * rank,
    so it is only renumbered, never trimmed.
    """
    if len(perms) != rank:
        raise ValueError(f"expected {rank} permutations, got {len(perms)}")
    points = perms[0].degree() if perms else 1
    for perm in perms:
        if perm.degree() != points:
            raise ValueError("permutations act on different point counts")
    if not 0 <= base < points:
        raise ValueError("base point out of range")
    _check_rank(rank)
    out = [None] + [list(perm.images) for perm in perms]
    in_ = _empty_arrays(rank, points)
    for label, perm in enumerate(perms, start=1):
        inverse = in_[label]
        for p, image in enumerate(perm.images):
            inverse[image] = p
    order = _order(out, in_, base, _canonical_letters(rank))
    if len(order) != points:
        raise ValueError("action is not transitive: coset graph is not connected")
    return _renumbered(rank, out, in_, order)


def coset_permutation(graph: CoreGraph, w: Word) -> Permutation:
    """Permutation induced by ``w`` on the vertices of a finite cover.

    Vertex v maps to the endpoint of the lift of ``w`` starting at v.
    Requires finite index (a complete covering).
    """
    if w.rank != graph.rank:
        raise ValueError(f"rank mismatch: {w.rank} != {graph.rank}")
    if subgroup_index(graph) is None:
        raise InfiniteIndexError("coset permutations need a finite-index subgroup")
    images = list(range(graph.vertex_count))
    for letter in w.letters:
        array = graph.out[letter] if letter > 0 else graph.in_[-letter]
        images = [array[v] for v in images]
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


def _read_graph_json(data: dict) -> tuple[int, int, list[Edge], int]:
    """The (rank, vertices, edges, base) fields of the JSON form.

    Each field must be an integer: it is read by ``operator.index``, so
    a JSON float or string is malformed, and ``true``/``false`` read as
    1/0.
    """
    try:
        rank = index(data["rank"])
        vertices = index(data["vertices"])
        base = index(data.get("base", 0))
        edges = [(index(e["from"]), index(e["to"]), index(e["label"])) for e in data["edges"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc
    return rank, vertices, edges, base


def graph_from_json(data: dict) -> CoreGraph:
    """Parse the JSON form back into a validated core graph: the fields
    as ``_read_graph_json`` reads them, base 0, and the edges as the
    checked constructor ``CoreGraph(rank, vertices, edges)`` takes them."""
    rank, vertices, edges, base = _read_graph_json(data)
    if base != 0:
        raise ValueError("graph JSON must use base vertex 0")
    return CoreGraph(rank, vertices, edges)
