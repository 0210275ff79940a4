"""Stallings core graphs for finitely generated subgroups of free groups.

A core graph is a folded, based, connected, edge-labeled digraph whose
loops at the base vertex spell exactly the members of a subgroup.
Vertices are ``0..vertex_count-1`` with the base at 0; an edge
``(u, v, l)`` runs from u to v and carries the generator label l.

A ``CoreGraph`` of rank n is one table of 2n + 1 int arrays, one per
signed letter: ``table[l][v]`` is the vertex the letter l leads to from
v, or -1 where no edge does.  For l in 1..n, ``table[l]`` follows the
edges labeled l forward and ``table[-l]``, through Python's negative
indexing, follows them backward; ``table[0]`` is None.  One entry per
slot suffices because the graph is folded.  Every walk, search and
builder reads the table by signed letter, and the sorted ``edges``
tuple is derived from it each time it is read.

``CoreGraph(rank, vertex_count, edges)`` checks its input and is the one
way in for edges from outside.  It writes each endpoint into the table
as ``operator.index`` reads it, so its table holds plain ints, as every
builder's does.  Each precondition is written once: ``_check_edge`` is
the endpoint and label check of both ``CoreGraph`` and ``fold``, which
both run it over their edges in sorted order, so both name the first
edge that fails it in that order, in whatever order the edges come;
``fgr.words._same_rank`` is the rank check of every function that
takes a word and a graph, or two graphs.
``graph_from_json`` reads a document of plain ints in one pass over its
edge dicts straight into the table, with only the checks that keep an
index from wrapping round, and reads foldedness off the count of empty
slots; any other document takes the checked constructor.  The builders
make tables that are valid by construction and hand them to a private
constructor that checks nothing.  ``from_generators`` and ``fold`` fold
(``_Folding``); ``pullback`` computes the fiber product realizing
subgroup intersection, and ``schreier_graph`` the coset graph of a
permutation action, neither of which needs folding.  Only ``fold`` and
``pullback`` can leave hair, so only they hand their tables to
``_core``, which trims it and keeps a table with none as it is; only a
product of two complete covers of coprime indices, built by
``_cover_product``, skips it.  Every builder here returns
its graph in canonical numbering, so that equal subgroups have equal
graphs; ``canonicalize`` brings any other graph to it.  Every
breadth-first search but ``pullback``'s and the two of
``SpanningTree`` (the default tree's search, which writes the tree's
table as it goes, and the tree walk, which reads the non-tree edges
as it goes) is ``_order``.

Every spanning tree is built by the one constructor ``SpanningTree``,
which writes the tree into a table of its own for one walk and keeps
what the walk reads off it, not the table: from given edges, each
checked as it is written into the table, with no ``operator.index``
(the CLI's ``--tree`` route always hands over ints), or, with none
given, from the default search, which needs no check.  The walk gives
each non-tree edge its basis symbol, so the tree edges are the graph's
edges at forward slots whose symbol is 0; the ``tree_edges`` frozenset
is derived from those each time it is read, and only ``repr``,
``copy`` and ``pickle`` read it here.  Either way the tree is walked
once, and a tree that spans proves its graph connected: the CLI reads a
complete cover it builds a tree on without a connectivity search
(``_graph_from_plain_json`` with ``spanned``) and runs ``_check_core``
only if the tree fails, before the tree's error.  The functions that
take a graph and a tree only check that the tree was built for that
graph.
``rewrite_in_basis`` returns a ``Word`` in the free group on the basis,
whose rank is the number of non-tree edges, beyond 26 too, and 0 for
the trivial subgroup; ``fgr.words.substitute`` of the basis words is the
way back.  The builders check their rank against 1..26 with
``fgr.words._check_rank``, as the parser does.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import compress, repeat
from math import gcd
from operator import eq, index, itemgetter, neg
from typing import Callable, Iterable, Sequence

from .words import _GLYPHS, MAX_RANK, Word, _check_rank, _render_letters, _same_rank, reduce_word

# An edge is (origin, terminus, label) with label in 1..rank.
Edge = tuple[int, int, int]


class NotAMemberError(ValueError):
    """The word does not belong to the subgroup."""


class InfiniteIndexError(ValueError):
    """The graph is not a finite covering of the rose."""


class CoreGraph:
    """A core graph, held as one table of int arrays by signed letter.

    ``table[l][v]`` is the end of the letter l read from v, or -1 where
    there is none: ``table[l]`` follows the edges labeled l forward and
    ``table[-l]`` backward, for l in 1..rank (``table[0]`` is None).
    The table and the edge count are the whole graph: ``edges`` is a
    sorted view derived from it each time it is read, and equality and
    hashing read the table.

    ``CoreGraph(rank, vertex_count, edges)`` checks its input and raises
    ``ValueError`` unless the edges form a folded core graph based at 0.
    It sorts the edges and fills the table in that order, checking as it
    goes, so an error names the first bad edge in sorted order, as
    ``fold`` names it, and edges that do not sort together raise the
    ``TypeError`` of ``sorted``; each endpoint is written as
    ``operator.index`` reads it, so a bool is held as the int it stands
    for.
    The builders of this module make tables that are valid by
    construction and hand them to ``_from_arrays``, which checks nothing.
    """

    __slots__ = ("rank", "vertex_count", "table", "_edge_count")

    # The base vertex is 0 by convention; renumbering preserves this.
    base = 0

    def __init__(self, rank: int, vertex_count: int, edges: Iterable[Edge]) -> None:
        edges = sorted(edges)
        table = _filled_arrays(rank, vertex_count, edges)
        _check_core(rank, table)
        self.rank, self.vertex_count, self.table = rank, vertex_count, table
        self._edge_count = len(edges)

    @classmethod
    def _from_arrays(cls, rank: int, vertex_count: int, table: list, edge_count: int) -> CoreGraph:
        """A graph on a table a builder has made valid, taken as it is."""
        graph = cls.__new__(cls)
        graph.rank, graph.vertex_count, graph.table = rank, vertex_count, table
        graph._edge_count = edge_count
        return graph

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The edges (origin, terminus, label) in sorted order, derived
        from the table each time they are read."""
        return tuple(sorted(
            (u, v, l)
            for l in range(1, self.rank + 1)
            for u, v in enumerate(self.table[l])
            if v >= 0
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoreGraph):
            return NotImplemented
        return (self.rank, self.vertex_count, self.table) == (
            other.rank, other.vertex_count, other.table
        )

    # The backward half of the table is the inverse of the forward half.
    def __hash__(self) -> int:
        return hash((self.rank, self.vertex_count, *map(tuple, self.table[1 : self.rank + 1])))

    def __repr__(self) -> str:
        return f"CoreGraph(rank={self.rank}, vertex_count={self.vertex_count}, edges={self.edges})"


class SpanningTree:
    """A spanning tree of a core graph, written into a table of its own
    (as in :class:`CoreGraph`) and walked once when built; the table is
    not kept.

    ``SpanningTree(graph, tree_edges)`` is the one constructor.  A given
    tree and the tree of ``hm_graph`` pass their edges, as any iterable:
    each edge is written into the tree's table, exactly as given, as it
    is checked to be an edge of ``graph``, then the filled slots of the
    table, which count a repeated edge once, are checked to be one
    fewer than the vertices.
    ``SpanningTree(graph)``, with no edges, is the default tree of
    ``spanning_tree``: a breadth-first search of the graph from the
    base, trying the letters 1, -1, 2, -2, .., n, -n at each vertex,
    writes into the table the edge that first reaches each vertex.  That
    tree cannot fail the two checks, so it pays for neither.

    Either way the table is then walked from the base, which tells
    whether the tree spans (``ValueError`` if not), so a function given
    a graph and a tree only checks that the tree was built for that
    graph.  The walk is one breadth-first loop in canonical letter
    order, forward letters first at each vertex, which gives at once
    ``parents`` (vertex -> (parent, signed letter), the base -> None,
    in walk order), from which the tree paths are read;
    ``nontree_edges``, the graph's edges at empty forward slots of the
    tree, ordered by (index of origin in the walk, label), which index
    the induced free basis; and ``symbols``, one array per label l,
    indexed like ``graph.table[l]``: ``symbols[l][u]`` is the 1-based
    basis symbol of the non-tree edge labeled l leaving u, and 0 at
    tree edges and empty slots (index 0 is None).

    A tree is immutable.  Its edges are the graph's edges at forward
    slots whose symbol is 0, so ``tree_edges``, the frozenset of them,
    is derived from ``symbols`` each time it is read, and equality and
    hashing read the graph and ``symbols``.
    """

    __slots__ = ("graph", "parents", "nontree_edges", "symbols")

    def __init__(self, graph: CoreGraph, tree_edges: Iterable[Edge] | None = None) -> None:
        rank, count, table = graph.rank, graph.vertex_count, graph.table
        tree = _empty_arrays(rank, count)
        # The backward arrays by label: CPython indexes a list fastest by an int >= 0.
        backward = [tree[-l] for l in range(rank + 1)]
        if tree_edges is None:
            # The letters 1, -1, 2, -2, .., n, -n, each with the tree's slots both ways.
            moves = [(table[x], tree[x], tree[-x]) for l in range(1, rank + 1) for x in (l, -l)]
            seen, order = _marks(count, 0), [0]
            for u in order:
                for leaving, ahead, back in moves:
                    v = leaving[u]
                    if not seen[v]:
                        seen[v] = 1
                        order.append(v)
                        ahead[u] = v
                        back[v] = u
        else:
            for u, v, l in tree_edges:
                if not (1 <= l <= rank and 0 <= u < count and 0 <= v == table[l][u]):
                    raise ValueError("spanning tree does not belong to this graph")
                tree[l][u] = v
                backward[l][v] = u
            # The filled forward slots count the edges, a repeated edge once.
            if rank * count - sum(map(list.count, tree[1 : rank + 1], repeat(-1))) != count - 1:
                raise ValueError("spanning tree has the wrong number of edges")
        symbols = [None, *([0] * count for _ in range(rank))]
        ahead = [(table[l], tree[l], symbols[l], l) for l in range(1, rank + 1)]
        back = [(backward[l], -l) for l in range(1, rank + 1)]
        # One walk of the tree's table from the base, in canonical letter
        # order, as ``_order`` searches.  A graph edge leaving u at an
        # empty forward slot of the tree is a non-tree edge, and u's
        # forward letters come first and in label order, so the non-tree
        # edges come out in (walk index of origin, label) order.
        seen, order, steps, nontree = _marks(count, 0), [0], [None], []
        for u in order:
            for leaving, tree_leaving, marks, l in ahead:
                v = tree_leaving[u]
                if v < 0:
                    v = leaving[u]
                    if v >= 0:
                        nontree.append((u, v, l))
                        marks[u] = len(nontree)
                elif not seen[v]:
                    seen[v] = 1
                    order.append(v)
                    steps.append((u, l))
            for entering, letter in back:
                v = entering[u]
                if not seen[v]:
                    seen[v] = 1
                    order.append(v)
                    steps.append((u, letter))
        if len(order) != count:
            raise ValueError("spanning tree does not span the graph")
        fields = (graph, dict(zip(order, steps)), tuple(nontree), symbols)
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    @property
    def tree_edges(self) -> frozenset[Edge]:
        """The edges (origin, terminus, label) of the tree: the graph's
        edges whose symbol is 0, derived each time they are read."""
        marks = self.symbols
        return frozenset((u, v, l) for u, v, l in self.graph.edges if not marks[l][u])

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanningTree):
            return NotImplemented
        return (self.graph, self.symbols) == (other.graph, other.symbols)

    def __hash__(self) -> int:
        return hash((self.graph, *map(tuple, self.symbols[1:])))

    def __repr__(self) -> str:
        return f"SpanningTree(graph={self.graph!r}, tree_edges={self.tree_edges!r})"

    # ``copy`` and ``pickle`` rebuild the tree from its edges, as the slots are read-only.
    def __reduce__(self) -> tuple:
        return SpanningTree, (self.graph, self.tree_edges)


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
    the path too.  The letters are checked against the alphabet before
    the walk: a letter past the rank would read the table's other half.
    """
    if not 0 <= vertex < graph.vertex_count:
        return None
    try:
        letters = tuple(letters)
        if _alphabet(graph.rank).issuperset(letters):
            return _walk(graph.table, vertex, letters)
    except TypeError:  # not iterable, an unhashable letter, or one like 1.0
        pass
    return None


def _walk(table: list, vertex: int, letters: Iterable[int]) -> int | None:
    """``walk`` on letters known to be in the alphabet."""
    for letter in letters:
        vertex = table[letter][vertex]
        if vertex < 0:
            return None
    return vertex


def contains(graph: CoreGraph, w: Word) -> bool:
    """Membership: the path of ``w`` from the base exists and closes."""
    _same_rank(w.rank, graph.rank)
    return _walk(graph.table, 0, w.letters) == 0


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
    """The signed letters 1..n, then -1..-n."""
    return (*range(1, rank + 1), *range(-1, -rank - 1, -1))


@cache
def _alphabet(rank: int) -> frozenset[int]:
    """The signed letters of ``rank``, for one membership test per letter."""
    return frozenset(_canonical_letters(rank))


def _check_tree_of(graph: CoreGraph, tree: SpanningTree) -> None:
    """Raise unless ``tree`` was built for ``graph`` (or an equal graph)."""
    if tree.graph is not graph and tree.graph != graph:
        raise ValueError("spanning tree does not belong to this graph")


def _empty_arrays(rank: int, count: int) -> list:
    """A table (as in :class:`CoreGraph`) over ``count`` vertices with
    no edges: index 0 is None, every other a list of -1s."""
    return [None, *map(list, [[-1] * count] * (2 * rank))]


def _check_edge(rank: int, count: int, origin: int, terminus: int, label: int) -> None:
    """Raise ``ValueError`` unless the edge (origin, terminus, label) has
    both endpoints in 0..count-1 and its label in 1..rank.  The one edge
    check of ``CoreGraph`` and ``fold``, which both run it in sorted
    order: both name the first bad edge in that order."""
    if not (0 <= origin < count and 0 <= terminus < count):
        raise ValueError(f"edge endpoint out of range: {(origin, terminus, label)}")
    if not 1 <= label <= rank:
        raise ValueError(f"edge label out of range: {(origin, terminus, label)}")


def _filled_arrays(rank: int, count: int, edges: Sequence[Edge]) -> list:
    """The table (as in :class:`CoreGraph`) of ``edges`` over ``count``
    vertices, filled in the order given, which ``CoreGraph`` sorts, each
    endpoint written as ``operator.index`` reads it, so the table holds
    plain ints; raises ``ValueError`` at the first check that fails: the
    rank, the count, then each edge's endpoints and label
    (``_check_edge``) and slots."""
    _check_rank(rank)
    if count < 1:
        raise ValueError("graph needs at least the base vertex")
    # Checked before anything is sized by count, so a declared count
    # cannot ask for unbounded memory.
    if count > len(edges) + 1:
        raise ValueError("graph is not connected to the base vertex")
    table = _empty_arrays(rank, count)
    # The backward arrays by label: CPython indexes a list fastest by an int >= 0.
    backward = [table[-l] for l in range(rank + 1)]
    for origin, terminus, label in edges:
        _check_edge(rank, count, origin, terminus, label)
        leaving, entering = table[label], backward[label]
        if leaving[origin] >= 0:
            raise ValueError(f"not folded: two edges labeled {label} leave {origin}")
        if entering[terminus] >= 0:
            raise ValueError(f"not folded: two edges labeled {label} enter {terminus}")
        # A bool, or another int type, is written as the int it indexes as.
        leaving[origin] = index(terminus)
        entering[terminus] = index(origin)
    return table


def _degrees(table: list) -> list[int]:
    """The number of edges at each vertex of a table (as in
    :class:`CoreGraph`): its full slots, one bool per slot read off
    every array, summed per vertex across the arrays by ``zip`` and
    ``sum`` without a Python-level loop."""
    return list(map(sum, zip(*[map((0).__le__, array) for array in table[1:]])))


def _check_core(rank: int, table: list) -> None:
    """Raise ``ValueError`` unless the folded graph of ``table`` is a
    core graph: connected to the base 0, no other vertex of degree < 2."""
    complete = not any(-1 in array for array in table[1 : rank + 1])
    # In a complete cover each label permutes the vertices, so the
    # forward letters alone reach every vertex any letter reaches.
    letters = range(1, rank + 1) if complete else _canonical_letters(rank)
    if len(_order(table, 0, letters)) != len(table[1]):
        raise ValueError("graph is not connected to the base vertex")
    # Every vertex of a complete cover has degree 2 * rank.
    if not complete:
        for vertex in compress(range(len(table[1])), map((2).__gt__, _degrees(table))):
            if vertex:
                raise ValueError(f"vertex {vertex} dangles (degree < 2)")


def _marks(count: int, base: int) -> bytearray:
    """The seen-marks of a walk over ``count`` vertices from ``base``,
    with only the base seen.  The extra last byte is marks[-1], so an
    empty slot (-1) reads as seen."""
    marks = bytearray(count + 1)
    marks[base] = marks[-1] = 1
    return marks


def _order(table: list, base: int, letters: Iterable[int]) -> list[int]:
    """Breadth-first search from ``base`` over a table (as in
    :class:`CoreGraph`), trying the signed ``letters`` in order at each
    vertex; the vertices reached, in discovery order."""
    seen, order = _marks(len(table[1]), base), [base]
    arrays = [table[l] for l in letters]
    for vertex in order:
        for array in arrays:
            other = array[vertex]
            if not seen[other]:
                seen[other] = 1
                order.append(other)
    return order


def canonicalize(graph: CoreGraph) -> CoreGraph:
    """Renumber vertices canonically; idempotent.

    Two folded core graphs represent the same subgroup exactly when
    their canonical forms are equal.  The canonical order is the
    breadth-first order from the base trying the letters in
    ``_canonical_letters`` order.  A graph whose numbering is already
    canonical (every builder returns one) is returned as is.
    """
    order = _order(graph.table, 0, _canonical_letters(graph.rank))
    if all(map(eq, order, range(len(order)))):
        return graph
    return _renumbered(graph.rank, graph.table, order)


def _core(rank: int, table: list, order: Sequence[int]) -> CoreGraph:
    """Core graph of the base component of a folded graph that may have hair.

    ``table`` describes the folded graph as in :class:`CoreGraph` and is
    consumed; ``order`` lists the base component in canonical BFS order,
    base first.  Non-base vertices of degree <= 1 are trimmed from a
    worklist, then the rest is renumbered in that order.  The
    component's BFS order restricted to the kept vertices is the core's
    BFS order: a trimmed tree hangs from one kept vertex and is only
    entered through it, so it never discovers a kept vertex.  A graph
    with no hair whose ``order`` is the identity ``range`` over all its
    vertices, as ``pullback`` passes it, is already a canonical core
    graph and keeps its table, a complete product of covers among them;
    ``fold`` passes a list and is always renumbered.
    """
    base = order[0]
    links = [(table[l], table[-l]) for l in _canonical_letters(rank)]
    # Only entries on ``order`` are read.
    degree = _degrees(table)
    hair = [v for v in order if degree[v] <= 1 and v != base]
    if not hair and order == range(len(degree)):
        edge_count = sum(len(degree) - array.count(-1) for array in table[1 : rank + 1])
        return CoreGraph._from_arrays(rank, len(degree), table, edge_count)
    while hair:
        vertex = hair.pop()
        for array, reverse in links:
            other = array[vertex]
            if other >= 0:
                array[vertex] = reverse[other] = -1
                degree[other] -= 1
                if degree[other] == 1 and other != base:
                    hair.append(other)
    return _renumbered(rank, table, [v for v in order if degree[v] > 1 or v == base])


def _renumbered(rank: int, table: list, kept: Sequence[int]) -> CoreGraph:
    """The graph on the vertices ``kept``, with kept[i] renumbered i.

    ``table`` is as in :class:`CoreGraph`, its entries at kept vertices
    name kept vertices or -1, and ``kept`` is a core graph's vertex set
    in canonical order, base first.
    """
    # number[-1] stays -1, so mapping through number carries empty slots.
    number = [-1] * (len(table[1]) + 1)
    for i, vertex in enumerate(kept):
        number[vertex] = i
    renumber = number.__getitem__
    table = [None, *(list(map(renumber, map(array.__getitem__, kept))) for array in table[1:])]
    edge_count = sum(len(kept) - array.count(-1) for array in table[1 : rank + 1])
    return CoreGraph._from_arrays(rank, len(kept), table, edge_count)


class _Folding:
    """A graph being folded.

    Vertices are ``0..len(parent)-1``, kept in a union-find.  ``table``
    is as in :class:`CoreGraph`, filled only at class roots; its entries
    may name merged vertices until ``find`` resolves them.  Adding a
    second edge with the same letter at a vertex queues a merge of the
    two far endpoints on ``pending`` instead; ``settle`` runs the merges
    (Touikan, "A fast algorithm for Stallings' folding process", 2006),
    the smaller class handing its edges to the larger and queueing any
    clash, until none is pending.  Every array is sized by the vertices
    added.  ``resolved`` hands over the settled table and the base
    component's canonical order: ``fold`` trims them with ``_core``, and
    ``from_generators``, which cannot leave hair, only renumbers them.
    In ``from_generators`` every vertex but the base lies inside a
    reduced closed walk from the base, which enters and leaves it
    through two different slots.
    """

    def __init__(self, rank: int, vertex_count: int) -> None:
        _check_rank(rank)
        self.rank = rank
        self.table = _empty_arrays(rank, vertex_count)
        self.parent = list(range(vertex_count))
        self.size = [1] * vertex_count
        self.pending: list[tuple[int, int]] = []

    def add_vertices(self, count: int) -> int:
        """Add ``count`` isolated vertices; returns the first new id."""
        first = len(self.parent)
        self.parent.extend(range(first, first + count))
        self.size.extend([1] * count)
        for array in self.table[1:]:
            array.extend([-1] * count)
        return first

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def add_edge(self, origin: int, terminus: int, letter: int) -> None:
        """Add an edge between class roots that reads ``letter`` from
        ``origin`` to ``terminus``, queueing any clash."""
        table = self.table
        for array, x, y in ((table[letter], origin, terminus), (table[-letter], terminus, origin)):
            known = array[x]
            if known < 0:
                array[x] = y
            elif known != y:
                self.pending.append((known, y))

    def settle(self) -> None:
        """Run pending merges until none is left."""
        parent, size, pending, find = self.parent, self.size, self.pending, self.find
        arrays = self.table[1:]
        while pending:
            keep, merge = pending.pop()
            keep, merge = find(keep), find(merge)
            if keep == merge:
                continue
            if size[keep] < size[merge]:
                keep, merge = merge, keep
            parent[merge] = keep
            size[keep] += size[merge]
            for array in arrays:
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
        table, find = self.table, self.find
        # Vertex 0 may have been merged into another class by now.
        start = find(0)
        head, i = start, 0
        while i < len(letters):
            target = table[letters[i]][head]
            if target < 0:
                break
            head, i = find(target), i + 1
        tail, j = start, len(letters)
        while j > i:
            source = table[-letters[j - 1]][tail]
            if source < 0:
                break
            tail, j = find(source), j - 1
        if i == j:
            self.pending.append((head, tail))
        else:
            first = self.add_vertices(j - i - 1)
            path = [head, *range(first, first + j - i - 1), tail]
            for k, letter in enumerate(letters[i:j]):
                self.add_edge(path[k], path[k + 1], letter)
        self.settle()

    def resolved(self) -> tuple[list, list[int]]:
        """The settled table, every entry resolved to its class root, and
        the base component in canonical BFS order, base first."""
        table, find = self.table, self.find
        for array in table[1:]:
            array[:] = [x if x < 0 else find(x) for x in array]
        return table, _order(table, find(0), _canonical_letters(self.rank))


def fold(rank: int, vertex_count: int, edges: Iterable[Edge], base: int = 0) -> CoreGraph:
    """Fold an arbitrary based labeled digraph into a core graph.

    Each vertex keeps at most one edge per label and direction; an edge
    that would be a second one queues a merge of the two far endpoints,
    and the merges run on a union-find worklist (see ``_Folding``).  The
    vertices the edges touch are numbered densely first, so nothing is
    sized by ``vertex_count``.  The result is independent of edge order
    (folding is confluent) and is returned in canonical numbering with
    the base at 0.

    Every field is read by ``operator.index``.  The deduplicated edges
    are then checked in sorted order (``_check_edge``), so an error
    names the first bad edge in that order, as ``CoreGraph`` names it,
    and then the base.
    """
    edge_set = {(index(u), index(v), index(l)) for (u, v, l) in edges}
    for edge in sorted(edge_set):
        _check_edge(rank, vertex_count, *edge)
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
    """The default spanning tree, ``SpanningTree(graph)``: for each vertex
    but the base, the edge by which a breadth-first search from the base
    first reaches it, trying the letters 1, -1, 2, -2, .., n, -n in that
    order at each vertex.  A given tree is built as
    ``SpanningTree(graph, tree_edges)``."""
    return SpanningTree(graph)


def _root_paths(tree: SpanningTree, spell: Callable[[Sequence], Sequence], wanted: set) -> dict:
    """The tree path base -> v, for each vertex v in ``wanted``, as
    ``spell`` writes a sequence of signed letters: ``tuple`` keeps the
    letters, ``_render_letters`` writes their glyphs.

    The tree walk lists every vertex after its parent, so by the time a
    wanted vertex comes up, each wanted ancestor has its path.  A vertex
    whose parent has one extends it by the spelling of one letter,
    spelled once per letter of the alphabet; any other climbs to the
    nearest ancestor that has one and extends that path.  Only wanted
    paths are kept, so memory, and time beyond one step per vertex, are
    proportional to their total length.
    """
    parents = tree.parents
    paths = {0: spell(())}
    units = {letter: spell((letter,)) for letter in _canonical_letters(tree.graph.rank)}
    for vertex, step in parents.items():
        if vertex in wanted and step:
            up, letter = step
            if up in paths:
                paths[vertex] = paths[up] + units[letter]
                continue
            climb = [letter]
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


# The glyph of each letter to the glyph of its inverse.
_INVERSE_GLYPHS = str.maketrans("".join(_GLYPHS), "".join(_GLYPHS[-l] for l in range(len(_GLYPHS))))


def _basis_text(graph: CoreGraph, tree: SpanningTree) -> list[str]:
    """``[render_word(w) for w in basis(graph, tree)]``, spelled from the
    text of the root paths: the inverse of path(v) is its text reversed,
    each glyph translated to its inverse's, so each word is three string
    copies."""
    _check_tree_of(graph, tree)
    edges, inverse = tree.nontree_edges, _INVERSE_GLYPHS
    paths = _root_paths(tree, _render_letters, {v for e in edges for v in e[:2]})
    return [paths[u] + _GLYPHS[l] + paths[v][::-1].translate(inverse) for u, v, l in edges]


def rewrite_in_basis(graph: CoreGraph, tree: SpanningTree, w: Word) -> Word:
    """Express a member word over the basis induced by ``tree``.

    Traces the path of ``w`` from the base and emits a signed basis
    symbol for each non-tree edge crossed, in traversal order: letter i
    of the result, a word of rank ``len(tree.nontree_edges)``, is the
    i-th basis word.  Raises :class:`NotAMemberError` when the path
    breaks or does not close.
    """
    _same_rank(w.rank, graph.rank)
    _check_tree_of(graph, tree)
    table, marks = graph.table, tree.symbols
    # The backward arrays by label: CPython indexes a list fastest by an int >= 0.
    backward = [table[-l] for l in range(graph.rank + 1)]
    vertex = 0
    symbols: list[int] = []
    for letter in w.letters:
        if letter > 0:
            target = table[letter][vertex]
            if target < 0:
                raise NotAMemberError(f"word leaves the graph at vertex {vertex}")
            symbol = marks[letter][vertex]
            if symbol:
                symbols.append(symbol)
            vertex = target
        else:
            source = backward[-letter][vertex]
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


def pullback(g1: CoreGraph, g2: CoreGraph) -> CoreGraph:
    """Fiber product of two core graphs: the intersection subgroup.

    Explores synchronized transitions lazily from the pair of base
    vertices rather than materializing the full product; the result is
    core-trimmed and canonical.  A trivial intersection yields the
    one-vertex graph.  The product of folded graphs is folded, so it is
    only trimmed.  The letters are tried in ``_canonical_letters``
    order, so pairs are numbered in the product's canonical BFS order
    as they are found, whichever factor comes first.

    The pair (a, b) is numbered at ``ids[a][b]``, with one row per
    vertex of the factor with fewer vertices.  For each letter l a
    selector list holds, at a, the row of l's endpoint from a, so a
    move from (p, q) reads row ``select[p]`` at ``second[q]``; pairs
    wait in two coordinate lists.  Two complete covers whose indices
    are coprime take ``_cover_product``, whose rows are lists.  Every
    other product has dict rows, so a large, sparse pair space costs
    only what is reached; an empty slot of the smaller factor selects
    None (its ``ids[-1]``), and one of the larger is -1.  Each of these
    products is handed to ``_core``, which trims any hair and keeps a
    table with none, such as a complete product of covers whose indices
    share a factor, as it is.
    """
    _same_rank(g1.rank, g2.rank)
    small, large = (g1, g2) if g1.vertex_count <= g2.vertex_count else (g2, g1)
    cover = subgroup_index(g1) is not None and subgroup_index(g2) is not None
    if cover and gcd(small.vertex_count, large.vertex_count) == 1:
        return _cover_product(small, large)
    rank = small.rank
    ids = [{} for _ in range(small.vertex_count)]
    ids.append(None)
    ids[0][0] = 0
    table = _empty_arrays(rank, 0)
    moves = [
        (small.table[l], list(map(ids.__getitem__, small.table[l])), large.table[l], table[l].append)
        for l in _canonical_letters(rank)
    ]
    firsts, seconds, count = [0], [0], 1
    for p, q in zip(firsts, seconds):
        for first, select, second, append in moves:
            row, b = select[p], second[q]
            if row is None or b < 0:
                append(-1)
                continue
            there = row.setdefault(b, count)
            if there == count:
                firsts.append(first[p])
                seconds.append(b)
                count += 1
            append(there)
    # The trim and renumbering peak higher; they no longer need the rows.
    del ids, moves, firsts, seconds
    return _core(rank, table, range(count))


def _cover_product(small: CoreGraph, large: CoreGraph) -> CoreGraph:
    """The product of two complete covers of coprime indices V1 and V2,
    ``small`` the one with fewer vertices, numbered canonically.

    The index of H ∩ K is a multiple of lcm(V1, V2), since H ∩ K lies
    in both, and at most V1 * V2, since its cosets map one-to-one to
    pairs of cosets.  For coprime indices both are V1 * V2, so the orbit
    of the base pair is every pair: the rows of ``pullback`` are lists
    of V_large slots, -1 until reached, and the product's table is sized
    V1 * V2 up front and filled in place in one pass.
    """
    rank, size = small.rank, small.vertex_count * large.vertex_count
    ids = [[-1] * large.vertex_count for _ in range(small.vertex_count)]
    ids[0][0] = 0
    table = [None, *([0] * size for _ in range(2 * rank))]
    moves = [
        (small.table[l], list(map(ids.__getitem__, small.table[l])), large.table[l], table[l])
        for l in _canonical_letters(rank)
    ]
    firsts, seconds, count = [0], [0], 1
    for i in range(size):
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
    return CoreGraph._from_arrays(rank, size, table, rank * size)


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
    table = _empty_arrays(rank, points)
    for label, perm in enumerate(perms, start=1):
        table[label][:] = perm.images
        inverse = table[-label]
        for p, image in enumerate(perm.images):
            inverse[image] = p
    order = _order(table, base, _canonical_letters(rank))
    if len(order) != points:
        raise ValueError("action is not transitive: coset graph is not connected")
    return _renumbered(rank, table, order)


def coset_permutation(graph: CoreGraph, w: Word) -> Permutation:
    """Permutation induced by ``w`` on the vertices of a finite cover.

    Vertex v maps to the endpoint of the lift of ``w`` starting at v.
    Requires finite index (a complete covering).
    """
    _same_rank(w.rank, graph.rank)
    if subgroup_index(graph) is None:
        raise InfiniteIndexError("coset permutations need a finite-index subgroup")
    images = list(range(graph.vertex_count))
    for letter in w.letters:
        images = list(map(graph.table[letter].__getitem__, images))
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
    checked constructor ``CoreGraph(rank, vertices, edges)`` takes them.

    A document of plain ints is read in one pass over its edge dicts,
    straight into the table (``_graph_from_plain_json``); any other
    document, and any that pass does not accept, takes that checked
    route, which raises the error it names or reads ``true``/``false``
    as 1/0.
    """
    graph = _graph_from_plain_json(data)
    if graph is None:
        rank, vertices, edges, base = _read_graph_json(data)
        if base != 0:
            raise ValueError("graph JSON must use base vertex 0")
        graph = CoreGraph(rank, vertices, edges)
    return graph


def _graph_from_plain_json(data: dict, spanned: bool = False) -> CoreGraph | None:
    """The core graph of a document whose fields are ints and whose
    edges fill a folded table, or None for ``graph_from_json``'s checked
    route.  With ``spanned`` a complete cover is not searched for
    connectivity: the caller builds a spanning tree on it next, whose
    walk proves it connected, and runs ``_check_core`` if that fails.

    Each edge dict is written into the table as it is read.  The loop
    checks only what would let an index wrap round through Python's
    negative indexing: endpoints >= 0 and labels in 1..rank.  An index
    past the end, or a field that is not an int, raises and sends the
    document back.  Foldedness is read after the loop: only if no two
    edges share a slot do the E edges leave 2E slots filled.
    """
    if type(data) is not dict:
        return None
    rank, count, edges = data.get("rank"), data.get("vertices"), data.get("edges")
    base = data.get("base", 0)
    # The count is checked before anything is sized by it.
    if not (
        type(rank) is int and type(count) is int and type(base) is int and type(edges) is list
        and 1 <= rank <= MAX_RANK and base == 0 and 1 <= count <= len(edges) + 1
    ):
        return None
    table = _empty_arrays(rank, count)
    # The table read by negated letter, whose indices are all >= 0, as
    # CPython indexes a list fastest by an int >= 0.
    reverse = [table[-l] for l in range(2 * rank + 1)]
    try:
        for origin, terminus, label in map(itemgetter("from", "to", "label"), edges):
            if origin < 0 or terminus < 0 or not 1 <= label <= rank:
                return None
            table[label][origin] = terminus
            reverse[label][terminus] = origin
    except (KeyError, TypeError, IndexError):
        return None
    if sum(map(list.count, table[1:], repeat(-1))) != 2 * (rank * count - len(edges)):
        return None
    # A JSON true or false passes every check as 1 or 0, and is kept as
    # a bool where it is written.  In a folded table the slots of a
    # letter that hold 0 and 1 are at the ends of its inverse from 0 and 1.
    for letter in _canonical_letters(rank):
        ahead, back = table[letter], table[-letter]
        for source in back[:2]:
            if source >= 0 and type(ahead[source]) is not int:
                return None
    if not (spanned and len(edges) == rank * count):
        _check_core(rank, table)
    return CoreGraph._from_arrays(rank, count, table, len(edges))
