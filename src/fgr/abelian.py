"""Abelianized views of words and subgroups.

Visibility of a word means its exponent vector is primitive (coordinate
gcd 1); visible words are exactly the generators of cyclic retracts.
For a subgroup presented by a core graph with a spanning tree, members
abelianize to exponent vectors over the induced basis: the exponent
sums of the member rewritten as a word over that basis, through the
same ``exponent_sums`` that abelianizes an ambient word.  Visibility
inside a subgroup needs no tree and no rewrite: the gcd of a member's
coordinates over any such basis is the gcd of its signed edge
crossings, read off one walk (``_visible_member``).  At finite index
the transfer of a word has, at each non-tree edge, the word's exponent
sum in the edge's label: lifting one letter from every vertex of a
complete cover crosses each edge with that label once.  The chain-level
projection matrix sends these classes back to the ambient lattice and
makes the two views commute.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import add, mul
from typing import Sequence

from .stallings import (
    CoreGraph,
    InfiniteIndexError,
    NotAMemberError,
    SpanningTree,
    _check_tree_of,
    rewrite_in_basis,
    subgroup_index,
)
from .words import Word, _same_rank, exponent_sums


@dataclass(frozen=True)
class AbelianVector:
    """An integer exponent vector tagged with its basis.

    ``basis`` is "ambient" for vectors over the ambient generators and
    "subgroup" for vectors over a subgroup basis.
    """

    basis: str
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.basis not in ("ambient", "subgroup"):
            raise ValueError(f"unknown basis tag {self.basis!r}")

    def __add__(self, other: "AbelianVector") -> "AbelianVector":
        if not isinstance(other, AbelianVector):
            return NotImplemented
        if self.basis != other.basis:
            raise ValueError("cannot add vectors over different bases")
        if len(self.entries) != len(other.entries):
            raise ValueError(
                f"vector length mismatch: {len(self.entries)} != {len(other.entries)}"
            )
        return AbelianVector(self.basis, tuple(map(add, self.entries, other.entries)))

    def coordinate_gcd(self) -> int:
        """gcd of the absolute entries; 0 for the zero vector."""
        return gcd(*self.entries)

    def to_json(self) -> dict:
        return {"basis": self.basis, "entries": list(self.entries)}


def is_visible(w: Word) -> bool:
    """Whether the exponent vector of ``w`` is primitive.

    The zero vector has gcd 0, so the identity (and anything in the
    commutator subgroup) is never visible.
    """
    return gcd(*exponent_sums(w)) == 1


def abelianize_in_subgroup(graph: CoreGraph, tree: SpanningTree, w: Word) -> AbelianVector:
    """Exponent vector of a member word over the subgroup basis."""
    return AbelianVector("subgroup", exponent_sums(rewrite_in_basis(graph, tree, w)))


def is_visible_in_subgroup(graph: CoreGraph, tree: SpanningTree, w: Word) -> bool:
    """Visibility of a member inside the subgroup itself.

    The gcd of its coordinates over the free basis, which does not
    depend on the spanning tree: it is read off the member's signed edge
    crossings (``_visible_member``), and the tree is only checked.
    Raises on a rank mismatch, then on a tree of another graph, then
    ``NotAMemberError`` for a word outside the subgroup.
    """
    _same_rank(w.rank, graph.rank)
    _check_tree_of(graph, tree)
    return _visible_member(graph, w)


def _visible_member(graph: CoreGraph, w: Word) -> bool:
    """Whether the member ``w`` is visible in the subgroup of ``graph``.

    One walk of ``w`` from the base counts its signed crossings of each
    edge (u, v, l), at ``crossings[l][u]``, and the answer is whether
    their gcd is 1.  The crossing vector is the member's class in the cycle
    space of the graph, its abelianization, and its coordinates over
    the basis of a spanning tree are its crossings of the non-tree
    edges.  The cycle space is a direct summand of Z^E, the kernel of
    the boundary map onto a free group, so a class is primitive in it
    exactly when it is primitive in Z^E: the gcd over every edge is the
    gcd over the basis.  Raises ``NotAMemberError`` with the messages of
    ``rewrite_in_basis`` when the path breaks or does not close.
    """
    table = graph.table
    # The backward arrays by label: CPython indexes a list fastest by an int >= 0.
    backward = [table[-l] for l in range(graph.rank + 1)]
    crossings = [None, *([0] * graph.vertex_count for _ in range(graph.rank))]
    vertex = 0
    for letter in w.letters:
        if letter > 0:
            target = table[letter][vertex]
            if target < 0:
                raise NotAMemberError(f"word leaves the graph at vertex {vertex}")
            crossings[letter][vertex] += 1
            vertex = target
        else:
            source = backward[-letter][vertex]
            if source < 0:
                raise NotAMemberError(f"word leaves the graph at vertex {vertex}")
            crossings[-letter][source] -= 1
            vertex = source
    if vertex != 0:
        raise NotAMemberError("path does not close at the base")
    return gcd(*chain.from_iterable(crossings[1:])) == 1


def transfer(graph: CoreGraph, tree: SpanningTree, w: Word) -> AbelianVector:
    """Transfer of ``w`` into the abelianized finite-index subgroup.

    Its coordinate at the non-tree edge f is the exponent sum of ``w`` in
    label(f): lifting one letter from every vertex of a complete cover
    crosses each edge with that label exactly once.
    """
    _same_rank(w.rank, graph.rank)
    if subgroup_index(graph) is None:
        raise InfiniteIndexError("coset permutations need a finite-index subgroup")
    _check_tree_of(graph, tree)
    sums = exponent_sums(w)
    return AbelianVector("subgroup", tuple(sums[l - 1] for (_, _, l) in tree.nontree_edges))


def homology_projection(graph: CoreGraph, tree: SpanningTree) -> tuple[tuple[int, ...], ...]:
    """Matrix projecting subgroup homology onto the ambient lattice.

    Row i, column j is the coefficient, in the chain of the j-th basis
    word, of the designated lift of generator i: the unique edge labeled
    i leaving the base.  Requires finite index so that every such lift
    exists.  The basis word of the non-tree edge f = (u, v, l) crosses f
    once, and the tree edge from the base to its child t forwards when u
    lies in the subtree under t and backwards when v does.
    """
    if subgroup_index(graph) is None:
        raise InfiniteIndexError("the chain projection needs a finite-index subgroup")
    _check_tree_of(graph, tree)
    # branch[x]: the child of the base whose subtree holds x (parents come first).
    branch: dict[int, int | None] = {}
    for vertex, step in tree.parents.items():
        branch[vertex] = None if step is None else vertex if step[0] == 0 else branch[step[0]]
    rows = []
    for label in range(1, graph.rank + 1):
        lift = (0, graph.table[label][0], label)
        # The lift's target if the lift is a tree edge (its symbol is 0),
        # else -1, no vertex, as a lift off the tree is only crossed as f.
        top = -1 if tree.symbols[label][0] else graph.table[label][0]
        rows.append(
            tuple(
                (f == lift) + (branch[f[0]] == top) - (branch[f[1]] == top)
                for f in tree.nontree_edges
            )
        )
    return tuple(rows)


def apply_projection(matrix: Sequence[Sequence[int]], vector: AbelianVector) -> AbelianVector:
    """Multiply the projection matrix by a subgroup-basis vector, exactly."""
    if vector.basis != "subgroup":
        raise ValueError("projection applies to subgroup-basis vectors")
    entries = vector.entries
    if any(len(row) != len(entries) for row in matrix):
        raise ValueError("matrix width does not match the vector")
    return AbelianVector("ambient", tuple(sum(map(mul, row, entries)) for row in matrix))
