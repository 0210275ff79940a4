"""The explicit graph and word families behind the counterexamples.

For m >= 2, ``gamma_graph(m)`` is the degree-m cover of the rank-2 rose
with vertices v_0..v_{m-1}, an a-edge v_i -> v_{m-i mod m} and a b-edge
v_i -> v_{i+1 mod m}.  Based at v_0 it presents the index-m subgroup
pulled back from the reflection subgroup of the dihedral group D_m
under x -> t, y -> s; the b-path v_0..v_{m-1} is its preferred spanning
tree, giving the basis x, t_1, .., t_{m-1}, y^m with t_i = y^i x
y^-(m-i).  Since y^m is a basis word of m letters, m is at most 10**6;
the graph families all build through ``gamma_graph``, which checks that
bound before it allocates anything; ``lm_graph`` checks it first itself,
so that its error names the m it was given.

The families write their per-label arrays in closed form and hand them
to ``CoreGraph._from_arrays``, which checks nothing; no family builds an
edge list or goes through the checked constructor.  ``gamma_graph``
keeps the numbering v_i = i.  ``hm_graph`` and ``lm_graph`` return
their graphs renumbered canonically, as every other builder does; the
tree of ``hm_graph`` is every b-edge except the one entering the base,
which is the b-path v_0 -> .. -> v_{m-1} in any numbering, so its basis
and everything read off it do not depend on the numbering.

``lm_graph(m)`` is the rank-m subgroup behind the counterexample.  For
even m it is ``gamma_graph(m - 1)``.  For odd m it is generated by x,
t_1, .., t_{m-1}, and its graph has a closed form: ``gamma_graph(m)``
with the two slots of the b-edge v_{m-1} -> v_0 emptied, the one
non-tree edge whose basis word is y^m.  A subgraph of a folded graph is
folded, every vertex keeps degree >= 2, and the b-path still spans it.

``wk_word(k)`` is x[x,y]^k, a visible word whose square always lies in
the subgroup above while the word itself lies in it only when m | 2k.
``wk_square_rewrite(m)`` (m odd) is the closed form of that square over
the preferred basis, a ``Word`` of rank m + 1 (the basis's size), used
as an oracle against path rewriting.
"""

from __future__ import annotations

from .stallings import CoreGraph, SpanningTree, canonicalize
from .words import _MAX_WORD_LETTERS, Word, commutator


def gamma_graph(m: int) -> CoreGraph:
    """The degree-m cover of the rank-2 rose described above, numbered
    v_i = i; its arrays are written in closed form."""
    if m < 2:
        raise ValueError(f"gamma graph needs m >= 2, got {m}")
    if m > _MAX_WORD_LETTERS:
        raise ValueError(f"gamma graph needs m <= {_MAX_WORD_LETTERS}, got {m}")
    # a is the involution v_i <-> v_{m-i mod m}; b is v_i -> v_{i+1 mod m}.
    a = [0, *range(m - 1, 0, -1)]
    out = [None, a, [*range(1, m), 0]]
    in_ = [None, a.copy(), [m - 1, *range(m - 1)]]
    return CoreGraph._from_arrays(2, m, out, in_, 2 * m)


def hm_graph(m: int) -> tuple[CoreGraph, SpanningTree]:
    """The index-m dihedral-preimage subgroup with its preferred tree,
    in canonical numbering.

    The tree is every b-edge except the one entering the base: the
    b-path v_0 -> .. -> v_{m-1}, whatever the numbering; its induced
    basis is x, t_1, .., t_{m-1}, y^m in that order.
    """
    graph = canonicalize(gamma_graph(m))
    tree = frozenset((u, v, 2) for u, v in enumerate(graph.out[2]) if v)
    return graph, SpanningTree(graph, tree)


def lm_graph(m: int) -> CoreGraph:
    """Rank-m subgroup whose intersection with a cyclic retract shows
    the retract property failing, in canonical numbering; needs 3 <= m
    <= 10**6.

    For even m this is the full index-(m-1) subgroup, ``gamma_graph(m -
    1)`` renumbered canonically.  For odd m it is the proper subgroup
    generated by x, t_1, .., t_{m-1} (dropping y^m): ``gamma_graph(m)``
    with the two slots of the b-edge v_{m-1} -> v_0 emptied, renumbered
    canonically (see the module docstring).
    """
    if m < 3:
        raise ValueError(f"this family needs m >= 3, got {m}")
    # Checked here, not by gamma_graph(m - 1), so that it names this m.
    if m > _MAX_WORD_LETTERS:
        raise ValueError(f"this family needs m <= {_MAX_WORD_LETTERS}, got {m}")
    if m % 2 == 0:
        return canonicalize(gamma_graph(m - 1))
    gamma = gamma_graph(m)
    out, in_ = gamma.out, gamma.in_
    # Empty both slots of the b-edge v_{m-1} -> v_0, the edge of y^m.
    out[2][m - 1] = in_[2][0] = -1
    return canonicalize(CoreGraph._from_arrays(2, m, out, in_, 2 * m - 1))


def wk_word(k: int) -> Word:
    """The visible word x[x,y]^k; reduced length 4k + 1, at most 10**6."""
    if k < 1:
        raise ValueError(f"wk needs k >= 1, got {k}")
    if 4 * k + 1 > _MAX_WORD_LETTERS:
        raise ValueError(f"wk word longer than {_MAX_WORD_LETTERS} letters: k = {k}")
    a = Word(2, (1,))
    b = Word(2, (2,))
    return a * commutator(a, b) ** k


def wk_square_rewrite(m: int) -> Word:
    """Closed form of wk_word(k)^2 over the preferred basis, m = 2k+1.

    A word of rank m + 1 over the basis, whose letter 1 is x, j+1 is t_j
    and m+1 is y^m:
    x^2 t_{m-1}^-1 t_{m-2} .. t_2^-1 t_1 t_{m-1} t_{m-2}^-1 .. t_2 t_1^-1,
    2m symbols, at most 10**6.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"the closed form needs odd m >= 3, got {m}")
    if 2 * m > _MAX_WORD_LETTERS:
        raise ValueError(f"closed form longer than {_MAX_WORD_LETTERS} symbols: m = {m}")
    falling = range(m - 1, 0, -1)
    first = [(j + 1) if j % 2 == 1 else -(j + 1) for j in falling]
    second = [(j + 1) if j % 2 == 0 else -(j + 1) for j in falling]
    return Word(m + 1, (1, 1, *first, *second))
