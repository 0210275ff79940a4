"""The explicit graph and word families behind the counterexamples.

For m >= 2, ``gamma_graph(m)`` is the degree-m cover of the rank-2 rose
with vertices v_0..v_{m-1}, an a-edge v_i -> v_{m-i mod m} and a b-edge
v_i -> v_{i+1 mod m}.  Based at v_0 it presents the index-m subgroup
pulled back from the reflection subgroup of the dihedral group D_m
under x -> t, y -> s; the b-path v_0..v_{m-1} is its preferred spanning
tree, giving the basis x, t_1, .., t_{m-1}, y^m with t_i = y^i x
y^-(m-i).  Since y^m is a basis word of m letters, m is at most 10**6;
``gamma_graph`` and ``_canonical_gamma``, which the other graph
families build on, check that bound before they allocate anything;
``lm_graph`` checks it first itself, so that its error names the m it
was given.

The families write their tables in closed form and hand them to
``CoreGraph._from_arrays``, which checks nothing; no family builds an
edge list, goes through the checked constructor or renumbers.
``gamma_graph`` keeps the numbering v_i = i.  ``hm_graph`` and
``lm_graph`` return canonical numbering, which for gamma(m) is known in
closed form: the canonical search meets v_0, v_1, v_{m-1}, v_2,
v_{m-2}, .., so v_i sits at 2i - 1 and v_{m-i} at 2i, and for even m the
middle vertex v_{m/2}, its own a-image, comes last, at m - 1.
``_canonical_gamma`` writes that table directly.  The tree of
``hm_graph`` is every b-edge except the one entering the base, which is
the b-path v_0 -> .. -> v_{m-1} in any numbering, so its basis and
everything read off it do not depend on the numbering.

``lm_graph(m)`` is the rank-m subgroup behind the counterexample.  For
even m it is ``gamma_graph(m - 1)``.  For odd m it is generated by x,
t_1, .., t_{m-1}, and its graph has a closed form: ``gamma_graph(m)``
with the two slots of the b-edge v_{m-1} -> v_0 emptied, the one
non-tree edge whose basis word is y^m.  A subgraph of a folded graph is
folded, every vertex keeps degree >= 2, and the b-path still spans it.
Emptying that edge keeps the canonical order, since the search then
reaches v_{m-1}, at position 2, from v_1 by a.

``wk_word(k)`` is x[x,y]^k, a visible word whose square always lies in
the subgroup above while the word itself lies in it only when m | 2k.
``wk_square_rewrite(m)`` (m odd) is the closed form of that square over
the preferred basis, a ``Word`` of rank m + 1 (the basis's size), used
as an oracle against path rewriting.
"""

from __future__ import annotations

from itertools import compress, repeat

from .stallings import CoreGraph, SpanningTree
from .words import _MAX_WORD_LETTERS, Word, commutator


def _check_gamma_m(m: int) -> None:
    if m < 2:
        raise ValueError(f"gamma graph needs m >= 2, got {m}")
    if m > _MAX_WORD_LETTERS:
        raise ValueError(f"gamma graph needs m <= {_MAX_WORD_LETTERS}, got {m}")


def gamma_graph(m: int) -> CoreGraph:
    """The degree-m cover of the rank-2 rose described above, numbered
    v_i = i; its table is written in closed form."""
    _check_gamma_m(m)
    # a is the involution v_i <-> v_{m-i mod m}; b is v_i -> v_{i+1 mod m}.
    a = [0, *range(m - 1, 0, -1)]
    table = [None, a, [*range(1, m), 0], [m - 1, *range(m - 1)], a.copy()]
    return CoreGraph._from_arrays(2, m, table, 2 * m)


def _canonical_gamma(m: int) -> list:
    """The table of ``gamma_graph(m)`` renumbered canonically, written in
    closed form (see the module docstring)."""
    _check_gamma_m(m)
    # v_1, v_2, .. sit at the odd positions, v_{m-1}, v_{m-2}, .. at the even ones.
    up, down = range(1, m, 2), range(2, m, 2)
    a = [0] * m
    # For even m the last odd position is v_{m/2}, which a fixes.
    a[1::2] = down if len(down) == len(up) else [*down, up[-1]]
    a[2::2] = up[: len(down)]
    # b climbs 0 -> 1 -> 3 -> .. -> up[-1], crosses to the last even
    # position (m - 1 or m - 2; 0 for m = 2) and comes down .. -> 2 -> 0.
    b_out, b_in = [0] * m, [0] * m
    b_out[0::2] = [1, *range(0, m - 2, 2)]
    b_out[1::2] = [*up[1:], m - 2 + m % 2]
    b_in[0::2] = [*down, up[-1]]
    b_in[1::2] = [0, *up[:-1]]
    return [None, a, b_out, b_in, a.copy()]


def hm_graph(m: int) -> tuple[CoreGraph, SpanningTree]:
    """The index-m dihedral-preimage subgroup with its preferred tree,
    in canonical numbering.

    The tree is every b-edge except the one entering the base: the
    b-path v_0 -> .. -> v_{m-1}, whatever the numbering; its induced
    basis is x, t_1, .., t_{m-1}, y^m in that order.
    """
    table = _canonical_gamma(m)
    graph = CoreGraph._from_arrays(2, m, table, 2 * m)
    # The b-edges, less the one entering the base, whose terminus 0 is falsy.
    tree = compress(zip(range(m), table[2], repeat(2)), table[2])
    return graph, SpanningTree(graph, tree)


def lm_graph(m: int) -> CoreGraph:
    """Rank-m subgroup whose intersection with a cyclic retract shows
    the retract property failing, in canonical numbering; needs 3 <= m
    <= 10**6.

    For even m this is the full index-(m-1) subgroup, ``gamma_graph(m -
    1)`` in canonical numbering.  For odd m it is the proper subgroup
    generated by x, t_1, .., t_{m-1} (dropping y^m): ``gamma_graph(m)``
    in canonical numbering with the two slots of the b-edge v_{m-1} ->
    v_0 emptied (see the module docstring).
    """
    if m < 3:
        raise ValueError(f"this family needs m >= 3, got {m}")
    # Checked here, not by _canonical_gamma(m - 1), so that it names this m.
    if m > _MAX_WORD_LETTERS:
        raise ValueError(f"this family needs m <= {_MAX_WORD_LETTERS}, got {m}")
    if m % 2 == 0:
        return CoreGraph._from_arrays(2, m - 1, _canonical_gamma(m - 1), 2 * m - 2)
    table = _canonical_gamma(m)
    # Empty both slots of the b-edge v_{m-1} -> v_0, the edge of y^m;
    # v_{m-1} sits at position 2.
    table[2][2] = table[-2][0] = -1
    return CoreGraph._from_arrays(2, m, table, 2 * m - 1)


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
