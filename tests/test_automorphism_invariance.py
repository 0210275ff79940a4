"""Invariance under automorphisms of F_n, and maps from a basis of rank
above ``MAX_RANK``, the largest rank of the text form.

An automorphism alpha of F_n is drawn as a product of Nielsen moves
(invert x_i, swap x_i and x_j, x_i -> x_i x_j), and alpha^-1 as the
inverse moves in the reverse order; both are image tuples applied with
``substitute``.  alpha(H) is folded from the images of H's basis, and
alpha(R) is presented with section alpha . s and retraction
r . alpha^-1, so ``RetractPresentation`` re-checks the section property.
Rank, index, rk(alpha(H) n alpha(R)), ``smallest_power_in`` of every
section word, visibility inside H and the whole ``IntersectionReport``
must not change.

The cases mix random H with cyclic retracts, random H with
``random_retract`` retracts, H_m = ``lm_graph(m)`` * <x_3> with the
rank-2 retract <``wk_word((m-1)//2)``, x_3> (``undecided``), and
``lm_graph(m)`` with the cyclic retract <wk> (``no``).

H_41 has rank 42, so its basis is the source of a map beyond the 26
letters of the text form: a ``Word`` of rank 42 over it, which
``rewrite_in_basis`` returns, is mapped back by ``substitute``.
"""

from __future__ import annotations

import random
from collections import Counter

from fgr import (
    RetractPresentation,
    Word,
    basis,
    cyclic_retract,
    from_generators,
    intersection_report,
    pullback,
    random_retract,
    rewrite_in_basis,
    smallest_power_in,
    spanning_tree,
    subgroup_index,
    subgroup_rank,
    substitute,
)
from fgr.constructions import lm_graph, wk_word
from fgr.retracts import _random_reduced_word as random_reduced_word
from fgr.retracts import _random_visible_word


def generators(n):
    return [Word(n, (i,)) for i in range(1, n + 1)]


def random_automorphism(rng, n, moves):
    """Images of alpha and of alpha^-1, for alpha a product of ``moves``
    Nielsen moves of F_n, n >= 2."""
    alpha, inverse = generators(n), generators(n)
    for _ in range(moves):
        i, j = rng.sample(range(n), 2)
        move = rng.choice(("invert", "swap", "product"))
        step, undo = generators(n), generators(n)
        if move == "invert":
            step[i] = undo[i] = step[i].inverse()
        elif move == "swap":
            step[i], step[j] = step[j], step[i]
            undo = step
        else:
            step[i] = step[i] * step[j]
            undo[i] = undo[i] * undo[j].inverse()
        # alpha . step, and step^-1 . alpha^-1.
        alpha = [substitute(w, alpha, n) for w in step]
        inverse = [substitute(w, undo, n) for w in inverse]
    return alpha, inverse


def moved_subgroup(graph, alpha):
    return from_generators(graph.rank, [substitute(w, alpha, graph.rank) for w in basis(graph)])


def moved_retract(retract, alpha, inverse):
    n, k = retract.ambient_rank, retract.rank
    return RetractPresentation(
        n,
        tuple(substitute(s, alpha, n) for s in retract.section_images),
        tuple(substitute(w, retract.retraction_images, k) for w in inverse),
    )


def h_m(m):
    """H_m = lm_graph(m) * <x_3> in F_3, of rank m + 1."""
    return from_generators(3, [Word(3, w.letters) for w in basis(lm_graph(m))] + [Word(3, (3,))])


def wk_and_x3(m):
    """<wk_word((m-1)//2), x_3> in F_3: x_1 -> y_1, x_2 -> 1, x_3 -> y_2."""
    wk = Word(3, wk_word((m - 1) // 2).letters)
    return RetractPresentation(3, (wk, Word(3, (3,))), (Word(2, (1,)), Word(2), Word(2, (2,))))


def draw_case(rng):
    """(H, R) from one of the four cases, at ranks 2-4."""
    case = rng.randrange(4)
    m = rng.randint(3, 9)
    if case == 2:
        return h_m(m), wk_and_x3(m)
    if case == 3:
        return lm_graph(m), cyclic_retract(wk_word((m - 1) // 2))
    n = rng.randint(2, 4)
    gens = [random_reduced_word(rng, n, 10) for _ in range(rng.randint(1, 3))]
    subgroup = from_generators(n, gens)
    if case == 0:
        return subgroup, cyclic_retract(_random_visible_word(rng, n, 12))
    k, seed, complexity = rng.randint(1, n - 1), rng.getrandbits(63), rng.randint(0, 2)
    return subgroup, random_retract(n, k, seed, complexity)


def invariants(subgroup, retract):
    return (
        subgroup_rank(subgroup),
        subgroup_index(subgroup),
        subgroup_rank(pullback(subgroup, retract.graph)),
        [smallest_power_in(subgroup, s) for s in retract.section_images],
        intersection_report(subgroup, retract),
    )


def test_invariants_do_not_change_under_automorphisms():
    rng = random.Random(11)
    verdicts = Counter()
    for _ in range(300):
        subgroup, retract = draw_case(rng)
        n = subgroup.rank
        alpha, inverse = random_automorphism(rng, n, rng.randint(1, 6))
        assert [substitute(w, inverse, n) for w in alpha] == generators(n)
        before = invariants(subgroup, retract)
        after = invariants(moved_subgroup(subgroup, alpha), moved_retract(retract, alpha, inverse))
        assert after == before, (subgroup, retract, alpha)
        verdicts[before[-1].verdict] += 1
    assert min(verdicts[v] for v in ("yes", "no", "undecided")) >= 20, verdicts


def test_basis_of_rank_42_is_the_source_of_a_map():
    graph = h_m(41)
    tree = spanning_tree(graph)
    words = basis(graph, tree)
    assert len(words) == 42
    for i, word in enumerate(words, start=1):
        assert substitute(Word(42, (i,)), words, 3) == word
    rng = random.Random(4142)
    member = Word(3)
    for _ in range(60):
        factor = rng.choice(words)
        member = member * (factor if rng.random() < 0.5 else factor.inverse())
    symbols = rewrite_in_basis(graph, tree, member)
    assert symbols.rank == 42 and max(map(abs, symbols.letters)) > 26
    assert substitute(symbols, words, 3) == member
