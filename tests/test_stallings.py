import gc
import random
from collections import Counter
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgr.stallings
from fgr import (
    CoreGraph,
    InfiniteIndexError,
    NotAMemberError,
    Permutation,
    SpanningTree,
    Word,
    basis,
    canonicalize,
    contains,
    coset_permutation,
    fold,
    from_generators,
    graph_from_json,
    graph_to_json,
    homology_projection,
    parse_word,
    pullback,
    reduce_word,
    render_word,
    rewrite_in_basis,
    schreier_graph,
    spanning_tree,
    subgroup_index,
    subgroup_rank,
    substitute,
    transfer,
    tree_path_word,
    walk,
)
from fgr.constructions import gamma_graph, hm_graph, wk_word
from fgr.retracts import _random_reduced_word as random_reduced_word
from fgr.retracts import _random_transitive_graph
from fgr.stallings import _core, _degrees, _Folding


def words(rank, *texts):
    return [parse_word(t, rank) for t in texts]


def identity_permutation(n):
    return Permutation(tuple(range(n)))


def then(first, second):
    """Composite permutation: apply ``first``, then ``second``."""
    return Permutation(tuple(second.images[i] for i in first.images))


def cycles(perm):
    """All cycles of ``perm`` (fixed points included), ordered by least element."""
    seen = [False] * perm.degree()
    out = []
    for start in range(perm.degree()):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        point = perm(start)
        while point != start:
            cycle.append(point)
            seen[point] = True
            point = perm(point)
        out.append(tuple(cycle))
    return tuple(out)


H3_GENS = ("a", "baBB", "bbaB", "bbb")
L3_GENS = ("a", "baBB", "bbaB")


# --- from_generators -------------------------------------------------------

def test_whole_group_graph():
    g = from_generators(2, words(2, "a", "b"))
    assert g.vertex_count == 1
    assert len(g.edges) == 2
    assert subgroup_rank(g) == 2
    assert subgroup_index(g) == 1


def test_h3_graph_shape():
    g = from_generators(2, words(2, *H3_GENS))
    assert g.vertex_count == 3
    assert len(g.edges) == 6
    assert subgroup_index(g) == 3
    assert canonicalize(g) == canonicalize(gamma_graph(3))


def test_l3_graph_shape():
    # hand-fold: the m=3 cover with the nontree b-edge removed
    g = from_generators(2, words(2, *L3_GENS))
    assert g.vertex_count == 3
    assert len(g.edges) == 5
    assert g.edges == ((0, 0, 1), (0, 1, 2), (1, 2, 1), (1, 2, 2), (2, 1, 1))
    assert subgroup_index(g) is None
    assert subgroup_rank(g) == 3


def test_trivial_generators_give_trivial_graph():
    assert from_generators(2, []) == CoreGraph(2, 1, ())
    assert from_generators(2, [Word(2)]) == CoreGraph(2, 1, ())


def test_generator_rank_mismatch():
    with pytest.raises(ValueError):
        from_generators(2, [parse_word("c", 3)])


def test_generators_are_members():
    rng = random.Random(7)
    for _ in range(25):
        rank = rng.choice((2, 3))
        gens = [random_reduced_word(rng, rank, 12) for _ in range(rng.randint(1, 4))]
        g = from_generators(rank, gens)
        for w in gens:
            assert contains(g, w)
        for _ in range(20):
            product = Word(rank)
            for _ in range(rng.randint(1, 5)):
                factor = rng.choice(gens)
                product = product * (factor if rng.random() < 0.5 else factor.inverse())
            assert contains(g, product)
        assert subgroup_rank(g) <= len(gens)


# --- fold ------------------------------------------------------------------

def test_fold_is_idempotent_on_folded_graphs():
    g = from_generators(2, words(2, *H3_GENS))
    assert fold(g.rank, g.vertex_count, g.edges) == canonicalize(g)


def test_fold_merges_double_loop():
    # wedge of "aa" and "a": the subgroup is generated by a alone
    folded = fold(1, 2, [(0, 1, 1), (1, 0, 1), (0, 0, 1)])
    assert folded == CoreGraph(1, 1, ((0, 0, 1),))


def test_fold_one_step():
    # two a-edges leaving the base with distinct termini get merged
    folded = fold(2, 3, [(0, 1, 1), (0, 2, 1), (1, 2, 2)])
    assert folded.vertex_count == 2
    assert folded == fold(2, 3, [(0, 2, 1), (0, 1, 1), (1, 2, 2)])


def test_fold_checks_labels_and_base():
    with pytest.raises(ValueError, match=r"edge label out of range: \(0, 1, 3\)"):
        fold(2, 2, [(0, 1, 3)])
    with pytest.raises(ValueError, match="base vertex out of range"):
        fold(2, 2, [(0, 1, 1)], base=2)


def test_fold_confluence_under_shuffling():
    rng = random.Random(11)
    gens = words(2, "abab", "bbaB", "aabb", "abA")
    reference = from_generators(2, gens)
    edges = []
    next_vertex = 1
    for g in gens:
        current = 0
        for i, letter in enumerate(g.letters):
            target = 0 if i == len(g.letters) - 1 else next_vertex
            if target:
                next_vertex += 1
            edges.append(
                (current, target, letter) if letter > 0 else (target, current, -letter)
            )
            current = target
    for _ in range(10):
        shuffled = edges[:]
        rng.shuffle(shuffled)
        assert fold(2, next_vertex, shuffled) == reference


def all_reduced_words(rank, max_len):
    found = [()]
    for w in found:
        if len(w) < max_len:
            found += [(*w, l) for l in range(-rank, rank + 1) if l and (not w or l != -w[-1])]
    return [Word(rank, w) for w in found]


@pytest.mark.parametrize("rank, max_len", [(2, 3), (3, 2)])
def test_from_generators_leaves_no_hair(rank, max_len):
    # A fold of reduced loops read from the base: every other vertex lies
    # inside one of them, so none dangles and _core's trim changes nothing.
    ws = all_reduced_words(rank, max_len)
    for u in ws:
        for v in ws:
            folding = _Folding(rank, 1)
            for w in (u, v):
                if w.letters:
                    folding.read_loop(w.letters)
            table, order = folding.resolved()
            degree = _degrees(table)
            assert all(degree[vertex] >= 2 for vertex in order[1:])
            trimmed = _core(rank, table, order)
            g = from_generators(rank, [u, v])
            assert (g, g._edge_count) == (trimmed, trimmed._edge_count)


def test_every_product_but_a_coprime_cover_product_reaches_core(monkeypatch):
    # Only two complete covers of coprime indices skip _core: their
    # product is built by _cover_product.  A product with no empty slot is
    # a finite cover, so H ∩ K would have finite index inside a factor of
    # infinite index: only two complete covers make one, and _core hands
    # it back on the very table the search filled.
    complete = []
    trim = fgr.stallings._core

    def spy(rank, table, order):
        full = all(-1 not in array for array in table[1:])
        graph = trim(rank, table, order)
        complete.append(full)
        if full:
            assert graph.table is table
        return graph

    monkeypatch.setattr(fgr.stallings, "_core", spy)
    rng = random.Random(23)
    coprime = 0
    for _ in range(300):
        rank = rng.randint(1, 3)
        graphs = [
            _random_transitive_graph(rng, rank, 6)
            if rng.random() < 0.5
            else from_generators(rank, [random_reduced_word(rng, rank, 6) for _ in range(2)])
            for _ in range(2)
        ]
        both = all(subgroup_index(g) is not None for g in graphs)
        skips = both and gcd(*(g.vertex_count for g in graphs)) == 1
        coprime += skips
        calls = len(complete)
        pullback(*graphs)
        assert len(complete) == calls + (not skips)
        if not skips:
            # Complete exactly when both factors are covers.
            assert complete[-1] == both
    assert min(coprime, complete.count(True), complete.count(False)) >= 20, (
        coprime, Counter(complete)
    )


# --- membership ------------------------------------------------------------

def test_membership_examples():
    g = from_generators(2, words(2, *H3_GENS))
    assert contains(g, parse_word("bbb", 2))
    assert not contains(g, parse_word("a[a,b]", 2))
    assert contains(g, parse_word("(a[a,b])^2", 2))


def test_membership_rank_mismatch():
    g = from_generators(2, words(2, "a"))
    with pytest.raises(ValueError):
        contains(g, parse_word("a", 3))


# --- rank and index --------------------------------------------------------

def test_rank_examples():
    assert subgroup_rank(from_generators(2, words(2, "a", "b"))) == 2
    for m in (2, 3, 5, 8):
        assert subgroup_rank(hm_graph(m)[0]) == m + 1
    assert subgroup_rank(from_generators(2, words(2, *L3_GENS))) == 3


def test_index_examples():
    for m in (2, 3, 7):
        assert subgroup_index(hm_graph(m)[0]) == m
    assert subgroup_index(from_generators(2, words(2, *L3_GENS))) is None
    assert subgroup_index(from_generators(2, words(2, "a", "b"))) == 1


# --- spanning trees and bases ----------------------------------------------

def test_spanning_tree_of_rose():
    g = from_generators(2, words(2, "a", "b"))
    tree = spanning_tree(g)
    assert tree.tree_edges == frozenset()
    assert tree.nontree_edges == ((0, 0, 1), (0, 0, 2))


def test_spanning_tree_override_preferred_tree():
    g = gamma_graph(3)
    tree = SpanningTree(g, [(0, 1, 2), (1, 2, 2)])
    assert tree.tree_edges == frozenset({(0, 1, 2), (1, 2, 2)})
    assert tree.nontree_edges == ((0, 0, 1), (1, 2, 1), (2, 1, 1), (2, 0, 2))


def test_default_tree_on_gamma3_consists_of_b_edges():
    tree = spanning_tree(gamma_graph(3))
    assert tree.tree_edges == frozenset({(0, 1, 2), (2, 0, 2)})


def test_spanning_tree_override_validation():
    g = gamma_graph(3)
    with pytest.raises(ValueError):
        SpanningTree(g, [(0, 1, 2)])
    with pytest.raises(ValueError):
        SpanningTree(g, [(0, 1, 2), (0, 0, 1)])
    with pytest.raises(ValueError):
        SpanningTree(g, [(0, 1, 2), (9, 9, 2)])


def test_tree_that_does_not_span_is_rejected():
    g = CoreGraph(2, 2, ((0, 0, 1), (0, 1, 2), (1, 0, 2)))
    with pytest.raises(ValueError, match="does not span"):
        SpanningTree(g, frozenset({(0, 0, 1)}))


def test_spanning_tree_checks_itself_when_built():
    g = gamma_graph(3)
    for edges, message in (
        ({(0, 1, 2), (9, 9, 2)}, "does not belong to this graph"),
        ({(0, 1, 2)}, "has the wrong number of edges"),
        ({(1, 2, 1), (2, 1, 1)}, "does not span the graph"),
    ):
        with pytest.raises(ValueError, match=message):
            SpanningTree(g, frozenset(edges))
    tree = SpanningTree(g, frozenset({(0, 1, 2), (1, 2, 2)}))
    assert tree == SpanningTree(g, [(0, 1, 2), (1, 2, 2)])
    assert tree.parents == {0: None, 1: (0, 2), 2: (1, 2)}
    # symbols[l][u] is the 1-based symbol of the non-tree edge labeled l
    # leaving u, 0 at tree edges and empty slots.
    assert tree.nontree_edges == ((0, 0, 1), (1, 2, 1), (2, 1, 1), (2, 0, 2))
    assert tree.symbols == [None, [1, 2, 3], [0, 0, 4]]


def test_consumers_reject_a_tree_built_for_another_graph():
    graph, _ = hm_graph(5)
    w = wk_word(1)
    calls = (
        lambda tree: basis(graph, tree),
        lambda tree: tree_path_word(graph, tree, 0, 1),
        lambda tree: rewrite_in_basis(graph, tree, w ** 2),
        lambda tree: transfer(graph, tree, w),
        lambda tree: homology_projection(graph, tree),
    )
    # Same edges at another rank: a different graph, so its tree is foreign too.
    widened = CoreGraph(3, graph.vertex_count, graph.edges)
    for foreign in (hm_graph(7)[1], spanning_tree(widened)):
        for call in calls:
            with pytest.raises(ValueError, match="does not belong"):
                call(foreign)
    # An equal graph built separately owns the same trees.
    twin = spanning_tree(CoreGraph(graph.rank, graph.vertex_count, graph.edges))
    for call in calls:
        assert call(twin) == call(spanning_tree(graph))


def test_basis_of_h3_under_preferred_tree():
    graph, tree = hm_graph(3)
    assert [render_word(w) for w in basis(graph, tree)] == ["a", "baBB", "bbaB", "bbb"]


def test_basis_of_whole_group():
    g = from_generators(2, words(2, "a", "b"))
    assert [render_word(w) for w in basis(g)] == ["a", "b"]


def test_basis_of_h9_matches_t_pattern():
    graph, tree = hm_graph(9)
    expected = ["a"] + ["b" * i + "a" + "B" * (9 - i) for i in range(1, 9)] + ["b" * 9]
    assert [render_word(w) for w in basis(graph, tree)] == expected


def test_basis_generates_the_same_subgroup():
    rng = random.Random(13)
    for _ in range(20):
        gens = [random_reduced_word(rng, 2, 10) for _ in range(rng.randint(1, 3))]
        g = from_generators(2, gens)
        regenerated = from_generators(2, basis(g))
        assert regenerated == canonicalize(g)
        assert len(basis(g)) == subgroup_rank(g)


# --- rewriting --------------------------------------------------------------

def test_rewrite_w1_squared_in_h3():
    graph, tree = hm_graph(3)
    # A word over the basis x, t_1, t_2, y^3, so of rank 4.
    assert rewrite_in_basis(graph, tree, wk_word(1) ** 2) == Word(4, (1, 1, -3, 2, 3, -2))


def test_rewrite_identity_is_empty():
    graph, tree = hm_graph(4)
    assert rewrite_in_basis(graph, tree, Word(2)) == Word(5)
    # The trivial subgroup has the empty basis: its words have rank 0.
    trivial = from_generators(2, [])
    assert rewrite_in_basis(trivial, spanning_tree(trivial), Word(2)) == Word(0)


def test_rewrite_rejects_non_members():
    graph, tree = hm_graph(3)
    with pytest.raises(NotAMemberError):
        rewrite_in_basis(graph, tree, parse_word("b", 2))
    cyclic = from_generators(2, words(2, "a"))
    tree = spanning_tree(cyclic)
    # A forward letter and an inverse letter with no edge at the base.
    for text in ("ab", "aB"):
        with pytest.raises(NotAMemberError, match="word leaves the graph at vertex 0"):
            rewrite_in_basis(cyclic, tree, parse_word(text, 2))
    with pytest.raises(ValueError, match="rank mismatch: 3 != 2"):
        rewrite_in_basis(cyclic, tree, Word(3))


def test_rewrite_round_trip():
    rng = random.Random(17)
    for _ in range(25):
        gens = [random_reduced_word(rng, 2, 12) for _ in range(rng.randint(1, 3))]
        graph = from_generators(2, gens)
        tree = spanning_tree(graph)
        base_words = basis(graph, tree)
        # random member: a product of basis words
        member = Word(2)
        for _ in range(rng.randint(0, 5)):
            factor = rng.choice(base_words)
            member = member * (factor if rng.random() < 0.5 else factor.inverse())
        symbols = rewrite_in_basis(graph, tree, member)
        assert substitute(symbols, base_words, 2) == member


def test_tree_path_word_names_a_vertex_outside_the_graph():
    graph, tree = hm_graph(5)
    assert tree_path_word(graph, tree, 0, 4) == tree_path_word(graph, tree, 4, 0).inverse()
    for source, target, outside in ((0, 99, "99"), (-1, 0, "-1"), (0, 5, "5"), (1.5, 0, "1.5")):
        with pytest.raises(ValueError, match=f"^vertex {outside} is not in the graph$"):
            tree_path_word(graph, tree, source, target)


# --- pullback ----------------------------------------------------------------

def test_pullback_diagonal():
    for texts in (H3_GENS, L3_GENS, ("ab", "ba")):
        g = from_generators(2, words(2, *texts))
        assert pullback(g, g) == canonicalize(g)


def test_pullback_example_intersection():
    K = from_generators(2, words(2, *L3_GENS))
    R = from_generators(2, [wk_word(1)])
    inter = pullback(K, R)
    assert subgroup_rank(inter) == 1
    generator = basis(inter)[0]
    square = wk_word(1) ** 2
    assert generator in (square, square.inverse())


def test_pullback_commutative_and_correct():
    rng = random.Random(19)
    for _ in range(25):
        shared = random_reduced_word(rng, 2, 8)
        a = from_generators(2, [shared, random_reduced_word(rng, 2, 8)])
        b = from_generators(2, [shared, random_reduced_word(rng, 2, 8)])
        inter = pullback(a, b)
        assert inter == pullback(b, a)
        assert contains(inter, shared)
        for _ in range(20):
            w = random_reduced_word(rng, 2, 12)
            assert contains(inter, w) == (contains(a, w) and contains(b, w))


def words_of_rank(rank, max_size=8):
    """Reduced words of up to ``max_size`` letters over the given rank."""
    letters = [l for l in range(-rank, rank + 1) if l]
    return st.lists(st.sampled_from(letters), max_size=max_size).map(partial(reduce_word, rank))


def test_pullback_membership_is_membership_in_both():
    # w is drawn as a product of A's basis words, of B's, or at random,
    # so that each of the four (w in A, w in B) cells is drawn.
    cells = Counter()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        rank = data.draw(st.integers(1, 3))
        gens = data.draw(st.lists(words_of_rank(rank), min_size=1, max_size=3))
        # B shares some of A's generators, so that A ∩ B is often nontrivial.
        shared = [g for g in gens if data.draw(st.booleans())]
        a = from_generators(rank, gens)
        b = from_generators(rank, shared + data.draw(st.lists(words_of_rank(rank), max_size=3)))
        source = data.draw(st.sampled_from(("A", "B", "random")))
        if source == "random":
            w = data.draw(words_of_rank(rank, 12))
        else:
            factors = basis(a if source == "A" else b)
            w = Word(rank)
            for _ in range(data.draw(st.integers(1, 4)) if factors else 0):
                factor = data.draw(st.sampled_from(factors))
                w = w * (factor if data.draw(st.booleans()) else factor.inverse())
        cell = (contains(a, w), contains(b, w))
        cells[cell] += 1
        assert contains(pullback(a, b), w) == (cell == (True, True))

    check()
    assert len(cells) == 4 and min(cells.values()) >= 10, cells


def test_canonical_graph_is_unchanged_by_nielsen_moves():
    moves = Counter()

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.data())
    def check(data):
        rank = data.draw(st.integers(1, 3))
        gens = data.draw(st.lists(words_of_rank(rank), min_size=1, max_size=4))
        moved = list(gens)
        for _ in range(data.draw(st.integers(1, 6))):
            i = data.draw(st.integers(0, len(moved) - 1))
            j = data.draw(st.integers(0, len(moved) - 1))
            move = data.draw(st.sampled_from(("product", "inverse", "swap")))
            if move == "inverse":
                moved[i] = moved[i].inverse()
            elif i == j:
                continue
            elif move == "product":
                moved[i] = moved[i] * moved[j]
            else:
                moved[i], moved[j] = moved[j], moved[i]
            moves[move] += 1
        assert from_generators(rank, moved) == from_generators(rank, gens)

    check()
    assert min(moves[move] for move in ("product", "inverse", "swap")) >= 50, moves


def test_pullback_trivial_intersection():
    a = from_generators(2, words(2, "a"))
    b = from_generators(2, words(2, "b"))
    assert pullback(a, b) == CoreGraph(2, 1, ())


def test_pullback_rank_mismatch():
    with pytest.raises(ValueError):
        pullback(from_generators(2, words(2, "a")), from_generators(3, words(3, "a")))


# --- Schreier graphs and coset actions ---------------------------------------

def test_schreier_graph_of_dihedral_cosets():
    # cosets of the reflection subgroup in D_3, enumerated by hand:
    # point j is the coset of s^j; t sends j to -j mod 3, s sends j to j+1
    t_action = Permutation((0, 2, 1))
    s_action = Permutation((1, 2, 0))
    g = schreier_graph(2, [t_action, s_action], 0)
    assert canonicalize(g) == canonicalize(gamma_graph(3))


def test_schreier_graph_identity_action():
    g = schreier_graph(2, [identity_permutation(1), identity_permutation(1)], 0)
    assert g == from_generators(2, words(2, "a", "b"))


def test_schreier_graph_regular_klein_four():
    # regular action of Z/2 x Z/2 on itself; any regular action gives a
    # normal subgroup, here of index 4 and rank 4*(2-1)+1 = 5
    perms = [
        Permutation((1, 0, 3, 2)),
        Permutation((2, 3, 0, 1)),
    ]
    g = schreier_graph(2, perms, 0)
    assert subgroup_index(g) == 4
    assert subgroup_rank(g) == 5


def test_schreier_graph_rejects_intransitive_action():
    with pytest.raises(ValueError):
        schreier_graph(2, [identity_permutation(2), identity_permutation(2)], 0)


def test_schreier_graph_checks_its_arguments():
    swap, fixed = Permutation((1, 0)), identity_permutation(1)
    with pytest.raises(ValueError, match="expected 2 permutations, got 1"):
        schreier_graph(2, [swap], 0)
    with pytest.raises(ValueError, match="permutations act on different point counts"):
        schreier_graph(2, [swap, fixed], 0)
    with pytest.raises(ValueError, match="base point out of range"):
        schreier_graph(2, [swap, swap], 2)


def test_coset_permutation_examples():
    graph, _ = hm_graph(3)
    assert coset_permutation(graph, parse_word("b", 2)).images == (1, 2, 0)
    assert coset_permutation(graph, wk_word(1)).images == (1, 0, 2)
    assert coset_permutation(graph, Word(2)) == identity_permutation(3)


def test_coset_permutation_needs_finite_index():
    g = from_generators(2, words(2, *L3_GENS))
    with pytest.raises(InfiniteIndexError):
        coset_permutation(g, parse_word("a", 2))


def test_coset_permutation_is_a_homomorphism():
    rng = random.Random(23)
    graph, _ = hm_graph(5)
    for _ in range(50):
        u = random_reduced_word(rng, 2, 10)
        v = random_reduced_word(rng, 2, 10)
        assert coset_permutation(graph, u * v) == then(
            coset_permutation(graph, u), coset_permutation(graph, v)
        )
        assert contains(graph, u) == (coset_permutation(graph, u)(0) == 0)


def test_permutation_cycles():
    perm = Permutation((1, 0, 2, 4, 3))
    assert cycles(perm) == ((0, 1), (2,), (3, 4))
    with pytest.raises(ValueError):
        Permutation((0, 0, 1))


def test_permutation_images_must_be_integers():
    # Read by operator.index, as graph JSON fields are: a float or a
    # string is malformed, not a bijection that breaks the coset graph.
    for images in ((1.0, 0.0), ("1", "0"), (1, 0.0)):
        with pytest.raises(ValueError, match="permutation images must be integers"):
            Permutation(images)
    # A bool reads as 1/0, so the coset graph's JSON holds integers.
    perm = Permutation((True, False))
    assert perm.images == (1, 0) and all(type(i) is int for i in perm.images)
    edges = graph_to_json(schreier_graph(1, [perm], 0))["edges"]
    assert edges == [{"from": 0, "to": 1, "label": 1}, {"from": 1, "to": 0, "label": 1}]
    assert all(type(value) is int for edge in edges for value in edge.values())


# --- canonical forms ----------------------------------------------------------

def test_canonicalize_idempotent():
    g = from_generators(2, words(2, *H3_GENS))
    assert canonicalize(canonicalize(g)) == canonicalize(g)


def test_canonicalize_ignores_relabeling():
    rng = random.Random(29)
    g = canonicalize(from_generators(2, words(2, "abab", "bbaB", "abba")))
    for _ in range(10):
        relabel = list(range(1, g.vertex_count))
        rng.shuffle(relabel)
        mapping = {0: 0, **{old: new for new, old in enumerate(relabel, start=1)}}
        shuffled = CoreGraph(
            g.rank,
            g.vertex_count,
            tuple((mapping[u], mapping[v], l) for (u, v, l) in g.edges),
        )
        assert canonicalize(shuffled) == g


# --- JSON ---------------------------------------------------------------------

def test_graph_json_round_trip():
    g = from_generators(2, words(2, *H3_GENS))
    data = graph_to_json(g)
    assert data["base"] == 0
    assert data["vertices"] == 3
    assert graph_from_json(data) == canonicalize(g)


def test_graph_json_rejects_malformed():
    with pytest.raises(ValueError):
        graph_from_json({"rank": 2})
    with pytest.raises(ValueError):
        graph_from_json({"rank": 2, "vertices": 1, "base": 1, "edges": []})


def test_graph_json_connectivity_on_both_sets_of_walk_letters():
    # A complete cover is walked along outgoing letters only; two
    # disjoint permutation graphs in one document still fail.
    def document(vertices, edges):
        edge_dicts = [{"from": u, "to": v, "label": l} for u, v, l in edges]
        return {"rank": 2, "vertices": vertices, "base": 0, "edges": edge_dicts}

    swap = [(0, 1, 1), (1, 0, 1), (2, 3, 1), (3, 2, 1)]
    fixed = [(v, v, 2) for v in range(4)]
    with pytest.raises(ValueError, match="graph is not connected to the base vertex"):
        graph_from_json(document(4, swap + fixed))
    # An incomplete graph is walked along every letter: vertex 1 of the
    # graph of <A b a> is reached from the base only by A.
    graph = graph_from_json(document(2, [(1, 0, 1), (1, 1, 2)]))
    assert graph == from_generators(2, words(2, "Aba"))


def test_huge_declared_vertex_count_allocates_nothing():
    # A graph on 10**12 vertices needs at least 10**12 - 1 edges to be
    # connected, so both paths answer without sizing anything by it.
    with pytest.raises(ValueError, match="not connected"):
        graph_from_json({"rank": 2, "vertices": 10**12, "edges": []})
    far = 10**12 - 1
    folded = fold(2, 10**12, [(far, far, 1), (0, far, 2), (far, 0, 2)], base=far)
    assert folded == CoreGraph(2, 2, ((0, 0, 1), (0, 1, 2), (1, 0, 2)))
    with pytest.raises(ValueError, match="endpoint out of range"):
        fold(2, 10**12, [(0, 10**12, 1)])


def test_walk_breaks_outside_the_graph_and_alphabet():
    # The answers the (vertex, label) dict lookups gave, on starts and
    # letters inside and outside the graph and its alphabet.
    graph = gamma_graph(5)
    succ = {(u, l): v for (u, v, l) in graph.edges}
    pred = {(v, l): u for (u, v, l) in graph.edges}
    rng = random.Random(77)
    for _ in range(500):
        vertex = rng.randint(-2, 6)
        letters = [rng.randint(-3, 3) for _ in range(rng.randint(1, 6))]
        expected = vertex
        for letter in letters:
            expected = (succ if letter > 0 else pred).get((expected, abs(letter)))
            if expected is None:
                break
        assert walk(graph, vertex, letters) == expected
    # The table holds 2 * rank + 1 arrays, so a letter past the rank, up to
    # 2 * rank, would read a backward array: the alphabet check breaks it.
    for start in range(5):
        for letter in (3, 4, 5, -3, -4, -5, 0):
            for letters in ([letter], [1, letter], [letter, -1]):
                assert walk(graph, start, letters) is None, (start, letters)
                assert walk(graph, start, iter(letters)) is None, (start, letters)
        for letters in ([1.0], [1, "a"], [None], [[1]], [1, 2.5], 7):
            assert walk(graph, start, letters) is None, (start, letters)
        # A generator of valid letters is read once, as a list is.
        assert walk(graph, start, (l for l in (1, 2, -2))) == walk(graph, start, [1, 2, -2])
        assert walk(graph, start, [True]) == walk(graph, start, [1])


def test_huge_declared_rank_allocates_nothing():
    # The rank is checked before any per-label array is made.
    for build in (lambda: fold(10**9, 1, []), lambda: from_generators(10**9, [])):
        with pytest.raises(ValueError, match=r"rank must be in 1\.\.26, got 1000000000"):
            build()


def test_graph_builders_restore_collector_state():
    a = parse_word("a", 2)
    builds = (
        lambda: fold(2, 2, [(0, 1, 1), (0, 1, 1)]),
        lambda: pullback(from_generators(2, [a]), from_generators(2, [a * a])),
        lambda: schreier_graph(1, [Permutation((1, 0))], 0),
    )
    enabled = gc.isenabled()
    try:
        for build in builds:
            for state in (True, False):
                (gc.enable if state else gc.disable)()
                build()
                assert gc.isenabled() is state
        gc.enable()
        with pytest.raises(ValueError):
            fold(2, 1, [(0, 5, 1)])
        assert gc.isenabled()
    finally:
        (gc.enable if enabled else gc.disable)()


def test_pullback_starts_no_garbage_collection():
    # The search allocates one row per vertex of the smaller factor and
    # otherwise queues and numbers ints, which the collector does not
    # track, so even a 201 x 200 product leaves generation 0 below its
    # threshold.
    g1, g2 = gamma_graph(200), gamma_graph(201)
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    enabled = gc.isenabled()
    gc.enable()
    gc.collect()
    gc.callbacks.append(record)
    try:
        pullback(g1, g2)
    finally:
        gc.callbacks.remove(record)
        (gc.enable if enabled else gc.disable)()
    assert started == []


def test_core_graph_validates_invariants():
    with pytest.raises(ValueError):  # not folded
        CoreGraph(2, 2, ((0, 0, 1), (0, 1, 1)))
    with pytest.raises(ValueError):  # not connected
        CoreGraph(2, 2, ((0, 0, 1),))
    with pytest.raises(ValueError):  # dangling non-base vertex
        CoreGraph(2, 2, ((0, 1, 1),))
    with pytest.raises(ValueError):  # label out of range
        CoreGraph(2, 1, ((0, 0, 3),))


def test_core_graph_equality_hash_and_repr():
    graph = from_generators(2, words(2, "a"))
    twin = CoreGraph(2, 1, ((0, 0, 1),))
    assert graph == twin and hash(graph) == hash(twin)
    assert len({graph, twin, from_generators(2, words(2, "b"))}) == 2
    assert graph.__eq__("graph") is NotImplemented and graph != "graph"
    assert repr(graph) == "CoreGraph(rank=2, vertex_count=1, edges=((0, 0, 1),))"
