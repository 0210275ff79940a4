import random

import pytest

from fgr import (
    AbelianVector,
    InfiniteIndexError,
    NotAMemberError,
    Permutation,
    Word,
    abelianize_in_subgroup,
    apply_projection,
    basis,
    exponent_sums,
    from_generators,
    homology_projection,
    is_visible,
    is_visible_in_subgroup,
    parse_word,
    schreier_graph,
    spanning_tree,
    transfer,
)
from fgr.constructions import hm_graph, wk_word
from fgr.retracts import _random_reduced_word as random_reduced_word


def random_visible_word(rng, rank, max_len):
    while True:
        w = random_reduced_word(rng, rank, max_len)
        if is_visible(w):
            return w


def random_transitive_graph(rng, rank, max_index):
    points = rng.randint(1, max_index)
    while True:
        images = []
        for _ in range(rank):
            perm = list(range(points))
            rng.shuffle(perm)
            images.append(Permutation(tuple(perm)))
        try:
            return schreier_graph(rank, images, 0)
        except ValueError:
            continue


def succ_pred(graph):
    """The (origin, label) -> terminus and (terminus, label) -> origin
    dicts a ``CoreGraph`` kept before its per-label arrays, rebuilt from
    its edges."""
    succ = {(u, l): v for (u, v, l) in graph.edges}
    pred = {(v, l): u for (u, v, l) in graph.edges}
    return succ, pred


def oracle_transfer(graph, tree, w):
    """Independent transfer computation: per cycle of the coset action,
    walk the lifted power and count signed non-tree edge crossings.
    Collapsing the spanning tree identifies those counts with homology
    coordinates, so no basis rewriting is involved."""
    succ, pred = succ_pred(graph)
    position = {edge: i for i, edge in enumerate(tree.nontree_edges)}
    totals = [0] * len(tree.nontree_edges)
    seen = set()
    for start in range(graph.vertex_count):
        if start in seen:
            continue
        # trace w repeatedly until the orbit closes
        vertex = start
        while True:
            seen.add(vertex)
            for letter in w.letters:
                if letter > 0:
                    target = succ[(vertex, letter)]
                    edge = (vertex, target, letter)
                    if edge in position:
                        totals[position[edge]] += 1
                    vertex = target
                else:
                    source = pred[(vertex, -letter)]
                    edge = (source, vertex, -letter)
                    if edge in position:
                        totals[position[edge]] -= 1
                    vertex = source
            if vertex == start:
                break
    return tuple(totals)


def test_visibility_examples():
    assert is_visible(parse_word("ab", 2))
    for k in range(1, 11):
        assert is_visible(wk_word(k))
    assert not is_visible(parse_word("aa", 2))
    assert not is_visible(parse_word("aabb", 2))
    assert not is_visible(Word(2))
    assert not is_visible(parse_word("[a,b]", 2))


def test_abelianize_examples():
    graph, tree = hm_graph(3)
    assert abelianize_in_subgroup(graph, tree, wk_word(1) ** 2).entries == (2, 0, 0, 0)
    assert abelianize_in_subgroup(graph, tree, Word(2)).entries == (0, 0, 0, 0)
    assert abelianize_in_subgroup(graph, tree, parse_word("bbb", 2)).entries == (0, 0, 0, 1)


def test_abelianize_rejects_non_members():
    graph, tree = hm_graph(3)
    with pytest.raises(NotAMemberError):
        abelianize_in_subgroup(graph, tree, parse_word("b", 2))


def test_subgroup_visibility_examples():
    graph, tree = hm_graph(3)
    assert not is_visible_in_subgroup(graph, tree, wk_word(1) ** 2)
    assert is_visible_in_subgroup(graph, tree, parse_word("a", 2))
    for k in range(1, 5):
        g, t = hm_graph(2 * k + 1)
        assert not is_visible_in_subgroup(g, t, wk_word(k) ** 2)


def test_abelianize_is_a_homomorphism_on_members():
    rng = random.Random(31)
    graph, tree = hm_graph(4)
    base_words = basis(graph, tree)
    for _ in range(50):
        u = Word(2)
        v = Word(2)
        for _ in range(rng.randint(0, 4)):
            u = u * rng.choice(base_words)
            v = v * rng.choice(base_words).inverse()
        assert (
            abelianize_in_subgroup(graph, tree, u * v)
            == abelianize_in_subgroup(graph, tree, u) + abelianize_in_subgroup(graph, tree, v)
        )


def test_transfer_h3_example_against_oracle():
    graph, tree = hm_graph(3)
    w1 = wk_word(1)
    image = transfer(graph, tree, w1)
    assert image.entries == (1, 1, 1, 0)
    assert image.entries == oracle_transfer(graph, tree, w1)


def test_transfer_on_whole_group_is_exponent_sums():
    g = from_generators(2, [parse_word("a", 2), parse_word("b", 2)])
    tree = spanning_tree(g)
    for text in ("ab", "aabAB", "bbaa"):
        w = parse_word(text, 2)
        assert transfer(g, tree, w).entries == exponent_sums(w)


def test_transfer_matches_oracle_on_random_instances():
    rng = random.Random(37)
    for _ in range(50):
        graph = random_transitive_graph(rng, 2, 8)
        tree = spanning_tree(graph)
        w = random_reduced_word(rng, 2, 15)
        assert transfer(graph, tree, w).entries == oracle_transfer(graph, tree, w)


def test_transfer_single_cycle_is_power_abelianized():
    graph, tree = hm_graph(3)
    b = parse_word("b", 2)  # acts as a 3-cycle
    assert transfer(graph, tree, b) == abelianize_in_subgroup(graph, tree, b**3)


def test_transfer_gcd_is_tree_independent():
    rng = random.Random(43)
    graph, preferred_tree = hm_graph(4)
    default_tree = spanning_tree(graph)
    assert default_tree.tree_edges != preferred_tree.tree_edges
    for _ in range(25):
        w = random_reduced_word(rng, 2, 15)
        assert (
            transfer(graph, preferred_tree, w).coordinate_gcd()
            == transfer(graph, default_tree, w).coordinate_gcd()
        )


def test_transfer_needs_finite_index():
    g = from_generators(2, [parse_word("a", 2)])
    with pytest.raises(InfiniteIndexError):
        transfer(g, spanning_tree(g), parse_word("a", 2))


def test_projection_of_whole_group_is_identity():
    g = from_generators(2, [parse_word("a", 2), parse_word("b", 2)])
    assert homology_projection(g, spanning_tree(g)) == ((1, 0), (0, 1))


def test_projection_of_h3():
    graph, tree = hm_graph(3)
    assert homology_projection(graph, tree) == ((1, 0, 0, 0), (0, 0, 0, 1))


def test_commuting_diagram_on_h3():
    graph, tree = hm_graph(3)
    matrix = homology_projection(graph, tree)
    w1 = wk_word(1)
    assert apply_projection(matrix, transfer(graph, tree, w1)).entries == exponent_sums(w1)


def test_commuting_diagram_on_random_instances():
    rng = random.Random(53)
    for _ in range(100):
        rank = rng.choice((2, 3))
        graph = random_transitive_graph(rng, rank, 8)
        tree = spanning_tree(graph)
        matrix = homology_projection(graph, tree)
        w = random_reduced_word(rng, rank, 20)
        assert apply_projection(matrix, transfer(graph, tree, w)).entries == exponent_sums(w)


def test_transfer_preserves_visibility_randomized():
    rng = random.Random(59)
    for _ in range(100):
        rank = rng.choice((2, 3))
        graph = random_transitive_graph(rng, rank, 10)
        tree = spanning_tree(graph)
        w = random_visible_word(rng, rank, 25)
        assert transfer(graph, tree, w).coordinate_gcd() == 1


def test_abelian_vector_arithmetic():
    u = AbelianVector("subgroup", (2, -4))
    v = AbelianVector("subgroup", (1, 1))
    assert (u + v).entries == (3, -3)
    assert u.coordinate_gcd() == 2
    assert AbelianVector("ambient", ()).coordinate_gcd() == 0
    assert AbelianVector("ambient", (0, 0)).coordinate_gcd() == 0
    assert u.to_json() == {"basis": "subgroup", "entries": [2, -4]}
    with pytest.raises(ValueError):
        u + AbelianVector("ambient", (1, 1))
    with pytest.raises(ValueError, match="vector length mismatch: 2 != 3"):
        u + AbelianVector("subgroup", (1, 1, 1))
    with pytest.raises(TypeError):
        u + (1, 1)
    with pytest.raises(ValueError):
        AbelianVector("other", (1,))


def test_apply_projection_checks_basis_and_width():
    matrix = ((1, 0), (0, 1))
    with pytest.raises(ValueError, match="applies to subgroup-basis vectors"):
        apply_projection(matrix, AbelianVector("ambient", (1, 1)))
    with pytest.raises(ValueError, match="matrix width does not match the vector"):
        apply_projection(matrix, AbelianVector("subgroup", (1, 1, 1)))


def test_apply_projection_is_exact_past_64_bits():
    big = 2**63
    vector = AbelianVector("subgroup", (big, big - 1, -big))
    matrix = ((1, 1, 0), (3, 0, 1), (-1, 0, 0))
    projected = apply_projection(matrix, vector)
    assert projected == AbelianVector("ambient", (2**64 - 1, 2**64, -(2**63)))
