"""Tree requests against the routes they replaced.

``SpanningTree`` fills its own table as it checks each given edge, and
``SpanningTree(graph)`` runs the default search itself; ``OldTree`` is
the constructor it replaced, which kept the edges as a frozenset and
filled and walked the table from it, and ``old_default_tree`` is the
old ``spanning_tree``: the stepping search (``order_with_steps``), then
the edges it found through that checked constructor.  ``old_root_paths``
climbs from every wanted vertex, and ``old_basis_text`` writes each
inverse path with ``str.swapcase``.  ``old_tree_flag`` is the old
``--tree`` reader: a regex for flags that ``json`` reads, the chunk
reader for every other flag.  Each pair must agree on ``parents``,
``nontree_edges``, ``symbols``, ``tree_edges`` and the text, or raise
the same exception type with the same message.

A request that builds a tree on a complete cover leaves the cover's
connectivity search to the tree's walk; the tests at the end count the
walks and check that a graph's error still comes before the tree's.
"""

from __future__ import annotations

import copy
import json
import pickle
import random
import re
from dataclasses import dataclass

import pytest

import fgr.stallings
from fgr import CoreGraph, SpanningTree, Word, from_generators, schreier_graph, spanning_tree
from fgr.cli import _parse_tree_flag, main
from fgr.constructions import gamma_graph, hm_graph, lm_graph
from fgr.stallings import (
    _GLYPHS,
    _INVERSE_GLYPHS,
    _basis_text,
    _empty_arrays,
    _render_letters,
    _root_paths,
    graph_from_json,
    graph_to_json,
)
from test_fold_oracle import order_with_steps, random_permutations, random_reduced_word
from test_request_oracle import oracle_tree_edges, random_tree_edges, result


@dataclass(frozen=True)
class OldTree:
    """The old checked ``SpanningTree``: the edges kept as a frozenset,
    checked and written into the tree's table, counted, then walked."""

    graph: CoreGraph
    tree_edges: frozenset

    def __post_init__(self) -> None:
        tree = frozenset(self.tree_edges)
        object.__setattr__(self, "tree_edges", tree)
        rank, count, table = self.graph.rank, self.graph.vertex_count, self.graph.table
        tree_table = _empty_arrays(rank, count)
        for u, v, l in tree:
            if not (1 <= l <= rank and 0 <= u < count and 0 <= v == table[l][u]):
                raise ValueError("spanning tree does not belong to this graph")
            tree_table[l][u] = v
            tree_table[-l][v] = u
        if len(tree) != count - 1:
            raise ValueError("spanning tree has the wrong number of edges")
        symbols = [None, *([0] * count for _ in range(rank))]
        seen = bytearray(count + 1)
        seen[0] = seen[-1] = 1
        order, steps, nontree = [0], [None], []
        for u in order:
            for l in range(1, rank + 1):
                v = tree_table[l][u]
                if v < 0:
                    v = table[l][u]
                    if v >= 0:
                        nontree.append((u, v, l))
                        symbols[l][u] = len(nontree)
                elif not seen[v]:
                    seen[v] = 1
                    order.append(v)
                    steps.append((u, l))
            for l in range(1, rank + 1):
                v = tree_table[-l][u]
                if not seen[v]:
                    seen[v] = 1
                    order.append(v)
                    steps.append((u, -l))
        if len(order) != count:
            raise ValueError("spanning tree does not span the graph")
        object.__setattr__(self, "parents", dict(zip(order, steps)))
        object.__setattr__(self, "nontree_edges", tuple(nontree))
        object.__setattr__(self, "symbols", symbols)


def old_default_tree(graph: CoreGraph) -> OldTree:
    letters = [s * l for l in range(1, graph.rank + 1) for s in (1, -1)]
    steps: list = []
    order = order_with_steps(graph.table, 0, letters, steps)
    tree = ((u, v, l) if l > 0 else (v, u, -l) for v, (u, l) in zip(order[1:], steps))
    return OldTree(graph, tree)


def old_root_paths(tree, spell, wanted: set) -> dict:
    parents = tree.parents
    paths = {0: spell([])}
    for vertex in parents:
        if vertex in wanted:
            climb = []
            up = vertex
            while up not in paths:
                up, letter = parents[up]
                climb.append(letter)
            climb.reverse()
            paths[vertex] = paths[up] + spell(climb)
    return paths


def old_basis_text(tree) -> list[str]:
    wanted = {v for e in tree.nontree_edges for v in e[:2]}
    paths = old_root_paths(tree, _render_letters, wanted)
    return [
        paths[u] + _GLYPHS[l] + paths[v][::-1].swapcase() for u, v, l in tree.nontree_edges
    ]


OLD_TREE_FLAG = re.compile("{0}(?:,{0})*".format(":".join(["(?:0|[1-9][0-9]*)"] * 3)))


def old_tree_flag(graph: CoreGraph, text: str) -> OldTree:
    if OLD_TREE_FLAG.fullmatch(text):
        numbers = iter(json.loads(f"[{text.replace(':', ',')}]"))
        return OldTree(graph, zip(numbers, numbers, numbers))
    return OldTree(graph, oracle_tree_edges(text))


def same_tree(got, want) -> bool:
    """Equal fields, or the same exception type and message."""
    if isinstance(want, tuple):
        return got == want
    return (
        not isinstance(got, tuple)
        and got.graph == want.graph
        and list(got.parents.items()) == list(want.parents.items())
        and got.nontree_edges == want.nontree_edges
        and got.symbols == want.symbols
        and got.tree_edges == want.tree_edges
    )


def seeded_graphs(seed: int) -> list[CoreGraph]:
    """Seeded covers, folded generator sets and the gamma, hm and lm families."""
    rng = random.Random(seed)
    graphs = [gamma_graph(m) for m in (2, 3, 9, 24)]
    graphs += [hm_graph(m)[0] for m in (2, 5, 31)]
    graphs += [lm_graph(m) for m in (3, 10, 31)]
    while len(graphs) < 40:
        rank = rng.randint(1, 4)
        try:
            graphs.append(schreier_graph(rank, random_permutations(rng, rank, rng.randint(1, 30)), 0))
        except ValueError:
            pass
    for _ in range(40):
        rank = rng.randint(1, 4)
        gens = [random_reduced_word(rng, rank, 12) for _ in range(rng.randint(0, 4))]
        graphs.append(from_generators(rank, gens))
    return graphs


# --- the constructor and the default tree ---------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_default_tree_matches_the_stepping_search(seed):
    for graph in seeded_graphs(11_000 + seed):
        old = old_default_tree(graph)
        for tree in (spanning_tree(graph), SpanningTree(graph)):
            assert same_tree(tree, old), graph
            assert _basis_text(graph, tree) == old_basis_text(old)


@pytest.mark.parametrize("seed", range(3))
def test_given_trees_match_the_frozenset_constructor(seed):
    rng = random.Random(11_100 + seed)
    for graph in seeded_graphs(11_200 + seed):
        edges = random_tree_edges(graph, rng)
        others = [e for e in graph.edges if e not in set(edges)]
        variants = [edges, edges[::-1], edges + edges[: rng.randint(0, len(edges))], []]
        if edges:
            variants.append(edges[1:])
            variants.append(edges[1:] + [(0, graph.vertex_count, 1)])
        if others:
            variants.append(edges + [rng.choice(others)])
            if edges:
                # The right count, but a non-tree edge in place of a tree edge.
                variants.append(edges[1:] + [rng.choice(others)])
        for given in variants:
            rng.shuffle(given)
            want = result(lambda: OldTree(graph, given))
            assert same_tree(result(lambda: SpanningTree(graph, iter(given))), want), given
            if not isinstance(want, tuple):
                assert _basis_text(graph, SpanningTree(graph, given)) == old_basis_text(want)


def test_hm_tree_matches_the_frozenset_constructor():
    for m in (2, 3, 4, 9, 10, 101, 400):
        graph, tree = hm_graph(m)
        table = graph.table
        edges = set(zip(range(m), table[2], [2] * m)) - {(table[-2][0], 0, 2)}
        assert same_tree(tree, OldTree(graph, edges))


def test_a_repeated_edge_is_counted_once():
    graph = gamma_graph(3)
    once = SpanningTree(graph, [(0, 1, 2), (1, 2, 2)])
    assert SpanningTree(graph, [(0, 1, 2), (1, 2, 2), (0, 1, 2), (1, 2, 2)]) == once
    with pytest.raises(ValueError, match="wrong number of edges"):
        SpanningTree(graph, [(0, 1, 2), (0, 1, 2)])


# --- SpanningTree as a value ------------------------------------------------------


def test_trees_from_the_same_edges_are_equal_and_hash_equal():
    rng = random.Random(11_300)
    for graph in seeded_graphs(11_301)[::4]:
        edges = random_tree_edges(graph, rng)
        trees = [SpanningTree(graph, edges)]
        for _ in range(4):
            given = edges + rng.sample(edges, rng.randint(0, len(edges)))
            rng.shuffle(given)
            trees.append(SpanningTree(graph, given))
        # An equal graph built again will do.
        trees.append(SpanningTree(CoreGraph(graph.rank, graph.vertex_count, graph.edges), edges))
        assert all(tree == trees[0] and hash(tree) == hash(trees[0]) for tree in trees)
        assert spanning_tree(graph) == SpanningTree(graph, spanning_tree(graph).tree_edges)
    graph = gamma_graph(4)
    assert SpanningTree(graph, [(0, 1, 2), (1, 2, 2), (2, 3, 2)]) != spanning_tree(graph)
    assert spanning_tree(gamma_graph(4)) != spanning_tree(gamma_graph(5))
    assert spanning_tree(graph) != "tree"


@pytest.mark.parametrize("seed", range(2))
def test_tree_edges_equality_and_hash_agree_with_the_frozenset_constructor(seed):
    # A tree keeps no table: its edges are read off the graph's forward
    # slots whose symbol is 0.  Default and given trees, on every seeded
    # graph, against OldTree's frozenset, its equality and its hash.
    rng = random.Random(11_400 + seed)
    pairs = []
    for graph in seeded_graphs(11_500 + seed):
        given = random_tree_edges(graph, rng)
        pairs.append((spanning_tree(graph), old_default_tree(graph)))
        pairs.append((SpanningTree(graph, given), OldTree(graph, given)))
    for tree, old in pairs:
        assert tree.tree_edges == old.tree_edges
        assert all(type(field) is int for edge in tree.tree_edges for field in edge)
    for tree, old in pairs:
        for other, old_other in pairs:
            assert (tree == other) == (old == old_other)
            assert (hash(tree) == hash(other)) == (hash(old) == hash(old_other))
    # Default and given trees coincide on some graphs and not on others.
    agree = sum(a == b for (a, _), (b, _) in zip(pairs[::2], pairs[1::2]))
    assert 0 < agree < len(pairs) // 2, agree


def test_tree_repr_keeps_its_format():
    graph = gamma_graph(3)
    tree = SpanningTree(graph, [(1, 2, 2), (0, 1, 2)])
    assert repr(tree) == f"SpanningTree(graph={graph!r}, tree_edges={tree.tree_edges!r})"
    assert tree.tree_edges == frozenset({(0, 1, 2), (1, 2, 2)})
    assert repr(SpanningTree(CoreGraph(1, 1, [(0, 0, 1)]))).endswith(", tree_edges=frozenset())")


def test_a_tree_is_immutable():
    tree = spanning_tree(gamma_graph(5))
    for name in ("graph", "tree_edges", "parents", "nontree_edges", "symbols", "other"):
        with pytest.raises(AttributeError):
            setattr(tree, name, None)
        with pytest.raises(AttributeError):
            delattr(tree, name)
    assert not hasattr(tree, "__dict__")


def test_a_tree_copies_and_pickles_to_an_equal_tree():
    graph = gamma_graph(6)
    for tree in (spanning_tree(graph), SpanningTree(graph, spanning_tree(graph).tree_edges)):
        for twin in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
            assert twin == tree and hash(twin) == hash(tree)
            assert same_tree(twin, tree)


# --- root paths and basis text ----------------------------------------------------


def test_root_paths_match_the_climbing_route():
    rng = random.Random(11_400)
    for graph in seeded_graphs(11_401):
        for tree in (spanning_tree(graph), SpanningTree(graph, random_tree_edges(graph, rng))):
            vertices = range(graph.vertex_count)
            for wanted in (set(vertices), set(rng.sample(vertices, rng.randint(0, len(vertices))))):
                for spell in (tuple, _render_letters):
                    assert _root_paths(tree, spell, wanted) == old_root_paths(tree, spell, wanted)


def test_inverse_glyph_table_maps_each_glyph_to_its_inverse():
    for letter in range(1, 27):
        for glyph, inverse in ((_GLYPHS[letter], _GLYPHS[-letter]), (_GLYPHS[-letter], _GLYPHS[letter])):
            assert glyph.translate(_INVERSE_GLYPHS) == inverse == glyph.swapcase()
    assert "0:, é".translate(_INVERSE_GLYPHS) == "0:, é"


def test_basis_text_matches_the_swapcase_route_at_rank_26():
    rng = random.Random(11_500)
    letters = [l for l in range(-26, 27) if l]
    for _ in range(10):
        gens = [random_reduced_word(rng, 26, 30) for _ in range(3)]
        gens.append(random_reduced_word(rng, 26, 1) ** 2)
        graph = from_generators(26, [g for g in gens if g.letters])
        for tree in (spanning_tree(graph), SpanningTree(graph, random_tree_edges(graph, rng))):
            assert _basis_text(graph, tree) == old_basis_text(tree)
    # Every glyph appears in the basis of the commutators [x_l, x_l+1].
    commutators = [(l, l % 26 + 1, -l, -(l % 26 + 1)) for l in range(1, 27)]
    graph = from_generators(26, [Word(26, letters) for letters in commutators])
    text = _basis_text(graph, spanning_tree(graph))
    assert text == old_basis_text(spanning_tree(graph))
    assert set("".join(text)) == set(map(_GLYPHS.__getitem__, letters))


# --- the --tree flag ----------------------------------------------------------------

# Pieces a fuzzed flag is made of.
FLAG_TOKENS = (
    *"0123456789", ":", ",", "-", " ", ".", "e", "true", "٣", "۵", "१", "１", "00", "07",
    "", "2" * 4301, "1" + "0" * 4300, "+", "_", "1e3", "0x1",
)


def fuzzed_flag(rng: random.Random, graph: CoreGraph) -> str:
    """A random flag: a tree of the graph spoiled by a few tokens, or
    tokens and separators alone."""
    if rng.random() < 0.3:
        return "".join(rng.choice(FLAG_TOKENS) for _ in range(rng.randint(0, 12)))
    edges = random_tree_edges(graph, rng)
    if edges and rng.random() < 0.3:
        edges += rng.sample(edges, rng.randint(1, len(edges)))
    rng.shuffle(edges)
    text = ",".join(f"{u}:{v}:{l}" for u, v, l in edges)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        i = rng.randrange(len(text) + 1)
        text = text[:i] + rng.choice(FLAG_TOKENS) + text[i + rng.randint(0, 1):]
    return text


FIXED_FLAGS = (
    "0:1:2,1:2:2,0:1:2",  # a repeated edge, accepted
    "1:2:3:4,5:6",  # six numbers, but a chunk of four: rejected
    "0:1:2,1:2:2:",
    ":0:1:2,1:2:2",
    "0:1:2,,1:2:2",
    "0:1:2,1:2:2,",
    "0:1:2,01:2:2",
    "0:1:2,1:2:" + "2" * 4301,
    "0:1:2,1:2:true",
    "0:1:2,1:2:2.0",
    "0:1:2,1:2:2e0",
    "0:1:2,1:2:-2",
    "0:1:2,1:2:٢",
    "",
)


def test_fixed_tree_flags_match_the_old_reader():
    graph = gamma_graph(3)
    for text in FIXED_FLAGS:
        want = result(lambda: old_tree_flag(graph, text))
        assert same_tree(result(lambda: _parse_tree_flag(graph, text)), want), (text, want)
    assert isinstance(_parse_tree_flag(graph, FIXED_FLAGS[0]), SpanningTree)
    assert result(lambda: _parse_tree_flag(graph, "1:2:3:4,5:6")) == (
        ValueError, "tree edge '1:2:3:4' is not from:to:label"
    )


@pytest.mark.parametrize("seed", range(3))
def test_fuzzed_tree_flags_match_the_chunk_reader(seed):
    rng = random.Random(11_600 + seed)
    graphs = [gamma_graph(12), hm_graph(9)[0], lm_graph(9)]
    graphs += [g for g in seeded_graphs(11_700 + seed) if g.vertex_count <= 20][:10]
    accepted = 0
    for _ in range(1500):
        graph = rng.choice(graphs)
        text = fuzzed_flag(rng, graph)
        want = result(lambda: SpanningTree(graph, oracle_tree_edges(text)))
        assert same_tree(result(lambda: old_tree_flag(graph, text)), want), text
        assert same_tree(result(lambda: _parse_tree_flag(graph, text)), want), (text, want)
        accepted += not isinstance(want, tuple)
    assert accepted > 200


def test_fuzzed_tree_flags_print_the_chunk_readers_line(capsys, tmp_path):
    rng = random.Random(11_800)
    graph = hm_graph(12)[0]
    path = tmp_path / "hm12.json"
    path.write_text(json.dumps(graph_to_json(graph)))
    for text in [*FIXED_FLAGS, *(fuzzed_flag(rng, graph) for _ in range(150))]:
        want = result(lambda: SpanningTree(graph, oracle_tree_edges(text)))
        assert main(["basis", "--graph", str(path), f"--tree={text}"]) == (
            1 if isinstance(want, tuple) else 0
        )
        captured = capsys.readouterr()
        if isinstance(want, tuple):
            assert (captured.out, captured.err) == ("", f"fgr: error: {want[1]}\n"), text
        else:
            assert captured.out == json.dumps(old_basis_text(want)) + "\n"


# --- one walk per tree request -------------------------------------------------------


def count_walks(monkeypatch) -> list:
    """Count the walks of ``fgr.stallings``: each takes one set of marks."""
    calls = []
    marks = fgr.stallings._marks

    def counted(count, base):
        calls.append(count)
        return marks(count, base)

    monkeypatch.setattr(fgr.stallings, "_marks", counted)
    return calls


def test_a_default_tree_request_walks_a_cover_twice(monkeypatch, capsys, tmp_path):
    cover = graph_from_json(graph_to_json(gamma_graph(30)))
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(graph_to_json(cover)))
    want = json.dumps(_basis_text(cover, spanning_tree(cover))) + "\n"
    flag = ",".join(f"{u}:{v}:{l}" for u, v, l in sorted(spanning_tree(cover).tree_edges))
    calls = count_walks(monkeypatch)
    assert main(["basis", "--graph", str(path)]) == 0
    # The default search and the tree walk; the cover is not searched again.
    assert calls == [cover.vertex_count] * 2
    assert capsys.readouterr().out == want
    calls.clear()
    assert main(["basis", "--graph", str(path), "--tree", flag]) == 0
    assert calls == [cover.vertex_count]
    assert capsys.readouterr().out == want
    calls.clear()
    # A verb without a tree checks the cover itself.
    assert main(["member", "--graph", str(path), "--word", "a"]) == 0
    assert calls == [cover.vertex_count]


def disconnected_cover() -> dict:
    """Two disjoint covers side by side: every slot is filled, so the
    table is complete, but the base does not reach the second one."""
    one, two = gamma_graph(3), gamma_graph(4)
    edges = [*one.edges, *((u + 3, v + 3, l) for u, v, l in two.edges)]
    return {"rank": 2, "vertices": 7, "edges": [{"from": u, "to": v, "label": l} for u, v, l in edges]}


def dangling_graph() -> dict:
    """A connected graph with an empty slot, whose vertex 1 dangles."""
    edges = [(0, 0, 1), (0, 1, 2)]
    return {"rank": 2, "vertices": 2, "edges": [{"from": u, "to": v, "label": l} for u, v, l in edges]}


@pytest.mark.parametrize("document", (disconnected_cover, dangling_graph))
def test_the_graphs_error_comes_before_the_trees(document, capsys, tmp_path):
    data = document()
    _, message = result(lambda: graph_from_json(data))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(data))
    requests = [
        ["basis"],
        ["basis", "--tree", "0:1:2"],
        ["basis", "--tree", "0:1:2,1:2:2"],
        ["basis", "--tree", "0:1:2,1:2:2,3:4:2,4:5:2,5:6:2,3:3:1"],
        ["basis", "--tree", "1:2:3:4,5:6"],
        ["basis", "--tree", ""],
        ["rewrite", "--tree", "0:1:x", "--word", "a"],
        ["transfer", "--word", "a("],
        ["visible", "--tree", "0:1:2,1:2:2", "--word", "ab"],
    ]
    for request in requests:
        verb, *flags = request
        assert main([verb, "--graph", str(path), *flags]) == 1
        assert capsys.readouterr() == ("", f"fgr: error: {message}\n"), request
