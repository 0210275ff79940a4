"""The request path of the CLI against the slow code it replaced.

``CoreGraph(rank, vertex_count, edges)`` sorts the edges and fills its
table in one pass in that order, through the shared edge check
``_check_edge``; ``oracle_core_graph`` is the constructor it replaced,
which sorted every edge list as well and wrote its checks out inline,
so the two raise alike on every edge list, a list beside a tuple too.  ``graph_from_json`` is
``_read_graph_json``, a base check and the constructor;
``oracle_graph_from_json`` is the same reader over the oracle
constructor.  ``oracle_tree_edges`` is the chunk-by-chunk ``--tree``
reader the CLI used for every flag before it matched well-formed flags
with one regex.  ``fgr basis`` prints ``_basis_text``, which spells the
words from root-path text; the oracle is ``render_word`` over
``basis``.  Each pair must give equal results, or raise the same
exception type with the same message.
"""

from __future__ import annotations

import json
import random
from datetime import timedelta
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from fgr import (
    CoreGraph,
    SpanningTree,
    basis,
    from_generators,
    reduce_word,
    schreier_graph,
    spanning_tree,
    subgroup_rank,
)
from fgr.cli import _parse_tree_flag, main
from fgr.constructions import gamma_graph, hm_graph, lm_graph
from fgr.stallings import (
    _basis_text,
    _canonical_letters,
    _check_core,
    _empty_arrays,
    _read_graph_json,
    graph_from_json,
    graph_to_json,
)
from fgr.words import _check_rank, render_word
from test_fold_oracle import (
    EDGE_LIST_KINDS,
    random_edge_list,
    random_permutations,
    random_reduced_word,
    symbol_arrays,
)


def oracle_core_graph(rank, vertex_count, edges) -> CoreGraph:
    """The checked constructor that sorted every edge list first, so
    that an error named the first bad edge in sorted order."""
    edges = tuple(sorted(edges))
    count = vertex_count
    _check_rank(rank)
    if count < 1:
        raise ValueError("graph needs at least the base vertex")
    if count > len(edges) + 1:
        raise ValueError("graph is not connected to the base vertex")
    table = _empty_arrays(rank, count)
    for origin, terminus, label in edges:
        if not (0 <= origin < count and 0 <= terminus < count):
            raise ValueError(f"edge endpoint out of range: {(origin, terminus, label)}")
        if not 1 <= label <= rank:
            raise ValueError(f"edge label out of range: {(origin, terminus, label)}")
        leaving, entering = table[label], table[-label]
        if leaving[origin] >= 0:
            raise ValueError(f"not folded: two edges labeled {label} leave {origin}")
        if entering[terminus] >= 0:
            raise ValueError(f"not folded: two edges labeled {label} enter {terminus}")
        leaving[origin] = terminus
        entering[terminus] = origin
    _check_core(rank, table)
    return CoreGraph._from_arrays(rank, count, table, len(edges))


def oracle_graph_from_json(data) -> CoreGraph:
    rank, vertices, edges, base = _read_graph_json(data)
    if base != 0:
        raise ValueError("graph JSON must use base vertex 0")
    return oracle_core_graph(rank, vertices, edges)


def oracle_tree_edges(text: str) -> list[tuple[int, ...]]:
    edges = []
    for chunk in text.split(",") if text else ():
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"tree edge {chunk!r} is not from:to:label")
        edges.append(tuple(int(p) for p in parts))
    return edges


def result(build):
    """The value ``build()`` returns, or the type and message it raises."""
    try:
        return build()
    except Exception as exc:  # every exception must match, not only ValueError
        return type(exc), str(exc)


def same_graph(got, want) -> bool:
    if isinstance(want, tuple):
        return got == want
    return (
        isinstance(got, CoreGraph)
        and (got.rank, got.vertex_count, got.table) == (want.rank, want.vertex_count, want.table)
        and subgroup_rank(got) == subgroup_rank(want)
    )


def same_tree(got, want) -> bool:
    if isinstance(want, tuple):
        return got == want
    return (
        got == want
        and list(got.parents.items()) == list(want.parents.items())
        and got.nontree_edges == want.nontree_edges
        and got.symbols == want.symbols == symbol_arrays(want)
    )


# --- the checked constructor ---------------------------------------------------

def test_constructor_raises_what_the_sorted_oracle_raises():
    h3 = [(0, 0, 1), (0, 1, 2), (1, 2, 2), (2, 0, 2), (1, 2, 1), (2, 1, 1)]
    named = [
        # A fill in the given order would meet the float first; the sorted
        # order meets the endpoint.
        ((2, 2, [(0.5, 1, 1), (0, 5, 1)]), ValueError, "edge endpoint out of range: (0, 5, 1)"),
        ((2, 2, [(0, 1, "a"), (0, 1, 1)]), *result(lambda: sorted([(0, 1, "a"), (0, 1, 1)]))),
        ((2, 3, [*h3, (0, 0, 1)]), ValueError, "not folded: two edges labeled 1 leave 0"),
    ]
    for args, kind, message in named:
        assert result(lambda: oracle_core_graph(*args)) == (kind, message)
        assert result(lambda: CoreGraph(*args)) == (kind, message), args
    cases = [
        (2, 3, h3),
        (2, 3, [list(edge) for edge in h3]),
        (2, 3, [(u, v, True if l == 1 else l) for u, v, l in h3]),
        (2, 3, h3[::-1]),
        (2, 3, [*h3, (0, 2, 1)]),
        (2, 3, [*h3[1:], (1, 0, 1)]),
        (2, 3, [*h3[:-1], (2, 1.0, 1)]),
        (2, 3, [*h3[:-1], (2, 1, None)]),
        (2, 3, [*h3[:-1], (2, 1)]),
        (2, 3, [*h3[:-1], (2, 1, 1, 1)]),
        (2, 3, [*h3[:-1], 7]),
        (2, 3, [(9, 0, 1), (5, 0, 1), *h3]),
        (2, 3, [(0, 0, 3), (0, 0, 0), *h3]),
        (2, 3, [(2, 1, 1), (2, 1, 1), *h3[:-1]]),
        (2, 3, [(0, 0, 1), (0, 0, "a")]),
        (2, 3.0, h3),
        (2, "3", h3),
        (2, None, h3),
        (2.5, 3, h3),
        ("2", 3, h3),
        (27, 3, [(0, 0, 1), (0, 0, "a")]),  # the sort fails before the rank
        (0, 0, []),
        (1, 0, []),
        (1, 1, []),
        (1, 2, []),
        (1, 10**12, [(0, 0, 1)]),
        (2, 4, [*h3, (3, 3, 1)]),
        (2, 4, [*h3, (0, 3, 2)]),
    ]
    for rank, count, edges in cases:
        want = result(lambda: oracle_core_graph(rank, count, edges))
        for given in (edges, iter(edges)):
            got = result(lambda: CoreGraph(rank, count, given))
            assert same_graph(got, want), (rank, count, edges, want)


# Values put in place of one field of one edge.
BAD_FIELDS = (0.5, 1.0, -0.5, True, False, None, "1", "a", 10**30, -1, float("nan"))


def test_constructor_matches_the_sorted_oracle_on_random_edge_lists():
    rng = random.Random(10_007)
    kinds, failures = set(), set()
    for _ in range(3000):
        kind, rank, count, edges = random_edge_list(rng)
        spoil = rng.choice(("none", "field", "fields", "duplicate", "drop"))
        if spoil in ("field", "fields") and edges:
            for _ in range(1 if spoil == "field" else rng.randint(2, 3)):
                i = rng.randrange(len(edges))
                edge = list(edges[i])
                edge[rng.randrange(3)] = rng.choice(BAD_FIELDS)
                edges[i] = tuple(edge)
        elif spoil == "duplicate" and edges:
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        elif spoil == "drop" and edges:
            edges[rng.randrange(len(edges))] = rng.choice(((0, 0), (0, 0, 1, 1), 3, None, "001"))
        want = result(lambda: oracle_core_graph(rank, count, edges))
        assert same_graph(result(lambda: CoreGraph(rank, count, edges)), want), (
            rank, count, edges, want
        )
        kinds.add(kind)
        if isinstance(want, tuple):
            failures.add(want[0])
    assert kinds == set(EDGE_LIST_KINDS)
    assert failures == {ValueError, TypeError}


def test_constructor_raises_what_the_oracle_raises_on_edges_that_do_not_sort_together():
    # Every edge list is sorted, as the oracle sorted it, so a list beside
    # a tuple raises the TypeError of ``sorted``, valid edges or not.
    for edges in ([(0, 0, 1), [0, 0, 2]], [[0, 0, 2], (0, 0, 1)], [(0, 0, 1), [0, 0, 2], (0, 5, 1)]):
        want = result(lambda: oracle_core_graph(2, 1, edges))
        assert want[0] is TypeError
        assert result(lambda: CoreGraph(2, 1, edges)) == want


# --- graph JSON -------------------------------------------------------------

def _edge_dicts(edges):
    return [{"from": u, "to": v, "label": l} for u, v, l in edges]


# Ways to spoil one field of a document: the value put in its place.
BAD_VALUES = ("x", "7", " 1 ", "", 1.0, 1.5, -0.5, True, False, None, [], {}, [1], 10**30, "1e3")


def random_document(rng: random.Random) -> tuple[str, object]:
    """(kind, JSON document): a random edge list of every kind, then
    perhaps one field, edge or the whole document spoiled."""
    kind, rank, count, edges = random_edge_list(rng)
    data = {"rank": rank, "vertices": count, "base": 0, "edges": _edge_dicts(edges)}
    if rng.random() < 0.5:
        del data["base"]
    spoil = rng.choice(
        ("none", "none", "missing key", "bad value", "bad edge field", "missing edge field",
         "edge not a dict", "base", "edges not a list", "not a dict", "rank")
    )
    if spoil == "missing key":
        del data[rng.choice(("rank", "vertices", "edges"))]
    elif spoil == "bad value":
        data[rng.choice(("rank", "vertices", "base"))] = rng.choice(BAD_VALUES)
    elif spoil in ("bad edge field", "missing edge field", "edge not a dict") and edges:
        edge = data["edges"][rng.randrange(len(edges))]
        field = rng.choice(("from", "to", "label"))
        if spoil == "bad edge field":
            edge[field] = rng.choice(BAD_VALUES)
        elif spoil == "missing edge field":
            del edge[field]
        else:
            data["edges"][data["edges"].index(edge)] = rng.choice(([0, 0, 1], "0:0:1", 3, None))
    elif spoil == "base":
        data["base"] = rng.choice((1, -1, "1", 0.0, "0", False, 10**12))
    elif spoil == "edges not a list":
        data["edges"] = rng.choice(({}, {"from": 0}, "edges", 5, None))
    elif spoil == "not a dict":
        data = rng.choice(([], [data], "graph", 3, None))
    elif spoil == "rank":
        data["rank"] = rng.choice((0, -1, 27, 10**9))
    return f"{kind}, {spoil}", data


def plain_ints(graph) -> bool:
    """Whether every slot of a graph's table holds an int, not a bool:
    the checked route reads JSON ``true``/``false`` as the ints 1/0."""
    return not isinstance(graph, CoreGraph) or all(
        type(v) is int for array in graph.table[1:] for v in array
    )


def test_graph_from_json_matches_the_checked_path_on_random_documents():
    rng = random.Random(10_001)
    kinds, accepted = set(), 0
    for _ in range(3000):
        kind, data = random_document(rng)
        # The document as a file holds it: JSON-encoded and read back.
        data = json.loads(json.dumps(data))
        want = result(lambda: oracle_graph_from_json(data))
        got = result(lambda: graph_from_json(data))
        assert same_graph(got, want) and plain_ints(got), (kind, data, want)
        kinds.add(kind.split(",")[0])
        accepted += not isinstance(want, tuple)
    assert kinds == set(EDGE_LIST_KINDS)
    assert accepted > 100


def test_graph_from_json_on_fixed_documents():
    h3_edges = ((0, 0, 1), (0, 1, 2), (1, 2, 2), (2, 0, 2), (1, 2, 1), (2, 1, 1))
    h3 = {"rank": 2, "vertices": 3, "edges": _edge_dicts(h3_edges)}

    def h3_with(old, new):
        return {**h3, "edges": _edge_dicts(new if e == old else e for e in h3_edges)}

    documents = [
        h3,
        {**h3, "base": 0},
        {**h3, "base": 1},
        {**h3, "base": "x", "rank": 30},  # a malformed field wins over a bad rank
        {**h3, "rank": "x"},
        {**h3, "rank": 2.7},
        {**h3, "rank": True},
        {**h3, "vertices": 10**12},
        {**h3, "vertices": 0},
        {**h3, "edges": h3["edges"] + [{"from": 0, "to": 2, "label": 1}]},
        {**h3, "edges": h3["edges"][:-1] + [[2, 1, 1]]},
        {**h3, "edges": h3["edges"][:-1] + [{"from": "2", "to": "1", "label": "1"}]},
        {**h3, "edges": h3["edges"][:-1] + [{"from": 2.0, "to": 1.9, "label": True}]},
        {**h3, "edges": h3["edges"][:-1] + [{"from": 2, "to": 1, "label": float("inf")}]},
        {**h3, "edges": h3["edges"][:-1] + [{"from": 2, "to": 1, "label": float("nan")}]},
        {**h3, "edges": h3["edges"][:-1] + [{"from": 2, "to": 1}]},
        # Valid but for one index that, read through Python's negative
        # indexing, lands on the free slot of the edge it replaces.
        h3_with((1, 2, 1), (-2, 2, 1)),
        h3_with((2, 1, 1), (2, -2, 1)),
        h3_with((1, 2, 1), (2, 1, -1)),
        h3_with((0, 1, 2), (1, 0, 3)),
        h3_with((0, 1, 2), (-3, -2, 2)),
        # -1 reads as an empty slot.
        h3_with((1, 2, 1), (-1, 2, 1)),
        h3_with((2, 1, 1), (2, -1, 1)),
        # Valid, spelled with true and false, which read as 1 and 0.
        h3_with((1, 2, 1), (True, 2, True)),
        h3_with((0, 1, 2), (False, True, 2)),
        h3_with((2, 0, 2), (2, False, 2)),
        {**h3, "rank": True, "edges": _edge_dicts(((0, 0, 1),))},
        # Two bad edges: the first in sorted order is named.
        {**h3, "edges": _edge_dicts(((9, 0, 1), (5, 0, 1))) + h3["edges"]},
        {"rank": 1, "vertices": 1, "edges": []},
        {"rank": 2, "vertices": 10**12, "edges": [{"from": 0, "to": 0, "label": 1}]},
        {"rank": 2},
        [h3],
        None,
    ]
    for data in documents:
        want = result(lambda: oracle_graph_from_json(data))
        got = result(lambda: graph_from_json(data))
        assert same_graph(got, want) and plain_ints(got), (data, want)


def test_graph_from_json_reads_builder_outputs_back():
    rng = random.Random(10_002)
    graphs = [gamma_graph(7), hm_graph(9)[0], lm_graph(9), lm_graph(10)]
    for _ in range(40):
        rank = rng.randint(1, 3)
        gens = [random_reduced_word(rng, rank, 10) for _ in range(3)]
        graphs.append(from_generators(rank, gens))
    for graph in graphs:
        data = json.loads(json.dumps(graph_to_json(graph)))
        assert same_graph(graph_from_json(data), oracle_graph_from_json(data))


# --- the --tree flag ---------------------------------------------------------

MALFORMED_FLAGS = (
    "", "0:1", "0:1:x", "-1:0:2", " 0:1:2", "0:1:2,", "1_0:1:2", ",", "0:1:2,,1:2:2",
    "0:1:2:3", "+0:1:2", "0:1:2 ", "0:1:2,1:2", "٠:1:2", "0::2", "0:1:2;1:2:2",
)


def test_tree_flag_matches_the_chunk_reader():
    graph = gamma_graph(3)
    flags = MALFORMED_FLAGS + (
        "0:1:2,1:2:2", "1:2:2,0:1:2", "00:01:2,1:2:02", "0:1:2,0:1:2", "0:1:2", "0:0:1,0:1:2",
        "0:1:2,1:2:1", "7:8:2,1:2:2", "0:1:2,1:2:2,2:0:2", "0:1:2,1:02:2", "0:10:2,1:2:2",
        # Past 4,300 digits int and json raise the same error.
        "0:1:2,1:2:" + "2" * 4301,
    )
    for text in flags:
        want = result(lambda: SpanningTree(graph, oracle_tree_edges(text)))
        assert same_tree(result(lambda: _parse_tree_flag(graph, text)), want), (text, want)


def test_tree_flag_matches_the_chunk_reader_on_random_flags():
    rng = random.Random(10_003)
    graph = gamma_graph(12)
    base = [f"{i}:{i + 1}:2" for i in range(11)]
    for _ in range(500):
        chunks = list(base)
        rng.shuffle(chunks)
        text = ",".join(chunks)
        for _ in range(rng.randint(0, 3)):
            i = rng.randrange(len(text) + 1)
            text = text[:i] + rng.choice("0123456789:,-+_ x") + text[i + rng.randint(0, 1):]
        want = result(lambda: SpanningTree(graph, oracle_tree_edges(text)))
        assert same_tree(result(lambda: _parse_tree_flag(graph, text)), want), (text, want)


def test_malformed_tree_flags_print_the_same_error_line(capsys, tmp_path):
    graph = gamma_graph(3)
    path = tmp_path / "gamma3.json"
    path.write_text(json.dumps(graph_to_json(graph)))
    for text in MALFORMED_FLAGS:
        _, message = result(lambda: SpanningTree(graph, oracle_tree_edges(text)))
        assert main(["basis", "--graph", str(path), f"--tree={text}"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"fgr: error: {message}\n"), text


# --- basis text ----------------------------------------------------------------

def random_tree_edges(graph: CoreGraph, rng: random.Random) -> list[tuple[int, int, int]]:
    """A random spanning tree: grown from the base by random frontier edges."""
    seen, tree = {0}, []
    frontier = [(0, letter) for letter in range(-graph.rank, graph.rank + 1) if letter]
    while frontier:
        vertex, letter = frontier.pop(rng.randrange(len(frontier)))
        other = graph.table[letter][vertex]
        if other >= 0 and other not in seen:
            seen.add(other)
            tree.append((vertex, other, letter) if letter > 0 else (other, vertex, -letter))
            frontier += [(other, l) for l in range(-graph.rank, graph.rank + 1) if l]
    return tree


def assert_basis_text(graph: CoreGraph, rng: random.Random) -> None:
    edges = random_tree_edges(graph, rng)
    for tree in (spanning_tree(graph), SpanningTree(graph, edges)):
        assert _basis_text(graph, tree) == [render_word(w) for w in basis(graph, tree)]


def test_basis_text_matches_rendered_basis_on_the_families():
    rng = random.Random(10_004)
    for m in (2, 3, 4, 9, 10, 31):
        assert_basis_text(gamma_graph(m), rng)
        graph, tree = hm_graph(m)
        assert _basis_text(graph, tree) == [render_word(w) for w in basis(graph, tree)]
    for m in (3, 4, 9, 10, 31, 32):
        assert_basis_text(lm_graph(m), rng)


def test_basis_text_matches_rendered_basis_on_random_graphs():
    rng = random.Random(10_005)
    for _ in range(60):
        rank = rng.randint(2, 3)
        points = rng.randint(1, 30)
        try:
            cover = schreier_graph(rank, random_permutations(rng, rank, points), 0)
        except ValueError:
            continue
        assert_basis_text(cover, rng)
    for _ in range(60):
        rank = rng.randint(1, 4)
        gens = [random_reduced_word(rng, rank, 14) for _ in range(rng.randint(0, 4))]
        assert_basis_text(from_generators(rank, gens), rng)


@settings(derandomize=True, database=None, max_examples=120, deadline=timedelta(seconds=1))
@given(st.data())
def test_basis_text_matches_rendered_basis_property(data):
    rank = data.draw(st.integers(1, 4))
    word = st.lists(st.sampled_from(_canonical_letters(rank)), max_size=12)
    gens = data.draw(st.lists(word.map(partial(reduce_word, rank)), max_size=4))
    assert_basis_text(from_generators(rank, gens), data.draw(st.randoms(use_true_random=False)))


def test_basis_verb_prints_the_rendered_basis(capsys, tmp_path):
    graph = lm_graph(11)
    path = tmp_path / "lm11.json"
    path.write_text(json.dumps(graph_to_json(graph)))
    edges = random_tree_edges(graph, random.Random(10_006))
    for flags in ((), ("--tree", ",".join(f"{u}:{v}:{l}" for u, v, l in edges))):
        assert main(["basis", "--graph", str(path), *flags]) == 0
        tree = SpanningTree(graph, edges) if flags else spanning_tree(graph)
        want = [render_word(w) for w in basis(graph, tree)]
        assert capsys.readouterr().out == json.dumps(want, sort_keys=True) + "\n"
