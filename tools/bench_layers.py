"""Time the layers a CLI request on a graph file goes through, and the
products and retract checks of the paper's families, over a size
ladder, and print the timings and growth exponents as JSON.

    PYTHONPATH=src python3 tools/bench_layers.py [--rungs NAME ...] [--repeats N]

Stdlib only.  ``fgr`` is imported from wherever ``PYTHONPATH`` points,
so running the script once with each checkout's ``src`` compares two
versions on identical inputs.

The ladder holds the graphs of the ``cli-queries`` workload: random
transitive covers of rank 2 and 3 at index 100, 200 and 400, in which
label 2 acts as the cycle v -> v+1 and every other label as a seeded
random permutation, and the graphs of ``hm_graph(101)`` and
``hm_graph(401)``, numbered as ``gamma_graph`` numbers them.  The
override tree is the b-path 0 -> 1 -> .. -> N-1 in each.  The layers
are:

- ``json_load``: ``json.loads`` of the graph's JSON text;
- ``graph_from_json``: the parsed document to a checked ``CoreGraph``;
- ``check_core``: ``fgr.stallings._check_core`` on the graph's table,
  the connectivity and degree check of the checked constructor that
  ``graph_from_json`` calls;
- ``spanning_tree_default``: ``spanning_tree(graph)``, and
  ``spanning_tree_override``: the override tree built by
  ``SpanningTree(graph, edges)``;
- ``tree_flag``: the ``--tree`` text to a ``SpanningTree``, as the CLI
  parses it (``fgr.cli._parse_tree_flag``);
- ``basis_render``: ``[render_word(w) for w in basis(graph, tree)]``,
  and ``basis_text``: ``fgr.stallings._basis_text(graph, tree)``, the
  text path of ``fgr basis``, both with the override tree;
- ``rewrite_in_basis``: a member word of about 2,048 letters;
- ``contains``: ``contains(graph, word)`` on that word, and
  ``from_generators``: the graph of the subgroup it generates, both
  loops that read the graph one letter at a time;
- ``substitute``: that word's symbols mapped back over the basis, the
  second half of the round trip ``substitute(rewrite_in_basis(graph,
  tree, word), basis(graph, tree), rank)``, whose basis and symbols are
  built outside the timing and whose result is checked to be the word.
  The basis has rank 101 to 801 on the covers, past the 26 letters of
  the text form.  Its words follow the b-path tree, so the letters
  spelled before the one reduction grow in proportion to the index, and
  a loop linear in them has a growth exponent near 1;
- ``cli_rewrite``: a whole ``fgr rewrite`` request in process,
  ``fgr.cli.main(["rewrite", "--graph", FILE, "--tree", FLAG, "--word",
  WORD])`` with stdout captured, on the rung's graph file, its b-path
  flag and its member word, checked once against ``rewrite_in_basis``:
  a request's time beside its ``json_load``, ``graph_from_json``,
  ``tree_flag`` and ``rewrite_in_basis`` parts;
- ``cli_basis``: a whole ``fgr basis --graph FILE`` request with the
  default tree, in process, on the rung's graph file, checked once
  against ``_basis_text``: the request that sets the tail of the
  ``cli-queries`` workload;
- ``intersect_cyclic``: the library path of ``fgr intersect`` with a
  seeded 16-letter ``--gens2`` word, ``intersection_report(graph,
  from_generators(rank, [word]))``, whose retract is cyclic;
- ``bergman_cyclic``: ``smallest_power_in(lm_graph(m), wk_word((m - 1) //
  2))``, the cyclic step of ``bergman_counterexample``, with m the
  rung's index rounded up to odd (both built outside the timing);
- ``bergman_rank2``: ``bergman_counterexample(3, m, 2)`` with the same
  m, whose rank-2 retract is intersected by a ``pullback`` of two
  graphs of infinite index that reaches about 4m of its pairs, so it
  numbers them in dict rows;
- ``degrees``: ``fgr.stallings._degrees`` on the table of that
  ``pullback``'s product, the degree count that ``_core`` reads before
  it hands back a product with no hair, checked once against a count of
  the full slots vertex by vertex;
- ``bergman_report``: the whole ``bergman_counterexample(2, m, 1)`` with
  the same m, the cyclic route from the family's graph to the report;
- ``hm_graph``: ``hm_graph(i)`` for the rung's index i, the graph in
  canonical numbering with its preferred tree;
- ``pullback_orbit``: ``pullback(gamma_graph(i), gamma_graph(i + 1))``
  for the rung's index i, a product of two complete covers of coprime
  indices, which reaches all of its i(i + 1) pairs and numbers them in
  list rows;
- ``pullback_diagonal``: the product of the rung's cover with itself,
  which reaches i of its i^2 pairs; the indices are not coprime, so it
  numbers them in dict rows, and its cost follows the i pairs reached;
- ``pullback_covers``: the product of two seeded random covers of the
  rung's rank, of index i and 2i, in which label 1 acts as a cycle and
  every other label as a random permutation.  The indices share the
  factor i, so the product numbers its pairs in dict rows, though it
  reaches most of them; the coprime ``pullback_orbit`` takes list rows
  (all graphs built outside the timing).

Each figure is the best per-call time of ``--repeats`` repeats (7 by
default) of a loop sized to take about 20 ms.  A growth exponent is
the least-squares slope of log time against log index over the rungs
of one family (rank-2 covers, rank-3 covers, hm graphs).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import platform
import random
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import fgr.retracts

from fgr import (
    Permutation,
    basis,
    bergman_counterexample,
    contains,
    from_generators,
    graph_from_json,
    intersection_report,
    pullback,
    reduce_word,
    rewrite_in_basis,
    schreier_graph,
    smallest_power_in,
    spanning_tree,
    substitute,
    tree_path_word,
    walk,
)
from fgr.cli import _parse_tree_flag, main as fgr_main
from fgr.constructions import gamma_graph, hm_graph, lm_graph, wk_word
from fgr.stallings import CoreGraph, SpanningTree, _basis_text, _check_core, _degrees
from fgr.words import render_word

# name -> (family, rank, index); hm rungs have rank 2.
RUNGS = {
    "r2i100": ("rank-2 covers", 2, 100),
    "r2i200": ("rank-2 covers", 2, 200),
    "r2i400": ("rank-2 covers", 2, 400),
    "r3i100": ("rank-3 covers", 3, 100),
    "r3i200": ("rank-3 covers", 3, 200),
    "r3i400": ("rank-3 covers", 3, 400),
    "hm101": ("hm graphs", 2, 101),
    "hm401": ("hm graphs", 2, 401),
}
WORD_LETTERS = 2048
INTERSECT_LETTERS = 16
TARGET_LOOP_S = 0.02


def _graph_json(name: str) -> dict:
    """The JSON form of a rung's graph, numbered so that b acts as v -> v+1.

    A cover's other labels are seeded random permutations; in an hm
    graph a acts as v -> -v (mod m), as in ``gamma_graph``.
    """
    _, rank, index = RUNGS[name]
    rng = random.Random(7000 + 10 * index + rank)
    edges = []
    for label in range(1, rank + 1):
        images = [(v + 1) % index for v in range(index)]
        if name.startswith("hm") and label == 1:
            images = [(index - v) % index for v in range(index)]
        elif label != 2:
            rng.shuffle(images)
        edges += [{"from": v, "to": w, "label": label} for v, w in enumerate(images)]
    return {"rank": rank, "vertices": index, "base": 0, "edges": edges}


def _random_cover(rank: int, index: int, rng: random.Random) -> CoreGraph:
    """A cover of ``index`` sheets: label 1 acts as v -> v+1, every other
    label as a seeded random permutation."""
    perms = [Permutation(tuple((v + 1) % index for v in range(index)))]
    for _ in range(rank - 1):
        images = list(range(index))
        rng.shuffle(images)
        perms.append(Permutation(tuple(images)))
    return schreier_graph(rank, perms, 0)


def _member(graph: CoreGraph, tree, rng: random.Random):
    """A member word: a random walk in the graph, closed along the tree."""
    letters, vertex = [], 0
    moves = [l for l in range(-graph.rank, graph.rank + 1) if l]
    while len(letters) < WORD_LETTERS:
        letter = rng.choice(moves)
        if letters and letter == -letters[-1]:
            continue
        step = walk(graph, vertex, [letter])
        if step is not None:
            letters.append(letter)
            vertex = step
    home = tree_path_word(graph, tree, vertex, 0)
    return reduce_word(graph.rank, letters + list(home.letters))


def _reduced(rank: int, length: int, rng: random.Random):
    """A seeded reduced word of ``length`` letters."""
    letters = []
    moves = [l for l in range(-rank, rank + 1) if l]
    while len(letters) < length:
        letter = rng.choice(moves)
        if not letters or letter != -letters[-1]:
            letters.append(letter)
    return reduce_word(rank, letters)


def _bergman_product(m: int) -> CoreGraph:
    """The product of the ``pullback`` that ``bergman_counterexample(3, m,
    2)`` intersects its subgroup and rank-2 retract by."""
    with mock.patch.object(fgr.retracts, "pullback", wraps=pullback) as spy:
        bergman_counterexample(3, m, 2)
    return pullback(*spy.call_args.args)


def _best(call, repeats: int) -> float:
    """Best per-call seconds of ``repeats`` loops of about TARGET_LOOP_S."""
    start = time.perf_counter()
    call()
    once = time.perf_counter() - start
    loops = max(1, int(TARGET_LOOP_S / max(once, 1e-7)))
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(loops):
            call()
        best = min(best, (time.perf_counter() - start) / loops)
    return best


def _request(argv: list[str]) -> str:
    """Stdout of ``fgr`` run in process on ``argv``; raises unless it exits 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = fgr_main(argv)
    if code != 0:
        raise AssertionError(f"fgr {argv[0]} exited {code}")
    return out.getvalue()


def measure(name: str, repeats: int) -> dict[str, float]:
    """Best per-call seconds of every layer on one rung."""
    index = RUNGS[name][2]
    data = _graph_json(name)
    text = json.dumps(data)
    graph = graph_from_json(data)
    flag = ",".join(f"{v}:{v + 1}:2" for v in range(index - 1))
    override = [(v, v + 1, 2) for v in range(index - 1)]
    tree = SpanningTree(graph, override)
    word = _member(graph, tree, random.Random(index))
    rank = graph.rank
    words, symbols = basis(graph, tree), rewrite_in_basis(graph, tree, word)
    if substitute(symbols, words, rank) != word:
        raise AssertionError(f"{name}: the basis round trip does not return the word")
    short = _reduced(rank, INTERSECT_LETTERS, random.Random(index + 1))
    odd = index | 1
    lm, wk = lm_graph(odd), wk_word((odd - 1) // 2)
    product = _bergman_product(odd).table
    slots = [sum(array[v] >= 0 for array in product[1:]) for v in range(len(product[1]))]
    if _degrees(product) != slots:
        raise AssertionError(f"{name}: _degrees does not count the product's full slots")
    orbit = gamma_graph(index), gamma_graph(index + 1)
    covers_rng = random.Random(7100 + 10 * index + rank)
    covers = _random_cover(rank, index, covers_rng), _random_cover(rank, 2 * index, covers_rng)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / f"{name}.json"
        path.write_text(text)
        request = ["rewrite", "--graph", str(path), "--tree", flag, "--word", render_word(word)]
        if _request(request) != json.dumps(list(symbols.letters)) + "\n":
            raise AssertionError(f"{name}: fgr rewrite does not print the rewritten word")
        cli_rewrite = _best(lambda: _request(request), repeats)
        request = ["basis", "--graph", str(path)]
        if _request(request) != json.dumps(_basis_text(graph, spanning_tree(graph))) + "\n":
            raise AssertionError(f"{name}: fgr basis does not print the default tree's basis")
        cli_basis = _best(lambda: _request(request), repeats)
    return {
        "json_load": _best(lambda: json.loads(text), repeats),
        "graph_from_json": _best(lambda: graph_from_json(data), repeats),
        "check_core": _best(lambda: _check_core(rank, graph.table), repeats),
        "spanning_tree_default": _best(lambda: spanning_tree(graph), repeats),
        "spanning_tree_override": _best(lambda: SpanningTree(graph, override), repeats),
        "tree_flag": _best(lambda: _parse_tree_flag(graph, flag), repeats),
        "basis_render": _best(lambda: [render_word(w) for w in basis(graph, tree)], repeats),
        "basis_text": _best(lambda: _basis_text(graph, tree), repeats),
        "rewrite_in_basis": _best(lambda: rewrite_in_basis(graph, tree, word), repeats),
        "contains": _best(lambda: contains(graph, word), repeats),
        "from_generators": _best(lambda: from_generators(rank, [word]), repeats),
        "substitute": _best(lambda: substitute(symbols, words, rank), repeats),
        "cli_rewrite": cli_rewrite,
        "cli_basis": cli_basis,
        "intersect_cyclic": _best(
            lambda: intersection_report(graph, from_generators(rank, [short])), repeats
        ),
        "bergman_cyclic": _best(lambda: smallest_power_in(lm, wk), repeats),
        "bergman_rank2": _best(lambda: bergman_counterexample(3, odd, 2), repeats),
        "degrees": _best(lambda: _degrees(product), repeats),
        "bergman_report": _best(lambda: bergman_counterexample(2, odd, 1), repeats),
        "hm_graph": _best(lambda: hm_graph(index), repeats),
        "pullback_orbit": _best(lambda: pullback(*orbit), repeats),
        "pullback_diagonal": _best(lambda: pullback(graph, graph), repeats),
        "pullback_covers": _best(lambda: pullback(*covers), repeats),
    }


def growth_exponents(rungs: dict[str, dict[str, float]]) -> dict[str, dict[str, float]]:
    """Least-squares slope of log time against log index, per family."""
    families: dict[str, list[str]] = {}
    for name in rungs:
        families.setdefault(RUNGS[name][0], []).append(name)
    slopes: dict[str, dict[str, float]] = {}
    for family, names in families.items():
        if len(names) < 2:
            continue
        xs = [math.log(RUNGS[name][2]) for name in names]
        mean_x = sum(xs) / len(xs)
        for layer in rungs[names[0]]:
            times = [rungs[name][layer] for name in names]
            if any(t <= 0 for t in times):
                continue
            ys = [math.log(t) for t in times]
            mean_y = sum(ys) / len(ys)
            slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
                (x - mean_x) ** 2 for x in xs
            )
            slopes.setdefault(family, {})[layer] = round(slope, 3)
    return slopes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rungs", nargs="+", choices=list(RUNGS), default=list(RUNGS))
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    rungs = {name: measure(name, args.repeats) for name in args.rungs}
    report = {
        "python": platform.python_version(),
        "repeats": args.repeats,
        "unit": "s per call, best of repeats",
        "rungs": rungs,
        "growth_exponents": growth_exponents(rungs),
    }
    json.dump(report, sys.stdout, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
