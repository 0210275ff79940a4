"""Command-line front end.

Every verb reads all of its state from flags (no config files or
environment variables), writes data to stdout as JSON by default or TSV
with ``--format tsv``, and is byte-deterministic: identical invocations
produce identical output.  Exit codes: 0 success, 1 domain error or
a request that runs out of memory (one message line on stderr), 2
usage error.

Each verb is defined once, in ``_build_parser``: its subparser holds
its flags and, through ``set_defaults``, its answer, the function from
the parsed flags to the payload that ``main`` prints.  The verbs about
one subgroup share one reader (``_on_subgroup``).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import Callable, Sequence

from .abelian import is_visible, is_visible_in_subgroup, transfer
from .constructions import gamma_graph, hm_graph, lm_graph, wk_square_rewrite, wk_word
from .retracts import bergman_counterexample, intersection_report, run_suite, suite_names
from .stallings import (
    CoreGraph,
    SpanningTree,
    _basis_text,
    _check_core,
    _graph_from_plain_json,
    _read_graph_json,
    contains,
    fold,
    from_generators,
    graph_from_json,
    graph_to_json,
    rewrite_in_basis,
    spanning_tree,
)
from .words import _parse_words, parse_word, render_word


# Built once per process: parsing leaves no state in the parser.
@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgr",
        description="Subgroup calculus for free groups: Stallings graphs, "
        "visibility, transfer maps, and retract intersections.",
    )
    parser.add_argument("--format", choices=("json", "tsv"), default="json")
    verbs = parser.add_subparsers(dest="verb", required=True)

    def add_subgroup_flags(p: argparse.ArgumentParser, suffix: str = "") -> None:
        p.add_argument(f"--gens{suffix}", help="comma-separated generator word expressions")
        p.add_argument(f"--graph{suffix}", help="path to a graph JSON file")

    # A verb's subparser carries its answer; ``flags`` are required ints.
    def add(name: str, help_text: str, answer: Callable, *flags: str) -> argparse.ArgumentParser:
        p = verbs.add_parser(name, help=help_text)
        p.set_defaults(answer=answer)
        for flag in flags:
            p.add_argument(flag, type=int, required=True)
        return p

    def add_subgroup_verb(
        name: str, help_text: str, answer: Callable, *flags: str
    ) -> argparse.ArgumentParser:
        p = add(name, help_text, answer)
        p.add_argument("--rank", type=int)
        add_subgroup_flags(p)
        for flag in flags:
            p.add_argument(flag, required=flag == "--word")
        return p

    tree_word = ("--tree", "--word")
    add_subgroup_verb("fold", "fold a raw graph or generator wedge into a core graph", _fold)
    add_subgroup_verb("basis", "free basis induced by a spanning tree", _basis).add_argument(
        "--tree", help="comma list of from:to:label tree edges"
    )
    add_subgroup_verb("member", "test membership of a word in a subgroup", _member, "--word")
    add_subgroup_verb(
        "rewrite", "express a member word over the subgroup basis", _rewrite, *tree_word
    )
    p = add_subgroup_verb(
        "intersect", "intersection report for a subgroup and a retract", _intersect
    )
    add_subgroup_flags(p, suffix="2")
    add_subgroup_verb(
        "visible", "visibility of a word, ambient or inside a subgroup", _visible, *tree_word
    )
    add_subgroup_verb(
        "transfer", "transfer of a word into a finite-index subgroup", _transfer, *tree_word
    )

    gamma = lambda args: graph_to_json(gamma_graph(args.m))
    add("gamma", "emit the gamma graph for a given m", gamma, "--m")
    add("hm", "emit the hm graph for a given m", _hm, "--m")
    lm = lambda args: graph_to_json(lm_graph(args.m))
    add("lm", "emit the lm graph for a given m", lm, "--m")
    add("wk", "emit the word x[x,y]^k", lambda args: render_word(wk_word(args.k)), "--k")
    lemma33 = lambda args: list(wk_square_rewrite(args.m).letters)
    add("lemma33", "closed-form basis rewrite of wk^2 for odd m", lemma33, "--m")
    bergman = lambda args: bergman_counterexample(args.n, args.m, args.k).to_json()
    add("bergman", "retract-intersection counterexample report", bergman, "--n", "--m", "--k")
    suite = lambda args: run_suite(args.name, args.trials, args.seed).to_json()
    p = add("suite", "run a randomized property suite", suite)
    p.add_argument("name", choices=suite_names())
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _load_graph(
    args: argparse.Namespace, suffix: str = "", read: Callable[..., CoreGraph] | None = None
) -> CoreGraph:
    """The subgroup given by exactly one of --gens or --graph; ``read``
    turns the decoded JSON of a graph file into the graph, by default
    ``graph_from_json`` as this module's name holds it when called."""
    gens = getattr(args, f"gens{suffix}")
    path = getattr(args, f"graph{suffix}")
    if (gens is None) == (path is None):
        raise ValueError(f"give exactly one of --gens{suffix} or --graph{suffix}")
    if gens is not None:
        if args.rank is None:
            raise ValueError(f"--gens{suffix} needs --rank")
        return from_generators(args.rank, _parse_words(gens, args.rank))
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError("graph JSON nested too deeply") from None
    return (read or graph_from_json)(data)


# Drops the ASCII digits from a --tree flag, leaving its separators.
_NO_DIGITS = str.maketrans("", "", "0123456789")


def _parse_tree_flag(graph: CoreGraph, text: str | None):
    if text is None:
        return spanning_tree(graph)
    # A flag of from:to:label fields of ASCII digits is read by one
    # ``json.loads`` when JSON reads each field as ``int`` does: no field
    # is empty, has a leading zero or passes 4,300 digits.  Any other
    # flag is read chunk by chunk, which names the first chunk that is
    # not from:to:label or not an int.
    if text.translate(_NO_DIGITS) == "::," * text.count(",") + "::":
        try:
            numbers = iter(json.loads(f"[{text.replace(':', ',')}]"))
        except ValueError:
            pass
        else:
            # Three references to one iterator take its numbers three at a time.
            return SpanningTree(graph, zip(numbers, numbers, numbers))
    # The empty flag is the tree with no edges, a one-vertex graph's.
    edges = []
    for chunk in text.split(",") if text else ():
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"tree edge {chunk!r} is not from:to:label")
        edges.append(tuple(int(p) for p in parts))
    return SpanningTree(graph, edges)


def _emit(payload, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
        return
    if isinstance(payload, dict):
        for key in sorted(payload):
            sys.stdout.write(f"{key}\t{_tsv_cell(payload[key])}\n")
    elif isinstance(payload, list):
        for item in payload:
            sys.stdout.write(f"{_tsv_cell(item)}\n")
    else:
        sys.stdout.write(f"{_tsv_cell(payload)}\n")


def _tsv_cell(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value, sort_keys=True)


def _on_subgroup(answer: Callable) -> Callable[[argparse.Namespace], object]:
    """The answer of a verb about one subgroup: it loads the graph, reads
    --tree if the verb takes one (the default tree when the flag is
    absent), then parses --word if it takes one, in that order, and
    hands the three to ``answer`` (None for a flag the verb lacks)."""

    def read(args: argparse.Namespace) -> object:
        # A tree that spans a cover proves it connected, so the cover's own
        # search runs only if the tree fails, and before the tree's error.
        graph = _load_graph(args, read=_graph_to_span if "tree" in args else None)
        try:
            tree = _parse_tree_flag(graph, args.tree) if "tree" in args else None
        except (ValueError, MemoryError):
            _check_core(graph.rank, graph.table)
            raise
        word = parse_word(args.word, graph.rank) if "word" in args else None
        return answer(graph, tree, word)

    return read


def _graph_to_span(data) -> CoreGraph:
    """``graph_from_json`` for a verb that builds a spanning tree next."""
    return _graph_from_plain_json(data, spanned=True) or graph_from_json(data)


def _fold(args: argparse.Namespace) -> object:
    # A graph file holds any labeled digraph, which is folded, not checked.
    return graph_to_json(_load_graph(args, read=lambda data: fold(*_read_graph_json(data))))


def _intersect(args: argparse.Namespace) -> object:
    return intersection_report(_load_graph(args), _load_graph(args, suffix="2")).to_json()


_basis = _on_subgroup(lambda graph, tree, word: _basis_text(graph, tree))
_member = _on_subgroup(lambda graph, tree, word: {"member": contains(graph, word)})
_rewrite = _on_subgroup(lambda *request: list(rewrite_in_basis(*request).letters))
_visible_in_subgroup = _on_subgroup(lambda *request: {"visible": is_visible_in_subgroup(*request)})
_transfer = _on_subgroup(lambda *request: transfer(*request).to_json())


def _visible(args: argparse.Namespace) -> object:
    if args.gens is None and args.graph is None:
        if args.rank is None:
            raise ValueError("ambient visibility needs --rank")
        return {"visible": is_visible(parse_word(args.word, args.rank))}
    return _visible_in_subgroup(args)


def _hm(args: argparse.Namespace) -> object:
    graph = hm_graph(args.m)[0]
    # The tree is every b-edge but the one into the base, whose terminus
    # 0 is falsy.  It has one edge per origin, so listed by origin it is
    # in sorted order, as ``sorted(tree.tree_edges)`` lists it.
    b_path = [f"{u}:{v}:2" for u, v in enumerate(graph.table[2]) if v]
    return {**graph_to_json(graph), "tree": b_path}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.answer(args)
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"fgr: error: {exc}\n")
        return 1
    except MemoryError:
        sys.stderr.write("fgr: error: out of memory\n")
        return 1
    _emit(payload, args.format)
    return 0


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
