"""Command-line front end.

Every verb reads all of its state from flags (no config files or
environment variables), writes data to stdout as JSON by default or TSV
with ``--format tsv``, and is byte-deterministic: identical invocations
produce identical output.  Exit codes: 0 success, 1 domain error
(message on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import cache
from typing import Callable, Sequence

from .abelian import transfer
from .constructions import gamma_graph, hm_graph, lm_graph, wk_square_rewrite, wk_word
from .retracts import bergman_counterexample, intersection_report, run_suite, suite_names
from .stallings import (
    CoreGraph,
    _basis_text,
    _read_graph_json,
    contains,
    fold,
    from_generators,
    graph_from_json,
    graph_to_json,
    rewrite_in_basis,
    spanning_tree,
)
from .abelian import is_visible, is_visible_in_subgroup
from .words import parse_word, render_word


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

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        return verbs.add_parser(name, help=help_text)

    def add_subgroup_verb(name: str, help_text: str, *flags: str) -> argparse.ArgumentParser:
        p = add(name, help_text)
        p.add_argument("--rank", type=int)
        add_subgroup_flags(p)
        for flag in flags:
            p.add_argument(flag, required=flag == "--word")
        return p

    add_subgroup_verb("fold", "fold a raw graph or generator wedge into a core graph")
    add_subgroup_verb("basis", "free basis induced by a spanning tree").add_argument(
        "--tree", help="comma list of from:to:label tree edges"
    )
    add_subgroup_verb("member", "test membership of a word in a subgroup", "--word")
    add_subgroup_verb("rewrite", "express a member word over the subgroup basis", "--tree", "--word")
    p = add_subgroup_verb("intersect", "intersection report for a subgroup and a retract")
    add_subgroup_flags(p, suffix="2")
    add_subgroup_verb(
        "visible", "visibility of a word, ambient or inside a subgroup", "--tree", "--word"
    )
    add_subgroup_verb(
        "transfer", "transfer of a word into a finite-index subgroup", "--tree", "--word"
    )

    for name in ("gamma", "hm", "lm"):
        p = add(name, f"emit the {name} graph for a given m")
        p.add_argument("--m", type=int, required=True)

    p = add("wk", "emit the word x[x,y]^k")
    p.add_argument("--k", type=int, required=True)

    p = add("lemma33", "closed-form basis rewrite of wk^2 for odd m")
    p.add_argument("--m", type=int, required=True)

    p = add("bergman", "retract-intersection counterexample report")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)

    p = add("suite", "run a randomized property suite")
    p.add_argument("name", choices=suite_names())
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    return parser


def _split_generators(text: str) -> list[str]:
    """Split a generator list on commas outside brackets and parens."""
    chunks = []
    depth = 0
    current = []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == "," and depth == 0:
            chunks.append("".join(current))
            current = []
        else:
            current.append(ch)
    chunks.append("".join(current))
    return chunks


def _load_graph(
    args: argparse.Namespace, suffix: str = "", read: Callable[..., CoreGraph] = graph_from_json
) -> CoreGraph:
    """The subgroup given by exactly one of --gens or --graph; ``read``
    turns the decoded JSON of a graph file into the graph."""
    gens = getattr(args, f"gens{suffix}")
    path = getattr(args, f"graph{suffix}")
    if (gens is None) == (path is None):
        raise ValueError(f"give exactly one of --gens{suffix} or --graph{suffix}")
    if gens is not None:
        if args.rank is None:
            raise ValueError("--gens needs --rank")
        words = [parse_word(text, args.rank) for text in _split_generators(gens)]
        return from_generators(args.rank, words)
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except RecursionError:
            raise ValueError("graph JSON nested too deeply") from None
    return read(data)


# A well-formed --tree flag; any other is read chunk by chunk, which
# names the first chunk that is not from:to:label or not an int.
_TREE_FLAG = re.compile(r"[0-9]+:[0-9]+:[0-9]+(?:,[0-9]+:[0-9]+:[0-9]+)*")


def _parse_tree_flag(graph: CoreGraph, text: str | None):
    if text is None:
        return spanning_tree(graph)
    if _TREE_FLAG.fullmatch(text):
        # Three references to one iterator take its numbers three at a time.
        numbers = map(int, text.replace(",", ":").split(":"))
        return spanning_tree(graph, override=zip(numbers, numbers, numbers))
    edges = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 3:
            raise ValueError(f"tree edge {chunk!r} is not from:to:label")
        edges.append(tuple(int(p) for p in parts))
    return spanning_tree(graph, override=edges)


def _render_tree(tree_edges) -> list[str]:
    return [f"{u}:{v}:{l}" for (u, v, l) in sorted(tree_edges)]


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


# The verbs that answer about one subgroup: each loads the graph, reads
# --tree if it takes one (a default tree when the flag is absent), then
# parses --word if it takes one, in that order.
_GRAPH_VERBS = {
    "basis": lambda graph, tree, word: _basis_text(graph, tree),
    "member": lambda graph, tree, word: {"member": contains(graph, word)},
    "rewrite": lambda graph, tree, word: list(rewrite_in_basis(graph, tree, word).letters),
    "visible": lambda graph, tree, word: {"visible": is_visible_in_subgroup(graph, tree, word)},
    "transfer": lambda graph, tree, word: transfer(graph, tree, word).to_json(),
}


def _dispatch(args: argparse.Namespace) -> object:
    if args.verb == "fold":
        # A graph file holds any labeled digraph, which is folded, not checked.
        return graph_to_json(_load_graph(args, read=lambda data: fold(*_read_graph_json(data))))

    if args.verb == "intersect":
        subgroup = _load_graph(args)
        other = _load_graph(args, suffix="2")
        return intersection_report(subgroup, other).to_json()

    if args.verb == "visible" and args.gens is None and args.graph is None:
        if args.rank is None:
            raise ValueError("ambient visibility needs --rank")
        return {"visible": is_visible(parse_word(args.word, args.rank))}

    answer = _GRAPH_VERBS.get(args.verb)
    if answer is not None:
        graph = _load_graph(args)
        tree = _parse_tree_flag(graph, args.tree) if "tree" in args else None
        word = parse_word(args.word, graph.rank) if "word" in args else None
        return answer(graph, tree, word)

    if args.verb == "gamma":
        return graph_to_json(gamma_graph(args.m))

    if args.verb == "hm":
        graph, tree = hm_graph(args.m)
        payload = graph_to_json(graph)
        payload["tree"] = _render_tree(tree.tree_edges)
        return payload

    if args.verb == "lm":
        return graph_to_json(lm_graph(args.m))

    if args.verb == "wk":
        return render_word(wk_word(args.k))

    if args.verb == "lemma33":
        return list(wk_square_rewrite(args.m).letters)

    if args.verb == "bergman":
        return bergman_counterexample(args.n, args.m, args.k).to_json()

    if args.verb == "suite":
        return run_suite(args.name, args.trials, args.seed).to_json()

    raise AssertionError(f"unhandled verb {args.verb!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = _dispatch(args)
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"fgr: error: {exc}\n")
        return 1
    _emit(payload, args.format)
    return 0


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    run()
