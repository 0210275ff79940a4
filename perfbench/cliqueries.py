"""``cli-queries``: a closed-loop, single-client stream of ``fgr`` requests.

Each request calls ``fgr.cli.main(argv)`` in-process with stdout and
stderr captured.  Requests read graph JSON files written during set-up:
seeded random transitive covers of rank 2 and 3 (index 100, 200, 400)
and two ``hm`` graphs.  The graphs are loaded, not folded, so
``parse_word``, ``graph_from_json`` validation, walking and rewriting,
``transfer`` and JSON output dominate: this is the read-side twin of
``families``.

Every expected answer comes from the benchmark's own permutation
arithmetic, never from fgr.  In each cover, label 2 (``b``) acts as the
cycle v -> v+1, so the b-path 0 -> 1 -> .. -> N-1 is a spanning tree
whose induced basis order follows from the documented rule (non-tree
edges sorted by tree-BFS index of their origin, then label).
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from math import gcd
from typing import NamedTuple

from common import Op, Workload, derive_seed

# About 1,000 operations per run: p99 would sit right at ten samples
# beyond it, so the tail is p95 (about 50 beyond).
TAIL_PERCENTILE = 95.0

# (rank, index) of the random covers, and m of the hm graphs.
COVERS = ((2, 100), (2, 200), (2, 400), (3, 100), (3, 200), (3, 400))
HM_M = (101, 401)
MIN_LEN, MAX_LEN = 16, 2048
# intersect builds the basis of a cycle of length (smallest power) *
# (word length), which costs time and memory quadratic in that length,
# so it runs on the index-100 covers with short words only.
INTERSECT_LEN = (8, 24)
INTERSECT_MAX_INDEX = 100

# Requests per pass.  Word-bearing verbs share the log-uniform length
# range [MIN_LEN, MAX_LEN], one stratum per request.  Every pass repeats
# one layout, so each request's times form a cluster; with 47 requests
# p50 (rank 23.5) and p95 (rank 44.65) fall inside clusters rather than
# on the edge between two, where noise would make them jump.
BLOCK = (
    ("member", 15),
    ("rewrite", 9),
    ("visible-in-subgroup", 7),
    ("visible", 5),
    ("transfer", 4),
    ("basis", 4),
    ("intersect", 3),
)
WORD_VERBS = ("member", "rewrite", "visible-in-subgroup", "visible", "transfer")
EXPRESSION_SHAPES = ("power", "inverse-power", "commutator", "commutator-power")

# Golden set: small graphs and one request of each variant, run before
# timing starts; its stdout bytes must hash to GOLDEN_SHA256.
GOLDEN_SEED = 1902
GOLDEN_COVERS = ((2, 12), (3, 12))
GOLDEN_HM_M = (9,)
GOLDEN_SHA256 = "885d782ef7b3cb138a1ed19f6b045d057cf9899d92e21c479338b11d9143bade"


def _render(letters) -> str:
    return "".join(
        chr(ord("a") + l - 1) if l > 0 else chr(ord("A") - l - 1) for l in letters
    )


def _reduce(letters) -> list[int]:
    stack: list[int] = []
    for letter in letters:
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return stack


def _inverse(letters) -> list[int]:
    return [-l for l in reversed(letters)]


def _exponent_sums(letters, rank: int) -> list[int]:
    sums = [0] * rank
    for letter in letters:
        sums[abs(letter) - 1] += 1 if letter > 0 else -1
    return sums


def _random_word(rng: random.Random, rank: int, length: int) -> list[int]:
    letters: list[int] = []
    while len(letters) < length:
        letter = rng.choice([l for l in range(-rank, rank + 1) if l])
        if not letters or letter != -letters[-1]:
            letters.append(letter)
    return letters


class Cover:
    """A finite cover of the rose given by one permutation per label."""

    def __init__(self, name: str, perms: list[list[int]], path) -> None:
        self.name = name
        self.perms = perms
        self.rank = len(perms)
        self.index = len(perms[0])
        self.inverse = []
        for perm in perms:
            inv = [0] * self.index
            for v, image in enumerate(perm):
                inv[image] = v
            self.inverse.append(inv)
        self.path = str(path)
        self.home = self._home_paths()
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_json(), handle)

    def act(self, vertex: int, letters) -> int:
        perms, inverse = self.perms, self.inverse
        for letter in letters:
            vertex = perms[letter - 1][vertex] if letter > 0 else inverse[-letter - 1][vertex]
        return vertex

    def _home_paths(self) -> list[list[int]]:
        """A shortest letter path from each vertex back to the base."""
        step: list[tuple[int, int] | None] = [None] * self.index
        seen = [False] * self.index
        seen[0] = True
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for label in range(1, self.rank + 1):
                for letter in (label, -label):
                    y = self.act(x, [-letter])
                    if not seen[y]:
                        seen[y] = True
                        step[y] = (letter, x)
                        queue.append(y)
        if not all(seen):
            raise ValueError(f"cover {self.name} is not transitive")
        paths = []
        for v in range(self.index):
            letters = []
            while step[v] is not None:
                letter, v = step[v]
                letters.append(letter)
            paths.append(letters)
        return paths

    def to_json(self) -> dict:
        edges = [
            {"from": v, "to": perm[v], "label": label}
            for label, perm in enumerate(self.perms, start=1)
            for v in range(self.index)
        ]
        return {"rank": self.rank, "vertices": self.index, "base": 0, "edges": edges}

    def tree_flag(self) -> str:
        return ",".join(f"{v}:{v + 1}:2" for v in range(self.index - 1))

    def nontree(self) -> list[tuple[int, int]]:
        """(origin, label) of the non-tree edges in basis order."""
        last = self.index - 1
        return [
            (v, label)
            for v in range(self.index)
            for label in range(1, self.rank + 1)
            if label != 2 or v == last
        ]

    def symbol(self, origin: int, label: int) -> int:
        """1-based basis symbol of the non-tree edge (origin, label)."""
        base = origin * (self.rank - 1)
        if origin == self.index - 1:
            return base + label
        return base + (1 if label == 1 else label - 1)

    def rewrite(self, letters) -> list[int] | None:
        """Basis symbols crossed by a reduced word, or None off the subgroup."""
        last = self.index - 1
        vertex, out = 0, []
        for letter in letters:
            if letter > 0:
                target = self.perms[letter - 1][vertex]
                if letter != 2 or vertex == last:
                    out.append(self.symbol(vertex, letter))
                vertex = target
            else:
                source = self.inverse[-letter - 1][vertex]
                if letter != -2 or source == last:
                    out.append(-self.symbol(source, -letter))
                vertex = source
        return out if vertex == 0 else None

    def loop(self, rng: random.Random, length: int) -> list[int]:
        """A nontrivial reduced member word of about ``length`` letters."""
        while True:
            u = _random_word(rng, self.rank, length)
            loop = _reduce(u + self.home[self.act(0, u)])
            if loop:
                return loop
            length += 1  # u was its own way home


def _random_cover(name: str, rng: random.Random, rank: int, index: int, path) -> Cover:
    perms = []
    for label in range(1, rank + 1):
        if label == 2:
            perms.append([(v + 1) % index for v in range(index)])
        else:
            images = list(range(index))
            rng.shuffle(images)
            perms.append(images)
    return Cover(name, perms, path)


def _hm_cover(m: int, path) -> Cover:
    a = [(m - v) % m for v in range(m)]
    b = [(v + 1) % m for v in range(m)]
    return Cover(f"hm{m}", [a, b], path)


def _word(rng: random.Random, cover: Cover, length: int, member: bool, shape: str, k: int):
    """(text, raw letters) of a flat word or a '^' / '[,]' expression."""
    piece = (lambda n: cover.loop(rng, n)) if member else (
        lambda n: _random_word(rng, cover.rank, n)
    )
    if shape == "flat":
        letters = piece(length)
        return _render(letters), letters
    if shape in ("power", "inverse-power"):
        u = piece(max(1, length // k))
        sign = 1 if shape == "power" else -1
        raw = (u if sign > 0 else _inverse(u)) * k
        return f"({_render(u)})^{sign * k}", raw
    u = piece(max(1, length // (4 * k)))
    v = piece(max(1, length // (4 * k)))
    raw = (u + v + _inverse(u) + _inverse(v)) * k
    text = f"[{_render(u)},{_render(v)}]"
    return (text if k == 1 else f"{text}^{k}"), raw


def _invoke(fgr, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fgr.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _expect_line(code: int, out: str, err: str) -> str | None:
    if code != 0 or err:
        return f"exit {code} with stderr {err.strip()[:200]!r}"
    if not out.endswith("\n") or out.count("\n") != 1:
        return "stdout is not one line"
    return None


def _expect_error(code: int, out: str, err: str) -> str | None:
    lines = err.splitlines()
    if code == 1 and not out and len(lines) == 1 and lines[0].startswith("fgr: error:"):
        return None
    return f"expected exit 1 and one 'fgr: error:' line, got exit {code}, stderr {err[:200]!r}"


def _request(fgr, rng: random.Random, cover: Cover, request: Request) -> Op:
    """One request with the answer the benchmark expects for it."""
    verb, length = request.verb, request.length
    n = cover.rank
    tree = ["--tree", cover.tree_flag()]

    if verb == "basis":
        with_tree = request.shape == "tree"
        argv = ["basis", "--graph", cover.path] + (tree if with_tree else [])

        def want_basis(payload) -> str | None:
            if with_tree:
                want = [
                    "b" * v + _render([label]) + "B" * cover.perms[label - 1][v]
                    for v, label in cover.nontree()
                ]
                return None if payload == want else "basis differs from the b-path basis"
            if len(payload) != cover.index * (n - 1) + 1:
                return f"basis has {len(payload)} words"
            letters = {c: i + 1 for i, c in enumerate("abcdefghijklmnopqrstuvwxyz")}
            for text in payload:
                word = [letters[c] if c.islower() else -letters[c.lower()] for c in text]
                if not word or cover.act(0, word) != 0:
                    return f"basis word {text[:40]!r} is not a nontrivial member"
            return None

        return _checked_op(fgr, f"basis {cover.name}", argv, want_basis)

    if verb == "intersect":
        word = _random_word(rng, n, length)
        argv = ["intersect", "--graph", cover.path, "--rank", str(n), "--gens2", _render(word)]
        power, vertex = 1, cover.act(0, word)
        while vertex != 0:
            vertex = cover.act(vertex, word)
            power += 1

        def want_report(payload) -> str | None:
            got = {key: payload.get(key) for key in ("rank_h", "rank_r", "rank_intersection", "smallest_power")}
            want = {
                "rank_h": cover.index * (n - 1) + 1,
                "rank_r": 1,
                "rank_intersection": 1,
                "smallest_power": power,
            }
            return None if got == want else f"intersect {got} != {want}"

        return _checked_op(fgr, f"intersect {cover.name}", argv, want_report)

    text, raw = _word(rng, cover, length, request.member, request.shape, request.k)
    reduced = _reduce(raw)
    sums = _exponent_sums(reduced, n)
    symbols = cover.rewrite(reduced)
    kind = f"{verb} {cover.name} {'flat' if request.shape == 'flat' else 'expression'}"

    if verb == "member":
        argv = ["member", "--graph", cover.path, "--word", text]
        return _checked_op(fgr, kind, argv, {"member": symbols is not None})
    if verb == "visible":
        argv = ["visible", "--rank", str(n), "--word", text]
        return _checked_op(fgr, kind, argv, {"visible": gcd(*sums) == 1})
    if verb == "transfer":
        argv = ["transfer", "--graph", cover.path, *tree, "--word", text]
        # Transfer factors through the ambient abelianization: coordinate
        # f is the exponent sum of the word in the label of edge f.
        entries = [sums[label - 1] for _, label in cover.nontree()]
        return _checked_op(fgr, kind, argv, {"basis": "subgroup", "entries": entries})
    if verb == "rewrite":
        argv = ["rewrite", "--graph", cover.path, *tree, "--word", text]
        return _checked_op(fgr, kind, argv, symbols)
    if verb == "visible-in-subgroup":
        argv = ["visible", "--graph", cover.path, *tree, "--word", text]
        want = None
        if symbols is not None:
            counts = [0] * (cover.index * (n - 1) + 1)
            for s in symbols:
                counts[abs(s) - 1] += 1 if s > 0 else -1
            want = {"visible": gcd(*counts) == 1}
        return _checked_op(fgr, kind, argv, want)
    raise ValueError(f"unknown verb {verb!r}")


def _checked_op(fgr, kind: str, argv: list[str], want) -> Op:
    """An op expecting exit 0 with ``want`` (a value, or a callable
    judging the parsed payload), or exit 1 when ``want`` is None."""

    def run():
        return _invoke(fgr, argv)

    def check(result) -> str | None:
        code, out, err = result
        if want is None:
            error = _expect_error(code, out, err)
        else:
            error = _expect_line(code, out, err)
            if error is None:
                payload = json.loads(out)
                if callable(want):
                    error = want(payload)
                elif payload != want:
                    error = f"output {out.strip()[:200]!r} != {json.dumps(want)[:200]}"
        return None if error is None else f"{kind}: {error}"

    return Op(kind, run, check)


class Request(NamedTuple):
    """The seed-independent part of one request."""

    verb: str
    slot: int  # index into the workload's graphs
    length: int  # word length in letters (0 for basis)
    shape: str  # word shape, or "tree" / "bfs" for basis
    member: bool  # word built as a member of the graph's subgroup
    k: int  # exponent of a power shape


def _layout(covers: list[Cover], low: int, high: int) -> list[Request]:
    """Every request of a pass except its letters; the same for every pass.

    The layout depends on neither the workload seed nor the pass, so
    runs do the same kinds of work on graphs and words of the same sizes
    however many passes they complete; the seed draws the permutations
    and the letters.  Word lengths are log-uniform on [low, high],
    stratified: one length per equal-width log stratum.
    """
    rng = random.Random(derive_seed("cli-queries layout"))
    everything = list(range(len(covers)))
    # On an hm graph a word acts as a rotation (one cycle) or as a
    # reflection (about m/2 cycles), so the cost of transfer and of
    # intersect would be a coin flip per word; they run on random covers.
    random_covers = [i for i in everything if not covers[i].name.startswith("hm")]
    pools = {
        "transfer": random_covers,
        "intersect": [i for i in random_covers if covers[i].index <= INTERSECT_MAX_INDEX],
    }
    words = [verb for verb, count in BLOCK if verb in WORD_VERBS for _ in range(count)]
    span = math.log(high / low) / len(words)
    lengths = [round(low * math.exp(span * (s + rng.random()))) for s in range(len(words))]
    rng.shuffle(lengths)
    lengths = iter(lengths)
    layout = []
    for verb, count in BLOCK:
        pool = pools.get(verb, everything)
        offset = rng.randrange(len(pool))
        for j in range(count):
            slot = pool[(offset + j) % len(pool)]
            if verb == "basis":
                layout.append(Request(verb, slot, 0, ("tree", "bfs")[j % 2], False, 1))
            elif verb == "intersect":
                layout.append(Request(verb, slot, rng.randint(*INTERSECT_LEN), "flat", False, 1))
            else:
                shape = "flat" if j % 2 else rng.choice(EXPRESSION_SHAPES)
                k = {"flat": 1, "commutator": 1, "commutator-power": rng.randint(2, 3)}.get(
                    shape, rng.randint(2, 5)
                )
                layout.append(Request(verb, slot, next(lengths), shape, j % 4 < 2, k))
    rng.shuffle(layout)
    return layout


def _block(fgr, rng, covers, layout: list[Request]) -> list[Op]:
    """The requests of one pass, with letters drawn from ``rng``."""
    return [_request(fgr, rng, covers[r.slot], r) for r in layout]


def golden_op(fgr, workdir) -> Op:
    """All golden requests as one op; the check also hashes stdout."""
    rng = random.Random(GOLDEN_SEED)
    covers = [
        _random_cover(f"golden{r}x{i}", rng, r, i, workdir / f"golden{r}x{i}.json")
        for r, i in GOLDEN_COVERS
    ] + [_hm_cover(m, workdir / f"golden-hm{m}.json") for m in GOLDEN_HM_M]
    requests = _block(fgr, rng, covers, _layout(covers, MIN_LEN, 128))

    def run():
        return [request.run() for request in requests]

    def check(results) -> str | None:
        for request, result in zip(requests, results):
            error = request.check(result)
            if error:
                return f"golden {error}"
        digest = stdout_digest(results)
        if digest != GOLDEN_SHA256:
            return f"golden stdout sha256 {digest} != recorded {GOLDEN_SHA256}"
        return None

    return Op("golden", run, check)


def build(fgr, seed: int, workdir) -> Workload:
    rng = random.Random(derive_seed(seed, "cli-queries", "graphs"))
    covers = [
        _random_cover(f"r{r}i{i}", rng, r, i, workdir / f"cover-r{r}-i{i}.json")
        for r, i in COVERS
    ] + [_hm_cover(m, workdir / f"hm{m}.json") for m in HM_M]
    layout = _layout(covers, MIN_LEN, MAX_LEN)

    def pass_ops(index: int) -> list[Op]:
        return _block(fgr, random.Random(derive_seed(seed, "cli-queries", index)), covers, layout)

    return Workload([golden_op(fgr, workdir)], pass_ops)


def stdout_digest(results) -> str:
    """SHA-256 of the stdout bytes of a sequence of request results."""
    return hashlib.sha256("".join(out for _, out, _ in results).encode()).hexdigest()
