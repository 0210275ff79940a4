"""Retract predicates, intersection verdicts, and randomized suites.

A retract is presented by a section/retraction pair that is verified
symbolically at construction.  Intersection verdicts are only asserted
where the rank structure makes them decidable: rank <= 1 intersections
via the visibility criterion for cyclic retracts applied inside the
subgroup, the whole subgroup via canonical graph equality, and any
other intersection of at least the subgroup's rank, which cannot be a
retract: a retract has at most the subgroup's rank, and one of equal
rank is the subgroup itself, because free groups of finite rank are
Hopfian.  A cyclic intersection's generator is read by one walk of a
rank-1 graph, a cycle with at most a stem, and its visibility off its
signed edge crossings in the subgroup's graph, so no verdict builds a
spanning tree.  A retract given by its presentation also decides yes when
rho = section o retraction maps each basis word of the subgroup back
into the subgroup: rho is then a retraction of the subgroup onto the
intersection.  Everything else is reported as undecided by design.

The randomized suites draw every bit of randomness from a single 64-bit
seed through per-trial generators derived by hashing (seed, trial), so
reports are reproducible and embed the seed.  A trial returns its
failure record, a dict naming the counterexample, or None when the
property holds; ``run_suite`` counts the Nones and keeps the first
record.  A sampler that retries until a draw is accepted does so through
``_first``, which bounds the draws and raises ``RuntimeError`` when the
budget runs out.  ``_random_reduced_word`` draws a length uniformly from
its range and then each letter with one ``rng.choice`` from a per-rank
table, built on first use, of the letters that may follow the previous
one, in the order -rank..-1, 1..rank; a seed thus draws the same words
as filtering the alphabet afresh for every letter would.  The normal
subgroups are kernels of maps onto small groups, read off their regular
actions, which one table built on first use holds as permutations.

Coverage note: the random retract family samples sections of coordinate
projections composed with kernel conjugations, plus cyclic retracts of
random visible words; whether this family is exhaustive up to
automorphism is unknown.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import permutations as _itertools_permutations
from operator import neg
from typing import Callable, TypeVar

from .abelian import (
    _visible_member,
    abelianize_in_subgroup,
    apply_projection,
    homology_projection,
    is_visible,
    is_visible_in_subgroup,
    transfer,
)
from .constructions import lm_graph, wk_word
from .stallings import (
    CoreGraph,
    Permutation,
    _canonical_letters,
    basis,
    canonicalize,
    contains,
    from_generators,
    graph_to_json,
    pullback,
    schreier_graph,
    spanning_tree,
    subgroup_index,
    subgroup_rank,
    walk,
)
from .words import (
    _MAX_WORD_LETTERS, Word, _check_rank, _cyclic_cut, _same_rank, exponent_sums, render_word,
    substitute,
)


@dataclass(frozen=True)
class RetractPresentation:
    """A retract given by a section of a retraction onto it.

    ``retraction_images`` lists the images of the ambient generators in
    an abstract free group of rank k; ``section_images`` lists the
    ambient words the abstract generators map back to, i.e. a basis of
    the retract.  The section property (retraction after section is the
    identity) is checked symbolically at construction.
    """

    ambient_rank: int
    section_images: tuple[Word, ...]
    retraction_images: tuple[Word, ...]

    def __post_init__(self) -> None:
        k = len(self.section_images)
        if not 1 <= k:
            raise ValueError("a retract presentation needs at least one section image")
        if len(self.retraction_images) != self.ambient_rank:
            raise ValueError("need one retraction image per ambient generator")
        for image in self.section_images:
            if image.rank != self.ambient_rank:
                raise ValueError("section images must live in the ambient group")
        for image in self.retraction_images:
            if image.rank != k:
                raise ValueError("retraction images must live in the rank-k group")
        for i, image in enumerate(self.section_images, start=1):
            if substitute(image, self.retraction_images, k) != Word(k, (i,)):
                raise ValueError(f"section property fails on generator {i}")

    @property
    def rank(self) -> int:
        return len(self.section_images)

    @cached_property
    def graph(self) -> CoreGraph:
        return from_generators(self.ambient_rank, self.section_images)


@dataclass(frozen=True)
class IntersectionReport:
    """Ranks and verdict for one subgroup/retract intersection."""

    rank_h: int
    rank_r: int
    rank_intersection: int
    smallest_power: int | None
    intersection_visible_in_h: bool | None
    verdict: str

    def to_json(self) -> dict:
        return dict(vars(self))


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def cyclic_retract(w: Word) -> RetractPresentation:
    """Present the cyclic subgroup on a visible word as a retract.

    The retraction sends generator i to the c_i-th power of the
    abstract generator, with the c_i a Bezout certificate for the
    exponent vector of ``w``.
    """
    sums = exponent_sums(w)
    running, coefficients = 0, []
    for entry in sums:
        running_next, x, y = _extended_gcd(running, entry)
        coefficients = [c * x for c in coefficients]
        coefficients.append(y)
        running = running_next
    if abs(running) != 1:
        raise ValueError("word is not visible, so its cyclic subgroup is no retract")
    if running == -1:
        coefficients = [-c for c in coefficients]
    retraction = tuple(
        Word(1, (1,) * c if c >= 0 else (-1,) * (-c)) for c in coefficients
    )
    return RetractPresentation(w.rank, (w,), retraction)


def smallest_power_in(graph: CoreGraph, w: Word) -> int | None:
    """Least m >= 1 with w^m in the subgroup, or None if there is none.

    Write w = p c p^-1 with c cyclically reduced.  Every power p c^m p^-1
    is then reduced, and in a folded graph it is read from the base
    exactly when p leads to a vertex x and c^m leads from x back to x.
    Reading c is an injective partial map on the vertices, so the orbit
    of x under it either breaks or returns to x within ``vertex_count``
    steps; m is the number of steps, at finite and infinite index alike.
    No graph is built: the arrays that c's letters step through are
    listed once, and one loop steps the orbit round by round.
    """
    if not w.letters:
        raise ValueError("the trivial word has no smallest power")
    _same_rank(w.rank, graph.rank)
    letters, table = w.letters, graph.table
    cut = _cyclic_cut(letters)
    start = vertex = walk(graph, 0, letters[:cut])
    if start is None:
        return None
    steps = [table[l] for l in letters[cut : len(letters) - cut]]
    m = 0
    while not m or vertex != start:
        for step in steps:
            vertex = step[vertex]
            if vertex < 0:
                return None
        m += 1
    return m


def _rank1_generator(graph: CoreGraph) -> Word:
    """The generator of a rank-1 subgroup, read in one walk of its graph.

    A rank-1 core graph is a cycle, with a stem from the base to it when
    the base is off the cycle: the base then has degree 1, the stem
    meets the cycle at the one vertex of degree 3, and every other
    vertex has degree 2.  The walk leaves each vertex by its first slot,
    in canonical letter order, other than the one it came in by: along
    the stem until two ways lead on, then once round the cycle from
    there.  The generator stem . cycle . stem^-1 is reduced as spelled,
    and it is ``basis(graph)[0]`` or its inverse.
    """
    moves = [(l, graph.table[l]) for l in _canonical_letters(graph.rank)]
    steps = dict(moves)
    ways = [l for l, array in moves if array[0] >= 0]
    vertex, stem = 0, []
    while len(ways) == 1:
        letter = ways[0]
        stem.append(letter)
        vertex = steps[letter][vertex]
        ways = [l for l, array in moves if l != -letter and array[vertex] >= 0]
    junction, letter = vertex, ways[0]
    cycle = [letter]
    vertex = steps[letter][vertex]
    while vertex != junction:
        back = -letter
        for letter, array in moves:
            if letter != back and array[vertex] >= 0:
                break
        cycle.append(letter)
        vertex = array[vertex]
    return Word._from_letters(graph.rank, (*stem, *cycle, *map(neg, reversed(stem))))


def _projected(retract: RetractPresentation, w: Word) -> Word:
    """rho(w) for rho = section o retraction, the retraction of the ambient
    group onto the retract: two substitutions."""
    abstract = substitute(w, retract.retraction_images, retract.rank)
    return substitute(abstract, retract.section_images, retract.ambient_rank)


def intersection_report(
    subgroup: CoreGraph, retract: "RetractPresentation | CoreGraph"
) -> IntersectionReport:
    """Intersect a subgroup with a retract and decide what is decidable.

    Verdicts: trivial intersections and full intersections (equal to the
    subgroup) are always retracts; a cyclic intersection is a retract of
    the subgroup exactly when its generator is visible there; any other
    proper intersection whose rank is at least the subgroup's cannot be
    a retract, because a retract of a free group of finite rank has at
    most its rank, and one of equal rank is the whole group (free groups
    of finite rank are Hopfian).  A retract given as a
    ``RetractPresentation`` carries the retraction
    rho = section o retraction of the ambient group onto it; when rho
    maps every basis word of the subgroup into the subgroup, rho
    restricted to the subgroup maps it into the intersection and fixes
    the intersection, so it is a retraction onto it and the verdict is
    yes.  The remaining cases, proper intersections of rank
    2 .. rk H - 1 that this test does not decide, are undecided.

    A retract of rank 1 is cyclic, R = <g>, and then H meets R in
    <g^m> for the least m >= 1 with g^m in H, or trivially when there is
    none; ``smallest_power_in`` finds m by walking H, so the
    intersection's rank and generator are read off it and no graph is
    built: neither a product of H and R nor, for a presented retract,
    the graph of R.  A rank-1 retract given as a graph has its g read by
    one walk of that graph (``_rank1_generator``).  Retracts of higher
    rank are intersected by ``pullback``, and a cyclic intersection has
    its generator read by the same walk.  No route builds a spanning
    tree: the generator's visibility in H is the gcd of its signed edge
    crossings in H's graph (``fgr.abelian._visible_member``).
    """
    presented = isinstance(retract, RetractPresentation)
    r_rank = retract.ambient_rank if presented else retract.rank
    _same_rank(subgroup.rank, r_rank)
    rank_h = subgroup_rank(subgroup)
    rank_r = retract.rank if presented else subgroup_rank(retract)

    smallest = None
    if rank_r == 1:
        generator = retract.section_images[0] if presented else _rank1_generator(retract)
        smallest = smallest_power_in(subgroup, generator)
        rank_i = 0 if smallest is None else 1
    else:
        intersection = pullback(subgroup, retract.graph if presented else retract)
        rank_i = subgroup_rank(intersection)

    visible = None
    if rank_i == 1:
        # The intersection's generator, up to an inverse that keeps visibility.
        u = generator**smallest if rank_r == 1 else _rank1_generator(intersection)
        visible = _visible_member(subgroup, u)

    if rank_i == 0:
        verdict = "yes"
    elif rank_i == 1:
        verdict = "yes" if visible else "no"
    elif intersection == canonicalize(subgroup):
        verdict = "yes"
    elif rank_i >= rank_h:
        verdict = "no"
    elif presented and all(contains(subgroup, _projected(retract, h)) for h in basis(subgroup)):
        verdict = "yes"
    else:
        verdict = "undecided"
    return IntersectionReport(rank_h, rank_r, rank_i, smallest, visible, verdict)


def bergman_counterexample(n: int, m: int, k: int) -> IntersectionReport:
    """A rank-m subgroup and rank-k retract of the rank-n free group
    whose intersection is not a retract of the subgroup.

    The subgroup is the rank-m family member over the first two
    generators; the retract is the free product of the cyclic retract
    on x[x,y]^floor((m-1)/2) with the coordinate factor on generators
    3..k+1.
    """
    if n < 2:
        raise ValueError(f"ambient rank must be at least 2, got {n}")
    if m < 3:
        raise ValueError(f"the counterexample family needs m >= 3, got {m}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"retract rank must be in 1..{n - 1}, got {k}")
    # The word's letter bound is the tighter one, so it fails before the rank.
    letters = wk_word((m - 1) // 2).letters
    _check_rank(n)
    w = Word(n, letters)
    lm = lm_graph(m)
    count = lm.vertex_count
    # Widened to rank n: labels 3..n carry no edge, so the numbering stays
    # canonical.  Their empty arrays, for 3..n and -n..-3, go between 2's and -2's.
    table = [*lm.table[:3], *([-1] * count for _ in range(2 * n - 4)), *lm.table[3:]]
    subgroup = CoreGraph._from_arrays(n, count, table, lm._edge_count)
    section = [w] + [Word(n, (i,)) for i in range(3, k + 2)]
    retraction = [Word(k, (1,)), Word(k)]
    retraction += [Word(k, (i - 1,)) for i in range(3, k + 2)]
    retraction += [Word(k)] * (n - k - 1)
    presented = RetractPresentation(n, tuple(section), tuple(retraction))
    return intersection_report(subgroup, presented)


# ---------------------------------------------------------------------------
# Seeded randomness and instance generators


def _trial_rng(seed: int, index: int) -> random.Random:
    """Independent deterministic generator for one trial of a suite."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


@cache
def _letter_options(rank: int) -> tuple[tuple[int, ...], ...]:
    """The letters that may follow each letter of a reduced word.

    Entry l, read with Python's negative indexing for l < 0, lists
    -rank..-1, 1..rank without -l; entry 0, for the first letter, lists
    them all.
    """
    alphabet = [l for l in range(-rank, rank + 1) if l]
    previous = (*range(rank + 1), *range(-rank, 0))  # index 2 * rank + 1 + l for l < 0
    return tuple(tuple(l for l in alphabet if l != -p) for p in previous)


def _random_reduced_word(rng: random.Random, rank: int, max_len: int, min_len: int = 1) -> Word:
    """A reduced word of a length uniform in min_len..max_len, each letter
    uniform among those that keep it reduced."""
    table, choice = _letter_options(rank), rng.choice
    letter = 0
    letters = [letter := choice(table[letter]) for _ in range(rng.randint(min_len, max_len))]
    return Word._from_letters(rank, tuple(letters))


_T = TypeVar("_T")


def _first(attempts: int, draw: Callable[[], _T | None], message: str) -> _T:
    """The first of at most ``attempts`` draws that is not None."""
    for _ in range(attempts):
        found = draw()
        if found is not None:
            return found
    raise RuntimeError(message)


def _random_visible_word(rng: random.Random, rank: int, max_len: int) -> Word:
    def draw() -> Word | None:
        w = _random_reduced_word(rng, rank, max_len)
        return w if is_visible(w) else None

    return _first(1000, draw, "failed to draw a visible word")


def _random_permutation(rng: random.Random, points: int) -> Permutation:
    images = list(range(points))
    rng.shuffle(images)
    return Permutation(tuple(images))


def _transitive(rank: int, perms: list[Permutation], base: int) -> CoreGraph | None:
    """The Schreier graph of a transitive action, or None for any other."""
    try:
        return schreier_graph(rank, perms, base)
    except ValueError:
        return None


def _random_transitive_graph(rng: random.Random, rank: int, max_index: int) -> CoreGraph:
    points = rng.randint(1, max_index)
    return _first(
        1000,
        lambda: _transitive(rank, [_random_permutation(rng, points) for _ in range(rank)], 0),
        "failed to draw a transitive action",
    )


def _random_subgroup(rng: random.Random, rank: int, gens: int, max_len: int) -> CoreGraph:
    words = [_random_reduced_word(rng, rank, max_len) for _ in range(gens)]
    return from_generators(rank, words)


def random_retract(n: int, k: int, seed: int, complexity: int = 2) -> RetractPresentation:
    """Draw a rank-k retract of the rank-n free group, reproducibly.

    The retraction projects the first k generators to themselves and
    the rest to random words in them; the section perturbs each
    coordinate generator by a product of conjugated kernel elements, so
    the section property holds by construction (and is re-verified).
    The retraction undoes the section, so the section is injective and
    its image, the retract, has rank k: one draw always serves.
    A complexity c that could make a section word longer than 10**6
    letters, and an ambient rank outside 1..26, are rejected before any
    draw.
    """
    if not 1 <= k <= n - 1:
        raise ValueError(f"retract rank must be in 1..{n - 1}, got {k}")
    if complexity < 0:
        raise ValueError("complexity must be nonnegative")
    # A section word has at most 1 + c(3c + 1) letters: c conjugated
    # kernel elements of at most 3c + 1 letters each.
    if 1 + complexity * (3 * complexity + 1) > _MAX_WORD_LETTERS:
        raise ValueError(f"section words could pass {_MAX_WORD_LETTERS} letters: c = {complexity}")
    _check_rank(n)
    rng = _trial_rng(seed, 0)
    projected = [
        _random_reduced_word(rng, k, complexity, min_len=0) for _ in range(k + 1, n + 1)
    ]
    retraction = tuple([Word(k, (i,)) for i in range(1, k + 1)] + projected)
    kernel = [
        Word(n, (j,)) * Word(n, projected[j - k - 1].letters).inverse()
        for j in range(k + 1, n + 1)
    ]
    section = []
    for i in range(1, k + 1):
        twist = Word(n)
        for _ in range(rng.randint(0, complexity)):
            element = rng.choice(kernel)
            if rng.random() < 0.5:
                element = element.inverse()
            conjugator = _random_reduced_word(rng, n, complexity, min_len=0)
            twist = twist * conjugator * element * conjugator.inverse()
        section.append(Word(n, (i,)) * twist)
    return RetractPresentation(n, tuple(section), retraction)


def _drawn_retract(rng: random.Random, n: int) -> RetractPresentation:
    """``random_retract`` of a rank, seed and complexity drawn from ``rng``."""
    return random_retract(n, rng.randint(1, n - 1), rng.getrandbits(63), rng.randint(0, 2))


# ---------------------------------------------------------------------------
# Finite groups for normal-subgroup sampling (regular actions)

@cache
def _regular_actions() -> tuple[tuple[Permutation, ...], ...]:
    """The small groups as permutations of themselves, built on first use.

    Each group is listed as maps of a set onto itself, the identity
    first: Z/q (q = 1..12) as z -> z + a and D_q (q = 3..6) as
    z -> +-z + a on Z/q, and S_3 as the permutations of 0..2.  An
    element h acts by g -> g then h, and the tuple of a group holds the
    ``Permutation`` of each element in the listed order, so element 0,
    the identity, is the base point.
    """
    groups = [
        *([tuple((z + a) % q for z in range(q)) for a in range(q)] for q in range(1, 13)),
        *(
            [tuple((s * z + a) % q for z in range(q)) for s in (1, -1) for a in range(q)]
            for q in range(3, 7)
        ),
        list(_itertools_permutations(range(3))),
    ]
    actions = []
    for elements in groups:
        position = {g: i for i, g in enumerate(elements)}
        actions.append(tuple(
            Permutation(tuple(position[tuple(h[z] for z in g)] for g in elements))
            for h in elements
        ))
    return tuple(actions)


def _random_normal_graph(rng: random.Random, rank: int) -> CoreGraph:
    """Kernel of a random surjection onto a small group, via the
    regular action; the stabilizer of the identity point is normal."""
    action = rng.choice(_regular_actions())
    return _first(
        1000,
        lambda: _transitive(rank, [rng.choice(action) for _ in range(rank)], 0),
        "failed to draw a generating tuple",
    )


# ---------------------------------------------------------------------------
# Property suites


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    trials: int
    passes: int
    failures: tuple[dict, ...]
    seed: int

    def to_json(self) -> dict:
        return {**vars(self), "failures": list(self.failures)}


def _graph_word(graph: CoreGraph, w: Word) -> dict:
    return {"graph": graph_to_json(graph), "word": render_word(w)}


def _subgroup_retract(subgroup: CoreGraph, retract: RetractPresentation) -> dict:
    return {
        "subgroup": graph_to_json(subgroup),
        "retract_basis": [render_word(w) for w in retract.section_images],
    }


def _trial_transfer_visibility(rng: random.Random) -> dict | None:
    rank = rng.choice((2, 3))
    graph = _random_transitive_graph(rng, rank, 12)
    tree = spanning_tree(graph)
    w = _random_visible_word(rng, rank, 40)
    image = transfer(graph, tree, w)
    projected = apply_projection(homology_projection(graph, tree), image)
    ok = image.coordinate_gcd() == 1 and projected.entries == exponent_sums(w)
    return None if ok else _graph_word(graph, w)


def _trial_single_cycle_power(rng: random.Random) -> dict | None:
    rank = rng.choice((2, 3))

    def draw() -> tuple[CoreGraph, Word] | None:
        graph = _random_transitive_graph(rng, rank, 12)
        for _ in range(60):
            w = _random_visible_word(rng, rank, 40)
            # w acts as one cycle exactly when the base's orbit is every vertex.
            if smallest_power_in(graph, w) == graph.vertex_count:
                return graph, w
        return None

    graph, w = _first(200, draw, "failed to condition on a single-cycle action")
    tree = spanning_tree(graph)
    power = w ** graph.vertex_count
    ok = (
        transfer(graph, tree, w) == abelianize_in_subgroup(graph, tree, power)
        and is_visible_in_subgroup(graph, tree, power)
    )
    return None if ok else _graph_word(graph, w)


def _trial_normal_power(rng: random.Random) -> dict | None:
    rank = rng.choice((2, 3))
    graph = _random_normal_graph(rng, rank)
    w = _random_visible_word(rng, rank, 40)
    m = smallest_power_in(graph, w)
    ok = m is not None and _visible_member(graph, w ** m)
    return None if ok else _graph_word(graph, w)


def _random_rank2_subgroup(rng: random.Random, rank: int, max_len: int) -> CoreGraph:
    def draw() -> CoreGraph | None:
        graph = _random_subgroup(rng, rank, 2, max_len)
        return graph if subgroup_rank(graph) == 2 else None

    return _first(200, draw, "failed to draw a rank-2 subgroup")


def _trial_rank2_intersection(rng: random.Random) -> dict | None:
    n = rng.randint(2, 4)
    subgroup = _random_rank2_subgroup(rng, n, 30)
    if rng.random() < 0.5:
        retract = _drawn_retract(rng, n)
    else:
        retract = cyclic_retract(_random_visible_word(rng, n, 20))
    report = intersection_report(subgroup, retract)
    if report.verdict == "yes":
        return None
    return {**_subgroup_retract(subgroup, retract), "report": report.to_json()}


def _trial_rank_bound(rng: random.Random) -> dict | None:
    n = rng.randint(2, 4)
    subgroup = _random_subgroup(rng, n, 3, 30)
    retract = _drawn_retract(rng, n)
    ok = subgroup_rank(pullback(subgroup, retract.graph)) <= subgroup_rank(subgroup)
    return None if ok else _subgroup_retract(subgroup, retract)


def _trial_hanna_neumann(rng: random.Random) -> dict | None:
    rank = rng.choice((2, 3))
    a = _random_subgroup(rng, rank, rng.randint(1, 3), 12)
    b = _random_subgroup(rng, rank, rng.randint(1, 3), 12)
    bound = (subgroup_rank(a) - 1) * (subgroup_rank(b) - 1)
    ok = max(subgroup_rank(pullback(a, b)) - 1, 0) <= bound
    return None if ok else {"a": graph_to_json(a), "b": graph_to_json(b)}


def _trial_schreier_formula(rng: random.Random) -> dict | None:
    rank = rng.choice((2, 3))
    graph = _random_transitive_graph(rng, rank, 12)
    index = subgroup_index(graph)
    ok = index is not None and subgroup_rank(graph) == index * (rank - 1) + 1
    return None if ok else {"graph": graph_to_json(graph)}


_SUITES: dict[str, Callable[[random.Random], dict | None]] = {
    "transfer-visibility": _trial_transfer_visibility,
    "single-cycle-power": _trial_single_cycle_power,
    "normal-power": _trial_normal_power,
    "rank2-intersection": _trial_rank2_intersection,
    "rank-bound-rk3": _trial_rank_bound,
    "hanna-neumann": _trial_hanna_neumann,
    "schreier-formula": _trial_schreier_formula,
}


def suite_names() -> tuple[str, ...]:
    return tuple(sorted(_SUITES))


def run_suite(name: str, trials: int, seed: int) -> SuiteReport:
    """Run a named property suite; deterministic for a given seed.

    The report counts passes and records the first counterexample, if
    any, in serialized form.
    """
    try:
        trial = _SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; known: {', '.join(suite_names())}")
    if trials < 0:
        raise ValueError(f"trial count must be non-negative, got {trials}")
    passes = 0
    failures: list[dict] = []
    for index in range(trials):
        record = trial(_trial_rng(seed, index))
        if record is None:
            passes += 1
        elif not failures:
            failures.append({"trial": index, **record})
    return SuiteReport(name, trials, passes, tuple(failures), seed)
