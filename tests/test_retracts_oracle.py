"""The word sampler that filtered the alphabet afresh for every letter,
and the ``smallest_power_in`` that walked the cycle once per round, kept
as the references the table sampler and the one-loop orbit read are
checked against.

``oracle_random_reduced_word`` is the old ``_random_reduced_word``: for
each letter it listed -rank..-1, 1..rank without the previous letter's
inverse and drew from that list, and it built its word through the
checked constructor.  The sampler now draws from a per-rank table of the
same tuples in the same order, so on one seed the two must draw the same
letters and leave their generators in the same state; every suite digest
rests on this.  ``oracle_smallest_power_in`` is the old orbit read, which
called ``walk`` on the cycle once per round; the new one must give the
same exponent, or None, and raise the same errors in the same order.
``ORACLE_SMALL_GROUPS`` is the list of small groups the normal-subgroup
sampler drew from, each as (elements, identity, product), built at
import by one constructor per family; ``_regular_actions`` must hold,
group by group and element by element, the permutation that the old
sampler built from the product, with the identity first.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

from fgr import (
    Permutation,
    Word,
    from_generators,
    schreier_graph,
    smallest_power_in,
    walk,
)
from fgr.constructions import lm_graph, wk_word
from fgr.retracts import _random_normal_graph, _random_reduced_word, _regular_actions
from fgr.words import _cyclic_cut


def oracle_random_reduced_word(rng, rank, max_len, min_len=1):
    length = rng.randint(min_len, max_len)
    letters: list[int] = []
    for _ in range(length):
        options = [
            l
            for l in range(-rank, rank + 1)
            if l != 0 and (not letters or l != -letters[-1])
        ]
        letters.append(rng.choice(options))
    return Word(rank, tuple(letters))


def oracle_smallest_power_in(graph, w):
    if not w.letters:
        raise ValueError("the trivial word has no smallest power")
    if w.rank != graph.rank:
        raise ValueError(f"rank mismatch: {w.rank} != {graph.rank}")
    letters = w.letters
    cut = _cyclic_cut(letters)
    cycle = letters[cut : len(letters) - cut]
    start = vertex = walk(graph, 0, letters[:cut])
    m = 0
    while vertex is not None:
        vertex, m = walk(graph, vertex, cycle), m + 1
        if vertex == start:
            return m
    return None


def oracle_cyclic_group(q):
    elements = list(range(q))
    return elements, 0, lambda a, b: (a + b) % q


def oracle_dihedral_group(q):
    elements = [(r, a) for r in (0, 1) for a in range(q)]

    def multiply(x, y):
        r1, a1 = x
        r2, a2 = y
        return (r1 ^ r2, (a2 + a1 * (-1 if r2 else 1)) % q)

    return elements, (0, 0), multiply


def oracle_symmetric_group(q):
    elements = [tuple(p) for p in permutations(range(q))]

    def multiply(x, y):
        return tuple(y[i] for i in x)

    return elements, tuple(range(q)), multiply


ORACLE_SMALL_GROUPS = (
    [oracle_cyclic_group(q) for q in range(1, 13)]
    + [oracle_dihedral_group(q) for q in range(3, 7)]
    + [oracle_symmetric_group(3)]
)


def oracle_regular_action(group):
    """(permutation of each element, base point) as the old sampler built them."""
    elements, identity, multiply = group
    position = {g: i for i, g in enumerate(elements)}
    perms = [
        Permutation(tuple(position[multiply(g, image)] for g in elements)) for image in elements
    ]
    return perms, position[identity]


def oracle_random_normal_graph(rng, rank):
    perms, base = oracle_regular_action(rng.choice(ORACLE_SMALL_GROUPS))
    for _ in range(1000):
        try:
            return schreier_graph(rank, [rng.choice(perms) for _ in range(rank)], base)
        except ValueError:
            continue
    raise RuntimeError("failed to draw a generating tuple")


# --- the word sampler -------------------------------------------------------------


@pytest.mark.parametrize("min_len", [0, 1])
def test_sampler_draws_the_oracles_letters_and_leaves_the_same_state(min_len):
    for rank in range(1, 27):
        for seed in range(3):
            ours = random.Random(f"{rank}:{min_len}:{seed}")
            theirs = random.Random(f"{rank}:{min_len}:{seed}")
            # One generator runs through every max_len, so each draw
            # starts from the state the previous draws left.
            for max_len in range(61):
                if max_len < min_len:
                    with pytest.raises(ValueError):
                        _random_reduced_word(ours, rank, max_len, min_len)
                    with pytest.raises(ValueError):
                        oracle_random_reduced_word(theirs, rank, max_len, min_len)
                    continue
                w = _random_reduced_word(ours, rank, max_len, min_len)
                assert w == oracle_random_reduced_word(theirs, rank, max_len, min_len)
                assert ours.getstate() == theirs.getstate()
                # The sampler hands its word over unchecked.
                assert type(w.letters) is tuple
                assert Word(rank, w.letters) == w


def test_sampler_table_is_built_on_first_use():
    probe = (
        "import fgr, fgr.cli, fgr.retracts as r; "
        "print(r._letter_options.cache_info().currsize, r._regular_actions.cache_info().currsize)"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "0 0"


# --- the regular actions -----------------------------------------------------------


def test_regular_actions_match_the_old_group_constructors():
    actions = _regular_actions()
    assert len(actions) == len(ORACLE_SMALL_GROUPS) == 17
    for action, group in zip(actions, ORACLE_SMALL_GROUPS):
        perms, base = oracle_regular_action(group)
        assert base == 0
        assert list(action) == perms
        assert all(type(p) is Permutation for p in action)
        assert action[0] == Permutation(tuple(range(len(action))))


def test_normal_sampler_draws_the_oracles_graphs_and_leaves_the_same_state():
    for seed in range(200):
        ours, theirs = random.Random(seed), random.Random(seed)
        rank = 2 + seed % 2
        assert _random_normal_graph(ours, rank) == oracle_random_normal_graph(theirs, rank)
        assert ours.getstate() == theirs.getstate()


# --- the orbit read ------------------------------------------------------------------


def random_cover(rng, rank, max_points):
    while True:
        points = rng.randint(1, max_points)
        perms = []
        for _ in range(rank):
            images = list(range(points))
            rng.shuffle(images)
            perms.append(Permutation(tuple(images)))
        try:
            return schreier_graph(rank, perms, rng.randrange(points))
        except ValueError:
            continue


def breaks_partway(graph, w):
    """Whether the orbit of w's cycle breaks inside a round after the
    first, at a letter other than the round's first."""
    letters = w.letters
    cut = _cyclic_cut(letters)
    cycle = letters[cut : len(letters) - cut]
    start = vertex = walk(graph, 0, letters[:cut])
    for rounds in range(graph.vertex_count):
        for position in range(len(cycle)):
            vertex = walk(graph, vertex, cycle[position : position + 1])
            if vertex is None:
                return rounds > 0 and position > 0
        if vertex == start:
            return False
    raise AssertionError("the orbit outran the vertex count")


def test_orbit_read_matches_the_oracle_on_covers_and_folds():
    rng = random.Random(2219)
    seen = dict.fromkeys(("cover", "fold", "prefix leaves", "breaks partway", "none", "power"), 0)
    for trial in range(1500):
        rank = rng.randint(1, 3)
        w = _random_reduced_word(rng, rank, 10)
        if rng.random() < 0.5:
            conjugator = _random_reduced_word(rng, rank, 4)
            w = conjugator * w * conjugator.inverse()
        if trial % 3 == 0:
            graph = random_cover(rng, rank, 12)
            seen["cover"] += 1
        else:
            gens = [_random_reduced_word(rng, rank, 8) for _ in range(rng.randint(0, 2))]
            if trial % 3 == 2:
                # A loop that reads k rounds of w's cycle and part of one
                # more, so that the orbit tends to break partway.
                cut = _cyclic_cut(w.letters)
                cycle = w.letters[cut : len(w) - cut]
                stop = rng.randrange(len(cycle))
                gens.append(Word(rank, w.letters[:cut] + cycle * rng.randint(1, 3) + cycle[:stop]))
            graph = from_generators(rank, gens)
            seen["fold"] += 1
        expected = oracle_smallest_power_in(graph, w)
        assert smallest_power_in(graph, w) == expected
        cut = _cyclic_cut(w.letters)
        if walk(graph, 0, w.letters[:cut]) is None:
            seen["prefix leaves"] += 1
        elif expected is None and breaks_partway(graph, w):
            seen["breaks partway"] += 1
        seen["none" if expected is None else "power"] += 1
    assert min(seen.values()) >= 20, seen


def test_orbit_read_breaks_partway_through_a_later_round():
    # <a^3 b> in F_2 is a cycle 0 -a-> 1 -a-> 2 -a-> 3 -b-> 0: the first
    # round of aa reads 0 -> 2, and the second breaks at its second a.
    graph = from_generators(2, [Word(2, (1, 1, 1, 2))])
    for text in ((1, 2), (1, 1, 2), (1, 2, 1), (2, 1), (1,), (1, 1, 1, 2)):
        w = Word(2, text)
        assert smallest_power_in(graph, w) == oracle_smallest_power_in(graph, w)
    w = Word(2, (1, 1))
    assert breaks_partway(graph, w)
    assert smallest_power_in(graph, w) is None is oracle_smallest_power_in(graph, w)


@pytest.mark.parametrize("m", [3, 5, 9, 21, 51, 201])
def test_orbit_read_matches_the_oracle_on_the_counterexample_family(m):
    graph, w = lm_graph(m), wk_word((m - 1) // 2)
    assert smallest_power_in(graph, w) == oracle_smallest_power_in(graph, w) == 2
    v = w.inverse() * Word(2, (2,)) * w
    assert smallest_power_in(graph, v) == oracle_smallest_power_in(graph, v)


def test_orbit_read_raises_what_the_oracle_raises_in_its_order():
    graph = lm_graph(3)
    cases = [Word(2), Word(3), Word(3, (1,)), Word(1, (1,))]
    for w in cases:
        errors = []
        for read in (smallest_power_in, oracle_smallest_power_in):
            with pytest.raises(ValueError) as caught:
                read(graph, w)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
    # The empty word is named first, even at a mismatched rank.
    with pytest.raises(ValueError, match="trivial word"):
        smallest_power_in(graph, Word(3))
