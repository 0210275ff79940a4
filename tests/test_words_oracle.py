"""The word builders that left-folded ``Word.__mul__``, the parser that
read one letter per term, and the builders that checked every word they
made, kept as the reference the single-pass builders are checked against.

``_LeftFoldParser`` with ``left_fold_parse_word`` and
``left_fold_substitute`` are the old parser and ``substitute`` as they
were: each multiplied its parts into a running word one at a time.
``left_fold_substitute`` is also the oracle for evaluating a word over
a subgroup basis, whose rank may pass 26.  ``squaring_power`` is the old
``Word.__pow__``, which multiplied repeated squares.  ``_LetterParser``
with ``letter_parse_word`` is the parser that replaced the left fold: it
read every letter as a term of its own and checked the letter budget
after each; the parser now reads a run of letters whole.
``checked_reduce_word`` and ``generator_render_word`` are the old
``reduce_word``, which checked its letters while reducing and its result
again in ``Word``, and the old ``render_word``.  The seeded tests and
Hypothesis properties below require the new code to build equal words
and to fail with the same error, at the same position for malformed
expressions.  The builders hand their words to ``Word`` unchecked, so
every word they return here goes through ``rechecked``.
"""

from __future__ import annotations

import random
import re
import string
import sys
from contextlib import contextmanager
from datetime import timedelta
from functools import partial
from typing import Iterable, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fgr.words
from fgr import (
    MAX_RANK,
    ParseError,
    Word,
    commutator,
    parse_word,
    reduce_word,
    render_word,
    substitute,
)
from fgr.retracts import _random_reduced_word
from fgr.words import _cyclic_cut

_MAX_WORD_LETTERS = fgr.words._MAX_WORD_LETTERS

# Hypothesis runs here are short, reproducible and leave no database.
PROPERTY = settings(derandomize=True, database=None, deadline=timedelta(seconds=1))


def rechecked(w: Word) -> Word:
    """``w``, once checked for what a builder hands over unchecked: the
    checked constructor accepts its letters, a tuple of ints, and builds
    an equal word."""
    assert type(w) is Word and type(w.letters) is tuple
    assert all(type(letter) is int for letter in w.letters)
    assert Word(w.rank, w.letters) == w
    return w


def left_fold_parse_word(text: str, rank: int) -> Word:
    """Parse a word expression into a reduced :class:`Word`.

    Grammar::

        expr   := term { term }
        term   := atom [ '^' int ]
        atom   := letter | '[' expr ',' expr ']' | '(' expr ')'
        letter := 'a'..'z' | 'A'..'Z'
        int    := ['-'] digit { digit }

    Lowercase letter at alphabet position i denotes generator i,
    uppercase its inverse; ``[u,v]`` is the commutator.  Whitespace is
    ignored, and empty input denotes the identity.
    """
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in 1..{MAX_RANK}, got {rank}")
    parser = _LeftFoldParser(text, rank)
    try:
        return parser.parse()
    except RecursionError:
        # The parser recurses once per bracket level; the interpreter's
        # stack limit is the nesting bound.
        raise ParseError("expression nested too deeply", parser.pos) from None


class _LeftFoldParser:
    def __init__(self, text: str, rank: int) -> None:
        self.text = text
        self.rank = rank
        self.pos = 0

    def parse(self) -> Word:
        word = self._expr(required=False)
        self._skip_space()
        if self.pos != len(self.text):
            self._fail(f"unexpected character {self.text[self.pos]!r}")
        return word

    def _fail(self, message: str) -> None:
        raise ParseError(message, self.pos)

    def _skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str | None:
        self._skip_space()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def _expect(self, char: str) -> None:
        if self._peek() != char:
            self._fail(f"expected {char!r}")
        self.pos += 1

    def _expr(self, required: bool = True) -> Word:
        word = Word(self.rank)
        count = 0
        while True:
            ch = self._peek()
            if ch is None or ch in ",])":
                break
            word = word * self._term()
            count += 1
        if required and count == 0:
            self._fail("expected a word")
        return word

    def _term(self) -> Word:
        atom = self._atom()
        if self._peek() == "^":
            self.pos += 1
            return atom ** self._integer()
        return atom

    def _atom(self) -> Word:
        ch = self._peek()
        if ch is None:
            self._fail("expected a letter, '[' or '('")
        if ch == "(":
            self.pos += 1
            word = self._expr()
            self._expect(")")
            return word
        if ch == "[":
            self.pos += 1
            left = self._expr()
            self._expect(",")
            right = self._expr()
            self._expect("]")
            return commutator(left, right)
        if ch.isascii() and ch.isalpha():
            index = (ord(ch.lower()) - ord("a")) + 1
            if index > self.rank:
                self._fail(f"letter {ch!r} beyond rank {self.rank}")
            self.pos += 1
            return Word(self.rank, (index if ch.islower() else -index,))
        self._fail(f"unexpected character {ch!r}")
        raise AssertionError("unreachable")

    def _integer(self) -> int:
        self._skip_space()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            self._fail("expected an integer exponent")
        return int(self.text[start : self.pos])


def letter_parse_word(text: str, rank: int) -> Word:
    """Parse a word expression into a reduced :class:`Word`.

    Grammar::

        expr   := term { term }
        term   := atom [ '^' int ]
        atom   := letter | '[' expr ',' expr ']' | '(' expr ')'
        letter := 'a'..'z' | 'A'..'Z'
        int    := ['-'] digit { digit }

    Lowercase letter at alphabet position i denotes generator i,
    uppercase its inverse; ``[u,v]`` is the commutator.  Whitespace is
    ignored, empty input denotes the identity, and a word longer than
    10**6 letters is a :class:`ParseError`, raised before it is built.
    """
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in 1..{MAX_RANK}, got {rank}")
    parser = _LetterParser(text, rank)
    try:
        return parser.parse()
    except RecursionError:
        # The parser recurses once per bracket level; the interpreter's
        # stack limit is the nesting bound.
        raise ParseError("expression nested too deeply", parser.pos) from None


class _LetterParser:
    def __init__(self, text: str, rank: int) -> None:
        self.text = text
        self.rank = rank
        self.pos = 0

    def parse(self) -> Word:
        word = self._expr(required=False)
        self._skip_space()
        if self.pos != len(self.text):
            self._fail(f"unexpected character {self.text[self.pos]!r}")
        return word

    def _fail(self, message: str) -> None:
        raise ParseError(message, self.pos)

    def _skip_space(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str | None:
        self._skip_space()
        if self.pos < len(self.text):
            return self.text[self.pos]
        return None

    def _expect(self, char: str) -> None:
        if self._peek() != char:
            self._fail(f"expected {char!r}")
        self.pos += 1

    def _check_length(self, letters: int) -> None:
        if letters > _MAX_WORD_LETTERS:
            self._fail(f"word longer than {_MAX_WORD_LETTERS} letters")

    def _expr(self, required: bool = True) -> Word:
        ends = (None, ",", "]", ")")
        if required and self._peek() in ends:
            self._fail("expected a word")
        letters: list[int] = []
        while self._peek() not in ends:
            term = self._term()
            self._check_length(len(letters) + len(term))
            letters += term
        return reduce_word(self.rank, letters)

    def _term(self) -> tuple[int, ...]:
        atom = self._atom()
        if self._peek() == "^":
            self.pos += 1
            exponent = self._integer()
            cut = _cyclic_cut(atom)
            self._check_length(abs(exponent) * (len(atom) - 2 * cut) + 2 * cut)
            return (Word(self.rank, atom) ** exponent).letters
        return atom

    def _atom(self) -> tuple[int, ...]:
        ch = self._peek()
        if ch is None:
            self._fail("expected a letter, '[' or '('")
        if ch == "(":
            self.pos += 1
            word = self._expr()
            self._expect(")")
            return word.letters
        if ch == "[":
            self.pos += 1
            left = self._expr()
            self._expect(",")
            right = self._expr()
            self._expect("]")
            self._check_length(2 * (len(left) + len(right)))
            return commutator(left, right).letters
        if ch.isascii() and ch.isalpha():
            index = (ord(ch.lower()) - ord("a")) + 1
            if index > self.rank:
                self._fail(f"letter {ch!r} beyond rank {self.rank}")
            self.pos += 1
            return (index if ch.islower() else -index,)
        self._fail(f"unexpected character {ch!r}")
        raise AssertionError("unreachable")

    def _integer(self) -> int:
        self._skip_space()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            self._fail("expected an integer exponent")
        return int(self.text[start : self.pos])


def checked_reduce_word(rank: int, letters: Iterable[int]) -> Word:
    """Freely reduce a raw letter sequence into a :class:`Word`.

    Idempotent and length-nonincreasing; raises on letters outside the
    alphabet (zero or beyond the rank).
    """
    stack: list[int] = []
    for letter in letters:
        if letter == 0 or abs(letter) > rank:
            raise ValueError(f"letter {letter} outside alphabet of rank {rank}")
        if stack and stack[-1] == -letter:
            stack.pop()
        else:
            stack.append(letter)
    return Word(rank, tuple(stack))


def generator_render_word(w: Word) -> str:
    """Canonical text form: one ASCII letter per reduced letter."""
    return "".join(
        string.ascii_lowercase[l - 1] if l > 0 else string.ascii_uppercase[-l - 1]
        for l in w.letters
    )


def left_fold_substitute(w: Word, images: Sequence[Word], rank: int) -> Word:
    """Apply the homomorphism generator i -> images[i-1] to ``w``.

    All image words must live in the free group of the target ``rank``.
    """
    if len(images) != w.rank:
        raise ValueError(f"expected {w.rank} images, got {len(images)}")
    out = Word(rank)
    for letter in w.letters:
        image = images[abs(letter) - 1]
        if image.rank != rank:
            raise ValueError("image word has the wrong rank")
        out = out * (image if letter > 0 else image.inverse())
    return out


def squaring_power(w: Word, exponent: int) -> Word:
    if exponent < 0:
        return squaring_power(w.inverse(), -exponent)
    result = Word(w.rank)
    square = w
    k = exponent
    while k:
        if k & 1:
            result = result * square
        k >>= 1
        if k:
            square = square * square
    return result


def outcome(function, *args):
    """The value of a call, or the type, message and parse position of
    what it raised."""
    try:
        return function(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


# The suites' sampler, drawing the empty word too.
random_reduced_word = partial(_random_reduced_word, min_len=0)


def random_expression(rng, rank, depth):
    """A well-formed expression: letters, powers, parentheses and
    commutators nested at most ``depth`` deep, with stray whitespace."""
    parts = []
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if depth and roll < 0.2:
            atom = "(" + random_expression(rng, rank, depth - 1) + ")"
        elif depth and roll < 0.35:
            left = random_expression(rng, rank, depth - 1)
            atom = f"[{left},{random_expression(rng, rank, depth - 1)}]"
        else:
            letter = chr(ord("a") + rng.randrange(rank))
            atom = letter.upper() if rng.random() < 0.5 else letter
        if rng.random() < 0.25:
            atom += "^" + str(rng.randint(-4, 4))
        if rng.random() < 0.1:
            atom = " " + atom
        parts.append(atom)
    return "".join(parts)


def mutate(rng, text):
    """Delete, insert or replace up to three characters."""
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(chars))
        roll = rng.random()
        if chars and roll < 0.4:
            del chars[min(at, len(chars) - 1)]
        else:
            insert = rng.choice("abcABz()[],^-012 ?")
            if chars and roll < 0.7:
                chars[min(at, len(chars) - 1)] = insert
            else:
                chars.insert(at, insert)
    return "".join(chars)


@pytest.mark.parametrize("seed", range(4))
def test_parser_matches_oracle_on_random_expressions(seed):
    rng = random.Random(9300 + seed)
    for _ in range(300):
        rank = rng.randint(1, 3)
        text = random_expression(rng, rank, 3)
        expected = outcome(left_fold_parse_word, text, rank)
        assert isinstance(expected, Word)
        assert outcome(parse_word, text, rank) == expected
        broken = mutate(rng, text)
        assert outcome(parse_word, broken, rank) == outcome(left_fold_parse_word, broken, rank)


def test_parser_matches_oracle_on_edge_inputs():
    rng = random.Random(9350)
    flat = "".join(rng.choice("abAB") for _ in range(2048))
    for text in ("", "  ", "a", "aA", "(", ")", "a^", "a^-", "[a,", "[a,b", "a,b", "(a)b^-3",
                 "[(ab)^2, bA]^-2", "((((a))))^3", flat, flat + ")"):
        assert outcome(parse_word, text, 2) == outcome(left_fold_parse_word, text, 2)


def test_substitute_matches_oracle():
    rng = random.Random(9400)
    for _ in range(300):
        rank = rng.randint(1, 4)
        target = rng.randint(1, 4)
        w = random_reduced_word(rng, rank, 12)
        images = [random_reduced_word(rng, target, 6) for _ in range(rank)]
        roll = rng.random()
        if roll < 0.1:
            images.pop()
        elif roll < 0.2:
            images[rng.randrange(rank)] = random_reduced_word(rng, target % 4 + 1, 3)
        assert outcome(substitute, w, images, target) == outcome(
            left_fold_substitute, w, images, target
        )


def test_evaluate_basis_word_matches_oracle():
    # A word over a subgroup basis is evaluated by substituting the basis
    # words for its symbols: 300 draws over bases of 0..5 words, then 100
    # over bases of 27..60 words, past the 26 letters of the text form.
    rng = random.Random(9500)
    for low, high in [(0, 5)] * 300 + [(27, 60)] * 100:
        rank = rng.randint(1, 4)
        basis_words = [random_reduced_word(rng, rank, 8) for _ in range(rng.randint(low, high))]
        if basis_words and rng.random() < 0.1:
            basis_words[rng.randrange(len(basis_words))] = random_reduced_word(
                rng, rank % 4 + 1, 3
            )
        # One draw in ten has a symbol past the basis, so one image too few.
        source = len(basis_words) + (rng.random() < 0.1)
        symbols = random_reduced_word(rng, source, 10) if source else Word(0)
        assert outcome(substitute, symbols, basis_words, rank) == outcome(
            left_fold_substitute, symbols, basis_words, rank
        )


def test_empty_spellings_check_the_target_rank_as_the_oracles_do():
    # The target rank is checked before any image, for an empty spelling
    # and a non-empty one alike; every rank r >= 0 is one.
    images = [Word(2), parse_word("a", 2)]
    empty, spelled = Word(2), parse_word("ab", 2)
    negative = (ValueError, "rank must be at least 0, got -1", None)
    mismatch = (ValueError, "image word has the wrong rank", None)
    cases = (
        (-1, empty, negative),
        (-1, spelled, negative),
        (0, empty, Word(0)),
        (0, spelled, mismatch),
        (27, empty, Word(27)),
        (27, spelled, mismatch),
    )
    for target, w, expected in cases:
        assert outcome(substitute, w, images, target) == expected
        assert outcome(left_fold_substitute, w, images, target) == expected


def test_power_matches_oracle():
    rng = random.Random(9600)
    for _ in range(500):
        rank = rng.randint(1, 3)
        u, w = random_reduced_word(rng, rank, 4), random_reduced_word(rng, rank, 10)
        w = u * w * u.inverse()
        exponent = rng.randint(-12, 12)
        assert rechecked(w ** exponent) == squaring_power(w, exponent)


@contextmanager
def letter_budget(budget: int):
    """Both parsers with ``budget`` in place of the 10**6-letter budget."""
    global _MAX_WORD_LETTERS
    saved = _MAX_WORD_LETTERS
    fgr.words._MAX_WORD_LETTERS = _MAX_WORD_LETTERS = budget
    try:
        yield
    finally:
        fgr.words._MAX_WORD_LETTERS = _MAX_WORD_LETTERS = saved


def test_regex_whitespace_is_str_isspace():
    # The parser's runs match whitespace with \s and drop it with
    # str.split and str.rstrip; the per-letter parser skipped what
    # str.isspace accepts.  All four agree on every code point.
    everything = "".join(map(chr, range(sys.maxunicode + 1)))
    spaces = "".join(filter(str.isspace, everything))
    assert "".join(re.findall(r"\s", everything)) == spaces
    assert spaces.split() == [] and spaces.rstrip() == ""


# Unicode whitespace, and letters that are not ASCII.
SPACES = " \t\n\x0b\x1c\x85\xa0\u2028\u3000"
FOREIGN = "\xe9\xdf\u03a9\uff41\u0131"
NOISE = st.sampled_from(string.ascii_letters + FOREIGN + SPACES + "^()[],-0123?")
POWERS = st.builds(
    "{}^{}{}".format, st.sampled_from(("", " ", "\u3000")), st.sampled_from(("", " ")),
    st.integers(-3, 3),
)


@st.composite
def expressions(draw, letters: str, depth: int = 2):
    """Runs of ``letters`` and whitespace, joined, grouped, bracketed and
    raised to powers, with and without space before '^'."""
    parts = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.integers(0, 3)) if depth else 0
        if kind < 2:
            atom = draw(st.text(st.sampled_from(letters), min_size=1, max_size=20))
        elif kind == 2:
            atom = f"({draw(expressions(letters, depth - 1))})"
        else:
            left, right = (draw(expressions(letters, depth - 1)) for _ in "lr")
            atom = f"[{left},{right}]"
        if draw(st.booleans()):
            atom += draw(POWERS)
        parts.append(atom)
    return "".join(parts)


@st.composite
def parser_inputs(draw):
    """An expression with up to two noise characters inserted anywhere
    (letters beyond the rank, non-ASCII letters, punctuation), a rank,
    and a letter budget near the number of letters in it, so that runs
    cross it."""
    rank = draw(st.integers(1, 4))
    own = string.ascii_lowercase[:rank] + string.ascii_uppercase[:rank]
    text = draw(expressions(own * 8 + SPACES))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(NOISE) + text[at:]
    letters = sum(ch in own for ch in text)
    return text, rank, draw(st.integers(0, 2 * letters + 2))


@settings(PROPERTY, max_examples=100)
@given(parser_inputs())
def test_parser_matches_letter_parser(case):
    text, rank, budget = case
    with letter_budget(budget):
        crossed = outcome(parse_word, text, rank)
        assert crossed == outcome(letter_parse_word, text, rank)
    got = outcome(parse_word, text, rank)
    assert got == outcome(letter_parse_word, text, rank)
    for word in (crossed, got):
        if isinstance(word, Word):
            rechecked(word)


def test_run_over_the_real_budget_fails_where_its_letter_term_did():
    # Letter 1,000,001 is the 'a' at offset 1,000,001; the per-letter
    # parser failed after its term, past the spaces that follow it.
    text = "ab" * 500_000 + " a  b"
    with pytest.raises(ParseError, match="longer than 1000000 letters") as info:
        parse_word(text, 2)
    assert info.value.position == 1_000_004
    assert len(parse_word("ab" * 500_000 + " a^0 ", 2)) == 1_000_000


reduced_words = st.integers(1, MAX_RANK).flatmap(
    lambda rank: st.lists(st.integers(1, rank) | st.integers(-rank, -1), max_size=40).map(
        lambda letters: reduce_word(rank, letters)
    )
)


@settings(PROPERTY, max_examples=40)
@given(reduced_words)
def test_render_then_parse_is_the_identity(w):
    text = render_word(rechecked(w))
    assert text == generator_render_word(w)
    assert rechecked(parse_word(text, w.rank)) == w


@settings(PROPERTY, max_examples=40)
@given(st.data())
def test_builders_hand_over_words_the_checked_constructor_accepts(data):
    rank = data.draw(st.integers(1, 4))
    raw = data.draw(st.lists(st.integers(-rank - 1, rank + 1), max_size=30))
    claimed = data.draw(st.sampled_from((rank, rank, rank, 0, MAX_RANK + 1)))
    got = outcome(reduce_word, claimed, raw)
    assert got == outcome(checked_reduce_word, claimed, raw)
    assert outcome(reduce_word, claimed, iter(raw)) == got
    if isinstance(got, Word):
        rechecked(got)
    letters = st.lists(st.integers(1, rank) | st.integers(-rank, -1), max_size=20)
    u = rechecked(reduce_word(rank, data.draw(letters)))
    v = rechecked(reduce_word(rank, data.draw(letters)))
    assert rechecked(u * v) == checked_reduce_word(rank, u.letters + v.letters)
    assert rechecked(u.inverse()) * u == Word(rank)
    exponent = data.draw(st.integers(-4, 4))
    assert rechecked(u ** exponent) == squaring_power(u, exponent)
    inverses = [-l for l in reversed(u.letters + v.letters)]
    assert rechecked(commutator(u, v)) == checked_reduce_word(
        rank, u.letters + v.letters + tuple(inverses[len(v):] + inverses[: len(v)])
    )
