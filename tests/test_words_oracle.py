"""The word builders that left-folded ``Word.__mul__``, kept as the
reference the single-pass builders are checked against.

``_LeftFoldParser`` with ``left_fold_parse_word``, ``left_fold_substitute``
and ``left_fold_evaluate_basis_word`` are the old parser, ``substitute``
and ``evaluate_basis_word`` as they were: each multiplied its parts into
a running word one at a time.  ``squaring_power`` is the old
``Word.__pow__``, which multiplied repeated squares.  The seeded tests
below require the new code to build equal words and to fail with the
same error, at the same position for malformed expressions.
"""

from __future__ import annotations

import random
from typing import Sequence

import pytest

from fgr import (
    MAX_RANK,
    BasisWord,
    ParseError,
    Word,
    commutator,
    evaluate_basis_word,
    identity,
    parse_word,
    substitute,
)


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
        word = identity(self.rank)
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


def left_fold_substitute(w: Word, images: Sequence[Word], rank: int) -> Word:
    """Apply the homomorphism generator i -> images[i-1] to ``w``.

    All image words must live in the free group of the target ``rank``.
    """
    if len(images) != w.rank:
        raise ValueError(f"expected {w.rank} images, got {len(images)}")
    out = identity(rank)
    for letter in w.letters:
        image = images[abs(letter) - 1]
        if image.rank != rank:
            raise ValueError("image word has the wrong rank")
        out = out * (image if letter > 0 else image.inverse())
    return out


def left_fold_evaluate_basis_word(
    basis_words: Sequence[Word], symbols: BasisWord, rank: int
) -> Word:
    """Substitute actual basis words for the symbols and reduce."""
    out = identity(rank)
    for symbol in symbols.letters:
        if abs(symbol) > len(basis_words):
            raise ValueError(f"basis symbol {symbol} out of range")
        word = basis_words[abs(symbol) - 1]
        out = out * (word if symbol > 0 else word.inverse())
    return out


def squaring_power(w: Word, exponent: int) -> Word:
    if exponent < 0:
        return squaring_power(w.inverse(), -exponent)
    result = identity(w.rank)
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


def random_reduced_word(rng, rank, max_len):
    letters = []
    for _ in range(rng.randint(0, max_len)):
        options = [
            l for l in range(-rank, rank + 1) if l != 0 and (not letters or l != -letters[-1])
        ]
        letters.append(rng.choice(options))
    return Word(rank, tuple(letters))


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
    rng = random.Random(9500)
    for _ in range(300):
        rank = rng.randint(1, 4)
        basis_words = [random_reduced_word(rng, rank, 8) for _ in range(rng.randint(0, 5))]
        if basis_words and rng.random() < 0.1:
            basis_words[rng.randrange(len(basis_words))] = random_reduced_word(
                rng, rank % 4 + 1, 3
            )
        letters = []
        for _ in range(rng.randint(0, 10)):
            symbol = rng.choice((1, -1)) * rng.randint(1, len(basis_words) + 1)
            if not letters or symbol != -letters[-1]:
                letters.append(symbol)
        symbols = BasisWord(tuple(letters))
        assert outcome(evaluate_basis_word, basis_words, symbols, rank) == outcome(
            left_fold_evaluate_basis_word, basis_words, symbols, rank
        )


def test_power_matches_oracle():
    rng = random.Random(9600)
    for _ in range(500):
        rank = rng.randint(1, 3)
        u, w = random_reduced_word(rng, rank, 4), random_reduced_word(rng, rank, 10)
        w = u * w * u.inverse()
        exponent = rng.randint(-12, 12)
        assert w ** exponent == squaring_power(w, exponent)
