"""Words in a finitely generated free group.

A word is a freely reduced sequence of signed generator indices: letter
``i`` (1-based) is the i-th generator and ``-i`` its formal inverse.
``Word(rank, letters)`` is the one word type, for a free group of any
rank r >= 0: an ambient word, a word over a subgroup basis of any size
(``stallings.rewrite_in_basis``) and the closed form over the preferred
basis (``constructions.wk_square_rewrite``) alike.  Rank 0 is the
trivial group, whose only word is empty.  The text form writes
generator i as the i-th lowercase ASCII letter and its inverse as the
matching uppercase letter, so the ranks text or a graph can reach are
1..26: ``_check_rank`` bounds them for the parser, ``render_word`` and
the graph builders of ``stallings``, and ``retracts`` checks with it the
ambient rank of a random retract or a counterexample before it draws
or builds anything.

All operations return freely reduced words.  The rank check of ``*``,
and of each function of ``stallings``, ``abelian`` and ``retracts``
that takes a word and a graph, or two graphs, is one routine,
``_same_rank``, which raises ``rank mismatch: a != b``; each caller
runs it at its own place among its checks.  The public constructor
``Word(rank, letters)`` checks its input.  The builders (``reduce_word``,
``*``, ``inverse``, ``**`` and the parser) make words that are reduced
by construction and hand them to ``Word._from_letters``, which checks
nothing; ``reduce_word`` first checks the alphabet and the rank of its
raw letters, then reduces them in one pass.  The parser reads each
maximal run of letters and whitespace whole, with one regex match and
one table lookup per letter, and reduces each expression once.
``_parse_words`` reads a comma list of expressions with the same
parser, checks and bounds, so a position counts from the start of the
whole list.  Brackets nest at most 200 deep (``_MAX_NESTING``), a bound
of the text alone: the parser counts the depth, so what it accepts does
not depend on how deep the caller's stack already is.
Integer arithmetic is exact: exponent sums, and the vector sums and
projections of ``abelian``, are Python ints of any size.

Each map out of a free group is one routine.  ``substitute`` maps into
a free group: it checks the target rank, then spells each letter's
image, the image's inverse for an inverse letter, checking each image's
rank as a letter first uses it, and reduces the result once.  It is also
the way back from ``stallings.rewrite_in_basis``, from a basis of any
size.  ``exponent_sums`` maps into Z^r; ``abelian.abelianize_in_subgroup``
counts a rewritten word through it.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import cache
from itertools import islice
from operator import neg
from typing import Iterable, NoReturn, Sequence

MAX_RANK = 26

_MAX_WORD_LETTERS = 10**6

# Three parser frames per level fit 200 levels under the default
# recursion limit from a caller 200 frames deep.
_MAX_NESTING = 200


class ParseError(ValueError):
    """Malformed word expression; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} at position {position}")
        self.position = position


def _check_rank(rank: int) -> None:
    """Raise unless ``rank`` is in 1..26, the ranks of the text form and
    of the graph builders."""
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"rank must be in 1..{MAX_RANK}, got {rank}")


def _same_rank(a: int, b: int) -> None:
    """Raise ``rank mismatch: a != b`` unless the ranks ``a`` and ``b``
    agree: the one rank check of ``*`` and of the graph functions that
    take a word and a graph, or two graphs."""
    if a != b:
        raise ValueError(f"rank mismatch: {a} != {b}")


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the free group of the given rank r >= 0.

    Instances are immutable values; group operations produce new words.
    The constructor rejects unreduced letter sequences -- use
    :func:`reduce_word` to build a word from raw letters.  Builders whose
    letters are reduced by construction use ``_from_letters``, which
    checks nothing.
    """

    rank: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError(f"rank must be at least 0, got {self.rank}")
        previous = 0
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.rank:
                raise ValueError(
                    f"letter {letter} outside alphabet of rank {self.rank}"
                )
            if letter == -previous:
                raise ValueError("letter sequence is not freely reduced")
            previous = letter

    @classmethod
    def _from_letters(cls, rank: int, letters: tuple[int, ...]) -> Word:
        """A word on letters a builder has made reduced, taken as they are."""
        word = cls.__new__(cls)
        object.__setattr__(word, "rank", rank)
        object.__setattr__(word, "letters", letters)
        return word

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        return render_word(self)

    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        _same_rank(self.rank, other.rank)
        head, tail = self.letters, other.letters
        cut, most = 0, min(len(head), len(tail))
        while cut < most and head[-1 - cut] == -tail[cut]:
            cut += 1
        return Word._from_letters(self.rank, head[: len(head) - cut] + tail[cut:])

    def inverse(self) -> "Word":
        return Word._from_letters(self.rank, tuple(map(neg, reversed(self.letters))))

    def __pow__(self, exponent: int) -> "Word":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        if exponent == 0:
            return Word(self.rank)
        # w = p c p^-1 with c cyclically reduced, so w^k = p c^k p^-1.
        cut = _cyclic_cut(self.letters)
        end = len(self.letters) - cut
        core = self.letters[cut:end] * exponent
        return Word._from_letters(self.rank, self.letters[:cut] + core + self.letters[end:])


def _cyclic_cut(letters: Sequence[int]) -> int:
    """Letters at each end of a reduced word that cancel in its square."""
    cut = 0
    while 2 * cut < len(letters) and letters[cut] == -letters[-1 - cut]:
        cut += 1
    return cut


def reduce_word(rank: int, letters: Iterable[int]) -> Word:
    """Freely reduce a raw letter sequence into a :class:`Word`.

    Idempotent and length-nonincreasing; raises on the first letter
    outside the alphabet (zero or beyond the rank), then, as ``Word``
    does, on a negative rank.
    """
    if not isinstance(letters, (list, tuple)):
        letters = list(letters)
    for letter in letters:
        if letter == 0 or abs(letter) > rank:
            raise ValueError(f"letter {letter} outside alphabet of rank {rank}")
    # A letter in the alphabet implies a valid rank; no letter leaves it to Word.
    return Word._from_letters(rank, _free_reduction(letters)) if letters else Word(rank)


def _free_reduction(letters: Iterable[int]) -> tuple[int, ...]:
    """The free reduction of nonzero letters, in one pass over a stack."""
    stack = [0]  # a floor no nonzero letter cancels
    push, pop = stack.append, stack.pop
    for letter in letters:
        if stack[-1] == -letter:
            pop()
        else:
            push(letter)
    return tuple(stack[1:])


def commutator(u: Word, v: Word) -> Word:
    """u v u^-1 v^-1, freely reduced."""
    return u * v * u.inverse() * v.inverse()


def exponent_sums(w: Word) -> tuple[int, ...]:
    """Exponent-sum vector of ``w`` over the ambient generators.

    Entry i-1 is the signed number of occurrences of generator i; the
    map is a homomorphism onto the rank-n integer lattice.
    """
    counts = [0] * w.rank
    for letter in w.letters:
        counts[abs(letter) - 1] += 1 if letter > 0 else -1
    return tuple(counts)


def substitute(w: Word, images: Sequence[Word], rank: int) -> Word:
    """Apply the homomorphism generator i -> images[i-1] to ``w``.

    All image words must live in the free group of the target ``rank``,
    which is checked first, as ``Word`` checks it.  Each image is checked
    when a letter first uses it; the spelled letters are reduced once.
    """
    if len(images) != w.rank:
        raise ValueError(f"expected {w.rank} images, got {len(images)}")
    Word(rank)  # the target rank, before any image
    spelled: list[int] = []
    for letter in w.letters:
        image = images[abs(letter) - 1]
        if image.rank != rank:
            raise ValueError("image word has the wrong rank")
        spelled += image.letters if letter > 0 else map(neg, reversed(image.letters))
    return Word._from_letters(rank, _free_reduction(spelled))


# _GLYPHS[l] is the text form of letter l for l in -26..26: a negative
# index counts from the end, where the uppercase letters stand reversed.
_GLYPHS = ("", *string.ascii_lowercase, *reversed(string.ascii_uppercase))


def render_word(w: Word) -> str:
    """Canonical text form: one ASCII letter per reduced letter; a word
    of a rank outside 1..26 has none and raises ``ValueError``."""
    _check_rank(w.rank)
    return _render_letters(w.letters)


def _render_letters(letters: Iterable[int]) -> str:
    """The glyphs of signed letters, one per letter."""
    return "".join(map(_GLYPHS.__getitem__, letters))


def parse_word(text: str, rank: int) -> Word:
    """Parse a word expression into a reduced :class:`Word`.

    Grammar::

        expr   := term { term }
        term   := atom [ '^' int ]
        atom   := letter | '[' expr ',' expr ']' | '(' expr ')'
        letter := 'a'..'z' | 'A'..'Z'
        int    := ['-'] digit { digit }

    Lowercase letter at alphabet position i denotes generator i,
    uppercase its inverse; ``[u,v]`` is the commutator.  A digit is a
    character ``str.isdecimal`` accepts, the digits ``int`` reads.
    Whitespace is ignored, empty input denotes the identity, and a word
    longer than 10**6 letters is a :class:`ParseError`, raised before it
    is built.
    A run of letters and whitespace is read whole; it raises what
    reading it letter by letter would, at the same position.
    """
    return _Parser(text, rank).parse(separated=False)[0]


def _parse_words(text: str, rank: int) -> list[Word]:
    """The words of a comma list of expressions, each read and bounded
    as :func:`parse_word` reads one; a comma inside brackets belongs to
    its expression, an empty item is the identity, and a
    :class:`ParseError` position counts from the start of ``text``."""
    return _Parser(text, rank).parse(separated=True)


@cache
def _letter_runs(rank: int) -> tuple[re.Pattern, dict[str, int]]:
    """A pattern matching a run of the rank's letters and whitespace, and
    the letter each of those letters denotes.

    ``\\s`` matches exactly the characters ``str.isspace`` accepts, as do
    ``str.split`` and ``str.rstrip`` without arguments.
    """
    lower, upper = string.ascii_lowercase[:rank], string.ascii_uppercase[:rank]
    values = {ch: i for i, ch in enumerate(lower, start=1)}
    values.update({ch: -i for i, ch in enumerate(upper, start=1)})
    return re.compile(f"[{lower}{upper}\\s]+"), values


class _Parser:
    def __init__(self, text: str, rank: int) -> None:
        _check_rank(rank)
        self.text = text
        self.rank = rank
        self.pos = 0
        self.depth = 0
        self.run_pattern, self.values = _letter_runs(rank)

    def parse(self, separated: bool) -> list[Word]:
        """The words of the text: one expression, or a comma list of
        them if ``separated``."""
        words = [self._expr(required=False)]
        while separated and self._peek() == ",":
            self.pos += 1
            words.append(self._expr(required=False))
        self._skip_space()
        if self.pos != len(self.text):
            self._fail(f"unexpected character {self.text[self.pos]!r}")
        return words

    def _fail(self, message: str) -> NoReturn:
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
        while True:
            self._run(letters)
            if self._peek() in ends:
                break
            term = self._term()
            self._check_length(len(letters) + len(term))
            letters += term
        # Each letter came from the rank's table or a word of this rank.
        return Word._from_letters(self.rank, _free_reduction(letters))

    def _run(self, letters: list[int]) -> None:
        """Read the run of letters and whitespace at ``pos`` into
        ``letters``, each letter a term of its own; a last letter that
        takes a power is left to ``_term``.  Letters beyond the rank end
        the run, so ``_atom`` reports them."""
        run = self.run_pattern.match(self.text, self.pos)
        if run is None:
            return
        start, end = run.span()
        body = run.group()
        if self.text.startswith("^", end):
            body = body.rstrip()[:-1]
            end = start + len(body)
        taken = "".join(body.split())
        allowed = _MAX_WORD_LETTERS - len(letters)
        if len(taken) > allowed:
            # Where the term of the first letter over the budget ends.
            offsets = (i for i, ch in enumerate(body) if not ch.isspace())
            self.pos = start + next(islice(offsets, allowed, None)) + 1
            self._skip_space()
            self._check_length(_MAX_WORD_LETTERS + 1)
        letters += map(self.values.__getitem__, taken)
        self.pos = end

    def _term(self) -> tuple[int, ...]:
        atom = self._atom()
        if self._peek() == "^":
            self.pos += 1
            exponent = self._integer()
            cut = _cyclic_cut(atom)
            self._check_length(abs(exponent) * (len(atom) - 2 * cut) + 2 * cut)
            return (Word._from_letters(self.rank, atom) ** exponent).letters
        return atom

    def _atom(self) -> tuple[int, ...]:
        # ``_expr`` reads a term only after ``_peek`` found no end there.
        ch = self.text[self.pos]
        if ch == "(" or ch == "[":
            # The bracket that passes the bound is the error's position.
            if self.depth == _MAX_NESTING:
                self._fail("expression nested too deeply")
            self.depth += 1
            self.pos += 1
            if ch == "(":
                letters = self._expr().letters
                self._expect(")")
            else:
                left = self._expr()
                self._expect(",")
                right = self._expr()
                self._expect("]")
                self._check_length(2 * (len(left) + len(right)))
                letters = commutator(left, right).letters
            self.depth -= 1
            return letters
        if ch.isascii() and ch.isalpha():
            index = (ord(ch.lower()) - ord("a")) + 1
            if index > self.rank:
                self._fail(f"letter {ch!r} beyond rank {self.rank}")
            self.pos += 1
            return (index if ch.islower() else -index,)
        self._fail(f"unexpected character {ch!r}")

    def _integer(self) -> int:
        self._skip_space()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == digits:
            self.pos = start
            self._fail("expected an integer exponent")
        return int(self.text[start : self.pos])
