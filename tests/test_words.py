import random

import pytest

from fgr import (
    ParseError,
    Word,
    commutator,
    exponent_sums,
    parse_word,
    reduce_word,
    render_word,
    substitute,
)
from fgr.retracts import _random_reduced_word as random_reduced_word
from fgr.words import _parse_words


def test_reduce_full_cancellation():
    assert reduce_word(2, [1, 2, -2, -1]) == Word(2)


def test_reduce_already_reduced():
    w = reduce_word(2, [1, 1, 2, -1, -2])
    assert w.letters == (1, 1, 2, -1, -2)
    assert render_word(w) == "aabAB"


def test_reduce_of_word_times_inverse():
    ab = parse_word("ab", 2)
    assert reduce_word(2, ab.letters + ab.inverse().letters) == Word(2)


def test_reduce_rejects_bad_letters():
    with pytest.raises(ValueError):
        reduce_word(2, [0])
    with pytest.raises(ValueError):
        reduce_word(2, [3])


def test_word_constructor_rejects_unreduced():
    with pytest.raises(ValueError):
        Word(2, (1, -1))


def test_multiply_cancels():
    assert parse_word("a", 2) * parse_word("A", 2) == Word(2)


def test_multiply_rank_mismatch():
    with pytest.raises(ValueError):
        parse_word("a", 2) * parse_word("a", 3)


def test_inverse_reverses_and_flips():
    assert render_word(parse_word("aabAB", 2).inverse()) == "baBAA"


def test_power():
    ab = parse_word("ab", 2)
    assert render_word(ab**2) == "abab"
    assert ab**0 == Word(2)
    assert ab**-2 == (ab**2).inverse()


def test_commutator_examples():
    a, b = parse_word("a", 2), parse_word("b", 2)
    assert render_word(commutator(a, b)) == "abAB"
    assert commutator(a, a) == Word(2)
    ab = parse_word("ab", 2)
    assert commutator(ab, ab) == Word(2)


def test_parse_commutator_word():
    assert render_word(parse_word("a[a,b]", 2)) == "aabAB"


def test_parse_negative_power():
    assert render_word(parse_word("(ab)^-1", 2)) == "BA"


def test_parse_power_of_commutator():
    # expand x (xyx^-1y^-1)^2 by hand: no cancellation at the block seams
    assert render_word(parse_word("a[a,b]^2", 2)) == "aabABabAB"


def test_parse_empty_is_identity():
    assert parse_word("", 2) == Word(2)
    assert parse_word("   ", 2) == Word(2)


def test_parse_nested_and_whitespace():
    assert parse_word("[ [a,b], c ]", 3) == commutator(
        commutator(parse_word("a", 3), parse_word("b", 3)), parse_word("c", 3)
    )


def test_parse_error_positions():
    with pytest.raises(ParseError) as info:
        parse_word("abc", 2)
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_word("a^", 2)
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_word("(ab", 2)
    assert info.value.position == 3
    with pytest.raises(ParseError):
        parse_word("a*b", 2)
    # Superscripts are digits to str.isdigit but not to int; an
    # Arabic-Indic three is a decimal digit, which int reads.
    for text in ("a^\u00b2", "a^\u00b3b"):
        with pytest.raises(ParseError, match="expected an integer exponent") as info:
            parse_word(text, 2)
        assert info.value.position == 2
    assert parse_word("a^\u0663", 2) == parse_word("aaa", 2)


def test_parse_words_reads_one_comma_list():
    # Positions and empty items are pinned through the CLI in
    # test_cli.py; here the items and the checks shared with parse_word.
    assert _parse_words(" ab , [a,b]^2 ,", 2) == [
        parse_word("ab", 2),
        parse_word("[a,b]^2", 2),
        Word(2),
    ]
    with pytest.raises(ValueError, match=r"rank must be in 1\.\.26, got 0"):
        _parse_words("a", 0)
    with pytest.raises(ParseError, match="nested too deeply"):
        _parse_words("a," + "(" * 3000 + "a" + ")" * 3000, 2)
    # The letter bound holds per word, not for the list.
    assert len(_parse_words("a^600000,b^600000", 2)[1]) == 600_000
    with pytest.raises(ParseError, match="longer than 1000000 letters") as info:
        _parse_words("a^600000,b^600000,a^1000001", 2)
    assert info.value.position == 27


def test_parse_deep_nesting():
    assert parse_word("(" * 100 + "a" + ")" * 100, 2) == parse_word("a", 2)
    with pytest.raises(ParseError, match="nested too deeply"):
        parse_word("(" * 3000 + "a" + ")" * 3000, 2)


def from_deep_stack(frames, call):
    """``call()`` made from ``frames`` frames deeper than this one."""
    return call() if frames == 0 else from_deep_stack(frames - 1, call)


def test_nesting_bound_is_a_property_of_the_text():
    # 200 levels parse and the bracket of level 201 fails, at the same
    # position from a caller 200 frames deep as at module level.
    bound = 200
    deepest = "(" * (bound - 1) + "[a,b]" + ")" * (bound - 1)
    past = " " + "(" * (bound + 1) + "a" + ")" * (bound + 1)
    for frames in (0, 200):
        assert from_deep_stack(frames, lambda: parse_word(deepest, 2)) == parse_word("abAB", 2)
        with pytest.raises(ParseError, match="nested too deeply") as info:
            from_deep_stack(frames, lambda: parse_word(past, 2))
        assert info.value.position == bound + 1


def test_word_length_budget():
    assert len(parse_word("(abA)^400000", 2)) == 400_002
    for text, position in (("(ab)^10000000000", 16), ("a^1000001", 9)):
        with pytest.raises(ParseError, match="longer than 1000000 letters") as info:
            parse_word(text, 2)
        assert info.value.position == position
    nested = "b"
    for _ in range(40):
        nested = f"[a,{nested}]"
    with pytest.raises(ParseError, match="longer than 1000000 letters"):
        parse_word(nested, 2)
    with pytest.raises(ParseError, match="longer than 1000000 letters"):
        parse_word("a^600000 b^600000", 2)
    # Caught at the commutator, before it is built and raised to ^0.
    with pytest.raises(ParseError, match="longer than 1000000 letters") as info:
        parse_word("[a^300000,b^300000]^0", 2)
    assert info.value.position == 19


def test_exponent_sums_examples():
    assert exponent_sums(Word(2)) == (0, 0)
    assert exponent_sums(parse_word("aabAB", 2)) == (1, 0)
    assert exponent_sums(parse_word("aabb", 2)) == (2, 2)


def test_substitute():
    w = parse_word("a[a,b]", 2)
    images = [parse_word("a", 2), Word(2)]
    assert substitute(w, images, 2) == parse_word("a", 2)


def test_rank_boundaries():
    assert parse_word("z", 26) == Word(26, (26,))
    with pytest.raises(ValueError):
        parse_word("a", 27)
    # A word has any rank r >= 0; rank 0 is the trivial group.
    assert Word(0).letters == () and exponent_sums(Word(0)) == ()
    with pytest.raises(ValueError, match="rank must be at least 0, got -1"):
        Word(-1)
    with pytest.raises(ValueError, match="letter 1 outside alphabet of rank 0"):
        Word(0, (1,))
    # Text has 26 letters, so a word of rank 27 has no text form.
    assert Word(27, (27,)) * Word(27, (-27,)) == Word(27)
    with pytest.raises(ValueError, match=r"rank must be in 1\.\.26, got 27"):
        render_word(Word(27, (27,)))


def test_reduce_idempotent_and_nonincreasing():
    rng = random.Random(100)
    for _ in range(200):
        raw = [rng.choice([-2, -1, 1, 2]) for _ in range(rng.randint(0, 30))]
        once = reduce_word(2, raw)
        assert len(once) <= len(raw)
        assert reduce_word(2, once.letters) == once


def test_multiply_inverse_is_identity():
    rng = random.Random(101)
    for _ in range(200):
        w = random_reduced_word(rng, 3, 25)
        assert w * w.inverse() == Word(3)
        assert w.inverse() * w == Word(3)


def test_exponent_sums_is_homomorphism():
    rng = random.Random(102)
    for _ in range(200):
        u = random_reduced_word(rng, 3, 20)
        v = random_reduced_word(rng, 3, 20)
        combined = exponent_sums(u * v)
        assert combined == tuple(a + b for a, b in zip(exponent_sums(u), exponent_sums(v)))


def test_commutator_has_zero_exponent_sums():
    rng = random.Random(103)
    for _ in range(100):
        u = random_reduced_word(rng, 2, 15)
        v = random_reduced_word(rng, 2, 15)
        assert exponent_sums(commutator(u, v)) == (0, 0)


def test_render_parse_round_trip():
    rng = random.Random(104)
    for rank in (1, 2, 3, 5):
        for _ in range(100):
            w = random_reduced_word(rng, rank, 30, min_len=0)
            assert parse_word(render_word(w), rank) == w


def test_word_truth_text_and_product_with_a_non_word():
    w = parse_word("aB", 2)
    assert w and not Word(2)
    assert str(w) == "aB"
    assert w.__mul__("b") is NotImplemented
    with pytest.raises(TypeError):
        w * "b"
