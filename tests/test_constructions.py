from dataclasses import dataclass

import pytest

from fgr import (
    Word,
    basis,
    canonicalize,
    contains,
    exponent_sums,
    from_generators,
    is_visible,
    parse_word,
    render_word,
    rewrite_in_basis,
    subgroup_index,
    subgroup_rank,
)
from fgr.constructions import (
    gamma_graph,
    hm_graph,
    lm_graph,
    wk_square_rewrite,
    wk_word,
)


# The dihedral quotient D_m: the gamma graphs are pulled back from it.
@dataclass(frozen=True)
class DihedralElement:
    """Element t^reflection s^rotation of D_m = <t, s | t^2, s^m, tst=s^-1>."""

    modulus: int
    reflection: int
    rotation: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("dihedral modulus must be positive")
        if self.reflection not in (0, 1):
            raise ValueError("reflection bit must be 0 or 1")
        object.__setattr__(self, "rotation", self.rotation % self.modulus)

    @classmethod
    def identity(cls, modulus: int) -> "DihedralElement":
        return cls(modulus, 0, 0)

    def is_identity(self) -> bool:
        return self.reflection == 0 and self.rotation == 0

    def __mul__(self, other: "DihedralElement") -> "DihedralElement":
        if not isinstance(other, DihedralElement):
            return NotImplemented
        if self.modulus != other.modulus:
            raise ValueError("dihedral modulus mismatch")
        # (t^r1 s^a1)(t^r2 s^a2) = t^(r1+r2) s^(a2 + a1*(-1)^r2)
        rotation = other.rotation + self.rotation * (-1 if other.reflection else 1)
        return DihedralElement(self.modulus, self.reflection ^ other.reflection, rotation)

    def inverse(self) -> "DihedralElement":
        if self.reflection:
            return self
        return DihedralElement(self.modulus, 0, -self.rotation)


def dihedral_image(w: Word, m: int) -> DihedralElement:
    """Image of a rank-2 word under x -> t, y -> s in D_m."""
    if w.rank != 2:
        raise ValueError(f"dihedral image needs a rank-2 word, got rank {w.rank}")
    if m < 1:
        raise ValueError("dihedral modulus must be positive")
    t = DihedralElement(m, 1, 0)
    s = DihedralElement(m, 0, 1)
    table = {1: t, -1: t, 2: s, -2: s.inverse()}
    out = DihedralElement.identity(m)
    for letter in w.letters:
        out = out * table[letter]
    return out


# --- the covering graph family ----------------------------------------------

def test_gamma9_matches_edge_formulas():
    g = gamma_graph(9)
    edges = set(g.edges)
    assert (0, 0, 1) in edges        # a-loop at the base
    assert (4, 5, 1) in edges        # a-edge v4 -> v5
    assert (8, 0, 2) in edges        # b-edge v8 -> v0
    assert (1, 8, 1) in edges and (8, 1, 1) in edges
    assert edges == {(i, (9 - i) % 9, 1) for i in range(9)} | {
        (i, (i + 1) % 9, 2) for i in range(9)
    }


def test_gamma2():
    g = gamma_graph(2)
    assert set(g.edges) == {(0, 0, 1), (1, 1, 1), (0, 1, 2), (1, 0, 2)}


def test_gamma_index():
    for m in range(2, 51):
        assert subgroup_index(gamma_graph(m)) == m


def test_gamma_rejects_small_m():
    with pytest.raises(ValueError):
        gamma_graph(1)


# --- dihedral quotient ---------------------------------------------------------

def test_dihedral_multiplication_law():
    m = 7
    for a in range(m):
        for b in range(m):
            lhs = DihedralElement(m, 1, a) * DihedralElement(m, 1, b)
            assert lhs == DihedralElement(m, 0, b - a)


def test_dihedral_image_of_wk():
    for m in (3, 5, 8):
        for k in (1, 2, 5):
            image = dihedral_image(wk_word(k), m)
            assert image == DihedralElement(m, 1, -2 * k)
            assert dihedral_image(wk_word(k) ** 2, m).is_identity()
    assert dihedral_image(Word(2), 4).is_identity()


def test_dihedral_image_requires_rank_two():
    with pytest.raises(ValueError):
        dihedral_image(parse_word("a", 3), 5)


def test_membership_matches_dihedral_quotient():
    # w is in the subgroup exactly when its image lands in <t>
    for m in range(2, 7):
        graph, _ = hm_graph(m)
        for text in ("a", "ab", "bab", "abab", "bb", "aabAB"):
            w = parse_word(text, 2)
            assert contains(graph, w) == (dihedral_image(w, m).rotation == 0)


# --- the index-m subgroup -------------------------------------------------------

def test_hm_basis():
    graph, tree = hm_graph(3)
    assert [render_word(w) for w in basis(graph, tree)] == ["a", "baBB", "bbaB", "bbb"]


def test_hm_membership_divisibility_law():
    for m in range(2, 13):
        graph, _ = hm_graph(m)
        for k in range(1, 13):
            assert contains(graph, wk_word(k)) == ((2 * k) % m == 0)
            assert contains(graph, wk_word(k) ** 2)


# --- the rank-m family ------------------------------------------------------------

def test_lm_rank():
    for m in range(3, 12):
        assert subgroup_rank(lm_graph(m)) == m


def test_lm_odd_is_the_example_subgroup():
    expected = from_generators(2, [parse_word(t, 2) for t in ("a", "baBB", "bbaB")])
    assert lm_graph(3) == canonicalize(expected)


def test_lm_even_is_the_full_cover_subgroup():
    assert lm_graph(4) == canonicalize(hm_graph(3)[0])


def test_lm_contains_wk_squared():
    for k in (1, 2, 3):
        assert contains(lm_graph(2 * k + 1), wk_word(k) ** 2)


def test_lm_rejects_small_m():
    with pytest.raises(ValueError):
        lm_graph(2)


def test_t_words():
    # The preferred basis of hm_graph(9) is x, t_1, .., t_8, y^9 with
    # t_i = y^i x y^-(9-i).
    t_words = basis(*hm_graph(9))[1:9]
    assert render_word(t_words[0]) == "baBBBBBBBB"
    assert render_word(t_words[7]) == "bbbbbbbbaB"


# --- the word family ---------------------------------------------------------------

def test_wk_examples():
    assert render_word(wk_word(1)) == "aabAB"
    for k in range(1, 11):
        w = wk_word(k)
        assert len(w) == 4 * k + 1
        assert is_visible(w)
        assert exponent_sums(w) == (1, 0)
    with pytest.raises(ValueError):
        wk_word(0)


def test_word_families_keep_the_letter_budget():
    # 4k + 1 letters and 2m symbols are checked before anything is built:
    # k = 10**12 would ask for terabytes.
    assert len(wk_word(249_999)) == 999_997
    assert len(wk_square_rewrite(499_999)) == 999_998
    for k in (250_000, 300_000_000, 10**12):
        with pytest.raises(ValueError, match="longer than 1000000 letters"):
            wk_word(k)
    for m in (500_001, 300_000_001, 10**12 + 1):
        with pytest.raises(ValueError, match="longer than 1000000 symbols"):
            wk_square_rewrite(m)


# --- the closed-form rewrite ---------------------------------------------------------

def test_closed_form_small():
    assert wk_square_rewrite(3).letters == (1, 1, -3, 2, 3, -2)


def test_closed_form_m9_explicit():
    # x^2 t8' t7 t6' t5 t4' t3 t2' t1 t8 t7' t6 t5' t4 t3' t2 t1'
    # with symbol j+1 for t_j (and 1 for x)
    expected = (1, 1, -9, 8, -7, 6, -5, 4, -3, 2, 9, -8, 7, -6, 5, -4, 3, -2)
    assert wk_square_rewrite(9).letters == expected


def test_closed_form_matches_path_rewrite():
    for m in (3, 5, 7, 9, 11):
        k = (m - 1) // 2
        graph, tree = hm_graph(m)
        assert rewrite_in_basis(graph, tree, wk_word(k) ** 2) == wk_square_rewrite(m)


def test_closed_form_abelianization():
    for m in (3, 5, 7):
        symbols = wk_square_rewrite(m).letters
        counts = [0] * (m + 1)
        for s in symbols:
            counts[abs(s) - 1] += 1 if s > 0 else -1
        assert counts == [2] + [0] * m


def test_closed_form_rejects_even_m():
    with pytest.raises(ValueError):
        wk_square_rewrite(4)
    with pytest.raises(ValueError):
        wk_square_rewrite(1)
